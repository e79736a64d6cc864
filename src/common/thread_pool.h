/// \file thread_pool.h
/// \brief A small reusable worker pool with a chunked work queue.
///
/// A ThreadPool spawns a fixed set of workers once and reuses them for
/// any number of ParallelFor calls. Each call publishes a job of
/// `num_items` independent work items; workers claim item indices one at
/// a time from a shared cursor (dynamic load balancing: a worker that
/// finishes early simply claims the next unclaimed item). The caller
/// blocks until every item has completed, which doubles as the
/// happens-before edge making all worker writes visible to the caller.
///
/// The pool is the engine behind the parallel pattern matcher, which
/// partitions its depth-0 candidates into chunks whose outputs are
/// merged in chunk order, so results are deterministic regardless of
/// which worker ran which chunk.

#ifndef GOOD_COMMON_THREAD_POOL_H_
#define GOOD_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace good::common {

class ThreadPool {
 public:
  /// Spawns `num_workers` worker threads (a request for 0 spawns 1).
  explicit ThreadPool(size_t num_workers);

  /// Joins all workers. Must not be called while a ParallelFor is in
  /// flight on another thread.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Runs fn(worker_index, item_index) for every item in [0, num_items)
  /// and blocks until all items are done. Items are claimed from a
  /// shared cursor, so fn runs concurrently on the pool's workers;
  /// worker_index < num_workers() identifies the executing worker,
  /// letting callers keep per-worker state without synchronization.
  /// Not re-entrant: one ParallelFor at a time per pool, and fn must not
  /// call back into the same pool.
  void ParallelFor(size_t num_items,
                   const std::function<void(size_t worker_index,
                                            size_t item_index)>& fn);

  /// The hardware thread count (at least 1).
  static size_t HardwareConcurrency();

 private:
  void WorkerMain(size_t worker_index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable work_cv_;  // Wakes workers: new job or stop.
  std::condition_variable done_cv_;  // Wakes ParallelFor: job drained.
  const std::function<void(size_t, size_t)>* job_ = nullptr;
  size_t job_items_ = 0;
  size_t next_item_ = 0;  // Next unclaimed item of the current job.
  size_t in_flight_ = 0;  // Items claimed but not yet finished.
  bool stop_ = false;
};

}  // namespace good::common

#endif  // GOOD_COMMON_THREAD_POOL_H_
