/// \file version.h
/// \brief Immutable database versions and the published-version chain.
///
/// The multi-session server gives every reader a *snapshot*: an
/// immutable (scheme, instance) pair frozen at some commit boundary.
/// A Version is one such pair plus the commit epoch that produced it
/// and the write footprint of the producing transaction. Versions are
/// shared by `std::shared_ptr<const Version>`: pinning a snapshot is a
/// refcount increment, an arbitrary number of readers share one copy,
/// and a version is reclaimed the moment its last reader unpins it —
/// epoch pinning without any explicit epoch bookkeeping. Publishing a
/// version copies the database, but an instance copy shares its
/// storage pages copy-on-write with the committer's database
/// (graph/instance.h): consecutive versions share every page the
/// commits between them did not write, and reclaiming a version frees
/// only the pages no newer version still holds.
///
/// The VersionChain is the single point of publication. The commit
/// pipeline publishes a new Version after each group-commit fsync;
/// sessions pin `Current()` when they begin. The chain also retains a
/// bounded history of recent commit footprints so the pipeline can run
/// the first-committer-wins validation: a transaction based on version
/// B conflicts iff some version with id in (B, current] has an
/// overlapping footprint (ops/footprint.h). When B has fallen behind
/// the retained window the check fails closed with kAborted
/// ("snapshot too old") — retrying against a fresh snapshot is the
/// documented reaction, and common::IsRetriable classifies it so.

#ifndef GOOD_SERVER_VERSION_H_
#define GOOD_SERVER_VERSION_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>

#include "common/result.h"
#include "ops/footprint.h"
#include "program/program.h"

namespace good::server {

/// \brief One immutable committed state of the database.
///
/// `db` is frozen at construction and never mutated afterwards; const
/// access from any number of threads is safe. `footprint` is the write
/// set of the transaction whose commit produced this version (empty for
/// the base version recovery produced).
struct Version {
  /// Commit epoch: 0 for the recovered base, then one per commit in
  /// serial commit order.
  uint64_t id = 0;
  program::Database db;
  ops::Footprint footprint;
};

using VersionRef = std::shared_ptr<const Version>;

/// \brief Thread-safe publication point for versions, with the bounded
/// footprint history backing first-committer-wins validation.
///
/// Publication order is the serial commit order: `Publish` requires
/// strictly increasing ids, and `Current()` returns the newest
/// published version. All members are safe to call concurrently.
class VersionChain {
 public:
  /// Retains the footprints of up to `max_history` recent commits for
  /// conflict validation. A transaction whose base version is older
  /// than the retained window cannot be validated and is aborted as
  /// "snapshot too old".
  explicit VersionChain(size_t max_history = 64)
      : max_history_(max_history == 0 ? 1 : max_history) {}

  VersionChain(const VersionChain&) = delete;
  VersionChain& operator=(const VersionChain&) = delete;

  /// Installs `base` as the sole version and clears the footprint
  /// history. Called once at server open with the recovered state.
  void Reset(VersionRef base);

  /// The newest published version; never null after Reset.
  VersionRef Current() const;

  /// Id of the newest published version.
  uint64_t current_id() const;

  /// First-committer-wins validation for a transaction based on
  /// `base_id` with write set `footprint`: returns the id of the
  /// earliest version in (base_id, current] whose footprint overlaps,
  /// or 0 when none does. Returns kAborted when `base_id` predates the
  /// retained footprint window (validation impossible — retry against
  /// a fresh snapshot).
  Result<uint64_t> FirstConflict(uint64_t base_id,
                                 const ops::Footprint& footprint) const;

  /// Publishes `version` as the new current state and records its
  /// footprint in the history window. `version->id` must exceed the
  /// current id; publications happen in serial commit order.
  void Publish(VersionRef version);

 private:
  const size_t max_history_;
  mutable std::mutex mu_;
  VersionRef current_;
  /// (id, footprint) of recent commits, ascending and contiguous in id.
  std::deque<std::pair<uint64_t, ops::Footprint>> history_;
};

}  // namespace good::server

#endif  // GOOD_SERVER_VERSION_H_
