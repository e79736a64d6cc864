/// \file harness.h
/// \brief Arithmetic the end-to-end benchmark relies on: a portable
/// seeded generator, a Zipf draw, the percentile rule, and in-memory
/// spans with self-time accounting. Kept free of the database so the
/// harness tests can check it in isolation.

#ifndef GOOD_PERFBENCH_HARNESS_H_
#define GOOD_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: the same seed yields the same stream on every platform
/// and standard library (std:: distributions do not promise that).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Zipf over ranks [0, n): P(k) proportional to 1 / (k + 1)^exponent.
/// Drawn by inverting the cumulative distribution, so rank 0 is the
/// hottest key.
class Zipf {
 public:
  Zipf(size_t n, double exponent);
  size_t Draw(Rng& rng) const;
  double Probability(size_t rank) const;
  size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank percentile of `samples` (need not be sorted); p in
/// (0, 100]. Returns 0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// The highest of the percentiles 99.9, 99, 90 and 50 that leaves at
/// least ten samples above it in a sample of `n`; 0 when none does.
double TailPercentile(size_t n);

/// Median and the percentile TailPercentile picks, with the count.
struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  double tail_percentile = 0;  ///< 0 when the sample supports none.
  double tail = 0;
};
LatencySummary Summarize(const std::vector<double>& samples);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& samples);

/// One timed interval. Spans of one client request share `request`;
/// `parent` indexes the enclosing span in the same log (-1 for a root).
struct Span {
  const char* name = "";
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
};

/// Monotonic nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A per-thread, append-only span log. Not thread-safe: each worker
/// thread owns one; logs are merged after the threads are joined.
class SpanLog {
 public:
  /// Opens a span as a child of the innermost open one; returns its
  /// index for Close().
  int32_t Open(const char* name);
  void Close(int32_t index);
  /// Request id stamped on spans opened from now on.
  void set_request(uint64_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
  uint64_t request_ = 0;
};

/// RAII span; a null log makes it a no-op (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), index_(log ? log->Open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Self time of every span: its duration minus the part of its
/// interval covered by the union of its children's intervals (children
/// may overlap each other or stick out of the parent; only the covered
/// part inside the parent counts, once).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Formats a double with all its significant digits for JSON.
std::string JsonNumber(double value);

}  // namespace perfbench

#endif  // GOOD_PERFBENCH_HARNESS_H_
