#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t Rng::Below(uint64_t n) { return Next() % n; }

Zipf::Zipf(size_t n, double exponent) {
  cdf_.reserve(n);
  double total = 0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
  if (!cdf_.empty()) cdf_.back() = 1.0;
}

size_t Zipf::Draw(Rng& rng) const {
  const double u = rng.Uniform();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

double Zipf::Probability(size_t rank) const {
  return rank == 0 ? cdf_[0] : cdf_[rank] - cdf_[rank - 1];
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  // The epsilon keeps ceil() exact where p n / 100 is an integer.
  size_t rank = static_cast<size_t>(std::ceil(p * n / 100.0 - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double TailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 90.0, 50.0}) {
    // Nearest rank r = ceil(p n / 100) leaves n - r samples above it.
    const size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
    if (n >= rank && n - rank >= 10) return p;
  }
  return 0;
}

LatencySummary Summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.count = samples.size();
  s.p50 = Percentile(samples, 50);
  s.tail_percentile = TailPercentile(samples.size());
  s.tail = s.tail_percentile > 0 ? Percentile(samples, s.tail_percentile)
                                 : 0;
  return s;
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0;
  double total = 0;
  for (double v : samples) total += v;
  return total / static_cast<double>(samples.size());
}

int32_t SpanLog::Open(const char* name) {
  Span span;
  span.name = name;
  span.request = request_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void SpanLog::Close(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  // Spans close innermost first; tolerate out-of-order closes anyway.
  auto it = std::find(open_.rbegin(), open_.rend(), index);
  if (it != open_.rend()) open_.erase(std::next(it).base());
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t lo = std::max(s.start_ns, p.start_ns);
    const int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t cur_lo = 0;
    int64_t cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench
