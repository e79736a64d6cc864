// Tests of the benchmark's own arithmetic: the percentile rule, seed
// determinism of the generated inputs, the Zipf draw, and span self
// time. Exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"
#include "hypermedia/hypermedia.h"
#include "workloads.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "FAIL %s:%d: %s\n", __FILE__, __LINE__,     \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (false)

using namespace perfbench;

void PercentileRule() {
  // Nearest rank: ceil(p n / 100).
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT(Percentile(v, 50) == 50);
  EXPECT(Percentile(v, 90) == 90);
  EXPECT(Percentile(v, 99) == 99);
  EXPECT(Percentile(v, 100) == 100);
  EXPECT(Percentile({}, 50) == 0);

  // The highest percentile with at least ten samples above it.
  EXPECT(TailPercentile(0) == 0);
  EXPECT(TailPercentile(19) == 0);
  EXPECT(TailPercentile(20) == 50);
  EXPECT(TailPercentile(99) == 50);
  EXPECT(TailPercentile(100) == 90);
  EXPECT(TailPercentile(999) == 90);
  EXPECT(TailPercentile(1000) == 99);
  EXPECT(TailPercentile(9999) == 99);
  EXPECT(TailPercentile(10000) == 99.9);

  LatencySummary s = Summarize(v);
  EXPECT(s.count == 100);
  EXPECT(s.p50 == 50);
  EXPECT(s.tail_percentile == 90);
  EXPECT(s.tail == 90);
  LatencySummary small = Summarize({3, 1, 2});
  EXPECT(small.p50 == 2);
  EXPECT(small.tail_percentile == 0);
  EXPECT(small.tail == 0);
}

void SeedDeterminism() {
  const auto scheme = good::hypermedia::BuildScheme().ValueOrDie();
  const std::string a = StreamBytes(MakeCommitHeavy(scheme, 7, 64));
  const std::string b = StreamBytes(MakeCommitHeavy(scheme, 7, 64));
  const std::string c = StreamBytes(MakeCommitHeavy(scheme, 8, 64));
  EXPECT(!a.empty());
  EXPECT(a == b);
  EXPECT(a != c);
  const std::string q1 = StreamBytes(MakeQueryHeavy(scheme, 7, 256));
  const std::string q2 = StreamBytes(MakeQueryHeavy(scheme, 7, 256));
  const std::string q3 = StreamBytes(MakeQueryHeavy(scheme, 9, 256));
  EXPECT(q1 == q2);
  EXPECT(q1 != q3);

  auto r1 = MakeRulesFixpoint(7).ValueOrDie();
  auto r2 = MakeRulesFixpoint(7).ValueOrDie();
  auto r3 = MakeRulesFixpoint(8).ValueOrDie();
  EXPECT(r1.rule_seed == r2.rule_seed);
  EXPECT(r1.rules.size() == r2.rules.size());
  EXPECT(r1.graph.AllEdges() == r2.graph.AllEdges());
  EXPECT(r1.graph.AllEdges() != r3.graph.AllEdges());
  // The rule set does not depend on the seed.
  EXPECT(r1.rule_seed == r3.rule_seed);
}

void ZipfDraw() {
  // SplitMix64's published first output for state 0.
  Rng zero(0);
  EXPECT(zero.Next() == 0xe220a8397b1dcdafull);

  const Zipf zipf(100, 1.0);
  double total = 0;
  for (size_t k = 0; k < zipf.size(); ++k) {
    total += zipf.Probability(k);
    if (k > 0) EXPECT(zipf.Probability(k) < zipf.Probability(k - 1));
  }
  EXPECT(std::fabs(total - 1.0) < 1e-9);
  EXPECT(std::fabs(zipf.Probability(0) / zipf.Probability(1) - 2.0) < 1e-9);
  EXPECT(std::fabs(zipf.Probability(0) / zipf.Probability(9) - 10.0) < 1e-9);

  Rng rng(42);
  Rng again(42);
  std::vector<size_t> counts(zipf.size());
  const size_t draws = 200000;
  for (size_t i = 0; i < draws; ++i) {
    const size_t k = zipf.Draw(rng);
    EXPECT(k < zipf.size());
    EXPECT(k == zipf.Draw(again));
    ++counts[k];
  }
  for (size_t k : {0, 1, 5, 50}) {
    const double observed = static_cast<double>(counts[k]) / draws;
    const double expected = zipf.Probability(k);
    // Five standard deviations of a binomial proportion.
    const double sigma = std::sqrt(expected * (1 - expected) / draws);
    EXPECT(std::fabs(observed - expected) < 5 * sigma);
  }

  const Zipf uniform(4, 0.0);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT(std::fabs(uniform.Probability(k) - 0.25) < 1e-12);
  }
}

void SpanSelfTime() {
  auto span = [](int64_t start, int64_t end, int32_t parent) {
    Span s;
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    return s;
  };
  std::vector<Span> spans = {
      span(0, 100, -1),  // 0: root
      span(10, 30, 0),   // 1: child
      span(20, 50, 0),   // 2: child overlapping 1
      span(90, 120, 0),  // 3: child sticking out of the root
      span(15, 25, 1),   // 4: grandchild under 1
      span(200, 210, -1),
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  // Root: 100 minus [10,50] and [90,100] = 100 - 40 - 10.
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 10);  // 20 minus the grandchild's 10
  EXPECT(self[2] == 30);
  EXPECT(self[3] == 30);
  EXPECT(self[4] == 10);
  EXPECT(self[5] == 10);

  // Identical children count once.
  std::vector<Span> twins = {span(0, 10, -1), span(2, 6, 0), span(2, 6, 0)};
  EXPECT(SelfTimes(twins)[0] == 6);

  // SpanLog links children to the innermost open span and stamps the
  // request id.
  SpanLog log;
  log.set_request(7);
  const int32_t outer = log.Open("outer");
  const int32_t inner = log.Open("inner");
  log.Close(inner);
  const int32_t sibling = log.Open("sibling");
  log.Close(sibling);
  log.Close(outer);
  const auto& s = log.spans();
  EXPECT(s.size() == 3);
  EXPECT(s[0].parent == -1);
  EXPECT(s[1].parent == outer);
  EXPECT(s[2].parent == outer);
  for (const Span& x : s) {
    EXPECT(x.request == 7);
    EXPECT(x.end_ns >= x.start_ns);
  }
  {
    ScopedSpan off(nullptr, "ignored");  // the untraced path records nothing
  }
  EXPECT(log.spans().size() == 3);
}

}  // namespace

int main() {
  PercentileRule();
  SeedDeterminism();
  ZipfDraw();
  SpanSelfTime();
  if (failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
