/// Figures 4-5: matching the paper's Rock pattern (and variants)
/// against instances of increasing size.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "pattern/builder.h"
#include "pattern/matcher.h"

namespace good {
namespace {

using pattern::GraphBuilder;

void BM_Fig4PatternOnPaperInstance(benchmark::State& state) {
  auto scheme = hypermedia::BuildScheme().ValueOrDie();
  auto built = hypermedia::BuildInstance(scheme).ValueOrDie();
  auto fig4 = hypermedia::Fig4Pattern(scheme).ValueOrDie();
  for (auto _ : state) {
    auto matchings = pattern::FindMatchings(fig4.pattern, built.instance);
    benchmark::DoNotOptimize(matchings.size());
  }
  bench::ExportMatchStats(state, fig4.pattern, built.instance);
}
BENCHMARK(BM_Fig4PatternOnPaperInstance);

/// The Figure 4 shape (valued date + name + one hop) on scaled
/// instances: selectivity keeps this nearly constant-time thanks to the
/// print-value index.
void BM_SelectivePatternScaling(benchmark::State& state) {
  const auto& scheme = bench::HyperMediaScheme();
  const auto& g = bench::ScaledInstance(static_cast<size_t>(state.range(0)));
  GraphBuilder b(scheme);
  auto upper = b.Object("Info");
  auto lower = b.Object("Info");
  auto name = b.Printable("String", Value("doc1"));
  b.Edge(upper, "name", name).Edge(upper, "links-to", lower);
  auto p = b.BuildOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern::FindMatchings(p, g).size());
  }
  bench::ExportMatchStats(state, p, g);
}
BENCHMARK(BM_SelectivePatternScaling)->Range(64, 8192);

/// An unanchored one-hop pattern: work grows with the number of
/// links-to edges.
void BM_UnanchoredPatternScaling(benchmark::State& state) {
  const auto& scheme = bench::HyperMediaScheme();
  const auto& g = bench::ScaledInstance(static_cast<size_t>(state.range(0)));
  GraphBuilder b(scheme);
  auto x = b.Object("Info");
  auto y = b.Object("Info");
  b.Edge(x, "links-to", y);
  auto p = b.BuildOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(pattern::FindMatchings(p, g).size());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  bench::ExportMatchStats(state, p, g);
}
BENCHMARK(BM_UnanchoredPatternScaling)->Range(64, 8192);

void BM_CountVsMaterialize(benchmark::State& state) {
  const auto& scheme = bench::HyperMediaScheme();
  const auto& g = bench::ScaledInstance(2048);
  GraphBuilder b(scheme);
  auto x = b.Object("Info");
  auto y = b.Object("Info");
  b.Edge(x, "links-to", y);
  auto p = b.BuildOrDie();
  const bool materialize = state.range(0) == 1;
  for (auto _ : state) {
    pattern::Matcher matcher(p, g);
    if (materialize) {
      benchmark::DoNotOptimize(matcher.FindAllChecked().ValueOrDie().size());
    } else {
      benchmark::DoNotOptimize(matcher.CountChecked().ValueOrDie());
    }
  }
  bench::ExportMatchStats(state, p, g);
}
BENCHMARK(BM_CountVsMaterialize)->Arg(0)->Arg(1);

}  // namespace
}  // namespace good

BENCHMARK_MAIN();
