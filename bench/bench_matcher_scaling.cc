/// Matcher scaling characterization: instance size, pattern size, and
/// graph density (the paper's language is pattern matching; this is its
/// dominant cost).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "pattern/builder.h"
#include "pattern/matcher.h"

namespace good {
namespace {

using pattern::GraphBuilder;

/// Path pattern of length `k` on a fixed-size random graph.
void BM_PatternSizeSweep(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const auto& scheme = bench::HyperMediaScheme();
  auto g = gen::RandomInfoGraph(scheme, 512, 1024, /*seed=*/3).ValueOrDie();
  GraphBuilder b(scheme);
  std::vector<graph::NodeId> nodes;
  for (size_t i = 0; i <= k; ++i) nodes.push_back(b.Object("Info"));
  for (size_t i = 0; i < k; ++i) b.Edge(nodes[i], "links-to", nodes[i + 1]);
  auto p = b.BuildOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pattern::Matcher(p, g).CountChecked().ValueOrDie());
  }
  bench::ExportMatchStats(state, p, g);
}
BENCHMARK(BM_PatternSizeSweep)->DenseRange(1, 5);

/// One-hop pattern on graphs of growing size with fixed density.
void BM_InstanceSizeSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const auto& scheme = bench::HyperMediaScheme();
  auto g = gen::RandomInfoGraph(scheme, n, 2 * n, /*seed=*/3).ValueOrDie();
  GraphBuilder b(scheme);
  auto x = b.Object("Info");
  auto y = b.Object("Info");
  auto z = b.Object("Info");
  b.Edge(x, "links-to", y).Edge(y, "links-to", z);
  auto p = b.BuildOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pattern::Matcher(p, g).CountChecked().ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * n);
  bench::ExportMatchStats(state, p, g);
}
BENCHMARK(BM_InstanceSizeSweep)->Range(128, 16384);

/// Density sweep at fixed node count.
void BM_DensitySweep(benchmark::State& state) {
  const size_t edges = static_cast<size_t>(state.range(0));
  const auto& scheme = bench::HyperMediaScheme();
  auto g = gen::RandomInfoGraph(scheme, 512, edges, /*seed=*/3).ValueOrDie();
  GraphBuilder b(scheme);
  auto x = b.Object("Info");
  auto y = b.Object("Info");
  auto z = b.Object("Info");
  b.Edge(x, "links-to", y).Edge(y, "links-to", z);
  auto p = b.BuildOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pattern::Matcher(p, g).CountChecked().ValueOrDie());
  }
  bench::ExportMatchStats(state, p, g);
}
BENCHMARK(BM_DensitySweep)->Range(256, 16384);

/// Thread sweep over instance size: the two-hop pattern counted with
/// 1/2/4/8 worker threads (threshold left at the default, so 128+ node
/// graphs all run in parallel). Serial time at the same size is
/// BM_InstanceSizeSweep; speedup = serial_time / this_time. The
/// "workers" counter records the partition width actually used.
void BM_InstanceSizeThreadSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  const auto& scheme = bench::HyperMediaScheme();
  auto g = gen::RandomInfoGraph(scheme, n, 2 * n, /*seed=*/3).ValueOrDie();
  GraphBuilder b(scheme);
  auto x = b.Object("Info");
  auto y = b.Object("Info");
  auto z = b.Object("Info");
  b.Edge(x, "links-to", y).Edge(y, "links-to", z);
  auto p = b.BuildOrDie();
  pattern::MatchOptions options;
  options.num_threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pattern::Matcher(p, g, options).CountChecked().ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * n);
  bench::ExportMatchStats(state, p, g, options);
}
BENCHMARK(BM_InstanceSizeThreadSweep)
    ->ArgsProduct({{512, 2048, 8192}, {1, 2, 4, 8}});

/// Thread sweep over density at fixed node count (512): denser graphs
/// mean more work per depth-0 chunk, which is where partitioning pays.
void BM_DensityThreadSweep(benchmark::State& state) {
  const size_t edges = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  const auto& scheme = bench::HyperMediaScheme();
  auto g = gen::RandomInfoGraph(scheme, 512, edges, /*seed=*/3).ValueOrDie();
  GraphBuilder b(scheme);
  auto x = b.Object("Info");
  auto y = b.Object("Info");
  auto z = b.Object("Info");
  b.Edge(x, "links-to", y).Edge(y, "links-to", z);
  auto p = b.BuildOrDie();
  pattern::MatchOptions options;
  options.num_threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pattern::Matcher(p, g, options).CountChecked().ValueOrDie());
  }
  bench::ExportMatchStats(state, p, g, options);
}
BENCHMARK(BM_DensityThreadSweep)
    ->ArgsProduct({{1024, 4096, 16384}, {1, 2, 4, 8}});

/// Multi-anchor join with equal label counts but skewed fan-outs — the
/// shape where label counts alone mislead a planner. 8 Src nodes each
/// fan wide over n/8 distinct Mid nodes; 8 Probe nodes each hold one
/// narrow edge. Pattern: v(Src) -wide-> y(Mid) <-narrow- w(Probe), wide
/// anchor declared first. The naive planner ties Src/Probe on label
/// count, seeds v, then adjacency forces y next — driven through the
/// wide anchor, scanning ~n candidates. The cost-based planner defers y
/// behind w and drives it through the narrow anchor (expected fan-out 1
/// vs n/8), scanning O(|Src|·|Probe|). arg1: 0 = cost-based, 1 = naive.
void BM_MultiAnchorPlannerSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool naive = state.range(1) == 1;
  static const schema::Scheme* scheme = [] {
    auto* s = new schema::Scheme();
    s->AddObjectLabel(Sym("Src")).OrDie();
    s->AddObjectLabel(Sym("Mid")).OrDie();
    s->AddObjectLabel(Sym("Probe")).OrDie();
    s->AddMultivaluedEdgeLabel(Sym("wide")).OrDie();
    s->AddMultivaluedEdgeLabel(Sym("narrow")).OrDie();
    s->AddTriple(Sym("Src"), Sym("wide"), Sym("Mid")).OrDie();
    s->AddTriple(Sym("Probe"), Sym("narrow"), Sym("Mid")).OrDie();
    return s;
  }();
  graph::Instance g;
  std::vector<graph::NodeId> mids, srcs, probes;
  for (size_t i = 0; i < n; ++i) {
    mids.push_back(g.AddObjectNode(*scheme, Sym("Mid")).ValueOrDie());
  }
  for (size_t i = 0; i < 8; ++i) {
    srcs.push_back(g.AddObjectNode(*scheme, Sym("Src")).ValueOrDie());
    probes.push_back(g.AddObjectNode(*scheme, Sym("Probe")).ValueOrDie());
  }
  for (size_t i = 0; i < n; ++i) {
    g.AddEdge(*scheme, srcs[i / (n / 8)], Sym("wide"), mids[i]).OrDie();
  }
  for (size_t i = 0; i < 8; ++i) {
    g.AddEdge(*scheme, probes[i], Sym("narrow"), mids[i]).OrDie();
  }
  GraphBuilder b(*scheme);
  auto v = b.Object("Src");
  auto y = b.Object("Mid");
  auto w = b.Object("Probe");
  b.Edge(v, "wide", y).Edge(w, "narrow", y);
  auto p = b.BuildOrDie();
  pattern::MatchOptions options;
  options.planner =
      naive ? pattern::PlannerMode::kNaive : pattern::PlannerMode::kCostBased;
  options.use_plan_cache = false;  // Isolate planning quality, not reuse.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pattern::Matcher(p, g, options).CountChecked().ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * n);
  bench::ExportMatchStats(state, p, g, options);
}
BENCHMARK(BM_MultiAnchorPlannerSweep)
    ->ArgsProduct({{512, 2048, 8192}, {0, 1}});

/// Plan-cache amortization: the same two-hop pattern matched repeatedly
/// against an unchanged instance, with the cache on (arg 1 = 0, every
/// run after the first hits) vs off (arg 1 = 1, every run replans).
/// The exported plan_hit_rate counter shows the cache's share.
void BM_PlanCacheSweep(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const bool uncached = state.range(1) == 1;
  const auto& scheme = bench::HyperMediaScheme();
  auto g = gen::RandomInfoGraph(scheme, n, 2 * n, /*seed=*/3).ValueOrDie();
  GraphBuilder b(scheme);
  auto x = b.Object("Info");
  auto y = b.Object("Info");
  auto z = b.Object("Info");
  b.Edge(x, "links-to", y).Edge(y, "links-to", z);
  auto p = b.BuildOrDie();
  pattern::MatchOptions options;
  options.use_plan_cache = !uncached;
  pattern::ResetGlobalPlanCache();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pattern::Matcher(p, g, options).CountChecked().ValueOrDie());
  }
  bench::ExportMatchStats(state, p, g, options);
}
BENCHMARK(BM_PlanCacheSweep)->ArgsProduct({{512, 4096}, {0, 1}});

/// Optimized backtracking vs the brute-force reference (tiny sizes —
/// brute force is exponential in candidates).
void BM_OptimizedVsBruteForce(benchmark::State& state) {
  const bool brute = state.range(0) == 1;
  const auto& scheme = bench::HyperMediaScheme();
  auto g = gen::RandomInfoGraph(scheme, 24, 48, /*seed=*/3).ValueOrDie();
  GraphBuilder b(scheme);
  auto x = b.Object("Info");
  auto y = b.Object("Info");
  auto z = b.Object("Info");
  b.Edge(x, "links-to", y).Edge(y, "links-to", z);
  auto p = b.BuildOrDie();
  for (auto _ : state) {
    if (brute) {
      benchmark::DoNotOptimize(
          pattern::FindMatchingsBruteForce(p, g).size());
    } else {
      benchmark::DoNotOptimize(pattern::FindMatchings(p, g).size());
    }
  }
  if (!brute) bench::ExportMatchStats(state, p, g);
}
BENCHMARK(BM_OptimizedVsBruteForce)->Arg(0)->Arg(1);

}  // namespace
}  // namespace good

BENCHMARK_MAIN();
