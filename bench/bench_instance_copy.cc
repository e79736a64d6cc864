/// \file bench_instance_copy.cc
/// \brief What one commit pays for instance snapshots and for Figure 9's
/// "if not exists" check, as the base grows: copying an instance,
/// copying it and making the first write, destroying a written copy,
/// and one commit_heavy-shaped node addition (a fresh document with a
/// new name and an existing creation date).
///
/// Copies and destruction are timed by hand (UseManualTime) so that
/// each number covers only its own step.

#include <benchmark/benchmark.h>

#include <chrono>
#include <optional>
#include <string>

#include "bench_util.h"
#include "ops/operations.h"
#include "pattern/builder.h"

namespace good {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void SizeCounters(benchmark::State& state, const graph::Instance& g) {
  state.counters["nodes"] = static_cast<double>(g.num_nodes());
  state.counters["edges"] = static_cast<double>(g.num_edges());
}

/// Copying the instance (the snapshot a session or a version takes).
void BM_InstanceCopy(benchmark::State& state) {
  const graph::Instance& base =
      bench::ScaledInstance(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    const Clock::time_point start = Clock::now();
    graph::Instance copy(base);
    state.SetIterationTime(Since(start));
    benchmark::DoNotOptimize(copy);
  }
  SizeCounters(state, base);
}
BENCHMARK(BM_InstanceCopy)
    ->Arg(1000)->Arg(4000)->Arg(16000)->UseManualTime();

/// Copying plus the first write to the copy: one new document, which is
/// what a session's first operation does to its working copy.
void BM_InstanceCopyFirstWrite(benchmark::State& state) {
  const schema::Scheme& scheme = bench::HyperMediaScheme();
  const graph::Instance& base =
      bench::ScaledInstance(static_cast<size_t>(state.range(0)));
  const Symbol info = Sym("Info");
  for (auto _ : state) {
    const Clock::time_point start = Clock::now();
    graph::Instance copy(base);
    benchmark::DoNotOptimize(copy.AddObjectNode(scheme, info));
    state.SetIterationTime(Since(start));
  }
  SizeCounters(state, base);
}
BENCHMARK(BM_InstanceCopyFirstWrite)
    ->Arg(1000)->Arg(4000)->Arg(16000)->UseManualTime();

/// Destroying a copy that made one write (a discarded working copy).
void BM_InstanceDestroy(benchmark::State& state) {
  const schema::Scheme& scheme = bench::HyperMediaScheme();
  const graph::Instance& base =
      bench::ScaledInstance(static_cast<size_t>(state.range(0)));
  const Symbol info = Sym("Info");
  for (auto _ : state) {
    std::optional<graph::Instance> copy(base);
    benchmark::DoNotOptimize(copy->AddObjectNode(scheme, info));
    const Clock::time_point start = Clock::now();
    copy.reset();
    state.SetIterationTime(Since(start));
  }
  SizeCounters(state, base);
}
BENCHMARK(BM_InstanceDestroy)
    ->Arg(1000)->Arg(4000)->Arg(16000)->UseManualTime();

/// One commit_heavy insert: a node addition creating an Info document
/// with a fresh name and an existing date, timed alone but applied as
/// a commit applies it — to a fresh copy of the latest state, so it
/// pays for the pages and shards its first writes clone. The copy then
/// becomes the latest state. 256 inserts keep the growth small next to
/// the base; the insert should cost the same at every base size.
void BM_CommitHeavyInsert(benchmark::State& state) {
  schema::Scheme scheme = bench::HyperMediaScheme();
  graph::Instance latest =
      bench::ScaledInstance(static_cast<size_t>(state.range(0)));
  const std::vector<graph::NodeId> dates = latest.NodesWithLabel(Sym("Date"));
  size_t i = 0;
  for (auto _ : state) {
    pattern::GraphBuilder b(scheme);
    const graph::NodeId name =
        b.Printable("String", Value("bench-insert-" + std::to_string(i)));
    const graph::NodeId date =
        b.Printable("Date", *latest.PrintValueOf(dates[i % dates.size()]));
    ++i;
    ops::NodeAddition insert(b.BuildOrDie(), Sym("Info"),
                             {{Sym("name"), name}, {Sym("created"), date}});
    graph::Instance next(latest);
    ops::ApplyStats stats;
    const Clock::time_point start = Clock::now();
    insert.Apply(&scheme, &next, &stats).OrDie();
    state.SetIterationTime(Since(start));
    benchmark::DoNotOptimize(stats.nodes_added);
    latest = std::move(next);
  }
  SizeCounters(state, latest);
}
BENCHMARK(BM_CommitHeavyInsert)
    ->Arg(1000)->Arg(4000)->Arg(16000)->Iterations(256)->UseManualTime();

}  // namespace
}  // namespace good

BENCHMARK_MAIN();
