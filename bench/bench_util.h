/// \file bench_util.h
/// \brief Shared fixtures for the per-figure benchmark binaries.
///
/// The paper reports no performance numbers; these benchmarks
/// characterize the implementation's cost model per figure/construct on
/// workloads scaled from the running example (see EXPERIMENTS.md).

#ifndef GOOD_BENCH_BENCH_UTIL_H_
#define GOOD_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include "gen/generators.h"
#include "graph/instance.h"
#include "hypermedia/hypermedia.h"
#include "pattern/matcher.h"
#include "schema/scheme.h"

namespace good::bench {

/// Runs one instrumented matching pass (outside the timed loop) and
/// exports the matcher's search-effort counters on the benchmark state:
/// candidates scanned, feasibility rejections, backtracks, and the
/// worker count the enumeration actually partitioned over. Pass
/// `options` to instrument a configured (e.g. parallel) matcher; its
/// stats pointer is overridden.
inline void ExportMatchStats(benchmark::State& state,
                             const pattern::Pattern& pattern,
                             const graph::Instance& instance,
                             pattern::MatchOptions options = {}) {
  pattern::MatchStats stats;
  options.stats = &stats;
  pattern::Matcher(pattern, instance, options).CountChecked().ValueOrDie();
  state.counters["cand"] = static_cast<double>(stats.candidates_scanned);
  state.counters["rej"] = static_cast<double>(stats.feasibility_rejections);
  state.counters["bt"] = static_cast<double>(stats.backtracks);
  state.counters["matchings"] = static_cast<double>(stats.matchings);
  state.counters["workers"] = static_cast<double>(stats.workers_used);
  // Cumulative plan-cache effectiveness across the whole binary run
  // (the cache is global): hit rate near 1 means plans are amortized.
  pattern::PlanCacheInfo cache = pattern::GlobalPlanCacheInfo();
  state.counters["plan_hits"] = static_cast<double>(cache.hits);
  state.counters["plan_misses"] = static_cast<double>(cache.misses);
  const double lookups = static_cast<double>(cache.hits + cache.misses);
  state.counters["plan_hit_rate"] =
      lookups > 0 ? static_cast<double>(cache.hits) / lookups : 0.0;
}

/// The Figure 1 scheme (cached — schemes are immutable here).
inline const schema::Scheme& HyperMediaScheme() {
  static const schema::Scheme* scheme =
      new schema::Scheme(hypermedia::BuildScheme().ValueOrDie());
  return *scheme;
}

/// A scaled hyper-media instance with `docs` documents (cached per
/// size; benchmarks copy it when they mutate).
inline const graph::Instance& ScaledInstance(size_t docs) {
  static auto* cache = new std::map<size_t, graph::Instance>();
  auto it = cache->find(docs);
  if (it == cache->end()) {
    gen::HyperMediaOptions options;
    options.num_docs = docs;
    options.links_per_doc = 3;
    options.num_versions = docs / 10;
    options.distinct_dates = 10;
    it = cache
             ->emplace(docs, gen::ScaledHyperMedia(HyperMediaScheme(),
                                                   options)
                                 .ValueOrDie())
             .first;
  }
  return it->second;
}

}  // namespace good::bench

#endif  // GOOD_BENCH_BENCH_UTIL_H_
