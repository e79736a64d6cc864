/// \file matcher.h
/// \brief Patterns and matchings (Section 3 of the paper).
///
/// A pattern over a scheme S is syntactically itself an instance over S
/// (we reuse graph::Instance as the representation; pattern printable
/// nodes may be valueless wildcards). A *matching* of pattern J = (M, F)
/// in instance I = (N, E) is a total mapping i : M -> N such that
///   - labels are preserved: λ(i(m)) = λ(m),
///   - defined print values are preserved: print(m) defined implies
///     print(i(m)) = print(m),
///   - edges are preserved: (m, α, n) ∈ F implies (i(m), α, i(n)) ∈ E.
/// Matchings are graph homomorphisms — NOT required to be injective.
/// The empty pattern has exactly one matching (the empty map), which is
/// what makes Figure 12's "add one single node" work.

#ifndef GOOD_PATTERN_MATCHER_H_
#define GOOD_PATTERN_MATCHER_H_

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "graph/instance.h"

namespace good::pattern {

/// \brief Patterns are syntactically instances.
using Pattern = graph::Instance;

namespace internal {
/// Aborts with a diagnostic naming the unbound pattern node. Out of
/// line so the header stays light; used by Matching::At.
[[noreturn]] void AbortUnboundPatternNode(uint32_t pattern_node_id);
}  // namespace internal

/// \brief One matching: a total map from pattern nodes to instance
/// nodes.
class Matching {
 public:
  Matching() = default;

  void Bind(graph::NodeId pattern_node, graph::NodeId instance_node) {
    map_[pattern_node] = instance_node;
  }

  /// The instance node a pattern node is mapped to. The pattern node
  /// must be bound; an unbound node aborts with a diagnostic naming the
  /// offending pattern node id (instead of an opaque std::out_of_range),
  /// so misuse on concurrent paths is immediately attributable. Use
  /// Find() for a non-fatal checked lookup.
  graph::NodeId At(graph::NodeId pattern_node) const {
    auto it = map_.find(pattern_node);
    if (it == map_.end()) internal::AbortUnboundPatternNode(pattern_node.id);
    return it->second;
  }

  /// Checked lookup: the mapped instance node, or nullopt when
  /// `pattern_node` is not bound.
  std::optional<graph::NodeId> Find(graph::NodeId pattern_node) const {
    auto it = map_.find(pattern_node);
    if (it == map_.end()) return std::nullopt;
    return it->second;
  }

  bool Contains(graph::NodeId pattern_node) const {
    return map_.contains(pattern_node);
  }

  size_t size() const { return map_.size(); }

  const std::unordered_map<graph::NodeId, graph::NodeId>& map() const {
    return map_;
  }

  friend bool operator==(const Matching&, const Matching&) = default;

 private:
  std::unordered_map<graph::NodeId, graph::NodeId> map_;
};

/// \brief Counters describing one (or several, accumulated) enumeration
/// runs. All counters are cheap relaxed increments on the search hot
/// path; collection is opt-in via MatchOptions::stats.
struct MatchStats {
  /// Candidate instance nodes examined (before any feasibility check).
  size_t candidates_scanned = 0;
  /// Candidates rejected by label, print-value, or edge-consistency
  /// checks — including candidates pruned during adjacency-list
  /// intersection.
  size_t feasibility_rejections = 0;
  /// Times the search retreated from a depth after exhausting its
  /// candidates without emitting below it.
  size_t backtracks = 0;
  /// Matchings emitted.
  size_t matchings = 0;
  /// Per-depth count of candidates that survived feasibility and were
  /// placed (the effective fanout of the search tree at each level).
  std::vector<size_t> depth_fanout;
  /// Widest parallelism observed: the number of workers the enumeration
  /// was partitioned over (1 for a serial run, 0 before any run has
  /// been accumulated). Unlike the other counters this is not additive,
  /// so operator+= takes the maximum across accumulated runs.
  size_t workers_used = 0;
  /// Global plan-cache outcomes over the enumerations this object
  /// observed (additive). Both stay 0 when caching is disabled, the
  /// naive planner runs, or the run is delta-seeded (seeded plans are
  /// built per call and never cached).
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  /// Candidates rejected by delta-membership constraints during a
  /// delta-seeded enumeration (MatchOptions::delta): either a seed item
  /// whose image fell outside the delta, or an earlier item's exclusion
  /// (the disjoint-partition bookkeeping). 0 for full enumerations.
  size_t delta_rejections = 0;
  /// Planner decisions of the most recent enumeration: the chosen node
  /// elimination order (pattern node ids, depth 0 first; recorded for
  /// every planner mode) and the planner's estimated candidate count
  /// per depth (cost-based plans only — compare against depth_fanout to
  /// judge the estimates). Non-additive: operator+= keeps the most
  /// recent non-empty value.
  std::vector<uint32_t> plan_order;
  std::vector<double> depth_est_fanout;

  MatchStats& operator+=(const MatchStats& other);

  /// Compact one-line rendering, e.g.
  /// "cand=120 rej=80 bt=14 match=26 fanout=[12,8,6] workers=1
  ///  plan=[2,0,1] est=[3.0,1.5,0.8] cache=1h/1m".
  std::string ToString() const;
};

/// The depth-0 candidate count below which a parallel-enabled matcher
/// still runs serially (partitioning overhead dominates small inputs).
inline constexpr size_t kDefaultParallelThreshold = 64;

/// Default delta-size fraction above which semi-naive evaluation falls
/// back to full re-evaluation: when (delta nodes + delta edges) exceeds
/// this fraction of (instance nodes + instance edges), seeding every
/// item separately costs more than one full enumeration. Consumed by
/// rules::RuleEngine::set_delta_fallback_fraction.
inline constexpr double kDefaultDeltaFallbackFraction = 0.75;

/// \brief The set of nodes and edges a journal window touched — the
/// "delta" of semi-naive evaluation (ISSUE 8 / ROADMAP item 1).
///
/// Built in journal order from graph::UndoJournal::ForEachTouchedSince
/// (an add followed by a remove of the same item nets out, so a window
/// that created and rolled back an edge exposes nothing), then
/// Finalize()d once to materialize the sorted seed lists the matcher
/// enumerates: delta nodes, per-label delta-edge sources, and the delta
/// adjacency (source, label) -> targets. All lists are ascending-id
/// sorted so delta-seeded enumeration is deterministic regardless of
/// journal order.
///
/// A DeltaSet describes *additions*. Removal entries subtract matching
/// additions within the window (exact for the rule engine, whose
/// fixpoint rounds are purely additive); a net-negative window (more
/// removals than additions) is not representable and must be evaluated
/// naively.
class DeltaSet {
 public:
  // ---- Build phase (call in journal order, then Finalize once) -----
  void AddNode(graph::NodeId n) { node_set_.insert(n); }
  void RemoveNode(graph::NodeId n) { node_set_.erase(n); }
  void AddEdge(graph::NodeId s, Symbol label, graph::NodeId t) {
    edge_set_.insert(graph::Edge{s, label, t});
  }
  void RemoveEdge(graph::NodeId s, Symbol label, graph::NodeId t) {
    edge_set_.erase(graph::Edge{s, label, t});
  }

  /// Materializes the sorted seed lists. Call exactly once, after the
  /// last mutation; the query accessors below require it.
  void Finalize();

  bool finalized() const { return finalized_; }
  bool empty() const { return node_set_.empty() && edge_set_.empty(); }
  size_t num_nodes() const { return node_set_.size(); }
  size_t num_edges() const { return edge_set_.size(); }

  bool ContainsNode(graph::NodeId n) const { return node_set_.contains(n); }
  bool ContainsEdge(graph::NodeId s, Symbol label, graph::NodeId t) const {
    return edge_set_.contains(graph::Edge{s, label, t});
  }

  // ---- Seed lists (Finalize() required; ascending-id sorted) -------

  /// Every delta node.
  const std::vector<graph::NodeId>& nodes() const { return nodes_; }
  /// Distinct sources of delta edges labeled `label`.
  const std::vector<graph::NodeId>& EdgeSources(Symbol label) const;
  /// Distinct sources s of delta self-loops (s, label, s).
  const std::vector<graph::NodeId>& SelfLoopSources(Symbol label) const;
  /// Targets t of delta edges (s, label, t) — the delta adjacency.
  const std::vector<graph::NodeId>& OutTargets(graph::NodeId s,
                                               Symbol label) const;

 private:
  static uint64_t AdjacencyKey(graph::NodeId s, Symbol label) {
    return (static_cast<uint64_t>(s.id) << 32) | label.id;
  }

  std::unordered_set<graph::NodeId> node_set_;
  std::unordered_set<graph::Edge, graph::EdgeHash> edge_set_;
  bool finalized_ = false;
  std::vector<graph::NodeId> nodes_;
  std::unordered_map<uint32_t, std::vector<graph::NodeId>> sources_by_label_;
  std::unordered_map<uint32_t, std::vector<graph::NodeId>> loops_by_label_;
  std::unordered_map<uint64_t, std::vector<graph::NodeId>> adjacency_;
};

/// Builds the Finalize()d DeltaSet of the journal window [mark, end):
/// one ForEachTouchedSince pass with removals netting out matching
/// additions, then Finalize. `mark` is a graph::UndoJournal::Mark.
DeltaSet BuildDeltaSince(const graph::UndoJournal& journal, size_t mark);

/// \brief Join-order planning mode.
enum class PlannerMode {
  /// Order pattern nodes greedily by estimated candidate-set size from
  /// the instance's live cardinality statistics (graph::Instance stats
  /// accessors), and pick each depth's driving anchor — forward
  /// OutTargets vs. backward InSources — by expected fan-out at plan
  /// time. The default.
  kCostBased,
  /// The syntactic order: selectivity = label count only, adjacency to
  /// placed nodes dominates, the first anchor drives candidates. Kept
  /// for differential testing and benchmarking; never cached.
  kNaive,
};

/// \brief Tuning and statistics for matching enumeration.
struct MatchOptions {
  /// Stop after this many matchings (e.g. 1 for existence checks).
  size_t limit = static_cast<size_t>(-1);
  /// When non-null, enumeration counters are accumulated (+=) here.
  MatchStats* stats = nullptr;
  /// Worker threads for FindAllChecked()/CountChecked() enumeration; 0
  /// preserves the fully serial engine. Parallel enumeration partitions
  /// the depth-0 candidate list into chunks and merges per-chunk
  /// results in chunk order, so the matching sequence (and all stats
  /// except workers_used) is identical to the serial matcher's.
  /// Enumerations with a limit, callbacks (ForEachChecked), and
  /// ExistsChecked() always run serially.
  size_t num_threads = 0;
  /// Minimum depth-0 candidate count before parallelism engages; below
  /// it the serial engine runs even when num_threads > 0. Set to 0 to
  /// force the parallel path (differential tests do).
  size_t parallel_threshold = kDefaultParallelThreshold;
  /// Execution cutoff (wall-clock and/or cancellation token; not
  /// owned). Both the serial engine and every parallel worker poll it
  /// every few hundred candidate visits; on expiry or cancellation the
  /// checked entry points (FindAllChecked/CountChecked/ForEachChecked)
  /// return kDeadlineExceeded/kCancelled promptly. The polls never
  /// alter the search when they pass, so enumerations that complete are
  /// bit-identical with and without a deadline — the parallel engine's
  /// determinism guarantee is preserved on success.
  const common::Deadline* deadline = nullptr;
  /// See PlannerMode. Any plan enumerates the same matching *set*; only
  /// the emission order within a run and the search effort differ, and
  /// one plan is shared by the serial engine and every parallel worker
  /// of a run, so serial-vs-parallel byte-identity holds per mode.
  PlannerMode planner = PlannerMode::kCostBased;
  /// Reuse compiled plans from the global LRU cache keyed by
  /// (pattern fingerprint, stats epoch). Sound because every instance
  /// mutation bumps the epoch; disable to force replanning (benchmarks
  /// isolating plan cost do). Only cost-based plans are cached.
  bool use_plan_cache = true;
  /// Semi-naive enumeration (not owned; must outlive the call): when
  /// non-null, only matchings with at least one pattern item (edge or
  /// isolated node) mapped into the delta are enumerated — exactly the
  /// matchings that did not exist before the delta's journal window,
  /// provided the window is purely additive. The enumeration partitions
  /// matchings by their first delta-mapped item, so each new matching
  /// is emitted exactly once, in a deterministic order shared by the
  /// serial and parallel engines (byte-identical, as for full runs —
  /// though the order differs from a full enumeration's). The empty
  /// pattern's sole matching predates any delta, so it yields zero
  /// matchings here. The DeltaSet must be Finalize()d.
  const DeltaSet* delta = nullptr;
};

/// \brief Enumerates matchings of `pattern` in `instance`.
///
/// The matcher compiles a search plan per (pattern, instance) pair. The
/// default cost-based planner greedily orders pattern nodes by
/// estimated candidate-set size — a print value pins the set to at most
/// one node, otherwise label count times the product of anchor
/// selectivities (expected fan-out from the instance's degree-sum
/// statistics, capped at 1) — and picks the anchor with the smallest
/// expected fan-out to drive each depth's candidates, deciding forward
/// (OutTargets) vs. backward (InSources) traversal at plan time. The
/// remaining anchors are enforced by O(1) edge-index probes;
/// feasibility then re-verifies labels and self-loops. Compiled plans
/// are reused through a global LRU keyed by (pattern fingerprint,
/// stats epoch), invalidated automatically because every instance
/// mutation bumps the epoch.
class Matcher {
 public:
  Matcher(const Pattern& pattern, const graph::Instance& instance,
          MatchOptions options = {})
      : pattern_(pattern), instance_(instance), options_(options) {}

  // Every entry point reports interrupts: when MatchOptions::deadline
  // expires or its cancel token fires, it stops promptly and surfaces
  // kDeadlineExceeded / kCancelled instead of a partial result. Without
  // a configured deadline it never fails.

  /// All matchings. With MatchOptions::num_threads > 0 and a large
  /// enough depth-0 candidate list, the calling thread and up to
  /// num_threads - 1 forked ones enumerate chunks of it; the returned
  /// sequence is identical to the serial matcher's. On an interrupt
  /// each worker stops at its own next deadline poll.
  Result<std::vector<Matching>> FindAllChecked() const;

  /// Counts matchings without materializing them. Parallelizes under
  /// the same conditions as FindAllChecked().
  Result<size_t> CountChecked() const;

  /// Invokes `callback` once per matching; enumeration stops early when
  /// the callback returns false or the limit is hit. Always serial
  /// (callbacks observe the exact serial emission order and may abort).
  /// On interrupt, returns the status after `callback` has observed a
  /// prefix of the matchings; when `visited` is non-null it receives
  /// the number of matchings visited (also on the interrupt path).
  Status ForEachChecked(const std::function<bool(const Matching&)>& callback,
                        size_t* visited = nullptr) const;

  /// True iff at least one matching exists. An interrupt is an error —
  /// a timed-out existence check must NOT read as "no match" (negation
  /// filters would treat it as a definitive negative). Honors the
  /// caller's MatchOptions (stats still accumulate; a limit of 0 means
  /// no matching can be observed, so the result is false).
  Result<bool> ExistsChecked() const;

 private:
  const Pattern& pattern_;
  const graph::Instance& instance_;
  MatchOptions options_;
};

/// \brief Observability snapshot of the global plan cache.
struct PlanCacheInfo {
  size_t hits = 0;
  size_t misses = 0;
  size_t entries = 0;
  size_t capacity = 0;
};

/// Cumulative hit/miss counters and current occupancy of the global
/// (pattern fingerprint, stats epoch)-keyed plan cache.
PlanCacheInfo GlobalPlanCacheInfo();

/// Drops every cached plan and zeroes the cache counters. Tests and
/// benchmarks isolate their measurements with this; correctness never
/// requires it (stale epochs simply age out of the LRU).
void ResetGlobalPlanCache();

/// Convenience wrapper: all matchings of `pattern` in `instance`. No
/// deadline is involved, so it cannot be interrupted.
std::vector<Matching> FindMatchings(const Pattern& pattern,
                                    const graph::Instance& instance);

/// Reference implementation enumerating the full per-label candidate
/// product and filtering; exponential, for differential testing only.
std::vector<Matching> FindMatchingsBruteForce(const Pattern& pattern,
                                              const graph::Instance& instance);

}  // namespace good::pattern

#endif  // GOOD_PATTERN_MATCHER_H_
