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

#include <algorithm>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
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
///
/// Pattern node ids are dense, so the images live in a flat array
/// indexed by pattern node id. A slot holds the image's id plus one, so
/// 0 marks an unbound pattern node. Patterns of up to kInlineSlots
/// nodes keep the array inline, so copying such a matching never
/// allocates.
class Matching {
 public:
  /// Pattern ids below this are stored without a heap allocation.
  static constexpr uint32_t kInlineSlots = 6;

  /// A read-only view of the bound (pattern node, image) pairs in
  /// ascending pattern id order; the pairs are yielded by value.
  class MapView {
   public:
    class Iterator {
     public:
      Iterator(const uint32_t* slots, uint32_t index, uint32_t end)
          : slots_(slots), index_(index), end_(end) {
        SkipUnbound();
      }
      std::pair<graph::NodeId, graph::NodeId> operator*() const {
        return {graph::NodeId{index_}, graph::NodeId{slots_[index_] - 1}};
      }
      Iterator& operator++() {
        ++index_;
        SkipUnbound();
        return *this;
      }
      friend bool operator==(const Iterator& a, const Iterator& b) {
        return a.index_ == b.index_;
      }

     private:
      void SkipUnbound() {
        while (index_ < end_ && slots_[index_] == 0) ++index_;
      }

      const uint32_t* slots_ = nullptr;
      uint32_t index_ = 0;
      uint32_t end_ = 0;
    };

    MapView(const uint32_t* slots, uint32_t extent, uint32_t bound)
        : slots_(slots), extent_(extent), bound_(bound) {}
    Iterator begin() const { return Iterator(slots_, 0, extent_); }
    Iterator end() const { return Iterator(slots_, extent_, extent_); }
    size_t size() const { return bound_; }

   private:
    const uint32_t* slots_;
    uint32_t extent_;
    uint32_t bound_;
  };

  Matching() = default;
  // The constructors copy inline slots here, where the compiler sees
  // them: result vectors copy and move every matching they hold.
  Matching(const Matching& other)
      : extent_(other.extent_), bound_(other.bound_) {
    if (extent_ > kInlineSlots) {
      heap_ = new uint32_t[extent_];
      std::copy(other.heap_, other.heap_ + extent_, heap_);
    } else {
      std::copy(other.inline_, other.inline_ + kInlineSlots, inline_);
    }
  }
  Matching(Matching&& other) noexcept
      : extent_(std::exchange(other.extent_, 0)),
        bound_(std::exchange(other.bound_, 0)) {
    if (extent_ > kInlineSlots) {
      heap_ = other.heap_;
    } else {
      std::copy(other.inline_, other.inline_ + kInlineSlots, inline_);
    }
  }
  Matching& operator=(const Matching& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  Matching& operator=(Matching&& other) noexcept {
    if (this != &other) MoveFrom(&other);
    return *this;
  }
  ~Matching() { Release(); }

  /// Maps `pattern_node` to `instance_node`, replacing any earlier
  /// image. An invalid `instance_node` unbinds `pattern_node`.
  void Bind(graph::NodeId pattern_node, graph::NodeId instance_node) {
    const uint32_t value = instance_node.id + 1;  // Invalid wraps to 0.
    if (pattern_node.id >= extent_) {
      if (value == 0) return;
      Grow(pattern_node.id + 1);
    }
    uint32_t& slot = slots()[pattern_node.id];
    bound_ += static_cast<uint32_t>(value != 0) -
              static_cast<uint32_t>(slot != 0);
    slot = value;
  }

  /// The instance node a pattern node is mapped to. The pattern node
  /// must be bound; an unbound node aborts with a diagnostic naming the
  /// offending pattern node id (instead of an opaque std::out_of_range),
  /// so misuse on concurrent paths is immediately attributable. Use
  /// Find() for a non-fatal checked lookup.
  graph::NodeId At(graph::NodeId pattern_node) const {
    const graph::NodeId image = Image(pattern_node);
    if (!image.valid()) internal::AbortUnboundPatternNode(pattern_node.id);
    return image;
  }

  /// Checked lookup: the mapped instance node, or nullopt when
  /// `pattern_node` is not bound.
  std::optional<graph::NodeId> Find(graph::NodeId pattern_node) const {
    const graph::NodeId image = Image(pattern_node);
    if (!image.valid()) return std::nullopt;
    return image;
  }

  bool Contains(graph::NodeId pattern_node) const {
    return Image(pattern_node).valid();
  }

  /// Number of bound pattern nodes.
  size_t size() const { return bound_; }

  /// The bound (pattern node, image) pairs, ascending by pattern id.
  MapView map() const { return MapView(slots(), extent_, bound_); }

  /// Equal iff both bind the same pattern nodes to the same images.
  friend bool operator==(const Matching& a, const Matching& b);

 private:
  uint32_t* slots() { return extent_ > kInlineSlots ? heap_ : inline_; }
  const uint32_t* slots() const {
    return extent_ > kInlineSlots ? heap_ : inline_;
  }
  /// The image of `pattern_node`, invalid when unbound.
  graph::NodeId Image(graph::NodeId pattern_node) const {
    return graph::NodeId{
        pattern_node.id < extent_ ? slots()[pattern_node.id] - 1
                                  : graph::NodeId::kInvalid};
  }
  /// Widens the slot array to at least `extent` slots.
  void Grow(uint32_t extent);
  void CopyFrom(const Matching& other);
  void MoveFrom(Matching* other);
  /// Frees the heap slots, if any, and leaves no slot.
  void Release() {
    if (extent_ > kInlineSlots) delete[] heap_;
    extent_ = 0;
    bound_ = 0;
  }

  /// Slots [0, extent_) exist and bound_ of them are non-zero; slots
  /// past extent_ hold garbage. They live in inline_ while extent_ <=
  /// kInlineSlots, else in heap_.
  uint32_t extent_ = 0;
  uint32_t bound_ = 0;
  union {
    uint32_t inline_[kInlineSlots] = {};
    uint32_t* heap_;
  };
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

class DeltaSet;

/// Builds the DeltaSet of the journal window [mark, end). `mark` is a
/// graph::UndoJournal::Mark.
DeltaSet BuildDeltaSince(const graph::UndoJournal& journal, size_t mark);

/// \brief The set of nodes and edges a journal window touched — the
/// "delta" of semi-naive evaluation.
///
/// BuildDeltaSince is the only producer. It collects the window's node
/// and edge touches from graph::UndoJournal::ForEachTouchedSince,
/// orders them by item and then by journal sequence, and keeps each
/// item whose last touch is an add: an add followed by a remove nets
/// out (a window that created and rolled back an edge exposes nothing),
/// a remove followed by an add leaves the item, and removing an item
/// that predates the window contributes nothing. Everything is held in
/// ascending-id sorted vectors, so delta-seeded enumeration is
/// deterministic regardless of journal order and membership is a binary
/// search.
///
/// A DeltaSet describes *additions*. Removal entries subtract matching
/// additions within the window (exact for the rule engine, whose
/// fixpoint rounds are purely additive); a net-negative window (more
/// removals than additions) is not representable and must be evaluated
/// naively.
class DeltaSet {
 public:
  bool empty() const { return nodes_.empty() && edges_.empty(); }
  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }

  bool ContainsNode(graph::NodeId n) const {
    return std::binary_search(nodes_.begin(), nodes_.end(), n);
  }
  bool ContainsEdge(graph::NodeId s, Symbol label, graph::NodeId t) const {
    return std::binary_search(edges_.begin(), edges_.end(),
                              graph::Edge{s, label, t});
  }

  // ---- Seed lists (ascending-id sorted) -----------------------------

  /// Every delta node.
  const std::vector<graph::NodeId>& nodes() const { return nodes_; }
  /// Distinct sources of delta edges labeled `label`.
  const std::vector<graph::NodeId>& EdgeSources(Symbol label) const;
  /// Distinct sources s of delta self-loops (s, label, s).
  const std::vector<graph::NodeId>& SelfLoopSources(Symbol label) const;
  /// Targets t of delta edges (s, label, t) — the delta adjacency.
  std::span<const graph::NodeId> OutTargets(graph::NodeId s,
                                            Symbol label) const;

 private:
  friend DeltaSet BuildDeltaSince(const graph::UndoJournal& journal,
                                  size_t mark);

  /// The seed lists of one edge label.
  struct LabelSeeds {
    Symbol label;
    std::vector<graph::NodeId> sources;
    std::vector<graph::NodeId> loop_sources;
  };

  const LabelSeeds* SeedsOf(Symbol label) const;

  std::vector<graph::NodeId> nodes_;
  /// Sorted by (source, label, target); targets_[i] is edges_[i].target,
  /// so the (s, label) run of edges_ is s's delta adjacency.
  std::vector<graph::Edge> edges_;
  std::vector<graph::NodeId> targets_;
  /// Ascending by label id.
  std::vector<LabelSeeds> by_label_;
};

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
  /// matchings here.
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
  // a configured deadline it never fails (ExistsChecked also rejects a
  // bound delta run).

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

  /// True iff at least one matching agrees with `bound` on every
  /// pattern node `bound` maps (any matching at all for the empty
  /// default; false when `bound` maps a node outside the pattern). The
  /// bound nodes are planned first, each with its bound image as the
  /// one candidate, checked like any other candidate; the cost-based
  /// order then places the rest, drawing candidates from the bound
  /// images' adjacency lists. An interrupt is an error — a timed-out
  /// existence check must NOT read as "no match" (negation filters
  /// would treat it as a definitive negative). Honors the caller's
  /// MatchOptions (stats still accumulate; a limit of 0 means no
  /// matching can be observed, so the result is false), except that a
  /// non-empty `bound` with MatchOptions::delta set is InvalidArgument.
  Result<bool> ExistsChecked(const Matching& bound = {}) const;

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
