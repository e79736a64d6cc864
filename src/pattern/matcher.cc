#include "pattern/matcher.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <list>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "graph/undo_journal.h"

namespace good::pattern {

using graph::Instance;
using graph::NodeId;

namespace internal {

void AbortUnboundPatternNode(uint32_t pattern_node_id) {
  std::fprintf(stderr,
               "Matching::At: pattern node #%u is not bound in this "
               "matching\n",
               pattern_node_id);
  std::abort();
}

}  // namespace internal

void Matching::Grow(uint32_t extent) {
  if (extent <= kInlineSlots) {
    std::fill(inline_ + extent_, inline_ + extent, 0u);
    extent_ = extent;
    return;
  }
  const uint32_t capacity = std::max(extent, 2 * extent_);
  uint32_t* grown = new uint32_t[capacity]();  // All unbound.
  std::copy(slots(), slots() + extent_, grown);
  const uint32_t bound = bound_;
  Release();
  heap_ = grown;
  extent_ = capacity;
  bound_ = bound;
}

void Matching::CopyFrom(const Matching& other) {
  if (other.extent_ > kInlineSlots) {
    if (extent_ != other.extent_) {
      Release();
      heap_ = new uint32_t[other.extent_];
    }
    std::copy(other.heap_, other.heap_ + other.extent_, heap_);
  } else {
    Release();
    std::copy(other.inline_, other.inline_ + kInlineSlots, inline_);
  }
  extent_ = other.extent_;
  bound_ = other.bound_;
}

void Matching::MoveFrom(Matching* other) {
  Release();
  if (other->extent_ > kInlineSlots) {
    heap_ = other->heap_;
  } else {
    std::copy(other->inline_, other->inline_ + kInlineSlots, inline_);
  }
  extent_ = std::exchange(other->extent_, 0);
  bound_ = std::exchange(other->bound_, 0);
}

bool operator==(const Matching& a, const Matching& b) {
  if (a.bound_ != b.bound_) return false;
  const Matching& narrow = a.extent_ <= b.extent_ ? a : b;
  const Matching& wide = a.extent_ <= b.extent_ ? b : a;
  // Equal bound counts and equal common slots leave the wide tail
  // unbound.
  return std::equal(narrow.slots(), narrow.slots() + narrow.extent_,
                    wide.slots());
}

MatchStats& MatchStats::operator+=(const MatchStats& other) {
  candidates_scanned += other.candidates_scanned;
  feasibility_rejections += other.feasibility_rejections;
  backtracks += other.backtracks;
  matchings += other.matchings;
  if (depth_fanout.size() < other.depth_fanout.size()) {
    depth_fanout.resize(other.depth_fanout.size(), 0);
  }
  for (size_t i = 0; i < other.depth_fanout.size(); ++i) {
    depth_fanout[i] += other.depth_fanout[i];
  }
  workers_used = std::max(workers_used, other.workers_used);
  plan_cache_hits += other.plan_cache_hits;
  plan_cache_misses += other.plan_cache_misses;
  delta_rejections += other.delta_rejections;
  if (!other.plan_order.empty()) plan_order = other.plan_order;
  if (!other.depth_est_fanout.empty()) depth_est_fanout = other.depth_est_fanout;
  return *this;
}

std::string MatchStats::ToString() const {
  std::ostringstream os;
  os << "cand=" << candidates_scanned << " rej=" << feasibility_rejections
     << " bt=" << backtracks << " match=" << matchings << " fanout=[";
  for (size_t i = 0; i < depth_fanout.size(); ++i) {
    if (i > 0) os << ",";
    os << depth_fanout[i];
  }
  os << "] workers=" << workers_used;
  if (!plan_order.empty()) {
    os << " plan=[";
    for (size_t i = 0; i < plan_order.size(); ++i) {
      if (i > 0) os << ",";
      os << plan_order[i];
    }
    os << "]";
  }
  if (!depth_est_fanout.empty()) {
    os << " est=[";
    for (size_t i = 0; i < depth_est_fanout.size(); ++i) {
      if (i > 0) os << ",";
      os << depth_est_fanout[i];
    }
    os << "]";
  }
  if (plan_cache_hits > 0 || plan_cache_misses > 0) {
    os << " cache=" << plan_cache_hits << "h/" << plan_cache_misses << "m";
  }
  if (delta_rejections > 0) os << " drej=" << delta_rejections;
  return os.str();
}

namespace {

const std::vector<graph::NodeId> kEmptyNodeList;

/// Keeps, of `touches` (item, journal sequence, added), each item whose
/// last touch is an add, in ascending item order.
template <typename Item>
std::vector<Item> NetAdditions(
    std::vector<std::tuple<Item, size_t, bool>>* touches) {
  std::sort(touches->begin(), touches->end());
  std::vector<Item> out;
  for (size_t i = 0; i < touches->size(); ++i) {
    const auto& [item, seq, added] = (*touches)[i];
    const bool last = i + 1 == touches->size() ||
                      std::get<0>((*touches)[i + 1]) != item;
    if (last && added) out.push_back(item);
  }
  return out;
}

}  // namespace

const DeltaSet::LabelSeeds* DeltaSet::SeedsOf(Symbol label) const {
  auto it = std::lower_bound(
      by_label_.begin(), by_label_.end(), label,
      [](const LabelSeeds& seeds, Symbol l) { return seeds.label < l; });
  return it != by_label_.end() && it->label == label ? &*it : nullptr;
}

const std::vector<graph::NodeId>& DeltaSet::EdgeSources(Symbol label) const {
  const LabelSeeds* seeds = SeedsOf(label);
  return seeds == nullptr ? kEmptyNodeList : seeds->sources;
}

const std::vector<graph::NodeId>& DeltaSet::SelfLoopSources(
    Symbol label) const {
  const LabelSeeds* seeds = SeedsOf(label);
  return seeds == nullptr ? kEmptyNodeList : seeds->loop_sources;
}

std::span<const graph::NodeId> DeltaSet::OutTargets(graph::NodeId s,
                                                    Symbol label) const {
  // The (s, label) run of the (source, label, target)-sorted edges.
  struct BySourceLabel {
    bool operator()(const graph::Edge& e, const graph::Edge& key) const {
      return std::tie(e.source, e.label) < std::tie(key.source, key.label);
    }
  };
  const auto [begin, end] =
      std::equal_range(edges_.begin(), edges_.end(),
                       graph::Edge{s, label, graph::NodeId{}}, BySourceLabel{});
  return std::span<const graph::NodeId>(
      targets_.data() + (begin - edges_.begin()),
      static_cast<size_t>(end - begin));
}

DeltaSet BuildDeltaSince(const graph::UndoJournal& journal, size_t mark) {
  std::vector<std::tuple<graph::NodeId, size_t, bool>> node_touches;
  std::vector<std::tuple<graph::Edge, size_t, bool>> edge_touches;
  size_t seq = 0;
  journal.ForEachTouchedSince(
      mark,
      [&](graph::NodeId n, bool added) {
        node_touches.emplace_back(n, seq++, added);
      },
      [&](graph::NodeId s, Symbol label, graph::NodeId t, bool added) {
        edge_touches.emplace_back(graph::Edge{s, label, t}, seq++, added);
      });
  DeltaSet delta;
  delta.nodes_ = NetAdditions(&node_touches);
  delta.edges_ = NetAdditions(&edge_touches);
  // One pass over the sorted edges: sources arrive in ascending order
  // within every label, so each list only needs a repeat check.
  delta.targets_.reserve(delta.edges_.size());
  for (const graph::Edge& e : delta.edges_) {
    delta.targets_.push_back(e.target);
    auto it = std::find_if(delta.by_label_.begin(), delta.by_label_.end(),
                           [&e](const auto& s) { return s.label == e.label; });
    if (it == delta.by_label_.end()) {
      it = delta.by_label_.insert(delta.by_label_.end(),
                                  DeltaSet::LabelSeeds{e.label, {}, {}});
    }
    if (it->sources.empty() || it->sources.back() != e.source) {
      it->sources.push_back(e.source);
    }
    if (e.source == e.target) it->loop_sources.push_back(e.source);
  }
  std::sort(delta.by_label_.begin(), delta.by_label_.end(),
            [](const DeltaSet::LabelSeeds& a, const DeltaSet::LabelSeeds& b) {
              return a.label < b.label;
            });
  return delta;
}

namespace {

constexpr size_t kNoLimit = static_cast<size_t>(-1);

/// Candidate visits between deadline polls. A poll is one relaxed
/// atomic load plus (every stride) a steady_clock read; 256 visits of
/// real search work amortize that to noise while still bounding the
/// reaction latency to a few microseconds of enumeration.
constexpr size_t kPollStride = 256;

/// One edge constraint between the pattern node being placed and an
/// already-placed pattern node (the "anchor"): the candidate must be
/// adjacent to the anchor's image via `label` in direction `out_of_m`.
struct Anchor {
  Symbol label;
  size_t position;  // Depth of the placed neighbour in the plan order.
  bool out_of_m;    // True: pattern edge (m, label, neighbour).
};

/// One delta-membership constraint of a delta-seeded plan: the image of
/// the pattern edge (order[source_position], label,
/// order[target_position]) must (require) or must not (!require) lie in
/// the delta. Evaluated at depth max(source_position, target_position)
/// — the first depth where both endpoints are bound — with the
/// candidate standing in for whichever endpoint is being placed. The
/// !require checks are the disjoint-partition bookkeeping: seed item i
/// only emits matchings where no earlier item is delta-mapped, so each
/// new matching is emitted by exactly one seed item.
struct DeltaEdgeCheck {
  Symbol label;
  size_t source_position;
  size_t target_position;
  bool require;
};

/// Everything about placing order[depth] that only depends on the
/// pattern and the plan order — computed once so the per-candidate hot
/// path allocates nothing and does no pattern-side hash lookups.
struct DepthPlan {
  NodeId m;
  Symbol label;
  bool has_print = false;
  /// Candidates drawn from anchor adjacency lists carry arbitrary
  /// labels; candidates from the label or printable index are
  /// pre-filtered.
  bool check_label = false;
  /// Labels of pattern self-loops (m, α, m): the candidate t must carry
  /// the instance loop (t, α, t).
  std::vector<Symbol> self_loops;
  /// Edge constraints towards already-placed neighbours. Candidates()
  /// enforces every one of them.
  std::vector<Anchor> anchors;
  /// Index into `anchors` of the anchor that drives candidate
  /// generation (the others are enforced by O(1) edge probes). The
  /// cost-based planner picks the anchor with the smallest expected
  /// fan-out; the naive planner keeps the first.
  size_t base_anchor = 0;
  /// Delta-membership constraints that become decidable at this depth
  /// (delta-seeded plans only).
  std::vector<DeltaEdgeCheck> delta_checks;
  /// Delta-seeded edge-item plans, depth 1 only: draw candidates from
  /// the delta adjacency OutTargets(assignment[0], delta_base_label)
  /// instead of an instance adjacency list, then verify label, print,
  /// and every anchor (including the base) against the live instance.
  /// This makes the seed edge's delta membership true by construction.
  bool delta_only_base = false;
  Symbol delta_base_label;
  /// Candidates at this depth must NOT be delta nodes — the exclusion
  /// of an earlier isolated-node seed item.
  bool exclude_delta_node = false;
};

/// The per-(pattern, instance) search plan, shared read-only by the
/// serial enumerator and every parallel worker — and, via the global
/// plan cache, by later enumerations against the same stats epoch.
struct SearchPlan {
  std::vector<NodeId> order;
  std::vector<size_t> position;  // Pattern node id -> depth in order.
  std::vector<DepthPlan> plans;
  /// Estimated candidate count per depth (cost-based plans only).
  std::vector<double> est_fanout;

  size_t PositionOf(NodeId pattern_node) const {
    return pattern_node.id < position.size() ? position[pattern_node.id]
                                             : order.size();
  }
};

/// Expected size of the candidate list an anchor would generate, from
/// the instance's degree-sum statistics: a pattern edge (m, α, p) with
/// p placed draws candidates from InSources(image(p), α) — on average
/// the α-in-degree of a label(p) node; the mirrored case (p, α, m)
/// reads OutTargets, the average α-out-degree.
double ExpectedAnchorFanout(const Instance& instance, Symbol edge_label,
                            Symbol neighbour_label, bool out_of_m) {
  return out_of_m ? instance.AvgInFanout(neighbour_label, edge_label)
                  : instance.AvgOutFanout(neighbour_label, edge_label);
}

/// Estimated candidate-set size for placing pattern node `m` once the
/// nodes flagged in `placed` are bound: a print value pins the set to
/// at most one node; otherwise label count × the product of per-anchor
/// selectivities (expected fan-out / label count, capped at 1 — an
/// anchor can only narrow the set).
double EstimateCandidates(const Pattern& pattern, const Instance& instance,
                          NodeId m, const std::vector<bool>& placed) {
  const double label_count =
      static_cast<double>(instance.CountNodesWithLabel(pattern.LabelOf(m)));
  if (label_count == 0.0) return 0.0;
  double est = pattern.HasPrintValue(m) ? 1.0 : label_count;
  auto constrain = [&](double fanout) {
    est *= std::min(1.0, fanout / label_count);
  };
  for (const auto& [label, target] : pattern.OutEdges(m)) {
    if (target != m && placed[target.id]) {
      constrain(ExpectedAnchorFanout(instance, label, pattern.LabelOf(target),
                                     /*out_of_m=*/true));
    }
  }
  for (const auto& [source, label] : pattern.InEdges(m)) {
    if (source != m && placed[source.id]) {
      constrain(ExpectedAnchorFanout(instance, label, pattern.LabelOf(source),
                                     /*out_of_m=*/false));
    }
  }
  return est;
}

/// Cost-based elimination order: greedily place the node with the
/// smallest estimated candidate set, re-estimating after each placement
/// so freshly anchored nodes get credit for their anchors. Ties break
/// to the lowest pattern node id (strict <, nodes scanned in ascending
/// id order), keeping symmetric patterns deterministic and stable
/// against the old syntactic order. `forced_prefix` (delta-seeded
/// plans) pins the first depths to the seed item's nodes; the greedy
/// order fills in the rest, crediting anchors into the prefix.
std::vector<NodeId> PlanOrderCost(const Pattern& pattern,
                                  const Instance& instance,
                                  std::vector<double>* est_fanout,
                                  const std::vector<NodeId>& forced_prefix) {
  std::vector<NodeId> nodes = pattern.AllNodes();
  uint32_t max_id = 0;
  for (NodeId m : nodes) max_id = std::max(max_id, m.id);
  std::vector<bool> placed(nodes.empty() ? 0 : max_id + 1, false);
  std::vector<NodeId> order;
  order.reserve(nodes.size());
  est_fanout->reserve(nodes.size());
  for (NodeId m : forced_prefix) {
    est_fanout->push_back(EstimateCandidates(pattern, instance, m, placed));
    order.push_back(m);
    placed[m.id] = true;
  }
  while (order.size() < nodes.size()) {
    NodeId best{};
    double best_est = 0.0;
    for (NodeId m : nodes) {
      if (placed[m.id]) continue;
      const double est = EstimateCandidates(pattern, instance, m, placed);
      if (!best.valid() || est < best_est) {
        best = m;
        best_est = est;
      }
    }
    order.push_back(best);
    est_fanout->push_back(best_est);
    placed[best.id] = true;
  }
  return order;
}

/// The naive (pre-statistics) elimination order: seed with the most
/// selective node by label count, then repeatedly pick a node adjacent
/// to the placed set (falling back to the most selective remaining node
/// for a new connected component). Kept verbatim as PlannerMode::kNaive
/// for differential testing and benchmarking.
std::vector<NodeId> PlanOrder(const Pattern& pattern, const Instance& instance,
                              const std::vector<NodeId>& forced_prefix) {
  std::vector<NodeId> nodes = pattern.AllNodes();
  std::vector<NodeId> order;
  uint32_t max_id = 0;
  for (NodeId m : nodes) max_id = std::max(max_id, m.id);
  // Pattern node ids are dense; index flags/selectivity by id.
  std::vector<bool> placed_flag(nodes.empty() ? 0 : max_id + 1, false);
  std::vector<size_t> selectivity(placed_flag.size(), 0);
  for (NodeId m : nodes) {
    selectivity[m.id] =
        pattern.HasPrintValue(m)
            ? 1
            : instance.CountNodesWithLabel(pattern.LabelOf(m));
  }

  for (NodeId m : forced_prefix) {
    order.push_back(m);
    placed_flag[m.id] = true;
  }

  auto adjacent_to_placed = [&](NodeId m) -> bool {
    for (const auto& [label, target] : pattern.OutEdges(m)) {
      (void)label;
      if (placed_flag[target.id]) return true;
    }
    for (const auto& [source, label] : pattern.InEdges(m)) {
      (void)label;
      if (placed_flag[source.id]) return true;
    }
    return false;
  };

  while (order.size() < nodes.size()) {
    NodeId best{};
    size_t best_sel = std::numeric_limits<size_t>::max();
    bool best_adjacent = false;
    for (NodeId m : nodes) {
      if (placed_flag[m.id]) continue;
      bool adj = !order.empty() && adjacent_to_placed(m);
      size_t sel = selectivity[m.id];
      // Adjacency dominates; among equals prefer selectivity.
      if (!best.valid() || (adj && !best_adjacent) ||
          (adj == best_adjacent && sel < best_sel)) {
        best = m;
        best_sel = sel;
        best_adjacent = adj;
      }
    }
    order.push_back(best);
    placed_flag[best.id] = true;
  }
  return order;
}

SearchPlan BuildSearchPlan(const Pattern& pattern, const Instance& instance,
                           PlannerMode mode,
                           const std::vector<NodeId>& forced_prefix = {}) {
  SearchPlan plan;
  plan.order =
      mode == PlannerMode::kCostBased
          ? PlanOrderCost(pattern, instance, &plan.est_fanout, forced_prefix)
          : PlanOrder(pattern, instance, forced_prefix);
  uint32_t max_id = 0;
  for (NodeId m : plan.order) max_id = std::max(max_id, m.id);
  plan.position.assign(plan.order.empty() ? 0 : max_id + 1,
                       plan.order.size());
  for (size_t i = 0; i < plan.order.size(); ++i) {
    plan.position[plan.order[i].id] = i;
  }
  plan.plans.resize(plan.order.size());
  for (size_t d = 0; d < plan.order.size(); ++d) {
    DepthPlan& depth_plan = plan.plans[d];
    depth_plan.m = plan.order[d];
    depth_plan.label = pattern.LabelOf(depth_plan.m);
    depth_plan.has_print = pattern.HasPrintValue(depth_plan.m);
    for (const auto& [label, target] : pattern.OutEdges(depth_plan.m)) {
      if (target == depth_plan.m) {
        depth_plan.self_loops.push_back(label);
        continue;
      }
      size_t pos = plan.PositionOf(target);
      if (pos < d) depth_plan.anchors.push_back(Anchor{label, pos, true});
    }
    for (const auto& [source, label] : pattern.InEdges(depth_plan.m)) {
      if (source == depth_plan.m) continue;  // Mirrored in OutEdges above.
      size_t pos = plan.PositionOf(source);
      if (pos < d) depth_plan.anchors.push_back(Anchor{label, pos, false});
    }
    depth_plan.check_label =
        !depth_plan.has_print && !depth_plan.anchors.empty();
    if (mode == PlannerMode::kCostBased && depth_plan.anchors.size() > 1) {
      // Drive candidates from the anchor with the smallest expected
      // fan-out; strict < keeps ties on the first anchor, so the choice
      // is deterministic for identical statistics.
      double best_fanout = std::numeric_limits<double>::infinity();
      for (size_t i = 0; i < depth_plan.anchors.size(); ++i) {
        const Anchor& anchor = depth_plan.anchors[i];
        const Symbol neighbour_label =
            pattern.LabelOf(plan.order[anchor.position]);
        const double fanout = ExpectedAnchorFanout(
            instance, anchor.label, neighbour_label, anchor.out_of_m);
        if (fanout < best_fanout) {
          best_fanout = fanout;
          depth_plan.base_anchor = i;
        }
      }
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Delta seeding (semi-naive enumeration)
// ---------------------------------------------------------------------------

/// One way a matching can intersect the delta: through the image of a
/// pattern edge (a delta edge) or through the image of an *isolated*
/// pattern node (a delta node). Non-isolated pattern nodes need no item
/// of their own: a delta node's incident edges were necessarily added
/// after the node — inside the same window — so any matching that maps
/// a non-isolated pattern node onto a delta node already maps some
/// pattern edge onto a delta edge.
struct SeedItem {
  bool is_edge = false;
  NodeId source;  // Edge items: the pattern source. Node items: the node.
  NodeId target;  // Edge items only; == source for a pattern self-loop.
  Symbol label;   // Edge items only.
};

/// The deterministic item order shared by every delta-seeded
/// enumeration of a pattern: pattern edges first (ascending source id,
/// each node's OutEdges in label-grouped order), then isolated pattern
/// nodes (ascending id). A matching is new exactly when some item maps
/// into the delta; seed item i enumerates the matchings whose FIRST
/// delta-mapped item is i, so the per-item outputs concatenate into a
/// duplicate-free, deterministic sequence.
std::vector<SeedItem> BuildSeedItems(const Pattern& pattern) {
  std::vector<SeedItem> items;
  for (NodeId m : pattern.AllNodes()) {
    for (const auto& [label, target] : pattern.OutEdges(m)) {
      items.push_back(SeedItem{/*is_edge=*/true, m, target, label});
    }
  }
  for (NodeId m : pattern.AllNodes()) {
    if (pattern.OutEdges(m).empty() && pattern.InEdges(m).empty()) {
      items.push_back(SeedItem{/*is_edge=*/false, m, NodeId{}, Symbol{}});
    }
  }
  return items;
}

/// Builds the search plan for one seed item: the item's pattern nodes
/// are forced to the first depths (their candidates come from the delta
/// seed lists), the planner orders the rest, and every earlier item
/// gets an exclusion constraint so the per-item outputs partition the
/// new matchings.
SearchPlan BuildSeededSearchPlan(const Pattern& pattern,
                                 const Instance& instance, PlannerMode mode,
                                 const std::vector<SeedItem>& items,
                                 size_t index) {
  const SeedItem& seed = items[index];
  std::vector<NodeId> prefix;
  prefix.push_back(seed.source);
  if (seed.is_edge && seed.target != seed.source) {
    prefix.push_back(seed.target);
  }
  SearchPlan plan = BuildSearchPlan(pattern, instance, mode, prefix);
  if (seed.is_edge && seed.target != seed.source) {
    // Depth-0 roots are delta edge sources; depth 1 walks the delta
    // adjacency, making the seed edge delta-mapped by construction.
    // (A self-loop seed needs nothing here: its depth-0 roots are the
    // delta self-loop sources.)
    plan.plans[1].delta_only_base = true;
    plan.plans[1].delta_base_label = seed.label;
  }
  for (size_t j = 0; j < index; ++j) {
    const SeedItem& prev = items[j];
    if (prev.is_edge) {
      const size_t source_pos = plan.PositionOf(prev.source);
      const size_t target_pos = plan.PositionOf(prev.target);
      plan.plans[std::max(source_pos, target_pos)].delta_checks.push_back(
          DeltaEdgeCheck{prev.label, source_pos, target_pos,
                         /*require=*/false});
    } else {
      plan.plans[plan.PositionOf(prev.source)].exclude_delta_node = true;
    }
  }
  return plan;
}

/// True iff instance node `t` is alive and carries pattern node m's
/// label and, when m has one, its print value. Delta lists are raw
/// journal footprints with no label information, and bound images are
/// the caller's, so every candidate drawn from them is checked this way.
bool Admits(const Pattern& pattern, NodeId m, const Instance& instance,
            NodeId t) {
  if (!instance.HasNode(t) || instance.LabelOf(t) != pattern.LabelOf(m)) {
    return false;
  }
  if (!pattern.HasPrintValue(m)) return true;
  const auto& print = instance.PrintValueOf(t);
  return print.has_value() && *print == *pattern.PrintValueOf(m);
}

/// The depth-0 candidates of a run whose plan starts at pattern node
/// `m`, charged to `stats` (may be null). This is the only place depth-0
/// candidates are computed; Candidates() serves depth 1 onward. A full
/// run reads the printable index (at most one node) or the label index.
/// A delta-seeded run filters its seed list `seeds` against the live
/// instance, charging every entry as scanned and the dropped ones as
/// rejected; a pinned run does the same with its bound image.
std::vector<NodeId> Roots(const Pattern& pattern, const Instance& instance,
                          NodeId m, const std::vector<NodeId>* seeds,
                          MatchStats* stats) {
  std::vector<NodeId> roots;
  size_t scanned;
  if (seeds != nullptr) {
    for (NodeId t : *seeds) {
      if (Admits(pattern, m, instance, t)) roots.push_back(t);
    }
    scanned = seeds->size();
  } else if (pattern.HasPrintValue(m)) {
    auto found =
        instance.FindPrintable(pattern.LabelOf(m), *pattern.PrintValueOf(m));
    if (found.has_value()) roots.push_back(*found);
    scanned = roots.size();
  } else {
    roots = instance.NodesWithLabel(pattern.LabelOf(m));
    scanned = roots.size();
  }
  if (stats != nullptr) {
    stats->candidates_scanned += scanned;
    stats->feasibility_rejections += scanned - roots.size();
  }
  return roots;
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

/// Global plan-cache key: the instance's stats epoch, then the
/// pattern's structural fingerprint — node ids with labels and a
/// has-print marker (the print *value* is irrelevant — the plan reads
/// values from the live pattern at enumeration time and the cost model
/// only cares that the set is pinned to ≤1), plus every edge, plus the
/// nodes `pinned` to a bound image (ExistsChecked). Any mutation bumps
/// the epoch, so stale plans simply stop being found and age out of the
/// LRU.
std::string PlanKey(const Pattern& pattern, uint64_t epoch,
                    const std::vector<NodeId>& pinned) {
  std::string key;
  key += 'e';
  key.append(std::to_string(epoch));
  for (NodeId m : pattern.AllNodes()) {
    key += '|';
    key.append(std::to_string(m.id));
    key += ':';
    key.append(std::to_string(pattern.LabelOf(m).id));
    if (pattern.HasPrintValue(m)) key += '*';
    for (const auto& [label, target] : pattern.OutEdges(m)) {
      key += ';';
      key.append(std::to_string(label.id));
      key += '>';
      key.append(std::to_string(target.id));
    }
  }
  if (!pinned.empty()) key += "|pin";
  for (NodeId m : pinned) {
    key += ',';
    key.append(std::to_string(m.id));
  }
  return key;
}

/// Global thread-safe LRU of compiled cost-based plans, keyed by
/// (pattern fingerprint, stats epoch). Shared process-wide: server
/// sessions whose working copies are unmutated copies of one version
/// (same epoch) reuse each other's plans, and rule fixpoints stop
/// re-planning a pattern within a round. Plans are immutable once
/// built, so concurrent lookups can hand out the same shared_ptr; two
/// racing builders of one key insert byte-identical plans (the build is
/// a pure function of pattern + statistics), so either winning is
/// harmless.
class PlanCache {
 public:
  static PlanCache& Get() {
    static PlanCache* cache = new PlanCache();  // Leaked: process-lifetime.
    return *cache;
  }

  std::shared_ptr<const SearchPlan> Lookup(const std::string& key) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    return it->second.plan;
  }

  void Insert(const std::string& key,
              std::shared_ptr<const SearchPlan> plan) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      // A racing builder got here first with an identical plan.
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      return;
    }
    lru_.push_front(key);
    entries_.emplace(key, Entry{std::move(plan), lru_.begin()});
    if (entries_.size() > kCapacity) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
  }

  PlanCacheInfo Info() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return PlanCacheInfo{hits_, misses_, entries_.size(), kCapacity};
  }

  void Reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    lru_.clear();
    hits_ = 0;
    misses_ = 0;
  }

 private:
  struct Entry {
    std::shared_ptr<const SearchPlan> plan;
    std::list<std::string>::iterator pos;
  };

  /// Patterns are compiler-generated per operation/rule; 128 entries
  /// comfortably cover a rule set plus ad-hoc queries while bounding
  /// memory to a few hundred KB.
  static constexpr size_t kCapacity = 128;

  mutable std::mutex mutex_;
  std::list<std::string> lru_;  // Front = most recently used.
  std::unordered_map<std::string, Entry> entries_;
  size_t hits_ = 0;
  size_t misses_ = 0;
};

/// The single full-plan acquisition point for every Matcher entry path:
/// the global cache (cost-based plans with caching enabled), build on
/// miss, and planner-observability recording into MatchOptions::stats.
/// The `pinned` nodes (ascending id) form the plan's forced prefix.
std::shared_ptr<const SearchPlan> AcquirePlan(
    const Pattern& pattern, const Instance& instance,
    const MatchOptions& options, const std::vector<NodeId>& pinned) {
  std::shared_ptr<const SearchPlan> plan;
  const bool cacheable =
      options.planner == PlannerMode::kCostBased && options.use_plan_cache;
  std::string key;
  if (cacheable) {
    key = PlanKey(pattern, instance.stats_epoch(), pinned);
    plan = PlanCache::Get().Lookup(key);
    if (options.stats != nullptr) {
      if (plan != nullptr) {
        ++options.stats->plan_cache_hits;
      } else {
        ++options.stats->plan_cache_misses;
      }
    }
  }
  if (plan == nullptr) {
    SearchPlan built =
        BuildSearchPlan(pattern, instance, options.planner, pinned);
    // A pinned node has one candidate, its bound image.
    std::fill_n(built.est_fanout.begin(),
                std::min(pinned.size(), built.est_fanout.size()), 1.0);
    plan = std::make_shared<const SearchPlan>(std::move(built));
    if (cacheable) PlanCache::Get().Insert(key, plan);
  }
  if (options.stats != nullptr) {
    options.stats->plan_order.clear();
    options.stats->plan_order.reserve(plan->order.size());
    for (NodeId m : plan->order) options.stats->plan_order.push_back(m.id);
    options.stats->depth_est_fanout = plan->est_fanout;
  }
  return plan;
}

/// Where a run's matchings go: appended to `out`, handed to `callback`
/// (which stops the run by returning false; `stopped` then records it),
/// or only counted when both are null.
struct Sink {
  std::vector<Matching>* out = nullptr;
  const std::function<bool(const Matching&)>* callback = nullptr;
  bool stopped = false;
};

/// Backtracking state for one enumeration run. One instance per thread:
/// the plan is shared read-only, everything mutable lives here.
class Enumerator {
 public:
  /// `delta` (delta-seeded runs only) is what the plan's DeltaEdgeCheck
  /// / exclude_delta_node / delta_only_base constraints evaluate
  /// against. `bound` (pinned runs only) holds the images of the plan's
  /// first bound->size() nodes. `deadline` (optional) is polled every
  /// kPollStride candidate visits.
  Enumerator(const Pattern& pattern, const Instance& instance,
             const SearchPlan& plan, const DeltaSet* delta,
             const Matching* bound, size_t limit,
             const common::Deadline* deadline)
      : pattern_(pattern),
        instance_(instance),
        plan_(plan),
        delta_(delta),
        bound_(bound),
        pinned_(bound != nullptr ? bound->size() : 0),
        limit_(limit),
        deadline_(deadline),
        armed_(deadline != nullptr && deadline->armed()) {
    assignment_.assign(plan_.order.size(), NodeId{});
    scratch_.resize(plan_.order.size());
    stats_.depth_fanout.assign(plan_.order.size(), 0);
    // Pre-bind every plan node so the leaf only overwrites images.
    for (NodeId m : plan_.order) matching_scratch_.Bind(m, NodeId{0});
  }

  /// The one entry: enumerates the subtrees under the depth-0
  /// candidates roots[begin, end) into `sink` — a whole serial run, or
  /// one chunk of a parallel one. An empty plan has no depth 0, so its
  /// leaf emits the one (empty) matching instead. Stops at the limit,
  /// when the callback declines, or on an interrupt. The depth-0 retreat
  /// is left to the driver, which alone knows whether the whole run
  /// emitted.
  void Run(const std::vector<NodeId>& roots, size_t begin, size_t end,
           Sink* sink) {
    // An interrupted worker drains its remaining chunks immediately.
    if (!interrupt_.ok()) return;
    if (stats_.matchings >= limit_) return;
    sink_ = sink;
    if (plan_.order.empty()) {
      Recurse(0);  // Depth 0 is the leaf: the one (empty) matching.
    } else {
      for (size_t i = begin; i < end; ++i) {
        if (armed_ && !PollDeadline()) break;
        if (!Place(plan_.plans[0], 0, roots[i])) continue;
        if (!Recurse(1)) break;
      }
    }
    if (sink->out != nullptr) FlushRows(sink->out);
    sink_ = nullptr;
  }

  const MatchStats& stats() const { return stats_; }

  /// OK, or the status (kDeadlineExceeded/kCancelled) that cut this
  /// enumeration short.
  const Status& interrupt() const { return interrupt_; }

 private:
  /// Appends the buffered rows to `out` as Matchings, in emission
  /// order.
  void FlushRows(std::vector<Matching>* out) {
    const size_t width = plan_.order.size();
    out->reserve(out->size() + pending_rows_);
    for (size_t r = 0; r < pending_rows_; ++r) {
      for (size_t i = 0; i < width; ++i) {
        matching_scratch_.Bind(plan_.order[i], rows_[r * width + i]);
      }
      out->push_back(matching_scratch_);
    }
    rows_.clear();
    pending_rows_ = 0;
  }

  /// Stride-gated deadline poll. Returns false when enumeration must
  /// stop; interrupt_ then holds the reason. Only called when armed_.
  bool PollDeadline() {
    if ((++polls_ & (kPollStride - 1)) != 0) return true;
    interrupt_ = deadline_->Check();
    return interrupt_.ok();
  }

  /// True iff mapping plan.m to `t` respects the node label and every
  /// pattern self-loop (m, α, m), which demands the instance edge
  /// (t, α, t). Placed-neighbour edges and print values are already
  /// enforced by Roots()/Candidates(), which draw from (and intersect
  /// against) the printable index and the anchor adjacency lists.
  bool Feasible(const DepthPlan& plan, NodeId t) {
    if (plan.check_label && instance_.LabelOf(t) != plan.label) {
      ++stats_.feasibility_rejections;
      return false;
    }
    for (Symbol label : plan.self_loops) {
      if (!instance_.HasEdge(t, label, t)) {
        ++stats_.feasibility_rejections;
        return false;
      }
    }
    return true;
  }

  /// The adjacency list an anchor constrains candidates to.
  const std::vector<NodeId>& AnchorList(const Anchor& anchor) const {
    NodeId image = assignment_[anchor.position];
    return anchor.out_of_m ? instance_.InSources(image, anchor.label)
                           : instance_.OutTargets(image, anchor.label);
  }

  /// True iff `t` satisfies the anchor's edge constraint.
  bool SatisfiesAnchor(const Anchor& anchor, NodeId t) const {
    NodeId image = assignment_[anchor.position];
    return anchor.out_of_m ? instance_.HasEdge(t, anchor.label, image)
                           : instance_.HasEdge(image, anchor.label, t);
  }

  /// Evaluates the depth's delta-membership constraints against
  /// candidate `t` (standing in for the node being placed at `depth`).
  /// Only called on delta-seeded runs.
  bool DeltaFeasible(const DepthPlan& plan, size_t depth, NodeId t) {
    if (plan.exclude_delta_node && delta_->ContainsNode(t)) {
      ++stats_.delta_rejections;
      return false;
    }
    for (const DeltaEdgeCheck& check : plan.delta_checks) {
      const NodeId source = check.source_position == depth
                                ? t
                                : assignment_[check.source_position];
      const NodeId target = check.target_position == depth
                                ? t
                                : assignment_[check.target_position];
      if (delta_->ContainsEdge(source, check.label, target) != check.require) {
        ++stats_.delta_rejections;
        return false;
      }
    }
    return true;
  }

  /// Candidate instance nodes for pattern node order[depth], depth ≥ 1.
  ///
  /// Anchored nodes (≥1 already-placed neighbour) draw candidates from
  /// the plan-chosen base anchor's adjacency list (the cost-based
  /// planner picks the direction/anchor with the smallest expected
  /// fan-out at plan time), intersected against the remaining anchors
  /// via O(1) edge-index probes; unanchored nodes fall back to the
  /// label index (or the printable dedup index, which pins the
  /// candidate set to at most one node).
  const std::vector<NodeId>& Candidates(size_t depth) {
    const DepthPlan& plan = plan_.plans[depth];
    std::vector<NodeId>& scratch = scratch_[depth];
    if (plan.delta_only_base || depth < pinned_) {
      // Walk the delta adjacency of the seed edge, or take a pinned
      // node's bound image, instead of an instance adjacency list;
      // label/print/anchors are then verified against the live
      // instance.
      scratch.clear();
      const NodeId image = depth < pinned_ ? bound_->At(plan.m) : NodeId{};
      const std::span<const NodeId> base_list =
          depth < pinned_
              ? std::span<const NodeId>(&image, 1)
              : delta_->OutTargets(assignment_[0], plan.delta_base_label);
      stats_.candidates_scanned += base_list.size();
      for (NodeId t : base_list) {
        bool in_all = Admits(pattern_, plan.m, instance_, t);
        for (size_t i = 0; in_all && i < plan.anchors.size(); ++i) {
          in_all = SatisfiesAnchor(plan.anchors[i], t);
        }
        if (in_all) {
          scratch.push_back(t);
        } else {
          ++stats_.feasibility_rejections;
        }
      }
      return scratch;
    }
    if (plan.has_print) {
      scratch.clear();
      auto found =
          instance_.FindPrintable(plan.label, *pattern_.PrintValueOf(plan.m));
      if (found.has_value()) {
        ++stats_.candidates_scanned;
        bool in_all = true;
        for (const Anchor& anchor : plan.anchors) {
          if (!SatisfiesAnchor(anchor, *found)) {
            in_all = false;
            ++stats_.feasibility_rejections;
            break;
          }
        }
        if (in_all) scratch.push_back(*found);
      }
      return scratch;
    }

    if (plan.anchors.empty()) {
      scratch = instance_.NodesWithLabel(plan.label);
      stats_.candidates_scanned += scratch.size();
      return scratch;
    }

    const size_t base = plan.base_anchor;
    const std::vector<NodeId>& base_list = AnchorList(plan.anchors[base]);
    stats_.candidates_scanned += base_list.size();
    if (plan.anchors.size() == 1) return base_list;  // Borrow, no copy.

    scratch.clear();
    for (NodeId t : base_list) {
      bool in_all = true;
      for (size_t i = 0; i < plan.anchors.size(); ++i) {
        if (i == base) continue;
        if (!SatisfiesAnchor(plan.anchors[i], t)) {
          in_all = false;
          ++stats_.feasibility_rejections;
          break;
        }
      }
      if (in_all) scratch.push_back(t);
    }
    return scratch;
  }

  /// Binds order[depth] to `t` if it passes the feasibility and delta
  /// checks, counting it in depth_fanout.
  bool Place(const DepthPlan& plan, size_t depth, NodeId t) {
    if (!Feasible(plan, t)) return false;
    if (delta_ != nullptr && !DeltaFeasible(plan, depth, t)) return false;
    ++stats_.depth_fanout[depth];
    assignment_[depth] = t;
    return true;
  }

  /// Returns false to abort enumeration (limit reached, callback
  /// declined, or interrupt). The leaf is emitted inline: a call per
  /// leaf costs about 10% on dense counts.
  bool Recurse(size_t depth) {
    if (depth == plan_.order.size()) {
      ++stats_.matchings;
      if (sink_->out == nullptr && sink_->callback == nullptr) {
        return stats_.matchings < limit_;  // Counting: nothing to bind.
      }
      if (sink_->out != nullptr) {
        // Buffered as a row; FlushRows builds the Matchings once the
        // count is known, so the output grows in one step.
        rows_.insert(rows_.end(), assignment_.begin(), assignment_.end());
        ++pending_rows_;
        return stats_.matchings < limit_;
      }
      // Rebind the reused matching in place: every slot was pre-bound
      // in the constructor, so this only stores images.
      for (size_t i = 0; i < plan_.order.size(); ++i) {
        matching_scratch_.Bind(plan_.order[i], assignment_[i]);
      }
      if (!(*sink_->callback)(matching_scratch_)) {
        sink_->stopped = true;
        return false;
      }
      return stats_.matchings < limit_;
    }
    const DepthPlan& plan = plan_.plans[depth];
    const size_t emitted_before = stats_.matchings;
    for (NodeId t : Candidates(depth)) {
      if (armed_ && !PollDeadline()) return false;
      if (!Place(plan, depth, t)) continue;
      if (!Recurse(depth + 1)) return false;
    }
    if (stats_.matchings == emitted_before) ++stats_.backtracks;
    return true;
  }

  const Pattern& pattern_;
  const Instance& instance_;
  const SearchPlan& plan_;
  const DeltaSet* delta_;
  const Matching* bound_;
  const size_t pinned_;  // Depths [0, pinned_) take bound_'s images.
  size_t limit_;
  const common::Deadline* deadline_;
  const bool armed_;
  size_t polls_ = 0;
  Status interrupt_;
  Sink* sink_ = nullptr;
  std::vector<NodeId> assignment_;
  // Per-depth candidate buffers (reused across sibling subtrees).
  std::vector<std::vector<NodeId>> scratch_;
  // Reused across leaves; the sink receives it by const reference.
  Matching matching_scratch_;
  // Images of the matchings bound for sink_->out not yet flushed, one
  // row of plan_.order.size() per matching (rows are empty for the
  // empty pattern, hence the separate count).
  std::vector<NodeId> rows_;
  size_t pending_rows_ = 0;
  MatchStats stats_;
};

/// The one driver under every entry point: enumerates `plan` over its
/// depth-0 candidates `roots` (pinned to `bound`'s images, if any) into
/// `sink`, adds the run's stats to
/// options.stats and its matching count to *emitted. The run is chunked
/// over the calling thread plus up to num_threads - 1 forked ones when
/// options.num_threads > 0, there is no limit and no callback, the plan
/// is non-empty, and the roots reach options.parallel_threshold;
/// otherwise one Enumerator runs it inline.
/// Each chunk searches exactly what the inline run searches under its
/// roots and chunk outputs merge in chunk order, so the matching
/// sequence and every stat but workers_used are the same either way. On
/// an interrupt, returns its status after adding the partial stats.
Status Enumerate(const Pattern& pattern, const Instance& instance,
                 const SearchPlan& plan, const std::vector<NodeId>& roots,
                 const DeltaSet* delta, const Matching* bound,
                 const MatchOptions& options, Sink* sink, size_t* emitted) {
  const bool parallel = options.num_threads > 0 &&
                        options.limit == kNoLimit &&
                        sink->callback == nullptr && !plan.order.empty() &&
                        roots.size() >= options.parallel_threshold;
  const size_t workers =
      parallel
          ? std::min(options.num_threads, std::max<size_t>(roots.size(), 1))
          : 1;
  std::vector<Enumerator> per_worker;
  per_worker.reserve(workers);
  for (size_t w = 0; w < workers; ++w) {
    per_worker.emplace_back(pattern, instance, plan, delta, bound,
                            options.limit, options.deadline);
  }
  size_t num_chunks = 1;
  if (!parallel) {
    per_worker[0].Run(roots, 0, roots.size(), sink);
  } else {
    // ~4 chunks per worker: slack for dynamic load balancing without
    // fragmenting the ordered merge.
    const size_t chunk_size =
        std::max<size_t>(1, (roots.size() + workers * 4 - 1) / (workers * 4));
    num_chunks = (roots.size() + chunk_size - 1) / chunk_size;
    std::vector<std::vector<Matching>> chunk_out(
        sink->out != nullptr ? num_chunks : 0);
    // Worker w claims chunks from one cursor until it passes num_chunks.
    std::atomic<size_t> cursor{0};
    auto work = [&](size_t w) {
      for (size_t chunk = cursor++; chunk < num_chunks; chunk = cursor++) {
        const size_t begin = chunk * chunk_size;
        Sink chunk_sink{sink->out != nullptr ? &chunk_out[chunk] : nullptr};
        per_worker[w].Run(roots, begin,
                          std::min(roots.size(), begin + chunk_size),
                          &chunk_sink);
      }
    };
    {
      std::vector<std::jthread> threads;
      threads.reserve(workers - 1);
      for (size_t w = 1; w < workers; ++w) threads.emplace_back(work, w);
      work(0);  // The calling thread is worker 0.
    }  // Joins the threads, publishing their writes to this one.
    if (sink->out != nullptr) {
      size_t total = sink->out->size();
      for (const std::vector<Matching>& chunk : chunk_out) {
        total += chunk.size();
      }
      sink->out->reserve(total);
      for (std::vector<Matching>& chunk : chunk_out) {
        std::move(chunk.begin(), chunk.end(), std::back_inserter(*sink->out));
      }
    }
  }

  // Every worker polls the deadline itself, so the first non-OK status
  // is the run's.
  MatchStats run;
  Status interrupt;
  for (const Enumerator& enumerator : per_worker) {
    run += enumerator.stats();
    if (interrupt.ok()) interrupt = enumerator.interrupt();
  }
  // The depth-0 retreat: a run that emitted nothing exhausted its roots,
  // unless a limit of 0 or an interrupt stopped it first.
  if (run.matchings == 0 && options.limit > 0 && interrupt.ok()) {
    ++run.backtracks;
  }
  run.workers_used = std::max<size_t>(1, std::min(workers, num_chunks));
  if (options.stats != nullptr) *options.stats += run;
  *emitted += run.matchings;
  return interrupt;
}

/// The sequence behind every entry point: the up-front deadline check,
/// then one Enumerate over the (possibly cached) full plan — its prefix
/// pinned to the nodes `bound` maps, if any — or, for a delta-seeded
/// run, one per seed item in the fixed item order, each over its own
/// seeded plan and filtered seed list, with the limit carried across
/// items. `*emitted` counts the matchings delivered, also when an
/// interrupt cuts the run short.
Status Match(const Pattern& pattern, const Instance& instance,
             const MatchOptions& options, Sink* sink, size_t* emitted,
             const Matching* bound = nullptr) {
  *emitted = 0;
  // Tiny enumerations may finish under the poll stride, so an
  // already-expired deadline must still be observed.
  if (options.deadline != nullptr) {
    GOOD_RETURN_NOT_OK(options.deadline->Check());
  }
  if (options.delta == nullptr) {
    std::vector<NodeId> pinned;
    if (bound != nullptr) {
      for (const auto& [m, image] : bound->map()) pinned.push_back(m);
    }
    std::shared_ptr<const SearchPlan> plan =
        AcquirePlan(pattern, instance, options, pinned);
    std::vector<NodeId> roots;
    // A limit of 0 ends the run before depth 0 is read.
    if (!plan->order.empty() && options.limit > 0) {
      // A pinned depth 0 has its bound image as its one seed.
      std::vector<NodeId> image;
      if (!pinned.empty()) image.push_back(bound->At(pinned[0]));
      roots = Roots(pattern, instance, plan->order[0],
                    pinned.empty() ? nullptr : &image, options.stats);
    }
    return Enumerate(pattern, instance, *plan, roots, nullptr, bound, options,
                     sink, emitted);
  }
  const DeltaSet& delta = *options.delta;
  const std::vector<SeedItem> items = BuildSeedItems(pattern);
  for (size_t i = 0;
       i < items.size() && *emitted < options.limit && !sink->stopped; ++i) {
    const SeedItem& seed = items[i];
    const std::vector<NodeId>& seeds =
        !seed.is_edge                 ? delta.nodes()
        : seed.source == seed.target ? delta.SelfLoopSources(seed.label)
                                      : delta.EdgeSources(seed.label);
    const std::vector<NodeId> roots =
        Roots(pattern, instance, seed.source, &seeds, options.stats);
    if (roots.empty()) continue;
    // Seeded plans never enter the global plan cache: delta-seeded runs
    // are fixpoint rounds, each of which mutates the instance and so
    // bumps the stats epoch the cache keys by.
    const SearchPlan plan =
        BuildSeededSearchPlan(pattern, instance, options.planner, items, i);
    MatchOptions item_options = options;
    if (options.limit != kNoLimit) item_options.limit -= *emitted;
    GOOD_RETURN_NOT_OK(Enumerate(pattern, instance, plan, roots, &delta,
                                 nullptr, item_options, sink, emitted));
  }
  return Status::OK();
}

}  // namespace

Status Matcher::ForEachChecked(
    const std::function<bool(const Matching&)>& callback,
    size_t* visited) const {
  Sink sink{nullptr, &callback};
  size_t count = 0;
  Status status = Match(pattern_, instance_, options_, &sink, &count);
  if (visited != nullptr) *visited = count;
  return status;
}

Result<std::vector<Matching>> Matcher::FindAllChecked() const {
  std::vector<Matching> out;
  Sink sink{&out};
  size_t count = 0;
  GOOD_RETURN_NOT_OK(Match(pattern_, instance_, options_, &sink, &count));
  return out;
}

Result<size_t> Matcher::CountChecked() const {
  Sink sink;
  size_t count = 0;
  GOOD_RETURN_NOT_OK(Match(pattern_, instance_, options_, &sink, &count));
  return count;
}

Result<bool> Matcher::ExistsChecked(const Matching& bound) const {
  for (const auto& [m, image] : bound.map()) {
    if (!pattern_.HasNode(m)) return false;  // No matching maps m.
  }
  if (bound.size() > 0 && options_.delta != nullptr) {
    return Status::InvalidArgument(
        "ExistsChecked cannot pin nodes of a delta-seeded run");
  }
  MatchOptions limited = options_;
  limited.limit = std::min<size_t>(options_.limit, 1);
  Sink sink;
  size_t count = 0;
  GOOD_RETURN_NOT_OK(
      Match(pattern_, instance_, limited, &sink, &count, &bound));
  return count > 0;
}

PlanCacheInfo GlobalPlanCacheInfo() { return PlanCache::Get().Info(); }

void ResetGlobalPlanCache() { PlanCache::Get().Reset(); }

std::vector<Matching> FindMatchings(const Pattern& pattern,
                                    const graph::Instance& instance) {
  // No deadline is configured, so the enumeration cannot be cut off.
  return Matcher(pattern, instance).FindAllChecked().ValueOrDie();
}

std::vector<Matching> FindMatchingsBruteForce(
    const Pattern& pattern, const graph::Instance& instance) {
  std::vector<NodeId> pattern_nodes = pattern.AllNodes();
  std::vector<std::vector<NodeId>> candidates;
  for (NodeId m : pattern_nodes) {
    std::vector<NodeId> c;
    for (NodeId t : instance.NodesWithLabel(pattern.LabelOf(m))) {
      if (pattern.HasPrintValue(m)) {
        const auto& print = instance.PrintValueOf(t);
        if (!print.has_value() || *print != *pattern.PrintValueOf(m)) continue;
      }
      c.push_back(t);
    }
    candidates.push_back(std::move(c));
  }

  std::vector<Matching> out;
  std::vector<size_t> cursor(pattern_nodes.size(), 0);
  const size_t n = pattern_nodes.size();
  if (n == 0) {
    out.emplace_back();  // The empty pattern has one (empty) matching.
    return out;
  }
  while (true) {
    // Build and test the current assignment.
    bool viable = true;
    for (size_t i = 0; i < n && viable; ++i) {
      viable = cursor[i] < candidates[i].size();
    }
    if (viable) {
      Matching matching;
      for (size_t i = 0; i < n; ++i) {
        matching.Bind(pattern_nodes[i], candidates[i][cursor[i]]);
      }
      bool ok = true;
      for (NodeId m : pattern_nodes) {
        for (const auto& [label, target] : pattern.OutEdges(m)) {
          if (!instance.HasEdge(matching.At(m), label, matching.At(target))) {
            ok = false;
            break;
          }
        }
        if (!ok) break;
      }
      if (ok) out.push_back(std::move(matching));
    }
    // Odometer increment.
    size_t i = 0;
    for (; i < n; ++i) {
      if (candidates[i].empty()) return {};  // Some node has no candidate.
      if (++cursor[i] < candidates[i].size()) break;
      cursor[i] = 0;
    }
    if (i == n) break;
  }
  return out;
}

}  // namespace good::pattern
