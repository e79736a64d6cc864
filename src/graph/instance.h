/// \file instance.h
/// \brief Object base instances (Section 2 of the paper).
///
/// An object base instance over a scheme S is a labeled directed graph
/// I = (N, E) where:
///  - every node carries a node label from OL ∪ POL; printable nodes may
///    additionally carry a print label (a constant from the label's
///    domain);
///  - every edge (m, α, n) is typed by a triple (λ(m), α, λ(n)) ∈ P;
///  - all α-successors of a node have equal node labels; if α is
///    functional there is at most one α-successor;
///  - two printable nodes with the same label and the same print value
///    are the same node (printable dedup).
/// The Instance class enforces all four conditions on mutation and can
/// re-verify them wholesale with Validate().

#ifndef GOOD_GRAPH_INSTANCE_H_
#define GOOD_GRAPH_INSTANCE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/interner.h"
#include "common/result.h"
#include "common/status.h"
#include "common/value.h"
#include "graph/cow_ptr.h"
#include "schema/scheme.h"

namespace good::graph {

class UndoJournal;

/// \brief Opaque object identity. The paper's objects "exist
/// independently of their properties"; a NodeId is that identity.
struct NodeId {
  uint32_t id = kInvalid;

  static constexpr uint32_t kInvalid = 0xFFFFFFFFu;
  bool valid() const { return id != kInvalid; }

  friend bool operator==(NodeId, NodeId) = default;
  friend auto operator<=>(NodeId, NodeId) = default;
};

/// \brief A labeled directed edge.
struct Edge {
  NodeId source;
  Symbol label;
  NodeId target;

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// \brief Hash for Edge, enabling the O(1) edge-membership index.
struct EdgeHash {
  size_t operator()(const Edge& e) const {
    size_t seed = std::hash<uint32_t>{}(e.source.id);
    HashCombine(&seed, e.label.id);
    HashCombine(&seed, e.target.id);
    return seed;
  }
};

/// \brief Read-only view of one node's edges in one direction, flattened
/// from the node's per-label adjacency lists.
///
/// Iteration is grouped by edge label: labels in the order the node
/// first gained an edge with that label (a label whose edges were all
/// removed keeps its place), each label's edges in insertion order.
/// Elements are built on the fly as `Pair` values — (label, target) for
/// out-edges, (source, label) for in-edges. The view holds no edges of
/// its own, so copying it copies none, and any mutation of the instance
/// invalidates it: a caller that mutates while iterating must first
/// copy the edges into a vector.
template <typename Pair>
class EdgeView {
  using LabelList = std::pair<Symbol, std::vector<NodeId>>;
  static constexpr bool kLabelFirst =
      std::is_same_v<typename Pair::first_type, Symbol>;

 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using iterator_concept = std::forward_iterator_tag;
    using value_type = Pair;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Pair;

    iterator() = default;

    Pair operator*() const {
      const auto& [label, nodes] = *list_;
      if constexpr (kLabelFirst) {
        return Pair{label, nodes[pos_]};
      } else {
        return Pair{nodes[pos_], label};
      }
    }
    iterator& operator++() {
      if (++pos_ == list_->second.size()) {
        pos_ = 0;
        ++list_;
        SkipEmpty();
      }
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const iterator&, const iterator&) = default;

   private:
    friend class EdgeView;
    iterator(const LabelList* list, const LabelList* end)
        : list_(list), end_(end) {
      SkipEmpty();
    }
    void SkipEmpty() {
      while (list_ != end_ && list_->second.empty()) ++list_;
    }

    const LabelList* list_ = nullptr;
    const LabelList* end_ = nullptr;
    size_t pos_ = 0;
  };

  iterator begin() const { return iterator(first_, last_); }
  iterator end() const { return iterator(last_, last_); }
  bool empty() const { return begin() == end(); }
  /// Number of edges; linear in the node's distinct labels.
  size_t size() const {
    size_t n = 0;
    for (const LabelList* list = first_; list != last_; ++list) {
      n += list->second.size();
    }
    return n;
  }

 private:
  friend class Instance;
  explicit EdgeView(const std::vector<LabelList>& lists)
      : first_(lists.data()), last_(lists.data() + lists.size()) {}

  const LabelList* first_;
  const LabelList* last_;
};

/// A node's outgoing edges as (edge label, target) pairs.
using OutEdgeView = EdgeView<std::pair<Symbol, NodeId>>;
/// A node's incoming edges as (source, edge label) pairs.
using InEdgeView = EdgeView<std::pair<NodeId, Symbol>>;

/// \brief An object base instance over some scheme.
///
/// The instance does not own its scheme; mutators take the scheme as a
/// parameter so that operations (which may extend the scheme) can pass
/// the freshest version. Instances are value types with copy-on-write
/// storage: a copy is an independent snapshot (the operational
/// semantics computes all matchings against the pre-state), but it
/// shares every page of nodes and every printable-index shard with its
/// source until one side writes to it. Copying costs one pointer per
/// page; a mutation clones only the page or shard it touches (see
/// DESIGN.md, "Copy-on-write pages"). Copies may be read and destroyed
/// on other threads while the source keeps mutating.
class Instance {
 public:
  Instance() = default;

  /// Copies snapshot the graph but never the journal attachment: a
  /// journal records mutations of one specific instance, so a copy
  /// taken mid-transaction starts un-journaled.
  Instance(const Instance& other) = default;
  Instance& operator=(const Instance& other) = default;
  /// Moves transfer the journal attachment (the recorded state now
  /// lives in the destination) and detach the source.
  Instance(Instance&& other) noexcept = default;
  Instance& operator=(Instance&& other) noexcept = default;

  // ---- Undo journaling -----------------------------------------------------

  /// Attaches `journal` (not owned): every subsequent mutation records
  /// its inverse there until DetachJournal(). At most one journal can
  /// be attached; nested transaction scopes share it via savepoint
  /// marks (see ops/transaction.h).
  void AttachJournal(UndoJournal* journal) { journal_.ptr = journal; }
  void DetachJournal() { journal_.ptr = nullptr; }
  UndoJournal* journal() const { return journal_.ptr; }

  // ---- Node mutation -------------------------------------------------------

  /// Adds a fresh object node labeled `label` (must be in OL).
  Result<NodeId> AddObjectNode(const schema::Scheme& scheme, Symbol label);

  /// Adds (or finds) the printable node with `label` and print value
  /// `value`. Per the instance definition printable nodes are unique per
  /// (label, value), so re-adding returns the existing node.
  Result<NodeId> AddPrintableNode(const schema::Scheme& scheme, Symbol label,
                                  Value value);

  /// Adds a printable node without a print value. The formal definition
  /// makes the print label optional ("each printable node CAN have one
  /// additional label print(n)"); patterns use valueless printable nodes
  /// as wildcards (e.g. the Date nodes of Figure 8). Valueless nodes are
  /// not deduplicated.
  Result<NodeId> AddValuelessPrintableNode(const schema::Scheme& scheme,
                                           Symbol label);

  /// Re-creates a node under its original id (checkpoint load). Ids are
  /// never reused, so a snapshot's id set is sparse ascending; callers
  /// restore in ascending order and `id` must lie at or beyond the
  /// allocation frontier — the gap up to it is filled with tombstones
  /// so every later id keeps its meaning. `print` (when set) must match
  /// the label's domain and be new to its dedup index; restoring is
  /// otherwise validated exactly like the Add* paths.
  Result<NodeId> RestoreNodeAt(const schema::Scheme& scheme, NodeId id,
                               Symbol label, std::optional<Value> print);

  /// The id the next node will be allocated (ids are never reused, so
  /// this only grows). Checkpoints persist it so a degraded load can
  /// reserve past ids it could not read.
  size_t NodeFrontier() const {
    return pages_.empty()
               ? 0
               : (pages_.size() - 1) * kPageSize + pages_.back()->nodes.size();
  }

  /// Pads the node table with tombstones until NodeFrontier() >=
  /// `frontier`. Used by the checkpoint loader; no-op when already
  /// there.
  void ReserveNodeFrontier(size_t frontier);

  /// Removes `node` and all incident edges (node-deletion semantics).
  Status RemoveNode(NodeId node);

  // ---- Edge mutation -------------------------------------------------------

  /// Adds edge (source, label, target). Checks: both nodes alive, the
  /// triple (λ(source), label, λ(target)) ∈ P, the equal-successor-label
  /// condition, and functional uniqueness. Adding an existing edge is an
  /// idempotent no-op (edge sets, not multisets).
  Status AddEdge(const schema::Scheme& scheme, NodeId source, Symbol label,
                 NodeId target);

  /// Removes the edge; OK even if absent (maximal-subinstance deletion
  /// semantics make deletion of already-deleted edges a no-op).
  Status RemoveEdge(NodeId source, Symbol label, NodeId target);

  // ---- Node queries ----------------------------------------------------------

  bool HasNode(NodeId node) const {
    if ((node.id >> kPageBits) >= pages_.size()) return false;
    const std::vector<NodeRep>& nodes = PageOf(node).nodes;
    const size_t slot = node.id & kPageMask;
    return slot < nodes.size() && nodes[slot].alive;
  }
  /// Node label; NodeId must be alive.
  Symbol LabelOf(NodeId node) const { return Rep(node).label; }
  /// Print value; empty for object nodes.
  const std::optional<Value>& PrintValueOf(NodeId node) const {
    return Rep(node).print;
  }
  /// True iff the node carries a print value. (Printable-ness of the
  /// label itself is a scheme question; a printable node may be
  /// valueless.)
  bool HasPrintValue(NodeId node) const { return Rep(node).print.has_value(); }

  /// All alive nodes with the given label, in ascending id order:
  /// the pages' per-label id lists, concatenated page by page.
  std::vector<NodeId> NodesWithLabel(Symbol label) const;
  /// Calls `fn(NodeId)` on NodesWithLabel's sequence without copying
  /// the label index, stopping at the first call that returns false.
  /// Returns false iff a call stopped it.
  template <typename Fn>
  bool ForEachNodeWithLabel(Symbol label, Fn&& fn) const {
    size_t left = CountNodesWithLabel(label);
    for (size_t p = 0; left > 0 && p < pages_.size(); ++p) {
      for (const auto& [l, ids] : pages_[p]->by_label) {
        if (l != label) continue;
        for (uint32_t id : ids) {
          if (!fn(NodeId{id})) return false;
        }
        left -= ids.size();
        break;
      }
    }
    return true;
  }
  /// O(1): read from a per-label count map.
  size_t CountNodesWithLabel(Symbol label) const;

  /// The unique printable node (label, value), if present.
  std::optional<NodeId> FindPrintable(Symbol label, const Value& value) const;

  /// All alive nodes in ascending id order.
  std::vector<NodeId> AllNodes() const;

  // ---- Edge queries ----------------------------------------------------------

  /// O(1) expected: backed by the edge hash set of the source's page.
  bool HasEdge(NodeId source, Symbol label, NodeId target) const {
    return (source.id >> kPageBits) < pages_.size() &&
           PageOf(source).edges.contains(Edge{source, label, target});
  }

  /// Outgoing edges of `node` as (edge label, target) pairs, grouped by
  /// label (see EdgeView for the order).
  OutEdgeView OutEdges(NodeId node) const {
    return OutEdgeView(Rep(node).out_by_label.entries);
  }
  /// Incoming edges of `node` as (source, edge label) pairs, grouped by
  /// label (see EdgeView for the order).
  InEdgeView InEdges(NodeId node) const {
    return InEdgeView(Rep(node).in_by_label.entries);
  }

  /// Targets of `label`-edges leaving `node`. Index-backed: no scan over
  /// unrelated labels. The reference is invalidated by mutation.
  const std::vector<NodeId>& OutTargets(NodeId node, Symbol label) const;
  /// The unique functional `label`-successor of `node`, if any. O(1).
  std::optional<NodeId> FunctionalTarget(NodeId node, Symbol label) const;
  /// Sources of `label`-edges entering `node`. Index-backed; the
  /// reference is invalidated by mutation.
  const std::vector<NodeId>& InSources(NodeId node, Symbol label) const;

  /// Number of `label`-edges leaving `node` (no materialization).
  size_t OutDegree(NodeId node, Symbol label) const {
    return OutTargets(node, label).size();
  }
  /// Number of `label`-edges entering `node` (no materialization).
  size_t InDegree(NodeId node, Symbol label) const {
    return InSources(node, label).size();
  }

  /// Every alive edge, ascending by (source, label, target).
  std::vector<Edge> AllEdges() const;

  size_t num_nodes() const { return num_alive_; }
  size_t num_edges() const { return num_edges_; }

  // ---- Cardinality statistics ------------------------------------------------
  //
  // Incrementally maintained census counters feeding the cost-based
  // pattern planner (pattern/matcher.cc): per-label node counts (the
  // label index), per-edge-label edge counts, and per-(edge label,
  // endpoint label) degree sums. Every mutation — including undo-journal
  // rollback replay — stamps the instance with a fresh, process-globally
  // unique stats epoch, so a (pattern, epoch) pair pins down a compiled
  // plan's statistical inputs exactly: two instances share an epoch only
  // when one is an unmutated copy of the other (copies snapshot the
  // stats, so sharing is sound — this is what lets server sessions'
  // working copies reuse cached plans).

  /// The epoch stamped by the most recent mutation; 0 for a never-mutated
  /// instance.
  uint64_t stats_epoch() const { return stats_epoch_; }

  // ---- Dirty-class tracking ----------------------------------------------
  //
  // Partitioned checkpoints (storage/partition.h) persist the instance
  // per class: the partition of class C holds the C-labeled nodes plus
  // every edge whose *source* is C-labeled. Each mutation therefore
  // marks the classes whose partition content it changed — maintained
  // alongside the stats epoch on every mutation path, including
  // undo-journal rollback (an undone mutation still dirties the bytes
  // on disk relative to the last checkpoint).

  /// Classes whose partition content changed since the last
  /// ClearDirtyClasses() (unordered; empty after a clear or for a
  /// fresh instance). Copies inherit the source's dirty set.
  const std::unordered_set<Symbol>& dirty_classes() const {
    return dirty_classes_;
  }
  /// Resets the dirty set — called by the checkpointer once the marked
  /// partitions are durably rewritten.
  void ClearDirtyClasses() { dirty_classes_.clear(); }

  /// Number of alive edges carrying `label`.
  size_t CountEdgesWithLabel(Symbol label) const;

  /// Total `edge_label`-out-degree summed over alive nodes labeled
  /// `source_label` — i.e. the number of `edge_label` edges leaving
  /// `source_label` nodes.
  size_t OutDegreeSum(Symbol source_label, Symbol edge_label) const;
  /// Total `edge_label`-in-degree summed over alive nodes labeled
  /// `target_label`.
  size_t InDegreeSum(Symbol target_label, Symbol edge_label) const;

  /// Expected number of `edge_label` out-edges of one `source_label`
  /// node (degree sum / label count; 0 when no such nodes exist).
  double AvgOutFanout(Symbol source_label, Symbol edge_label) const;
  /// Expected number of `edge_label` in-edges of one `target_label` node.
  double AvgInFanout(Symbol target_label, Symbol edge_label) const;

  // ---- Whole-instance checks -------------------------------------------------

  /// Re-verifies every instance condition against `scheme`. Intended for
  /// tests and for auditing after bulk operations.
  Status Validate(const schema::Scheme& scheme) const;

  /// An isomorphism-invariant multiset summary: node census per
  /// (label, print value) plus edge census per
  /// (source label/print, edge label, target label/print). Equal
  /// instances (up to iso) have equal fingerprints; the converse is
  /// checked exactly by IsIsomorphic (isomorphism.h).
  std::string Fingerprint() const;

  /// Human-readable dump (ids, labels, values, edges) for debugging.
  std::string ToString() const;

 private:
  friend class UndoJournal;

  /// Per-label adjacency stored flat: a node touches few distinct edge
  /// labels, so a linear scan over a contiguous array beats a per-node
  /// hash map on the matcher hot path and costs far less memory. An
  /// entry emptied by edge removal is kept, never erased: the undo
  /// journal re-inserts at recorded positions and pops only entries an
  /// add created.
  struct LabelAdjacency {
    std::vector<std::pair<Symbol, std::vector<NodeId>>> entries;

    std::vector<NodeId>& operator[](Symbol label) {
      for (auto& [l, list] : entries) {
        if (l == label) return list;
      }
      entries.emplace_back(label, std::vector<NodeId>());
      return entries.back().second;
    }
    const std::vector<NodeId>* Find(Symbol label) const {
      for (const auto& [l, list] : entries) {
        if (l == label) return &list;
      }
      return nullptr;
    }
    void clear() { entries.clear(); }
  };

  struct NodeRep {
    Symbol label;
    std::optional<Value> print;
    bool alive = true;
    // The node's only adjacency, one list per edge label and direction
    // (insertion order preserved); OutEdges/InEdges flatten them.
    LabelAdjacency out_by_label;
    LabelAdjacency in_by_label;
  };

  /// Copy-on-write storage unit: the nodes with ids
  /// [i * kPageSize, (i + 1) * kPageSize) for page i, plus the indexes
  /// that are local to them. Ids are dense and allocated at the tail,
  /// so `id >> kPageBits` addresses a page and an insert touches only
  /// the tail page.
  struct Page {
    // Slot `id & kPageMask`; only the tail page is ever short.
    std::vector<NodeRep> nodes;
    // Label -> the page's alive node ids carrying it, ascending. An
    // entry is erased when its last id goes, so the list stays short.
    std::vector<std::pair<Symbol, std::vector<uint32_t>>> by_label;
    // The edges whose source lies on this page, for O(1) HasEdge.
    std::unordered_set<Edge, EdgeHash> edges;
  };

  static constexpr uint32_t kPageBits = 6;
  static constexpr uint32_t kPageSize = 1u << kPageBits;
  static constexpr uint32_t kPageMask = kPageSize - 1;

  /// One printable label's value -> node id index is split into this
  /// many hash shards, each shared copy-on-write, so a new printable
  /// clones 1/kPrintShards of its label's index.
  static constexpr size_t kPrintShards = 256;
  using PrintShard = std::unordered_map<Value, uint32_t>;
  using PrintShards = std::array<CowPtr<PrintShard>, kPrintShards>;

  /// The journal attachment, with the copy and move rules documented on
  /// Instance's special members: a copy starts detached, a move
  /// transfers the pointer and detaches the source. Keeping the rule in
  /// this member lets Instance default its special members, so every
  /// other field is copied and moved without being listed.
  struct JournalLink {
    UndoJournal* ptr = nullptr;

    JournalLink() = default;
    JournalLink(const JournalLink&) {}
    JournalLink& operator=(const JournalLink& other) {
      if (this != &other) ptr = nullptr;
      return *this;
    }
    JournalLink(JournalLink&& other) noexcept
        : ptr(std::exchange(other.ptr, nullptr)) {}
    JournalLink& operator=(JournalLink&& other) noexcept {
      ptr = std::exchange(other.ptr, nullptr);
      return *this;
    }
  };

  const Page& PageOf(NodeId node) const {
    return *pages_[node.id >> kPageBits];
  }
  const NodeRep& Rep(NodeId node) const {
    return PageOf(node).nodes[node.id & kPageMask];
  }
  /// The page holding `node`, cloned first iff another instance shares
  /// it. Every write to a page goes through here (or AppendRep).
  Page& MutablePage(NodeId node) {
    return pages_[node.id >> kPageBits].Mutable();
  }
  NodeRep& MutableRep(NodeId node) {
    return MutablePage(node).nodes[node.id & kPageMask];
  }
  /// Appends `rep` at the allocation frontier, opening a page when the
  /// tail page is full.
  void AppendRep(NodeRep rep);

  /// Adds/removes `node` in its page's label list and the label count.
  void IndexLabel(NodeId node, Symbol label);
  void UnindexLabel(NodeId node, Symbol label);
  /// The shard of `label`'s printable index that holds `value`; null
  /// when the shard was never written.
  const PrintShard* FindPrintShard(Symbol label, const Value& value) const;
  PrintShard& MutablePrintShard(Symbol label, const Value& value);

  NodeId NewNode(Symbol label, std::optional<Value> print);
  /// Marks an alive node dead and drops it from the label and printable
  /// indexes; its rep (label, print value) stays for a journaled revive.
  void KillNode(NodeId node);

  /// Draws the next process-globally unique stats epoch.
  static uint64_t NextStatsEpoch();
  void BumpStatsEpoch() { stats_epoch_ = NextStatsEpoch(); }
  /// Marks class `label`'s partition as needing a rewrite.
  void MarkClassDirty(Symbol label) { dirty_classes_.insert(label); }
  /// Key for the degree-sum maps: (edge label, endpoint label).
  static uint64_t StatsKey(Symbol edge_label, Symbol endpoint_label) {
    return (static_cast<uint64_t>(edge_label.id) << 32) | endpoint_label.id;
  }
  void NoteEdgeAddedStats(Symbol edge_label, Symbol source_label,
                          Symbol target_label);
  void NoteEdgeRemovedStats(Symbol edge_label, Symbol source_label,
                            Symbol target_label);

  // Never null: AppendRep allocates each page as it opens it.
  std::vector<CowPtr<Page>> pages_;
  size_t num_alive_ = 0;
  size_t num_edges_ = 0;
  // Cardinality statistics (see the accessor block above). Zero-valued
  // entries are erased so the maps' supports stay exact.
  std::unordered_map<Symbol, size_t> edge_label_count_;
  std::unordered_map<uint64_t, size_t> out_degree_sum_;
  std::unordered_map<uint64_t, size_t> in_degree_sum_;
  uint64_t stats_epoch_ = 0;
  // Classes whose partition content changed since the last checkpoint
  // (see the dirty-class accessor block above).
  std::unordered_set<Symbol> dirty_classes_;
  // Label -> number of alive nodes carrying it; zero entries erased.
  std::unordered_map<Symbol, size_t> label_count_;
  // Printable label -> value -> node id, sharded (see PrintShards).
  std::unordered_map<Symbol, PrintShards> printable_index_;
  // Inverse-mutation recorder; nullptr outside transactions. Not owned.
  JournalLink journal_;
};

}  // namespace good::graph

namespace std {
template <>
struct hash<good::graph::NodeId> {
  size_t operator()(good::graph::NodeId n) const {
    return std::hash<uint32_t>{}(n.id);
  }
};
}  // namespace std

#endif  // GOOD_GRAPH_INSTANCE_H_
