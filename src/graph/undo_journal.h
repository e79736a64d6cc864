/// \file undo_journal.h
/// \brief Inverse-mutation journaling for exact instance rollback.
///
/// GOOD makes failure atomicity unusually tractable: every instance
/// mutation decomposes into four micro-mutations — node added, node
/// killed, edge added, edge removed — and each has an exact inverse.
/// An UndoJournal attached to an Instance (Instance::AttachJournal)
/// records one entry per micro-mutation *at the moment it happens*, so
/// every positional detail (where an edge sat in its adjacency lists,
/// whether a per-label index entry was freshly created) is captured
/// while it is still valid. RollbackTo replays the entries in strict
/// reverse order; by induction each undo runs against exactly the state
/// its mutation produced, so the instance is restored byte-for-byte:
/// the same node ids, the same edge-list orderings, the same index
/// shapes. That exactness is what lets a failed operation inside a
/// larger program roll back without perturbing the deterministic ids
/// and orderings later operations depend on.
///
/// Entry marks (Position()) give savepoints for free: a nested scope
/// remembers the journal length at entry and rolls back only its own
/// suffix, leaving the enclosing scope's entries intact (see
/// ops/transaction.h).
///
/// The journal is deliberately not thread-safe: mutation of an Instance
/// is single-threaded by design (only matching parallelizes), so the
/// journal inherits that discipline.

#ifndef GOOD_GRAPH_UNDO_JOURNAL_H_
#define GOOD_GRAPH_UNDO_JOURNAL_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/instance.h"

namespace good::graph {

/// \brief A log of inverse micro-mutations for one Instance.
class UndoJournal {
 public:
  /// A savepoint: the journal length at some moment. RollbackTo(mark)
  /// undoes everything recorded after it.
  using Mark = size_t;

  UndoJournal() = default;
  UndoJournal(const UndoJournal&) = delete;
  UndoJournal& operator=(const UndoJournal&) = delete;

  Mark Position() const { return entries_.size(); }
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  /// Undoes all entries recorded after `mark`, newest first, restoring
  /// `instance` to its exact state at the time of the mark. The
  /// instance must be the one the entries were recorded against and
  /// must not have been mutated outside the journal since.
  void RollbackTo(Instance* instance, Mark mark);

  /// Undoes everything.
  void Rollback(Instance* instance) { RollbackTo(instance, 0); }

  /// Forgets all entries (after a successful commit).
  void Clear() { entries_.clear(); }

  /// Visits what the journaled region touched, entry by entry in
  /// recording order: `node_fn` once per node added (`added`=true) or
  /// killed (`added`=false), `edge_fn` once per edge added or removed.
  /// This is the write footprint a transaction exposes for
  /// optimistic-concurrency conflict checks (ops/footprint.h);
  /// positional undo details stay private. Because an edge can only be
  /// recorded after both endpoints exist, a kNodeAdded entry always
  /// precedes every edge entry touching that node — consumers may
  /// build a created-node set in the same single pass.
  void ForEachTouched(
      const std::function<void(NodeId, bool added)>& node_fn,
      const std::function<void(NodeId, Symbol, NodeId, bool added)>& edge_fn)
      const {
    ForEachTouchedSince(0, node_fn, edge_fn);
  }

  /// ForEachTouched restricted to the entries recorded after `mark` —
  /// the write footprint of a journal *window*. This is how the
  /// semi-naive rule engine reads the delta of a fixpoint round: the
  /// mark taken before a rule's evaluation bounds exactly what later
  /// mutations (its own and other rules') it has not yet seen. A
  /// rollback truncates the suffix, so entries from rolled-back rounds
  /// never leak into a window.
  void ForEachTouchedSince(
      Mark mark, const std::function<void(NodeId, bool added)>& node_fn,
      const std::function<void(NodeId, Symbol, NodeId, bool added)>& edge_fn)
      const {
    for (size_t i = mark; i < entries_.size(); ++i) {
      const Entry& entry = entries_[i];
      switch (entry.kind) {
        case Kind::kNodeAdded:
          node_fn(entry.node, true);
          break;
        case Kind::kNodeKilled:
          node_fn(entry.node, false);
          break;
        case Kind::kEdgeAdded:
          edge_fn(entry.node, entry.label, entry.target, true);
          break;
        case Kind::kEdgeRemoved:
          edge_fn(entry.node, entry.label, entry.target, false);
          break;
      }
    }
  }

 private:
  friend class Instance;

  enum class Kind : uint8_t {
    kNodeAdded,    // Undo: pop the node (it is the allocation tail).
    kNodeKilled,   // Undo: revive the node and its index entries.
    kEdgeAdded,    // Undo: pop the edge off both per-label list tails.
    kEdgeRemoved,  // Undo: positional re-insert into both per-label lists.
  };

  struct Entry {
    Kind kind;
    NodeId node;    // The node, or the edge source.
    Symbol label;   // Edge label (edge entries only).
    NodeId target;  // Edge target (edge entries only).
    // kEdgeRemoved: positions the edge occupied at removal time in the
    // source's and the target's per-label lists.
    uint32_t out_label_pos = 0;
    uint32_t in_label_pos = 0;
    // kEdgeAdded: whether the add created the per-label index entry.
    bool fresh_out_entry = false;
    bool fresh_in_entry = false;
  };

  void RecordNodeAdded(NodeId node) {
    entries_.push_back(Entry{Kind::kNodeAdded, node, Symbol{}, NodeId{},
                             0, 0, false, false});
  }
  void RecordNodeKilled(NodeId node) {
    entries_.push_back(Entry{Kind::kNodeKilled, node, Symbol{}, NodeId{},
                             0, 0, false, false});
  }
  void RecordEdgeAdded(NodeId source, Symbol label, NodeId target,
                       bool fresh_out_entry, bool fresh_in_entry) {
    entries_.push_back(Entry{Kind::kEdgeAdded, source, label, target,
                             0, 0, fresh_out_entry, fresh_in_entry});
  }
  void RecordEdgeRemoved(NodeId source, Symbol label, NodeId target,
                         uint32_t out_label_pos, uint32_t in_label_pos) {
    entries_.push_back(Entry{Kind::kEdgeRemoved, source, label, target,
                             out_label_pos, in_label_pos, false, false});
  }

  std::vector<Entry> entries_;
};

}  // namespace good::graph

#endif  // GOOD_GRAPH_UNDO_JOURNAL_H_
