#include "graph/undo_journal.h"

#include <cstdio>
#include <cstdlib>

namespace good::graph {

namespace {

[[noreturn]] void AbortCorruptJournal(const char* what) {
  std::fprintf(stderr,
               "UndoJournal::RollbackTo: %s — the instance was mutated "
               "outside the journal\n",
               what);
  std::abort();
}

}  // namespace

void UndoJournal::RollbackTo(Instance* instance, Mark mark) {
  // Strict reverse replay: each undo runs against exactly the state its
  // mutation produced (induction over the suffix), so positional
  // records and tail-pops restore the instance byte-for-byte. Undos are
  // mutations like any other: each maintains the cardinality statistics
  // and stamps a fresh stats epoch, so cached search plans built against
  // the rolled-back state are invalidated (the restored *counters* equal
  // the pre-transaction ones, but the epoch is new — plans are simply
  // recompiled, never wrong). Undos also dirty the touched classes for
  // the partitioned checkpointer: relative to the last checkpoint the
  // on-disk partition may still differ even after a rollback, and a
  // spurious dirty mark only costs one extra partition rewrite.
  while (entries_.size() > mark) {
    const Entry e = entries_.back();
    entries_.pop_back();
    switch (e.kind) {
      case Kind::kNodeAdded: {
        // Node ids are allocated densely (NewNode uses nodes_.size()),
        // and reverse replay reaches adds last-first, so the node being
        // undone is always the allocation tail — popping it restores
        // the id allocator too.
        if (instance->nodes_.empty() ||
            e.node.id != instance->nodes_.size() - 1) {
          AbortCorruptJournal("node-add undo target is not the tail node");
        }
        Instance::NodeRep& rep = instance->nodes_.back();
        instance->label_index_[rep.label].erase(e.node.id);
        if (rep.print.has_value()) {
          instance->printable_index_[rep.label].erase(*rep.print);
        }
        const Symbol undone_label = rep.label;
        instance->nodes_.pop_back();
        --instance->num_alive_;
        instance->BumpStatsEpoch();
        instance->MarkClassDirty(undone_label);
        break;
      }
      case Kind::kNodeKilled: {
        // The kill left the rep in place (label, print value, emptied
        // adjacency) — revive it and restore its index entries. Edges
        // were removed (and journaled) individually before the kill, so
        // their undos re-attach adjacency afterwards.
        Instance::NodeRep& rep = instance->nodes_[e.node.id];
        rep.alive = true;
        ++instance->num_alive_;
        instance->label_index_[rep.label].insert(e.node.id);
        if (rep.print.has_value()) {
          instance->printable_index_[rep.label].emplace(*rep.print,
                                                        e.node.id);
        }
        instance->BumpStatsEpoch();
        instance->MarkClassDirty(rep.label);
        break;
      }
      case Kind::kEdgeAdded: {
        // The add appended to both lists, so the edge is at both tails.
        auto& out_by_label = instance->nodes_[e.node.id].out_by_label;
        if (e.fresh_out_entry) {
          // The add created the per-label entry (at the entries tail).
          out_by_label.entries.pop_back();
        } else {
          out_by_label[e.label].pop_back();
        }
        auto& in_by_label = instance->nodes_[e.target.id].in_by_label;
        if (e.fresh_in_entry) {
          in_by_label.entries.pop_back();
        } else {
          in_by_label[e.label].pop_back();
        }
        instance->edge_set_.erase(Edge{e.node, e.label, e.target});
        --instance->num_edges_;
        instance->NoteEdgeRemovedStats(e.label,
                                       instance->nodes_[e.node.id].label,
                                       instance->nodes_[e.target.id].label);
        instance->BumpStatsEpoch();
        instance->MarkClassDirty(instance->nodes_[e.node.id].label);
        break;
      }
      case Kind::kEdgeRemoved: {
        // Positional re-insert: the recorded positions are valid
        // because the state now equals the post-removal state.
        auto& out_list = instance->nodes_[e.node.id].out_by_label[e.label];
        out_list.insert(out_list.begin() + e.out_label_pos, e.target);
        auto& in_list = instance->nodes_[e.target.id].in_by_label[e.label];
        in_list.insert(in_list.begin() + e.in_label_pos, e.node);
        instance->edge_set_.insert(Edge{e.node, e.label, e.target});
        ++instance->num_edges_;
        instance->NoteEdgeAddedStats(e.label,
                                     instance->nodes_[e.node.id].label,
                                     instance->nodes_[e.target.id].label);
        instance->BumpStatsEpoch();
        instance->MarkClassDirty(instance->nodes_[e.node.id].label);
        break;
      }
    }
  }
}

}  // namespace good::graph
