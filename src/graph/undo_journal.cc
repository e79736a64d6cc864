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
  // spurious dirty mark only costs one extra partition rewrite. Every
  // undo writes through Instance::MutablePage, so rolling back an
  // instance never disturbs the copies it shares pages with.
  while (entries_.size() > mark) {
    const Entry e = entries_.back();
    entries_.pop_back();
    switch (e.kind) {
      case Kind::kNodeAdded: {
        // Node ids are allocated densely at the frontier, and reverse
        // replay reaches adds last-first, so the node being undone is
        // always the allocation tail — popping it restores the id
        // allocator too. A page the pop empties is dropped, so only the
        // tail page is ever short.
        const size_t frontier = instance->NodeFrontier();
        if (frontier == 0 || e.node.id != frontier - 1) {
          AbortCorruptJournal("node-add undo target is not the tail node");
        }
        instance->KillNode(e.node);
        Instance::Page& page = instance->MutablePage(e.node);
        page.nodes.pop_back();
        if (page.nodes.empty()) instance->pages_.pop_back();
        break;
      }
      case Kind::kNodeKilled: {
        // The kill left the rep in place (label, print value, emptied
        // adjacency) — revive it and restore its index entries. Edges
        // were removed (and journaled) individually before the kill, so
        // their undos re-attach adjacency afterwards.
        Instance::NodeRep& rep = instance->MutableRep(e.node);
        rep.alive = true;
        ++instance->num_alive_;
        instance->IndexLabel(e.node, rep.label);
        if (rep.print.has_value()) {
          instance->MutablePrintShard(rep.label, *rep.print)
              .emplace(*rep.print, e.node.id);
        }
        instance->BumpStatsEpoch();
        instance->MarkClassDirty(rep.label);
        break;
      }
      case Kind::kEdgeAdded: {
        // The add appended to both lists, so the edge is at both tails.
        instance->MutablePage(e.node).edges.erase(
            Edge{e.node, e.label, e.target});
        auto& out_by_label = instance->MutableRep(e.node).out_by_label;
        if (e.fresh_out_entry) {
          // The add created the per-label entry (at the entries tail).
          out_by_label.entries.pop_back();
        } else {
          out_by_label[e.label].pop_back();
        }
        auto& in_by_label = instance->MutableRep(e.target).in_by_label;
        if (e.fresh_in_entry) {
          in_by_label.entries.pop_back();
        } else {
          in_by_label[e.label].pop_back();
        }
        --instance->num_edges_;
        instance->NoteEdgeRemovedStats(e.label, instance->LabelOf(e.node),
                                       instance->LabelOf(e.target));
        instance->BumpStatsEpoch();
        instance->MarkClassDirty(instance->LabelOf(e.node));
        break;
      }
      case Kind::kEdgeRemoved: {
        // Positional re-insert: the recorded positions are valid
        // because the state now equals the post-removal state.
        instance->MutablePage(e.node).edges.insert(
            Edge{e.node, e.label, e.target});
        auto& out_list = instance->MutableRep(e.node).out_by_label[e.label];
        out_list.insert(out_list.begin() + e.out_label_pos, e.target);
        auto& in_list = instance->MutableRep(e.target).in_by_label[e.label];
        in_list.insert(in_list.begin() + e.in_label_pos, e.node);
        ++instance->num_edges_;
        instance->NoteEdgeAddedStats(e.label, instance->LabelOf(e.node),
                                     instance->LabelOf(e.target));
        instance->BumpStatsEpoch();
        instance->MarkClassDirty(instance->LabelOf(e.node));
        break;
      }
    }
  }
}

}  // namespace good::graph
