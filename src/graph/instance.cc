#include "graph/instance.h"

#include <algorithm>
#include <atomic>
#include <sstream>

#include "graph/undo_journal.h"

namespace good::graph {

uint64_t Instance::NextStatsEpoch() {
  // Process-wide: epochs are unique across ALL instances, so a plan
  // cached under (pattern, epoch) can never be confused between two
  // independently mutated instances. Copies share the source's epoch —
  // legitimately, since they share its exact statistics. Epoch 0 is
  // reserved for never-mutated instances.
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Instance::NoteEdgeAddedStats(Symbol edge_label, Symbol source_label,
                                  Symbol target_label) {
  ++edge_label_count_[edge_label];
  ++out_degree_sum_[StatsKey(edge_label, source_label)];
  ++in_degree_sum_[StatsKey(edge_label, target_label)];
}

void Instance::NoteEdgeRemovedStats(Symbol edge_label, Symbol source_label,
                                    Symbol target_label) {
  auto decrement = [](auto* map, const auto& key) {
    auto it = map->find(key);
    if (--it->second == 0) map->erase(it);
  };
  decrement(&edge_label_count_, edge_label);
  decrement(&out_degree_sum_, StatsKey(edge_label, source_label));
  decrement(&in_degree_sum_, StatsKey(edge_label, target_label));
}

void Instance::AppendRep(NodeRep rep) {
  if (pages_.empty() || pages_.back()->nodes.size() == kPageSize) {
    pages_.emplace_back();
  }
  pages_.back().Mutable().nodes.push_back(std::move(rep));
}

void Instance::IndexLabel(NodeId node, Symbol label) {
  Page& page = MutablePage(node);
  auto entry = std::find_if(page.by_label.begin(), page.by_label.end(),
                            [&](const auto& e) { return e.first == label; });
  if (entry == page.by_label.end()) {
    page.by_label.emplace_back(label, std::vector<uint32_t>{node.id});
  } else {
    // New nodes land at the tail; only a revived node goes mid-list.
    auto& ids = entry->second;
    ids.insert(std::lower_bound(ids.begin(), ids.end(), node.id), node.id);
  }
  ++label_count_[label];
}

void Instance::UnindexLabel(NodeId node, Symbol label) {
  Page& page = MutablePage(node);
  auto entry = std::find_if(page.by_label.begin(), page.by_label.end(),
                            [&](const auto& e) { return e.first == label; });
  auto& ids = entry->second;
  ids.erase(std::lower_bound(ids.begin(), ids.end(), node.id));
  if (ids.empty()) page.by_label.erase(entry);
  auto count = label_count_.find(label);
  if (--count->second == 0) label_count_.erase(count);
}

const Instance::PrintShard* Instance::FindPrintShard(Symbol label,
                                                     const Value& value) const {
  auto it = printable_index_.find(label);
  if (it == printable_index_.end()) return nullptr;
  const CowPtr<PrintShard>& shard = it->second[value.Hash() % kPrintShards];
  return shard ? &*shard : nullptr;
}

Instance::PrintShard& Instance::MutablePrintShard(Symbol label,
                                                  const Value& value) {
  return printable_index_[label][value.Hash() % kPrintShards].Mutable();
}

NodeId Instance::NewNode(Symbol label, std::optional<Value> print) {
  NodeId id{static_cast<uint32_t>(NodeFrontier())};
  AppendRep(NodeRep{label, std::move(print), true, {}, {}});
  ++num_alive_;
  IndexLabel(id, label);
  BumpStatsEpoch();
  MarkClassDirty(label);
  if (journal_.ptr != nullptr) journal_.ptr->RecordNodeAdded(id);
  return id;
}

Result<NodeId> Instance::AddObjectNode(const schema::Scheme& scheme,
                                       Symbol label) {
  if (!scheme.IsObjectLabel(label)) {
    return Status::InvalidArgument("'" + SymName(label) +
                                   "' is not an object label of the scheme");
  }
  return NewNode(label, std::nullopt);
}

Result<NodeId> Instance::AddPrintableNode(const schema::Scheme& scheme,
                                          Symbol label, Value value) {
  GOOD_ASSIGN_OR_RETURN(ValueKind domain, scheme.DomainOf(label));
  if (value.kind() != domain) {
    return Status::InvalidArgument(
        "value " + value.ToString() + " has kind " +
        std::string(ValueKindToString(value.kind())) + " but domain of '" +
        SymName(label) + "' is " + std::string(ValueKindToString(domain)));
  }
  if (std::optional<NodeId> found = FindPrintable(label, value)) {
    return *found;
  }
  NodeId id = NewNode(label, value);
  MutablePrintShard(label, value).emplace(std::move(value), id.id);
  return id;
}

Result<NodeId> Instance::AddValuelessPrintableNode(
    const schema::Scheme& scheme, Symbol label) {
  if (!scheme.IsPrintableLabel(label)) {
    return Status::InvalidArgument(
        "'" + SymName(label) + "' is not a printable label of the scheme");
  }
  return NewNode(label, std::nullopt);
}

Result<NodeId> Instance::RestoreNodeAt(const schema::Scheme& scheme,
                                       NodeId id, Symbol label,
                                       std::optional<Value> print) {
  if (id.id < NodeFrontier()) {
    return Status::InvalidArgument(
        "node #" + std::to_string(id.id) +
        " is below the allocation frontier (" +
        std::to_string(NodeFrontier()) +
        ") — restore ids must be new and ascending");
  }
  if (print.has_value()) {
    GOOD_ASSIGN_OR_RETURN(ValueKind domain, scheme.DomainOf(label));
    if (print->kind() != domain) {
      return Status::InvalidArgument(
          "value " + print->ToString() + " has kind " +
          std::string(ValueKindToString(print->kind())) + " but domain of '" +
          SymName(label) + "' is " + std::string(ValueKindToString(domain)));
    }
    if (FindPrintable(label, *print).has_value()) {
      return Status::InvalidArgument("printable (" + SymName(label) + ", " +
                                     print->ToString() +
                                     ") restored twice");
    }
  } else if (!scheme.IsObjectLabel(label) &&
             !scheme.IsPrintableLabel(label)) {
    return Status::InvalidArgument("'" + SymName(label) +
                                   "' is not a label of the scheme");
  }
  // Dead filler: invisible to every query (HasNode checks alive), never
  // revived (the undo journal only records nodes that were once alive).
  ReserveNodeFrontier(id.id);
  std::optional<Value> dedup_key = print;
  NodeId got = NewNode(label, std::move(print));
  if (dedup_key.has_value()) {
    MutablePrintShard(label, *dedup_key).emplace(std::move(*dedup_key),
                                                 got.id);
  }
  return got;
}

void Instance::ReserveNodeFrontier(size_t frontier) {
  while (NodeFrontier() < frontier) {
    AppendRep(NodeRep{Symbol{}, std::nullopt, false, {}, {}});
  }
}

namespace {

/// Removes the first occurrence of `value` from `vec` (order-preserving).
void EraseFirst(std::vector<NodeId>* vec, NodeId value) {
  auto it = std::find(vec->begin(), vec->end(), value);
  if (it != vec->end()) vec->erase(it);
}

}  // namespace

void Instance::KillNode(NodeId node) {
  NodeRep& rep = MutableRep(node);
  rep.alive = false;
  --num_alive_;
  UnindexLabel(node, rep.label);
  if (rep.print.has_value()) {
    MutablePrintShard(rep.label, *rep.print).erase(*rep.print);
  }
  BumpStatsEpoch();
  MarkClassDirty(rep.label);
}

Status Instance::RemoveNode(NodeId node) {
  if (!HasNode(node)) {
    return Status::NotFound("node #" + std::to_string(node.id) +
                            " does not exist");
  }
  if (journal_.ptr != nullptr) {
    // Journaled path: detach each incident edge through RemoveEdge so
    // its exact list positions are recorded, then kill the node. The
    // edges are copied out of the views because RemoveEdge mutates the
    // lists behind them; a self-loop appears in both copies, and its
    // second removal is an idempotent no-op. The rep keeps its label
    // and print value (the kill-undo revives them in place) and its
    // emptied per-label entries — both invisible to every query.
    const OutEdgeView out_view = OutEdges(node);
    const InEdgeView in_view = InEdges(node);
    const std::vector<std::pair<Symbol, NodeId>> out(out_view.begin(),
                                                     out_view.end());
    const std::vector<std::pair<NodeId, Symbol>> in(in_view.begin(),
                                                    in_view.end());
    for (const auto& [label, target] : out) {
      GOOD_RETURN_NOT_OK(RemoveEdge(node, label, target));
    }
    for (const auto& [source, label] : in) {
      GOOD_RETURN_NOT_OK(RemoveEdge(source, label, node));
    }
    KillNode(node);
    journal_.ptr->RecordNodeKilled(node);
    return Status::OK();
  }
  // The node's own page is made unshared first, so the views below
  // point into the page the loops write to (a neighbour on the same
  // page then finds it already unshared and never re-clones it).
  Page& page = MutablePage(node);
  NodeRep& rep = page.nodes[node.id & kPageMask];
  // Detach incident edges from the neighbours' mirror lists. A self-loop
  // is removed here (it appears in the node's out-edges); the second
  // loop only sees the in-edges that survive this one.
  for (const auto& [label, target] : OutEdges(node)) {
    Page& target_page = MutablePage(target);
    EraseFirst(&target_page.nodes[target.id & kPageMask].in_by_label[label],
               node);
    page.edges.erase(Edge{node, label, target});
    --num_edges_;
    NoteEdgeRemovedStats(label, rep.label, LabelOf(target));
  }
  for (const auto& [source, label] : InEdges(node)) {
    Page& source_page = MutablePage(source);
    EraseFirst(&source_page.nodes[source.id & kPageMask].out_by_label[label],
               node);
    source_page.edges.erase(Edge{source, label, node});
    --num_edges_;
    NoteEdgeRemovedStats(label, LabelOf(source), rep.label);
    // The detached in-edge lived in the *source's* partition.
    MarkClassDirty(LabelOf(source));
  }
  rep.out_by_label.clear();
  rep.in_by_label.clear();
  KillNode(node);
  return Status::OK();
}

Status Instance::AddEdge(const schema::Scheme& scheme, NodeId source,
                         Symbol label, NodeId target) {
  if (!HasNode(source) || !HasNode(target)) {
    return Status::NotFound("edge endpoint does not exist");
  }
  const Symbol source_label = LabelOf(source);
  const Symbol target_label = LabelOf(target);
  if (!scheme.HasTriple(source_label, label, target_label)) {
    return Status::InvalidArgument(
        "scheme has no triple (" + SymName(source_label) + ", " +
        SymName(label) + ", " + SymName(target_label) + ")");
  }
  if (HasEdge(source, label, target)) return Status::OK();  // Idempotent.
  const auto& out_same_label = OutTargets(source, label);
  if (!out_same_label.empty()) {
    if (scheme.IsFunctionalEdgeLabel(label)) {
      return Status::FailedPrecondition(
          "functional edge conflict: node #" + std::to_string(source.id) +
          " already has a '" + SymName(label) + "' edge to a different node");
    }
    if (LabelOf(out_same_label.front()) != target_label) {
      return Status::FailedPrecondition(
          "successor-label conflict: '" + SymName(label) +
          "' successors of node #" + std::to_string(source.id) +
          " would have unequal labels");
    }
  }
  const bool fresh_out_entry = journal_.ptr != nullptr &&
                               Rep(source).out_by_label.Find(label) == nullptr;
  const bool fresh_in_entry = journal_.ptr != nullptr &&
                              Rep(target).in_by_label.Find(label) == nullptr;
  Page& source_page = MutablePage(source);
  source_page.nodes[source.id & kPageMask].out_by_label[label].push_back(
      target);
  source_page.edges.insert(Edge{source, label, target});
  MutableRep(target).in_by_label[label].push_back(source);
  ++num_edges_;
  NoteEdgeAddedStats(label, source_label, target_label);
  BumpStatsEpoch();
  MarkClassDirty(source_label);
  if (journal_.ptr != nullptr) {
    journal_.ptr->RecordEdgeAdded(source, label, target, fresh_out_entry,
                                  fresh_in_entry);
  }
  return Status::OK();
}

Status Instance::RemoveEdge(NodeId source, Symbol label, NodeId target) {
  // An edge in the set has two alive endpoints.
  if (!HasEdge(source, label, target)) return Status::OK();
  // Each erase records the position it vacates; the journal's undo
  // re-inserts there, so list orderings survive a rollback exactly.
  // (Edges are sets, so every find hits the unique occurrence.)
  Page& source_page = MutablePage(source);
  source_page.edges.erase(Edge{source, label, target});
  auto& out_list =
      source_page.nodes[source.id & kPageMask].out_by_label[label];
  auto olit = std::find(out_list.begin(), out_list.end(), target);
  const auto out_label_pos = static_cast<uint32_t>(olit - out_list.begin());
  out_list.erase(olit);
  auto& in_list = MutableRep(target).in_by_label[label];
  auto ilit = std::find(in_list.begin(), in_list.end(), source);
  const auto in_label_pos = static_cast<uint32_t>(ilit - in_list.begin());
  in_list.erase(ilit);
  --num_edges_;
  NoteEdgeRemovedStats(label, LabelOf(source), LabelOf(target));
  BumpStatsEpoch();
  MarkClassDirty(LabelOf(source));
  if (journal_.ptr != nullptr) {
    journal_.ptr->RecordEdgeRemoved(source, label, target, out_label_pos,
                                    in_label_pos);
  }
  return Status::OK();
}

std::vector<NodeId> Instance::NodesWithLabel(Symbol label) const {
  std::vector<NodeId> out;
  out.reserve(CountNodesWithLabel(label));
  ForEachNodeWithLabel(label, [&out](NodeId n) {
    out.push_back(n);
    return true;
  });
  return out;
}

size_t Instance::CountNodesWithLabel(Symbol label) const {
  auto it = label_count_.find(label);
  return it == label_count_.end() ? 0 : it->second;
}

size_t Instance::CountEdgesWithLabel(Symbol label) const {
  auto it = edge_label_count_.find(label);
  return it == edge_label_count_.end() ? 0 : it->second;
}

size_t Instance::OutDegreeSum(Symbol source_label, Symbol edge_label) const {
  auto it = out_degree_sum_.find(StatsKey(edge_label, source_label));
  return it == out_degree_sum_.end() ? 0 : it->second;
}

size_t Instance::InDegreeSum(Symbol target_label, Symbol edge_label) const {
  auto it = in_degree_sum_.find(StatsKey(edge_label, target_label));
  return it == in_degree_sum_.end() ? 0 : it->second;
}

double Instance::AvgOutFanout(Symbol source_label, Symbol edge_label) const {
  const size_t count = CountNodesWithLabel(source_label);
  if (count == 0) return 0.0;
  return static_cast<double>(OutDegreeSum(source_label, edge_label)) /
         static_cast<double>(count);
}

double Instance::AvgInFanout(Symbol target_label, Symbol edge_label) const {
  const size_t count = CountNodesWithLabel(target_label);
  if (count == 0) return 0.0;
  return static_cast<double>(InDegreeSum(target_label, edge_label)) /
         static_cast<double>(count);
}

std::optional<NodeId> Instance::FindPrintable(Symbol label,
                                              const Value& value) const {
  const PrintShard* shard = FindPrintShard(label, value);
  if (shard == nullptr) return std::nullopt;
  auto it = shard->find(value);
  if (it == shard->end()) return std::nullopt;
  return NodeId{it->second};
}

std::vector<NodeId> Instance::AllNodes() const {
  std::vector<NodeId> out;
  out.reserve(num_alive_);
  const auto frontier = static_cast<uint32_t>(NodeFrontier());
  for (uint32_t i = 0; i < frontier; ++i) {
    if (Rep(NodeId{i}).alive) out.push_back(NodeId{i});
  }
  return out;
}

namespace {

const std::vector<NodeId>& EmptyAdjacency() {
  static const std::vector<NodeId>* empty = new std::vector<NodeId>();
  return *empty;
}

}  // namespace

const std::vector<NodeId>& Instance::OutTargets(NodeId node,
                                                Symbol label) const {
  const auto* found = Rep(node).out_by_label.Find(label);
  return found != nullptr ? *found : EmptyAdjacency();
}

std::optional<NodeId> Instance::FunctionalTarget(NodeId node,
                                                 Symbol label) const {
  const auto& targets = OutTargets(node, label);
  if (targets.empty()) return std::nullopt;
  return targets.front();
}

const std::vector<NodeId>& Instance::InSources(NodeId node,
                                               Symbol label) const {
  const auto* found = Rep(node).in_by_label.Find(label);
  return found != nullptr ? *found : EmptyAdjacency();
}

std::vector<Edge> Instance::AllEdges() const {
  std::vector<Edge> out;
  out.reserve(num_edges_);
  for (NodeId node : AllNodes()) {
    for (const auto& [label, target] : OutEdges(node)) {
      out.push_back(Edge{node, label, target});
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status Instance::Validate(const schema::Scheme& scheme) const {
  // One pass over the alive nodes checks each node and its out-edges
  // and takes the censuses the whole-instance checks below compare
  // against: printable nodes per label, adjacency entries per
  // direction, and the cardinality statistics.
  std::unordered_map<Symbol, size_t> printable_census;
  size_t out_entries = 0;
  size_t in_entries = 0;
  std::unordered_map<Symbol, size_t> edge_label_census;
  std::unordered_map<uint64_t, size_t> out_sum_census, in_sum_census;
  for (NodeId node : AllNodes()) {
    const NodeRep& rep = Rep(node);
    const std::string node_name = "node #" + std::to_string(node.id);
    if (!scheme.IsNodeLabel(rep.label)) {
      return Status::Internal(node_name + " label '" + SymName(rep.label) +
                              "' not a node label of the scheme");
    }
    if (scheme.IsPrintableLabel(rep.label)) {
      if (rep.print.has_value()) {
        auto domain = scheme.DomainOf(rep.label);
        GOOD_RETURN_NOT_OK(domain.status());
        if (rep.print->kind() != *domain) {
          return Status::Internal(node_name + " print value outside domain");
        }
        ++printable_census[rep.label];
      }
    } else if (rep.print.has_value()) {
      return Status::Internal(node_name + " is an object but has a print value");
    }
    // Edge typing, functional uniqueness, equal successor labels, and
    // agreement of the out-entry with the edge set and the target's
    // in-list.
    std::unordered_map<Symbol, Symbol> successor_label;
    std::unordered_map<Symbol, int> functional_count;
    for (const auto& [label, target] : OutEdges(node)) {
      if (!HasNode(target)) {
        return Status::Internal(node_name + " has an edge to a dead node");
      }
      if (!scheme.HasTriple(rep.label, label, LabelOf(target))) {
        return Status::Internal(node_name + " edge '" + SymName(label) +
                                "' not licensed by scheme");
      }
      auto [it, inserted] = successor_label.emplace(label, LabelOf(target));
      if (!inserted && it->second != LabelOf(target)) {
        return Status::Internal(node_name + " has '" + SymName(label) +
                                "' successors with unequal labels");
      }
      if (scheme.IsFunctionalEdgeLabel(label) &&
          ++functional_count[label] > 1) {
        return Status::Internal(node_name + " has multiple functional '" +
                                SymName(label) + "' edges");
      }
      if (!HasEdge(node, label, target)) {
        return Status::Internal(node_name + " edge missing from edge set");
      }
      const auto& sources = InSources(target, label);
      if (std::find(sources.begin(), sources.end(), node) == sources.end()) {
        return Status::Internal(node_name +
                                " edge missing from the target's in-list");
      }
      ++out_entries;
      ++edge_label_census[label];
      ++out_sum_census[StatsKey(label, rep.label)];
      ++in_sum_census[StatsKey(label, LabelOf(target))];
    }
    in_entries += InEdges(node).size();
  }
  // Printable dedup: every index entry names an alive node carrying
  // exactly that (label, value), sits in the shard its value hashes
  // to, and the entries per label match the census.
  for (const auto& [label, shards] : printable_index_) {
    size_t indexed = 0;
    for (size_t i = 0; i < kPrintShards; ++i) {
      if (!shards[i]) continue;
      for (const auto& [value, id] : *shards[i]) {
        const NodeId node{id};
        if (!HasNode(node) || LabelOf(node) != label ||
            PrintValueOf(node) != value || value.Hash() % kPrintShards != i) {
          return Status::Internal("printable index entry for '" +
                                  SymName(label) +
                                  "' names a dead, relabeled or misfiled node");
        }
        ++indexed;
      }
    }
    auto census = printable_census.find(label);
    if (indexed != (census == printable_census.end() ? 0 : census->second)) {
      return Status::Internal("duplicate printable nodes for label '" +
                              SymName(label) + "'");
    }
    printable_census.erase(label);
  }
  if (!printable_census.empty()) {
    return Status::Internal("printable node missing from the printable index");
  }
  // Every out-entry sits in its page's edge set and has its in-list
  // mirror; equal totals then rule out duplicate and stale entries on
  // either side. The page walk also checks the page layout (only the
  // tail page is short) and the per-page label lists, which must
  // mirror the node census exactly.
  size_t shard_edges = 0;
  size_t indexed_nodes = 0;
  std::unordered_map<Symbol, size_t> label_census;
  for (size_t p = 0; p < pages_.size(); ++p) {
    const Page& page = *pages_[p];
    if (page.nodes.empty() ||
        (p + 1 < pages_.size() && page.nodes.size() != kPageSize)) {
      return Status::Internal("page " + std::to_string(p) +
                              " is short but not the tail page");
    }
    for (const Edge& edge : page.edges) {
      if ((edge.source.id >> kPageBits) != p) {
        return Status::Internal("edge filed on a page its source is not on");
      }
    }
    shard_edges += page.edges.size();
    for (const auto& [label, ids] : page.by_label) {
      if (ids.empty() || !std::is_sorted(ids.begin(), ids.end()) ||
          std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
        return Status::Internal("label list for '" + SymName(label) +
                                "' is empty or out of order");
      }
      for (uint32_t id : ids) {
        if ((id >> kPageBits) != p || !HasNode(NodeId{id}) ||
            LabelOf(NodeId{id}) != label) {
          return Status::Internal("label index entry for '" + SymName(label) +
                                  "' names a dead or relabeled node");
        }
      }
      indexed_nodes += ids.size();
      label_census[label] += ids.size();
    }
  }
  if (out_entries != num_edges_ || in_entries != num_edges_ ||
      shard_edges != num_edges_) {
    return Status::Internal("edge count disagrees with edge set");
  }
  if (indexed_nodes != num_alive_) {
    return Status::Internal("label index size disagrees with alive count");
  }
  // Cardinality statistics (the cost planner's inputs) must mirror the
  // from-scratch edge census exactly — a missed maintenance hook on any
  // mutation path fails loudly here instead of silently skewing plans.
  auto same_counts = [](const auto& stored, const auto& census) {
    // Zero-valued stats entries are erased, so equal supports + equal
    // values means exact agreement.
    if (stored.size() != census.size()) return false;
    for (const auto& [key, count] : census) {
      auto it = stored.find(key);
      if (it == stored.end() || it->second != count) return false;
    }
    return true;
  };
  if (!same_counts(label_count_, label_census)) {
    return Status::Internal("label counts drifted from the label index");
  }
  if (!same_counts(edge_label_count_, edge_label_census)) {
    return Status::Internal("edge-label count stats drifted from edge census");
  }
  if (!same_counts(out_degree_sum_, out_sum_census)) {
    return Status::Internal("out-degree sum stats drifted from edge census");
  }
  if (!same_counts(in_degree_sum_, in_sum_census)) {
    return Status::Internal("in-degree sum stats drifted from edge census");
  }
  return Status::OK();
}

namespace {

std::string NodeSig(const Instance& instance, NodeId node) {
  std::string sig = SymName(instance.LabelOf(node));
  const auto& print = instance.PrintValueOf(node);
  if (print.has_value()) {
    sig += "=";
    sig += print->ToString();
  }
  return sig;
}

}  // namespace

std::string Instance::Fingerprint() const {
  std::vector<std::string> node_sigs;
  std::vector<std::string> edge_sigs;
  for (NodeId node : AllNodes()) {
    node_sigs.push_back(NodeSig(*this, node));
    for (const auto& [label, target] : OutEdges(node)) {
      edge_sigs.push_back(NodeSig(*this, node) + " -" + SymName(label) +
                          "-> " + NodeSig(*this, target));
    }
  }
  std::sort(node_sigs.begin(), node_sigs.end());
  std::sort(edge_sigs.begin(), edge_sigs.end());
  std::ostringstream os;
  os << "nodes{";
  for (const auto& s : node_sigs) os << s << "; ";
  os << "} edges{";
  for (const auto& s : edge_sigs) os << s << "; ";
  os << "}";
  return os.str();
}

std::string Instance::ToString() const {
  std::ostringstream os;
  os << "Instance(" << num_alive_ << " nodes, " << num_edges_ << " edges)\n";
  for (NodeId node : AllNodes()) {
    os << "  #" << node.id << " " << NodeSig(*this, node) << "\n";
    for (const auto& [label, target] : OutEdges(node)) {
      os << "    -" << SymName(label) << "-> #" << target.id << " "
         << NodeSig(*this, target) << "\n";
    }
  }
  return os.str();
}

}  // namespace good::graph
