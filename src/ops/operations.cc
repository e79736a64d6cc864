#include "ops/operations.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

#include "common/hash.h"
#include "ops/transaction.h"

namespace good::ops {

using graph::Instance;
using pattern::Matching;
using schema::Scheme;

namespace {

/// Checks that every pattern node referenced by an operation designator
/// actually belongs to the pattern.
Status RequirePatternNode(const Pattern& pattern, NodeId node,
                          const char* what) {
  if (!pattern.HasNode(node)) {
    return Status::InvalidArgument(std::string(what) +
                                   " does not refer to a node of the "
                                   "source pattern");
  }
  return Status::OK();
}

/// Printable objects are system-given: "printable nodes are
/// system-defined and need not be explicitly added by GOOD
/// transformation language operations" (Section 3.1). The additive
/// operations therefore materialize every value-carrying printable node
/// of their source pattern before matching, so that e.g. the Figure 16
/// update can attach a modified-edge to a date constant that no node in
/// the instance carries yet. (Materialization is idempotent thanks to
/// printable dedup; deletions do NOT materialize — a deletion pattern
/// naming an absent constant simply has no matchings.)
Status MaterializePrintables(const Pattern& pattern,
                             const schema::Scheme& scheme,
                             Instance* instance) {
  for (NodeId m : pattern.AllNodes()) {
    if (!pattern.HasPrintValue(m)) continue;
    GOOD_RETURN_NOT_OK(
        instance->AddPrintableNode(scheme, pattern.LabelOf(m),
                                   *pattern.PrintValueOf(m))
            .status());
  }
  return Status::OK();
}

/// Figure 9's "if not exists": true iff some `label` node k already has
/// FunctionalTarget(k, αᵢ) == key[i] for every bold edge αᵢ of `edges`.
/// Such a k is an α-source of every key node, so it suffices to walk
/// the sources of the key node with the fewest α-in-edges. A K-node
/// created earlier in the same Apply has its edges already, so the
/// probe sees it too.
bool HasKNode(const Instance& instance, Symbol label,
              const std::vector<std::pair<Symbol, NodeId>>& edges,
              const std::vector<NodeId>& key) {
  if (edges.empty()) return instance.CountNodesWithLabel(label) > 0;
  size_t probe = 0;
  for (size_t e = 1; e < edges.size(); ++e) {
    if (instance.InDegree(key[e], edges[e].first) <
        instance.InDegree(key[probe], edges[probe].first)) {
      probe = e;
    }
  }
  for (NodeId k : instance.InSources(key[probe], edges[probe].first)) {
    if (instance.LabelOf(k) != label) continue;
    bool same = true;
    for (size_t e = 0; e < edges.size() && same; ++e) {
      same = instance.FunctionalTarget(k, edges[e].first) == key[e];
    }
    if (same) return true;
  }
  return false;
}

}  // namespace

Result<std::vector<Matching>> PatternOperation::Matchings(
    const Instance& instance, pattern::MatchStats* stats,
    const common::Deadline* deadline) const {
  pattern::MatchOptions options;
  options.stats = stats;
  options.num_threads = num_threads_;
  options.parallel_threshold = parallel_threshold_;
  options.deadline = deadline;
  options.delta = delta_;
  GOOD_ASSIGN_OR_RETURN(
      std::vector<Matching> matchings,
      pattern::Matcher(pattern_, instance, options).FindAllChecked());
  if (filter_) {
    // Explicit loop instead of erase_if: a filter can fail (deadline
    // interrupt inside a negation check), which must abort the whole
    // evaluation rather than silently drop the matching.
    std::vector<Matching> accepted;
    accepted.reserve(matchings.size());
    for (Matching& m : matchings) {
      GOOD_ASSIGN_OR_RETURN(bool keep, filter_(m, instance));
      if (keep) accepted.push_back(std::move(m));
    }
    return accepted;
  }
  return matchings;
}

// ---------------------------------------------------------------------------
// Node addition (Figure 9)
// ---------------------------------------------------------------------------

Status NodeAddition::Apply(Scheme* scheme, Instance* instance,
                           ApplyStats* stats,
                           const common::Deadline* deadline) const {
  if (deadline != nullptr) GOOD_RETURN_NOT_OK(deadline->Check());
  // -- Validation of the designator.
  if (scheme->HasLabel(new_label_) && !scheme->IsObjectLabel(new_label_)) {
    return Status::InvalidArgument(
        "node addition label '" + SymName(new_label_) +
        "' exists with a non-object kind (node additions never introduce "
        "printable nodes)");
  }
  std::unordered_set<Symbol> seen_labels;
  for (const auto& [label, node] : edges_) {
    GOOD_RETURN_NOT_OK(RequirePatternNode(pattern_, node, "bold edge target"));
    if (!seen_labels.insert(label).second) {
      return Status::InvalidArgument(
          "node addition edge labels must be pairwise distinct; '" +
          SymName(label) + "' repeats");
    }
    if (scheme->HasLabel(label) && !scheme->IsFunctionalEdgeLabel(label)) {
      return Status::InvalidArgument(
          "node addition edge label '" + SymName(label) +
          "' exists with a non-functional kind (node additions only "
          "introduce functional edges)");
    }
  }

  // -- Matchings against the pre-state (with system-given printables
  //    materialized). From here on mutations occur, so the transaction
  //    scope makes any failure roll the database back whole.
  Transaction txn(scheme, instance);
  GOOD_RETURN_NOT_OK(MaterializePrintables(pattern_, *scheme, instance));
  ApplyStats local;
  GOOD_ASSIGN_OR_RETURN(std::vector<Matching> matchings,
                        Matchings(*instance, &local.match, deadline));

  // -- Minimal scheme extension.
  GOOD_RETURN_NOT_OK(scheme->EnsureObjectLabel(new_label_));
  for (const auto& [label, node] : edges_) {
    GOOD_RETURN_NOT_OK(scheme->EnsureFunctionalEdgeLabel(label));
    GOOD_RETURN_NOT_OK(
        scheme->EnsureTriple(new_label_, label, pattern_.LabelOf(node)));
  }

  local.matchings = matchings.size();
  // Dedup and create in matching order, so fresh node ids follow the
  // matching sequence.
  std::vector<NodeId> key(edges_.size());
  for (const Matching& matching : matchings) {
    for (size_t e = 0; e < edges_.size(); ++e) {
      key[e] = matching.At(edges_[e].second);
    }
    if (HasKNode(*instance, new_label_, edges_, key)) continue;
    GOOD_ASSIGN_OR_RETURN(NodeId fresh,
                          instance->AddObjectNode(*scheme, new_label_));
    ++local.nodes_added;
    for (size_t e = 0; e < edges_.size(); ++e) {
      GOOD_RETURN_NOT_OK(
          instance->AddEdge(*scheme, fresh, edges_[e].first, key[e]));
      ++local.edges_added;
    }
  }
  if (stats != nullptr) *stats += local;
  txn.Commit();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Edge addition
// ---------------------------------------------------------------------------

Status EdgeAddition::Apply(Scheme* scheme, Instance* instance,
                           ApplyStats* stats,
                           const common::Deadline* deadline) const {
  if (deadline != nullptr) GOOD_RETURN_NOT_OK(deadline->Check());
  for (const EdgeSpec& spec : edges_) {
    GOOD_RETURN_NOT_OK(
        RequirePatternNode(pattern_, spec.source, "bold edge source"));
    GOOD_RETURN_NOT_OK(
        RequirePatternNode(pattern_, spec.target, "bold edge target"));
    if (scheme->HasLabel(spec.label)) {
      const bool registered_functional =
          scheme->IsFunctionalEdgeLabel(spec.label);
      if (!scheme->IsEdgeLabel(spec.label)) {
        return Status::InvalidArgument("edge addition label '" +
                                       SymName(spec.label) +
                                       "' exists with a non-edge kind");
      }
      if (registered_functional != spec.functional) {
        return Status::InvalidArgument(
            "edge addition label '" + SymName(spec.label) +
            "' kind disagrees with its registration in the scheme");
      }
    }
  }

  Transaction txn(scheme, instance);
  GOOD_RETURN_NOT_OK(MaterializePrintables(pattern_, *scheme, instance));
  ApplyStats local;
  GOOD_ASSIGN_OR_RETURN(std::vector<Matching> matchings,
                        Matchings(*instance, &local.match, deadline));

  // -- Minimal scheme extension.
  for (const EdgeSpec& spec : edges_) {
    if (spec.functional) {
      GOOD_RETURN_NOT_OK(scheme->EnsureFunctionalEdgeLabel(spec.label));
    } else {
      GOOD_RETURN_NOT_OK(scheme->EnsureMultivaluedEdgeLabel(spec.label));
    }
    GOOD_RETURN_NOT_OK(scheme->EnsureTriple(pattern_.LabelOf(spec.source),
                                            spec.label,
                                            pattern_.LabelOf(spec.target)));
  }

  // -- Gather the full edge set to add, then run the consistency check
  //    of Section 3.2 before mutating anything (atomicity). Sorting
  //    orders the edges by (source, label, target), so each
  //    (source, label) group is one run and the insert order is fixed.
  std::vector<graph::Edge> to_add;
  to_add.reserve(matchings.size() * edges_.size());
  for (const Matching& matching : matchings) {
    for (const EdgeSpec& spec : edges_) {
      to_add.push_back(graph::Edge{matching.At(spec.source), spec.label,
                                   matching.At(spec.target)});
    }
  }
  std::sort(to_add.begin(), to_add.end());
  to_add.erase(std::unique(to_add.begin(), to_add.end()), to_add.end());

  // Per (source node, label) group: the distinct targets, new and old,
  // must be at most one for a functional label and equally labeled
  // otherwise.
  for (size_t begin = 0, end = 0; begin < to_add.size(); begin = end) {
    const NodeId source = to_add[begin].source;
    const Symbol label = to_add[begin].label;
    end = begin + 1;
    while (end < to_add.size() && to_add[end].source == source &&
           to_add[end].label == label) {
      ++end;
    }
    const NodeId first_new = to_add[begin].target;
    const std::vector<NodeId>& existing = instance->OutTargets(source, label);
    const bool several =
        end - begin > 1 ||
        std::any_of(existing.begin(), existing.end(),
                    [first_new](NodeId t) { return t != first_new; });
    if (!several) continue;
    if (scheme->IsFunctionalEdgeLabel(label)) {
      return Status::FailedPrecondition(
          "edge addition undefined: functional label '" + SymName(label) +
          "' would leave node #" + std::to_string(source.id) +
          " towards multiple targets");
    }
    const Symbol first_label = instance->LabelOf(first_new);
    bool equal_labels = std::all_of(
        existing.begin(), existing.end(),
        [&](NodeId t) { return instance->LabelOf(t) == first_label; });
    for (size_t i = begin + 1; equal_labels && i < end; ++i) {
      equal_labels = instance->LabelOf(to_add[i].target) == first_label;
    }
    if (!equal_labels) {
      return Status::FailedPrecondition(
          "edge addition undefined: '" + SymName(label) +
          "' successors of node #" + std::to_string(source.id) +
          " would have unequal labels");
    }
  }

  local.matchings = matchings.size();
  for (const graph::Edge& edge : to_add) {
    if (instance->HasEdge(edge.source, edge.label, edge.target)) continue;
    GOOD_RETURN_NOT_OK(
        instance->AddEdge(*scheme, edge.source, edge.label, edge.target));
    ++local.edges_added;
  }
  if (stats != nullptr) *stats += local;
  txn.Commit();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Node deletion
// ---------------------------------------------------------------------------

Status NodeDeletion::Apply(Scheme* scheme, Instance* instance,
                           ApplyStats* stats,
                           const common::Deadline* deadline) const {
  (void)scheme;  // The scheme is unchanged by deletions.
  if (deadline != nullptr) GOOD_RETURN_NOT_OK(deadline->Check());
  GOOD_RETURN_NOT_OK(RequirePatternNode(pattern_, target_, "deleted node"));

  // Deletions never touch the scheme, so the scope skips its snapshot.
  Transaction txn(nullptr, instance);
  ApplyStats local;
  GOOD_ASSIGN_OR_RETURN(std::vector<Matching> matchings,
                        Matchings(*instance, &local.match, deadline));
  std::set<NodeId> doomed;
  for (const Matching& matching : matchings) {
    doomed.insert(matching.At(target_));
  }

  local.matchings = matchings.size();
  for (NodeId node : doomed) {
    const size_t edges_before = instance->num_edges();
    GOOD_RETURN_NOT_OK(instance->RemoveNode(node));
    ++local.nodes_deleted;
    local.edges_deleted += edges_before - instance->num_edges();
  }
  if (stats != nullptr) *stats += local;
  txn.Commit();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Edge deletion
// ---------------------------------------------------------------------------

Status EdgeDeletion::Apply(Scheme* scheme, Instance* instance,
                           ApplyStats* stats,
                           const common::Deadline* deadline) const {
  (void)scheme;
  if (deadline != nullptr) GOOD_RETURN_NOT_OK(deadline->Check());
  for (const EdgeRef& ref : edges_) {
    GOOD_RETURN_NOT_OK(
        RequirePatternNode(pattern_, ref.source, "deleted edge source"));
    GOOD_RETURN_NOT_OK(
        RequirePatternNode(pattern_, ref.target, "deleted edge target"));
    // The formal definition requires the deleted edges to be edges of
    // the source pattern (double-outlined edges are drawn inside it).
    if (!pattern_.HasEdge(ref.source, ref.label, ref.target)) {
      return Status::InvalidArgument(
          "edge deletion designator (" + SymName(ref.label) +
          ") is not an edge of the source pattern");
    }
  }

  Transaction txn(nullptr, instance);
  ApplyStats local;
  GOOD_ASSIGN_OR_RETURN(std::vector<Matching> matchings,
                        Matchings(*instance, &local.match, deadline));
  std::set<graph::Edge> doomed;
  for (const Matching& matching : matchings) {
    for (const EdgeRef& ref : edges_) {
      doomed.insert(graph::Edge{matching.At(ref.source), ref.label,
                                matching.At(ref.target)});
    }
  }

  local.matchings = matchings.size();
  for (const graph::Edge& edge : doomed) {
    GOOD_RETURN_NOT_OK(
        instance->RemoveEdge(edge.source, edge.label, edge.target));
    ++local.edges_deleted;
  }
  if (stats != nullptr) *stats += local;
  txn.Commit();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Abstraction
// ---------------------------------------------------------------------------

Status Abstraction::Apply(Scheme* scheme, Instance* instance,
                          ApplyStats* stats,
                          const common::Deadline* deadline) const {
  if (deadline != nullptr) GOOD_RETURN_NOT_OK(deadline->Check());
  GOOD_RETURN_NOT_OK(RequirePatternNode(pattern_, node_, "abstracted node"));
  if (scheme->HasLabel(set_label_) && !scheme->IsObjectLabel(set_label_)) {
    return Status::InvalidArgument("abstraction set label '" +
                                   SymName(set_label_) +
                                   "' exists with a non-object kind");
  }
  if (scheme->HasLabel(member_edge_) &&
      !scheme->IsMultivaluedEdgeLabel(member_edge_)) {
    return Status::InvalidArgument("abstraction member edge '" +
                                   SymName(member_edge_) +
                                   "' exists with a non-multivalued kind");
  }
  if (!scheme->IsMultivaluedEdgeLabel(grouping_edge_)) {
    return Status::InvalidArgument(
        "abstraction grouping edge '" + SymName(grouping_edge_) +
        "' must be a multivalued edge label of the scheme");
  }

  Transaction txn(scheme, instance);
  GOOD_RETURN_NOT_OK(MaterializePrintables(pattern_, *scheme, instance));
  ApplyStats local;
  GOOD_ASSIGN_OR_RETURN(std::vector<Matching> matchings,
                        Matchings(*instance, &local.match, deadline));

  // -- Minimal scheme extension.
  GOOD_RETURN_NOT_OK(scheme->EnsureObjectLabel(set_label_));
  GOOD_RETURN_NOT_OK(scheme->EnsureMultivaluedEdgeLabel(member_edge_));
  GOOD_RETURN_NOT_OK(
      scheme->EnsureTriple(set_label_, member_edge_, pattern_.LabelOf(node_)));

  // -- Group the distinct matched nodes by β-successor set (pre-state).
  std::set<NodeId> matched;
  for (const Matching& matching : matchings) matched.insert(matching.At(node_));
  std::map<std::set<NodeId>, std::set<NodeId>> classes;  // β-set -> members
  for (NodeId m : matched) {
    std::vector<NodeId> targets = instance->OutTargets(m, grouping_edge_);
    classes[std::set<NodeId>(targets.begin(), targets.end())].insert(m);
  }

  // -- An existing K-node already serving a class exactly makes the
  //    operation idempotent for it. Such a node is a member-edge source
  //    of every class member, so probing the member with the fewest
  //    member in-edges finds it. Classes are disjoint and non-empty, so
  //    a K-node created for one class never serves a later one.
  auto served = [&](const std::set<NodeId>& members) {
    NodeId probe = *members.begin();
    for (NodeId m : members) {
      if (instance->InDegree(m, member_edge_) <
          instance->InDegree(probe, member_edge_)) {
        probe = m;
      }
    }
    for (NodeId k : instance->InSources(probe, member_edge_)) {
      if (instance->LabelOf(k) != set_label_) continue;
      const std::vector<NodeId>& targets =
          instance->OutTargets(k, member_edge_);
      // Edges are sets, so equal sizes plus inclusion is equality.
      if (targets.size() == members.size() &&
          std::all_of(targets.begin(), targets.end(),
                      [&](NodeId t) { return members.contains(t); })) {
        return true;
      }
    }
    return false;
  };

  local.matchings = matchings.size();
  for (const auto& [beta_set, members] : classes) {
    (void)beta_set;
    if (served(members)) continue;
    GOOD_ASSIGN_OR_RETURN(NodeId fresh,
                          instance->AddObjectNode(*scheme, set_label_));
    ++local.nodes_added;
    for (NodeId member : members) {
      GOOD_RETURN_NOT_OK(
          instance->AddEdge(*scheme, fresh, member_edge_, member));
      ++local.edges_added;
    }
  }
  if (stats != nullptr) *stats += local;
  txn.Commit();
  return Status::OK();
}

}  // namespace good::ops
