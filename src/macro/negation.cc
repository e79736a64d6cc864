#include "macro/negation.h"

#include <algorithm>
#include <memory>
#include <set>

namespace good::macros {

using graph::Instance;

namespace {

/// Candidate visits between deadline polls inside an extension check;
/// small because crossed parts are tiny patterns and the caller may be
/// filtering thousands of matchings under one deadline.
constexpr size_t kExtensionPollStride = 64;

/// What every extension check of one negated pattern shares, computed
/// once: the crossed nodes in search order and, per search depth, the
/// full-pattern edges whose endpoints are first both assigned there.
struct ExtensionPlan {
  explicit ExtensionPlan(const NegatedPattern& n) : negated(n) {
    const std::vector<NodeId> nodes = negated.full.AllNodes();
    std::vector<size_t> depth(nodes.empty() ? 0 : nodes.back().id + 1, 0);
    for (NodeId m : nodes) {
      if (std::find(negated.positive_nodes.begin(),
                    negated.positive_nodes.end(),
                    m) == negated.positive_nodes.end()) {
        crossed.push_back(m);
        depth[m.id] = crossed.size();
      }
    }
    checks.resize(crossed.size() + 1);
    for (const graph::Edge& e : negated.full.AllEdges()) {
      checks[std::max(depth[e.source.id], depth[e.target.id])].push_back(e);
    }
  }

  NegatedPattern negated;
  /// Nodes of `full` outside `positive_nodes`, in id order.
  std::vector<NodeId> crossed;
  /// checks[0]: the edges among positive nodes; checks[i + 1]: the
  /// edges that assigning crossed[i] completes.
  std::vector<std::vector<graph::Edge>> checks;
};

/// Backtracking extension check: given the images of the positive nodes,
/// does an assignment of the crossed nodes exist that realizes every
/// edge of the full pattern?
class ExtensionCheck {
 public:
  ExtensionCheck(const ExtensionPlan& plan, const Instance& instance,
                 const Matching& positive_matching,
                 const common::Deadline* deadline = nullptr)
      : plan_(plan),
        instance_(instance),
        deadline_(deadline),
        armed_(deadline != nullptr && deadline->armed()) {
    for (NodeId n : plan.negated.positive_nodes) {
      images_.Bind(n, positive_matching.At(n));
    }
  }

  /// Extensibility, or the interrupt that cut the search short. An
  /// already-expired deadline is observed up front (tiny searches may
  /// finish under the poll stride).
  Result<bool> Extensible() {
    if (armed_) GOOD_RETURN_NOT_OK(deadline_->Check());
    const bool extensible = Consistent(plan_.checks[0]) && Recurse(0);
    GOOD_RETURN_NOT_OK(interrupt_);
    return extensible;
  }

 private:
  /// Stride-gated deadline poll; false means stop (interrupt_ set).
  bool Poll() {
    if ((++polls_ & (kExtensionPollStride - 1)) != 0) return true;
    Status expired = deadline_->Check();
    if (expired.ok()) return true;
    interrupt_ = std::move(expired);
    return false;
  }

  /// True iff the instance holds the image of every edge in `edges`,
  /// whose endpoints are all assigned.
  bool Consistent(const std::vector<graph::Edge>& edges) const {
    for (const graph::Edge& e : edges) {
      if (!instance_.HasEdge(images_.At(e.source), e.label,
                             images_.At(e.target))) {
        return false;
      }
    }
    return true;
  }

  /// Extends the assignment from crossed[index] on; false when no
  /// extension exists or an interrupt stopped the search.
  bool Recurse(size_t index) {
    if (index == plan_.crossed.size()) return true;
    const NodeId m = plan_.crossed[index];
    const Pattern& full = plan_.negated.full;
    // Prune early: partial assignments must stay edge-consistent.
    auto extends = [&](NodeId t) {
      if (armed_ && !Poll()) return false;
      images_.Bind(m, t);
      return Consistent(plan_.checks[index + 1]) && Recurse(index + 1);
    };
    if (full.HasPrintValue(m)) {
      auto found = instance_.FindPrintable(full.LabelOf(m),
                                           *full.PrintValueOf(m));
      return found.has_value() && extends(*found);
    }
    bool found = false;
    instance_.ForEachNodeWithLabel(full.LabelOf(m), [&](NodeId t) {
      found = extends(t);
      return !found && interrupt_.ok();
    });
    return found;
  }

  const ExtensionPlan& plan_;
  const Instance& instance_;
  const common::Deadline* deadline_;
  const bool armed_;
  size_t polls_ = 0;
  Status interrupt_;
  Matching images_;
};

Result<bool> IsExtensibleChecked(const ExtensionPlan& plan,
                                 const Instance& instance,
                                 const Matching& positive_matching,
                                 const common::Deadline* deadline) {
  return ExtensionCheck(plan, instance, positive_matching, deadline)
      .Extensible();
}

}  // namespace

Result<Pattern> NegatedPattern::PositivePart() const {
  Pattern positive = full;  // Node ids stay stable under removal.
  std::set<NodeId> keep(positive_nodes.begin(), positive_nodes.end());
  for (NodeId n : positive_nodes) {
    if (!full.HasNode(n)) {
      return Status::InvalidArgument(
          "positive node list references a node outside the pattern");
    }
  }
  for (NodeId n : full.AllNodes()) {
    if (!keep.contains(n)) {
      GOOD_RETURN_NOT_OK(positive.RemoveNode(n));
    }
  }
  for (const graph::Edge& e : crossed_edges) {
    if (!full.HasEdge(e.source, e.label, e.target)) {
      return Status::InvalidArgument(
          "crossed edge is not an edge of the pattern");
    }
    GOOD_RETURN_NOT_OK(positive.RemoveEdge(e.source, e.label, e.target));
  }
  return positive;
}

Result<std::vector<Matching>> EvaluateNegated(
    const NegatedPattern& negated, const Instance& instance,
    const common::Deadline* deadline) {
  GOOD_ASSIGN_OR_RETURN(Pattern positive, negated.PositivePart());
  pattern::MatchOptions options;
  options.deadline = deadline;
  GOOD_ASSIGN_OR_RETURN(
      std::vector<Matching> matchings,
      pattern::Matcher(positive, instance, options).FindAllChecked());
  const ExtensionPlan plan(negated);
  std::vector<Matching> out;
  for (Matching& m : matchings) {
    GOOD_ASSIGN_OR_RETURN(
        bool extensible, IsExtensibleChecked(plan, instance, m, deadline));
    if (!extensible) out.push_back(std::move(m));
  }
  return out;
}

Result<ops::MatchFilter> NegationFilter(const NegatedPattern& negated,
                                        const common::Deadline* deadline) {
  // Sanity-check the structure up front; the filter itself can then
  // only fail on a deadline interrupt.
  GOOD_RETURN_NOT_OK(negated.PositivePart().status());
  auto shared = std::make_shared<const ExtensionPlan>(negated);
  return ops::MatchFilter(
      [shared, deadline](const Matching& m,
                         const Instance& instance) -> Result<bool> {
        GOOD_ASSIGN_OR_RETURN(
            bool extensible,
            IsExtensibleChecked(*shared, instance, m, deadline));
        return !extensible;
      });
}

Result<std::vector<method::Operation>> NegationToOperations(
    const NegatedPattern& negated, const schema::Scheme& scheme,
    Symbol intermediate_label) {
  GOOD_ASSIGN_OR_RETURN(Pattern positive, negated.PositivePart());

  // Labels "$neg:<i>" bind the Intermediate node to the images of the
  // positive nodes (the 1, 2, 3 edges of Figure 27).
  std::vector<Symbol> index_labels;
  for (size_t i = 0; i < negated.positive_nodes.size(); ++i) {
    index_labels.push_back(Sym("$neg:" + std::to_string(i)));
  }

  // Pattern construction needs a scratch scheme that already carries the
  // intermediate label and index triples; applying the operations
  // performs the real minimal extension.
  schema::Scheme scratch = scheme;
  GOOD_RETURN_NOT_OK(scratch.EnsureObjectLabel(intermediate_label));
  for (size_t i = 0; i < negated.positive_nodes.size(); ++i) {
    GOOD_RETURN_NOT_OK(scratch.EnsureFunctionalEdgeLabel(index_labels[i]));
    GOOD_RETURN_NOT_OK(scratch.EnsureTriple(
        intermediate_label, index_labels[i],
        negated.full.LabelOf(negated.positive_nodes[i])));
  }

  // Step 1 (Figure 27, top): tag every positive matching.
  std::vector<std::pair<Symbol, NodeId>> bold;
  for (size_t i = 0; i < negated.positive_nodes.size(); ++i) {
    bold.emplace_back(index_labels[i], negated.positive_nodes[i]);
  }
  ops::NodeAddition tag(positive, intermediate_label, bold);

  // Step 2 (Figure 27, middle): delete the tags of extensible matchings.
  Pattern prune = negated.full;
  GOOD_ASSIGN_OR_RETURN(NodeId intermediate,
                        prune.AddObjectNode(scratch, intermediate_label));
  for (size_t i = 0; i < negated.positive_nodes.size(); ++i) {
    GOOD_RETURN_NOT_OK(prune.AddEdge(scratch, intermediate, index_labels[i],
                                     negated.positive_nodes[i]));
  }
  ops::NodeDeletion sweep(std::move(prune), intermediate);

  std::vector<method::Operation> out;
  out.emplace_back(std::move(tag));
  out.emplace_back(std::move(sweep));
  return out;
}

}  // namespace good::macros
