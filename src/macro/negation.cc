#include "macro/negation.h"

#include <memory>
#include <set>

namespace good::macros {

using graph::Instance;

namespace {

/// Whether `positive` (a matching of the positive part) extends to a
/// matching of the full pattern. Without crossed nodes the matching
/// already realizes every uncrossed edge, so one probe per crossed edge
/// decides; otherwise the matcher searches the crossed nodes with the
/// positive nodes pinned to their images. An interrupt is an error.
Result<bool> Extensible(const NegatedPattern& negated,
                        const Instance& instance, const Matching& positive,
                        const common::Deadline* deadline) {
  if (!negated.HasCrossedNodes()) {
    if (deadline != nullptr) GOOD_RETURN_NOT_OK(deadline->Check());
    for (const graph::Edge& e : negated.crossed_edges) {
      if (!instance.HasEdge(positive.At(e.source), e.label,
                            positive.At(e.target))) {
        return false;
      }
    }
    return true;
  }
  Matching bound;
  for (NodeId n : negated.positive_nodes) bound.Bind(n, positive.At(n));
  pattern::MatchOptions options;
  options.deadline = deadline;
  return pattern::Matcher(negated.full, instance, options)
      .ExistsChecked(bound);
}

}  // namespace

Result<Pattern> NegatedPattern::PositivePart() const {
  Pattern positive = full;  // Node ids stay stable under removal.
  std::set<NodeId> keep;
  for (NodeId n : positive_nodes) {
    if (!full.HasNode(n)) {
      return Status::InvalidArgument(
          "positive node list references a node outside the pattern");
    }
    if (!keep.insert(n).second) {
      return Status::InvalidArgument("positive node list repeats a node");
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
  std::vector<Matching> out;
  for (Matching& m : matchings) {
    GOOD_ASSIGN_OR_RETURN(bool extensible,
                          Extensible(negated, instance, m, deadline));
    if (!extensible) out.push_back(std::move(m));
  }
  return out;
}

Result<ops::MatchFilter> NegationFilter(const NegatedPattern& negated,
                                        const common::Deadline* deadline) {
  // Sanity-check the structure up front; the filter itself can then
  // only fail on a deadline interrupt.
  GOOD_RETURN_NOT_OK(negated.PositivePart().status());
  auto shared = std::make_shared<const NegatedPattern>(negated);
  return ops::MatchFilter(
      [shared, deadline](const Matching& m,
                         const Instance& instance) -> Result<bool> {
        GOOD_ASSIGN_OR_RETURN(bool extensible,
                              Extensible(*shared, instance, m, deadline));
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
