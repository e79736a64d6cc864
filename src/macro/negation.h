/// \file negation.h
/// \brief Negated (crossed) patterns and their simulation (Section 4.1,
/// Figures 26-27).
///
/// Pattern matching checks for the *presence* of nodes and edges; some
/// queries need their *absence* — the paper draws crossed nodes and
/// edges for this. A negated pattern consists of a positive pattern plus
/// crossed extensions; its matchings are the matchings of the positive
/// part that cannot be extended to any matching of the full pattern.
///
/// Two evaluation routes are provided, and tests check they agree:
///  - Direct: enumerate positive matchings, reject the extensible ones.
///    Whether a positive matching extends is a NOT EXISTS over the full
///    pattern with the positive nodes already bound. With no crossed
///    node it takes one edge probe per crossed edge (the matching
///    already realizes every other edge); with crossed nodes it is one
///    Matcher::ExistsChecked call with the positive nodes pinned, so the
///    crossed part gets the matcher's cost-based order, candidates from
///    the bound images' adjacency lists, and its deadline polls.
///  - Translation (Figure 27): a node addition tags every positive
///    matching with an Intermediate node (one functional edge per
///    positive pattern node), a node deletion removes the Intermediate
///    nodes whose matching extends to the full pattern, and the
///    surviving Intermediate nodes represent the result.

#ifndef GOOD_MACRO_NEGATION_H_
#define GOOD_MACRO_NEGATION_H_

#include <vector>

#include "method/method.h"
#include "ops/operations.h"
#include "pattern/matcher.h"

namespace good::macros {

using graph::NodeId;
using pattern::Matching;
using pattern::Pattern;

/// \brief A pattern with crossed (negated) parts.
///
/// `full` contains both the positive and the crossed elements;
/// `positive_nodes` lists the nodes of the positive part. The crossed
/// part is everything else: crossed nodes (nodes of `full` outside
/// `positive_nodes`) and crossed edges (edges of `full` incident to a
/// crossed node, plus edges explicitly listed in `crossed_edges` between
/// positive nodes — e.g. Figure 26 crosses only the modified edge).
struct NegatedPattern {
  Pattern full;
  std::vector<NodeId> positive_nodes;
  std::vector<graph::Edge> crossed_edges;

  /// The positive sub-pattern: `full` restricted to `positive_nodes`
  /// minus `crossed_edges`. InvalidArgument when `positive_nodes`
  /// names a node outside `full` or repeats one, or a crossed edge is
  /// not an edge of `full`.
  Result<Pattern> PositivePart() const;

  /// True iff `full` has a node outside `positive_nodes`. Meaningful
  /// once PositivePart() has accepted the lists.
  bool HasCrossedNodes() const {
    return full.num_nodes() > positive_nodes.size();
  }

  /// True iff anything is crossed: a node or an edge. Without that,
  /// every positive matching trivially extends and no filter is needed.
  bool Negates() const { return HasCrossedNodes() || !crossed_edges.empty(); }
};

/// \brief Direct semantics: matchings of the positive part (restricted
/// to positive nodes) that cannot be extended to a matching of `full`.
/// A non-null armed `deadline` interrupts both the positive-part
/// matching and the extension checks with kDeadlineExceeded/kCancelled;
/// every check observes an already-expired deadline up front.
Result<std::vector<Matching>> EvaluateNegated(
    const NegatedPattern& negated, const graph::Instance& instance,
    const common::Deadline* deadline = nullptr);

/// \brief Builds a MatchFilter over the positive part that accepts
/// exactly the non-extensible matchings — this is how crossed patterns
/// attach to any operation (and how Figure 29 expresses recursion
/// stopping conditions). The filter evaluates against the instance
/// passed at match time, so it sees edges added by earlier rounds.
/// `deadline` (optional, not owned, must outlive the filter) is polled
/// by every extension check the filter runs: an interrupted check
/// surfaces as a failed Result instead of masking the timeout as
/// "rejected" — an interrupted negation check is NOT a definitive
/// negative.
Result<ops::MatchFilter> NegationFilter(
    const NegatedPattern& negated,
    const common::Deadline* deadline = nullptr);

/// \brief The Figure 27 simulation: returns the two operations
/// (tagging NA over the positive part, pruning ND over the full
/// pattern) that leave exactly one `intermediate_label` node per
/// surviving matching, with functional edges "$neg:<i>" to the images of
/// the positive nodes (in `positive_nodes` order). `scheme` is only used
/// to construct the operation patterns; applying the operations performs
/// the real minimal scheme extension.
Result<std::vector<method::Operation>> NegationToOperations(
    const NegatedPattern& negated, const schema::Scheme& scheme,
    Symbol intermediate_label);

}  // namespace good::macros

#endif  // GOOD_MACRO_NEGATION_H_
