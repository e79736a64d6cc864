#include "macro/set_query.h"

namespace good::macros {

using graph::Instance;
using graph::NodeId;
using schema::Scheme;

Result<NodeId> RunSetQuery(const SetQuery& query, Scheme* scheme,
                           Instance* instance) {
  GOOD_ASSIGN_OR_RETURN(pattern::Pattern positive,
                        query.condition.PositivePart());
  if (!positive.HasNode(query.collect)) {
    return Status::InvalidArgument(
        "the collected node must be a positive node of the condition");
  }

  // Step 1 (Figure 12): one fresh answer object via an empty-pattern
  // node addition. To make repeated queries independent, we do not
  // reuse existing answer objects: a fresh label instance is required,
  // so we fail if an answer object already exists.
  if (scheme->HasLabel(query.answer_label) &&
      instance->CountNodesWithLabel(query.answer_label) > 0) {
    return Status::AlreadyExists(
        "an object labeled '" + SymName(query.answer_label) +
        "' already exists; use a fresh answer label per query");
  }
  ops::NodeAddition na(pattern::Pattern(), query.answer_label, {});
  GOOD_RETURN_NOT_OK(na.Apply(scheme, instance));
  auto answers = instance->NodesWithLabel(query.answer_label);
  if (answers.size() != 1) {
    return Status::Internal("expected exactly one answer object");
  }
  NodeId answer = answers[0];

  // Step 2 (Figure 13): link the collected images. The pattern is the
  // positive condition extended with the answer node; the negated part
  // becomes a match filter.
  pattern::Pattern with_answer = positive;
  GOOD_ASSIGN_OR_RETURN(NodeId answer_node,
                        with_answer.AddObjectNode(*scheme,
                                                  query.answer_label));
  ops::EdgeAddition ea(
      std::move(with_answer),
      {ops::EdgeSpec{answer_node, query.member_edge, query.collect,
                     /*functional=*/false}});
  if (query.condition.Negates()) {
    GOOD_ASSIGN_OR_RETURN(ops::MatchFilter filter,
                          NegationFilter(query.condition));
    ea.set_filter(std::move(filter));
  }
  GOOD_RETURN_NOT_OK(ea.Apply(scheme, instance));
  return answer;
}

std::vector<NodeId> AnswerMembers(const Instance& instance, NodeId answer,
                                  Symbol member_edge) {
  return instance.OutTargets(answer, member_edge);
}

}  // namespace good::macros
