/// \file recursive.h
/// \brief Recursive (starred) addition operations (Section 4.1,
/// Figures 28-29).
///
/// A starred edge addition repeats "as long as new edges can be added" —
/// a fixpoint, the canonical example being the transitive closure of
/// links-to. Two routes are provided and tested for equivalence:
///  - RecursiveEdgeAddition::Apply runs the edge addition to fixpoint
///    directly (with an iteration cap: recursive *node* additions can
///    diverge, as the paper warns);
///  - TransitiveClosureMethod builds the Figure 29 method translation —
///    a method whose body performs the underlying non-starred addition
///    and then calls itself with a crossed (negated) stopping condition.

#ifndef GOOD_MACRO_RECURSIVE_H_
#define GOOD_MACRO_RECURSIVE_H_

#include <string>

#include "method/method.h"
#include "ops/operations.h"

namespace good::macros {

/// \brief A starred edge addition: apply the underlying EdgeAddition
/// repeatedly until the instance stops changing.
class RecursiveEdgeAddition {
 public:
  RecursiveEdgeAddition(pattern::Pattern pattern,
                        std::vector<ops::EdgeSpec> edges,
                        size_t max_iterations = 1'000'000)
      : underlying_(std::move(pattern), std::move(edges)),
        max_iterations_(max_iterations) {}

  /// Runs to fixpoint. Returns ResourceExhausted if the cap is hit.
  Status Apply(schema::Scheme* scheme, graph::Instance* instance,
               ops::ApplyStats* stats = nullptr) const;

  const ops::EdgeAddition& underlying() const { return underlying_; }
  void set_filter(ops::MatchFilter filter) {
    underlying_.set_filter(std::move(filter));
  }

  /// Fixpoint strategy — see ops::EvalMode. kIncremental (the default)
  /// seeds each iteration's matching from the edges the previous
  /// iteration added (read off an undo journal window); both modes add
  /// the same edges in the same number of iterations.
  void set_eval_mode(ops::EvalMode mode) { eval_mode_ = mode; }
  ops::EvalMode eval_mode() const { return eval_mode_; }

 private:
  ops::EdgeAddition underlying_;
  size_t max_iterations_;
  ops::EvalMode eval_mode_ = ops::EvalMode::kIncremental;
};

/// \brief The Figure 29 translation for the transitive-closure starred
/// addition: a method `name` over `node_label` nodes that, given
/// receiver x and argument y, adds a `closure_edge` from x to y and
/// recurses to every `base_edge`-successor z of y for which the
/// closure edge x -> z is still absent (the crossed stopping condition).
///
/// `closure_edge` must be (or will be registered as) multivalued.
Result<method::Method> TransitiveClosureMethod(const schema::Scheme& scheme,
                                               Symbol node_label,
                                               Symbol base_edge,
                                               Symbol closure_edge,
                                               const std::string& name);

/// \brief The initial call of Figure 29 (bottom): invoke `name` for
/// every base edge x -> y with receiver x and argument y.
Result<method::MethodCallOp> TransitiveClosureCall(
    const schema::Scheme& scheme, Symbol node_label, Symbol base_edge,
    const std::string& name);

}  // namespace good::macros

#endif  // GOOD_MACRO_RECURSIVE_H_
