#include "macro/recursive.h"

#include "graph/undo_journal.h"
#include "ops/transaction.h"
#include "pattern/builder.h"

namespace good::macros {

using graph::Instance;
using graph::NodeId;
using method::HeadBinding;
using method::Method;
using method::MethodCallOp;
using method::ParameterizedOp;
using schema::Scheme;

Status RecursiveEdgeAddition::Apply(Scheme* scheme, Instance* instance,
                                    ops::ApplyStats* stats) const {
  if (eval_mode_ == ops::EvalMode::kNaive) {
    for (size_t round = 0; round < max_iterations_; ++round) {
      ops::ApplyStats round_stats;
      GOOD_RETURN_NOT_OK(underlying_.Apply(scheme, instance, &round_stats));
      if (stats != nullptr) *stats += round_stats;
      if (round_stats.edges_added == 0) return Status::OK();
    }
    return Status::ResourceExhausted(
        "recursive edge addition did not reach a fixpoint within " +
        std::to_string(max_iterations_) + " iterations");
  }

  // Semi-naive: from iteration 2 on, only matchings binding into the
  // previous iteration's additions are enumerated — exact because the
  // edge addition is idempotent (see ops::EvalMode). A local copy of
  // the underlying op carries the delta (Apply is const); the outer
  // transaction exists to supply the journal the windows read and is
  // committed on every exit path — each underlying Apply already rolls
  // itself back on failure.
  ops::EdgeAddition ea = underlying_;
  ops::Transaction run_txn(scheme, instance);
  graph::UndoJournal* journal = instance->journal();
  size_t watermark = 0;
  bool evaluated = false;
  for (size_t round = 0; round < max_iterations_; ++round) {
    const size_t mark_before = journal->Position();
    pattern::DeltaSet delta;
    ea.set_delta(nullptr);
    if (evaluated) {
      delta = pattern::BuildDeltaSince(*journal, watermark);
      if (delta.empty()) {
        run_txn.Commit();
        return Status::OK();
      }
      const size_t delta_size = delta.num_nodes() + delta.num_edges();
      const size_t db_size = instance->num_nodes() + instance->num_edges();
      if (static_cast<double>(delta_size) <=
          pattern::kDefaultDeltaFallbackFraction *
              static_cast<double>(db_size)) {
        ea.set_delta(&delta);
      }
    }
    ops::ApplyStats round_stats;
    Status round_status = ea.Apply(scheme, instance, &round_stats);
    if (!round_status.ok()) {
      run_txn.Commit();
      return round_status;
    }
    if (stats != nullptr) *stats += round_stats;
    watermark = mark_before;
    evaluated = true;
    if (round_stats.edges_added == 0) {
      run_txn.Commit();
      return Status::OK();
    }
  }
  run_txn.Commit();
  return Status::ResourceExhausted(
      "recursive edge addition did not reach a fixpoint within " +
      std::to_string(max_iterations_) + " iterations");
}

Result<Method> TransitiveClosureMethod(const Scheme& scheme,
                                       Symbol node_label, Symbol base_edge,
                                       Symbol closure_edge,
                                       const std::string& name) {
  if (!scheme.IsObjectLabel(node_label)) {
    return Status::InvalidArgument("'" + SymName(node_label) +
                                   "' is not an object label");
  }
  if (!scheme.HasTriple(node_label, base_edge, node_label)) {
    return Status::InvalidArgument(
        "scheme lacks the base triple (" + SymName(node_label) + ", " +
        SymName(base_edge) + ", " + SymName(node_label) + ")");
  }
  if (scheme.HasLabel(closure_edge) &&
      !scheme.IsMultivaluedEdgeLabel(closure_edge)) {
    return Status::InvalidArgument("closure edge '" + SymName(closure_edge) +
                                   "' exists with a non-multivalued kind");
  }

  const Symbol arg = Sym("arg");
  Method m;
  m.spec.name = name;
  m.spec.params[arg] = node_label;
  m.spec.receiver_label = node_label;

  // Body op 1 (Figure 29, middle-top): add the closure edge from the
  // receiver to the argument.
  {
    pattern::Pattern p;
    GOOD_ASSIGN_OR_RETURN(NodeId x, p.AddObjectNode(scheme, node_label));
    GOOD_ASSIGN_OR_RETURN(NodeId y, p.AddObjectNode(scheme, node_label));
    ops::EdgeAddition ea(
        std::move(p),
        {ops::EdgeSpec{x, closure_edge, y, /*functional=*/false}});
    HeadBinding head;
    head.receiver = x;
    head.params[arg] = y;
    m.body.push_back(ParameterizedOp{std::move(ea), head});
  }
  // Body op 2 (Figure 29, middle-bottom): recurse to each base-edge
  // successor of the argument for which the closure edge from the
  // receiver is still missing — the crossed stopping condition.
  {
    pattern::Pattern p;
    GOOD_ASSIGN_OR_RETURN(NodeId x, p.AddObjectNode(scheme, node_label));
    GOOD_ASSIGN_OR_RETURN(NodeId y, p.AddObjectNode(scheme, node_label));
    GOOD_ASSIGN_OR_RETURN(NodeId z, p.AddObjectNode(scheme, node_label));
    GOOD_RETURN_NOT_OK(p.AddEdge(scheme, y, base_edge, z));
    MethodCallOp rec;
    rec.pattern = std::move(p);
    rec.method_name = name;
    rec.args[arg] = z;
    rec.receiver = x;
    rec.filter = [x, z, closure_edge](const pattern::Matching& matching,
                                      const Instance& instance) {
      return !instance.HasEdge(matching.At(x), closure_edge,
                               matching.At(z));
    };
    HeadBinding head;
    head.receiver = x;
    head.params[arg] = y;
    m.body.push_back(ParameterizedOp{std::move(rec), head});
  }

  // Interface: the closure triple must survive the call boundary.
  Scheme interface;
  GOOD_RETURN_NOT_OK(interface.AddObjectLabel(node_label));
  GOOD_RETURN_NOT_OK(interface.AddMultivaluedEdgeLabel(closure_edge));
  GOOD_RETURN_NOT_OK(
      interface.AddTriple(node_label, closure_edge, node_label));
  m.interface = interface;
  return m;
}

Result<MethodCallOp> TransitiveClosureCall(const Scheme& scheme,
                                           Symbol node_label,
                                           Symbol base_edge,
                                           const std::string& name) {
  pattern::Pattern p;
  GOOD_ASSIGN_OR_RETURN(NodeId x, p.AddObjectNode(scheme, node_label));
  GOOD_ASSIGN_OR_RETURN(NodeId y, p.AddObjectNode(scheme, node_label));
  GOOD_RETURN_NOT_OK(p.AddEdge(scheme, x, base_edge, y));
  MethodCallOp call;
  call.pattern = std::move(p);
  call.method_name = name;
  call.args[Sym("arg")] = y;
  call.receiver = x;
  return call;
}

}  // namespace good::macros
