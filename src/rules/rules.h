/// \file rules.h
/// \brief A rule layer on top of the GOOD operations (Section 5,
/// concluding remarks).
///
/// "Although GOOD programs are written in a procedural way, the basic
/// operations ... have a partly declarative nature. Indeed, the pattern
/// of such an operation can be seen as the (declarative) condition part
/// of a rule, while the bold or outlined part corresponds to a rule's
/// action. This simple mechanism for visualization of rules can provide
/// a basis for the development of graph-based, rule-based,
/// object-oriented database languages [G-Log]."
///
/// This module makes that outlook concrete: a Rule is a (possibly
/// negated) condition pattern with an additive action — a new node with
/// functional edges (a node addition) and/or edges between matched
/// nodes (an edge addition). A RuleEngine applies a rule set round-robin
/// to fixpoint, exploiting the idempotence of NA/EA (a round that adds
/// nothing is the fixpoint). Rule sets with negated conditions are not
/// stratified — non-monotone sets may oscillate — so runs carry a round
/// budget and report ResourceExhausted instead of looping.

#ifndef GOOD_RULES_RULES_H_
#define GOOD_RULES_RULES_H_

#include <optional>
#include <string>
#include <vector>

#include "macro/negation.h"
#include "ops/operations.h"
#include "schema/scheme.h"

namespace good::rules {

/// Fixpoint evaluation strategy — see ops::EvalMode. kIncremental (the
/// default) is semi-naive: from a rule's second evaluation on, only
/// matchings binding into the delta of growth since its previous
/// evaluation are enumerated.
using EvalMode = ops::EvalMode;

/// \brief The node-creating half of an action: a fresh `label` object
/// with functional `edges` to condition pattern nodes (exactly a node
/// addition's bold part).
struct NodeAction {
  Symbol label;
  std::vector<std::pair<Symbol, graph::NodeId>> edges;
};

/// \brief A graph rule: condition (with optional crossed parts) plus an
/// additive action.
struct Rule {
  std::string name;
  /// The condition; crossed parts express negation-as-absence evaluated
  /// against the current database each round.
  macros::NegatedPattern condition;
  /// Optional node-creating action.
  std::optional<NodeAction> node;
  /// Edge-creating actions between condition pattern nodes.
  std::vector<ops::EdgeSpec> edges;
};

/// \brief Outcome of one engine run.
struct RunReport {
  size_t rounds = 0;
  size_t nodes_added = 0;
  size_t edges_added = 0;
  /// Widest parallelism observed over the run's rule evaluations: 1 for
  /// a serial engine, up to num_threads() when parallel matching
  /// engaged, 0 when no rule was evaluated. Non-additive — accumulated
  /// by maximum, like pattern::MatchStats::workers_used.
  size_t workers_used = 0;
  /// Accumulated matcher search-effort counters over every rule
  /// evaluation of the run (candidates scanned, feasibility rejections,
  /// backtracks, per-depth fanout, delta rejections, plan-cache hits).
  pattern::MatchStats match;
  /// Rounds in which at least one rule was evaluated delta-seeded or
  /// skipped outright on an empty delta. Under kNaive always zero;
  /// under kIncremental the first round is always full (no rule has a
  /// watermark yet), so incremental_rounds + full_rounds == rounds with
  /// full_rounds >= 1 on any non-empty run.
  size_t incremental_rounds = 0;
  /// Rounds evaluated entirely from scratch (including every kNaive
  /// round and an incremental run's first round).
  size_t full_rounds = 0;
  /// Lower bound on matchings NOT re-enumerated thanks to delta
  /// seeding: each time a rule is delta-evaluated or skipped, the
  /// matching count of its last evaluation is charged here (the
  /// matchings known to pre-date its watermark). Zero under kNaive.
  size_t matchings_skipped = 0;
  /// Per-round delta sizes: the nodes/edges each round added, i.e. the
  /// growth frontier feeding the NEXT round's delta windows. Index 0 is
  /// the first round; a converged run's last entries are 0/0.
  std::vector<size_t> round_delta_nodes;
  std::vector<size_t> round_delta_edges;
};

/// \brief Applies a rule set to fixpoint.
class RuleEngine {
 public:
  /// Validates and stores the rule (its positive part must be a valid
  /// pattern and action references must hit positive pattern nodes).
  Status AddRule(Rule rule);

  size_t size() const { return rules_.size(); }

  /// Worker threads forwarded to every rule's node/edge addition, which
  /// use them for pattern matching only; 0 keeps the engine fully
  /// serial. Fixpoints and reports are identical either way
  /// (workers_used aside) — parallel matching is deterministic.
  void set_num_threads(size_t num_threads) { num_threads_ = num_threads; }
  size_t num_threads() const { return num_threads_; }

  /// See pattern::MatchOptions::parallel_threshold.
  void set_parallel_threshold(size_t threshold) {
    parallel_threshold_ = threshold;
  }
  size_t parallel_threshold() const { return parallel_threshold_; }

  /// Fixpoint strategy for Run (Step is always a full naive round).
  /// Both modes reach the same fixpoint (up to node-id choice — results
  /// are isomorphic) in the same number of rounds; kIncremental skips
  /// re-enumerating matchings that pre-date each rule's last
  /// evaluation. Defaults to kIncremental.
  void set_eval_mode(EvalMode mode) { eval_mode_ = mode; }
  EvalMode eval_mode() const { return eval_mode_; }

  /// Delta-vs-full crossover for kIncremental: a rule falls back to
  /// full re-evaluation when its delta (nodes + edges) exceeds this
  /// fraction of the instance (nodes + edges). 0 forces every round
  /// full (still exercising the watermark bookkeeping); >= 1 always
  /// trusts the delta.
  void set_delta_fallback_fraction(double fraction) {
    delta_fallback_fraction_ = fraction;
  }
  double delta_fallback_fraction() const { return delta_fallback_fraction_; }

  /// Execution cutoff (not owned; may be null). Checked before every
  /// round and threaded into every rule's pattern matching, so a
  /// runaway fixpoint computation surfaces kDeadlineExceeded /
  /// kCancelled promptly — with the interrupted round rolled back.
  void set_deadline(const common::Deadline* deadline) { deadline_ = deadline; }
  const common::Deadline* deadline() const { return deadline_; }

  /// Applies every rule once, in order. Returns the additions made.
  /// All-or-nothing per round: a failure (including a deadline
  /// interrupt) rolls back every addition the round already made.
  Result<RunReport> Step(schema::Scheme* scheme, graph::Instance* instance);

  /// Rounds until a round adds nothing; ResourceExhausted after
  /// `max_rounds`. Convergence is checked before a round is charged, so
  /// an empty rule set is trivially at fixpoint (zero rounds) whatever
  /// the budget — including max_rounds == 0. Completed rounds persist
  /// when a later round fails (each round is its own transaction), and
  /// under kIncremental the failing round's delta bookkeeping rewinds
  /// with it — a re-run converges to the same fixpoint as an
  /// uninterrupted run.
  Result<RunReport> Run(schema::Scheme* scheme, graph::Instance* instance,
                        size_t max_rounds = 10'000);

 private:
  /// Applies one rule's actions. With `delta` null both actions match
  /// in full; otherwise the node addition matches delta-seeded and the
  /// edge addition's window is re-read from the journal starting at
  /// `window_start` when the node addition grew the instance this
  /// round (the edge addition matches the post-node-addition state, so
  /// its delta must include those same-round additions). Accumulates
  /// additions/match stats into `report`; `enumerated` (may be null)
  /// accrues the matchings both actions enumerated.
  Status ApplyRule(const Rule& rule, schema::Scheme* scheme,
                   graph::Instance* instance, const pattern::DeltaSet* delta,
                   size_t window_start, RunReport* report,
                   size_t* enumerated) const;

  std::vector<Rule> rules_;
  size_t num_threads_ = 0;
  size_t parallel_threshold_ = pattern::kDefaultParallelThreshold;
  const common::Deadline* deadline_ = nullptr;
  EvalMode eval_mode_ = EvalMode::kIncremental;
  double delta_fallback_fraction_ = pattern::kDefaultDeltaFallbackFraction;
};

}  // namespace good::rules

#endif  // GOOD_RULES_RULES_H_
