#include "rules/rules.h"

#include <algorithm>
#include <set>

#include "graph/undo_journal.h"
#include "ops/transaction.h"

namespace good::rules {

using graph::Instance;
using graph::NodeId;
using schema::Scheme;

Status RuleEngine::AddRule(Rule rule) {
  if (rule.name.empty()) {
    return Status::InvalidArgument("rule name must not be empty");
  }
  GOOD_ASSIGN_OR_RETURN(pattern::Pattern positive,
                        rule.condition.PositivePart());
  std::set<NodeId> positive_nodes(rule.condition.positive_nodes.begin(),
                                  rule.condition.positive_nodes.end());
  if (rule.node.has_value()) {
    std::set<Symbol> labels;
    for (const auto& [edge, target] : rule.node->edges) {
      if (!labels.insert(edge).second) {
        return Status::InvalidArgument("rule '" + rule.name +
                                       "' repeats a node-action edge label");
      }
      if (!positive_nodes.contains(target)) {
        return Status::InvalidArgument(
            "rule '" + rule.name +
            "' node action references a non-positive pattern node");
      }
    }
  }
  for (const ops::EdgeSpec& spec : rule.edges) {
    if (!positive_nodes.contains(spec.source) ||
        !positive_nodes.contains(spec.target)) {
      return Status::InvalidArgument(
          "rule '" + rule.name +
          "' edge action references a non-positive pattern node");
    }
  }
  if (!rule.node.has_value() && rule.edges.empty()) {
    return Status::InvalidArgument("rule '" + rule.name +
                                   "' has no action");
  }
  rules_.push_back(std::move(rule));
  return Status::OK();
}

Status RuleEngine::ApplyRule(const Rule& rule, Scheme* scheme,
                             Instance* instance,
                             const pattern::DeltaSet* delta,
                             size_t window_start, RunReport* report,
                             size_t* enumerated) const {
  GOOD_ASSIGN_OR_RETURN(pattern::Pattern positive,
                        rule.condition.PositivePart());
  ops::MatchFilter filter;
  if (rule.condition.Negates()) {
    // The negation check probes (or matches against) the instance
    // passed at filter time — the full current database, never the
    // delta. Negation stays non-monotone-correct under delta
    // seeding because growth can only turn accepted matchings into
    // rejected ones (any newly-rejected matching already fired when it
    // was accepted, and additions are idempotent).
    GOOD_ASSIGN_OR_RETURN(filter,
                          macros::NegationFilter(rule.condition, deadline_));
  }
  const graph::UndoJournal* journal = instance->journal();
  const size_t window_end = journal != nullptr ? journal->Position() : 0;
  if (rule.node.has_value()) {
    ops::NodeAddition na(positive, rule.node->label, rule.node->edges);
    if (filter) na.set_filter(filter);
    na.set_num_threads(num_threads_);
    na.set_parallel_threshold(parallel_threshold_);
    na.set_delta(delta);
    ops::ApplyStats stats;
    GOOD_RETURN_NOT_OK(na.Apply(scheme, instance, &stats, deadline_));
    report->nodes_added += stats.nodes_added;
    report->edges_added += stats.edges_added;
    report->match += stats.match;
    if (enumerated != nullptr) *enumerated += stats.matchings;
  }
  if (!rule.edges.empty()) {
    // The edge addition matches the post-node-addition state, so when
    // the rule has both actions its delta window must extend over the
    // node addition's same-round additions.
    pattern::DeltaSet extended;
    const pattern::DeltaSet* ea_delta = delta;
    if (delta != nullptr && rule.node.has_value() && journal != nullptr &&
        journal->Position() != window_end) {
      extended = pattern::BuildDeltaSince(*journal, window_start);
      ea_delta = &extended;
    }
    ops::EdgeAddition ea(positive, rule.edges);
    if (filter) ea.set_filter(filter);
    ea.set_num_threads(num_threads_);
    ea.set_parallel_threshold(parallel_threshold_);
    ea.set_delta(ea_delta);
    ops::ApplyStats stats;
    GOOD_RETURN_NOT_OK(ea.Apply(scheme, instance, &stats, deadline_));
    report->edges_added += stats.edges_added;
    report->match += stats.match;
    if (enumerated != nullptr) *enumerated += stats.matchings;
  }
  return Status::OK();
}

Result<RunReport> RuleEngine::Step(Scheme* scheme, Instance* instance) {
  if (deadline_ != nullptr) GOOD_RETURN_NOT_OK(deadline_->Check());
  RunReport report;
  report.rounds = 1;
  // One transaction per round: a failing rule evaluation rolls back the
  // whole round, keeping reported fixpoint progress consistent with the
  // database state.
  ops::Transaction txn(scheme, instance);
  for (const Rule& rule : rules_) {
    GOOD_RETURN_NOT_OK(ApplyRule(rule, scheme, instance, /*delta=*/nullptr,
                                 /*window_start=*/0, &report,
                                 /*enumerated=*/nullptr));
  }
  report.workers_used = report.match.workers_used;
  txn.Commit();
  return report;
}

Result<RunReport> RuleEngine::Run(Scheme* scheme, Instance* instance,
                                  size_t max_rounds) {
  RunReport total;
  // Convergence is checked before any round is charged: an empty rule
  // set is trivially at fixpoint, even with max_rounds == 0 — only rule
  // sets that still need a round can exhaust the budget.
  if (rules_.empty()) return total;

  if (eval_mode_ == EvalMode::kNaive) {
    for (size_t round = 0; round < max_rounds; ++round) {
      GOOD_ASSIGN_OR_RETURN(RunReport step, Step(scheme, instance));
      total.rounds += step.rounds;
      total.nodes_added += step.nodes_added;
      total.edges_added += step.edges_added;
      total.workers_used = std::max(total.workers_used, step.workers_used);
      total.match += step.match;
      ++total.full_rounds;
      total.round_delta_nodes.push_back(step.nodes_added);
      total.round_delta_edges.push_back(step.edges_added);
      if (step.nodes_added == 0 && step.edges_added == 0) return total;
    }
    return Status::ResourceExhausted(
        "rule set did not reach a fixpoint within " +
        std::to_string(max_rounds) + " rounds");
  }

  // -- Semi-naive. One outer transaction supplies the undo journal
  //    whose windows define each rule's delta; it is committed on EVERY
  //    exit path (completed rounds persist — matching the naive
  //    contract) while each round's own nested transaction rolls back
  //    just the failing round. Watermarks are local to this call, so an
  //    interrupted run leaves no delta state behind: a re-run starts
  //    from full first evaluations against the rolled-back-to state.
  ops::Transaction run_txn(scheme, instance);
  graph::UndoJournal* journal = instance->journal();
  // Per rule: the journal position just before its previous evaluation's
  // first mutation. Its next delta window is [watermark, now) — which
  // includes its own previous additions, as self-recursive rules need.
  std::vector<size_t> watermark(rules_.size(), 0);
  std::vector<bool> evaluated(rules_.size(), false);
  // Matching count of each rule's last evaluation: the lower bound
  // charged to matchings_skipped when the rule is delta-evaluated or
  // skipped (those matchings pre-date the watermark by idempotence).
  std::vector<size_t> last_matchings(rules_.size(), 0);

  for (size_t round = 0; round < max_rounds; ++round) {
    if (deadline_ != nullptr) {
      Status deadline_status = deadline_->Check();
      if (!deadline_status.ok()) {
        run_txn.Commit();
        return deadline_status;
      }
    }
    RunReport step;
    step.rounds = 1;
    bool any_delta_eval = false;
    Status failure = Status::OK();
    {
      ops::Transaction round_txn(scheme, instance);
      for (size_t r = 0; r < rules_.size(); ++r) {
        const Rule& rule = rules_[r];
        const size_t mark_before = journal->Position();
        pattern::DeltaSet delta;
        const pattern::DeltaSet* delta_ptr = nullptr;
        if (evaluated[r]) {
          delta = pattern::BuildDeltaSince(*journal, watermark[r]);
          if (delta.empty()) {
            // Nothing grew since this rule's last evaluation: no new
            // matchings can exist, and the old ones already fired
            // (idempotence) — skip the rule outright.
            step.matchings_skipped += last_matchings[r];
            any_delta_eval = true;
            watermark[r] = mark_before;
            continue;
          }
          const size_t delta_size = delta.num_nodes() + delta.num_edges();
          const size_t db_size = instance->num_nodes() + instance->num_edges();
          if (static_cast<double>(delta_size) <=
              delta_fallback_fraction_ * static_cast<double>(db_size)) {
            delta_ptr = &delta;
          }
        }
        size_t enumerated = 0;
        failure = ApplyRule(rule, scheme, instance, delta_ptr, watermark[r],
                            &step, &enumerated);
        if (!failure.ok()) break;
        if (delta_ptr != nullptr) {
          any_delta_eval = true;
          step.matchings_skipped += last_matchings[r];
          last_matchings[r] += enumerated;
        } else {
          last_matchings[r] = enumerated;
        }
        watermark[r] = mark_before;
        evaluated[r] = true;
      }
      if (failure.ok()) round_txn.Commit();
      // Otherwise round_txn's destructor rolls back this round only —
      // truncating the journal, so no rolled-back entry can leak into a
      // later window (moot here: we return below).
    }
    if (!failure.ok()) {
      run_txn.Commit();
      return failure;
    }
    total.rounds += step.rounds;
    total.nodes_added += step.nodes_added;
    total.edges_added += step.edges_added;
    total.workers_used =
        std::max(total.workers_used, step.match.workers_used);
    total.match += step.match;
    total.matchings_skipped += step.matchings_skipped;
    if (any_delta_eval) {
      ++total.incremental_rounds;
    } else {
      ++total.full_rounds;
    }
    total.round_delta_nodes.push_back(step.nodes_added);
    total.round_delta_edges.push_back(step.edges_added);
    if (step.nodes_added == 0 && step.edges_added == 0) {
      run_txn.Commit();
      return total;
    }
  }
  run_txn.Commit();
  return Status::ResourceExhausted(
      "rule set did not reach a fixpoint within " +
      std::to_string(max_rounds) + " rounds");
}

}  // namespace good::rules
