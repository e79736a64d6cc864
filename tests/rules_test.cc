/// Tests for the rule layer (Section 5's G-Log outlook): conditions,
/// negated conditions, fixpoints, and divergence budgets.

#include <gtest/gtest.h>

#include <chrono>
#include <numeric>
#include <thread>

#include "common/deadline.h"
#include "gen/generators.h"
#include "graph/isomorphism.h"
#include "hypermedia/hypermedia.h"
#include "pattern/builder.h"
#include "pattern/matcher.h"
#include "rules/rules.h"

namespace good::rules {
namespace {

using graph::Instance;
using graph::NodeId;
using pattern::GraphBuilder;
using schema::Scheme;

class RulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scheme_ = hypermedia::BuildScheme().ValueOrDie();
  }
  Scheme scheme_;
};

/// Reference transitive closure over links-to.
std::set<std::pair<NodeId, NodeId>> ReferenceClosure(const Instance& g) {
  const auto& l = hypermedia::Labels::Get();
  std::set<std::pair<NodeId, NodeId>> closure;
  for (NodeId start : g.NodesWithLabel(l.info)) {
    std::vector<NodeId> stack{start};
    while (!stack.empty()) {
      NodeId cur = stack.back();
      stack.pop_back();
      for (NodeId next : g.OutTargets(cur, l.links_to)) {
        if (closure.emplace(start, next).second) stack.push_back(next);
      }
    }
  }
  return closure;
}

TEST_F(RulesTest, EdgeRuleReachesFixpoint) {
  // Datalog's classic: reachable(x,y) :- links(x,y).
  //                    reachable(x,z) :- reachable(x,y), links(y,z).
  RuleEngine engine;
  {
    GraphBuilder b(scheme_);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    b.Edge(x, "links-to", y);
    Rule seed;
    seed.name = "seed";
    seed.condition.full = b.BuildOrDie();
    seed.condition.positive_nodes = {x, y};
    seed.edges = {ops::EdgeSpec{x, Sym("reach"), y, /*functional=*/false}};
    engine.AddRule(std::move(seed)).OrDie();
  }
  {
    Scheme ext = scheme_;
    ext.EnsureMultivaluedEdgeLabel(Sym("reach")).OrDie();
    ext.EnsureTriple(Sym("Info"), Sym("reach"), Sym("Info")).OrDie();
    GraphBuilder b(ext);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    NodeId z = b.Object("Info");
    b.Edge(x, "reach", y).Edge(y, "links-to", z);
    Rule step;
    step.name = "step";
    step.condition.full = b.BuildOrDie();
    step.condition.positive_nodes = {x, y, z};
    step.edges = {ops::EdgeSpec{x, Sym("reach"), z, /*functional=*/false}};
    engine.AddRule(std::move(step)).OrDie();
  }

  auto g = gen::RandomInfoGraph(scheme_, 20, 40, /*seed=*/11).ValueOrDie();
  auto expected = ReferenceClosure(g);
  auto report = engine.Run(&scheme_, &g).ValueOrDie();
  EXPECT_GT(report.rounds, 1u);
  std::set<std::pair<NodeId, NodeId>> derived;
  for (const graph::Edge& e : g.AllEdges()) {
    if (e.label == Sym("reach")) derived.emplace(e.source, e.target);
  }
  EXPECT_EQ(derived, expected);
  EXPECT_TRUE(g.Validate(scheme_).ok());
}

TEST_F(RulesTest, NegatedConditionTagsOrphans) {
  // orphan(x) :- Info(x), NOT links-to(_, x).
  GraphBuilder b(scheme_);
  NodeId x = b.Object("Info");
  NodeId someone = b.Object("Info");
  b.Edge(someone, "links-to", x);
  Rule orphan;
  orphan.name = "orphan";
  orphan.condition.full = b.BuildOrDie();
  orphan.condition.positive_nodes = {x};  // someone is crossed.
  orphan.node = NodeAction{Sym("Orphan"), {{Sym("is"), x}}};
  RuleEngine engine;
  engine.AddRule(std::move(orphan)).OrDie();

  auto built = hypermedia::BuildInstance(scheme_).ValueOrDie();
  Instance g = std::move(built.instance);
  auto report = engine.Run(&scheme_, &g).ValueOrDie();
  // Music History is the only document no other document links to.
  // (The four inner data-infos ARE linked from their documents.)
  size_t expected = 0;
  const auto& l = hypermedia::Labels::Get();
  for (NodeId info : g.NodesWithLabel(l.info)) {
    if (g.InSources(info, l.links_to).empty()) ++expected;
  }
  EXPECT_EQ(report.nodes_added, expected);
  EXPECT_EQ(g.CountNodesWithLabel(Sym("Orphan")), expected);
  EXPECT_GE(expected, 1u);
}

TEST_F(RulesTest, RepeatedPositiveNodeIsRejected) {
  // Listing x twice would make the node count match the list length
  // and hide the crossed node, so the rule would tag every Info.
  GraphBuilder b(scheme_);
  NodeId x = b.Object("Info");
  NodeId someone = b.Object("Info");
  b.Edge(someone, "links-to", x);
  Rule orphan;
  orphan.name = "orphan";
  orphan.condition.full = b.BuildOrDie();
  orphan.condition.positive_nodes = {x, x};
  orphan.node = NodeAction{Sym("Orphan"), {{Sym("is"), x}}};
  RuleEngine engine;
  EXPECT_TRUE(engine.AddRule(std::move(orphan)).IsInvalidArgument());
}

TEST_F(RulesTest, RulesComposeAcrossRounds) {
  // Rule 1 derives Tag objects; rule 2 (whose condition mentions Tag)
  // only fires in later rounds, showing the round-robin fixpoint.
  Scheme ext = scheme_;
  ext.EnsureObjectLabel(Sym("Tag")).OrDie();
  ext.EnsureFunctionalEdgeLabel(Sym("of")).OrDie();
  ext.EnsureTriple(Sym("Tag"), Sym("of"), Sym("Info")).OrDie();

  RuleEngine engine;
  {
    GraphBuilder b(scheme_);
    NodeId x = b.Object("Info");
    Rule r1;
    r1.name = "tag";
    r1.condition.full = b.BuildOrDie();
    r1.condition.positive_nodes = {x};
    r1.node = NodeAction{Sym("Tag"), {{Sym("of"), x}}};
    engine.AddRule(std::move(r1)).OrDie();
  }
  {
    GraphBuilder b(ext);
    NodeId t = b.Object("Tag");
    NodeId x = b.Object("Info");
    b.Edge(t, "of", x);
    Rule r2;
    r2.name = "seen";
    r2.condition.full = b.BuildOrDie();
    r2.condition.positive_nodes = {t, x};
    r2.edges = {ops::EdgeSpec{x, Sym("tagged-by"), t, /*functional=*/true}};
    engine.AddRule(std::move(r2)).OrDie();
  }
  auto built = hypermedia::BuildInstance(scheme_).ValueOrDie();
  Instance g = std::move(built.instance);
  auto report = engine.Run(&scheme_, &g).ValueOrDie();
  EXPECT_GE(report.rounds, 2u);
  const auto& l = hypermedia::Labels::Get();
  for (NodeId info : g.NodesWithLabel(l.info)) {
    EXPECT_TRUE(g.FunctionalTarget(info, Sym("tagged-by")).has_value());
  }
}

TEST_F(RulesTest, DivergingNodeRuleHitsBudget) {
  // chain(x) => new A linked to x: every round's new node matches again.
  Scheme s;
  s.AddObjectLabel(Sym("A")).OrDie();
  Instance g;
  (void)*g.AddObjectNode(s, Sym("A"));
  GraphBuilder b(s);
  NodeId x = b.Object("A");
  Rule grow;
  grow.name = "grow";
  grow.condition.full = b.BuildOrDie();
  grow.condition.positive_nodes = {x};
  grow.node = NodeAction{Sym("A"), {{Sym("from"), x}}};
  RuleEngine engine;
  engine.AddRule(std::move(grow)).OrDie();
  EXPECT_TRUE(engine.Run(&s, &g, /*max_rounds=*/20).status()
                  .IsResourceExhausted());
}

TEST_F(RulesTest, EmptyRuleSetIsTriviallyAtFixpoint) {
  // No rules means no round can add anything: the engine is already at
  // fixpoint and must say so without charging the round budget — even a
  // budget of zero.
  Scheme s;
  s.AddObjectLabel(Sym("A")).OrDie();
  Instance g;
  (void)*g.AddObjectNode(s, Sym("A"));
  RuleEngine engine;
  auto zero_budget = engine.Run(&s, &g, /*max_rounds=*/0);
  ASSERT_TRUE(zero_budget.ok());
  EXPECT_EQ(zero_budget->rounds, 0u);
  EXPECT_EQ(zero_budget->nodes_added, 0u);
  EXPECT_EQ(zero_budget->edges_added, 0u);
  auto defaulted = engine.Run(&s, &g);
  ASSERT_TRUE(defaulted.ok());
  EXPECT_EQ(defaulted->rounds, 0u);
}

TEST_F(RulesTest, ZeroRoundBudgetStillBoundsNonEmptyRuleSets) {
  // A rule set that needs at least one round to prove convergence must
  // exhaust a zero budget — only the empty set is free.
  Scheme s;
  s.AddObjectLabel(Sym("A")).OrDie();
  Instance g;
  (void)*g.AddObjectNode(s, Sym("A"));
  GraphBuilder b(s);
  NodeId x = b.Object("A");
  Rule grow;
  grow.name = "grow";
  grow.condition.full = b.BuildOrDie();
  grow.condition.positive_nodes = {x};
  grow.node = NodeAction{Sym("A"), {{Sym("from"), x}}};
  RuleEngine engine;
  engine.AddRule(std::move(grow)).OrDie();
  EXPECT_TRUE(engine.Run(&s, &g, /*max_rounds=*/0).status()
                  .IsResourceExhausted());
  // The zero-budget probe must not have touched the instance.
  EXPECT_EQ(g.num_nodes(), 1u);
}

TEST_F(RulesTest, ValidationRejectsBadRules) {
  RuleEngine engine;
  GraphBuilder b(scheme_);
  NodeId x = b.Object("Info");
  NodeId hidden = b.Object("Info");
  b.Edge(hidden, "links-to", x);

  Rule nameless;
  nameless.condition.full = b.graph();
  nameless.condition.positive_nodes = {x};
  nameless.node = NodeAction{Sym("T"), {{Sym("of"), x}}};
  EXPECT_TRUE(engine.AddRule(nameless).IsInvalidArgument());

  Rule actionless;
  actionless.name = "a";
  actionless.condition.full = b.graph();
  actionless.condition.positive_nodes = {x};
  EXPECT_TRUE(engine.AddRule(actionless).IsInvalidArgument());

  Rule crossed_ref;
  crossed_ref.name = "c";
  crossed_ref.condition.full = b.graph();
  crossed_ref.condition.positive_nodes = {x};
  // Action references the crossed node — invalid.
  crossed_ref.node = NodeAction{Sym("T"), {{Sym("of"), hidden}}};
  EXPECT_TRUE(engine.AddRule(crossed_ref).IsInvalidArgument());

  Rule dup_labels;
  dup_labels.name = "d";
  dup_labels.condition.full = b.graph();
  dup_labels.condition.positive_nodes = {x};
  dup_labels.node = NodeAction{Sym("T"), {{Sym("of"), x}, {Sym("of"), x}}};
  EXPECT_TRUE(engine.AddRule(dup_labels).IsInvalidArgument());
  EXPECT_EQ(engine.size(), 0u);
}

// ---------------------------------------------------------------------------
// Semi-naive (incremental) evaluation
// ---------------------------------------------------------------------------

/// The seed+step transitive-closure pair over links-to, deriving reach.
void AddClosureRules(const Scheme& scheme, RuleEngine* engine) {
  {
    GraphBuilder b(scheme);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    b.Edge(x, "links-to", y);
    Rule seed;
    seed.name = "seed";
    seed.condition.full = b.BuildOrDie();
    seed.condition.positive_nodes = {x, y};
    seed.edges = {ops::EdgeSpec{x, Sym("reach"), y, /*functional=*/false}};
    engine->AddRule(std::move(seed)).OrDie();
  }
  {
    Scheme ext = scheme;
    ext.EnsureMultivaluedEdgeLabel(Sym("reach")).OrDie();
    ext.EnsureTriple(Sym("Info"), Sym("reach"), Sym("Info")).OrDie();
    GraphBuilder b(ext);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    NodeId z = b.Object("Info");
    b.Edge(x, "reach", y).Edge(y, "links-to", z);
    Rule step;
    step.name = "step";
    step.condition.full = b.BuildOrDie();
    step.condition.positive_nodes = {x, y, z};
    step.edges = {ops::EdgeSpec{x, Sym("reach"), z, /*functional=*/false}};
    engine->AddRule(std::move(step)).OrDie();
  }
}

std::set<std::pair<NodeId, NodeId>> DerivedReach(const Instance& g) {
  std::set<std::pair<NodeId, NodeId>> derived;
  for (const graph::Edge& e : g.AllEdges()) {
    if (e.label == Sym("reach")) derived.emplace(e.source, e.target);
  }
  return derived;
}

TEST_F(RulesTest, IncrementalMatchesNaiveOnClosure) {
  auto start = gen::RandomInfoGraph(scheme_, 20, 40, /*seed=*/11).ValueOrDie();
  auto expected = ReferenceClosure(start);

  Scheme naive_scheme = scheme_;
  Instance naive_g = start;
  RuleEngine naive;
  AddClosureRules(scheme_, &naive);
  naive.set_eval_mode(EvalMode::kNaive);
  auto naive_report = naive.Run(&naive_scheme, &naive_g).ValueOrDie();
  EXPECT_EQ(DerivedReach(naive_g), expected);
  EXPECT_EQ(naive_report.incremental_rounds, 0u);
  EXPECT_EQ(naive_report.full_rounds, naive_report.rounds);
  EXPECT_EQ(naive_report.matchings_skipped, 0u);

  Scheme inc_scheme = scheme_;
  Instance inc_g = start;
  RuleEngine inc;
  AddClosureRules(scheme_, &inc);
  ASSERT_EQ(inc.eval_mode(), EvalMode::kIncremental);  // the default
  // Fraction 1.0: a delta is a subset of the instance, so the fallback
  // never triggers and every post-first round is delta-seeded.
  inc.set_delta_fallback_fraction(1.0);
  auto inc_report = inc.Run(&inc_scheme, &inc_g).ValueOrDie();

  // Same fixpoint (edge rules touch no node ids, so literally equal),
  // in the same number of rounds.
  EXPECT_EQ(DerivedReach(inc_g), expected);
  EXPECT_EQ(inc_report.rounds, naive_report.rounds);
  EXPECT_EQ(inc_report.nodes_added, naive_report.nodes_added);
  EXPECT_EQ(inc_report.edges_added, naive_report.edges_added);

  // Round-shape observability: first round full, the rest incremental.
  EXPECT_EQ(inc_report.full_rounds, 1u);
  EXPECT_EQ(inc_report.incremental_rounds, inc_report.rounds - 1);
  EXPECT_GT(inc_report.matchings_skipped, 0u);
  ASSERT_EQ(inc_report.round_delta_nodes.size(), inc_report.rounds);
  ASSERT_EQ(inc_report.round_delta_edges.size(), inc_report.rounds);
  EXPECT_EQ(std::accumulate(inc_report.round_delta_edges.begin(),
                            inc_report.round_delta_edges.end(), size_t{0}),
            inc_report.edges_added);
  EXPECT_EQ(inc_report.round_delta_edges.back(), 0u);  // converged round

  // The point of semi-naive: strictly less search effort.
  EXPECT_LT(inc_report.match.candidates_scanned,
            naive_report.match.candidates_scanned);
}

TEST_F(RulesTest, MaxRoundsExhaustionThenRerunConverges) {
  // A chain of 10 needs ~9 step rounds; a budget of 3 exhausts with the
  // completed rounds persisted. The interrupted run's delta bookkeeping
  // is local to the run, so a fresh Run picks up the partial closure and
  // converges to exactly the reference fixpoint.
  auto g = gen::InfoChain(scheme_, 10).ValueOrDie();
  auto expected = ReferenceClosure(g);
  const size_t edges_before = g.num_edges();

  RuleEngine engine;
  AddClosureRules(scheme_, &engine);
  EXPECT_TRUE(engine.Run(&scheme_, &g, /*max_rounds=*/3).status()
                  .IsResourceExhausted());
  EXPECT_GT(g.num_edges(), edges_before);       // completed rounds persist
  EXPECT_LT(DerivedReach(g).size(), expected.size());  // but not all of it

  auto report = engine.Run(&scheme_, &g).ValueOrDie();
  EXPECT_EQ(DerivedReach(g), expected);
  EXPECT_TRUE(g.Validate(scheme_).ok());
  // The re-run has no memory of the first: its first round is full.
  EXPECT_EQ(report.full_rounds, 1u);
}

TEST_F(RulesTest, CancelMidRunRewindsDeltaAndRerunConverges) {
  // Cancellation lands mid-fixpoint; the interrupted round rolls back
  // (including its delta bookkeeping) and a re-run converges to the
  // same fixpoint as a never-interrupted run.
  auto reference = gen::InfoChain(scheme_, 150).ValueOrDie();
  auto g = reference;
  Scheme ref_scheme = scheme_;
  RuleEngine ref_engine;
  AddClosureRules(scheme_, &ref_engine);
  ref_engine.Run(&ref_scheme, &reference).ValueOrDie();

  RuleEngine engine;
  AddClosureRules(scheme_, &engine);
  common::CancelToken token;
  common::Deadline deadline;
  deadline.ObserveCancellation(&token);
  engine.set_deadline(&deadline);
  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    token.Cancel();
  });
  auto interrupted = engine.Run(&scheme_, &g);
  canceller.join();
  if (!interrupted.ok()) {
    EXPECT_TRUE(interrupted.status().IsCancelled()) << interrupted.status();
    // Completed rounds persist; the interrupted round is fully rolled
    // back, leaving a valid instance.
    EXPECT_TRUE(g.Validate(scheme_).ok());
  }
  // Whether or not the cancel landed in time, a fresh run must reach
  // the reference fixpoint. Edge rules create no nodes, so both copies
  // kept the start instance's node ids and must be literally equal
  // (IsIsomorphic would be overkill on a graph this dense).
  engine.set_deadline(nullptr);
  engine.Run(&scheme_, &g).ValueOrDie();
  ASSERT_EQ(g.num_nodes(), reference.num_nodes());
  ASSERT_EQ(g.num_edges(), reference.num_edges());
  std::set<graph::Edge> got, want;
  for (const graph::Edge& e : g.AllEdges()) got.insert(e);
  for (const graph::Edge& e : reference.AllEdges()) want.insert(e);
  EXPECT_EQ(got == want, true);
}

TEST_F(RulesTest, NegationSeesCurrentDatabaseNotDelta) {
  // mark:  x -links-to-> y  =>  x -m-> y
  // guard: x -links-to-> y, NOT x -m-> y  =>  new Tag{src: x, of: y}
  //
  // The crossed condition must be evaluated against the CURRENT
  // database every round — never against the delta. With mark ordered
  // first, guard sees the m edges added earlier in the same round and
  // tags nothing; ordered last, guard tags every pair in round 1 and
  // must not re-fire in round 2 (its delta holds only m edges and Tag
  // nodes, and the now-present m edges reject any re-enumeration).
  Scheme ext = scheme_;
  ext.EnsureMultivaluedEdgeLabel(Sym("m")).OrDie();
  ext.EnsureTriple(Sym("Info"), Sym("m"), Sym("Info")).OrDie();

  auto make_mark = [&] {
    GraphBuilder b(scheme_);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    b.Edge(x, "links-to", y);
    Rule mark;
    mark.name = "mark";
    mark.condition.full = b.BuildOrDie();
    mark.condition.positive_nodes = {x, y};
    mark.edges = {ops::EdgeSpec{x, Sym("m"), y, /*functional=*/false}};
    return mark;
  };
  auto make_guard = [&] {
    GraphBuilder b(ext);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    b.Edge(x, "links-to", y).Edge(x, "m", y);
    Rule guard;
    guard.name = "guard";
    guard.condition.full = b.BuildOrDie();
    guard.condition.positive_nodes = {x, y};
    guard.condition.crossed_edges = {graph::Edge{x, Sym("m"), y}};
    guard.node = NodeAction{Sym("Tag"), {{Sym("src"), x}, {Sym("of"), y}}};
    return guard;
  };

  auto start = gen::RandomInfoGraph(scheme_, 6, 9, /*seed=*/5).ValueOrDie();
  std::set<std::pair<NodeId, NodeId>> pairs;
  const auto& l = hypermedia::Labels::Get();
  for (const graph::Edge& e : start.AllEdges()) {
    if (e.label == l.links_to) pairs.emplace(e.source, e.target);
  }
  ASSERT_GT(pairs.size(), 0u);

  for (EvalMode mode : {EvalMode::kNaive, EvalMode::kIncremental}) {
    {
      // mark before guard: zero tags, in every mode.
      Scheme s = scheme_;
      Instance g = start;
      RuleEngine engine;
      engine.set_eval_mode(mode);
      engine.AddRule(make_mark()).OrDie();
      engine.AddRule(make_guard()).OrDie();
      auto report = engine.Run(&s, &g).ValueOrDie();
      EXPECT_EQ(g.CountNodesWithLabel(Sym("Tag")), 0u)
          << "mode=" << static_cast<int>(mode);
      EXPECT_EQ(report.nodes_added, 0u);
    }
    {
      // guard before mark: one tag per links-to pair, settled after the
      // first round — no spurious round-2 tags from delta re-matching.
      Scheme s = scheme_;
      Instance g = start;
      RuleEngine engine;
      engine.set_eval_mode(mode);
      engine.AddRule(make_guard()).OrDie();
      engine.AddRule(make_mark()).OrDie();
      auto report = engine.Run(&s, &g).ValueOrDie();
      EXPECT_EQ(g.CountNodesWithLabel(Sym("Tag")), pairs.size())
          << "mode=" << static_cast<int>(mode);
      EXPECT_EQ(report.nodes_added, pairs.size());
      EXPECT_TRUE(g.Validate(s).ok());
    }
  }
}

}  // namespace
}  // namespace good::rules
