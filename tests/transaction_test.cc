/// Tests for transactional execution: exact undo-journal rollback
/// (graph/undo_journal.h, ops/transaction.h), all-or-nothing operation
/// and method-call semantics, and deadline / cancellation propagation
/// (common/deadline.h) through the executor and rule engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "graph/instance.h"
#include "graph/isomorphism.h"
#include "graph/undo_journal.h"
#include "hypermedia/hypermedia.h"
#include "hypermedia/methods.h"
#include "method/method.h"
#include "ops/operations.h"
#include "ops/transaction.h"
#include "pattern/builder.h"
#include "rules/rules.h"
#include "schema/scheme.h"

namespace good {
namespace {

using graph::Instance;
using graph::NodeId;
using pattern::GraphBuilder;
using schema::Scheme;

Scheme DocScheme() {
  Scheme s;
  s.AddObjectLabel(Sym("Doc")).OrDie();
  s.AddPrintableLabel(Sym("Str"), ValueKind::kString).OrDie();
  s.AddFunctionalEdgeLabel(Sym("title")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("refs")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("title"), Sym("Str")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("refs"), Sym("Doc")).OrDie();
  return s;
}

/// A byte-exact observation of an instance: fingerprint, the node and
/// edge sets, and every alive node's out- and in-edge sequence in
/// internal order. AllEdges() sorts, so only the per-node sequences
/// catch a rollback that restores the right edges in the wrong list
/// order. Rollback must restore all of it — not just an isomorphic
/// copy.
struct Observation {
  std::string fingerprint;
  std::vector<NodeId> nodes;
  std::vector<graph::Edge> edges;
  std::vector<std::vector<std::pair<Symbol, NodeId>>> out_edges;
  std::vector<std::vector<std::pair<NodeId, Symbol>>> in_edges;

  static Observation Of(const Instance& instance) {
    Observation o{instance.Fingerprint(), instance.AllNodes(),
                  instance.AllEdges(), {}, {}};
    for (NodeId node : o.nodes) {
      const auto& out = instance.OutEdges(node);
      const auto& in = instance.InEdges(node);
      o.out_edges.emplace_back(out.begin(), out.end());
      o.in_edges.emplace_back(in.begin(), in.end());
    }
    return o;
  }

  friend bool operator==(const Observation&, const Observation&) = default;
};

// ---------------------------------------------------------------------------
// UndoJournal: exact reverse replay of every mutation kind.
// ---------------------------------------------------------------------------

TEST(UndoJournalTest, RollbackRestoresExactStateAcrossAllMutationKinds) {
  Scheme scheme = DocScheme();
  Instance instance;
  NodeId d1 = *instance.AddObjectNode(scheme, Sym("Doc"));
  NodeId d2 = *instance.AddObjectNode(scheme, Sym("Doc"));
  NodeId d3 = *instance.AddObjectNode(scheme, Sym("Doc"));
  NodeId t1 = *instance.AddPrintableNode(scheme, Sym("Str"), Value("a"));
  instance.AddEdge(scheme, d1, Sym("title"), t1).OrDie();
  instance.AddEdge(scheme, d1, Sym("refs"), d2).OrDie();
  instance.AddEdge(scheme, d1, Sym("refs"), d3).OrDie();
  instance.AddEdge(scheme, d2, Sym("refs"), d2).OrDie();  // self-loop
  instance.AddEdge(scheme, d2, Sym("refs"), d3).OrDie();
  const Observation before = Observation::Of(instance);

  graph::UndoJournal journal;
  instance.AttachJournal(&journal);
  // Every mutation kind: node add (object and printable), edge add
  // (fresh label entry and existing entry, plus a self-loop), edge
  // remove, and node removal with incident edges and a print value.
  NodeId d4 = *instance.AddObjectNode(scheme, Sym("Doc"));
  NodeId t2 = *instance.AddPrintableNode(scheme, Sym("Str"), Value("b"));
  instance.AddEdge(scheme, d4, Sym("title"), t2).OrDie();
  instance.AddEdge(scheme, d4, Sym("refs"), d4).OrDie();
  instance.AddEdge(scheme, d4, Sym("refs"), d1).OrDie();
  instance.RemoveEdge(d1, Sym("refs"), d2).OrDie();
  instance.RemoveNode(d2).OrDie();  // kills its self-loop + in-edges
  instance.RemoveNode(t1).OrDie();  // printable with an in-edge
  EXPECT_NE(Observation::Of(instance), before);

  journal.Rollback(&instance);
  instance.DetachJournal();
  EXPECT_EQ(Observation::Of(instance), before);
  EXPECT_TRUE(instance.Validate(scheme).ok());
}

TEST(UndoJournalTest, RollbackReleasesNodeIdsForReallocation) {
  Scheme scheme = DocScheme();
  Instance instance;
  NodeId d1 = *instance.AddObjectNode(scheme, Sym("Doc"));
  (void)d1;

  graph::UndoJournal journal;
  instance.AttachJournal(&journal);
  NodeId temp = *instance.AddObjectNode(scheme, Sym("Doc"));
  journal.Rollback(&instance);
  instance.DetachJournal();

  // The rolled-back id is handed out again: recovery and re-execution
  // assign the same ids a never-failed run would.
  NodeId again = *instance.AddObjectNode(scheme, Sym("Doc"));
  EXPECT_EQ(again, temp);
}

TEST(UndoJournalTest, CopiesNeverCarryTheJournal) {
  Scheme scheme = DocScheme();
  Instance instance;
  graph::UndoJournal journal;
  instance.AttachJournal(&journal);

  Instance copy = instance;
  EXPECT_EQ(copy.journal(), nullptr);
  Instance assigned;
  assigned = instance;
  EXPECT_EQ(assigned.journal(), nullptr);

  // Moves transfer the journal and detach the source.
  Instance moved = std::move(instance);
  EXPECT_EQ(moved.journal(), &journal);
  moved.DetachJournal();
}

// ---------------------------------------------------------------------------
// Transaction scopes: commit, rollback, destructor, savepoint nesting.
// ---------------------------------------------------------------------------

TEST(TransactionTest, DestructorRollsBackUncommittedScope) {
  Scheme scheme = DocScheme();
  Instance instance;
  NodeId d1 = *instance.AddObjectNode(scheme, Sym("Doc"));
  const Observation before = Observation::Of(instance);
  const Scheme scheme_before = scheme;
  {
    ops::Transaction txn(&scheme, &instance);
    instance.AddObjectNode(scheme, Sym("Doc")).ValueOrDie();
    instance.AddEdge(scheme, d1, Sym("refs"), d1).OrDie();
    scheme.EnsureObjectLabel(Sym("Temp")).OrDie();
    // No Commit: the destructor rolls back.
  }
  EXPECT_EQ(Observation::Of(instance), before);
  EXPECT_TRUE(scheme == scheme_before);
  EXPECT_FALSE(scheme.HasLabel(Sym("Temp")));
  EXPECT_EQ(instance.journal(), nullptr);
}

TEST(TransactionTest, CommitKeepsMutationsAndDetaches) {
  Scheme scheme = DocScheme();
  Instance instance;
  {
    ops::Transaction txn(&scheme, &instance);
    instance.AddObjectNode(scheme, Sym("Doc")).ValueOrDie();
    txn.Commit();
  }
  EXPECT_EQ(instance.CountNodesWithLabel(Sym("Doc")), 1u);
  EXPECT_EQ(instance.journal(), nullptr);
}

TEST(TransactionTest, NestedScopeActsAsSavepoint) {
  Scheme scheme = DocScheme();
  Instance instance;
  NodeId d1 = *instance.AddObjectNode(scheme, Sym("Doc"));

  ops::Transaction outer(&scheme, &instance);
  instance.AddEdge(scheme, d1, Sym("refs"), d1).OrDie();
  const Observation mid = Observation::Of(instance);
  {
    ops::Transaction inner(&scheme, &instance);
    instance.AddObjectNode(scheme, Sym("Doc")).ValueOrDie();
    inner.Rollback();
  }
  // The inner rollback undid only the inner suffix.
  EXPECT_EQ(Observation::Of(instance), mid);
  EXPECT_TRUE(instance.HasEdge(d1, Sym("refs"), d1));
  outer.Commit();
  EXPECT_TRUE(instance.HasEdge(d1, Sym("refs"), d1));
}

TEST(TransactionTest, OuterRollbackUndoesCommittedInnerScope) {
  Scheme scheme = DocScheme();
  Instance instance;
  NodeId d1 = *instance.AddObjectNode(scheme, Sym("Doc"));
  const Observation before = Observation::Of(instance);

  {
    ops::Transaction outer(&scheme, &instance);
    instance.AddEdge(scheme, d1, Sym("refs"), d1).OrDie();
    {
      ops::Transaction inner(&scheme, &instance);
      instance.AddObjectNode(scheme, Sym("Doc")).ValueOrDie();
      inner.Commit();  // Keeps entries for the outer scope.
    }
    // No outer Commit: everything — including the committed inner
    // region — rolls back, exactly what a failed method call needs.
  }
  EXPECT_EQ(Observation::Of(instance), before);
}

// ---------------------------------------------------------------------------
// Operation-level atomicity.
// ---------------------------------------------------------------------------

TEST(OperationAtomicityTest, FailedEdgeAdditionRollsBackMaterializedPrintables) {
  // The EA materializes a printable for its pattern constant, then
  // fails the functional-consistency check. The materialized node must
  // vanish with the rollback.
  Scheme scheme = DocScheme();
  Instance instance;
  NodeId d1 = *instance.AddObjectNode(scheme, Sym("Doc"));
  NodeId t1 = *instance.AddPrintableNode(scheme, Sym("Str"), Value("old"));
  instance.AddEdge(scheme, d1, Sym("title"), t1).OrDie();
  const Observation before = Observation::Of(instance);

  GraphBuilder b(scheme);
  NodeId doc = b.Object("Doc");
  NodeId fresh = b.Printable("Str", Value("new"));
  ops::EdgeAddition ea(b.BuildOrDie(),
                       {{doc, Sym("title"), fresh, /*functional=*/true}});
  Status s = ea.Apply(&scheme, &instance);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsFailedPrecondition());
  EXPECT_EQ(Observation::Of(instance), before);
  EXPECT_FALSE(instance.FindPrintable(Sym("Str"), Value("new")).has_value());
  EXPECT_TRUE(instance.Validate(scheme).ok());
}

TEST(OperationAtomicityTest, ExpiredDeadlineLeavesDatabaseUntouched) {
  Scheme scheme = DocScheme();
  Instance instance;
  instance.AddObjectNode(scheme, Sym("Doc")).ValueOrDie();
  const Observation before = Observation::Of(instance);
  const Scheme scheme_before = scheme;

  GraphBuilder b(scheme);
  NodeId doc = b.Object("Doc");
  ops::NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc}});
  common::Deadline deadline =
      common::Deadline::After(std::chrono::seconds(-1));
  Status s = na.Apply(&scheme, &instance, nullptr, &deadline);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDeadlineExceeded());
  EXPECT_EQ(Observation::Of(instance), before);
  EXPECT_TRUE(scheme == scheme_before);
}

// ---------------------------------------------------------------------------
// Executor: failed programs and method calls roll back whole.
// ---------------------------------------------------------------------------

class ExecutorAtomicityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scheme_ = hypermedia::BuildScheme().ValueOrDie();
    auto built = hypermedia::BuildInstance(scheme_).ValueOrDie();
    instance_ = std::move(built.instance);
    registry_.Register(hypermedia::MakeUpdateMethod(scheme_).ValueOrDie())
        .OrDie();
  }

  method::MethodCallOp UpdateCall() {
    return hypermedia::MakeUpdateCall(scheme_, "Music History",
                                      Date{1990, 1, 16})
        .ValueOrDie();
  }

  Scheme scheme_;
  Instance instance_;
  method::MethodRegistry registry_;
};

TEST_F(ExecutorAtomicityTest, BudgetExhaustedMidCallRollsBackByteExact) {
  const Observation before = Observation::Of(instance_);
  const Scheme scheme_before = scheme_;

  // The Update call needs several steps (binder + body + cleanup); a
  // budget of 2 dies mid-body after real mutations happened.
  method::ExecOptions options;
  options.max_steps = 2;
  method::Executor executor(&registry_, options);
  Status s = executor.Execute(UpdateCall(), &scheme_, &instance_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted());

  EXPECT_EQ(Observation::Of(instance_), before);
  EXPECT_TRUE(scheme_ == scheme_before);
  EXPECT_TRUE(instance_.Validate(scheme_).ok());
  EXPECT_EQ(instance_.journal(), nullptr);
}

TEST_F(ExecutorAtomicityTest, EveryBudgetCutoffRollsBackByteExact) {
  // Sweep the budget from 1 to enough: wherever the call dies, the
  // database must come back byte-identical.
  const Observation before = Observation::Of(instance_);
  size_t succeeded_at = 0;
  for (size_t budget = 1; budget <= 12; ++budget) {
    method::ExecOptions options;
    options.max_steps = budget;
    method::Executor executor(&registry_, options);
    Status s = executor.Execute(UpdateCall(), &scheme_, &instance_);
    if (s.ok()) {
      succeeded_at = budget;
      break;
    }
    ASSERT_TRUE(s.IsResourceExhausted()) << s.ToString();
    ASSERT_EQ(Observation::Of(instance_), before) << "budget " << budget;
  }
  EXPECT_GT(succeeded_at, 1u) << "call must need several steps";
}

TEST_F(ExecutorAtomicityTest, CancelledTokenRollsBackAndSurfaces) {
  const Observation before = Observation::Of(instance_);
  common::CancelToken token;
  token.Cancel();
  method::ExecOptions options;
  options.deadline.ObserveCancellation(&token);
  method::Executor executor(&registry_, options);
  Status s = executor.Execute(UpdateCall(), &scheme_, &instance_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCancelled());
  EXPECT_EQ(Observation::Of(instance_), before);
}

TEST_F(ExecutorAtomicityTest, ExpiredDeadlineSurfacesFromExecutor) {
  common::CancelToken token;  // not cancelled
  method::ExecOptions options;
  options.deadline = common::Deadline::After(std::chrono::seconds(-1));
  options.deadline.ObserveCancellation(&token);
  method::Executor executor(&registry_, options);
  Status s = executor.Execute(UpdateCall(), &scheme_, &instance_);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDeadlineExceeded());
}

TEST(ExecuteAllAtomicityTest, EarlierOpsPersistWhenALaterOpFails) {
  // Each operation of a sequence is its own transaction (matching the
  // one-WAL-record-per-operation protocol): op 1 persists, the failing
  // op 2 rolls back alone.
  Scheme scheme = DocScheme();
  Instance instance;
  NodeId d1 = *instance.AddObjectNode(scheme, Sym("Doc"));
  NodeId t1 = *instance.AddPrintableNode(scheme, Sym("Str"), Value("old"));
  instance.AddEdge(scheme, d1, Sym("title"), t1).OrDie();

  GraphBuilder b1(scheme);
  NodeId doc1 = b1.Object("Doc");
  ops::NodeAddition ok_op(b1.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc1}});

  // Functional 'title' edge to a second value: FailedPrecondition.
  GraphBuilder b2(scheme);
  NodeId doc2 = b2.Object("Doc");
  NodeId fresh = b2.Printable("Str", Value("new"));
  ops::EdgeAddition bad_op(b2.BuildOrDie(),
                           {{doc2, Sym("title"), fresh, /*functional=*/true}});

  method::MethodRegistry registry;
  method::Executor executor(&registry);
  std::vector<method::Operation> program{method::Operation(ok_op),
                                         method::Operation(bad_op)};
  Status s = executor.ExecuteAll(program, &scheme, &instance);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsFailedPrecondition());
  EXPECT_EQ(instance.CountNodesWithLabel(Sym("Tag")), 1u)
      << "the successful first operation must persist";
  EXPECT_FALSE(instance.FindPrintable(Sym("Str"), Value("new")).has_value())
      << "the failing op's materialized printable must roll back";
  EXPECT_TRUE(instance.Validate(scheme).ok());
  EXPECT_EQ(instance.journal(), nullptr);
}

// ---------------------------------------------------------------------------
// RuleEngine: a failed round rolls back whole.
// ---------------------------------------------------------------------------

rules::Rule TagDocsRule(const Scheme& scheme) {
  rules::Rule rule;
  rule.name = "tag-docs";
  GraphBuilder b(scheme);
  NodeId doc = b.Object("Doc");
  rule.condition.full = b.BuildOrDie();
  rule.condition.positive_nodes = {doc};
  rule.node = rules::NodeAction{Sym("Tag"), {{Sym("of"), doc}}};
  return rule;
}

/// A rule whose action is undefined on the test instance: a functional
/// 'title' edge from every Doc to every Str, which conflicts as soon as
/// there are two strings (FailedPrecondition from the edge addition).
rules::Rule BadTitleRule(const Scheme& scheme) {
  rules::Rule rule;
  rule.name = "bad-title";
  GraphBuilder b(scheme);
  NodeId doc = b.Object("Doc");
  NodeId str = b.Printable("Str");  // valueless: matches every Str
  rule.condition.full = b.BuildOrDie();
  rule.condition.positive_nodes = {doc, str};
  rule.edges = {ops::EdgeSpec{doc, Sym("title"), str, /*functional=*/true}};
  return rule;
}

TEST(RuleEngineTransactionTest, FailedRoundRollsBackEveryRuleOfTheRound) {
  Scheme scheme = DocScheme();
  Instance instance;
  instance.AddObjectNode(scheme, Sym("Doc")).ValueOrDie();
  instance.AddPrintableNode(scheme, Sym("Str"), Value("a")).ValueOrDie();
  const Observation before = Observation::Of(instance);
  const Scheme scheme_before = scheme;

  // Rule 1 succeeds (adds a Tag node and extends the scheme); rule 2
  // fails mid-round. The round is one transaction, so rule 1's
  // additions — including the scheme extension — must vanish.
  rules::RuleEngine engine;
  engine.AddRule(TagDocsRule(scheme)).OrDie();
  engine.AddRule(BadTitleRule(scheme)).OrDie();
  {
    // Conflict needs a second Str successor for the functional title.
    Instance with_conflict = instance;
    Scheme s2 = scheme;
    with_conflict.AddPrintableNode(s2, Sym("Str"), Value("b")).ValueOrDie();
    const Observation conflicted = Observation::Of(with_conflict);
    auto report = engine.Step(&s2, &with_conflict);
    ASSERT_FALSE(report.ok());
    EXPECT_TRUE(report.status().IsFailedPrecondition());
    EXPECT_EQ(Observation::Of(with_conflict), conflicted);
    EXPECT_FALSE(s2.HasLabel(Sym("Tag")))
        << "rule 1's scheme extension must roll back with the round";
    EXPECT_EQ(with_conflict.CountNodesWithLabel(Sym("Tag")), 0u);
    EXPECT_EQ(with_conflict.journal(), nullptr);
  }

  // Sanity: on a single-string instance the same round succeeds whole.
  auto ok_report = engine.Step(&scheme, &instance);
  ASSERT_TRUE(ok_report.ok());
  EXPECT_EQ(ok_report->nodes_added, 1u);
  EXPECT_TRUE(scheme.HasLabel(Sym("Tag")));
  EXPECT_NE(Observation::Of(instance), before);
  EXPECT_TRUE(scheme != scheme_before);
}

TEST(RuleEngineTransactionTest, CancelledDeadlineStopsEngineWithCleanState) {
  Scheme scheme = DocScheme();
  Instance instance;
  instance.AddObjectNode(scheme, Sym("Doc")).ValueOrDie();
  const Observation before = Observation::Of(instance);

  rules::RuleEngine engine;
  engine.AddRule(TagDocsRule(scheme)).OrDie();

  common::CancelToken token;
  token.Cancel();
  common::Deadline deadline;
  deadline.ObserveCancellation(&token);
  engine.set_deadline(&deadline);
  auto report = engine.Run(&scheme, &instance);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCancelled());
  EXPECT_EQ(Observation::Of(instance), before);
  EXPECT_FALSE(scheme.HasLabel(Sym("Tag")));

  // Un-cancelled, the same engine reaches the fixpoint (node additions
  // dedup against existing K-nodes, so the rule converges).
  engine.set_deadline(nullptr);
  auto rerun = engine.Run(&scheme, &instance);
  ASSERT_TRUE(rerun.ok());
  EXPECT_EQ(rerun->nodes_added, 1u);
}

// ---------------------------------------------------------------------------
// Deadline & CancelToken unit behavior.
// ---------------------------------------------------------------------------

TEST(DeadlineTest, DefaultDeadlineNeverFires) {
  common::Deadline deadline;
  EXPECT_FALSE(deadline.armed());
  EXPECT_TRUE(deadline.Check().ok());
}

TEST(DeadlineTest, ExpiryAndCancellationReportDistinctCodes) {
  common::Deadline expired =
      common::Deadline::After(std::chrono::seconds(-1));
  EXPECT_TRUE(expired.armed());
  EXPECT_TRUE(expired.Check().IsDeadlineExceeded());

  common::CancelToken token;
  common::Deadline cancellable;
  cancellable.ObserveCancellation(&token);
  EXPECT_TRUE(cancellable.armed());
  EXPECT_TRUE(cancellable.Check().ok());
  token.Cancel();
  EXPECT_TRUE(cancellable.Check().IsCancelled());

  // Cancellation wins over expiry (it is the more specific signal).
  common::Deadline both = common::Deadline::After(std::chrono::seconds(-1));
  both.ObserveCancellation(&token);
  EXPECT_TRUE(both.Check().IsCancelled());
}

}  // namespace
}  // namespace good
