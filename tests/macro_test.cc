/// Tests for the Section 4.1 / 4.2 macros: negation (Figures 26-27),
/// printable predicates, recursive edge addition / transitive closure
/// (Figures 28-29), and inheritance (Figures 30-31).

#include <gtest/gtest.h>

#include <chrono>
#include <set>

#include "common/deadline.h"
#include "gen/generators.h"
#include "graph/instance.h"
#include "hypermedia/hypermedia.h"
#include "macro/inheritance.h"
#include "macro/negation.h"
#include "macro/predicates.h"
#include "macro/recursive.h"
#include "method/method.h"
#include "pattern/builder.h"
#include "schema/scheme.h"

namespace good::macros {
namespace {

using graph::Instance;
using graph::NodeId;
using hypermedia::Labels;
using pattern::GraphBuilder;
using schema::Scheme;

class MacroTest : public ::testing::Test {
 protected:
  void SetUp() override {
    scheme_ = hypermedia::BuildScheme().ValueOrDie();
    auto built = hypermedia::BuildInstance(scheme_).ValueOrDie();
    instance_ = std::move(built.instance);
    nodes_ = built.nodes;
  }

  /// Figure 26's negated pattern: an info with a name and a created
  /// date, crossed: a modified edge to that same date.
  NegatedPattern Fig26Pattern() {
    GraphBuilder b(scheme_);
    info_ = b.Object("Info");
    str_ = b.Printable("String");
    date_ = b.Printable("Date");
    b.Edge(info_, "name", str_)
        .Edge(info_, "created", date_)
        .Edge(info_, "modified", date_);
    NegatedPattern negated;
    negated.full = b.BuildOrDie();
    negated.positive_nodes = {info_, str_, date_};
    negated.crossed_edges = {
        graph::Edge{info_, Sym("modified"), date_}};
    return negated;
  }

  /// Infos that are NOT the old version of anything: the crossed part
  /// is a whole Version node with an old-edge to the info.
  NegatedPattern CrossedVersionPattern() {
    GraphBuilder b(scheme_);
    NodeId info = b.Object("Info");
    NodeId version = b.Object("Version");
    b.Edge(version, "old", info);
    NegatedPattern negated;
    negated.full = b.BuildOrDie();
    negated.positive_nodes = {info};
    return negated;
  }

  Scheme scheme_;
  Instance instance_;
  hypermedia::InstanceNodes nodes_;
  NodeId info_, str_, date_;
};

// ---------------------------------------------------------------------------
// Negation (Figures 26-27).
// ---------------------------------------------------------------------------

TEST_F(MacroTest, Fig26DirectEvaluation) {
  NegatedPattern negated = Fig26Pattern();
  auto matchings = EvaluateNegated(negated, instance_).ValueOrDie();
  // All nine named infos have created != modified (only Music History
  // has a modified edge at all, and it differs from its created date).
  EXPECT_EQ(matchings.size(), 9u);
  std::set<NodeId> infos;
  for (const auto& m : matchings) infos.insert(m.At(info_));
  EXPECT_TRUE(infos.contains(nodes_.music_history));
  EXPECT_TRUE(infos.contains(nodes_.mozart));
}

TEST_F(MacroTest, Fig26NegationExcludesEqualDates) {
  // Give Jazz modified == created; it must drop out of the result.
  const Labels& l = Labels::Get();
  auto jan12 = instance_.FindPrintable(l.date, Value(Date{1990, 1, 12}));
  instance_.AddEdge(scheme_, nodes_.jazz, l.modified, *jan12).OrDie();
  NegatedPattern negated = Fig26Pattern();
  auto matchings = EvaluateNegated(negated, instance_).ValueOrDie();
  EXPECT_EQ(matchings.size(), 8u);
  for (const auto& m : matchings) {
    EXPECT_NE(m.At(info_), nodes_.jazz);
  }
}

TEST_F(MacroTest, Fig27TranslationAgreesWithDirectEvaluation) {
  const Labels& l = Labels::Get();
  auto jan12 = instance_.FindPrintable(l.date, Value(Date{1990, 1, 12}));
  instance_.AddEdge(scheme_, nodes_.jazz, l.modified, *jan12).OrDie();

  NegatedPattern negated = Fig26Pattern();
  auto direct = EvaluateNegated(negated, instance_).ValueOrDie();

  auto program =
      NegationToOperations(negated, scheme_, Sym("Intermediate"))
          .ValueOrDie();
  method::MethodRegistry registry;
  method::Executor executor(&registry);
  ASSERT_TRUE(executor.ExecuteAll(program, &scheme_, &instance_).ok());

  // One surviving Intermediate node per non-extensible matching.
  EXPECT_EQ(instance_.CountNodesWithLabel(Sym("Intermediate")),
            direct.size());
  // And they tag exactly the same (info, name, date) triples.
  std::set<std::vector<NodeId>> direct_keys;
  for (const auto& m : direct) {
    direct_keys.insert({m.At(info_), m.At(str_), m.At(date_)});
  }
  std::set<std::vector<NodeId>> translated_keys;
  for (NodeId inter : instance_.NodesWithLabel(Sym("Intermediate"))) {
    translated_keys.insert(
        {*instance_.FunctionalTarget(inter, Sym("$neg:0")),
         *instance_.FunctionalTarget(inter, Sym("$neg:1")),
         *instance_.FunctionalTarget(inter, Sym("$neg:2"))});
  }
  EXPECT_EQ(direct_keys, translated_keys);
}

TEST_F(MacroTest, NegationWithCrossedNode) {
  NegatedPattern negated = CrossedVersionPattern();
  const NodeId info = negated.positive_nodes.front();
  auto matchings = EvaluateNegated(negated, instance_).ValueOrDie();
  // Only rock_old is an old version: 13 infos - 1 = 12 survive.
  EXPECT_EQ(matchings.size(), 12u);
  for (const auto& m : matchings) {
    EXPECT_NE(m.At(info), nodes_.rock_old);
  }
}

TEST_F(MacroTest, NegationFilterMatchesDirectEvaluation) {
  NegatedPattern negated = Fig26Pattern();
  auto filter = NegationFilter(negated).ValueOrDie();
  pattern::Pattern positive = negated.PositivePart().ValueOrDie();
  size_t accepted = 0;
  for (const auto& m : pattern::FindMatchings(positive, instance_)) {
    if (filter(m, instance_).ValueOrDie()) ++accepted;
  }
  auto direct = EvaluateNegated(negated, instance_).ValueOrDie();
  EXPECT_EQ(accepted, direct.size());
}

TEST_F(MacroTest, NegationFilterPropagatesExpiredDeadline) {
  // An interrupted extension check must surface the interrupt, not read
  // as "not extensible" (which would silently accept the matching).
  // Figure 26 crosses only an edge (the edge-probe check); the crossed
  // Version node takes the matcher check.
  for (const NegatedPattern& negated :
       {Fig26Pattern(), CrossedVersionPattern()}) {
    common::Deadline expired =
        common::Deadline::After(std::chrono::seconds(-1));
    auto filter = NegationFilter(negated, &expired).ValueOrDie();
    pattern::Pattern positive = negated.PositivePart().ValueOrDie();
    auto matchings = pattern::FindMatchings(positive, instance_);
    ASSERT_FALSE(matchings.empty());
    Result<bool> verdict = filter(matchings.front(), instance_);
    ASSERT_FALSE(verdict.ok());
    EXPECT_TRUE(verdict.status().IsDeadlineExceeded());

    // EvaluateNegated is cut short the same way...
    EXPECT_TRUE(EvaluateNegated(negated, instance_, &expired)
                    .status()
                    .IsDeadlineExceeded());
    // ...and cancellation travels the same path.
    common::CancelToken token;
    token.Cancel();
    common::Deadline cancelled;
    cancelled.ObserveCancellation(&token);
    auto cancelled_filter = NegationFilter(negated, &cancelled).ValueOrDie();
    Result<bool> cancelled_verdict =
        cancelled_filter(matchings.front(), instance_);
    ASSERT_FALSE(cancelled_verdict.ok());
    EXPECT_TRUE(cancelled_verdict.status().IsCancelled());
  }
}

TEST_F(MacroTest, NegatedPatternValidatesInputs) {
  NegatedPattern negated = Fig26Pattern();
  negated.positive_nodes.push_back(NodeId{999});
  EXPECT_FALSE(EvaluateNegated(negated, instance_).ok());
  NegatedPattern negated2 = Fig26Pattern();
  negated2.crossed_edges.push_back(
      graph::Edge{info_, Sym("links-to"), date_});
  EXPECT_FALSE(EvaluateNegated(negated2, instance_).ok());
  NegatedPattern repeated = CrossedVersionPattern();
  repeated.positive_nodes.push_back(repeated.positive_nodes.front());
  EXPECT_TRUE(
      EvaluateNegated(repeated, instance_).status().IsInvalidArgument());
  EXPECT_TRUE(NegationFilter(repeated).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Predicates (Section 4.1 condition boxes).
// ---------------------------------------------------------------------------

TEST_F(MacroTest, RangePredicateSelectsJanuaryDocs) {
  // "Determine the info nodes created between Jan 1 and Jan 31, 1990."
  GraphBuilder b(scheme_);
  NodeId info = b.Object("Info");
  NodeId date = b.Printable("Date");
  b.Edge(info, "created", date);
  ops::NodeAddition na(b.BuildOrDie(), Sym("InRange"), {{Sym("r"), info}});
  na.set_filter(ValueInRange(date, Value(Date{1990, 1, 1}),
                             Value(Date{1990, 1, 31})));
  ASSERT_TRUE(na.Apply(&scheme_, &instance_).ok());
  EXPECT_EQ(instance_.CountNodesWithLabel(Sym("InRange")), 9u);
}

TEST_F(MacroTest, PredicateCombinators) {
  GraphBuilder b(scheme_);
  NodeId info = b.Object("Info");
  NodeId date = b.Printable("Date");
  b.Edge(info, "created", date);
  pattern::Pattern p = b.BuildOrDie();
  auto matchings = pattern::FindMatchings(p, instance_);
  ASSERT_FALSE(matchings.empty());

  auto only14 = ValueEquals(date, Value(Date{1990, 1, 14}));
  auto before13 = ValueLess(date, Value(Date{1990, 1, 13}));
  auto after13 = ValueGreater(date, Value(Date{1990, 1, 13}));
  size_t n14 = 0, nb = 0, na_ = 0, nor = 0, nand = 0, nnot = 0;
  for (const auto& m : matchings) {
    if (only14(m, instance_).ValueOrDie()) ++n14;
    if (before13(m, instance_).ValueOrDie()) ++nb;
    if (after13(m, instance_).ValueOrDie()) ++na_;
    if (Or(only14, before13)(m, instance_).ValueOrDie()) ++nor;
    if (And(only14, after13)(m, instance_).ValueOrDie()) ++nand;
    if (Not(only14)(m, instance_).ValueOrDie()) ++nnot;
  }
  EXPECT_EQ(n14, 2u);                 // rock_new, pinkfloyd.
  EXPECT_EQ(nb, 7u);                  // The Jan 12 docs.
  EXPECT_EQ(na_, n14);                // Nothing later than Jan 14.
  EXPECT_EQ(nor, matchings.size());   // Every doc is in one bucket.
  EXPECT_EQ(nand, n14);
  EXPECT_EQ(nnot, matchings.size() - n14);
}

// ---------------------------------------------------------------------------
// Recursive edge addition / transitive closure (Figures 28-29).
// ---------------------------------------------------------------------------

/// Reference transitive closure of links-to over Info nodes.
std::set<std::pair<NodeId, NodeId>> ReferenceClosure(const Instance& g,
                                                     Symbol node_label,
                                                     Symbol edge) {
  std::set<std::pair<NodeId, NodeId>> closure;
  for (NodeId start : g.NodesWithLabel(node_label)) {
    std::vector<NodeId> stack{start};
    std::set<NodeId> seen;
    while (!stack.empty()) {
      NodeId cur = stack.back();
      stack.pop_back();
      for (NodeId next : g.OutTargets(cur, edge)) {
        if (g.LabelOf(next) != node_label) continue;
        if (closure.emplace(start, next).second) stack.push_back(next);
        (void)seen;
      }
    }
  }
  return closure;
}

std::set<std::pair<NodeId, NodeId>> CollectEdges(const Instance& g,
                                                 Symbol edge) {
  std::set<std::pair<NodeId, NodeId>> out;
  for (const graph::Edge& e : g.AllEdges()) {
    if (e.label == edge) out.emplace(e.source, e.target);
  }
  return out;
}

/// Figure 28: seeds rec-links-to with the direct links (top), then
/// extends it along links-to to fixpoint with the starred recursive
/// edge addition (bottom), evaluated in `mode`.
Status ApplyFig28Closure(Scheme* scheme, Instance* instance,
                         ops::EvalMode mode) {
  GraphBuilder b1(*scheme);
  NodeId x1 = b1.Object("Info");
  NodeId y1 = b1.Object("Info");
  b1.Edge(x1, "links-to", y1);
  ops::EdgeAddition seed(
      b1.BuildOrDie(),
      {ops::EdgeSpec{x1, Sym("rec-links-to"), y1, /*functional=*/false}});
  GOOD_RETURN_NOT_OK(seed.Apply(scheme, instance));

  GraphBuilder b2(*scheme);  // rec-links-to now exists in the scheme.
  NodeId x2 = b2.Object("Info");
  NodeId y2 = b2.Object("Info");
  NodeId z2 = b2.Object("Info");
  b2.Edge(x2, "rec-links-to", y2).Edge(y2, "links-to", z2);
  RecursiveEdgeAddition star(
      b2.BuildOrDie(),
      {ops::EdgeSpec{x2, Sym("rec-links-to"), z2, /*functional=*/false}});
  star.set_eval_mode(mode);
  return star.Apply(scheme, instance);
}

TEST_F(MacroTest, Fig28FixpointComputesTransitiveClosure) {
  const Labels& l = Labels::Get();
  auto expected = ReferenceClosure(instance_, l.info, l.links_to);
  ASSERT_TRUE(
      ApplyFig28Closure(&scheme_, &instance_, ops::EvalMode::kIncremental)
          .ok());
  EXPECT_EQ(CollectEdges(instance_, Sym("rec-links-to")), expected);
}

TEST_F(MacroTest, RecursiveAdditionModesAgreeOnRandomGraphs) {
  // Naive-vs-incremental differential over seeded random links-to
  // graphs, self-loops included: both evaluation modes must add the
  // same edges, and those must be the reference closure.
  const Labels& l = Labels::Get();
  size_t graphs_with_loops = 0;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const size_t n = 3 + seed % 10;
    const Instance start =
        gen::RandomInfoGraph(scheme_, n, 2 * n, seed,
                             /*allow_self_loops=*/true)
            .ValueOrDie();
    for (const auto& [source, target] : CollectEdges(start, l.links_to)) {
      if (source == target) {
        ++graphs_with_loops;
        break;
      }
    }
    const auto expected = ReferenceClosure(start, l.info, l.links_to);
    std::set<std::pair<NodeId, NodeId>> naive_edges;
    for (ops::EvalMode mode :
         {ops::EvalMode::kNaive, ops::EvalMode::kIncremental}) {
      Scheme scheme = scheme_;
      Instance g = start;
      ASSERT_TRUE(ApplyFig28Closure(&scheme, &g, mode).ok())
          << "seed=" << seed;
      auto edges = CollectEdges(g, Sym("rec-links-to"));
      EXPECT_EQ(edges, expected)
          << "seed=" << seed << " mode=" << static_cast<int>(mode);
      if (mode == ops::EvalMode::kNaive) {
        naive_edges = std::move(edges);
      } else {
        EXPECT_EQ(edges, naive_edges) << "seed=" << seed;
      }
    }
  }
  EXPECT_GT(graphs_with_loops, 0u);
}

TEST_F(MacroTest, Fig29MethodTranslationAgreesWithFixpoint) {
  const Labels& l = Labels::Get();
  auto expected = ReferenceClosure(instance_, l.info, l.links_to);

  auto m = TransitiveClosureMethod(scheme_, l.info, l.links_to,
                                   Sym("rec-links-to"), "RLT")
               .ValueOrDie();
  method::MethodRegistry registry;
  registry.Register(std::move(m)).OrDie();
  method::Executor executor(&registry);
  auto call =
      TransitiveClosureCall(scheme_, l.info, l.links_to, "RLT").ValueOrDie();
  ASSERT_TRUE(executor.Execute(call, &scheme_, &instance_).ok());

  EXPECT_EQ(CollectEdges(instance_, Sym("rec-links-to")), expected);
  EXPECT_TRUE(instance_.Validate(scheme_).ok());
}

TEST_F(MacroTest, TransitiveClosureOnCyclicGraph) {
  // A 3-cycle plus a tail: closure from any cycle node reaches all
  // cycle nodes (including itself) and the tail.
  const Labels& l = Labels::Get();
  Instance g;
  NodeId a = *g.AddObjectNode(scheme_, l.info);
  NodeId b = *g.AddObjectNode(scheme_, l.info);
  NodeId c = *g.AddObjectNode(scheme_, l.info);
  NodeId tail = *g.AddObjectNode(scheme_, l.info);
  g.AddEdge(scheme_, a, l.links_to, b).OrDie();
  g.AddEdge(scheme_, b, l.links_to, c).OrDie();
  g.AddEdge(scheme_, c, l.links_to, a).OrDie();
  g.AddEdge(scheme_, c, l.links_to, tail).OrDie();
  auto expected = ReferenceClosure(g, l.info, l.links_to);
  EXPECT_EQ(expected.size(), 12u);  // 9 cycle pairs + 3 edges to the tail.

  auto m = TransitiveClosureMethod(scheme_, l.info, l.links_to,
                                   Sym("rec-links-to"), "RLT")
               .ValueOrDie();
  method::MethodRegistry registry;
  registry.Register(std::move(m)).OrDie();
  method::Executor executor(&registry);
  auto call =
      TransitiveClosureCall(scheme_, l.info, l.links_to, "RLT").ValueOrDie();
  ASSERT_TRUE(executor.Execute(call, &scheme_, &g).ok());
  EXPECT_EQ(CollectEdges(g, Sym("rec-links-to")), expected);
}

TEST_F(MacroTest, RecursiveAdditionIterationCapReturnsExhausted) {
  // A filter that always accepts plus an edge spec that always creates
  // "new" work cannot happen with edge additions (the edge set is
  // finite) — so instead verify the cap triggers with max_iterations=0.
  GraphBuilder b(scheme_);
  NodeId x = b.Object("Info");
  NodeId y = b.Object("Info");
  b.Edge(x, "links-to", y);
  RecursiveEdgeAddition star(
      b.BuildOrDie(),
      {ops::EdgeSpec{x, Sym("rec-links-to"), y, /*functional=*/false}},
      /*max_iterations=*/0);
  EXPECT_TRUE(star.Apply(&scheme_, &instance_).IsResourceExhausted());
}

// ---------------------------------------------------------------------------
// Inheritance (Figures 30-31).
// ---------------------------------------------------------------------------

TEST_F(MacroTest, Fig31RewriteInsertsIsaChain) {
  // Figure 30: a Reference with a name — "name" belongs to Info, so the
  // rewrite must route it through an isa edge.
  // The base scheme does not license name on Reference, so the
  // "naive" Figure 30 pattern is assembled through the virtual-view
  // scheme (which the user works against when inheritance is on).
  auto view_scheme = BuildVirtualView(scheme_, Instance()).ValueOrDie().scheme;
  pattern::Pattern p;
  NodeId ref = *p.AddObjectNode(view_scheme, Sym("Reference"));
  NodeId str = *p.AddValuelessPrintableNode(view_scheme, Sym("String"));
  p.AddEdge(view_scheme, ref, Sym("name"), str).OrDie();

  auto rewritten = RewriteWithInheritance(scheme_, p).ValueOrDie();
  // The rewritten pattern has an extra Info node and an isa edge; the
  // name edge now leaves the Info node (Figure 31).
  EXPECT_EQ(rewritten.num_nodes(), 3u);
  EXPECT_TRUE(rewritten.OutTargets(ref, Sym("isa")).size() == 1);
  EXPECT_TRUE(rewritten.OutTargets(ref, Sym("name")).empty());

  // Evaluated on the hyper-media instance: the single Reference object
  // "is" The Beatles, so one matching with name "The Beatles".
  auto matchings = pattern::FindMatchings(rewritten, instance_);
  ASSERT_EQ(matchings.size(), 1u);
  EXPECT_EQ(*instance_.PrintValueOf(matchings[0].At(str)),
            Value("The Beatles"));
}

TEST_F(MacroTest, VirtualViewAgreesWithRewrite) {
  // The same Figure 30 query evaluated in the virtual instance (where
  // the Reference inherited The Beatles' properties) gives the same
  // answer as the rewritten pattern on the original instance.
  auto view = BuildVirtualView(scheme_, instance_).ValueOrDie();
  pattern::Pattern p;
  NodeId ref = *p.AddObjectNode(view.scheme, Sym("Reference"));
  NodeId str = *p.AddValuelessPrintableNode(view.scheme, Sym("String"));
  p.AddEdge(view.scheme, ref, Sym("name"), str).OrDie();
  auto matchings = pattern::FindMatchings(p, view.instance);
  ASSERT_EQ(matchings.size(), 1u);
  EXPECT_EQ(*view.instance.PrintValueOf(matchings[0].At(str)),
            Value("The Beatles"));
}

TEST_F(MacroTest, MultiLevelInheritanceChains) {
  // Sound inherits from Data which inherits from Info: a name query on
  // Sound must route through a two-hop isa chain.
  const Labels& l = Labels::Get();
  // Give the sound document's info node a name first.
  auto nm = instance_.AddPrintableNode(scheme_, l.string,
                                       Value("PF audio"));
  instance_.AddEdge(scheme_, nodes_.pf_info_sound, l.name, *nm).OrDie();

  auto view = BuildVirtualView(scheme_, instance_).ValueOrDie();
  pattern::Pattern p;
  NodeId snd = *p.AddObjectNode(view.scheme, Sym("Sound"));
  NodeId str = *p.AddValuelessPrintableNode(view.scheme, Sym("String"));
  p.AddEdge(view.scheme, snd, Sym("name"), str).OrDie();

  // Route 1: rewrite on the original instance.
  auto rewritten = RewriteWithInheritance(scheme_, p).ValueOrDie();
  auto direct = pattern::FindMatchings(rewritten, instance_);
  ASSERT_EQ(direct.size(), 1u);
  EXPECT_EQ(*instance_.PrintValueOf(direct[0].At(str)), Value("PF audio"));
  // The chain has two inserted nodes (Data, Info).
  EXPECT_EQ(rewritten.num_nodes(), 4u);

  // Route 2: the virtual view.
  auto via_view = pattern::FindMatchings(p, view.instance);
  EXPECT_EQ(via_view.size(), 1u);
}

TEST_F(MacroTest, RewriteFailsForUnlicensableEdges) {
  // A Version node has no superclass licensing "name".
  auto view_scheme = BuildVirtualView(scheme_, Instance()).ValueOrDie().scheme;
  Scheme bogus = view_scheme;
  bogus.EnsureTriple(Sym("Version"), Sym("name"), Sym("String")).OrDie();
  pattern::Pattern p;
  NodeId v = *p.AddObjectNode(bogus, Sym("Version"));
  NodeId s = *p.AddValuelessPrintableNode(bogus, Sym("String"));
  p.AddEdge(bogus, v, Sym("name"), s).OrDie();
  EXPECT_TRUE(RewriteWithInheritance(scheme_, p).status().IsInvalidArgument());
}

TEST_F(MacroTest, VirtualViewPreservesOwnProperties) {
  // If a subclass node already has its own value for a functional
  // property, inheritance must not override it.
  const Labels& l = Labels::Get();
  // Reference inherits from Info; beatles has created Jan 12. Give the
  // reference its own (different) created date first — via the virtual
  // scheme, since the base scheme does not license created on
  // Reference.
  auto view0 = BuildVirtualView(scheme_, instance_).ValueOrDie();
  Instance working = instance_;
  auto own = working.AddPrintableNode(scheme_, l.date,
                                      Value(Date{1990, 2, 2}));
  working.AddEdge(view0.scheme, nodes_.reference, l.created, *own).OrDie();

  auto view = BuildVirtualView(scheme_, working).ValueOrDie();
  auto target = view.instance.FunctionalTarget(nodes_.reference, l.created);
  ASSERT_TRUE(target.has_value());
  EXPECT_EQ(*view.instance.PrintValueOf(*target), Value(Date{1990, 2, 2}));
}

}  // namespace
}  // namespace good::macros

// ---------------------------------------------------------------------------
// The Figure 26/30 set-query idiom (set_query.h). Appended here to keep
// all Section 4.1 macro coverage in one binary.
// ---------------------------------------------------------------------------

#include "macro/set_query.h"

namespace good::macros {
namespace {

TEST_F(MacroTest, Fig26SetQueryCollectsNames) {
  // "Give the set of the names of the info nodes with a creation date
  // that is different from its last-modified date."
  NegatedPattern negated = Fig26Pattern();
  SetQuery query{negated, str_, Sym("Answer"), Sym("contains")};
  auto answer = RunSetQuery(query, &scheme_, &instance_).ValueOrDie();
  auto members = AnswerMembers(instance_, answer, Sym("contains"));
  // Nine docs qualify, but two share the name "Rock": the answer SET
  // has 8 distinct name strings (printable dedup gives set semantics).
  EXPECT_EQ(members.size(), 8u);
  std::set<std::string> names;
  for (auto m : members) {
    names.insert(instance_.PrintValueOf(m)->AsString());
  }
  EXPECT_TRUE(names.contains("Music History"));
  EXPECT_TRUE(names.contains("Rock"));
  EXPECT_TRUE(instance_.Validate(scheme_).ok());
}

TEST_F(MacroTest, Fig30SetQueryViaInheritance) {
  // "Obtain all references to Jazz": collect the reference objects that
  // occur in the info named Jazz.
  GraphBuilder b(scheme_);
  NodeId ref = b.Object("Reference");
  NodeId jazz = b.Object("Info");
  NodeId nm = b.Printable("String", Value("Jazz"));
  b.Edge(ref, "in", jazz).Edge(jazz, "name", nm);
  NegatedPattern condition;
  condition.full = b.BuildOrDie();
  condition.positive_nodes = {ref, jazz, nm};
  SetQuery query{condition, ref, Sym("J-R"), Sym("contains")};
  auto answer = RunSetQuery(query, &scheme_, &instance_).ValueOrDie();
  auto members = AnswerMembers(instance_, answer, Sym("contains"));
  ASSERT_EQ(members.size(), 1u);
  EXPECT_EQ(members[0], nodes_.reference);
}

TEST_F(MacroTest, SetQueryWithEmptyResultStillCreatesAnswer) {
  GraphBuilder b(scheme_);
  NodeId info = b.Object("Info");
  NodeId nm = b.Printable("String", Value("No Such Doc"));
  b.Edge(info, "name", nm);
  NegatedPattern condition;
  condition.full = b.BuildOrDie();
  condition.positive_nodes = {info, nm};
  SetQuery query{condition, info, Sym("Empty"), Sym("contains")};
  auto answer = RunSetQuery(query, &scheme_, &instance_).ValueOrDie();
  EXPECT_TRUE(AnswerMembers(instance_, answer, Sym("contains")).empty());
}

TEST_F(MacroTest, SetQueryRejectsReusedAnswerLabel) {
  NegatedPattern negated = Fig26Pattern();
  SetQuery query{negated, str_, Sym("Answer2"), Sym("contains")};
  RunSetQuery(query, &scheme_, &instance_).ValueOrDie();
  NegatedPattern negated2 = Fig26Pattern();
  SetQuery again{negated2, str_, Sym("Answer2"), Sym("contains")};
  EXPECT_TRUE(
      RunSetQuery(again, &scheme_, &instance_).status().IsAlreadyExists());
}

}  // namespace
}  // namespace good::macros
