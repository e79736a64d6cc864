#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/instance.h"
#include "graph/undo_journal.h"
#include "schema/scheme.h"

namespace good::graph {
namespace {

using schema::Scheme;

Scheme TestScheme() {
  Scheme s;
  s.AddObjectLabel(Sym("Doc")).OrDie();
  s.AddObjectLabel(Sym("Tag")).OrDie();
  s.AddPrintableLabel(Sym("Str"), ValueKind::kString).OrDie();
  s.AddPrintableLabel(Sym("Num"), ValueKind::kInt).OrDie();
  s.AddFunctionalEdgeLabel(Sym("title")).OrDie();
  s.AddFunctionalEdgeLabel(Sym("size")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("refs")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("tags")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("title"), Sym("Str")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("size"), Sym("Num")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("refs"), Sym("Doc")).OrDie();
  s.AddTriple(Sym("Doc"), Sym("tags"), Sym("Tag")).OrDie();
  return s;
}

TEST(InstanceTest, AddObjectNodeChecksLabel) {
  Scheme s = TestScheme();
  Instance g;
  auto doc = g.AddObjectNode(s, Sym("Doc"));
  ASSERT_TRUE(doc.ok());
  EXPECT_TRUE(g.HasNode(*doc));
  EXPECT_EQ(g.LabelOf(*doc), Sym("Doc"));
  EXPECT_FALSE(g.HasPrintValue(*doc));
  // Printable and unknown labels are rejected for object nodes.
  EXPECT_TRUE(g.AddObjectNode(s, Sym("Str")).status().IsInvalidArgument());
  EXPECT_TRUE(g.AddObjectNode(s, Sym("Nope")).status().IsInvalidArgument());
}

TEST(InstanceTest, PrintableNodesAreDeduplicated) {
  Scheme s = TestScheme();
  Instance g;
  auto a = g.AddPrintableNode(s, Sym("Str"), Value("x"));
  auto b = g.AddPrintableNode(s, Sym("Str"), Value("x"));
  auto c = g.AddPrintableNode(s, Sym("Str"), Value("y"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*a, *b);  // Same (label, value) => same node.
  EXPECT_NE(*a, *c);
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.FindPrintable(Sym("Str"), Value("x")), *a);
  EXPECT_EQ(g.FindPrintable(Sym("Str"), Value("z")), std::nullopt);
}

TEST(InstanceTest, PrintableDomainIsChecked) {
  Scheme s = TestScheme();
  Instance g;
  EXPECT_TRUE(g.AddPrintableNode(s, Sym("Num"), Value("not a number"))
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(g.AddPrintableNode(s, Sym("Doc"), Value("x"))
                  .status()
                  .IsNotFound());
}

TEST(InstanceTest, ValuelessPrintablesAreNotDeduplicated) {
  Scheme s = TestScheme();
  Instance g;
  auto a = g.AddValuelessPrintableNode(s, Sym("Str"));
  auto b = g.AddValuelessPrintableNode(s, Sym("Str"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_FALSE(g.HasPrintValue(*a));
  EXPECT_TRUE(g.Validate(s).ok());
}

TEST(InstanceTest, EdgeRequiresSchemeTriple) {
  Scheme s = TestScheme();
  Instance g;
  NodeId doc = *g.AddObjectNode(s, Sym("Doc"));
  NodeId tag = *g.AddObjectNode(s, Sym("Tag"));
  // (Tag, refs, Doc) is not in P.
  EXPECT_TRUE(g.AddEdge(s, tag, Sym("refs"), doc).IsInvalidArgument());
  EXPECT_TRUE(g.AddEdge(s, doc, Sym("tags"), tag).ok());
  EXPECT_TRUE(g.HasEdge(doc, Sym("tags"), tag));
}

TEST(InstanceTest, FunctionalEdgeUniqueness) {
  Scheme s = TestScheme();
  Instance g;
  NodeId doc = *g.AddObjectNode(s, Sym("Doc"));
  NodeId t1 = *g.AddPrintableNode(s, Sym("Str"), Value("a"));
  NodeId t2 = *g.AddPrintableNode(s, Sym("Str"), Value("b"));
  EXPECT_TRUE(g.AddEdge(s, doc, Sym("title"), t1).ok());
  // Re-adding the same edge is an idempotent no-op.
  EXPECT_TRUE(g.AddEdge(s, doc, Sym("title"), t1).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  // A second, different title is a functional conflict.
  EXPECT_TRUE(g.AddEdge(s, doc, Sym("title"), t2).IsFailedPrecondition());
  EXPECT_EQ(g.FunctionalTarget(doc, Sym("title")), t1);
}

TEST(InstanceTest, MultivaluedEdgesAllowManyTargets) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  NodeId c = *g.AddObjectNode(s, Sym("Doc"));
  EXPECT_TRUE(g.AddEdge(s, a, Sym("refs"), b).ok());
  EXPECT_TRUE(g.AddEdge(s, a, Sym("refs"), c).ok());
  EXPECT_EQ(g.OutTargets(a, Sym("refs")).size(), 2u);
  EXPECT_EQ(g.InSources(b, Sym("refs")).size(), 1u);
}

TEST(InstanceTest, RemoveNodeDetachesEdges) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  NodeId c = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  g.AddEdge(s, b, Sym("refs"), c).OrDie();
  g.AddEdge(s, c, Sym("refs"), b).OrDie();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.RemoveNode(b).ok());
  EXPECT_FALSE(g.HasNode(b));
  EXPECT_EQ(g.num_nodes(), 2u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_TRUE(g.OutTargets(a, Sym("refs")).empty());
  EXPECT_TRUE(g.Validate(s).ok());
  // Removing again is NotFound.
  EXPECT_TRUE(g.RemoveNode(b).IsNotFound());
}

using OutList = std::vector<std::pair<Symbol, NodeId>>;
using InList = std::vector<std::pair<NodeId, Symbol>>;

OutList Out(const Instance& g, NodeId node) {
  const OutEdgeView view = g.OutEdges(node);
  return OutList(view.begin(), view.end());
}

InList In(const Instance& g, NodeId node) {
  const InEdgeView view = g.InEdges(node);
  return InList(view.begin(), view.end());
}

TEST(InstanceTest, EdgeViewsSkipEmptiedLabelEntries) {
  Scheme s = TestScheme();
  Instance g;
  NodeId d1 = *g.AddObjectNode(s, Sym("Doc"));
  NodeId d2 = *g.AddObjectNode(s, Sym("Doc"));
  NodeId d3 = *g.AddObjectNode(s, Sym("Doc"));
  NodeId t = *g.AddObjectNode(s, Sym("Tag"));
  NodeId x = *g.AddPrintableNode(s, Sym("Str"), Value("x"));
  g.AddEdge(s, d1, Sym("refs"), d2).OrDie();
  g.AddEdge(s, d1, Sym("tags"), t).OrDie();
  g.AddEdge(s, d1, Sym("refs"), d3).OrDie();
  g.AddEdge(s, d1, Sym("title"), x).OrDie();
  g.AddEdge(s, d2, Sym("refs"), d3).OrDie();

  // Grouped by label: labels in first-insertion order, edges of one
  // label in insertion order — not the global insertion order.
  EXPECT_EQ(Out(g, d1), (OutList{{Sym("refs"), d2},
                                 {Sym("refs"), d3},
                                 {Sym("tags"), t},
                                 {Sym("title"), x}}));
  EXPECT_EQ(g.OutEdges(d1).size(), 4u);
  EXPECT_EQ(In(g, d3), (InList{{d1, Sym("refs")}, {d2, Sym("refs")}}));

  // Emptying a label in the middle of the entries: the emptied entry is
  // skipped, and a node whose only entry is emptied reports an empty
  // view.
  g.RemoveEdge(d1, Sym("tags"), t).OrDie();
  EXPECT_EQ(Out(g, d1), (OutList{{Sym("refs"), d2},
                                 {Sym("refs"), d3},
                                 {Sym("title"), x}}));
  EXPECT_TRUE(g.InEdges(t).empty());
  EXPECT_EQ(g.InEdges(t).size(), 0u);
  EXPECT_TRUE(g.InEdges(t).begin() == g.InEdges(t).end());
  EXPECT_TRUE(In(g, t).empty());

  // Emptying the first entry: iteration starts at the next label.
  g.RemoveEdge(d1, Sym("refs"), d2).OrDie();
  g.RemoveEdge(d1, Sym("refs"), d3).OrDie();
  EXPECT_EQ(Out(g, d1), (OutList{{Sym("title"), x}}));
  EXPECT_EQ(g.OutEdges(d1).size(), 1u);

  // Re-adding appends to the label's list; the label keeps its place.
  g.AddEdge(s, d1, Sym("refs"), d3).OrDie();
  g.AddEdge(s, d1, Sym("refs"), d2).OrDie();
  g.AddEdge(s, d1, Sym("tags"), t).OrDie();
  EXPECT_EQ(Out(g, d1), (OutList{{Sym("refs"), d3},
                                 {Sym("refs"), d2},
                                 {Sym("tags"), t},
                                 {Sym("title"), x}}));
  EXPECT_EQ(In(g, d3), (InList{{d2, Sym("refs")}, {d1, Sym("refs")}}));
  EXPECT_TRUE(g.Validate(s).ok());

  // A removed node's self-loop and in-edges leave the edge set, under
  // both removal paths (the journaled one keeps the dead node's emptied
  // entries).
  for (bool journaled : {false, true}) {
    Instance h = g;
    UndoJournal journal;
    if (journaled) h.AttachJournal(&journal);
    h.AddEdge(s, d2, Sym("refs"), d2).OrDie();
    h.RemoveNode(d2).OrDie();
    h.DetachJournal();
    EXPECT_FALSE(h.HasEdge(d2, Sym("refs"), d2)) << journaled;
    EXPECT_FALSE(h.HasEdge(d1, Sym("refs"), d2)) << journaled;
    EXPECT_FALSE(h.HasEdge(d2, Sym("refs"), d3)) << journaled;
    EXPECT_EQ(Out(h, d1), (OutList{{Sym("refs"), d3},
                                   {Sym("tags"), t},
                                   {Sym("title"), x}}))
        << journaled;
    EXPECT_EQ(In(h, d3), (InList{{d1, Sym("refs")}})) << journaled;
    EXPECT_TRUE(h.Validate(s).ok()) << journaled;
  }
}

TEST(InstanceTest, RemovedPrintableCanBeReadded) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddPrintableNode(s, Sym("Str"), Value("x"));
  g.RemoveNode(a).OrDie();
  auto b = g.AddPrintableNode(s, Sym("Str"), Value("x"));
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*b, a);
  EXPECT_TRUE(g.HasNode(*b));
}

TEST(InstanceTest, RemoveEdgeIsIdempotent) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  EXPECT_TRUE(g.RemoveEdge(a, Sym("refs"), b).ok());
  EXPECT_TRUE(g.RemoveEdge(a, Sym("refs"), b).ok());  // No-op.
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(InstanceTest, LabelIndexTracksMutations) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  (void)b;
  EXPECT_EQ(g.CountNodesWithLabel(Sym("Doc")), 2u);
  g.RemoveNode(a).OrDie();
  EXPECT_EQ(g.CountNodesWithLabel(Sym("Doc")), 1u);
  EXPECT_EQ(g.NodesWithLabel(Sym("Tag")).size(), 0u);
}

TEST(InstanceTest, AllEdgesSortedAndComplete) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, b, Sym("refs"), a).OrDie();
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  auto edges = g.AllEdges();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_LT(edges[0], edges[1]);
}

TEST(InstanceTest, CopyIsDeepSnapshot) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  Instance snapshot = g;
  g.RemoveNode(a).OrDie();
  EXPECT_TRUE(snapshot.HasNode(a));
  EXPECT_TRUE(snapshot.HasEdge(a, Sym("refs"), b));
  EXPECT_FALSE(g.HasNode(a));
}

TEST(InstanceTest, SuccessorLabelConsistency) {
  // With a union-typed functional edge (two triples sharing the edge
  // label), the per-node successor-label condition still holds because
  // the edge is functional; for a multivalued union edge, mixed labels
  // on one node must be rejected.
  Scheme s;
  s.AddObjectLabel(Sym("A")).OrDie();
  s.AddObjectLabel(Sym("B")).OrDie();
  s.AddObjectLabel(Sym("C")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("m")).OrDie();
  s.AddTriple(Sym("A"), Sym("m"), Sym("B")).OrDie();
  s.AddTriple(Sym("A"), Sym("m"), Sym("C")).OrDie();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("A"));
  NodeId b = *g.AddObjectNode(s, Sym("B"));
  NodeId b2 = *g.AddObjectNode(s, Sym("B"));
  NodeId c = *g.AddObjectNode(s, Sym("C"));
  EXPECT_TRUE(g.AddEdge(s, a, Sym("m"), b).ok());
  EXPECT_TRUE(g.AddEdge(s, a, Sym("m"), b2).ok());  // Same label: fine.
  EXPECT_TRUE(g.AddEdge(s, a, Sym("m"), c).IsFailedPrecondition());
  EXPECT_TRUE(g.Validate(s).ok());
}

TEST(InstanceTest, FingerprintIsLabelBasedNotIdBased) {
  Scheme s = TestScheme();
  Instance g1;
  NodeId a1 = *g1.AddObjectNode(s, Sym("Doc"));
  NodeId b1 = *g1.AddObjectNode(s, Sym("Doc"));
  g1.AddEdge(s, a1, Sym("refs"), b1).OrDie();

  Instance g2;
  // Create in a different order (different ids), same shape.
  NodeId x = *g2.AddObjectNode(s, Sym("Tag"));
  g2.RemoveNode(x).OrDie();
  NodeId b2 = *g2.AddObjectNode(s, Sym("Doc"));
  NodeId a2 = *g2.AddObjectNode(s, Sym("Doc"));
  g2.AddEdge(s, a2, Sym("refs"), b2).OrDie();

  EXPECT_EQ(g1.Fingerprint(), g2.Fingerprint());
}

TEST(InstanceTest, ValidateDetectsNothingOnHealthyGraph) {
  Scheme s = TestScheme();
  Instance g;
  NodeId d = *g.AddObjectNode(s, Sym("Doc"));
  NodeId t = *g.AddPrintableNode(s, Sym("Str"), Value("hello"));
  g.AddEdge(s, d, Sym("title"), t).OrDie();
  EXPECT_TRUE(g.Validate(s).ok());
}

TEST(InstanceStatsTest, EdgeCountersTrackMutations) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  NodeId t = *g.AddObjectNode(s, Sym("Tag"));
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), 0u);
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  g.AddEdge(s, b, Sym("refs"), a).OrDie();
  g.AddEdge(s, a, Sym("tags"), t).OrDie();
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), 2u);
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("tags")), 1u);
  EXPECT_EQ(g.OutDegreeSum(Sym("Doc"), Sym("refs")), 2u);
  EXPECT_EQ(g.InDegreeSum(Sym("Doc"), Sym("refs")), 2u);
  EXPECT_EQ(g.OutDegreeSum(Sym("Doc"), Sym("tags")), 1u);
  EXPECT_EQ(g.InDegreeSum(Sym("Tag"), Sym("tags")), 1u);
  EXPECT_DOUBLE_EQ(g.AvgOutFanout(Sym("Doc"), Sym("refs")), 1.0);
  EXPECT_DOUBLE_EQ(g.AvgInFanout(Sym("Tag"), Sym("tags")), 1.0);
  // Fanout over an empty label population is 0, not a division fault.
  EXPECT_DOUBLE_EQ(g.AvgOutFanout(Sym("Str"), Sym("refs")), 0.0);

  g.RemoveEdge(a, Sym("refs"), b).OrDie();
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), 1u);
  EXPECT_EQ(g.OutDegreeSum(Sym("Doc"), Sym("refs")), 1u);
  EXPECT_TRUE(g.Validate(s).ok());
}

TEST(InstanceStatsTest, NodeRemovalDecrementsEdgeStats) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  NodeId c = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  g.AddEdge(s, b, Sym("refs"), c).OrDie();
  g.AddEdge(s, c, Sym("refs"), b).OrDie();
  // Removing b detaches all three edges; the census counters must
  // follow the inline detachment path, not just RemoveEdge.
  g.RemoveNode(b).OrDie();
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), 0u);
  EXPECT_EQ(g.OutDegreeSum(Sym("Doc"), Sym("refs")), 0u);
  EXPECT_EQ(g.InDegreeSum(Sym("Doc"), Sym("refs")), 0u);
  EXPECT_TRUE(g.Validate(s).ok());
}

TEST(InstanceStatsTest, StatsEpochAdvancesOnEveryMutation) {
  Scheme s = TestScheme();
  Instance g;
  EXPECT_EQ(g.stats_epoch(), 0u);  // Never mutated.
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  uint64_t e1 = g.stats_epoch();
  EXPECT_GT(e1, 0u);
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  uint64_t e2 = g.stats_epoch();
  EXPECT_GT(e2, e1);
  g.AddEdge(s, a, Sym("refs"), b).OrDie();
  uint64_t e3 = g.stats_epoch();
  EXPECT_GT(e3, e2);
  g.RemoveEdge(a, Sym("refs"), b).OrDie();
  uint64_t e4 = g.stats_epoch();
  EXPECT_GT(e4, e3);
  g.RemoveNode(b).OrDie();
  EXPECT_GT(g.stats_epoch(), e4);

  // Epochs are process-globally unique: an independently mutated
  // instance never lands on an epoch this one already used.
  Instance other;
  (void)*other.AddObjectNode(s, Sym("Doc"));
  EXPECT_NE(other.stats_epoch(), g.stats_epoch());
}

TEST(InstanceStatsTest, CopySharesEpochUntilMutated) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();

  // An unmutated copy has identical stats, so sharing the source epoch
  // is sound (and lets cached plans carry over).
  Instance copy = g;
  EXPECT_EQ(copy.stats_epoch(), g.stats_epoch());
  EXPECT_EQ(copy.CountEdgesWithLabel(Sym("refs")), 1u);

  // The first mutation of either side forks the epoch.
  copy.RemoveEdge(a, Sym("refs"), b).OrDie();
  EXPECT_NE(copy.stats_epoch(), g.stats_epoch());
  EXPECT_EQ(copy.CountEdgesWithLabel(Sym("refs")), 0u);
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), 1u);
}

TEST(InstanceStatsTest, JournalRollbackRestoresCountersWithFreshEpoch) {
  Scheme s = TestScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("Doc"));
  NodeId b = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), b).OrDie();

  const size_t refs_before = g.CountEdgesWithLabel(Sym("refs"));
  const size_t out_before = g.OutDegreeSum(Sym("Doc"), Sym("refs"));
  const size_t in_before = g.InDegreeSum(Sym("Doc"), Sym("refs"));

  UndoJournal journal;
  g.AttachJournal(&journal);
  NodeId c = *g.AddObjectNode(s, Sym("Doc"));
  g.AddEdge(s, a, Sym("refs"), c).OrDie();
  g.AddEdge(s, c, Sym("refs"), b).OrDie();
  g.RemoveEdge(a, Sym("refs"), b).OrDie();
  g.RemoveNode(b).OrDie();
  const uint64_t mid_epoch = g.stats_epoch();

  journal.Rollback(&g);
  g.DetachJournal();

  // The counters are back where they started, but the epoch is fresh:
  // rollback is itself a mutation, so stale cached plans can't match.
  EXPECT_EQ(g.CountEdgesWithLabel(Sym("refs")), refs_before);
  EXPECT_EQ(g.OutDegreeSum(Sym("Doc"), Sym("refs")), out_before);
  EXPECT_EQ(g.InDegreeSum(Sym("Doc"), Sym("refs")), in_before);
  EXPECT_GT(g.stats_epoch(), mid_epoch);
  EXPECT_TRUE(g.Validate(s).ok());
}

}  // namespace
}  // namespace good::graph
