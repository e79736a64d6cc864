#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
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

// ---------------------------------------------------------------------------
// Copy isolation: copies share storage until one side writes
// ---------------------------------------------------------------------------

// Doc nodes spanning several storage pages (ids 0..kDocs-1), each with
// a title, a size and refs to far-away docs, plus Str/Num printables
// and a few tags. Large enough that an edge's endpoints often sit on
// different pages.
constexpr uint32_t kDocs = 150;

// The Str value "t<i>" (the title of doc i for i < kDocs).
Value Title(uint32_t i) {
  std::string title = "t";
  title += std::to_string(i);
  return Value(std::move(title));
}

Instance PagedInstance(const Scheme& s) {
  Instance g;
  std::vector<NodeId> docs;
  for (uint32_t i = 0; i < kDocs; ++i) {
    docs.push_back(*g.AddObjectNode(s, Sym("Doc")));
  }
  for (uint32_t i = 0; i < kDocs; ++i) {
    NodeId title = *g.AddPrintableNode(s, Sym("Str"), Title(i));
    g.AddEdge(s, docs[i], Sym("title"), title).OrDie();
    NodeId size =
        *g.AddPrintableNode(s, Sym("Num"), Value(static_cast<int>(i % 7)));
    g.AddEdge(s, docs[i], Sym("size"), size).OrDie();
    g.AddEdge(s, docs[i], Sym("refs"), docs[(i * 37 + 11) % kDocs]).OrDie();
    g.AddEdge(s, docs[i], Sym("refs"), docs[(i + 97) % kDocs]).OrDie();
  }
  for (int t = 0; t < 3; ++t) {
    NodeId tag = *g.AddObjectNode(s, Sym("Tag"));
    for (uint32_t i = static_cast<uint32_t>(t); i < kDocs; i += 5) {
      g.AddEdge(s, docs[i], Sym("tags"), tag).OrDie();
    }
  }
  return g;
}

// Everything a reader can observe of an instance, rendered as text:
// every node's label and print value, both edge sequences in internal
// order, the label lists, printable lookups, the statistics accessors
// and Validate. Edge membership is checked by ExpectEdgeMembership.
std::string Observe(const Instance& g, const Scheme& s) {
  const std::vector<Symbol> node_labels = {Sym("Doc"), Sym("Tag"), Sym("Str"),
                                           Sym("Num")};
  const std::vector<Symbol> edge_labels = {Sym("title"), Sym("size"),
                                           Sym("refs"), Sym("tags")};
  std::ostringstream os;
  const auto frontier = static_cast<uint32_t>(g.NodeFrontier());
  os << "frontier " << frontier << " nodes " << g.num_nodes() << " edges "
     << g.num_edges() << " epoch " << g.stats_epoch() << "\n";
  for (uint32_t i = 0; i < frontier; ++i) {
    const NodeId n{i};
    if (!g.HasNode(n)) continue;
    os << "#" << i << " " << SymName(g.LabelOf(n));
    if (g.HasPrintValue(n)) os << "=" << g.PrintValueOf(n)->ToString();
    os << " out";
    for (const auto& [label, target] : g.OutEdges(n)) {
      os << " " << SymName(label) << ">" << target.id;
    }
    os << " in";
    for (const auto& [source, label] : g.InEdges(n)) {
      os << " " << source.id << ">" << SymName(label);
    }
    os << "\n";
  }
  for (Symbol label : node_labels) {
    os << SymName(label) << " " << g.CountNodesWithLabel(label) << ":";
    for (NodeId n : g.NodesWithLabel(label)) os << " " << n.id;
    os << "\n";
    for (Symbol edge : edge_labels) {
      os << " " << g.OutDegreeSum(label, edge) << "/"
         << g.InDegreeSum(label, edge);
    }
    os << "\n";
  }
  for (Symbol edge : edge_labels) os << g.CountEdgesWithLabel(edge) << " ";
  os << "\nprintables";
  for (uint32_t i = 0; i < kDocs + 80; ++i) {
    auto str = g.FindPrintable(Sym("Str"), Title(i));
    os << " " << (str ? static_cast<int64_t>(str->id) : -1);
  }
  for (int i = 0; i < 9; ++i) {
    auto num = g.FindPrintable(Sym("Num"), Value(i));
    os << " " << (num ? static_cast<int64_t>(num->id) : -1);
  }
  std::vector<Symbol> dirty(g.dirty_classes().begin(),
                            g.dirty_classes().end());
  std::sort(dirty.begin(), dirty.end(),
            [](Symbol x, Symbol y) { return x.id < y.id; });
  os << "\ndirty";
  for (Symbol d : dirty) os << " " << SymName(d);
  os << "\nvalidate " << g.Validate(s).ToString();
  return os.str();
}

// The edges of both instances and their reverses.
std::vector<Edge> EdgeProbes(const Instance& a, const Instance& b) {
  std::vector<Edge> probes;
  for (const Instance* g : {&a, &b}) {
    for (const Edge& e : g->AllEdges()) {
      probes.push_back(e);
      probes.push_back(Edge{e.target, e.label, e.source});
    }
  }
  return probes;
}

// HasEdge answers from `g`'s own edges only: true for each of them,
// false for every other probe.
void ExpectEdgeMembership(const Instance& g, const std::vector<Edge>& probes) {
  const std::vector<Edge> own = g.AllEdges();
  for (const Edge& e : probes) {
    EXPECT_EQ(g.HasEdge(e.source, e.label, e.target),
              std::binary_search(own.begin(), own.end(), e))
        << e.source.id << " " << SymName(e.label) << " " << e.target.id;
  }
}

struct Mutation {
  const char* name;
  std::function<void(const Scheme&, Instance*)> apply;
};

std::vector<Mutation> AllMutations() {
  const NodeId near{3};
  const NodeId far{kDocs - 5};
  return {
      {"object node",
       [](const Scheme& s, Instance* g) {
         (void)*g->AddObjectNode(s, Sym("Doc"));
       }},
      {"printable node",
       [](const Scheme& s, Instance* g) {
         (void)*g->AddPrintableNode(s, Sym("Str"), Title(kDocs + 3));
       }},
      {"valueless printable node",
       [](const Scheme& s, Instance* g) {
         (void)*g->AddValuelessPrintableNode(s, Sym("Str"));
       }},
      {"restore past a page",
       [](const Scheme& s, Instance* g) {
         const auto id = static_cast<uint32_t>(g->NodeFrontier() + 70);
         g->RestoreNodeAt(s, NodeId{id}, Sym("Str"), Title(kDocs + 7))
             .status()
             .OrDie();
       }},
      {"reserve frontier",
       [](const Scheme&, Instance* g) {
         g->ReserveNodeFrontier(g->NodeFrontier() + 100);
       }},
      {"add edge across pages",
       [=](const Scheme& s, Instance* g) {
         g->AddEdge(s, near, Sym("refs"), far).OrDie();
         g->AddEdge(s, far, Sym("refs"), near).OrDie();
       }},
      {"remove edge across pages",
       [](const Scheme&, Instance* g) {
         // Doc 10 refs doc 107, far enough away to sit on another page.
         g->RemoveEdge(NodeId{10}, Sym("refs"), NodeId{107}).OrDie();
       }},
      {"remove node",
       [=](const Scheme&, Instance* g) { g->RemoveNode(far).OrDie(); }},
      {"remove node journaled",
       [=](const Scheme&, Instance* g) {
         UndoJournal journal;
         g->AttachJournal(&journal);
         g->RemoveNode(far).OrDie();
         g->DetachJournal();
       }},
      {"undo rollback",
       [=](const Scheme& s, Instance* g) {
         // Rollback to the middle of a journal: the undone suffix
         // writes to pages that the copy still shares.
         UndoJournal journal;
         g->AttachJournal(&journal);
         g->RemoveNode(near).OrDie();
         const UndoJournal::Mark mark = journal.Position();
         NodeId fresh = *g->AddObjectNode(s, Sym("Doc"));
         g->AddEdge(s, fresh, Sym("refs"), far).OrDie();
         g->RemoveNode(far).OrDie();
         (void)*g->AddPrintableNode(s, Sym("Num"), Value(8));
         journal.RollbackTo(g, mark);
         g->DetachJournal();
       }},
  };
}

TEST(CopyIsolationTest, MutatingTheCopyLeavesTheSourceUnchanged) {
  const Scheme s = TestScheme();
  for (const Mutation& m : AllMutations()) {
    SCOPED_TRACE(m.name);
    const Instance source = PagedInstance(s);
    const std::string before = Observe(source, s);
    Instance copy = source;
    EXPECT_EQ(Observe(copy, s), before);
    m.apply(s, &copy);
    EXPECT_NE(Observe(copy, s), before);
    EXPECT_TRUE(copy.Validate(s).ok());
    EXPECT_EQ(Observe(source, s), before);
    const std::vector<Edge> probes = EdgeProbes(source, copy);
    ExpectEdgeMembership(source, probes);
    ExpectEdgeMembership(copy, probes);
  }
}

TEST(CopyIsolationTest, MutatingTheSourceLeavesTheCopyUnchanged) {
  const Scheme s = TestScheme();
  for (const Mutation& m : AllMutations()) {
    SCOPED_TRACE(m.name);
    Instance source = PagedInstance(s);
    const Instance copy = source;
    const std::string before = Observe(copy, s);
    m.apply(s, &source);
    EXPECT_NE(Observe(source, s), before);
    EXPECT_TRUE(source.Validate(s).ok());
    EXPECT_EQ(Observe(copy, s), before);
    const std::vector<Edge> probes = EdgeProbes(source, copy);
    ExpectEdgeMembership(source, probes);
    ExpectEdgeMembership(copy, probes);
  }
}

TEST(CopyIsolationTest, RollbackOfTheSourceLeavesACopyOfItsPostState) {
  // The copy is taken mid-transaction (and starts un-journaled); the
  // source's rollback must not reach the pages the two share.
  const Scheme s = TestScheme();
  Instance source = PagedInstance(s);
  const std::string start = Observe(source, s);
  UndoJournal journal;
  source.AttachJournal(&journal);
  NodeId fresh = *source.AddObjectNode(s, Sym("Doc"));
  source.AddEdge(s, fresh, Sym("refs"), NodeId{1}).OrDie();
  source.RemoveNode(NodeId{kDocs - 1}).OrDie();
  source.RemoveEdge(NodeId{10}, Sym("tags"),
                    source.OutTargets(NodeId{10}, Sym("tags")).front())
      .OrDie();
  const Instance copy = source;
  const std::string mid = Observe(copy, s);
  journal.Rollback(&source);
  source.DetachJournal();
  EXPECT_EQ(Observe(copy, s), mid);
  EXPECT_TRUE(copy.Validate(s).ok());
  const std::vector<Edge> probes = EdgeProbes(source, copy);
  ExpectEdgeMembership(source, probes);
  ExpectEdgeMembership(copy, probes);
  // The rolled-back source equals the start up to its stats epoch.
  const std::string back = Observe(source, s);
  EXPECT_EQ(back.substr(back.find('\n')), start.substr(start.find('\n')));
}

TEST(CopyIsolationTest, ReadersOfPublishedCopiesRaceTheOwner) {
  // The owner keeps mutating its instance and publishing copies; four
  // readers count and validate whatever copy is current, and copy and
  // drop it, so page counts change on every thread at once.
  const Scheme s = TestScheme();
  struct Published {
    Instance instance;
    size_t docs;
    size_t edges;
  };
  Instance owner = PagedInstance(s);
  std::mutex mu;
  auto publish = [&] {
    return std::make_shared<const Published>(Published{
        owner, owner.CountNodesWithLabel(Sym("Doc")), owner.num_edges()});
  };
  std::shared_ptr<const Published> current = publish();
  std::atomic<bool> done{false};
  std::atomic<size_t> failures{0};
  std::atomic<size_t> reads{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::shared_ptr<const Published> p;
        {
          std::lock_guard<std::mutex> lock(mu);
          p = current;
        }
        const Instance local = p->instance;
        if (local.NodesWithLabel(Sym("Doc")).size() != p->docs ||
            local.AllEdges().size() != p->edges ||
            !p->instance.Validate(s).ok()) {
          failures.fetch_add(1);
        }
        reads.fetch_add(1);
      }
    });
  }
  std::vector<NodeId> added;
  for (uint32_t round = 0; round < 200; ++round) {
    NodeId doc = *owner.AddObjectNode(s, Sym("Doc"));
    owner.AddEdge(s, doc, Sym("refs"), NodeId{round % kDocs}).OrDie();
    owner.AddEdge(s, NodeId{(round * 7) % kDocs}, Sym("refs"), doc).OrDie();
    added.push_back(doc);
    if (round % 3 == 2) {
      owner.RemoveNode(added.front()).OrDie();
      added.erase(added.begin());
    }
    auto next = publish();
    std::lock_guard<std::mutex> lock(mu);
    current = std::move(next);
  }
  // Let every reader see the final copy at least once.
  const size_t seen = reads.load();
  while (reads.load() < seen + 8) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_TRUE(owner.Validate(s).ok());
}

}  // namespace
}  // namespace good::graph
