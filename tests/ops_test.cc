#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "graph/instance.h"
#include "ops/operations.h"
#include "pattern/builder.h"
#include "pattern/matcher.h"
#include "schema/scheme.h"

namespace good::ops {
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

struct Db {
  Scheme scheme;
  Instance instance;
  NodeId d1, d2, d3;
};

Db MakeDb() {
  Db db;
  db.scheme = DocScheme();
  db.d1 = *db.instance.AddObjectNode(db.scheme, Sym("Doc"));
  db.d2 = *db.instance.AddObjectNode(db.scheme, Sym("Doc"));
  db.d3 = *db.instance.AddObjectNode(db.scheme, Sym("Doc"));
  NodeId t1 = *db.instance.AddPrintableNode(db.scheme, Sym("Str"), Value("a"));
  NodeId t2 = *db.instance.AddPrintableNode(db.scheme, Sym("Str"), Value("b"));
  db.instance.AddEdge(db.scheme, db.d1, Sym("title"), t1).OrDie();
  db.instance.AddEdge(db.scheme, db.d2, Sym("title"), t2).OrDie();
  db.instance.AddEdge(db.scheme, db.d1, Sym("refs"), db.d2).OrDie();
  db.instance.AddEdge(db.scheme, db.d1, Sym("refs"), db.d3).OrDie();
  db.instance.AddEdge(db.scheme, db.d2, Sym("refs"), db.d3).OrDie();
  return db;
}

// ---------------------------------------------------------------------------
// Node addition
// ---------------------------------------------------------------------------

TEST(NodeAdditionTest, TagsEveryMatchedNode) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc}});
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.matchings, 3u);
  EXPECT_EQ(stats.nodes_added, 3u);
  EXPECT_EQ(stats.edges_added, 3u);
  EXPECT_EQ(db.instance.CountNodesWithLabel(Sym("Tag")), 3u);
  // Scheme was minimally extended.
  EXPECT_TRUE(db.scheme.IsObjectLabel(Sym("Tag")));
  EXPECT_TRUE(db.scheme.IsFunctionalEdgeLabel(Sym("of")));
  EXPECT_TRUE(db.scheme.HasTriple(Sym("Tag"), Sym("of"), Sym("Doc")));
  EXPECT_TRUE(db.instance.Validate(db.scheme).ok());
}

TEST(NodeAdditionTest, IsIdempotent) {
  // Figure 9's "if not exists" check: re-running the same NA adds
  // nothing because every matching is already served.
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc}});
  na.Apply(&db.scheme, &db.instance).OrDie();
  size_t nodes_before = db.instance.num_nodes();
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 0u);
  EXPECT_EQ(db.instance.num_nodes(), nodes_before);
}

TEST(NodeAdditionTest, DedupsByBoldEdgeTargets) {
  // Pattern with two nodes (x refs y), bold edge only to y: the number
  // of added nodes equals the number of distinct y-images, not the
  // number of matchings.
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  NodeAddition na(b.BuildOrDie(), Sym("Mark"), {{Sym("at"), y}});
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.matchings, 3u);   // (d1,d2), (d1,d3), (d2,d3).
  EXPECT_EQ(stats.nodes_added, 2u); // Distinct targets: d2, d3.
}

TEST(NodeAdditionTest, EmptyPatternAddsSingleton) {
  Db db = MakeDb();
  NodeAddition na(pattern::Pattern(), Sym("Root"), {});
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.matchings, 1u);
  EXPECT_EQ(stats.nodes_added, 1u);
  // Running again adds nothing (a Root node now exists).
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(db.instance.CountNodesWithLabel(Sym("Root")), 1u);
}

TEST(NodeAdditionTest, NoMatchingsAddsNothing) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("no such title"));
  b.Edge(doc, "title", t);
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc}});
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.matchings, 0u);
  EXPECT_EQ(stats.nodes_added, 0u);
  // The scheme is still extended (the result pattern must be a pattern
  // over the new scheme regardless of matchings).
  EXPECT_TRUE(db.scheme.IsObjectLabel(Sym("Tag")));
}

TEST(NodeAdditionTest, RejectsPrintableNewLabel) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Str"), {{Sym("of"), doc}});
  EXPECT_TRUE(na.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(NodeAdditionTest, RejectsMultivaluedBoldEdgeLabel) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("refs"), doc}});
  EXPECT_TRUE(na.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(NodeAdditionTest, RejectsDuplicateBoldLabels) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  NodeAddition na(b.BuildOrDie(), Sym("Tag"),
                  {{Sym("of"), x}, {Sym("of"), y}});
  EXPECT_TRUE(na.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(NodeAdditionTest, RejectsForeignPatternNode) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("of"), NodeId{999}}});
  EXPECT_TRUE(na.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(NodeAdditionTest, ReusesPreexistingServingNodes) {
  // If an existing Tag node already has the required functional edge to
  // a matched target, that matching is considered served.
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeAddition na(b.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc}});
  // Pre-extend the scheme and add one Tag serving d1.
  db.scheme.EnsureObjectLabel(Sym("Tag")).OrDie();
  db.scheme.EnsureFunctionalEdgeLabel(Sym("of")).OrDie();
  db.scheme.EnsureTriple(Sym("Tag"), Sym("of"), Sym("Doc")).OrDie();
  NodeId pre = *db.instance.AddObjectNode(db.scheme, Sym("Tag"));
  db.instance.AddEdge(db.scheme, pre, Sym("of"), db.d1).OrDie();
  ApplyStats stats;
  ASSERT_TRUE(na.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 2u);  // Only d2 and d3 needed new tags.
}

// ---------------------------------------------------------------------------
// Edge addition
// ---------------------------------------------------------------------------

TEST(EdgeAdditionTest, AddsEdgePerMatching) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  // Add the inverse edge.
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{y, Sym("refd-by"), x, /*functional=*/false}});
  ApplyStats stats;
  ASSERT_TRUE(ea.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.edges_added, 3u);
  EXPECT_TRUE(db.instance.HasEdge(db.d2, Sym("refd-by"), db.d1));
  EXPECT_TRUE(db.instance.HasEdge(db.d3, Sym("refd-by"), db.d1));
  EXPECT_TRUE(db.instance.HasEdge(db.d3, Sym("refd-by"), db.d2));
  EXPECT_TRUE(db.scheme.IsMultivaluedEdgeLabel(Sym("refd-by")));
  EXPECT_TRUE(db.instance.Validate(db.scheme).ok());
}

TEST(EdgeAdditionTest, IdempotentOnExistingEdges) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{x, Sym("refs"), y, /*functional=*/false}});
  ApplyStats stats;
  ASSERT_TRUE(ea.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.edges_added, 0u);  // All edges already present.
}

TEST(EdgeAdditionTest, FunctionalConflictIsRejectedAtomically) {
  // Adding a functional "primary" edge from every doc to every doc it
  // refs fails for d1 (two refs) — and must leave the instance
  // untouched (the paper's "result is not defined").
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{x, Sym("primary"), y, /*functional=*/true}});
  Instance before = db.instance;
  EXPECT_TRUE(ea.Apply(&db.scheme, &db.instance).IsFailedPrecondition());
  EXPECT_EQ(db.instance.Fingerprint(), before.Fingerprint());
}

TEST(EdgeAdditionTest, FunctionalConflictWithExistingEdge) {
  Db db = MakeDb();
  // d2 refs only d3, so "primary" from d2 alone would be fine — but d2
  // already carries a conflicting primary edge to d1.
  db.scheme.EnsureFunctionalEdgeLabel(Sym("primary")).OrDie();
  db.scheme.EnsureTriple(Sym("Doc"), Sym("primary"), Sym("Doc")).OrDie();
  db.instance.AddEdge(db.scheme, db.d2, Sym("primary"), db.d1).OrDie();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("b"));
  b.Edge(x, "title", t).Edge(x, "refs", y);
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{x, Sym("primary"), y, /*functional=*/true}});
  EXPECT_TRUE(ea.Apply(&db.scheme, &db.instance).IsFailedPrecondition());
}

/// Adds an object label "Tag" with a multivalued "about" edge from
/// Doc to Tag, and gives d1 one Tag via "about".
NodeId TagD1(Db* db) {
  db->scheme.EnsureObjectLabel(Sym("Tag")).OrDie();
  db->scheme.EnsureMultivaluedEdgeLabel(Sym("about")).OrDie();
  db->scheme.EnsureTriple(Sym("Doc"), Sym("about"), Sym("Tag")).OrDie();
  NodeId tag = *db->instance.AddObjectNode(db->scheme, Sym("Tag"));
  db->instance.AddEdge(db->scheme, db->d1, Sym("about"), tag).OrDie();
  return tag;
}

TEST(EdgeAdditionTest, UnequalLabelsAgainstExistingTargetAreRejected) {
  // d1 is "about" a Tag; adding "about" edges from every doc to the
  // docs it refs would give d1 a Doc and a Tag successor.
  Db db = MakeDb();
  TagD1(&db);
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{x, Sym("about"), y, /*functional=*/false}});
  const Instance instance_before = db.instance;
  const Scheme scheme_before = db.scheme;
  Status status = ea.Apply(&db.scheme, &db.instance);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  // The up-front Section 3.2 check, not the instance's own edge check.
  EXPECT_NE(status.ToString().find("edge addition undefined: 'about' "
                                   "successors of node #" +
                                   std::to_string(db.d1.id) +
                                   " would have unequal labels"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(db.instance.Fingerprint(), instance_before.Fingerprint());
  EXPECT_TRUE(db.scheme == scheme_before);
}

TEST(EdgeAdditionTest, UnequalLabelsWithinOneBatchAreRejected) {
  // No "about" edge exists yet; one rule adds two from d1, towards a
  // Doc (refs) and a Str (title).
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  NodeId t = b.Printable("Str");
  b.Edge(x, "refs", y).Edge(x, "title", t);
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{x, Sym("about"), y, /*functional=*/false},
                   EdgeSpec{x, Sym("about"), t, /*functional=*/false}});
  const Instance instance_before = db.instance;
  const Scheme scheme_before = db.scheme;
  Status status = ea.Apply(&db.scheme, &db.instance);
  EXPECT_TRUE(status.IsFailedPrecondition()) << status.ToString();
  // The up-front Section 3.2 check, not the instance's own edge check.
  EXPECT_NE(status.ToString().find("edge addition undefined: 'about' "
                                   "successors of node #" +
                                   std::to_string(db.d1.id) +
                                   " would have unequal labels"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(db.instance.Fingerprint(), instance_before.Fingerprint());
  EXPECT_TRUE(db.scheme == scheme_before);
  EXPECT_FALSE(db.scheme.HasLabel(Sym("about")));
}

TEST(EdgeAdditionTest, KindDisagreementIsRejected) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  // "refs" is registered multivalued; requesting functional is an error.
  EdgeAddition ea(b.BuildOrDie(),
                  {EdgeSpec{x, Sym("refs"), y, /*functional=*/true}});
  EXPECT_TRUE(ea.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Node deletion
// ---------------------------------------------------------------------------

TEST(NodeDeletionTest, DeletesAllMatchedNodes) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  // Delete every doc that refs something.
  NodeDeletion nd(b.BuildOrDie(), x);
  ApplyStats stats;
  ASSERT_TRUE(nd.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_deleted, 2u);  // d1 and d2.
  EXPECT_FALSE(db.instance.HasNode(db.d1));
  EXPECT_FALSE(db.instance.HasNode(db.d2));
  EXPECT_TRUE(db.instance.HasNode(db.d3));
  // Incident edges are gone; d3 is isolated.
  EXPECT_TRUE(db.instance.InEdges(db.d3).empty());
  EXPECT_TRUE(db.instance.Validate(db.scheme).ok());
}

TEST(NodeDeletionTest, DeletingIsolatesNeighbours) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("a"));
  b.Edge(x, "title", t);
  NodeDeletion nd(b.BuildOrDie(), x);
  ASSERT_TRUE(nd.Apply(&db.scheme, &db.instance).ok());
  EXPECT_FALSE(db.instance.HasNode(db.d1));
  // The printable "a" node survives, now unreferenced.
  EXPECT_TRUE(db.instance.FindPrintable(Sym("Str"), Value("a")).has_value());
}

TEST(NodeDeletionTest, SelfLoopCountedOnceInEdgeStats) {
  // A self-loop appears in both the out- and in-edge lists of its node
  // but is one edge; edges_deleted must not double-count it.
  Scheme scheme = DocScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(scheme, Sym("Doc"));
  NodeId b = *g.AddObjectNode(scheme, Sym("Doc"));
  g.AddEdge(scheme, a, Sym("refs"), a).OrDie();
  g.AddEdge(scheme, a, Sym("refs"), b).OrDie();

  GraphBuilder pb(scheme);
  NodeId x = pb.Object("Doc");
  pb.Edge(x, "refs", x);  // Matches only the looped doc.
  NodeDeletion nd(pb.BuildOrDie(), x);
  ApplyStats stats;
  ASSERT_TRUE(nd.Apply(&scheme, &g, &stats).ok());
  EXPECT_EQ(stats.nodes_deleted, 1u);
  EXPECT_EQ(stats.edges_deleted, 2u);  // Loop once + the a->b edge.
  EXPECT_EQ(stats.match.matchings, 1u);
  EXPECT_FALSE(g.HasNode(a));
  EXPECT_TRUE(g.HasNode(b));
  EXPECT_TRUE(g.Validate(scheme).ok());
}

TEST(NodeDeletionTest, NoMatchNoChange) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("zzz"));
  b.Edge(x, "title", t);
  NodeDeletion nd(b.BuildOrDie(), x);
  Instance before = db.instance;
  ASSERT_TRUE(nd.Apply(&db.scheme, &db.instance).ok());
  EXPECT_EQ(db.instance.Fingerprint(), before.Fingerprint());
}

// ---------------------------------------------------------------------------
// Edge deletion
// ---------------------------------------------------------------------------

TEST(EdgeDeletionTest, DeletesMatchedEdges) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  b.Edge(x, "refs", y);
  EdgeDeletion ed(b.BuildOrDie(), {EdgeRef{x, Sym("refs"), y}});
  ApplyStats stats;
  ASSERT_TRUE(ed.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.edges_deleted, 3u);
  EXPECT_EQ(db.instance.num_edges(), 2u);  // Only the two titles remain.
  EXPECT_TRUE(db.instance.Validate(db.scheme).ok());
}

TEST(EdgeDeletionTest, RequiresEdgeInsidePattern) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  // No edge drawn in the pattern.
  EdgeDeletion ed(b.BuildOrDie(), {EdgeRef{x, Sym("refs"), y}});
  EXPECT_TRUE(ed.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(EdgeDeletionTest, SelectiveDeletion) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId x = b.Object("Doc");
  NodeId y = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("a"));
  b.Edge(x, "title", t).Edge(x, "refs", y);
  EdgeDeletion ed(b.BuildOrDie(), {EdgeRef{x, Sym("refs"), y}});
  ASSERT_TRUE(ed.Apply(&db.scheme, &db.instance).ok());
  // Only d1's refs edges were removed (it is the only doc titled "a").
  EXPECT_FALSE(db.instance.HasEdge(db.d1, Sym("refs"), db.d2));
  EXPECT_FALSE(db.instance.HasEdge(db.d1, Sym("refs"), db.d3));
  EXPECT_TRUE(db.instance.HasEdge(db.d2, Sym("refs"), db.d3));
}

// ---------------------------------------------------------------------------
// Abstraction
// ---------------------------------------------------------------------------

TEST(AbstractionTest, GroupsByEqualSuccessorSets) {
  Db db = MakeDb();
  // refs sets: d1 -> {d2, d3}, d2 -> {d3}, d3 -> {}.
  // Add d4 with refs {d3} so d2 and d4 group together.
  NodeId d4 = *db.instance.AddObjectNode(db.scheme, Sym("Doc"));
  db.instance.AddEdge(db.scheme, d4, Sym("refs"), db.d3).OrDie();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  Abstraction ab(b.BuildOrDie(), doc, Sym("Group"), Sym("member"),
                 Sym("refs"));
  ApplyStats stats;
  ASSERT_TRUE(ab.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 3u);  // {d1}, {d2,d4}, {d3}.
  EXPECT_EQ(stats.edges_added, 4u);
  // Find the group containing d2; it must also contain d4 and nothing
  // else.
  bool found = false;
  for (NodeId group : db.instance.NodesWithLabel(Sym("Group"))) {
    auto members = db.instance.OutTargets(group, Sym("member"));
    if (std::find(members.begin(), members.end(), db.d2) != members.end()) {
      found = true;
      EXPECT_EQ(members.size(), 2u);
      EXPECT_NE(std::find(members.begin(), members.end(), d4), members.end());
    }
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(db.instance.Validate(db.scheme).ok());
}

TEST(AbstractionTest, IsIdempotent) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  Abstraction ab(b.BuildOrDie(), doc, Sym("Group"), Sym("member"),
                 Sym("refs"));
  ab.Apply(&db.scheme, &db.instance).OrDie();
  size_t nodes = db.instance.num_nodes();
  ApplyStats stats;
  ASSERT_TRUE(ab.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 0u);
  EXPECT_EQ(db.instance.num_nodes(), nodes);
}

TEST(AbstractionTest, EmptySuccessorSetsGroupTogether) {
  Db db = MakeDb();
  // d3 has no refs; add d4 also without refs: they form one group.
  NodeId d4 = *db.instance.AddObjectNode(db.scheme, Sym("Doc"));
  (void)d4;
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  Abstraction ab(b.BuildOrDie(), doc, Sym("Group"), Sym("member"),
                 Sym("refs"));
  ApplyStats stats;
  ASSERT_TRUE(ab.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 3u);  // {d1}, {d2}, {d3, d4}.
}

TEST(AbstractionTest, GroupingEdgeMustBeMultivalued) {
  Db db = MakeDb();
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  Abstraction ab(b.BuildOrDie(), doc, Sym("Group"), Sym("member"),
                 Sym("title"));
  EXPECT_TRUE(ab.Apply(&db.scheme, &db.instance).IsInvalidArgument());
}

TEST(AbstractionTest, RestrictedToMatchedNodes) {
  Db db = MakeDb();
  // Only docs titled "a" (just d1) are abstracted.
  GraphBuilder b(db.scheme);
  NodeId doc = b.Object("Doc");
  NodeId t = b.Printable("Str", Value("a"));
  b.Edge(doc, "title", t);
  Abstraction ab(b.BuildOrDie(), doc, Sym("Group"), Sym("member"),
                 Sym("refs"));
  ApplyStats stats;
  ASSERT_TRUE(ab.Apply(&db.scheme, &db.instance, &stats).ok());
  EXPECT_EQ(stats.nodes_added, 1u);
  EXPECT_EQ(stats.edges_added, 1u);
}

// ---------------------------------------------------------------------------
// Determinism up to new-object choice (Section 3)
// ---------------------------------------------------------------------------

TEST(DeterminismTest, TwoRunsAreIsomorphic) {
  Db db1 = MakeDb();
  Db db2 = MakeDb();
  // Perturb db2's id space without changing its shape.
  NodeId junk = *db2.instance.AddObjectNode(db2.scheme, Sym("Doc"));
  db2.instance.RemoveNode(junk).OrDie();

  GraphBuilder b1(db1.scheme);
  NodeId doc1 = b1.Object("Doc");
  NodeAddition na1(b1.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc1}});
  na1.Apply(&db1.scheme, &db1.instance).OrDie();

  GraphBuilder b2(db2.scheme);
  NodeId doc2 = b2.Object("Doc");
  NodeAddition na2(b2.BuildOrDie(), Sym("Tag"), {{Sym("of"), doc2}});
  na2.Apply(&db2.scheme, &db2.instance).OrDie();

  EXPECT_EQ(db1.instance.Fingerprint(), db2.instance.Fingerprint());
}

// ---------------------------------------------------------------------------
// NA/AB dedup differential: the index probes against the full-scan rule
// ---------------------------------------------------------------------------

// Doc nodes with Str titles and refs; K-nodes keyed by (of: Doc, by:
// Str); Other nodes that share the α-labels `of`, `by` and the member
// label `mem` without being K or Set nodes.
Scheme DedupScheme() {
  Scheme s = DocScheme();
  for (const char* label : {"K", "Other", "Set", "Z"}) {
    s.AddObjectLabel(Sym(label)).OrDie();
  }
  s.AddFunctionalEdgeLabel(Sym("of")).OrDie();
  s.AddFunctionalEdgeLabel(Sym("by")).OrDie();
  s.AddFunctionalEdgeLabel(Sym("extra")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("mem")).OrDie();
  for (const char* source : {"K", "Other"}) {
    s.AddTriple(Sym(source), Sym("of"), Sym("Doc")).OrDie();
    s.AddTriple(Sym(source), Sym("by"), Sym("Str")).OrDie();
  }
  s.AddTriple(Sym("K"), Sym("extra"), Sym("Doc")).OrDie();
  s.AddTriple(Sym("Set"), Sym("mem"), Sym("Doc")).OrDie();
  s.AddTriple(Sym("Other"), Sym("mem"), Sym("Doc")).OrDie();
  return s;
}

// A seeded instance holding every case the dedup probes must get
// right: complete, partial and over-complete K-nodes, Other nodes
// carrying a K key or a Set member set exactly, Set nodes serving a
// class, a subset or a superset of one, and (on odd seeds) a Z node.
Instance DedupInstance(const Scheme& scheme, uint32_t seed) {
  std::mt19937 rng(seed);
  auto below = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  Instance g;
  std::vector<NodeId> docs, strs;
  const size_t num_docs = 6 + below(10);
  for (size_t i = 0; i < num_docs; ++i) {
    docs.push_back(*g.AddObjectNode(scheme, Sym("Doc")));
  }
  const char* const titles[] = {"s0", "s1", "s2", "s3", "s4"};
  const size_t num_titles = 3 + below(3);
  for (size_t i = 0; i < num_titles; ++i) {
    strs.push_back(*g.AddPrintableNode(scheme, Sym("Str"), Value(titles[i])));
  }
  for (NodeId d : docs) {
    if (below(4) != 0) {
      g.AddEdge(scheme, d, Sym("title"), strs[below(strs.size())]).OrDie();
    }
    for (size_t r = below(4); r > 0; --r) {
      g.AddEdge(scheme, d, Sym("refs"), docs[below(docs.size())]).OrDie();
    }
  }
  auto doc = [&] { return docs[below(docs.size())]; };
  auto str = [&] { return strs[below(strs.size())]; };
  auto keyed = [&](const char* label, bool of, bool by) {
    NodeId k = *g.AddObjectNode(scheme, Sym(label));
    if (of) g.AddEdge(scheme, k, Sym("of"), doc()).OrDie();
    if (by) g.AddEdge(scheme, k, Sym("by"), str()).OrDie();
    return k;
  };
  for (size_t i = below(4); i > 0; --i) keyed("K", true, true);
  for (size_t i = below(3); i > 0; --i) keyed("K", true, false);
  for (size_t i = below(3); i > 0; --i) keyed("K", false, true);
  for (size_t i = below(3); i > 0; --i) {
    NodeId k = keyed("K", true, true);
    g.AddEdge(scheme, k, Sym("extra"), doc()).OrDie();
  }
  // An Other node carrying exactly the key of a titled doc with refs.
  for (NodeId d : docs) {
    auto title = g.FunctionalTarget(d, Sym("title"));
    if (title.has_value() && g.OutDegree(d, Sym("refs")) > 0) {
      NodeId o = *g.AddObjectNode(scheme, Sym("Other"));
      g.AddEdge(scheme, o, Sym("of"), d).OrDie();
      g.AddEdge(scheme, o, Sym("by"), *title).OrDie();
      break;
    }
  }
  for (size_t i = below(3); i > 0; --i) keyed("Other", true, true);
  // Member sets: the refs-classes of some docs, exactly, as a subset
  // or as a superset, from Set and from Other nodes.
  for (size_t i = 2 + below(4); i > 0; --i) {
    const NodeId d = doc();
    std::set<NodeId> refs;
    for (NodeId t : g.OutTargets(d, Sym("refs"))) refs.insert(t);
    std::set<NodeId> members;
    for (NodeId m : docs) {
      std::set<NodeId> m_refs;
      for (NodeId t : g.OutTargets(m, Sym("refs"))) m_refs.insert(t);
      if (m_refs == refs) members.insert(m);
    }
    const size_t shape = below(4);
    if (shape == 1 && members.size() > 1) members.erase(members.begin());
    if (shape == 2) members.insert(doc());
    NodeId s = *g.AddObjectNode(scheme, Sym(shape == 3 ? "Other" : "Set"));
    for (NodeId m : members) g.AddEdge(scheme, s, Sym("mem"), m).OrDie();
  }
  if (seed % 2 == 1) g.AddObjectNode(scheme, Sym("Z")).ValueOrDie();
  return g;
}

// The full-scan rule of Figure 9, applied serially: index every
// complete K-node by its α-targets, then add one K-node per new key in
// matching order.
void ReferenceNodeAddition(const Scheme& scheme, const Pattern& pattern,
                           Symbol new_label,
                           const std::vector<std::pair<Symbol, NodeId>>& edges,
                           Instance* g) {
  std::map<std::vector<NodeId>, NodeId> by_targets;
  for (NodeId k : g->NodesWithLabel(new_label)) {
    std::vector<NodeId> key;
    for (const auto& [label, node] : edges) {
      (void)node;
      auto target = g->FunctionalTarget(k, label);
      if (!target.has_value()) break;
      key.push_back(*target);
    }
    if (key.size() == edges.size()) by_targets.emplace(key, k);
  }
  const std::vector<pattern::Matching> matchings =
      pattern::Matcher(pattern, *g).FindAllChecked().ValueOrDie();
  for (const pattern::Matching& m : matchings) {
    std::vector<NodeId> key;
    for (const auto& [label, node] : edges) {
      (void)label;
      key.push_back(m.At(node));
    }
    if (by_targets.contains(key)) continue;
    NodeId fresh = *g->AddObjectNode(scheme, new_label);
    for (size_t e = 0; e < edges.size(); ++e) {
      g->AddEdge(scheme, fresh, edges[e].first, key[e]).OrDie();
    }
    by_targets.emplace(key, fresh);
  }
}

// The full-scan abstraction rule: a class is served iff some existing
// set-labeled node's member set equals it.
void ReferenceAbstraction(const Scheme& scheme, const Pattern& pattern,
                          NodeId node, Symbol set_label, Symbol member_edge,
                          Symbol grouping_edge, Instance* g) {
  std::set<NodeId> matched;
  const std::vector<pattern::Matching> matchings =
      pattern::Matcher(pattern, *g).FindAllChecked().ValueOrDie();
  for (const pattern::Matching& m : matchings) {
    matched.insert(m.At(node));
  }
  std::map<std::set<NodeId>, std::set<NodeId>> classes;
  for (NodeId m : matched) {
    const auto& targets = g->OutTargets(m, grouping_edge);
    classes[std::set<NodeId>(targets.begin(), targets.end())].insert(m);
  }
  std::set<std::set<NodeId>> served;
  for (NodeId k : g->NodesWithLabel(set_label)) {
    const auto& members = g->OutTargets(k, member_edge);
    served.insert(std::set<NodeId>(members.begin(), members.end()));
  }
  for (const auto& [beta, members] : classes) {
    (void)beta;
    if (served.contains(members)) continue;
    NodeId fresh = *g->AddObjectNode(scheme, set_label);
    for (NodeId m : members) {
      g->AddEdge(scheme, fresh, member_edge, m).OrDie();
    }
  }
}

void ExpectSameInstance(const Instance& got, const Instance& want) {
  ASSERT_EQ(got.NodeFrontier(), want.NodeFrontier());
  for (NodeId n : want.AllNodes()) {
    ASSERT_TRUE(got.HasNode(n));
    EXPECT_EQ(got.LabelOf(n), want.LabelOf(n)) << "node #" << n.id;
  }
  EXPECT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.AllEdges(), want.AllEdges());
}

TEST(DedupDifferentialTest, ProbedNodeAdditionMatchesFullScan) {
  const Scheme base_scheme = DedupScheme();
  size_t added = 0, skipped = 0;
  for (uint32_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Instance base = DedupInstance(base_scheme, seed);
    // (of, by) keys, repeated within the batch once per refs edge of a
    // titled doc; the single-key (of) variant; and the zero-edge
    // designator.
    GraphBuilder pair(base_scheme);
    NodeId d = pair.Object("Doc");
    NodeId s = pair.Printable("Str");
    NodeId e = pair.Object("Doc");
    pair.Edge(d, "title", s).Edge(d, "refs", e);
    GraphBuilder single(base_scheme);
    NodeId sd = single.Object("Doc");
    GraphBuilder empty(base_scheme);
    empty.Object("Doc");
    struct Case {
      Pattern pattern;
      Symbol label;
      std::vector<std::pair<Symbol, NodeId>> edges;
    };
    std::vector<Case> cases;
    cases.push_back({pair.BuildOrDie(), Sym("K"),
                     {{Sym("of"), d}, {Sym("by"), s}}});
    cases.push_back({single.BuildOrDie(), Sym("K"), {{Sym("of"), sd}}});
    cases.push_back({empty.BuildOrDie(), Sym("Z"), {}});
    for (const Case& c : cases) {
      Scheme scheme = base_scheme;
      Instance got = base;
      Instance want = base;
      ASSERT_TRUE(NodeAddition(c.pattern, c.label, c.edges)
                      .Apply(&scheme, &got)
                      .ok());
      ReferenceNodeAddition(base_scheme, c.pattern, c.label, c.edges, &want);
      ExpectSameInstance(got, want);
      EXPECT_TRUE(got.Validate(scheme).ok());
      const size_t fresh = got.NodeFrontier() - base.NodeFrontier();
      added += fresh;
      skipped += fresh == 0 ? 1 : 0;
    }
  }
  // The sweep exercises both outcomes.
  EXPECT_GT(added, 0u);
  EXPECT_GT(skipped, 0u);
}

TEST(DedupDifferentialTest, ProbedAbstractionMatchesFullScan) {
  const Scheme base_scheme = DedupScheme();
  for (uint32_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Instance base = DedupInstance(base_scheme, seed);
    GraphBuilder b(base_scheme);
    NodeId doc = b.Object("Doc");
    const Pattern pattern = b.BuildOrDie();
    Scheme scheme = base_scheme;
    Instance got = base;
    Instance want = base;
    ASSERT_TRUE(Abstraction(pattern, doc, Sym("Set"), Sym("mem"), Sym("refs"))
                    .Apply(&scheme, &got)
                    .ok());
    ReferenceAbstraction(base_scheme, pattern, doc, Sym("Set"), Sym("mem"),
                         Sym("refs"), &want);
    ExpectSameInstance(got, want);
    EXPECT_TRUE(got.Validate(scheme).ok());
  }
}

}  // namespace
}  // namespace good::ops
