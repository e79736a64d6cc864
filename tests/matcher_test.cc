#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <random>
#include <set>
#include <string>

#include "common/deadline.h"
#include "graph/instance.h"
#include "graph/undo_journal.h"
#include "ops/transaction.h"
#include "pattern/builder.h"
#include "pattern/matcher.h"
#include "schema/scheme.h"

namespace good::pattern {
namespace {

using graph::Instance;
using graph::NodeId;
using schema::Scheme;

Scheme ChainScheme() {
  Scheme s;
  s.AddObjectLabel(Sym("N")).OrDie();
  s.AddPrintableLabel(Sym("V"), ValueKind::kInt).OrDie();
  s.AddFunctionalEdgeLabel(Sym("val")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("next")).OrDie();
  s.AddTriple(Sym("N"), Sym("next"), Sym("N")).OrDie();
  s.AddTriple(Sym("N"), Sym("val"), Sym("V")).OrDie();
  return s;
}

/// Builds a directed path of `n` N-nodes with val i on node i.
Instance ChainInstance(const Scheme& s, int n) {
  Instance g;
  std::vector<NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    NodeId node = *g.AddObjectNode(s, Sym("N"));
    NodeId v = *g.AddPrintableNode(s, Sym("V"), Value(int64_t{i}));
    g.AddEdge(s, node, Sym("val"), v).OrDie();
    nodes.push_back(node);
  }
  for (int i = 0; i + 1 < n; ++i) {
    g.AddEdge(s, nodes[i], Sym("next"), nodes[i + 1]).OrDie();
  }
  return g;
}

TEST(MatchingTest, FindReturnsNulloptForUnboundNode) {
  Matching m;
  m.Bind(NodeId{3}, NodeId{7});
  ASSERT_TRUE(m.Find(NodeId{3}).has_value());
  EXPECT_EQ(m.Find(NodeId{3})->id, 7u);
  EXPECT_FALSE(m.Find(NodeId{4}).has_value());
  EXPECT_EQ(m.At(NodeId{3}).id, 7u);
}

TEST(MatchingTest, FlatSlotsBehaveLikeAMap) {
  Matching small;
  small.Bind(NodeId{2}, NodeId{20});
  small.Bind(NodeId{0}, NodeId{0});
  // Pattern ids past the inline slots move the images to the heap.
  Matching wide = small;
  wide.Bind(NodeId{9}, NodeId{90});
  EXPECT_EQ(small.size(), 2u);
  EXPECT_EQ(wide.size(), 3u);
  EXPECT_FALSE(small == wide);
  EXPECT_EQ(wide.At(NodeId{2}).id, 20u);
  EXPECT_EQ(wide.At(NodeId{0}).id, 0u);
  EXPECT_FALSE(wide.Contains(NodeId{1}));
  EXPECT_FALSE(wide.Contains(NodeId{1000}));

  // map() yields the bound pairs in ascending pattern id order.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const auto& [p, n] : wide.map()) pairs.emplace_back(p.id, n.id);
  EXPECT_EQ(pairs, (std::vector<std::pair<uint32_t, uint32_t>>{
                       {0, 0}, {2, 20}, {9, 90}}));
  EXPECT_EQ(wide.map().size(), 3u);

  // Equality ignores how wide the slot array grew.
  wide.Bind(NodeId{9}, NodeId{});  // An invalid image unbinds.
  EXPECT_EQ(wide.size(), 2u);
  EXPECT_FALSE(wide.Find(NodeId{9}).has_value());
  EXPECT_TRUE(small == wide);

  // Copies and moves keep the images; a moved-from matching is empty
  // and reusable.
  Matching heap_copy = wide;
  heap_copy.Bind(NodeId{7}, NodeId{70});
  Matching moved = std::move(heap_copy);
  EXPECT_EQ(moved.size(), 3u);
  EXPECT_EQ(moved.At(NodeId{7}).id, 70u);
  EXPECT_EQ(heap_copy.size(), 0u);  // NOLINT(bugprone-use-after-move)
  heap_copy.Bind(NodeId{1}, NodeId{10});
  EXPECT_EQ(heap_copy.size(), 1u);
  EXPECT_FALSE(heap_copy.Contains(NodeId{0}));
  moved = small;
  EXPECT_TRUE(moved == small);
  EXPECT_FALSE(moved.Contains(NodeId{7}));
}

TEST(MatchingDeathTest, AtNamesTheUnboundPatternNode) {
  Matching m;
  m.Bind(NodeId{3}, NodeId{7});
  // At() on an unbound node must abort with a diagnostic carrying the
  // offending pattern node id, not an opaque std::out_of_range.
  EXPECT_DEATH(m.At(NodeId{42}), "pattern node #42 is not bound");
}

TEST(MatcherTest, EmptyPatternHasExactlyOneMatching) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 3);
  Pattern empty;
  auto matchings = FindMatchings(empty, g);
  ASSERT_EQ(matchings.size(), 1u);
  EXPECT_EQ(matchings[0].size(), 0u);
  // Even in an empty instance.
  Instance nothing;
  EXPECT_EQ(FindMatchings(empty, nothing).size(), 1u);
}

TEST(MatcherTest, SingleNodePatternMatchesEveryLabeledNode) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 5);
  GraphBuilder b(s);
  b.Object("N");
  Pattern p = b.BuildOrDie();
  EXPECT_EQ(FindMatchings(p, g).size(), 5u);
}

TEST(MatcherTest, EdgePatternCountsPaths) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 5);
  GraphBuilder b(s);
  NodeId x = b.Object("N");
  NodeId y = b.Object("N");
  b.Edge(x, "next", y);
  Pattern p = b.BuildOrDie();
  EXPECT_EQ(FindMatchings(p, g).size(), 4u);  // 4 consecutive pairs.
}

TEST(MatcherTest, PathOfLengthTwo) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 5);
  GraphBuilder b(s);
  NodeId x = b.Object("N");
  NodeId y = b.Object("N");
  NodeId z = b.Object("N");
  b.Edge(x, "next", y).Edge(y, "next", z);
  Pattern p = b.BuildOrDie();
  EXPECT_EQ(FindMatchings(p, g).size(), 3u);
}

TEST(MatcherTest, PrintValueFiltersCandidates) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 5);
  GraphBuilder b(s);
  NodeId x = b.Object("N");
  NodeId v = b.Printable("V", Value(int64_t{2}));
  b.Edge(x, "val", v);
  Pattern p = b.BuildOrDie();
  auto matchings = FindMatchings(p, g);
  ASSERT_EQ(matchings.size(), 1u);
  // And the matched node must be the one whose val is 2.
  NodeId matched = matchings[0].At(x);
  NodeId value = *g.FunctionalTarget(matched, Sym("val"));
  EXPECT_EQ(*g.PrintValueOf(value), Value(int64_t{2}));
}

TEST(MatcherTest, ValuelessPrintableActsAsWildcard) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 4);
  GraphBuilder b(s);
  NodeId x = b.Object("N");
  NodeId v = b.Printable("V");  // No value: matches any V node.
  b.Edge(x, "val", v);
  Pattern p = b.BuildOrDie();
  EXPECT_EQ(FindMatchings(p, g).size(), 4u);
}

TEST(MatcherTest, MatchingsAreHomomorphismsNotEmbeddings) {
  // Instance: a single node with a self-loop. Pattern: an edge between
  // two distinct pattern nodes. The homomorphism maps both pattern nodes
  // onto the single instance node.
  Scheme s = ChainScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("N"));
  g.AddEdge(s, a, Sym("next"), a).OrDie();
  GraphBuilder b(s);
  NodeId x = b.Object("N");
  NodeId y = b.Object("N");
  b.Edge(x, "next", y);
  Pattern p = b.BuildOrDie();
  auto matchings = FindMatchings(p, g);
  ASSERT_EQ(matchings.size(), 1u);
  EXPECT_EQ(matchings[0].At(x), a);
  EXPECT_EQ(matchings[0].At(y), a);
}

// --- Self-loop regressions. A pattern self-loop (m, α, m) used to be
// --- skipped entirely by the feasibility check (it only examined edges
// --- towards strictly-earlier plan positions), so the fast matcher
// --- reported spurious matchings that the brute-force reference
// --- correctly rejected.

TEST(MatcherTest, SelfLoopPatternHasNoMatchingInLoopFreeInstance) {
  Scheme s = ChainScheme();
  // Instance: the loop-free two-node chain a -next-> b.
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("N"));
  NodeId b = *g.AddObjectNode(s, Sym("N"));
  g.AddEdge(s, a, Sym("next"), b).OrDie();
  // Pattern: x -next-> x.
  GraphBuilder pb(s);
  NodeId x = pb.Object("N");
  pb.Edge(x, "next", x);
  Pattern p = pb.BuildOrDie();
  EXPECT_TRUE(FindMatchings(p, g).empty());
  EXPECT_TRUE(FindMatchingsBruteForce(p, g).empty());
}

TEST(MatcherTest, SelfLoopPatternMatchesExactlyTheLoopedNodes) {
  Scheme s = ChainScheme();
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("N"));
  NodeId b = *g.AddObjectNode(s, Sym("N"));
  NodeId c = *g.AddObjectNode(s, Sym("N"));
  g.AddEdge(s, a, Sym("next"), a).OrDie();
  g.AddEdge(s, c, Sym("next"), c).OrDie();
  g.AddEdge(s, a, Sym("next"), b).OrDie();
  GraphBuilder pb(s);
  NodeId x = pb.Object("N");
  pb.Edge(x, "next", x);
  Pattern p = pb.BuildOrDie();
  auto matchings = FindMatchings(p, g);
  ASSERT_EQ(matchings.size(), 2u);
  std::set<NodeId> matched;
  for (const auto& m : matchings) matched.insert(m.At(x));
  EXPECT_EQ(matched, (std::set<NodeId>{a, c}));
  EXPECT_EQ(FindMatchingsBruteForce(p, g).size(), 2u);
}

TEST(MatcherTest, SelfLoopCombinesWithAnchoredNeighbours) {
  Scheme s = ChainScheme();
  // a carries a self-loop and links to b; c -next-> d is loop-free.
  Instance g;
  NodeId a = *g.AddObjectNode(s, Sym("N"));
  NodeId b = *g.AddObjectNode(s, Sym("N"));
  NodeId c = *g.AddObjectNode(s, Sym("N"));
  NodeId d = *g.AddObjectNode(s, Sym("N"));
  g.AddEdge(s, a, Sym("next"), a).OrDie();
  g.AddEdge(s, a, Sym("next"), b).OrDie();
  g.AddEdge(s, c, Sym("next"), d).OrDie();
  // Pattern: x -next-> x and x -next-> y. Only x=a qualifies; y ranges
  // over a's successors {a, b}.
  GraphBuilder pb(s);
  NodeId x = pb.Object("N");
  NodeId y = pb.Object("N");
  pb.Edge(x, "next", x).Edge(x, "next", y);
  Pattern p = pb.BuildOrDie();
  auto matchings = FindMatchings(p, g);
  ASSERT_EQ(matchings.size(), 2u);
  for (const auto& m : matchings) {
    EXPECT_EQ(m.At(x), a);
  }
  EXPECT_EQ(FindMatchingsBruteForce(p, g).size(), 2u);
}

TEST(MatcherTest, ExistsRespectsCallerOptions) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 5);
  GraphBuilder b(s);
  b.Object("N");
  Pattern p = b.BuildOrDie();
  // A caller-set limit of 0 admits no matchings at all.
  EXPECT_FALSE(Matcher(p, g, MatchOptions{0}).ExistsChecked().ValueOrDie());
  // Any positive limit is clamped to one probe; stats still flow to the
  // caller's sink.
  MatchStats stats;
  MatchOptions options;
  options.limit = 7;
  options.stats = &stats;
  EXPECT_TRUE(Matcher(p, g, options).ExistsChecked().ValueOrDie());
  EXPECT_EQ(stats.matchings, 1u);
  EXPECT_GE(stats.candidates_scanned, 1u);
}

TEST(MatcherTest, StatsCountSearchEffort) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 5);
  GraphBuilder b(s);
  NodeId x = b.Object("N");
  NodeId y = b.Object("N");
  NodeId z = b.Object("N");
  b.Edge(x, "next", y).Edge(y, "next", z);
  Pattern p = b.BuildOrDie();
  MatchStats stats;
  MatchOptions options;
  options.stats = &stats;
  EXPECT_EQ(Matcher(p, g, options).CountChecked().ValueOrDie(), 3u);
  EXPECT_EQ(stats.matchings, 3u);
  ASSERT_EQ(stats.depth_fanout.size(), 3u);
  // The root ranges over all five N nodes; anchored depths only place
  // nodes that extend a partial path.
  EXPECT_EQ(stats.depth_fanout[0], 5u);
  EXPECT_GE(stats.candidates_scanned, 5u);
  EXPECT_GT(stats.backtracks, 0u);  // Chain tails fail to extend.
  // Accumulation: a second run doubles the counters.
  EXPECT_EQ(Matcher(p, g, options).CountChecked().ValueOrDie(), 3u);
  EXPECT_EQ(stats.matchings, 6u);
  EXPECT_EQ(stats.depth_fanout[0], 10u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(MatcherTest, DisconnectedPatternTakesCrossProduct) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 3);
  GraphBuilder b(s);
  b.Object("N");
  b.Object("N");
  Pattern p = b.BuildOrDie();
  EXPECT_EQ(FindMatchings(p, g).size(), 9u);  // 3 x 3 total maps.
}

TEST(MatcherTest, NoMatchWhenLabelAbsent) {
  Scheme s = ChainScheme();
  s.AddObjectLabel(Sym("Ghost")).OrDie();
  Instance g = ChainInstance(s, 3);
  GraphBuilder b(s);
  b.Object("Ghost");
  Pattern p = b.BuildOrDie();
  EXPECT_TRUE(FindMatchings(p, g).empty());
}

TEST(MatcherTest, LimitStopsEnumeration) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 10);
  GraphBuilder b(s);
  b.Object("N");
  Pattern p = b.BuildOrDie();
  Matcher limited(p, g, MatchOptions{3});
  EXPECT_EQ(limited.CountChecked().ValueOrDie(), 3u);
  Matcher m(p, g);
  EXPECT_TRUE(m.ExistsChecked().ValueOrDie());
}

TEST(MatcherTest, CallbackCanAbort) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 10);
  GraphBuilder b(s);
  b.Object("N");
  Pattern p = b.BuildOrDie();
  size_t seen = 0;
  ASSERT_TRUE(Matcher(p, g)
                  .ForEachChecked([&](const Matching&) {
                    ++seen;
                    return seen < 2;
                  })
                  .ok());
  EXPECT_EQ(seen, 2u);
}

TEST(MatcherTest, CyclePatternInCycleInstance) {
  Scheme s = ChainScheme();
  Instance g;
  std::vector<NodeId> ring;
  for (int i = 0; i < 4; ++i) ring.push_back(*g.AddObjectNode(s, Sym("N")));
  for (int i = 0; i < 4; ++i) {
    g.AddEdge(s, ring[i], Sym("next"), ring[(i + 1) % 4]).OrDie();
  }
  // Pattern: a directed 2-cycle. A 4-cycle contains no 2-cycle.
  GraphBuilder b2(s);
  NodeId x = b2.Object("N");
  NodeId y = b2.Object("N");
  b2.Edge(x, "next", y).Edge(y, "next", x);
  EXPECT_TRUE(FindMatchings(b2.BuildOrDie(), g).empty());
  // Pattern: a directed 4-cycle. Matches at each rotation.
  GraphBuilder b4(s);
  std::vector<NodeId> pn;
  for (int i = 0; i < 4; ++i) pn.push_back(b4.Object("N"));
  for (int i = 0; i < 4; ++i) b4.Edge(pn[i], "next", pn[(i + 1) % 4]);
  EXPECT_EQ(FindMatchings(b4.BuildOrDie(), g).size(), 4u);
}

// --- Differential test against the brute-force reference matcher. ---

class MatcherDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherDifferentialTest, AgreesWithBruteForceOnRandomGraphs) {
  const int seed = GetParam();
  std::mt19937 rng(seed);
  Scheme s;
  s.AddObjectLabel(Sym("A")).OrDie();
  s.AddObjectLabel(Sym("B")).OrDie();
  s.AddPrintableLabel(Sym("P"), ValueKind::kInt).OrDie();
  s.AddFunctionalEdgeLabel(Sym("f")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("m")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("m2")).OrDie();
  s.AddTriple(Sym("A"), Sym("m"), Sym("B")).OrDie();
  s.AddTriple(Sym("A"), Sym("m2"), Sym("A")).OrDie();
  s.AddTriple(Sym("B"), Sym("m"), Sym("B")).OrDie();
  s.AddTriple(Sym("B"), Sym("f"), Sym("P")).OrDie();

  // Random instance.
  Instance g;
  std::vector<NodeId> as, bs;
  int na = 3 + static_cast<int>(rng() % 4);
  int nb = 3 + static_cast<int>(rng() % 4);
  for (int i = 0; i < na; ++i) as.push_back(*g.AddObjectNode(s, Sym("A")));
  for (int i = 0; i < nb; ++i) bs.push_back(*g.AddObjectNode(s, Sym("B")));
  for (NodeId a : as) {
    for (NodeId b : bs) {
      if (rng() % 3 == 0) g.AddEdge(s, a, Sym("m"), b).OrDie();
    }
    for (NodeId a2 : as) {
      if (rng() % 4 == 0) g.AddEdge(s, a, Sym("m2"), a2).OrDie();
    }
  }
  for (NodeId b : bs) {
    for (NodeId b2 : bs) {
      if (rng() % 3 == 0) g.AddEdge(s, b, Sym("m"), b2).OrDie();
    }
    if (rng() % 2 == 0) {
      NodeId v =
          *g.AddPrintableNode(s, Sym("P"), Value(int64_t(rng() % 3)));
      g.AddEdge(s, b, Sym("f"), v).OrDie();
    }
  }

  // Random small pattern: A -m-> B -m-> B, optionally with value and
  // optionally with self-loops (A -m2-> A, B -m-> B) — the instance
  // generation above already emits both loop shapes.
  GraphBuilder pb(s);
  NodeId pa = pb.Object("A");
  NodeId pb1 = pb.Object("B");
  NodeId pb2 = pb.Object("B");
  pb.Edge(pa, "m", pb1);
  if (rng() % 2 == 0) pb.Edge(pb1, "m", pb2);
  if (rng() % 2 == 0) {
    NodeId pv = pb.Printable("P", Value(int64_t(rng() % 3)));
    pb.Edge(pb2, "f", pv);
  }
  if (rng() % 2 == 0) pb.Edge(pa, "m2", pa);
  if (rng() % 2 == 0) pb.Edge(pb1, "m", pb1);
  Pattern p = pb.BuildOrDie();

  auto fast = FindMatchings(p, g);
  auto slow = FindMatchingsBruteForce(p, g);
  ASSERT_EQ(fast.size(), slow.size()) << "seed=" << seed;
  // Compare as sets of matchings.
  auto key = [&](const Matching& m) {
    std::string k;
    for (NodeId n : p.AllNodes()) {
      k += std::to_string(m.At(n).id) + ",";
    }
    return k;
  };
  std::set<std::string> fast_keys, slow_keys;
  for (const auto& m : fast) fast_keys.insert(key(m));
  for (const auto& m : slow) slow_keys.insert(key(m));
  EXPECT_EQ(fast_keys, slow_keys) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherDifferentialTest,
                         ::testing::Range(0, 25));

// --- Deadline-aware existence checks. ---

TEST(MatcherTest, ExistsCheckedSurfacesExpiredDeadline) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 5);
  GraphBuilder b(s);
  b.Object("N");
  Pattern p = b.BuildOrDie();
  common::Deadline expired =
      common::Deadline::After(std::chrono::seconds(-1));
  MatchOptions options;
  options.deadline = &expired;
  Result<bool> result = Matcher(p, g, options).ExistsChecked();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded());
}

TEST(MatcherTest, ExistsCheckedSurfacesCancellation) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 5);
  GraphBuilder b(s);
  b.Object("N");
  Pattern p = b.BuildOrDie();
  common::CancelToken token;
  token.Cancel();
  common::Deadline deadline;
  deadline.ObserveCancellation(&token);
  MatchOptions options;
  options.deadline = &deadline;
  Result<bool> result = Matcher(p, g, options).ExistsChecked();
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled());
}

TEST(MatcherTest, ExistsCheckedFindsMatchUnderLiveDeadline) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 5);
  GraphBuilder b(s);
  b.Object("N");
  Pattern p = b.BuildOrDie();
  common::Deadline live = common::Deadline::After(std::chrono::hours(1));
  MatchOptions options;
  options.deadline = &live;
  Result<bool> result = Matcher(p, g, options).ExistsChecked();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result);
}

TEST(MatcherTest, ExistsCheckedPinsBoundNodes) {
  // Chain node i has id 2i, its value id 2i + 1.
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 5);
  GraphBuilder b(s);
  NodeId x = b.Object("N");
  NodeId y = b.Object("N");
  NodeId z = b.Object("N");
  b.Edge(x, "next", y).Edge(y, "next", z);
  Pattern p = b.BuildOrDie();
  auto exists = [&](std::vector<std::pair<NodeId, uint32_t>> pins) {
    Matching bound;
    for (const auto& [node, image] : pins) bound.Bind(node, NodeId{image});
    return Matcher(p, g).ExistsChecked(bound).ValueOrDie();
  };
  EXPECT_TRUE(exists({{x, 2}}));           // 1 -> 2 -> 3.
  EXPECT_FALSE(exists({{x, 6}}));          // 3 -> 4 -> nothing.
  EXPECT_TRUE(exists({{x, 0}, {z, 4}}));   // 0 -> 1 -> 2.
  EXPECT_FALSE(exists({{x, 0}, {y, 4}}));  // 0 -/-> 2.
  EXPECT_FALSE(exists({{z, 0}}));          // Nothing precedes 0.
  EXPECT_FALSE(exists({{x, 1}}));          // A V node, not an N node.
  EXPECT_FALSE(exists({{NodeId{7}, 0}}));  // Not a pattern node.

  // The pinned node is planned first, estimated and placed as one
  // candidate.
  MatchStats stats;
  MatchOptions with_stats;
  with_stats.stats = &stats;
  Matching pin_y;
  pin_y.Bind(y, NodeId{4});
  EXPECT_TRUE(Matcher(p, g, with_stats).ExistsChecked(pin_y).ValueOrDie());
  ASSERT_EQ(stats.plan_order.size(), 3u);
  EXPECT_EQ(stats.plan_order[0], y.id);
  EXPECT_EQ(stats.depth_est_fanout[0], 1.0);
  EXPECT_EQ(stats.depth_fanout[0], 1u);

  graph::UndoJournal journal;
  g.AttachJournal(&journal);
  g.AddEdge(s, NodeId{8}, Sym("next"), NodeId{0}).OrDie();
  g.DetachJournal();
  const DeltaSet delta = BuildDeltaSince(journal, 0);
  MatchOptions delta_options;
  delta_options.delta = &delta;
  Matching bound;
  bound.Bind(x, NodeId{8});
  EXPECT_TRUE(Matcher(p, g, delta_options)
                  .ExistsChecked(bound)
                  .status()
                  .IsInvalidArgument());
}

// --- Cost-based planner. ---

/// A,B,C scheme with skewed fan-outs for exercising selectivity
/// estimates: r: A -> B (multivalued), s: C -> B (multivalued).
Scheme SkewScheme() {
  Scheme s;
  s.AddObjectLabel(Sym("A")).OrDie();
  s.AddObjectLabel(Sym("B")).OrDie();
  s.AddObjectLabel(Sym("C")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("r")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("s")).OrDie();
  s.AddTriple(Sym("A"), Sym("r"), Sym("B")).OrDie();
  s.AddTriple(Sym("C"), Sym("s"), Sym("B")).OrDie();
  return s;
}

/// Sorted multiset of matchings, independent of emission order.
std::multiset<std::string> MatchingKeys(const Pattern& p,
                                        const std::vector<Matching>& ms) {
  std::multiset<std::string> keys;
  for (const Matching& m : ms) {
    std::string k;
    for (NodeId n : p.AllNodes()) k += std::to_string(m.At(n).id) + ",";
    keys.insert(k);
  }
  return keys;
}

TEST(PlannerTest, CostPlannerOrdersNodesBySelectivity) {
  Scheme s = SkewScheme();
  Instance g;
  // 4 A nodes fanning out to 40 B nodes; 5 unrelated C nodes.
  std::vector<NodeId> as, bs;
  for (int i = 0; i < 4; ++i) as.push_back(*g.AddObjectNode(s, Sym("A")));
  for (int i = 0; i < 40; ++i) bs.push_back(*g.AddObjectNode(s, Sym("B")));
  for (int i = 0; i < 5; ++i) (void)*g.AddObjectNode(s, Sym("C"));
  for (int i = 0; i < 40; ++i) {
    g.AddEdge(s, as[i / 10], Sym("r"), bs[i]).OrDie();
  }

  // Pattern: x(A) -r-> y(B), plus a disconnected z(C).
  GraphBuilder b(s);
  NodeId x = b.Object("A");
  NodeId y = b.Object("B");
  NodeId z = b.Object("C");
  b.Edge(x, "r", y);
  Pattern p = b.BuildOrDie();

  // Cost order: x (4 As) before z (5 Cs) before y (est. 10 via the
  // anchor, vs. 40 unanchored) — the naive planner would place y second
  // because adjacency to placed nodes dominates syntactically.
  MatchStats cost_stats;
  MatchOptions cost;
  cost.stats = &cost_stats;
  cost.use_plan_cache = false;
  auto cost_found = Matcher(p, g, cost).FindAllChecked().ValueOrDie();
  ASSERT_EQ(cost_stats.plan_order.size(), 3u);
  EXPECT_EQ(cost_stats.plan_order[0], x.id);
  EXPECT_EQ(cost_stats.plan_order[1], z.id);
  EXPECT_EQ(cost_stats.plan_order[2], y.id);
  // The planner's estimates are recorded alongside the true fanout.
  ASSERT_EQ(cost_stats.depth_est_fanout.size(), 3u);
  EXPECT_DOUBLE_EQ(cost_stats.depth_est_fanout[0], 4.0);

  MatchStats naive_stats;
  MatchOptions naive;
  naive.stats = &naive_stats;
  naive.planner = PlannerMode::kNaive;
  auto naive_found = Matcher(p, g, naive).FindAllChecked().ValueOrDie();
  ASSERT_EQ(naive_stats.plan_order.size(), 3u);
  EXPECT_EQ(naive_stats.plan_order[0], x.id);
  EXPECT_EQ(naive_stats.plan_order[1], y.id);
  EXPECT_TRUE(naive_stats.depth_est_fanout.empty());  // Cost-only.

  // Both plans enumerate the same matching set: 40 (x,y) pairs x 5 zs.
  EXPECT_EQ(cost_found.size(), 200u);
  EXPECT_EQ(MatchingKeys(p, cost_found), MatchingKeys(p, naive_found));
}

TEST(PlannerTest, CostPlannerPicksCheapAnchorDirection) {
  Scheme s = SkewScheme();
  Instance g;
  // a0 -r-> b0..b19, a1 -r-> b20..b39 (fanout 20); c0 -s-> b0 and
  // c1 -s-> b20 (fanout 1).
  std::vector<NodeId> as, bs, cs;
  for (int i = 0; i < 2; ++i) as.push_back(*g.AddObjectNode(s, Sym("A")));
  for (int i = 0; i < 40; ++i) bs.push_back(*g.AddObjectNode(s, Sym("B")));
  for (int i = 0; i < 2; ++i) cs.push_back(*g.AddObjectNode(s, Sym("C")));
  for (int i = 0; i < 40; ++i) {
    g.AddEdge(s, as[i / 20], Sym("r"), bs[i]).OrDie();
  }
  g.AddEdge(s, cs[0], Sym("s"), bs[0]).OrDie();
  g.AddEdge(s, cs[1], Sym("s"), bs[20]).OrDie();

  // Pattern: v(A) -r-> y(B) <-s- w(C). The r anchor is declared first,
  // so a planner that blindly drives y's candidates from the first
  // anchor scans 20 per v; the s anchor yields 1 per w.
  GraphBuilder b(s);
  NodeId v = b.Object("A");
  NodeId y = b.Object("B");
  NodeId w = b.Object("C");
  b.Edge(v, "r", y);
  b.Edge(w, "s", y);
  Pattern p = b.BuildOrDie();

  MatchStats cost_stats;
  MatchOptions cost;
  cost.stats = &cost_stats;
  cost.use_plan_cache = false;
  auto cost_found = Matcher(p, g, cost).FindAllChecked().ValueOrDie();

  MatchStats naive_stats;
  MatchOptions naive;
  naive.stats = &naive_stats;
  naive.planner = PlannerMode::kNaive;
  auto naive_found = Matcher(p, g, naive).FindAllChecked().ValueOrDie();

  // Same matchings: (a0, b0, c0) and (a1, b20, c1).
  EXPECT_EQ(cost_found.size(), 2u);
  EXPECT_EQ(MatchingKeys(p, cost_found), MatchingKeys(p, naive_found));
  // Driving y through the s anchor visits far fewer candidates.
  EXPECT_LT(cost_stats.candidates_scanned, naive_stats.candidates_scanned);
}

// --- Plan cache. ---

TEST(PlanCacheTest, HitsMissesAndEpochInvalidation) {
  ResetGlobalPlanCache();
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 6);
  GraphBuilder b(s);
  NodeId x = b.Object("N");
  NodeId y = b.Object("N");
  b.Edge(x, "next", y);
  Pattern p = b.BuildOrDie();

  MatchStats stats;
  MatchOptions options;
  options.stats = &stats;

  EXPECT_EQ(Matcher(p, g, options).CountChecked().ValueOrDie(), 5u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 0u);

  // Same pattern, unchanged instance: the compiled plan is reused.
  EXPECT_EQ(Matcher(p, g, options).CountChecked().ValueOrDie(), 5u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);

  // Any mutation bumps the stats epoch and the cached plan no longer
  // applies — a replan (miss) is observable through the stats.
  NodeId extra = *g.AddObjectNode(s, Sym("N"));
  (void)extra;
  EXPECT_EQ(Matcher(p, g, options).CountChecked().ValueOrDie(), 5u);
  EXPECT_EQ(stats.plan_cache_misses, 2u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);

  PlanCacheInfo info = GlobalPlanCacheInfo();
  EXPECT_EQ(info.hits, 1u);
  EXPECT_EQ(info.misses, 2u);
  EXPECT_GE(info.entries, 2u);
  EXPECT_GT(info.capacity, 0u);
}

TEST(PlanCacheTest, OptOutAndNaivePlansAreNotCached) {
  ResetGlobalPlanCache();
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 4);
  GraphBuilder b(s);
  b.Object("N");
  Pattern p = b.BuildOrDie();

  MatchStats stats;
  MatchOptions options;
  options.stats = &stats;
  options.use_plan_cache = false;
  EXPECT_EQ(Matcher(p, g, options).CountChecked().ValueOrDie(), 4u);
  options.use_plan_cache = true;
  options.planner = PlannerMode::kNaive;
  EXPECT_EQ(Matcher(p, g, options).CountChecked().ValueOrDie(), 4u);
  EXPECT_EQ(stats.plan_cache_hits, 0u);
  EXPECT_EQ(stats.plan_cache_misses, 0u);
  PlanCacheInfo info = GlobalPlanCacheInfo();
  EXPECT_EQ(info.entries, 0u);
  EXPECT_EQ(info.hits, 0u);
  EXPECT_EQ(info.misses, 0u);
}

TEST(PlanCacheTest, UnmutatedCopySharesCachedPlan) {
  ResetGlobalPlanCache();
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 6);
  GraphBuilder b(s);
  NodeId x = b.Object("N");
  NodeId y = b.Object("N");
  b.Edge(x, "next", y);
  Pattern p = b.BuildOrDie();

  MatchStats stats;
  MatchOptions options;
  options.stats = &stats;
  EXPECT_EQ(Matcher(p, g, options).CountChecked().ValueOrDie(), 5u);
  // A snapshot copy shares the epoch, so the plan carries over — this
  // is what lets server sessions' working copies skip replanning.
  Instance copy = g;
  EXPECT_EQ(Matcher(p, copy, options).CountChecked().ValueOrDie(), 5u);
  EXPECT_EQ(stats.plan_cache_misses, 1u);
  EXPECT_EQ(stats.plan_cache_hits, 1u);
}

// ---------------------------------------------------------------------------
// Delta-seeded (semi-naive) enumeration
// ---------------------------------------------------------------------------

/// The semi-naive partition contract: with MatchOptions::delta set to
/// the journal window of a batch of mutations, FindAllChecked returns
/// exactly the matchings that exist after the batch but did not exist
/// before it — and the serial and parallel engines return the identical
/// sequence.
TEST(DeltaMatchTest, DeltaEnumerationIsExactlyTheNewMatchings) {
  Scheme s = ChainScheme();
  for (int trial = 0; trial < 8; ++trial) {
    std::mt19937 rng(1234 + trial);
    // Random base graph: 8 nodes, random next-edges (self-loops too).
    Instance g;
    std::vector<NodeId> nodes;
    for (int i = 0; i < 8; ++i) {
      nodes.push_back(*g.AddObjectNode(s, Sym("N")));
    }
    for (int e = 0; e < 14; ++e) {
      (void)g.AddEdge(s, nodes[rng() % nodes.size()], Sym("next"),
                      nodes[rng() % nodes.size()]);  // dup adds are errors; ok
    }

    // Pattern: a two-hop chain x -next-> y -next-> z.
    GraphBuilder b(s);
    NodeId x = b.Object("N");
    NodeId y = b.Object("N");
    NodeId z = b.Object("N");
    b.Edge(x, "next", y).Edge(y, "next", z);
    Pattern p = b.BuildOrDie();

    auto before = Matcher(p, g).FindAllChecked().ValueOrDie();

    // Journaled growth: two fresh nodes plus random new edges touching
    // old and new nodes alike.
    graph::UndoJournal journal;
    g.AttachJournal(&journal);
    for (int i = 0; i < 2; ++i) {
      nodes.push_back(*g.AddObjectNode(s, Sym("N")));
    }
    for (int e = 0; e < 10; ++e) {
      (void)g.AddEdge(s, nodes[rng() % nodes.size()], Sym("next"),
                      nodes[rng() % nodes.size()]);
    }
    g.DetachJournal();
    DeltaSet delta = BuildDeltaSince(journal, 0);
    ASSERT_FALSE(delta.empty());

    auto after = Matcher(p, g).FindAllChecked().ValueOrDie();
    std::multiset<std::string> expected;
    std::multiset<std::string> old_keys = MatchingKeys(p, before);
    for (const std::string& k : MatchingKeys(p, after)) {
      if (!old_keys.contains(k)) expected.insert(k);
    }

    MatchStats serial_stats;
    MatchOptions delta_options;
    delta_options.delta = &delta;
    delta_options.stats = &serial_stats;
    auto incremental =
        Matcher(p, g, delta_options).FindAllChecked().ValueOrDie();
    EXPECT_EQ(MatchingKeys(p, incremental), expected) << "trial=" << trial;
    EXPECT_EQ(incremental.size(), expected.size()) << "trial=" << trial;

    // CountChecked() agrees with FindAllChecked() under delta.
    EXPECT_EQ(Matcher(p, g, delta_options).CountChecked().ValueOrDie(),
              expected.size());

    // Serial and parallel delta enumeration are byte-identical.
    for (size_t threads : {2u, 8u}) {
      MatchOptions par_options;
      par_options.delta = &delta;
      par_options.num_threads = threads;
      par_options.parallel_threshold = 0;
      auto par = Matcher(p, g, par_options).FindAllChecked().ValueOrDie();
      ASSERT_EQ(par, incremental)
          << "trial=" << trial << " threads=" << threads;
    }
  }
}

/// An all-old delta window (mutations rolled back before the window
/// closes, or no mutations at all) yields zero matchings; the empty
/// pattern likewise has no delta-touching matchings by definition.
TEST(DeltaMatchTest, EmptyDeltaAndEmptyPatternYieldNothing) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 6);
  GraphBuilder b(s);
  NodeId x = b.Object("N");
  NodeId y = b.Object("N");
  b.Edge(x, "next", y);
  Pattern p = b.BuildOrDie();

  DeltaSet empty_delta;
  MatchOptions options;
  options.delta = &empty_delta;
  EXPECT_TRUE(Matcher(p, g, options).FindAllChecked().ValueOrDie().empty());

  // Rolled-back growth nets out of the window entirely.
  graph::UndoJournal journal;
  g.AttachJournal(&journal);
  NodeId extra = *g.AddObjectNode(s, Sym("N"));
  g.AddEdge(s, extra, Sym("next"), extra).OrDie();
  journal.Rollback(&g);
  DeltaSet delta = BuildDeltaSince(journal, 0);
  g.DetachJournal();
  EXPECT_TRUE(delta.empty());
  options.delta = &delta;
  EXPECT_TRUE(Matcher(p, g, options).FindAllChecked().ValueOrDie().empty());

  // Empty pattern: full matching has one (empty) matching; the delta
  // partition of that single old matching is empty.
  Pattern empty_pattern;
  MatchOptions delta_options;
  delta_options.delta = &delta;
  EXPECT_EQ(Matcher(empty_pattern, g).FindAllChecked().ValueOrDie().size(), 1u);
  EXPECT_TRUE(Matcher(empty_pattern, g, delta_options)
                  .FindAllChecked()
                  .ValueOrDie()
                  .empty());
}

/// Self-loop delta edges seed their own item: adding (a, next, a) must
/// surface the self-loop matching exactly once.
TEST(DeltaMatchTest, SelfLoopDeltaEdgeSeedsItsMatching) {
  Scheme s = ChainScheme();
  Instance g = ChainInstance(s, 4);
  GraphBuilder b(s);
  NodeId m = b.Object("N");
  b.Edge(m, "next", m);
  Pattern p = b.BuildOrDie();
  ASSERT_TRUE(Matcher(p, g).FindAllChecked().ValueOrDie().empty());

  graph::UndoJournal journal;
  g.AttachJournal(&journal);
  NodeId loop = g.NodesWithLabel(Sym("N")).front();
  g.AddEdge(s, loop, Sym("next"), loop).OrDie();
  DeltaSet delta = BuildDeltaSince(journal, 0);
  g.DetachJournal();

  MatchOptions options;
  options.delta = &delta;
  auto found = Matcher(p, g, options).FindAllChecked().ValueOrDie();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].At(m), loop);
}

// ---------------------------------------------------------------------------
// Delta netting
// ---------------------------------------------------------------------------

/// N objects with two multivalued N -> N labels, so per-label seed
/// lists are told apart.
Scheme TwoLabelScheme() {
  Scheme s;
  s.AddObjectLabel(Sym("N")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("next")).OrDie();
  s.AddMultivaluedEdgeLabel(Sym("jump")).OrDie();
  s.AddTriple(Sym("N"), Sym("next"), Sym("N")).OrDie();
  s.AddTriple(Sym("N"), Sym("jump"), Sym("N")).OrDie();
  return s;
}

TEST(DeltaSetTest, AddThenRemoveNetsOut) {
  const Scheme s = TwoLabelScheme();
  Instance g;
  const NodeId a = *g.AddObjectNode(s, Sym("N"));
  graph::UndoJournal journal;
  g.AttachJournal(&journal);
  const NodeId b = *g.AddObjectNode(s, Sym("N"));
  g.AddEdge(s, a, Sym("next"), b).OrDie();
  g.RemoveEdge(a, Sym("next"), b).OrDie();
  g.RemoveNode(b).OrDie();
  g.DetachJournal();
  const DeltaSet delta = BuildDeltaSince(journal, 0);
  EXPECT_TRUE(delta.empty());
  EXPECT_FALSE(delta.ContainsNode(b));
  EXPECT_FALSE(delta.ContainsEdge(a, Sym("next"), b));
  EXPECT_TRUE(delta.EdgeSources(Sym("next")).empty());
  EXPECT_TRUE(delta.OutTargets(a, Sym("next")).empty());
}

TEST(DeltaSetTest, LastTouchAnAddLeavesTheItem) {
  const Scheme s = TwoLabelScheme();
  Instance g;
  const NodeId a = *g.AddObjectNode(s, Sym("N"));
  const NodeId b = *g.AddObjectNode(s, Sym("N"));
  g.AddEdge(s, a, Sym("next"), b).OrDie();  // Predates the window.
  graph::UndoJournal journal;
  g.AttachJournal(&journal);
  // remove -> add of a pre-window edge.
  g.RemoveEdge(a, Sym("next"), b).OrDie();
  g.AddEdge(s, a, Sym("next"), b).OrDie();
  // add -> remove -> add of a window edge and a window self-loop.
  g.AddEdge(s, b, Sym("jump"), a).OrDie();
  g.RemoveEdge(b, Sym("jump"), a).OrDie();
  g.AddEdge(s, b, Sym("jump"), a).OrDie();
  g.AddEdge(s, b, Sym("jump"), b).OrDie();
  g.RemoveEdge(b, Sym("jump"), b).OrDie();
  g.AddEdge(s, b, Sym("jump"), b).OrDie();
  g.DetachJournal();
  const DeltaSet delta = BuildDeltaSince(journal, 0);
  EXPECT_EQ(delta.num_nodes(), 0u);
  EXPECT_EQ(delta.num_edges(), 3u);
  EXPECT_TRUE(delta.ContainsEdge(a, Sym("next"), b));
  EXPECT_TRUE(delta.ContainsEdge(b, Sym("jump"), a));
  EXPECT_TRUE(delta.ContainsEdge(b, Sym("jump"), b));
  EXPECT_FALSE(delta.ContainsEdge(a, Sym("jump"), b));
  EXPECT_EQ(delta.EdgeSources(Sym("next")), std::vector<NodeId>{a});
  EXPECT_EQ(delta.EdgeSources(Sym("jump")), std::vector<NodeId>{b});
  EXPECT_EQ(delta.SelfLoopSources(Sym("jump")), std::vector<NodeId>{b});
  EXPECT_TRUE(delta.SelfLoopSources(Sym("next")).empty());
  const auto targets = delta.OutTargets(b, Sym("jump"));
  EXPECT_EQ(std::vector<NodeId>(targets.begin(), targets.end()),
            (std::vector<NodeId>{a, b}));
}

TEST(DeltaSetTest, RemovingPreWindowItemsContributesNothing) {
  const Scheme s = TwoLabelScheme();
  Instance g;
  const NodeId a = *g.AddObjectNode(s, Sym("N"));
  const NodeId b = *g.AddObjectNode(s, Sym("N"));
  const NodeId c = *g.AddObjectNode(s, Sym("N"));
  g.AddEdge(s, a, Sym("next"), b).OrDie();
  g.AddEdge(s, b, Sym("next"), c).OrDie();
  graph::UndoJournal journal;
  g.AttachJournal(&journal);
  g.RemoveEdge(a, Sym("next"), b).OrDie();
  g.RemoveNode(c).OrDie();  // Also removes (b, next, c).
  g.DetachJournal();
  const DeltaSet delta = BuildDeltaSince(journal, 0);
  EXPECT_TRUE(delta.empty());
  EXPECT_FALSE(delta.ContainsNode(c));
  EXPECT_FALSE(delta.ContainsEdge(a, Sym("next"), b));
  EXPECT_FALSE(delta.ContainsEdge(b, Sym("next"), c));
}

/// BuildDeltaSince against a std::set model that replays the window in
/// journal order (insert on add, erase on remove), over random journal
/// windows. Some windows span nested ops::Transaction scopes that were
/// rolled back, whose entries the rollback truncated.
TEST(DeltaSetTest, SortedDeltaMatchesSetModelOverRandomWindows) {
  const char* base = std::getenv("GOOD_PLANNER_SEED");
  const unsigned offset =
      base != nullptr
          ? static_cast<unsigned>(std::strtoul(base, nullptr, 10) % 1000000)
          : 0;
  const Scheme s = TwoLabelScheme();
  const Symbol labels[] = {Sym("next"), Sym("jump")};
  for (unsigned trial = 0; trial < 40; ++trial) {
    const unsigned seed = trial + offset;
    std::mt19937 rng(seed);
    Instance g;
    for (int i = 0; i < 6; ++i) (void)*g.AddObjectNode(s, Sym("N"));
    graph::UndoJournal journal;
    g.AttachJournal(&journal);

    // One random mutation; failures (duplicate edges, dead endpoints)
    // simply record nothing.
    auto mutate = [&] {
      const std::vector<NodeId> nodes = g.AllNodes();
      auto pick = [&] { return nodes[rng() % nodes.size()]; };
      const Symbol label = labels[rng() % 2];
      switch (rng() % 5) {
        case 0:
          (void)g.AddObjectNode(s, Sym("N"));
          break;
        case 1:
          if (nodes.size() > 2) (void)g.RemoveNode(pick());
          break;
        case 2:
        case 3:
          (void)g.AddEdge(s, pick(), label, pick());
          break;
        default: {
          const std::vector<graph::Edge> edges = g.AllEdges();
          if (!edges.empty()) {
            const graph::Edge& e = edges[rng() % edges.size()];
            (void)g.RemoveEdge(e.source, e.label, e.target);
          }
        }
      }
    };

    std::vector<size_t> marks = {0};
    for (int step = 0; step < 40; ++step) {
      if (rng() % 4 == 0) marks.push_back(journal.Position());
      if (rng() % 5 == 0) {
        ops::Transaction nested(nullptr, &g);
        for (int k = rng() % 5; k > 0; --k) mutate();
        if (rng() % 2 == 0) nested.Commit();  // Else rolled back.
      } else {
        mutate();
      }
    }
    g.DetachJournal();

    for (size_t mark : marks) {
      if (mark > journal.Position()) continue;  // Cut by a rollback.
      std::set<NodeId> model_nodes;
      std::set<graph::Edge> model_edges;
      journal.ForEachTouchedSince(
          mark,
          [&](NodeId n, bool added) {
            if (added) {
              model_nodes.insert(n);
            } else {
              model_nodes.erase(n);
            }
          },
          [&](NodeId src, Symbol label, NodeId dst, bool added) {
            if (added) {
              model_edges.insert(graph::Edge{src, label, dst});
            } else {
              model_edges.erase(graph::Edge{src, label, dst});
            }
          });
      const DeltaSet delta = BuildDeltaSince(journal, mark);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " mark=" + std::to_string(mark));
      EXPECT_EQ(delta.nodes(),
                std::vector<NodeId>(model_nodes.begin(), model_nodes.end()));
      EXPECT_EQ(delta.num_edges(), model_edges.size());
      EXPECT_EQ(delta.empty(), model_nodes.empty() && model_edges.empty());
      for (uint32_t id = 0; id < 64; ++id) {
        EXPECT_EQ(delta.ContainsNode(NodeId{id}),
                  model_nodes.contains(NodeId{id}));
      }
      for (const graph::Edge& e : model_edges) {
        EXPECT_TRUE(delta.ContainsEdge(e.source, e.label, e.target));
      }
      for (Symbol label : labels) {
        std::set<NodeId> sources;
        std::set<NodeId> loops;
        for (const graph::Edge& e : model_edges) {
          if (e.label != label) continue;
          sources.insert(e.source);
          if (e.source == e.target) loops.insert(e.source);
        }
        EXPECT_EQ(delta.EdgeSources(label),
                  std::vector<NodeId>(sources.begin(), sources.end()));
        EXPECT_EQ(delta.SelfLoopSources(label),
                  std::vector<NodeId>(loops.begin(), loops.end()));
        for (uint32_t src = 0; src < 24; ++src) {
          std::vector<NodeId> want;
          for (uint32_t dst = 0; dst < 24; ++dst) {
            const graph::Edge e{NodeId{src}, label, NodeId{dst}};
            const bool in_model = model_edges.contains(e);
            EXPECT_EQ(delta.ContainsEdge(e.source, label, e.target),
                      in_model);
            if (in_model) want.push_back(e.target);
          }
          const auto got = delta.OutTargets(NodeId{src}, label);
          EXPECT_EQ(std::vector<NodeId>(got.begin(), got.end()), want);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Entry-point agreement sweep
// ---------------------------------------------------------------------------

/// A/B objects linked by one multivalued label per (source, target)
/// label pair — so random links never hit a successor-label conflict —
/// plus functional B -f-> P integer printables.
Scheme SweepScheme() {
  Scheme s;
  s.AddObjectLabel(Sym("A")).OrDie();
  s.AddObjectLabel(Sym("B")).OrDie();
  s.AddPrintableLabel(Sym("P"), ValueKind::kInt).OrDie();
  s.AddFunctionalEdgeLabel(Sym("f")).OrDie();
  for (const char* link : {"aa", "ab", "ba", "bb"}) {
    s.AddMultivaluedEdgeLabel(Sym(link)).OrDie();
  }
  s.AddTriple(Sym("A"), Sym("aa"), Sym("A")).OrDie();
  s.AddTriple(Sym("A"), Sym("ab"), Sym("B")).OrDie();
  s.AddTriple(Sym("B"), Sym("ba"), Sym("A")).OrDie();
  s.AddTriple(Sym("B"), Sym("bb"), Sym("B")).OrDie();
  s.AddTriple(Sym("B"), Sym("f"), Sym("P")).OrDie();
  return s;
}

/// The link label from object `source` to object `target` of `g`.
Symbol LinkLabel(const Instance& g, NodeId source, NodeId target) {
  auto letter = [&](NodeId n) {
    return g.LabelOf(n) == Sym("A") ? 'a' : 'b';
  };
  return Sym(std::string{letter(source), letter(target)});
}

/// Adds `nodes` random objects (half of the new B nodes get an f-edge to
/// a P value in 0..2) and `edges` random links between any objects,
/// self-loops included; `objects` lists every object of `g`.
void GrowSweepInstance(const Scheme& s, std::mt19937* rng, size_t nodes,
                       size_t edges, Instance* g,
                       std::vector<NodeId>* objects) {
  for (size_t i = 0; i < nodes; ++i) {
    const NodeId n = *g->AddObjectNode(s, (*rng)() % 2 ? Sym("A") : Sym("B"));
    objects->push_back(n);
    if (g->LabelOf(n) == Sym("B") && (*rng)() % 2 == 0) {
      const NodeId v =
          *g->AddPrintableNode(s, Sym("P"), Value(int64_t((*rng)() % 3)));
      g->AddEdge(s, n, Sym("f"), v).OrDie();
    }
  }
  for (size_t e = 0; e < edges && !objects->empty(); ++e) {
    const NodeId a = (*objects)[(*rng)() % objects->size()];
    const NodeId b = (*objects)[(*rng)() % objects->size()];
    g->AddEdge(s, a, LinkLabel(*g, a, b), b).OrDie();
  }
}

/// A random pattern of 1 to 4 nodes (empty one time in eight): objects (with occasional
/// self-loops and extra links) and P printables, valued or wildcards.
/// A new node starts a new component one time in four, but at most
/// `max_components` components hold objects; a P node joins through an
/// f-edge from an earlier B node that has none yet, else stays isolated.
Pattern RandomSweepPattern(const Scheme& s, std::mt19937* rng,
                           size_t max_components) {
  GraphBuilder b(s);
  const Instance& g = b.graph();
  std::vector<NodeId> objects;
  size_t components = 0;
  const size_t n = (*rng)() % 8 == 0 ? 0 : 1 + (*rng)() % 4;
  for (size_t i = 0; i < n; ++i) {
    const bool join = (*rng)() % 4 != 0;
    if ((*rng)() % 6 == 0) {
      const NodeId p = (*rng)() % 2 == 0
                           ? b.Printable("P", Value(int64_t((*rng)() % 3)))
                           : b.Printable("P");
      std::vector<NodeId> free_bs;
      for (NodeId o : objects) {
        if (g.LabelOf(o) == Sym("B") && g.OutTargets(o, Sym("f")).empty()) {
          free_bs.push_back(o);
        }
      }
      if (join && !free_bs.empty()) {
        b.Edge(free_bs[(*rng)() % free_bs.size()], "f", p);
      }
      continue;
    }
    const NodeId m = b.Object((*rng)() % 2 ? "A" : "B");
    if (!objects.empty() && (join || components >= max_components)) {
      const NodeId o = objects[(*rng)() % objects.size()];
      if ((*rng)() % 2 == 0) {
        b.Edge(m, SymName(LinkLabel(g, m, o)), o);
      } else {
        b.Edge(o, SymName(LinkLabel(g, o, m)), m);
      }
    } else {
      ++components;
    }
    if ((*rng)() % 5 == 0) b.Edge(m, SymName(LinkLabel(g, m, m)), m);
    objects.push_back(m);
  }
  if (objects.size() >= 2 && (*rng)() % 2 == 0) {
    const NodeId x = objects[(*rng)() % objects.size()];
    const NodeId y = objects[(*rng)() % objects.size()];
    b.Edge(x, SymName(LinkLabel(g, x, y)), y);
  }
  return b.BuildOrDie();
}

/// Every MatchStats field except workers_used, which records how a run
/// was split rather than what it found.
void ExpectSameStats(const MatchStats& got, const MatchStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.candidates_scanned, want.candidates_scanned) << where;
  EXPECT_EQ(got.feasibility_rejections, want.feasibility_rejections) << where;
  EXPECT_EQ(got.backtracks, want.backtracks) << where;
  EXPECT_EQ(got.matchings, want.matchings) << where;
  EXPECT_EQ(got.depth_fanout, want.depth_fanout) << where;
  EXPECT_EQ(got.plan_cache_hits, want.plan_cache_hits) << where;
  EXPECT_EQ(got.plan_cache_misses, want.plan_cache_misses) << where;
  EXPECT_EQ(got.delta_rejections, want.delta_rejections) << where;
  EXPECT_EQ(got.plan_order, want.plan_order) << where;
  EXPECT_EQ(got.depth_est_fanout, want.depth_est_fanout) << where;
}

/// Checks every entry point under `base` (a full run, or a delta run
/// when base.delta is set) against the serial FindAllChecked: the same
/// sequence and stats at threads {0, 2, 8} with the parallel threshold
/// at 0 and at its default, limit k giving the length-k prefix, and
/// ExistsChecked agreeing with emptiness. Each run starts from an empty
/// plan cache, so hit/miss counts compare too.
void ExpectEntryPointsAgree(const Pattern& p, const Instance& g,
                            const MatchOptions& base,
                            const std::string& where) {
  auto with = [&](size_t threads, size_t threshold, MatchStats* stats) {
    ResetGlobalPlanCache();
    MatchOptions options = base;
    options.num_threads = threads;
    options.parallel_threshold = threshold;
    options.stats = stats;
    return options;
  };
  MatchStats want;
  const std::vector<Matching> ref =
      Matcher(p, g, with(0, kDefaultParallelThreshold, &want))
          .FindAllChecked()
          .ValueOrDie();
  EXPECT_EQ(want.matchings, ref.size()) << where;

  for (size_t threads : {0u, 2u, 8u}) {
    for (size_t threshold : {size_t{0}, kDefaultParallelThreshold}) {
      const std::string at = where + " threads=" + std::to_string(threads) +
                             " threshold=" + std::to_string(threshold);
      MatchStats found_stats;
      EXPECT_EQ(Matcher(p, g, with(threads, threshold, &found_stats))
                    .FindAllChecked()
                    .ValueOrDie(),
                ref)
          << at;
      ExpectSameStats(found_stats, want, at + " FindAllChecked");
      EXPECT_EQ(found_stats.workers_used == 0, want.workers_used == 0) << at;
      EXPECT_LE(found_stats.workers_used, std::max<size_t>(threads, 1)) << at;
      if (threads == 0) {
        EXPECT_EQ(found_stats.workers_used, want.workers_used) << at;
      }

      MatchStats visit_stats;
      std::vector<Matching> visited;
      size_t visited_count = 0;
      ASSERT_TRUE(Matcher(p, g, with(threads, threshold, &visit_stats))
                      .ForEachChecked(
                          [&](const Matching& m) {
                            visited.push_back(m);
                            return true;
                          },
                          &visited_count)
                      .ok());
      EXPECT_EQ(visited, ref) << at;
      EXPECT_EQ(visited_count, ref.size()) << at;
      ExpectSameStats(visit_stats, want, at + " ForEachChecked");

      MatchStats count_stats;
      EXPECT_EQ(Matcher(p, g, with(threads, threshold, &count_stats))
                    .CountChecked()
                    .ValueOrDie(),
                ref.size())
          << at;
      ExpectSameStats(count_stats, want, at + " CountChecked");

      EXPECT_EQ(Matcher(p, g, with(threads, threshold, nullptr))
                    .ExistsChecked()
                    .ValueOrDie(),
                !ref.empty())
          << at;
    }
  }

  for (size_t k : {size_t{0}, size_t{1}, ref.size() / 2, ref.size(),
                   ref.size() + 1}) {
    MatchOptions limited = with(8, 0, nullptr);
    limited.limit = k;
    const std::vector<Matching> prefix(
        ref.begin(), ref.begin() + std::min(k, ref.size()));
    EXPECT_EQ(Matcher(p, g, limited).FindAllChecked().ValueOrDie(), prefix)
        << where << " limit=" << k;
    EXPECT_EQ(Matcher(p, g, limited).CountChecked().ValueOrDie(),
              prefix.size())
        << where << " limit=" << k;
  }
}

/// ExistsChecked(bound) equals "some FindAllChecked matching agrees with
/// `bound`", under both planners, for bounds cut from random subsets of
/// the matchings' images (mixed across matchings, so either answer
/// occurs) and for one image of the wrong label.
void ExpectBoundExistsAgrees(const Pattern& p, const Instance& g,
                             const std::vector<NodeId>& objects,
                             std::mt19937* rng, const std::string& where) {
  const std::vector<Matching> all = Matcher(p, g).FindAllChecked().ValueOrDie();
  auto extended = [&](const Matching& bound) {
    return std::any_of(all.begin(), all.end(), [&](const Matching& m) {
      for (const auto& [node, image] : bound.map()) {
        if (m.At(node) != image) return false;
      }
      return true;
    });
  };
  auto exists = [&](const Matching& bound, PlannerMode planner) {
    MatchOptions options;
    options.planner = planner;
    return Matcher(p, g, options).ExistsChecked(bound).ValueOrDie();
  };
  const std::vector<NodeId> nodes = p.AllNodes();
  for (int trial = 0; trial < 6 && !all.empty(); ++trial) {
    Matching bound;
    for (NodeId m : nodes) {
      if ((*rng)() % 2 == 0) bound.Bind(m, all[(*rng)() % all.size()].At(m));
    }
    const std::string at = where + " trial=" + std::to_string(trial);
    EXPECT_EQ(exists(bound, PlannerMode::kCostBased), extended(bound)) << at;
    EXPECT_EQ(exists(bound, PlannerMode::kNaive), extended(bound)) << at;
  }
  if (nodes.empty()) return;
  const NodeId m = nodes[(*rng)() % nodes.size()];
  for (NodeId o : objects) {
    if (g.LabelOf(o) == p.LabelOf(m)) continue;
    Matching bound;
    bound.Bind(m, o);
    EXPECT_FALSE(exists(bound, PlannerMode::kCostBased)) << where;
    EXPECT_FALSE(exists(bound, PlannerMode::kNaive)) << where;
    break;
  }
}

/// FindAllChecked, ForEachChecked, CountChecked and ExistsChecked agree
/// with one another at every thread count and threshold, on full runs
/// and on delta runs over a journaled growth window; ExistsChecked with
/// pinned nodes then agrees with FindAllChecked on the grown instance.
/// Instances are small, or (one seed in four) hold about 70 objects per
/// label so the default parallel threshold engages too.
class EntryPointAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(EntryPointAgreementTest, SequencesAndStatsAgreeAcrossEntryPoints) {
  // CI's planner-differential loop exports GOOD_PLANNER_SEED to shift
  // the sweep to fresh seeds each iteration (printed on failure).
  const char* base = std::getenv("GOOD_PLANNER_SEED");
  const int seed =
      GetParam() +
      (base != nullptr
           ? static_cast<int>(std::strtoul(base, nullptr, 10) % 1000000)
           : 0);
  std::mt19937 rng(static_cast<unsigned>(seed));
  const Scheme s = SweepScheme();
  const bool large = rng() % 4 == 0;
  const size_t objects_wanted = large ? 140 : 8 + rng() % 24;
  Instance g;
  std::vector<NodeId> objects;
  GrowSweepInstance(s, &rng, objects_wanted, objects_wanted * 3, &g, &objects);
  const Pattern p = RandomSweepPattern(s, &rng, large ? 2 : 4);
  const std::string where = "seed=" + std::to_string(seed);

  ExpectEntryPointsAgree(p, g, MatchOptions{}, where + " full");

  graph::UndoJournal journal;
  g.AttachJournal(&journal);
  GrowSweepInstance(s, &rng, rng() % 4, 4 + rng() % objects_wanted, &g,
                    &objects);
  g.DetachJournal();
  const DeltaSet delta = BuildDeltaSince(journal, 0);
  MatchOptions delta_options;
  delta_options.delta = &delta;
  ExpectEntryPointsAgree(p, g, delta_options, where + " delta");
  ExpectBoundExistsAgrees(p, g, objects, &rng, where + " bound");
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntryPointAgreementTest,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace good::pattern
