/// Randomized operation-sequence differential: the relational backend
/// and the native graph engine execute the SAME random sequence of core
/// operations from the same start state; after every step the exported
/// relational state must be isomorphic to the native instance.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <random>
#include <set>
#include <string>

#include "common/deadline.h"
#include "gen/generators.h"
#include "graph/isomorphism.h"
#include "hypermedia/hypermedia.h"
#include "hypermedia/methods.h"
#include "macro/negation.h"
#include "method/method.h"
#include "pattern/builder.h"
#include "pattern/matcher.h"
#include "program/program.h"
#include "relational/backend.h"
#include "rules/rules.h"
#include "storage/crc32.h"
#include "storage/database.h"
#include "storage/fault_env.h"
#include "storage/salvage.h"
#include "storage/wal.h"

namespace good::relational {
namespace {

using graph::Instance;
using graph::NodeId;
using pattern::GraphBuilder;
using schema::Scheme;

/// A small random document graph: 6-10 dated documents with random
/// links.
Instance BuildStart(const Scheme& scheme, std::mt19937* rng) {
  const auto& l = hypermedia::Labels::Get();
  Instance g;
  std::vector<NodeId> docs;
  size_t n = 6 + (*rng)() % 5;
  for (size_t i = 0; i < n; ++i) {
    NodeId doc = g.AddObjectNode(scheme, l.info).ValueOrDie();
    NodeId date =
        g.AddPrintableNode(scheme, l.date,
                           Value(Date{1990, 1,
                                      1 + static_cast<int>((*rng)() % 4)}))
            .ValueOrDie();
    g.AddEdge(scheme, doc, l.created, date).OrDie();
    docs.push_back(doc);
  }
  for (NodeId a : docs) {
    for (NodeId b : docs) {
      if (a != b && (*rng)() % 3 == 0) {
        g.AddEdge(scheme, a, l.links_to, b).OrDie();
      }
    }
  }
  return g;
}

class BackendFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BackendFuzzTest, RandomOperationSequencesStayInSync) {
  std::mt19937 rng(GetParam());
  Scheme native_scheme = hypermedia::BuildScheme().ValueOrDie();
  Instance native = BuildStart(native_scheme, &rng);
  auto backend = RelationalBackend::Load(native_scheme, native).ValueOrDie();

  for (int step = 0; step < 12; ++step) {
    int kind = static_cast<int>(rng() % 5);
    GraphBuilder b(native_scheme);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    b.Edge(x, "links-to", y);
    switch (kind) {
      case 0: {
        Symbol label = Sym("Tag" + std::to_string(rng() % 2));
        ops::NodeAddition op(b.BuildOrDie(), label, {{Sym("of"), y}});
        ASSERT_TRUE(op.Apply(&native_scheme, &native).ok());
        ASSERT_TRUE(backend.Apply(op).ok());
        break;
      }
      case 1: {
        ops::EdgeAddition op(
            b.BuildOrDie(),
            {ops::EdgeSpec{y, Sym("rev"), x, /*functional=*/false}});
        ASSERT_TRUE(op.Apply(&native_scheme, &native).ok());
        ASSERT_TRUE(backend.Apply(op).ok());
        break;
      }
      case 2: {
        GraphBuilder db(native_scheme);
        NodeId info = db.Object("Info");
        NodeId date = db.Printable(
            "Date", Value(Date{1990, 1, 1 + static_cast<int>(rng() % 4)}));
        db.Edge(info, "created", date);
        ops::NodeDeletion op(db.BuildOrDie(), info);
        ASSERT_TRUE(op.Apply(&native_scheme, &native).ok());
        ASSERT_TRUE(backend.Apply(op).ok());
        break;
      }
      case 3: {
        ops::EdgeDeletion op(b.BuildOrDie(),
                             {ops::EdgeRef{x, Sym("links-to"), y}});
        ASSERT_TRUE(op.Apply(&native_scheme, &native).ok());
        ASSERT_TRUE(backend.Apply(op).ok());
        break;
      }
      default: {
        GraphBuilder ab(native_scheme);
        NodeId info = ab.Object("Info");
        ops::Abstraction op(ab.BuildOrDie(), info,
                            Sym("Grp" + std::to_string(rng() % 2)),
                            Sym("member"), Sym("links-to"));
        ASSERT_TRUE(op.Apply(&native_scheme, &native).ok());
        ASSERT_TRUE(backend.Apply(op).ok());
        break;
      }
    }
    auto exported = backend.Export().ValueOrDie();
    ASSERT_TRUE(graph::IsIsomorphic(native, exported))
        << "seed=" << GetParam() << " step=" << step << " kind=" << kind
        << "\nnative:\n" << native.Fingerprint() << "\nrelational:\n"
        << exported.Fingerprint();
    ASSERT_TRUE(backend.scheme() == native_scheme);
    ASSERT_TRUE(native.Validate(native_scheme).ok());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendFuzzTest, ::testing::Range(0, 15));

/// Fast-vs-brute matcher differential on generator-produced graphs and
/// patterns WITH self-loops: the optimized matcher and the exponential
/// reference must agree on the exact matching set. Self-loop pattern
/// edges historically escaped the fast matcher's feasibility check, so
/// the generators emit them permanently (gen::RandomInfoGraph /
/// gen::RandomLinkPattern with allow_self_loops).
class MatcherBruteDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(MatcherBruteDifferentialTest, FastAgreesWithBruteOnSelfLoopGraphs) {
  const int seed = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed));
  Scheme scheme = hypermedia::BuildScheme().ValueOrDie();
  const size_t n = 5 + rng() % 5;
  const size_t edges = n + rng() % (2 * n);
  Instance g = gen::RandomInfoGraph(scheme, n, edges, /*seed=*/rng(),
                                    /*allow_self_loops=*/true)
                   .ValueOrDie();
  ASSERT_TRUE(g.Validate(scheme).ok());

  pattern::Pattern p =
      gen::RandomLinkPattern(scheme, /*num_nodes=*/2 + rng() % 3,
                             /*extra_edges=*/1 + rng() % 3, /*seed=*/rng(),
                             /*allow_self_loops=*/true)
          .ValueOrDie();

  auto fast = pattern::FindMatchings(p, g);
  auto slow = pattern::FindMatchingsBruteForce(p, g);
  auto key = [&](const pattern::Matching& m) {
    std::string k;
    for (NodeId node : p.AllNodes()) {
      k += std::to_string(m.At(node).id);
      k += ',';
    }
    return k;
  };
  std::set<std::string> fast_keys, slow_keys;
  for (const auto& m : fast) fast_keys.insert(key(m));
  for (const auto& m : slow) slow_keys.insert(key(m));
  ASSERT_EQ(fast.size(), slow.size()) << "seed=" << seed;
  EXPECT_EQ(fast_keys, slow_keys) << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherBruteDifferentialTest,
                         ::testing::Range(0, 30));

/// Serial-vs-parallel matcher differential on the same generator-made
/// self-loop graphs: for every thread count the parallel engine must
/// return the exact matching sequence (same order, not just the same
/// set) and the exact search-effort stats of the serial engine. The
/// threshold is forced to 0 so the parallel path engages even on these
/// small instances.
class ParallelMatcherDifferentialTest : public ::testing::TestWithParam<int> {
};

TEST_P(ParallelMatcherDifferentialTest, ParallelSequenceAndStatsMatchSerial) {
  const int seed = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed));
  Scheme scheme = hypermedia::BuildScheme().ValueOrDie();
  const size_t n = 5 + rng() % 8;
  const size_t edges = n + rng() % (2 * n);
  Instance g = gen::RandomInfoGraph(scheme, n, edges, /*seed=*/rng(),
                                    /*allow_self_loops=*/true)
                   .ValueOrDie();
  pattern::Pattern p =
      gen::RandomLinkPattern(scheme, /*num_nodes=*/2 + rng() % 3,
                             /*extra_edges=*/1 + rng() % 3, /*seed=*/rng(),
                             /*allow_self_loops=*/true)
          .ValueOrDie();

  pattern::MatchStats serial_stats;
  pattern::MatchOptions serial_options;
  serial_options.stats = &serial_stats;
  auto serial =
      pattern::Matcher(p, g, serial_options).FindAllChecked().ValueOrDie();

  for (size_t threads : {1u, 2u, 8u}) {
    pattern::MatchStats par_stats;
    pattern::MatchOptions options;
    options.stats = &par_stats;
    options.num_threads = threads;
    options.parallel_threshold = 0;  // Engage parallelism on any input.
    pattern::Matcher matcher(p, g, options);

    auto par = matcher.FindAllChecked().ValueOrDie();
    ASSERT_EQ(par, serial) << "seed=" << seed << " threads=" << threads;
    EXPECT_EQ(par_stats.candidates_scanned, serial_stats.candidates_scanned)
        << "seed=" << seed << " threads=" << threads;
    EXPECT_EQ(par_stats.feasibility_rejections,
              serial_stats.feasibility_rejections)
        << "seed=" << seed << " threads=" << threads;
    EXPECT_EQ(par_stats.backtracks, serial_stats.backtracks)
        << "seed=" << seed << " threads=" << threads;
    EXPECT_EQ(par_stats.matchings, serial_stats.matchings)
        << "seed=" << seed << " threads=" << threads;
    EXPECT_EQ(par_stats.depth_fanout, serial_stats.depth_fanout)
        << "seed=" << seed << " threads=" << threads;
    EXPECT_GE(par_stats.workers_used, 1u);
    EXPECT_LE(par_stats.workers_used, threads);

    // CountChecked() shares the parallel driver but skips materialization.
    EXPECT_EQ(matcher.CountChecked().ValueOrDie(), serial.size())
        << "seed=" << seed << " threads=" << threads;
  }

  // The empty pattern has exactly one matching (the empty map),
  // regardless of engine: the parallel driver defers it to the serial
  // path, which emits it.
  pattern::Pattern empty;
  pattern::MatchOptions options;
  options.num_threads = 8;
  options.parallel_threshold = 0;
  auto empty_matchings =
      pattern::Matcher(empty, g, options).FindAllChecked().ValueOrDie();
  ASSERT_EQ(empty_matchings.size(), 1u) << "seed=" << seed;
  EXPECT_EQ(empty_matchings[0].size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelMatcherDifferentialTest,
                         ::testing::Range(0, 30));

/// Cost-based-vs-naive planner differential on random graphs and random
/// link patterns: both planners must enumerate the same matching SET
/// (the order legitimately differs — the whole point of planning is a
/// different elimination order), and within the cost-based plan the
/// serial and parallel engines must agree on the exact sequence.
class PlannerDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(PlannerDifferentialTest, CostAndNaivePlansEnumerateTheSameSet) {
  // CI's planner-differential loop exports GOOD_PLANNER_SEED to shift
  // the sweep to fresh seeds each iteration (printed on failure).
  const char* base = std::getenv("GOOD_PLANNER_SEED");
  const int seed =
      GetParam() +
      (base != nullptr
           ? static_cast<int>(std::strtoul(base, nullptr, 10) % 1000000)
           : 0);
  std::mt19937 rng(static_cast<unsigned>(seed));
  Scheme scheme = hypermedia::BuildScheme().ValueOrDie();
  const size_t n = 5 + rng() % 10;
  const size_t edges = n + rng() % (3 * n);
  Instance g = gen::RandomInfoGraph(scheme, n, edges, /*seed=*/rng(),
                                    /*allow_self_loops=*/true)
                   .ValueOrDie();
  pattern::Pattern p =
      gen::RandomLinkPattern(scheme, /*num_nodes=*/2 + rng() % 3,
                             /*extra_edges=*/1 + rng() % 3, /*seed=*/rng(),
                             /*allow_self_loops=*/true)
          .ValueOrDie();

  auto keys = [&](const std::vector<pattern::Matching>& ms) {
    std::set<std::string> out;
    for (const auto& m : ms) {
      std::string k;
      for (NodeId node : p.AllNodes()) {
        k += std::to_string(m.At(node).id) + ",";
      }
      out.insert(k);
    }
    return out;
  };

  pattern::MatchStats naive_stats;
  pattern::MatchOptions naive_options;
  naive_options.planner = pattern::PlannerMode::kNaive;
  naive_options.stats = &naive_stats;
  auto naive =
      pattern::Matcher(p, g, naive_options).FindAllChecked().ValueOrDie();

  pattern::MatchStats cost_stats;
  pattern::MatchOptions cost_options;
  cost_options.stats = &cost_stats;
  auto cost =
      pattern::Matcher(p, g, cost_options).FindAllChecked().ValueOrDie();

  ASSERT_EQ(naive.size(), cost.size()) << "seed=" << seed;
  EXPECT_EQ(keys(naive), keys(cost)) << "seed=" << seed;
  // Both planners ordered the full pattern.
  EXPECT_EQ(naive_stats.plan_order.size(), cost_stats.plan_order.size())
      << "seed=" << seed;

  // The cost-based plan is deterministic across thread counts: every
  // parallel run reproduces the serial sequence exactly.
  for (size_t threads : {1u, 2u, 8u}) {
    pattern::MatchOptions options;
    options.num_threads = threads;
    options.parallel_threshold = 0;
    auto par = pattern::Matcher(p, g, options).FindAllChecked().ValueOrDie();
    ASSERT_EQ(par, cost) << "seed=" << seed << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlannerDifferentialTest,
                         ::testing::Range(0, 30));

/// Negation differential on random document graphs and random negated
/// patterns: EvaluateNegated and NegationFilter must both return exactly
/// the positive matchings that no full-pattern matching projects onto,
/// with both sides computed by brute force. Patterns have 0-3 positive
/// and 0-3 crossed nodes; seed % 6 forces one shape per residue (an
/// empty positive part, a crossed self-loop, a print-valued crossed
/// node, a crossed node with no edge to any positive node, crossed
/// edges between positive nodes only, three crossed nodes).
class NegationDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(NegationDifferentialTest, DirectAndFilterMatchBruteForce) {
  // CI's planner-differential loop exports GOOD_PLANNER_SEED to shift
  // the sweep to fresh seeds each iteration (printed on failure).
  const char* base = std::getenv("GOOD_PLANNER_SEED");
  const int seed =
      GetParam() +
      (base != nullptr
           ? static_cast<int>(std::strtoul(base, nullptr, 10) % 1000000)
           : 0);
  std::mt19937 rng(static_cast<unsigned>(seed));
  const Scheme scheme = hypermedia::BuildScheme().ValueOrDie();
  const auto& l = hypermedia::Labels::Get();
  Instance g = BuildStart(scheme, &rng);
  for (NodeId doc : g.NodesWithLabel(l.info)) {
    if (rng() % 4 == 0) g.AddEdge(scheme, doc, l.links_to, doc).OrDie();
  }

  const int shape = seed % 6;
  GraphBuilder b(scheme);
  std::vector<NodeId> positive;
  std::vector<NodeId> infos;  // Pattern Info nodes, positive ones first.
  std::set<NodeId> dated;     // Info nodes whose (functional) created is set.
  const size_t num_positive = shape == 0 ? 0 : 1 + rng() % 3;
  for (size_t i = 0; i < num_positive; ++i) {
    positive.push_back(b.Object("Info"));
    infos.push_back(positive.back());
  }
  std::vector<graph::Edge> crossed_edges;
  for (NodeId a : positive) {
    for (NodeId c : positive) {
      const bool crossed_loop = shape == 1 && a == c && a == positive[0];
      if (!crossed_loop && rng() % 3 != 0) continue;
      b.Edge(a, "links-to", c);
      if (crossed_loop || shape == 4 || rng() % 3 == 0) {
        crossed_edges.push_back(graph::Edge{a, l.links_to, c});
      }
    }
  }
  const size_t num_crossed = shape == 4 ? 0 : shape == 5 ? 3 : 1 + rng() % 3;
  bool valued_date = false;
  for (size_t i = 0; i < num_crossed; ++i) {
    const bool date = (shape == 2 && i == 0) || rng() % 4 == 0;
    if (date) {
      // A Date valued at most once (printable nodes are unique per
      // value); day 5 is absent from the instance.
      const bool valued = !valued_date && (shape == 2 || rng() % 2 == 0);
      valued_date |= valued;
      const NodeId d =
          valued ? b.Printable("Date",
                               Value(Date{1990, 1,
                                          1 + static_cast<int>(rng() % 5)}))
                 : b.Printable("Date");
      std::vector<NodeId> undated;
      for (NodeId n : infos) {
        if (!dated.contains(n)) undated.push_back(n);
      }
      if (!undated.empty() && rng() % 4 != 0) {
        const NodeId source = undated[rng() % undated.size()];
        b.Edge(source, "created", d);
        dated.insert(source);
      }
      continue;
    }
    const NodeId c = b.Object("Info");
    const bool isolated = shape == 3 && i == 0;
    for (NodeId other : infos) {
      if (isolated && other != c) continue;
      if (rng() % 3 == 0) b.Edge(c, "links-to", other);
      if (rng() % 3 == 0) b.Edge(other, "links-to", c);
    }
    if (shape == 1 || rng() % 4 == 0) b.Edge(c, "links-to", c);
    if (!isolated) infos.push_back(c);
  }

  macros::NegatedPattern negated;
  negated.full = b.BuildOrDie();
  negated.positive_nodes = positive;
  negated.crossed_edges = crossed_edges;
  const pattern::Pattern positive_part = negated.PositivePart().ValueOrDie();

  using Key = std::vector<uint32_t>;
  auto key = [&](const pattern::Matching& m) {
    Key k;
    for (NodeId n : positive) k.push_back(m.At(n).id);
    return k;
  };
  std::set<Key> extensible;
  for (const auto& m : pattern::FindMatchingsBruteForce(negated.full, g)) {
    extensible.insert(key(m));
  }
  std::set<Key> want;
  for (const auto& m : pattern::FindMatchingsBruteForce(positive_part, g)) {
    if (!extensible.contains(key(m))) want.insert(key(m));
  }
  const std::string where = "seed=" + std::to_string(seed) +
                            " shape=" + std::to_string(shape);

  std::set<Key> direct;
  for (const auto& m : macros::EvaluateNegated(negated, g).ValueOrDie()) {
    direct.insert(key(m));
  }
  EXPECT_EQ(direct, want) << where;

  const ops::MatchFilter filter = macros::NegationFilter(negated).ValueOrDie();
  std::set<Key> filtered;
  for (const auto& m : pattern::FindMatchings(positive_part, g)) {
    if (filter(m, g).ValueOrDie()) filtered.insert(key(m));
  }
  EXPECT_EQ(filtered, want) << where;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NegationDifferentialTest,
                         ::testing::Range(0, 30));

/// Naive-vs-incremental rule-fixpoint differential on seeded random
/// stratified rule sets: whatever the evaluation mode and thread count,
/// a run from the same start state must converge in the SAME number of
/// rounds with the SAME addition counts to an ISOMORPHIC fixpoint
/// (byte-identity is not required — node-addition ids may be assigned
/// in a different order when old matchings are skipped). This harness
/// defines correctness for the semi-naive engine.
class RulesDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(RulesDifferentialTest, NaiveAndIncrementalFixpointsAgree) {
  // CI's rules-differential loop exports GOOD_RULES_SEED to shift the
  // sweep to fresh seeds each iteration (printed on failure).
  const char* base = std::getenv("GOOD_RULES_SEED");
  const int seed =
      GetParam() +
      (base != nullptr
           ? static_cast<int>(std::strtoul(base, nullptr, 10) % 1000000)
           : 0);
  std::mt19937 rng(static_cast<unsigned>(seed));
  const Scheme proto = hypermedia::BuildScheme().ValueOrDie();

  Scheme rule_scheme = proto;
  const size_t num_strata = 2 + rng() % 4;
  const auto rule_set =
      gen::RandomStratifiedRuleSet(&rule_scheme, num_strata, /*seed=*/rng())
          .ValueOrDie();
  const size_t n = 6 + rng() % 7;
  const size_t edges = n + rng() % (2 * n);
  const Instance start = gen::RandomInfoGraph(proto, n, edges, /*seed=*/rng(),
                                              /*allow_self_loops=*/true)
                             .ValueOrDie();

  // Reference: a serial naive run.
  Scheme ref_scheme = rule_scheme;
  Instance ref = start;
  rules::RunReport ref_report;
  {
    rules::RuleEngine engine;
    engine.set_eval_mode(rules::EvalMode::kNaive);
    for (const rules::Rule& rule : rule_set) engine.AddRule(rule).OrDie();
    ref_report = engine.Run(&ref_scheme, &ref).ValueOrDie();
    ASSERT_TRUE(ref.Validate(ref_scheme).ok()) << "seed=" << seed;
    EXPECT_EQ(ref_report.incremental_rounds, 0u);
    EXPECT_EQ(ref_report.matchings_skipped, 0u);
  }

  for (rules::EvalMode mode :
       {rules::EvalMode::kNaive, rules::EvalMode::kIncremental}) {
    for (size_t threads : {1u, 2u, 8u}) {
      Scheme s = rule_scheme;
      Instance g = start;
      rules::RuleEngine engine;
      engine.set_eval_mode(mode);
      engine.set_num_threads(threads);
      engine.set_parallel_threshold(0);  // Engage parallelism on any input.
      // A delta is always a subset of the instance it grew, so fraction
      // 1.0 disables the size fallback entirely: every round after the
      // first is delta-seeded, which is the machinery under test.
      engine.set_delta_fallback_fraction(1.0);
      for (const rules::Rule& rule : rule_set) engine.AddRule(rule).OrDie();
      auto report = engine.Run(&s, &g).ValueOrDie();
      const bool incremental = mode == rules::EvalMode::kIncremental;
      SCOPED_TRACE("seed=" + std::to_string(seed) + " mode=" +
                   (incremental ? std::string("incremental") : "naive") +
                   " threads=" + std::to_string(threads));
      EXPECT_EQ(report.rounds, ref_report.rounds);
      EXPECT_EQ(report.nodes_added, ref_report.nodes_added);
      EXPECT_EQ(report.edges_added, ref_report.edges_added);
      EXPECT_EQ(report.round_delta_nodes.size(), report.rounds);
      EXPECT_EQ(report.round_delta_edges.size(), report.rounds);
      EXPECT_EQ(report.incremental_rounds + report.full_rounds,
                report.rounds);
      if (incremental) {
        // Round 1 is always full; with the fallback disabled every
        // later round is delta-driven.
        EXPECT_EQ(report.full_rounds, 1u);
        EXPECT_EQ(report.incremental_rounds, report.rounds - 1);
      } else {
        EXPECT_EQ(report.incremental_rounds, 0u);
        EXPECT_EQ(report.matchings_skipped, 0u);
      }
      EXPECT_TRUE(s == ref_scheme);
      EXPECT_TRUE(g.Validate(s).ok());
      ASSERT_TRUE(graph::IsIsomorphic(g, ref))
          << "fixpoint diverged\nreference:\n"
          << ref.Fingerprint() << "\ngot:\n"
          << g.Fingerprint();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RulesDifferentialTest,
                         ::testing::Range(0, 24));

/// Differential fault sweep over a durable database: a method call is
/// interrupted mid-flight by a randomized fault — budget exhaustion,
/// an expired deadline, or an injected WAL I/O failure — and both the
/// in-memory state and the recovered on-disk state must equal the
/// pre-call state (byte-exact in memory, isomorphic across recovery).
class MidMethodFaultTest : public ::testing::TestWithParam<int> {};

TEST_P(MidMethodFaultTest, InjectedFaultRollsBackToPreCallState) {
  // CI's fault-injection loop exports GOOD_FAULT_SEED to shift the
  // whole sweep to fresh seeds each iteration (printed on failure).
  const char* base = std::getenv("GOOD_FAULT_SEED");
  const int seed =
      GetParam() +
      (base != nullptr
           ? static_cast<int>(std::strtoul(base, nullptr, 10) % 1000000)
           : 0);
  std::mt19937 rng(static_cast<unsigned>(seed));
  std::string dir_template =
      ::testing::TempDir() + "good_fault_fuzz_XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template.data()), nullptr);
  const std::string dir = dir_template;

  method::MethodRegistry registry;
  Scheme proto = hypermedia::BuildScheme().ValueOrDie();
  registry.Register(hypermedia::MakeUpdateMethod(proto).ValueOrDie())
      .OrDie();
  program::Database initial{
      proto,
      std::move(hypermedia::BuildInstance(proto).ValueOrDie().instance)};

  const int fault = seed % 3;
  storage::FaultInjectionEnv env;
  storage::Options options;
  options.env = &env;
  options.methods = &registry;
  options.wal_retry_backoff = std::chrono::microseconds{0};
  // Fault 1 (expired deadline) applies to every Apply through this
  // handle, so its variant skips the warm-up mutations below.
  const size_t warmup = fault == 1 ? 0 : rng() % 3;
  if (fault == 0) options.exec.max_steps = 1 + rng() % 2;
  if (fault == 1) {
    options.exec.deadline =
        common::Deadline::After(std::chrono::seconds(-1));
  }
  storage::Database db =
      storage::Database::Open(dir, initial, options).ValueOrDie();

  // A few successful mutations first, so the pre-call state differs
  // from the bootstrap snapshot and recovery must really replay.
  for (size_t i = 0; i < warmup; ++i) {
    GraphBuilder b(db.scheme());
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    b.Edge(x, "links-to", y);
    ops::NodeAddition op(b.BuildOrDie(),
                         Sym("Tag" + std::to_string(i)), {{Sym("of"), y}});
    db.Apply(method::Operation(op)).OrDie();
  }

  const std::string before = db.instance().Fingerprint();
  program::Database pre{db.scheme(), db.instance()};

  if (fault == 2) {
    // A fault burst longer than the retry limit: the append stage of
    // the method call's WAL record keeps failing.
    storage::FaultPlan plan;
    if (rng() % 2 == 0) {
      plan.fail_append_at = 1;
      plan.fail_append_count = options.wal_retry_limit + 1;
    } else {
      plan.fail_appends_from = 1;  // permanent medium failure
    }
    env.SetPlan(plan);
  }

  auto call = hypermedia::MakeUpdateCall(db.scheme(), "Music History",
                                         Date{1990, 1, 16})
                  .ValueOrDie();
  Status s = db.Apply(method::Operation(call));
  ASSERT_FALSE(s.ok()) << "seed=" << seed << " fault=" << fault;
  switch (fault) {
    case 0:
      EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
      break;
    case 1:
      EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
      break;
    default:
      EXPECT_GE(env.faults_fired(), 1u);
      break;
  }

  // In memory: byte-exact rollback.
  EXPECT_EQ(db.instance().Fingerprint(), before)
      << "seed=" << seed << " fault=" << fault;
  EXPECT_TRUE(db.scheme() == pre.scheme);

  // Across recovery: the failed call left no trace in the log.
  env.Reset();
  storage::Options clean;
  clean.methods = &registry;
  storage::Database reopened =
      storage::Database::Open(dir, clean).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, warmup)
      << "seed=" << seed << " fault=" << fault;
  EXPECT_TRUE(reopened.scheme() == pre.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), pre.instance))
      << "seed=" << seed << " fault=" << fault;

  // And the same call goes through once the fault is gone.
  reopened.Apply(method::Operation(call)).OrDie();
  EXPECT_NE(reopened.instance().Fingerprint(), before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MidMethodFaultTest, ::testing::Range(0, 18));

// ---------------------------------------------------------------------------
// Salvage scanner fuzz: random log corruption
// ---------------------------------------------------------------------------

class SalvageFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(SalvageFuzzTest, RandomCorruptionNeverBreaksScanInvariants) {
  // CI's fault-injection loop exports GOOD_FAULT_SEED to shift the
  // seed range across runs.
  const char* base = std::getenv("GOOD_FAULT_SEED");
  const int seed =
      GetParam() + (base != nullptr ? std::atoi(base) : 0) * 1000;
  std::mt19937 rng(static_cast<unsigned>(seed));

  // A synthetic log of 20-60 frames with varied payload sizes.
  std::string log;
  size_t frames = 20 + rng() % 41;
  for (size_t i = 0; i < frames; ++i) {
    std::string payload;
    size_t len = 1 + rng() % 200;
    for (size_t j = 0; j < len; ++j) {
      payload.push_back(static_cast<char>(rng() % 256));
    }
    storage::AppendRecordTo(&log, payload);
  }

  // An undamaged log scans clean and keeps everything.
  {
    storage::SalvageResult clean = storage::WalSalvager::Scan(log);
    EXPECT_TRUE(clean.report.clean);
    EXPECT_EQ(clean.frames.size(), frames);
    EXPECT_EQ(clean.report.clean_prefix_bytes, log.size());
  }

  // Inflict 1-4 random mutilations: byte flips, range erasures, and
  // garbage insertions, anywhere in the file.
  std::string hurt = log;
  size_t wounds = 1 + rng() % 4;
  for (size_t w = 0; w < wounds && !hurt.empty(); ++w) {
    switch (rng() % 3) {
      case 0:
        hurt[rng() % hurt.size()] ^= static_cast<char>(1 + rng() % 255);
        break;
      case 1: {
        size_t at = rng() % hurt.size();
        hurt.erase(at, std::min<size_t>(1 + rng() % 64,
                                        hurt.size() - at));
        break;
      }
      default: {
        std::string junk;
        for (size_t j = 0, n = 1 + rng() % 32; j < n; ++j) {
          junk.push_back(static_cast<char>(rng() % 256));
        }
        hurt.insert(rng() % (hurt.size() + 1), junk);
        break;
      }
    }
  }

  storage::SalvageResult result = storage::WalSalvager::Scan(hurt);
  // Accounting invariant: every byte is either kept or dropped.
  EXPECT_EQ(result.report.bytes_kept + result.report.bytes_dropped,
            hurt.size());
  EXPECT_EQ(result.report.frames_kept, result.frames.size());
  // Every kept frame re-verifies against the mutated file at its
  // reported offset — the scanner never invents data.
  for (const storage::SalvagedFrame& frame : result.frames) {
    ASSERT_LE(frame.offset + storage::kRecordHeaderSize + frame.payload.size(),
              hurt.size());
    EXPECT_EQ(hurt.substr(frame.offset + storage::kRecordHeaderSize,
                          frame.payload.size()),
              frame.payload);
    EXPECT_EQ(storage::Crc32(frame.payload),
              storage::DecodeFixed32(
                  std::string_view(hurt).substr(frame.offset + 4, 4)));
  }
  // Dropped ranges are sorted, non-overlapping, and in bounds.
  uint64_t last_end = 0;
  for (const storage::DroppedRange& range : result.report.dropped) {
    EXPECT_GE(range.offset, last_end);
    EXPECT_LE(range.offset + range.length, hurt.size());
    last_end = range.offset + range.length;
  }
  // Salvage output is a fixed point: a log rebuilt from the kept
  // frames scans clean and keeps them all.
  std::string repaired;
  for (const storage::SalvagedFrame& frame : result.frames) {
    storage::AppendRecordTo(&repaired, frame.payload);
  }
  storage::SalvageResult rescan = storage::WalSalvager::Scan(repaired);
  EXPECT_TRUE(rescan.report.clean);
  EXPECT_EQ(rescan.frames.size(), result.frames.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SalvageFuzzTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace good::relational
