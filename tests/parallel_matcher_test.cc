/// Serial-vs-parallel determinism suite for the parallel matching and
/// bulk-application engine: figure replays (the paper's own operations
/// applied with and without worker threads must produce isomorphic
/// databases and identical stats), the serial-fallback threshold,
/// Count-vs-FindAll agreement, and the rule engine's fixpoint under
/// parallelism. The random-graph differential sweeps live in
/// backend_fuzz_test.cc; this file covers the named shapes.

#include <gtest/gtest.h>

#include <chrono>
#include <random>
#include <thread>

#include "common/deadline.h"
#include "gen/generators.h"
#include "graph/isomorphism.h"
#include "hypermedia/hypermedia.h"
#include "pattern/builder.h"
#include "pattern/matcher.h"
#include "rules/rules.h"

namespace good::pattern {
namespace {

using graph::Instance;
using graph::NodeId;
using schema::Scheme;

void ExpectSameApplyStats(const ops::ApplyStats& serial,
                          const ops::ApplyStats& par) {
  EXPECT_EQ(par.matchings, serial.matchings);
  EXPECT_EQ(par.nodes_added, serial.nodes_added);
  EXPECT_EQ(par.edges_added, serial.edges_added);
  EXPECT_EQ(par.nodes_deleted, serial.nodes_deleted);
  EXPECT_EQ(par.edges_deleted, serial.edges_deleted);
  EXPECT_EQ(par.match.candidates_scanned, serial.match.candidates_scanned);
  EXPECT_EQ(par.match.feasibility_rejections,
            serial.match.feasibility_rejections);
  EXPECT_EQ(par.match.backtracks, serial.match.backtracks);
  EXPECT_EQ(par.match.matchings, serial.match.matchings);
  EXPECT_EQ(par.match.depth_fanout, serial.match.depth_fanout);
}

/// Applies `op` twice from the same start state — serially and with the
/// parallel engine forced on — and checks the resulting databases are
/// isomorphic (in fact the engines assign identical node ids, but
/// isomorphism is the semantic contract) with identical ApplyStats.
template <typename Op>
void ExpectParallelReplayMatches(const Scheme& scheme,
                                 const Instance& start, Op op) {
  Scheme serial_scheme = scheme;
  Instance serial_instance = start;
  ops::ApplyStats serial_stats;
  ASSERT_TRUE(
      op.Apply(&serial_scheme, &serial_instance, &serial_stats).ok());

  Scheme par_scheme = scheme;
  Instance par_instance = start;
  ops::ApplyStats par_stats;
  op.set_num_threads(4);
  op.set_parallel_threshold(0);
  ASSERT_TRUE(op.Apply(&par_scheme, &par_instance, &par_stats).ok());

  EXPECT_TRUE(graph::IsIsomorphic(serial_instance, par_instance))
      << "serial:\n"
      << serial_instance.Fingerprint() << "\nparallel:\n"
      << par_instance.Fingerprint();
  EXPECT_TRUE(par_scheme == serial_scheme);
  ExpectSameApplyStats(serial_stats, par_stats);
}

class ParallelFigureReplayTest : public ::testing::Test {
 protected:
  void SetUp() override { scheme_ = hypermedia::BuildScheme().ValueOrDie(); }
  Scheme scheme_;
};

TEST_F(ParallelFigureReplayTest, Fig6NodeAddition) {
  auto built = hypermedia::BuildInstance(scheme_).ValueOrDie();
  auto op = hypermedia::Fig6NodeAddition(scheme_).ValueOrDie();
  ExpectParallelReplayMatches(scheme_, built.instance, op);
}

TEST_F(ParallelFigureReplayTest, Fig10EdgeAddition) {
  auto built = hypermedia::BuildInstance(scheme_).ValueOrDie();
  auto op = hypermedia::Fig10EdgeAddition(scheme_).ValueOrDie();
  ExpectParallelReplayMatches(scheme_, built.instance, op);
}

TEST_F(ParallelFigureReplayTest, Fig14NodeDeletion) {
  auto built = hypermedia::BuildInstance(scheme_).ValueOrDie();
  auto op = hypermedia::Fig14NodeDeletion(scheme_).ValueOrDie();
  ExpectParallelReplayMatches(scheme_, built.instance, op);
}

TEST_F(ParallelFigureReplayTest, Fig18AbstractionPipeline) {
  // The three-step Figure 18 pipeline (tag new, tag old, abstract) run
  // end-to-end in both engines; each parallel step builds on the
  // parallel result of the previous one.
  Instance serial_instance =
      hypermedia::BuildVersionInstance(scheme_).ValueOrDie();
  Instance par_instance = serial_instance;
  Scheme serial_scheme = scheme_;
  Scheme par_scheme = scheme_;

  auto serial_fig = hypermedia::Fig18Abstraction(scheme_).ValueOrDie();
  ops::ApplyStats serial_stats;
  ASSERT_TRUE(serial_fig.tag_new
                  .Apply(&serial_scheme, &serial_instance, &serial_stats)
                  .ok());
  ASSERT_TRUE(serial_fig.tag_old
                  .Apply(&serial_scheme, &serial_instance, &serial_stats)
                  .ok());
  ASSERT_TRUE(serial_fig.abstraction
                  .Apply(&serial_scheme, &serial_instance, &serial_stats)
                  .ok());

  auto par_fig = hypermedia::Fig18Abstraction(scheme_).ValueOrDie();
  par_fig.tag_new.set_num_threads(4);
  par_fig.tag_new.set_parallel_threshold(0);
  par_fig.tag_old.set_num_threads(4);
  par_fig.tag_old.set_parallel_threshold(0);
  par_fig.abstraction.set_num_threads(4);
  par_fig.abstraction.set_parallel_threshold(0);
  ops::ApplyStats par_stats;
  ASSERT_TRUE(
      par_fig.tag_new.Apply(&par_scheme, &par_instance, &par_stats).ok());
  ASSERT_TRUE(
      par_fig.tag_old.Apply(&par_scheme, &par_instance, &par_stats).ok());
  ASSERT_TRUE(
      par_fig.abstraction.Apply(&par_scheme, &par_instance, &par_stats).ok());

  EXPECT_TRUE(graph::IsIsomorphic(serial_instance, par_instance))
      << "serial:\n"
      << serial_instance.Fingerprint() << "\nparallel:\n"
      << par_instance.Fingerprint();
  EXPECT_TRUE(par_scheme == serial_scheme);
  ExpectSameApplyStats(serial_stats, par_stats);
  // The Figure 18 narrative: three Same-Info groups.
  EXPECT_EQ(par_instance.CountNodesWithLabel(Sym("Same-Info")), 3u);
}

class ParallelThresholdTest : public ::testing::Test {
 protected:
  void SetUp() override { scheme_ = hypermedia::BuildScheme().ValueOrDie(); }

  /// A two-node links-to pattern (the matcher-scaling workload shape).
  Pattern LinkPattern() {
    GraphBuilder b(scheme_);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    b.Edge(x, "links-to", y);
    return b.BuildOrDie();
  }

  Scheme scheme_;
};

TEST_F(ParallelThresholdTest, SmallInputsStaySerial) {
  // 16 depth-0 candidates < kDefaultParallelThreshold (64): even with
  // 8 worker threads requested, the engine must fall back to the serial
  // path (workers_used == 1) — partitioning overhead dominates tiny
  // inputs.
  Instance g =
      gen::RandomInfoGraph(scheme_, 16, 32, /*seed=*/7).ValueOrDie();
  Pattern p = LinkPattern();

  MatchStats stats;
  MatchOptions options;
  options.stats = &stats;
  options.num_threads = 8;
  auto serial_sized = Matcher(p, g, options).FindAllChecked().ValueOrDie();
  EXPECT_EQ(stats.workers_used, 1u);

  // Forcing the threshold to 0 engages the workers on the same input.
  MatchStats forced_stats;
  options.stats = &forced_stats;
  options.parallel_threshold = 0;
  auto forced = Matcher(p, g, options).FindAllChecked().ValueOrDie();
  EXPECT_EQ(forced_stats.workers_used, 8u);
  EXPECT_EQ(forced, serial_sized);
}

TEST_F(ParallelThresholdTest, DefaultThresholdEngagesOnLargeInputs) {
  // 512 depth-0 candidates ≥ 64: the default threshold lets 4 workers
  // engage, and the result still equals the serial FindMatchings.
  Instance g =
      gen::RandomInfoGraph(scheme_, 512, 1024, /*seed=*/9).ValueOrDie();
  Pattern p = LinkPattern();

  MatchStats stats;
  MatchOptions options;
  options.stats = &stats;
  options.num_threads = 4;
  auto par = Matcher(p, g, options).FindAllChecked().ValueOrDie();
  EXPECT_EQ(stats.workers_used, 4u);
  EXPECT_EQ(par, FindMatchings(p, g));
}

TEST_F(ParallelThresholdTest, CountAgreesWithMaterializeUnderParallelism) {
  std::mt19937 rng(123);
  for (int round = 0; round < 8; ++round) {
    const size_t n = 8 + rng() % 16;
    Instance g = gen::RandomInfoGraph(scheme_, n, 2 * n, /*seed=*/rng(),
                                      /*allow_self_loops=*/true)
                     .ValueOrDie();
    Pattern p =
        gen::RandomLinkPattern(scheme_, 2 + rng() % 3, 1 + rng() % 3,
                               /*seed=*/rng(), /*allow_self_loops=*/true)
            .ValueOrDie();
    MatchOptions options;
    options.num_threads = 4;
    options.parallel_threshold = 0;
    Matcher matcher(p, g, options);
    std::vector<Matching> found = matcher.FindAllChecked().ValueOrDie();
    EXPECT_EQ(matcher.CountChecked().ValueOrDie(), found.size())
        << "round=" << round;
    EXPECT_EQ(found, FindMatchings(p, g)) << "round=" << round;
  }
}

TEST(ParallelRuleEngineTest, FixpointMatchesSerialEngine) {
  // The transitive-closure rule set run to fixpoint by a serial and a
  // parallel engine from the same start state: same rounds, same
  // additions, same final graph (the engines even agree on node ids —
  // isomorphism is the weaker semantic contract we assert).
  auto build_engine = [](const Scheme& scheme, rules::RuleEngine* engine) {
    GraphBuilder b(scheme);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    b.Edge(x, "links-to", y);
    rules::Rule seed;
    seed.name = "seed";
    seed.condition.full = b.BuildOrDie();
    seed.condition.positive_nodes = {x, y};
    seed.edges = {ops::EdgeSpec{x, Sym("reach"), y, /*functional=*/false}};
    engine->AddRule(std::move(seed)).OrDie();

    Scheme ext = scheme;
    ext.EnsureMultivaluedEdgeLabel(Sym("reach")).OrDie();
    ext.EnsureTriple(Sym("Info"), Sym("reach"), Sym("Info")).OrDie();
    GraphBuilder sb(ext);
    NodeId sx = sb.Object("Info");
    NodeId sy = sb.Object("Info");
    NodeId sz = sb.Object("Info");
    sb.Edge(sx, "reach", sy).Edge(sy, "links-to", sz);
    rules::Rule step;
    step.name = "step";
    step.condition.full = sb.BuildOrDie();
    step.condition.positive_nodes = {sx, sy, sz};
    step.edges = {ops::EdgeSpec{sx, Sym("reach"), sz, /*functional=*/false}};
    engine->AddRule(std::move(step)).OrDie();
  };

  Scheme base = hypermedia::BuildScheme().ValueOrDie();
  Instance start =
      gen::RandomInfoGraph(base, 24, 48, /*seed=*/17).ValueOrDie();

  Scheme serial_scheme = base;
  Instance serial_g = start;
  rules::RuleEngine serial_engine;
  build_engine(base, &serial_engine);
  auto serial_report =
      serial_engine.Run(&serial_scheme, &serial_g).ValueOrDie();

  Scheme par_scheme = base;
  Instance par_g = start;
  rules::RuleEngine par_engine;
  build_engine(base, &par_engine);
  par_engine.set_num_threads(4);
  par_engine.set_parallel_threshold(0);
  auto par_report = par_engine.Run(&par_scheme, &par_g).ValueOrDie();

  EXPECT_EQ(par_report.rounds, serial_report.rounds);
  EXPECT_EQ(par_report.nodes_added, serial_report.nodes_added);
  EXPECT_EQ(par_report.edges_added, serial_report.edges_added);
  EXPECT_EQ(par_report.match.matchings, serial_report.match.matchings);
  EXPECT_EQ(serial_report.workers_used, 1u);
  EXPECT_GE(par_report.workers_used, 2u);
  EXPECT_LE(par_report.workers_used, 4u);
  EXPECT_TRUE(graph::IsIsomorphic(serial_g, par_g));
  EXPECT_TRUE(par_scheme == serial_scheme);
}

/// Parallel sections share nothing but the read-only instance and plan,
/// so any number of callers may run them at once: four caller threads,
/// each forking its own workers over one const instance, must all see
/// the serial result.
TEST(ConcurrentParallelSectionsTest, CallersSharingOneInstanceAgreeWithSerial) {
  const Scheme scheme = hypermedia::BuildScheme().ValueOrDie();
  const Instance g =
      gen::RandomInfoGraph(scheme, 256, 768, /*seed=*/31).ValueOrDie();
  // Fewer roots than the oversubscribed run's threads.
  const Instance small =
      gen::RandomInfoGraph(scheme, 12, 24, /*seed=*/32).ValueOrDie();
  pattern::GraphBuilder b(scheme);
  NodeId x = b.Object("Info");
  NodeId y = b.Object("Info");
  NodeId z = b.Object("Info");
  b.Edge(x, "links-to", y).Edge(y, "links-to", z);
  const Pattern p = b.BuildOrDie();
  const std::vector<Matching> serial = FindMatchings(p, g);
  const std::vector<Matching> small_serial = FindMatchings(p, small);
  const size_t small_roots = small.CountNodesWithLabel(Sym("Info"));
  ASSERT_FALSE(serial.empty());

  struct Outcome {
    Result<std::vector<Matching>> found = Status::Internal("not run");
    Result<size_t> counted = Status::Internal("not run");
    Result<std::vector<Matching>> small_found = Status::Internal("not run");
    MatchStats stats;
    MatchStats small_stats;
  };
  constexpr size_t kCallers = 4;
  std::vector<Outcome> outcomes(kCallers);
  {
    std::vector<std::jthread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        Outcome& outcome = outcomes[c];
        MatchOptions options;
        options.num_threads = 4;
        options.parallel_threshold = 0;
        options.stats = &outcome.stats;
        outcome.found = Matcher(p, g, options).FindAllChecked();
        outcome.counted = Matcher(p, g, options).CountChecked();
        options.num_threads = small_roots + 4;
        options.stats = &outcome.small_stats;
        outcome.small_found = Matcher(p, small, options).FindAllChecked();
      });
    }
  }
  for (size_t c = 0; c < kCallers; ++c) {
    const Outcome& outcome = outcomes[c];
    ASSERT_TRUE(outcome.found.ok()) << outcome.found.status();
    EXPECT_EQ(*outcome.found, serial) << "caller=" << c;
    ASSERT_TRUE(outcome.counted.ok()) << outcome.counted.status();
    EXPECT_EQ(*outcome.counted, serial.size()) << "caller=" << c;
    EXPECT_EQ(outcome.stats.workers_used, 4u) << "caller=" << c;
    ASSERT_TRUE(outcome.small_found.ok()) << outcome.small_found.status();
    EXPECT_EQ(*outcome.small_found, small_serial) << "caller=" << c;
    EXPECT_EQ(outcome.small_stats.workers_used, small_roots)
        << "caller=" << c;
  }
}

/// Cooperative cancellation of the matching engines: a CancelToken
/// fired from another thread mid-enumeration must interrupt both the
/// serial and the parallel drivers promptly with kCancelled, and an
/// unexpired deadline must not perturb results (determinism contract).
class CancellationTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override { scheme_ = hypermedia::BuildScheme().ValueOrDie(); }

  /// A 3-chain plus a free node: on the dense graphs below the matching
  /// space is in the millions, far more work than the interrupt latency.
  Pattern HeavyPattern() {
    pattern::GraphBuilder b(scheme_);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    NodeId z = b.Object("Info");
    b.Object("Info");  // unconstrained: multiplies the search space
    b.Edge(x, "links-to", y).Edge(y, "links-to", z);
    return b.BuildOrDie();
  }

  /// 800 nodes: HeavyPattern has about 10M matchings here. Counting is
  /// cheap per matching, so 400 nodes (2.4M matchings) can finish within
  /// the few milliseconds the count tests wait before interrupting.
  Instance CountGraph() {
    return gen::RandomInfoGraph(scheme_, 800, 3200, /*seed=*/21)
        .ValueOrDie();
  }

  Scheme scheme_;
};

TEST_P(CancellationTest, CrossThreadCancelInterruptsCountPromptly) {
  const size_t threads = GetParam();
  Instance g = CountGraph();
  Pattern p = HeavyPattern();

  common::CancelToken token;
  common::Deadline deadline;
  deadline.ObserveCancellation(&token);
  MatchOptions options;
  options.num_threads = threads;
  options.parallel_threshold = 0;  // Force the parallel driver.
  options.deadline = &deadline;
  Matcher matcher(p, g, options);

  std::thread canceller([&token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    token.Cancel();
  });
  auto count = matcher.CountChecked();
  canceller.join();
  ASSERT_FALSE(count.ok()) << "threads=" << threads;
  EXPECT_TRUE(count.status().IsCancelled()) << count.status();
}

TEST_P(CancellationTest, MidRunDeadlineReportsDeadlineExceeded) {
  // A wall-clock deadline that expires while the workers run: each
  // worker observes it at its own next poll, so the run reports
  // kDeadlineExceeded (never kCancelled) and returns promptly.
  const size_t threads = GetParam();
  const Instance count_graph = CountGraph();
  // FindAll materializes each matching, so 400 nodes are plenty.
  const Instance found_graph =
      gen::RandomInfoGraph(scheme_, 400, 1600, /*seed=*/21).ValueOrDie();
  Pattern p = HeavyPattern();
  MatchOptions options;
  options.num_threads = threads;
  options.parallel_threshold = 0;  // Force the parallel driver.
  using Clock = std::chrono::steady_clock;
  constexpr auto kBudget = std::chrono::milliseconds(3);
  constexpr auto kBound = std::chrono::seconds(2);

  common::Deadline count_deadline = common::Deadline::After(kBudget);
  options.deadline = &count_deadline;
  Clock::time_point start = Clock::now();
  auto count = Matcher(p, count_graph, options).CountChecked();
  EXPECT_LT(Clock::now() - start, kBound) << "threads=" << threads;
  ASSERT_FALSE(count.ok()) << "threads=" << threads;
  EXPECT_TRUE(count.status().IsDeadlineExceeded()) << count.status();

  common::Deadline found_deadline = common::Deadline::After(kBudget);
  options.deadline = &found_deadline;
  start = Clock::now();
  auto found = Matcher(p, found_graph, options).FindAllChecked();
  EXPECT_LT(Clock::now() - start, kBound) << "threads=" << threads;
  ASSERT_FALSE(found.ok()) << "threads=" << threads;
  EXPECT_TRUE(found.status().IsDeadlineExceeded()) << found.status();
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, CancellationTest,
                         ::testing::Values(2u, 8u));

TEST_F(CancellationTest, PreCancelledTokenShortCircuitsEveryEntryPoint) {
  Instance g =
      gen::RandomInfoGraph(scheme_, 32, 64, /*seed=*/5).ValueOrDie();
  Pattern p = HeavyPattern();
  common::CancelToken token;
  token.Cancel();
  common::Deadline deadline;
  deadline.ObserveCancellation(&token);
  MatchOptions options;
  options.deadline = &deadline;

  auto found = Matcher(p, g, options).FindAllChecked();
  ASSERT_FALSE(found.ok());
  EXPECT_TRUE(found.status().IsCancelled());
  auto count = Matcher(p, g, options).CountChecked();
  ASSERT_FALSE(count.ok());
  EXPECT_TRUE(count.status().IsCancelled());
  size_t visited = 0;
  Status s = Matcher(p, g, options).ForEachChecked([&](const Matching&) {
    ++visited;
    return true;
  });
  EXPECT_TRUE(s.IsCancelled());
  EXPECT_EQ(visited, 0u);
}

TEST_F(CancellationTest, ExpiredDeadlineReportsDeadlineExceeded) {
  Instance g =
      gen::RandomInfoGraph(scheme_, 32, 64, /*seed=*/6).ValueOrDie();
  common::Deadline deadline =
      common::Deadline::After(std::chrono::seconds(-1));
  MatchOptions options;
  options.deadline = &deadline;
  auto found = Matcher(HeavyPattern(), g, options).FindAllChecked();
  ASSERT_FALSE(found.ok());
  EXPECT_TRUE(found.status().IsDeadlineExceeded());
}

TEST(CachedPlanReplayTest, ParallelRunsOverCachedPlansStayDeterministic) {
  // A plan compiled by a serial run and replayed from the cache by
  // parallel runs (and vice versa) must yield the exact serial
  // sequence — the cache hands every engine the same plan, so the
  // byte-identity guarantee survives caching.
  ResetGlobalPlanCache();
  Scheme scheme = hypermedia::BuildScheme().ValueOrDie();
  Instance g =
      gen::RandomInfoGraph(scheme, 48, 144, /*seed=*/21).ValueOrDie();
  pattern::GraphBuilder b(scheme);
  NodeId x = b.Object("Info");
  NodeId y = b.Object("Info");
  NodeId z = b.Object("Info");
  b.Edge(x, "links-to", y).Edge(y, "links-to", z);
  Pattern p = b.BuildOrDie();

  MatchStats serial_stats;
  MatchOptions serial_options;
  serial_options.stats = &serial_stats;
  auto serial = Matcher(p, g, serial_options).FindAllChecked().ValueOrDie();
  EXPECT_EQ(serial_stats.plan_cache_misses, 1u);
  EXPECT_EQ(serial_stats.plan_cache_hits, 0u);

  for (size_t threads : {2u, 8u}) {
    MatchStats par_stats;
    MatchOptions options;
    options.stats = &par_stats;
    options.num_threads = threads;
    options.parallel_threshold = 0;
    auto par = Matcher(p, g, options).FindAllChecked().ValueOrDie();
    ASSERT_EQ(par, serial) << "threads=" << threads;
    // Replays hit the cached plan — one acquisition per run, shared by
    // every worker.
    EXPECT_EQ(par_stats.plan_cache_hits, 1u) << "threads=" << threads;
    EXPECT_EQ(par_stats.plan_cache_misses, 0u) << "threads=" << threads;
    EXPECT_EQ(par_stats.depth_fanout, serial_stats.depth_fanout)
        << "threads=" << threads;
    EXPECT_EQ(par_stats.plan_order, serial_stats.plan_order)
        << "threads=" << threads;
  }

  // Back-to-back parallel replays agree element-wise, too.
  MatchOptions options;
  options.num_threads = 8;
  options.parallel_threshold = 0;
  auto first = Matcher(p, g, options).FindAllChecked().ValueOrDie();
  auto second = Matcher(p, g, options).FindAllChecked().ValueOrDie();
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, serial);
}

TEST_F(CancellationTest, UnexpiredDeadlineDoesNotPerturbResults) {
  Instance g =
      gen::RandomInfoGraph(scheme_, 64, 192, /*seed=*/8).ValueOrDie();
  pattern::GraphBuilder b(scheme_);
  NodeId x = b.Object("Info");
  NodeId y = b.Object("Info");
  b.Edge(x, "links-to", y);
  Pattern p = b.BuildOrDie();

  auto bare = Matcher(p, g).FindAllChecked().ValueOrDie();
  common::Deadline deadline =
      common::Deadline::After(std::chrono::hours(1));
  for (size_t threads : {0u, 4u}) {
    MatchOptions options;
    options.deadline = &deadline;
    options.num_threads = threads;
    options.parallel_threshold = 0;
    auto checked = Matcher(p, g, options).FindAllChecked();
    ASSERT_TRUE(checked.ok()) << "threads=" << threads;
    EXPECT_EQ(*checked, bare) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace good::pattern
