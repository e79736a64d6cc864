/// Tests for the multi-session server: version chain and
/// first-committer-wins validation, session snapshot isolation and
/// read-your-writes, the commit pipeline (group commit, conflicts,
/// deadline-bounded waits under a stalled device), the text protocol
/// state machine, and the client wrapper's automatic retry.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/retry.h"
#include "graph/isomorphism.h"
#include "hypermedia/hypermedia.h"
#include "pattern/builder.h"
#include "program/op_serialize.h"
#include "program/serialize.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/session.h"
#include "server/version.h"
#include "storage/database.h"
#include "storage/fault_env.h"

namespace good::server {
namespace {

namespace hm = good::hypermedia;

using graph::Instance;
using graph::NodeId;
using method::Operation;
using pattern::GraphBuilder;
using schema::Scheme;

/// A fresh empty directory under the test tmp dir.
std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "good_server_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

/// The paper database: Figure 1 scheme + Figure 2/3 instance.
program::Database PaperDatabase() {
  Scheme scheme = hm::BuildScheme().ValueOrDie();
  Instance instance =
      std::move(hm::BuildInstance(scheme).ValueOrDie().instance);
  return program::Database{std::move(scheme), std::move(instance)};
}

/// Storage options for a server: no per-append fsync (the pipeline's
/// group-commit barrier provides durability).
storage::Options GroupCommitOptions(storage::FileEnv* env = nullptr) {
  storage::Options options;
  options.sync_every_append = false;
  options.env = env;
  return options;
}

/// Opens a server over a fresh paper database in `dir`.
std::unique_ptr<Server> OpenPaperServer(
    const std::string& dir, ServerOptions options = {},
    storage::Options db_options = GroupCommitOptions()) {
  storage::Database db =
      storage::Database::Open(dir, PaperDatabase(), db_options).ValueOrDie();
  return Server::Open(std::move(db), options).ValueOrDie();
}

ops::Footprint FootprintOf(std::initializer_list<uint32_t> node_ids) {
  ops::Footprint fp;
  for (uint32_t id : node_ids) fp.AddNode(NodeId{id});
  return fp;
}

// ---------------------------------------------------------------------------
// VersionChain
// ---------------------------------------------------------------------------

VersionRef MakeVersion(uint64_t id, ops::Footprint footprint) {
  auto version = std::make_shared<Version>();
  version->id = id;
  version->footprint = std::move(footprint);
  return version;
}

TEST(VersionChainTest, PublishAdvancesCurrent) {
  VersionChain chain;
  chain.Reset(MakeVersion(0, {}));
  EXPECT_EQ(chain.current_id(), 0u);
  chain.Publish(MakeVersion(1, FootprintOf({7})));
  chain.Publish(MakeVersion(2, FootprintOf({9})));
  EXPECT_EQ(chain.current_id(), 2u);
  EXPECT_EQ(chain.Current()->id, 2u);
}

TEST(VersionChainTest, FirstConflictFindsEarliestOverlap) {
  VersionChain chain;
  chain.Reset(MakeVersion(0, {}));
  chain.Publish(MakeVersion(1, FootprintOf({1, 2})));
  chain.Publish(MakeVersion(2, FootprintOf({3})));
  chain.Publish(MakeVersion(3, FootprintOf({3, 4})));

  // Base 0 vs a footprint overlapping versions 2 and 3: earliest wins.
  EXPECT_EQ(chain.FirstConflict(0, FootprintOf({3})).ValueOrDie(), 2u);
  // Based after the overlap: only versions in (base, current] count.
  EXPECT_EQ(chain.FirstConflict(2, FootprintOf({3})).ValueOrDie(), 3u);
  // Disjoint writes never conflict.
  EXPECT_EQ(chain.FirstConflict(0, FootprintOf({99})).ValueOrDie(), 0u);
  // A transaction based on the current version has nothing to check.
  EXPECT_EQ(chain.FirstConflict(3, FootprintOf({3})).ValueOrDie(), 0u);
}

TEST(VersionChainTest, SnapshotOlderThanHistoryWindowAborts) {
  VersionChain chain(/*max_history=*/2);
  chain.Reset(MakeVersion(0, {}));
  for (uint64_t v = 1; v <= 4; ++v) {
    chain.Publish(MakeVersion(v, FootprintOf({uint32_t(v)})));
  }
  // Only footprints of versions 3 and 4 are retained; a base of 1
  // would need version 2's footprint, so validation fails closed.
  auto result = chain.FirstConflict(1, FootprintOf({42}));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsAborted());
  EXPECT_TRUE(common::IsRetriable(result.status()));
  // A base inside the window still validates.
  EXPECT_EQ(chain.FirstConflict(2, FootprintOf({42})).ValueOrDie(), 0u);
  EXPECT_EQ(chain.FirstConflict(2, FootprintOf({4})).ValueOrDie(), 4u);
}

// ---------------------------------------------------------------------------
// Sessions: snapshot isolation
// ---------------------------------------------------------------------------

TEST(SessionTest, ReaderPinsItsSnapshotAcrossCommits) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  auto reader = server->StartSession();
  auto writer = server->StartSession();
  const Scheme& scheme = reader->view().scheme;

  auto fig4 = hm::Fig4Pattern(scheme).ValueOrDie();
  EXPECT_EQ(reader->Count(fig4.pattern).ValueOrDie(), 2u);
  size_t nodes_before = reader->view().instance.num_nodes();

  // Fig 6 adds one fresh Rock tag per matched Info pair — the new
  // state has more nodes, the reader's pinned state does not.
  ASSERT_TRUE(
      writer->Execute(Operation(hm::Fig6NodeAddition(scheme).ValueOrDie()))
          .ok());
  CommitResult committed = writer->Commit();
  ASSERT_TRUE(committed.ok()) << committed.status.ToString();
  EXPECT_EQ(committed.version, 1u);
  EXPECT_GE(committed.batch_size, 1u);

  // The reader's pinned snapshot is immutable: identical state.
  EXPECT_EQ(reader->base_version(), 0u);
  EXPECT_EQ(reader->view().instance.num_nodes(), nodes_before);
  EXPECT_EQ(reader->Count(fig4.pattern).ValueOrDie(), 2u);

  // Refresh re-pins the committed version and the new state shows.
  ASSERT_TRUE(reader->Refresh().ok());
  EXPECT_EQ(reader->base_version(), 1u);
  EXPECT_GT(reader->view().instance.num_nodes(), nodes_before);
  ASSERT_TRUE(server->Close().ok());
}

TEST(SessionTest, ReadYourWritesBeforeCommit) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  auto session = server->StartSession();
  const Scheme scheme = session->view().scheme;  // copy: view will evolve

  size_t nodes_before = session->view().instance.num_nodes();
  ASSERT_TRUE(
      session->Execute(Operation(hm::Fig6NodeAddition(scheme).ValueOrDie()))
          .ok());
  EXPECT_TRUE(session->dirty());
  // The session sees its own uncommitted write ...
  EXPECT_GT(session->view().instance.num_nodes(), nodes_before);
  // ... but nothing is published yet.
  EXPECT_EQ(server->current_version()->id, 0u);

  // Rollback restores the pinned snapshot view.
  session->Rollback();
  EXPECT_FALSE(session->dirty());
  EXPECT_EQ(session->view().instance.num_nodes(), nodes_before);
  ASSERT_TRUE(server->Close().ok());
}

TEST(SessionTest, RefreshIsRejectedWhileDirty) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  auto session = server->StartSession();
  const Scheme& scheme = session->view().scheme;
  ASSERT_TRUE(
      session->Execute(Operation(hm::Fig6NodeAddition(scheme).ValueOrDie()))
          .ok());
  Status refreshed = session->Refresh();
  EXPECT_TRUE(refreshed.IsFailedPrecondition()) << refreshed.ToString();
  session->Rollback();
  EXPECT_TRUE(session->Refresh().ok());
  ASSERT_TRUE(server->Close().ok());
}

TEST(SessionTest, EmptyCommitIsANoOpRefresh) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  auto idle = server->StartSession();
  auto writer = server->StartSession();
  const Scheme& scheme = writer->view().scheme;
  ASSERT_TRUE(
      writer->Execute(Operation(hm::Fig6NodeAddition(scheme).ValueOrDie()))
          .ok());
  ASSERT_TRUE(writer->Commit().ok());

  CommitResult result = idle->Commit();
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.version, 1u);  // re-pinned, nothing published
  EXPECT_EQ(idle->base_version(), 1u);
  EXPECT_EQ(server->current_version()->id, 1u);
  ASSERT_TRUE(server->Close().ok());
}

// ---------------------------------------------------------------------------
// Commit pipeline: first-committer-wins, group commit, durability
// ---------------------------------------------------------------------------

TEST(PipelineTest, FirstCommitterWinsOnOverlappingFootprints) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  auto first = server->StartSession();
  auto second = server->StartSession();
  const Scheme& scheme = first->view().scheme;

  // Both sessions delete the same Figure 16 edge from the same base.
  Operation fig16(hm::Fig16EdgeDeletion(scheme).ValueOrDie());
  ASSERT_TRUE(first->Execute(fig16).ok());
  ASSERT_TRUE(second->Execute(fig16).ok());

  CommitResult won = first->Commit();
  ASSERT_TRUE(won.ok()) << won.status.ToString();
  CommitResult lost = second->Commit();
  ASSERT_FALSE(lost.ok());
  EXPECT_TRUE(lost.status.IsAborted()) << lost.status.ToString();
  EXPECT_TRUE(common::IsRetriable(lost.status));
  EXPECT_EQ(lost.conflict_version, won.version);

  // The loser's buffer is discarded and its pin moved forward: the
  // documented reaction — re-run against the fresh snapshot — works.
  EXPECT_FALSE(second->dirty());
  EXPECT_EQ(second->base_version(), won.version);
  ASSERT_TRUE(second->Execute(fig16).ok());  // now a no-op deletion
  CommitResult retried = second->Commit();
  EXPECT_TRUE(retried.ok()) << retried.status.ToString();

  PipelineStats stats = server->pipeline_stats();
  EXPECT_EQ(stats.committed, 2u);
  EXPECT_EQ(stats.conflicts, 1u);
  ASSERT_TRUE(server->Close().ok());
}

TEST(PipelineTest, IndependentInsertsFromOneBaseDoNotConflict) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  auto a = server->StartSession();
  auto b = server->StartSession();
  const Scheme& scheme = a->view().scheme;

  // Fig 12 inserts a disconnected subgraph (empty pattern): both
  // sessions create fresh nodes with *identical session-local ids*.
  // Fresh nodes are excluded from footprints, so neither commit may
  // conflict with the other.
  Operation fig12(hm::Fig12NodeAddition(scheme).ValueOrDie());
  ASSERT_TRUE(a->Execute(fig12).ok());
  ASSERT_TRUE(b->Execute(fig12).ok());
  CommitResult first = a->Commit();
  ASSERT_TRUE(first.ok()) << first.status.ToString();
  CommitResult second = b->Commit();
  ASSERT_TRUE(second.ok()) << second.status.ToString();
  EXPECT_EQ(server->pipeline_stats().conflicts, 0u);
  ASSERT_TRUE(server->Close().ok());
}

TEST(PipelineTest, AckedCommitIsFsyncedAndReplaysAtomically) {
  std::string dir = MakeTempDir();
  storage::FaultInjectionEnv env;  // used as a passive I/O counter here
  {
    auto server = OpenPaperServer(dir, {}, GroupCommitOptions(&env));
    auto session = server->StartSession();
    const Scheme scheme = session->view().scheme;  // copy: view evolves
    size_t syncs_before = env.syncs_seen();
    ASSERT_TRUE(
        session->Execute(Operation(hm::Fig6NodeAddition(scheme).ValueOrDie()))
            .ok());
    ASSERT_TRUE(
        session->Execute(Operation(hm::Fig10EdgeAddition(scheme).ValueOrDie()))
            .ok());
    ASSERT_TRUE(session->Commit().ok());
    // Per-append sync is off, so the only sync between open and ack is
    // the pipeline's group-commit barrier — the ack implies durability.
    EXPECT_EQ(env.syncs_seen(), syncs_before + 1);
    ASSERT_TRUE(server->Close().ok());
  }
  storage::Database reopened = storage::Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 1u)
      << "the two operations were one transaction record, replayed "
         "atomically";
  Scheme scheme = hm::BuildScheme().ValueOrDie();
  Instance oracle =
      std::move(hm::BuildInstance(scheme).ValueOrDie().instance);
  method::Executor exec(nullptr);
  ASSERT_TRUE(exec.Execute(Operation(hm::Fig6NodeAddition(scheme).ValueOrDie()),
                           &scheme, &oracle)
                  .ok());
  ASSERT_TRUE(
      exec.Execute(Operation(hm::Fig10EdgeAddition(scheme).ValueOrDie()),
                   &scheme, &oracle)
          .ok());
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), oracle));
}

TEST(PipelineTest, AdjacentCommitsShareOneFsync) {
  std::string dir = MakeTempDir();
  storage::FaultInjectionEnv env;
  storage::Options db_options = GroupCommitOptions(&env);
  // One transient append fault makes the first commit's apply dwell in
  // the retry backoff, giving the two trailing commits time to queue
  // up behind it and land in one batch.
  db_options.wal_retry_backoff = std::chrono::milliseconds{100};
  auto server = OpenPaperServer(dir, {}, db_options);

  auto lead = server->StartSession();
  auto tail1 = server->StartSession();
  auto tail2 = server->StartSession();
  const Scheme& scheme = lead->view().scheme;
  Operation fig12(hm::Fig12NodeAddition(scheme).ValueOrDie());
  ASSERT_TRUE(lead->Execute(fig12).ok());
  ASSERT_TRUE(tail1->Execute(fig12).ok());
  ASSERT_TRUE(tail2->Execute(fig12).ok());

  storage::FaultPlan plan;
  plan.fail_append_at = 1;  // the lead commit's record, once
  env.SetPlan(plan);
  CommitResult lead_result;
  std::thread leader([&] { lead_result = lead->Commit(); });
  std::this_thread::sleep_for(std::chrono::milliseconds{30});
  CommitResult r1, r2;
  std::thread t1([&] { r1 = tail1->Commit(); });
  std::thread t2([&] { r2 = tail2->Commit(); });
  leader.join();
  t1.join();
  t2.join();

  ASSERT_TRUE(lead_result.ok()) << lead_result.status.ToString();
  ASSERT_TRUE(r1.ok()) << r1.status.ToString();
  ASSERT_TRUE(r2.ok()) << r2.status.ToString();
  // The trailing commits were made durable together (possibly with the
  // lead too, if the committer gathered all three at once).
  EXPECT_GE(r1.batch_size, 2u);
  EXPECT_GE(r2.batch_size, 2u);
  PipelineStats stats = server->pipeline_stats();
  EXPECT_EQ(stats.committed, 3u);
  EXPECT_LT(stats.batches, stats.committed)
      << "group commit must issue fewer fsync barriers than commits";
  ASSERT_TRUE(server->Close().ok());
}

TEST(PipelineTest, FailedBarrierAcksNonRetriableAndPoisons) {
  std::string dir = MakeTempDir();
  storage::FaultInjectionEnv env;
  auto server = OpenPaperServer(dir, {}, GroupCommitOptions(&env));
  auto session = server->StartSession();
  const Scheme scheme = session->view().scheme;  // copy: view evolves
  ASSERT_TRUE(
      session->Execute(Operation(hm::Fig6NodeAddition(scheme).ValueOrDie()))
          .ok());

  storage::FaultPlan plan;
  plan.fail_sync_at = 1;  // this commit's group-commit barrier
  env.SetPlan(plan);
  CommitResult result = session->Commit();
  env.Reset();
  ASSERT_FALSE(result.ok());
  // The transaction is applied in memory with unknowable durability:
  // the ack must be non-retriable so no client re-runs (and thereby
  // double-applies) it.
  EXPECT_TRUE(result.status.IsDataLoss()) << result.status.ToString();
  EXPECT_FALSE(common::IsRetriable(result.status));
  // The version is still published: readers stay consistent with the
  // authoritative in-memory state.
  EXPECT_EQ(server->current_version()->id, 1u);

  // The database is poisoned — later commits fail fast, non-retriable.
  auto next = server->StartSession();
  const Scheme next_scheme = next->view().scheme;
  ASSERT_TRUE(
      next->Execute(Operation(hm::Fig12NodeAddition(next_scheme).ValueOrDie()))
          .ok());
  CommitResult second = next->Commit();
  EXPECT_TRUE(second.status.IsFailedPrecondition())
      << second.status.ToString();
  EXPECT_FALSE(common::IsRetriable(second.status));
  PipelineStats stats = server->pipeline_stats();
  EXPECT_EQ(stats.committed, 0u);
  EXPECT_EQ(stats.failures, 2u);
  ASSERT_TRUE(server->Close().ok());
}

TEST(PipelineTest, CommitAfterCloseIsUnavailable) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  auto session = server->StartSession();
  const Scheme& scheme = session->view().scheme;
  ASSERT_TRUE(
      session->Execute(Operation(hm::Fig6NodeAddition(scheme).ValueOrDie()))
          .ok());
  ASSERT_TRUE(server->Close().ok());
  CommitResult result = session->Commit();
  EXPECT_TRUE(result.status.IsUnavailable()) << result.status.ToString();
  // Snapshot reads keep working after close.
  auto fig4 = hm::Fig4Pattern(scheme).ValueOrDie();
  EXPECT_EQ(session->Count(fig4.pattern).ValueOrDie(), 2u);
}

// ---------------------------------------------------------------------------
// Commit waiters honor ExecOptions::deadline
// ---------------------------------------------------------------------------

/// A session blocked in Commit behind a stalled device must give up at
/// its deadline: the entry is abandoned (never applied), the status is
/// kDeadlineExceeded, and the session has rolled back cleanly.
TEST(PipelineDeadlineTest, QueuedCommitAbandonedAtDeadline) {
  std::string dir = MakeTempDir();
  storage::FaultInjectionEnv env;
  storage::Options db_options = GroupCommitOptions(&env);
  // Every WAL append fails; with a fat retry backoff the committer
  // stalls for ~3 * 120ms inside the first commit's apply.
  db_options.wal_retry_backoff = std::chrono::milliseconds{120};
  ServerOptions options;
  auto server = OpenPaperServer(dir, options, db_options);

  auto stalled = server->StartSession();
  auto bounded = server->StartSession();
  const Scheme& scheme = stalled->view().scheme;
  Operation fig6(hm::Fig6NodeAddition(scheme).ValueOrDie());
  ASSERT_TRUE(stalled->Execute(fig6).ok());
  ASSERT_TRUE(bounded->Execute(fig6).ok());

  storage::FaultPlan plan;
  plan.fail_appends_from = 1;  // permanent device stall
  env.SetPlan(plan);

  CommitResult first;
  std::thread blocker([&] { first = stalled->Commit(); });
  // Give the committer time to claim and start applying commit #1.
  std::this_thread::sleep_for(std::chrono::milliseconds{40});

  bounded->exec_options().deadline =
      common::Deadline::After(std::chrono::milliseconds{50});
  CommitResult second = bounded->Commit();
  EXPECT_TRUE(second.status.IsDeadlineExceeded()) << second.status.ToString();
  EXPECT_FALSE(common::IsRetriable(second.status))
      << "a deadline is the caller's cutoff, not a transient fault";
  // The transaction was rolled back: buffer gone, session usable.
  EXPECT_FALSE(bounded->dirty());

  blocker.join();
  // The stalled commit surfaced the device fault after its retries.
  EXPECT_TRUE(first.status.IsUnavailable()) << first.status.ToString();

  PipelineStats stats = server->pipeline_stats();
  EXPECT_EQ(stats.committed, 0u);
  EXPECT_GE(stats.abandoned + stats.expired, 1u)
      << "the bounded commit must have been abandoned or expired, "
         "never applied";

  // Nothing was published; once the device heals the session retries.
  EXPECT_EQ(server->current_version()->id, 0u);
  env.SetPlan(storage::FaultPlan{});
  bounded->exec_options().deadline = common::Deadline();
  ASSERT_TRUE(bounded->Execute(fig6).ok());
  CommitResult healed = bounded->Commit();
  EXPECT_TRUE(healed.ok()) << healed.status.ToString();
  ASSERT_TRUE(server->Close().ok());
}

// ---------------------------------------------------------------------------
// Protocol: the Connection state machine, string-driven
// ---------------------------------------------------------------------------

/// Feeds `request` and returns the accumulated response bytes.
std::string RoundTrip(Connection* connection, std::string_view request) {
  std::string out;
  connection->Feed(request, &out);
  return out;
}

TEST(ProtocolTest, DotStuffingRoundTrips) {
  EXPECT_EQ(DotStuff("a\nb\n"), "a\nb\n.\n");
  EXPECT_EQ(DotStuff(".hidden\n..x\n"), "..hidden\n...x\n.\n");
  EXPECT_EQ(DotStuff("no trailing newline"), "no trailing newline\n.\n");
  EXPECT_EQ(DotStuff(""), ".\n");
}

TEST(ProtocolTest, HelloAndVersionExchange) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  Connection connection(server.get());
  EXPECT_EQ(RoundTrip(&connection, "hello\n"), "ok good/1 base 0\n");
  EXPECT_EQ(RoundTrip(&connection, "version\n"), "ok version 0\n");
  EXPECT_EQ(RoundTrip(&connection, "base\n"), "ok base 0\n");
  // Bytes may arrive fragmented across Feed calls.
  std::string out;
  connection.Feed("ver", &out);
  EXPECT_TRUE(out.empty());
  connection.Feed("sion\n", &out);
  EXPECT_EQ(out, "ok version 0\n");
  EXPECT_EQ(RoundTrip(&connection, "quit\n"), "ok bye\n");
  EXPECT_TRUE(connection.closed());
  ASSERT_TRUE(server->Close().ok());
}

TEST(ProtocolTest, ErrorsCarryStatusCodeNames) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  Connection connection(server.get());
  std::string out = RoundTrip(&connection, "frobnicate\n");
  EXPECT_EQ(out.rfind("err InvalidArgument", 0), 0u) << out;
  out = RoundTrip(&connection, "count\ngarbage pattern ][\n.\n");
  EXPECT_EQ(out.rfind("err ", 0), 0u) << out;
  // The connection survives errors.
  EXPECT_EQ(RoundTrip(&connection, "base\n"), "ok base 0\n");
  ASSERT_TRUE(server->Close().ok());
}

TEST(ProtocolTest, ExecCountCommitOverTheWire) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  Connection connection(server.get());
  const Scheme& scheme = connection.session().view().scheme;

  auto fig4 = hm::Fig4Pattern(scheme).ValueOrDie();
  std::string pattern_text = program::WritePattern(scheme, fig4.pattern);
  std::string out =
      RoundTrip(&connection, "count\n" + DotStuff(pattern_text));
  EXPECT_EQ(out, "ok count 2\n");

  Operation fig6(hm::Fig6NodeAddition(scheme).ValueOrDie());
  std::string ops_text =
      program::WriteOperations(scheme, {fig6}).ValueOrDie();
  out = RoundTrip(&connection, "exec\n" + DotStuff(ops_text));
  EXPECT_EQ(out, "ok applied 1\n");
  out = RoundTrip(&connection, "commit\n");
  EXPECT_EQ(out.rfind("ok committed 1 batch ", 0), 0u) << out;

  // match returns a body: one line per matching, dot-terminated.
  out = RoundTrip(&connection, "match\n" + DotStuff(pattern_text));
  ASSERT_EQ(out.rfind("ok+ matchings ", 0), 0u) << out;
  EXPECT_EQ(out.substr(out.size() - 2), ".\n");
  ASSERT_TRUE(server->Close().ok());
}

/// The match reply pinned byte for byte on Figure 4's four-node
/// pattern: one line per matching, "p->n" pairs in ascending pattern
/// node order, then the dot terminator.
TEST(ProtocolTest, MatchReplyBytesArePinned) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  Connection connection(server.get());
  const Scheme& scheme = connection.session().view().scheme;
  auto fig4 = hm::Fig4Pattern(scheme).ValueOrDie();
  ASSERT_EQ(fig4.pattern.num_nodes(), 4u);
  std::string pattern_text = program::WritePattern(scheme, fig4.pattern);
  EXPECT_EQ(RoundTrip(&connection, "match\n" + DotStuff(pattern_text)),
            "ok+ matchings 2\n"
            "0->1 1->5 2->13 3->16\n"
            "0->1 1->6 2->13 3->16\n"
            ".\n");
  ASSERT_TRUE(server->Close().ok());
}

TEST(ProtocolTest, FailedExecBodyRollsBackWholeBody) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  Connection connection(server.get());
  const Scheme scheme = connection.session().view().scheme;  // copy

  Operation fig6(hm::Fig6NodeAddition(scheme).ValueOrDie());
  std::string fig6_text =
      program::WriteOperations(scheme, {fig6}).ValueOrDie();
  EXPECT_EQ(RoundTrip(&connection, "exec\n" + DotStuff(fig6_text)),
            "ok applied 1\n");
  size_t buffered = connection.session().buffered_ops().size();
  size_t nodes = connection.session().view().instance.num_nodes();

  // A body whose leading operation executes but whose trailing line
  // fails to parse: the whole body must roll back — buffer and working
  // copy — or a commit-retry replay would rebuild a different
  // operation set than the server holds.
  Operation fig12(hm::Fig12NodeAddition(scheme).ValueOrDie());
  std::string bad_body =
      program::WriteOperations(scheme, {fig12}).ValueOrDie() +
      "garbage ][\n";
  std::string out = RoundTrip(&connection, "exec\n" + DotStuff(bad_body));
  EXPECT_EQ(out.rfind("err ", 0), 0u) << out;
  EXPECT_EQ(connection.session().buffered_ops().size(), buffered);
  EXPECT_EQ(connection.session().view().instance.num_nodes(), nodes);

  // The commit ships exactly the accepted body: the committed state is
  // the serial application of fig6 alone.
  out = RoundTrip(&connection, "commit\n");
  EXPECT_EQ(out.rfind("ok committed 1", 0), 0u) << out;
  Scheme oracle_scheme = hm::BuildScheme().ValueOrDie();
  Instance oracle =
      std::move(hm::BuildInstance(oracle_scheme).ValueOrDie().instance);
  method::Executor exec(nullptr);
  ASSERT_TRUE(
      exec.Execute(Operation(hm::Fig6NodeAddition(oracle_scheme).ValueOrDie()),
                   &oracle_scheme, &oracle)
          .ok());
  EXPECT_TRUE(graph::IsIsomorphic(server->database().instance(), oracle));

  // On a clean session a failed body leaves no buffered writes behind.
  Connection fresh(server.get());
  out = RoundTrip(&fresh, "exec\n" + DotStuff(bad_body));
  EXPECT_EQ(out.rfind("err ", 0), 0u) << out;
  EXPECT_FALSE(fresh.session().dirty());
  ASSERT_TRUE(server->Close().ok());
}

TEST(ProtocolTest, DeadlineCommandBoundsSessionCalls) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  Connection connection(server.get());
  EXPECT_EQ(RoundTrip(&connection, "deadline 5000\n"), "ok deadline 5000\n");
  EXPECT_TRUE(connection.session().exec_options().deadline.armed());
  EXPECT_EQ(RoundTrip(&connection, "deadline none\n"), "ok deadline none\n");
  EXPECT_FALSE(connection.session().exec_options().deadline.armed());
  std::string out = RoundTrip(&connection, "deadline soon\n");
  EXPECT_EQ(out.rfind("err InvalidArgument", 0), 0u) << out;
  // Counts past the one-year ceiling would wrap (2^64 - 1 ms reads as
  // -1 ms) or overflow the nanosecond conversion, arming an
  // already-expired deadline; they are refused and leave the session's
  // deadline as it was.
  for (const char* huge : {"deadline 18446744073709551615\n",
                           "deadline 10000000000000\n"}) {
    out = RoundTrip(&connection, huge);
    EXPECT_EQ(out.rfind("err InvalidArgument", 0), 0u) << huge << out;
    EXPECT_FALSE(connection.session().exec_options().deadline.armed());
  }
  // A year is in range and stays unexpired.
  EXPECT_EQ(RoundTrip(&connection, "deadline 31536000000\n"),
            "ok deadline 31536000000\n");
  EXPECT_TRUE(connection.session().exec_options().deadline.armed());
  EXPECT_TRUE(connection.session().exec_options().deadline.Check().ok());
  out = RoundTrip(&connection, "deadline 18446744073709551615\n");
  EXPECT_EQ(out.rfind("err InvalidArgument", 0), 0u) << out;
  EXPECT_TRUE(connection.session().exec_options().deadline.Check().ok());
  ASSERT_TRUE(server->Close().ok());
}

// ---------------------------------------------------------------------------
// Client over LocalTransport: the full stack without sockets
// ---------------------------------------------------------------------------

TEST(ClientTest, TypedRoundTrips) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  LocalTransport transport(server.get());
  Client client(&transport);
  ASSERT_TRUE(client.Hello().ok());

  std::string dump = client.Dump().ValueOrDie();
  program::Database parsed = program::ParseDatabase(dump).ValueOrDie();
  EXPECT_TRUE(parsed.scheme == server->database().scheme());
  EXPECT_TRUE(graph::IsIsomorphic(parsed.instance,
                                  server->database().instance()));

  auto fig4 = hm::Fig4Pattern(parsed.scheme).ValueOrDie();
  std::string pattern_text =
      program::WritePattern(parsed.scheme, fig4.pattern);
  EXPECT_EQ(client.Count(pattern_text).ValueOrDie(), 2u);
  EXPECT_EQ(client.Match(pattern_text).ValueOrDie().size(), 2u);

  Operation fig6(hm::Fig6NodeAddition(parsed.scheme).ValueOrDie());
  ASSERT_TRUE(client.Exec(parsed.scheme, {fig6}).ok());
  Client::CommitAck ack = client.Commit().ValueOrDie();
  EXPECT_EQ(ack.version, 1u);
  EXPECT_EQ(ack.retries, 0u);
  EXPECT_EQ(client.Version().ValueOrDie(), 1u);
  ASSERT_TRUE(client.Quit().ok());
  ASSERT_TRUE(server->Close().ok());
}

TEST(ClientTest, CommitAutoRetriesAfterLostRace) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  LocalTransport wire1(server.get());
  LocalTransport wire2(server.get());
  Client winner(&wire1);
  Client loser(&wire2);
  ASSERT_TRUE(winner.Hello().ok());
  ASSERT_TRUE(loser.Hello().ok());

  const Scheme& scheme = server->database().scheme();
  Operation fig16(hm::Fig16EdgeDeletion(scheme).ValueOrDie());
  std::string fig16_text =
      program::WriteOperations(scheme, {fig16}).ValueOrDie();
  ASSERT_TRUE(winner.Exec(fig16_text).ok());
  ASSERT_TRUE(loser.Exec(fig16_text).ok());

  ASSERT_TRUE(winner.Commit().ok());
  // The loser's commit is aborted first-committer-wins; the wrapper
  // replays the buffered body against the fresh snapshot (where the
  // deletion is a no-op) and commits again.
  Client::CommitAck ack = loser.Commit().ValueOrDie();
  EXPECT_GE(ack.retries, 1u);
  EXPECT_EQ(server->pipeline_stats().conflicts, 1u);
  ASSERT_TRUE(server->Close().ok());
}

/// Forwards to a LocalTransport. After the first commit the server
/// rejects, it runs `interfere` once, just before passing on the next
/// request.
class InterferingTransport final : public Transport {
 public:
  InterferingTransport(Server* server, std::function<void()> interfere)
      : inner_(server), interfere_(std::move(interfere)) {}

  Status Write(std::string_view bytes) override {
    if (armed_) {
      armed_ = false;
      interfere_();
    }
    committing_ = bytes.starts_with("commit");
    return inner_.Write(bytes);
  }

  Result<std::string> ReadLine() override {
    GOOD_ASSIGN_OR_RETURN(std::string line, inner_.ReadLine());
    if (committing_ && !fired_ && line.starts_with("err ")) {
      armed_ = true;
      fired_ = true;
    }
    committing_ = false;
    return line;
  }

 private:
  LocalTransport inner_;
  std::function<void()> interfere_;
  bool committing_ = false;
  bool armed_ = false;
  bool fired_ = false;
};

TEST(ClientTest, RetryAfterBackoffReplaysOntoCommitsMadeDuringTheSleep) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  const Scheme& scheme = server->database().scheme();
  const std::string delete_text =
      program::WriteOperations(
          scheme, {Operation(hm::Fig16EdgeDeletion(scheme).ValueOrDie())})
          .ValueOrDie();
  const std::string add_text =
      program::WriteOperations(
          scheme, {Operation(hm::Fig16EdgeAddition(scheme).ValueOrDie())})
          .ValueOrDie();

  LocalTransport winner_wire(server.get());
  LocalTransport third_wire(server.get());
  Client winner(&winner_wire);
  Client third(&third_wire);
  ASSERT_TRUE(winner.Hello().ok());
  ASSERT_TRUE(third.Hello().ok());
  // Lands while the loser backs off after its first conflict: a commit
  // that touches the node the loser's replay writes.
  InterferingTransport loser_wire(server.get(), [&] {
    ASSERT_TRUE(third.Refresh().ok());
    ASSERT_TRUE(third.Exec(add_text).ok());
    ASSERT_TRUE(third.Commit().ok());
  });
  ClientOptions options;
  options.retry_jitter_seed = 1;  // nonzero backoff sleeps
  Client loser(&loser_wire, options);
  ASSERT_TRUE(loser.Hello().ok());

  // The Figure 16 update (delete the modified date, add the new one)
  // races a bare deletion of the same edge and loses.
  ASSERT_TRUE(loser.Exec(delete_text).ok());
  ASSERT_TRUE(loser.Exec(add_text).ok());
  ASSERT_TRUE(winner.Exec(delete_text).ok());
  ASSERT_TRUE(winner.Commit().ok());

  // The replay must see the commit that landed during the backoff
  // sleep; one replayed against the snapshot re-pinned at the first
  // rejection conflicts with it a second time.
  Client::CommitAck ack = loser.Commit().ValueOrDie();
  EXPECT_EQ(ack.retries, 1u);
  EXPECT_EQ(server->pipeline_stats().conflicts, 1u);
  ASSERT_TRUE(server->Close().ok());
}

TEST(ClientTest, AmbiguousFsyncFailureIsNotAutoRetried) {
  std::string dir = MakeTempDir();
  storage::FaultInjectionEnv env;
  auto server = OpenPaperServer(dir, {}, GroupCommitOptions(&env));
  LocalTransport wire(server.get());
  Client client(&wire);
  ASSERT_TRUE(client.Hello().ok());

  const Scheme& scheme = server->database().scheme();
  Operation fig6(hm::Fig6NodeAddition(scheme).ValueOrDie());
  std::string body = program::WriteOperations(scheme, {fig6}).ValueOrDie();
  ASSERT_TRUE(client.Exec(body).ok());

  storage::FaultPlan plan;
  plan.fail_sync_at = 1;  // the commit's group-commit barrier
  env.SetPlan(plan);
  auto ack = client.Commit();
  env.Reset();
  ASSERT_FALSE(ack.ok());
  // The transaction is applied with ambiguous durability; the wrapper
  // must surface the failure instead of replaying the buffered body —
  // a replay would apply the transaction twice.
  EXPECT_FALSE(common::IsRetriable(ack.status())) << ack.status().ToString();

  // The authoritative state holds exactly ONE application of fig6.
  Scheme oracle_scheme = hm::BuildScheme().ValueOrDie();
  Instance oracle =
      std::move(hm::BuildInstance(oracle_scheme).ValueOrDie().instance);
  method::Executor exec(nullptr);
  ASSERT_TRUE(
      exec.Execute(Operation(hm::Fig6NodeAddition(oracle_scheme).ValueOrDie()),
                   &oracle_scheme, &oracle)
          .ok());
  EXPECT_TRUE(graph::IsIsomorphic(server->database().instance(), oracle));
  EXPECT_EQ(server->pipeline_stats().committed, 0u);
  ASSERT_TRUE(server->Close().ok());
}

TEST(ClientTest, RetryDisabledSurfacesTheAbort) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  LocalTransport wire1(server.get());
  LocalTransport wire2(server.get());
  ClientOptions no_retry;
  no_retry.max_commit_retries = 0;
  Client winner(&wire1);
  Client loser(&wire2, no_retry);
  ASSERT_TRUE(winner.Hello().ok());
  ASSERT_TRUE(loser.Hello().ok());

  const Scheme& scheme = server->database().scheme();
  Operation fig16(hm::Fig16EdgeDeletion(scheme).ValueOrDie());
  std::string fig16_text =
      program::WriteOperations(scheme, {fig16}).ValueOrDie();
  ASSERT_TRUE(winner.Exec(fig16_text).ok());
  ASSERT_TRUE(loser.Exec(fig16_text).ok());
  ASSERT_TRUE(winner.Commit().ok());

  auto result = loser.Commit();
  ASSERT_FALSE(result.ok());
  // The kAborted code survived serialization to "err Aborted ..." and
  // parsing back — the wire preserves the error model.
  EXPECT_TRUE(result.status().IsAborted()) << result.status().ToString();
  EXPECT_TRUE(common::IsRetriable(result.status()));
  ASSERT_TRUE(server->Close().ok());
}

// ---------------------------------------------------------------------------
// Overload: admission control, quotas, and malformed-wire fuzzing
// ---------------------------------------------------------------------------

TEST(OverloadTest, SessionCapShedsWithRetriableBusy) {
  std::string dir = MakeTempDir();
  ServerOptions options;
  options.limits.max_sessions = 1;
  auto server = OpenPaperServer(dir, options);

  auto admitted = std::make_unique<Connection>(server.get());
  ASSERT_TRUE(admitted->has_session());
  EXPECT_EQ(server->active_sessions(), 1u);

  // Past the cap: the connection constructs session-less and answers
  // every stateful request with the retriable busy error...
  Connection refused(server.get());
  EXPECT_FALSE(refused.has_session());
  std::string out = RoundTrip(&refused, "version\n");
  EXPECT_EQ(out.rfind("err Unavailable busy", 0), 0u) << out;
  // The session-cap rejection has its own counter — it must not be
  // conflated with connection-cap sheds, so an operator can tell
  // which limit fired.
  EXPECT_EQ(server->overload_stats().shed_sessions, 1u);
  EXPECT_EQ(server->overload_stats().shed_connections, 0u);

  // ...but stays observable (`stats`) and closes politely (`quit`).
  out = RoundTrip(&refused, "stats\n");
  EXPECT_EQ(out.rfind("ok stats shed 0 shed_sessions 1 ", 0), 0u) << out;
  EXPECT_EQ(RoundTrip(&refused, "quit\n"), "ok bye\n");

  // Releasing the admitted session frees the slot.
  admitted.reset();
  EXPECT_EQ(server->active_sessions(), 0u);
  Connection next(server.get());
  EXPECT_TRUE(next.has_session());
  EXPECT_EQ(RoundTrip(&next, "base\n"), "ok base 0\n");
  ASSERT_TRUE(server->Close().ok());
}

TEST(OverloadTest, OversizedLineDrawsResourceExhaustedAndCloses) {
  std::string dir = MakeTempDir();
  ServerOptions options;
  options.limits.max_line_bytes = 64;
  auto server = OpenPaperServer(dir, options);
  Connection connection(server.get());

  std::string out =
      RoundTrip(&connection, std::string(100, 'x') + "\n");
  EXPECT_EQ(out.rfind("err ResourceExhausted", 0), 0u) << out;
  EXPECT_TRUE(connection.closed());
  EXPECT_EQ(server->overload_stats().quota_rejections, 1u);

  // An unterminated line past the cap is cut off too — a newline-free
  // stream must not buffer unboundedly (the server-side twin of the
  // transport ReadLine cap).
  Connection drip(server.get());
  out.clear();
  for (int i = 0; i < 10 && !drip.closed(); ++i) {
    drip.Feed(std::string(16, 'y'), &out);  // never a newline
  }
  EXPECT_TRUE(drip.closed());
  EXPECT_EQ(out.rfind("err ResourceExhausted", 0), 0u) << out;
  EXPECT_EQ(server->overload_stats().quota_rejections, 2u);
  ASSERT_TRUE(server->Close().ok());
}

TEST(OverloadTest, OversizedExecBodyDrawsResourceExhaustedAndCloses) {
  std::string dir = MakeTempDir();
  ServerOptions options;
  options.limits.max_body_bytes = 128;
  auto server = OpenPaperServer(dir, options);
  Connection connection(server.get());

  // Body lines within the line quota whose total exceeds the body
  // quota: rejected at the accumulation step, before any parse.
  std::string request = "exec\n";
  for (int i = 0; i < 8; ++i) request += std::string(32, 'b') + "\n";
  request += ".\n";
  std::string out = RoundTrip(&connection, request);
  EXPECT_EQ(out.rfind("err ResourceExhausted", 0), 0u) << out;
  EXPECT_TRUE(connection.closed());
  EXPECT_EQ(server->overload_stats().quota_rejections, 1u);
  ASSERT_TRUE(server->Close().ok());
}

TEST(OverloadTest, WorkingCopyGrowthQuotaRejectsAndRollsBack) {
  std::string dir = MakeTempDir();
  ServerOptions options;
  options.limits.max_working_delta = 0;  // any growth is over quota
  auto server = OpenPaperServer(dir, options);
  auto session = server->StartSession();
  const Scheme& scheme = server->database().scheme();
  Operation fig12(hm::Fig12NodeAddition(scheme).ValueOrDie());

  Status executed = session->Execute(fig12);
  EXPECT_TRUE(executed.IsResourceExhausted()) << executed.ToString();
  EXPECT_FALSE(common::IsRetriable(executed))
      << "re-running the same op would blow the same quota";
  // The rejected operation left nothing behind: no buffered op, no
  // working-copy growth, and the session keeps serving.
  EXPECT_FALSE(session->dirty());
  EXPECT_EQ(session->view().instance.num_nodes(),
            server->database().instance().num_nodes());
  EXPECT_EQ(server->overload_stats().quota_rejections, 1u);
  CommitResult empty = session->Commit();
  EXPECT_TRUE(empty.ok()) << empty.status.ToString();
  EXPECT_EQ(server->current_version()->id, 0u);
  ASSERT_TRUE(server->Close().ok());
}

/// Deterministic malformed-wire fuzz: random byte soup, truncated
/// dot-stuffed bodies, oversized payloads and abrupt mid-request
/// disconnects must draw typed `err` replies or a clean close — never
/// a crash, a non-protocol response, or a leaked session.
TEST(OverloadTest, MalformedWireFuzz) {
  std::string dir = MakeTempDir();
  ServerOptions options;
  options.limits.max_line_bytes = 512;
  options.limits.max_body_bytes = 2048;
  auto server = OpenPaperServer(dir, options);

  uint64_t rng = 0xfeedface;
  auto next_random = [&rng] {
    uint64_t z = (rng += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };

  const std::vector<std::string> pieces = {
      "hello\n",
      "version\n",
      "exec\n",                       // opens a body, maybe never closed
      ".\n",                          // stray terminator
      "exec\ngarbage ][\n.\n",        // unparsable body
      "commit\n",
      "count\n",                      // body left truncated
      std::string(600, 'A') + "\n",   // over the line quota
      std::string("\x00\x01\xff\xfe garbage\n", 13),  // binary soup
      "deadline -3\n",
      "unknowncmd with args\n",
      std::string(3000, '.'),         // newline-free drip
      "rollback\n",
      "quit\n",
  };

  for (int round = 0; round < 200; ++round) {
    Connection connection(server.get());
    ASSERT_TRUE(connection.has_session());
    std::string out;
    size_t commands = 1 + next_random() % 6;
    for (size_t i = 0; i < commands && !connection.closed(); ++i) {
      const std::string& piece = pieces[next_random() % pieces.size()];
      // Feed in random fragments: tears must never confuse the state
      // machine.
      size_t pos = 0;
      while (pos < piece.size() && !connection.closed()) {
        size_t chunk = 1 + next_random() % 64;
        chunk = std::min(chunk, piece.size() - pos);
        out.clear();
        connection.Feed(std::string_view(piece).substr(pos, chunk), &out);
        pos += chunk;
        // Every response burst is a sequence of protocol replies.
        if (!out.empty()) {
          EXPECT_TRUE(out.rfind("ok", 0) == 0 || out.rfind("err ", 0) == 0)
              << "round " << round << ": non-protocol response " << out;
        }
      }
      // Abrupt disconnect mid-exchange, ~1 in 8 commands: the
      // connection (and its session) is simply destroyed below.
      if (next_random() % 8 == 0) break;
    }
  }
  // Every fuzz connection released its session on destruction.
  EXPECT_EQ(server->active_sessions(), 0u);
  // The server is intact: a fresh connection serves normally.
  Connection fresh(server.get());
  EXPECT_EQ(RoundTrip(&fresh, "version\n"),
            "ok version " + std::to_string(server->current_version()->id) +
                "\n");
  ASSERT_TRUE(server->Close().ok());
}

/// An abrupt disconnect right after an acked commit must leave exactly
/// the committed state — the commit is durable, the dead session's
/// follow-up buffered writes evaporate.
TEST(OverloadTest, DisconnectAfterCommitKeepsCommittedPrefix) {
  std::string dir = MakeTempDir();
  auto server = OpenPaperServer(dir);
  const Scheme scheme = server->database().scheme();
  Operation fig6(hm::Fig6NodeAddition(scheme).ValueOrDie());
  std::string fig6_text =
      program::WriteOperations(scheme, {fig6}).ValueOrDie();
  Operation fig12(hm::Fig12NodeAddition(scheme).ValueOrDie());
  std::string fig12_text =
      program::WriteOperations(scheme, {fig12}).ValueOrDie();

  {
    Connection connection(server.get());
    EXPECT_EQ(RoundTrip(&connection, "exec\n" + DotStuff(fig6_text)),
              "ok applied 1\n");
    std::string out = RoundTrip(&connection, "commit\n");
    EXPECT_EQ(out.rfind("ok committed 1", 0), 0u) << out;
    // More work is buffered but never committed; the client vanishes.
    EXPECT_EQ(RoundTrip(&connection, "exec\n" + DotStuff(fig12_text)),
              "ok applied 1\n");
  }
  EXPECT_EQ(server->active_sessions(), 0u);
  EXPECT_EQ(server->current_version()->id, 1u);
  EXPECT_EQ(server->pipeline_stats().committed, 1u);

  // The authoritative state is exactly the acked prefix: fig6 alone.
  Scheme oracle_scheme = hm::BuildScheme().ValueOrDie();
  Instance oracle =
      std::move(hm::BuildInstance(oracle_scheme).ValueOrDie().instance);
  method::Executor exec(nullptr);
  ASSERT_TRUE(
      exec.Execute(Operation(hm::Fig6NodeAddition(oracle_scheme).ValueOrDie()),
                   &oracle_scheme, &oracle)
          .ok());
  EXPECT_TRUE(graph::IsIsomorphic(server->database().instance(), oracle));
  ASSERT_TRUE(server->Close().ok());
}

}  // namespace
}  // namespace good::server
