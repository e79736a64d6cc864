/// Durability tests for the storage engine: crash/replay isomorphism,
/// torn-tail tolerance, interior-corruption detection, checkpoint
/// truncation — each also exercised under deterministic fault
/// injection (fault_env.h). "Crash" means dropping the Database handle
/// without Close() or Checkpoint(): only what reached the log survives.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "common/retry.h"
#include "graph/isomorphism.h"
#include "hypermedia/hypermedia.h"
#include "hypermedia/methods.h"
#include "pattern/builder.h"
#include "program/serialize.h"
#include "storage/crc32.h"
#include "storage/database.h"
#include "storage/fault_env.h"
#include "storage/wal.h"

namespace good::storage {
namespace {

using graph::Instance;
using graph::NodeId;
using method::Operation;
using pattern::GraphBuilder;
using schema::Scheme;

/// A fresh empty directory under the test tmp dir.
std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "good_storage_XXXXXX";
  char* made = ::mkdtemp(tmpl.data());
  EXPECT_NE(made, nullptr);
  return tmpl;
}

/// The paper database: Figure 1 scheme + Figure 2/3 instance.
program::Database PaperDatabase() {
  Scheme scheme = hypermedia::BuildScheme().ValueOrDie();
  Instance instance =
      std::move(hypermedia::BuildInstance(scheme).ValueOrDie().instance);
  return program::Database{std::move(scheme), std::move(instance)};
}

/// A mixed sequence of serializable operations over the hyper-media
/// scheme (node/edge additions and deletions, an abstraction) — each
/// succeeds on the paper instance and several extend the scheme.
std::vector<Operation> SampleOps(const Scheme& scheme) {
  std::vector<Operation> ops;
  {
    GraphBuilder b(scheme);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    b.Edge(x, "links-to", y);
    ops.emplace_back(
        ops::NodeAddition(b.BuildOrDie(), Sym("Tag0"), {{Sym("of"), y}}));
  }
  {
    GraphBuilder b(scheme);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    b.Edge(x, "links-to", y);
    ops.emplace_back(ops::EdgeAddition(
        b.BuildOrDie(), {ops::EdgeSpec{y, Sym("rev"), x, false}}));
  }
  ops.emplace_back(hypermedia::Fig12NodeAddition(scheme).ValueOrDie());
  ops.emplace_back(hypermedia::Fig16EdgeDeletion(scheme).ValueOrDie());
  {
    GraphBuilder b(scheme);
    NodeId x = b.Object("Info");
    ops.emplace_back(ops::Abstraction(b.BuildOrDie(), x, Sym("Grp"),
                                      Sym("member"), Sym("links-to")));
  }
  {
    GraphBuilder b(scheme);
    NodeId x = b.Object("Info");
    NodeId y = b.Object("Info");
    b.Edge(x, "links-to", y);
    ops.emplace_back(ops::EdgeDeletion(
        b.BuildOrDie(), {ops::EdgeRef{x, Sym("links-to"), y}}));
  }
  return ops;
}

/// Opens, applies `n` sample ops, and "crashes" (drops the handle),
/// returning the expected scheme + instance copies.
program::Database ApplyAndCrash(const std::string& dir, size_t n,
                                Options options = {}) {
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  std::vector<Operation> ops = SampleOps(db.scheme());
  for (size_t i = 0; i < n && i < ops.size(); ++i) {
    db.Apply(ops[i]).OrDie();
  }
  return program::Database{db.scheme(), db.instance()};
}

// ---------------------------------------------------------------------------
// Record format
// ---------------------------------------------------------------------------

TEST(Crc32Test, MatchesKnownVector) {
  // The canonical IEEE 802.3 check value pins the on-disk polynomial.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(Crc32Test, ChunkedEqualsWhole) {
  uint32_t whole = Crc32("hello, durable world");
  uint32_t chunked = Crc32(" world", Crc32("hello, durable"));
  EXPECT_EQ(whole, chunked);
}

TEST(Fixed64Test, RoundTrips) {
  std::string buf;
  AppendFixed64(&buf, 0);
  AppendFixed64(&buf, 0xDEADBEEFCAFEBABEull);
  std::string_view view = buf;
  EXPECT_EQ(ConsumeFixed64(&view).ValueOrDie(), 0u);
  EXPECT_EQ(ConsumeFixed64(&view).ValueOrDie(), 0xDEADBEEFCAFEBABEull);
  EXPECT_TRUE(view.empty());
  EXPECT_TRUE(ConsumeFixed64(&view).status().IsInvalidArgument());
}

TEST(WalFormatTest, RoundTripsRecords) {
  std::string file;
  AppendRecordTo(&file, "first");
  AppendRecordTo(&file, "");
  AppendRecordTo(&file, std::string(100000, 'x'));
  LogContents contents = ReadLogRecords(file).ValueOrDie();
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[0], "first");
  EXPECT_EQ(contents.records[1], "");
  EXPECT_EQ(contents.records[2], std::string(100000, 'x'));
  EXPECT_EQ(contents.valid_bytes, file.size());
  EXPECT_FALSE(contents.dropped_torn_tail);
}

TEST(WalFormatTest, TornTailVariantsAreDropped) {
  std::string base;
  AppendRecordTo(&base, "alpha");
  AppendRecordTo(&base, "beta");
  const uint64_t base_size = base.size();

  // Every possible truncation point of a third record is a torn tail.
  std::string full = base;
  AppendRecordTo(&full, "gamma");
  for (size_t cut = base_size + 1; cut < full.size(); ++cut) {
    LogContents contents =
        ReadLogRecords(std::string_view(full).substr(0, cut)).ValueOrDie();
    ASSERT_EQ(contents.records.size(), 2u) << "cut=" << cut;
    EXPECT_TRUE(contents.dropped_torn_tail) << "cut=" << cut;
    EXPECT_EQ(contents.valid_bytes, base_size) << "cut=" << cut;
  }

  // A checksum-failing final record is equally a torn tail.
  std::string corrupt_last = full;
  corrupt_last.back() ^= 0x01;
  LogContents contents = ReadLogRecords(corrupt_last).ValueOrDie();
  EXPECT_EQ(contents.records.size(), 2u);
  EXPECT_TRUE(contents.dropped_torn_tail);
}

TEST(WalFormatTest, InteriorCorruptionIsDataLoss) {
  std::string file;
  AppendRecordTo(&file, "alpha");
  const size_t first_payload_at = kRecordHeaderSize;
  AppendRecordTo(&file, "beta");
  file[first_payload_at] ^= 0x40;  // damage "alpha", "beta" still follows
  auto result = ReadLogRecords(file);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDataLoss()) << result.status();
}

// ---------------------------------------------------------------------------
// Open / Apply / crash / recover
// ---------------------------------------------------------------------------

TEST(DatabaseTest, FreshOpenBootstrapsSnapshot) {
  std::string dir = MakeTempDir();
  program::Database initial = PaperDatabase();
  Scheme scheme_copy = initial.scheme;
  Instance instance_copy = initial.instance;
  Database db = Database::Open(dir, std::move(initial)).ValueOrDie();
  EXPECT_TRUE(db.recovery().created);
  EXPECT_EQ(db.log_ops(), 0u);
  EXPECT_TRUE(FileEnv::Default()->FileExists(Database::ManifestPath(dir)));
  EXPECT_TRUE(FileEnv::Default()->FileExists(Database::WalPath(dir)));
  EXPECT_TRUE(db.scheme() == scheme_copy);
  EXPECT_TRUE(graph::IsIsomorphic(db.instance(), instance_copy));
}

TEST(DatabaseTest, ApplyCrashReopenReplaysIsomorphically) {
  std::string dir = MakeTempDir();
  program::Database expected = ApplyAndCrash(dir, 6);

  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_FALSE(reopened.recovery().created);
  EXPECT_EQ(reopened.recovery().ops_replayed, 6u);
  EXPECT_FALSE(reopened.recovery().dropped_torn_tail);
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(DatabaseTest, ReopenIgnoresInitialState) {
  std::string dir = MakeTempDir();
  program::Database expected = ApplyAndCrash(dir, 3);
  // A different initial database must not clobber the recovered state.
  Database reopened =
      Database::Open(dir, program::Database{}).ValueOrDie();
  EXPECT_FALSE(reopened.recovery().created);
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(DatabaseTest, RecoveredDatabaseKeepsAccepting) {
  std::string dir = MakeTempDir();
  (void)ApplyAndCrash(dir, 2);
  program::Database expected;
  {
    Database db = Database::Open(dir).ValueOrDie();
    std::vector<Operation> ops = SampleOps(db.scheme());
    for (size_t i = 2; i < ops.size(); ++i) db.Apply(ops[i]).OrDie();
    expected = program::Database{db.scheme(), db.instance()};
  }
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(DatabaseTest, TornFinalRecordIsDroppedSilently) {
  std::string dir = MakeTempDir();
  (void)ApplyAndCrash(dir, 4);
  // Expected state: the same ops replayed up to the one we tear off.
  std::string dir2 = MakeTempDir();
  program::Database expected = ApplyAndCrash(dir2, 3);

  // Tear the final record: chop a few bytes off the log.
  FileEnv* env = FileEnv::Default();
  const std::string wal = Database::WalPath(dir);
  std::string bytes = env->ReadFileToString(wal).ValueOrDie();
  auto file = env->NewWritableFile(wal, /*truncate=*/false).ValueOrDie();
  file->Truncate(bytes.size() - 3).OrDie();
  file->Close().OrDie();

  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_TRUE(reopened.recovery().dropped_torn_tail);
  EXPECT_EQ(reopened.recovery().ops_replayed, 3u);
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(DatabaseTest, AppendsAfterTornTailRecovery) {
  std::string dir = MakeTempDir();
  (void)ApplyAndCrash(dir, 2);
  FileEnv* env = FileEnv::Default();
  const std::string wal = Database::WalPath(dir);
  uint64_t size = env->FileSize(wal).ValueOrDie();
  auto file = env->NewWritableFile(wal, /*truncate=*/false).ValueOrDie();
  file->Truncate(size - 1).OrDie();
  file->Close().OrDie();

  program::Database expected;
  {
    Database db = Database::Open(dir).ValueOrDie();
    ASSERT_TRUE(db.recovery().dropped_torn_tail);
    ASSERT_EQ(db.recovery().ops_replayed, 1u);
    std::vector<Operation> ops = SampleOps(db.scheme());
    db.Apply(ops[2]).OrDie();
    db.Apply(ops[3]).OrDie();
    expected = program::Database{db.scheme(), db.instance()};
  }
  // The rewritten tail must read back cleanly.
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_FALSE(reopened.recovery().dropped_torn_tail);
  EXPECT_EQ(reopened.recovery().ops_replayed, 3u);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(DatabaseTest, CorruptInteriorRecordIsDataLoss) {
  std::string dir = MakeTempDir();
  (void)ApplyAndCrash(dir, 4);
  FileEnv* env = FileEnv::Default();
  const std::string wal = Database::WalPath(dir);
  std::string bytes = env->ReadFileToString(wal).ValueOrDie();
  // Flip a payload byte of the FIRST record (well before the tail).
  bytes[kRecordHeaderSize + 9] ^= 0x20;
  auto file = env->NewWritableFile(wal, /*truncate=*/true).ValueOrDie();
  file->Append(bytes).OrDie();
  file->Close().OrDie();

  auto reopened = Database::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsDataLoss()) << reopened.status();
}

TEST(DatabaseTest, CorruptManifestIsDataLoss) {
  std::string dir = MakeTempDir();
  (void)ApplyAndCrash(dir, 1);
  FileEnv* env = FileEnv::Default();
  const std::string snap = Database::ManifestPath(dir);
  std::string bytes = env->ReadFileToString(snap).ValueOrDie();
  bytes[bytes.size() / 2] ^= 0x10;
  auto file = env->NewWritableFile(snap, /*truncate=*/true).ValueOrDie();
  file->Append(bytes).OrDie();
  file->Close().OrDie();

  auto reopened = Database::Open(dir);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsDataLoss()) << reopened.status();
}

TEST(DatabaseTest, LogWithoutSnapshotIsDataLoss) {
  std::string dir = MakeTempDir();
  FileEnv* env = FileEnv::Default();
  std::string record;
  std::string payload;
  AppendFixed64(&payload, 0);
  payload += "na { pattern { } label X; }";
  AppendRecordTo(&record, payload);
  auto file = env->NewWritableFile(Database::WalPath(dir), true).ValueOrDie();
  file->Append(record).OrDie();
  file->Close().OrDie();

  auto opened = Database::Open(dir);
  ASSERT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsDataLoss()) << opened.status();
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

TEST(DatabaseTest, CheckpointTruncatesLogAndRecoversIdentically) {
  std::string dir = MakeTempDir();
  program::Database expected;
  {
    Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
    std::vector<Operation> ops = SampleOps(db.scheme());
    for (const Operation& op : ops) db.Apply(op).OrDie();
    ASSERT_EQ(db.log_ops(), ops.size());
    db.Checkpoint().OrDie();
    EXPECT_EQ(db.log_ops(), 0u);
    EXPECT_EQ(db.log_bytes(), 0u);
    expected = program::Database{db.scheme(), db.instance()};
  }
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 0u);
  EXPECT_EQ(reopened.recovery().ops_skipped, 0u);
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(DatabaseTest, AutoCheckpointAfterNOps) {
  std::string dir = MakeTempDir();
  Options options;
  options.checkpoint_every = 3;
  program::Database expected;
  {
    Database db =
        Database::Open(dir, PaperDatabase(), options).ValueOrDie();
    std::vector<Operation> ops = SampleOps(db.scheme());
    for (const Operation& op : ops) db.Apply(op).OrDie();  // 6 ops
    EXPECT_EQ(db.log_ops(), 0u);  // checkpointed at op 3 and 6
    db.Apply(hypermedia::Fig12NodeAddition(db.scheme()).ValueOrDie())
        .OrDie();
    EXPECT_EQ(db.log_ops(), 1u);
    expected = program::Database{db.scheme(), db.instance()};
  }
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 1u);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(DatabaseTest, SequenceNumbersSurviveReopen) {
  std::string dir = MakeTempDir();
  {
    Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
    std::vector<Operation> ops = SampleOps(db.scheme());
    db.Apply(ops[0]).OrDie();
    db.Apply(ops[1]).OrDie();
    EXPECT_EQ(db.next_sequence(), 2u);
  }
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.next_sequence(), 2u);
}

// ---------------------------------------------------------------------------
// Failed operations leave no durable trace
// ---------------------------------------------------------------------------

TEST(DatabaseTest, UnserializableOperationIsRejectedBeforeLogging) {
  std::string dir = MakeTempDir();
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  GraphBuilder b(db.scheme());
  NodeId x = b.Object("Info");
  ops::NodeAddition op(b.BuildOrDie(), Sym("Tag0"), {{Sym("of"), x}});
  op.set_filter([](const pattern::Matching&, const Instance&) {
    return true;  // C++ closure — not serializable
  });
  uint64_t log_before = db.log_bytes();
  Status s = db.Apply(Operation(op));
  EXPECT_TRUE(s.IsUnimplemented()) << s;
  EXPECT_EQ(db.log_bytes(), log_before);
}

TEST(DatabaseTest, FailedExecutionRollsBackTheLogRecord) {
  std::string dir = MakeTempDir();
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  Instance before = db.instance();
  uint64_t log_before = db.log_bytes();

  // 'links-to' is a multivalued edge label; using it as a node label
  // fails the minimal-scheme-extension step of NA, after the record
  // was already written ahead.
  GraphBuilder b(db.scheme());
  ops::NodeAddition bad(b.BuildOrDie(), Sym("links-to"), {});
  Status s = db.Apply(Operation(bad));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(db.log_bytes(), log_before);
  EXPECT_TRUE(graph::IsIsomorphic(db.instance(), before));

  // The rolled-back record must not resurface at recovery.
  program::Database expected{db.scheme(), db.instance()};
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 0u);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(DatabaseTest, CloseRejectsFurtherApplies) {
  std::string dir = MakeTempDir();
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  db.Close().OrDie();
  Status s = db.Apply(hypermedia::Fig12NodeAddition(db.scheme()).ValueOrDie());
  EXPECT_TRUE(s.IsFailedPrecondition());
}

// ---------------------------------------------------------------------------
// Method calls
// ---------------------------------------------------------------------------

TEST(DatabaseTest, MethodCallsReplayThroughTheRegistry) {
  std::string dir = MakeTempDir();
  method::MethodRegistry registry;
  Scheme scheme = hypermedia::BuildScheme().ValueOrDie();
  registry.Register(hypermedia::MakeUpdateMethod(scheme).ValueOrDie())
      .OrDie();
  Options options;
  options.methods = &registry;

  program::Database expected;
  {
    Database db =
        Database::Open(dir, PaperDatabase(), options).ValueOrDie();
    auto call = hypermedia::MakeUpdateCall(db.scheme(), "Music History",
                                           Date{1990, 1, 16})
                    .ValueOrDie();
    db.Apply(Operation(call)).OrDie();
    expected = program::Database{db.scheme(), db.instance()};
  }
  Database reopened = Database::Open(dir, options).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 1u);
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));

  // Without the method's definition the logged call cannot replay.
  auto blind = Database::Open(dir);
  ASSERT_FALSE(blind.ok());
  EXPECT_TRUE(blind.status().IsDataLoss()) << blind.status();
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Applies sample ops under an env whose K-th log append is torn or
/// failed; verifies the failed Apply leaves memory untouched and that
/// reopening the directory recovers exactly the acknowledged prefix.
class FaultPointTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultPointTest, TornAppendAtEveryPointRecovers) {
  const size_t k = static_cast<size_t>(GetParam());
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Options options;
  options.env = &env;
  options.wal_retry_limit = 0;  // Exercise the fail-fast path at every K.

  program::Database expected;
  size_t applied = 0;
  {
    Database db =
        Database::Open(dir, PaperDatabase(), options).ValueOrDie();
    // SetPlan resets the counters, so append #k is the k-th op record.
    FaultPlan plan;
    plan.short_write_at = k;
    env.SetPlan(plan);
    std::vector<Operation> ops = SampleOps(db.scheme());
    for (const Operation& op : ops) {
      Status s = db.Apply(op);
      if (!s.ok()) {
        EXPECT_EQ(applied, k - 1) << "fault fired at the wrong append";
        break;
      }
      ++applied;
    }
    EXPECT_EQ(env.faults_fired(), 1u);
    expected = program::Database{db.scheme(), db.instance()};
  }

  // Recover with a clean env: the torn append must be invisible.
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, applied);
  EXPECT_FALSE(reopened.recovery().dropped_torn_tail)
      << "Apply already truncated the torn bytes";
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST_P(FaultPointTest, FailedAppendAtEveryPointRecovers) {
  const size_t k = static_cast<size_t>(GetParam());
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Options options;
  options.env = &env;
  options.wal_retry_limit = 0;  // Exercise the fail-fast path at every K.

  program::Database expected;
  size_t applied = 0;
  {
    Database db =
        Database::Open(dir, PaperDatabase(), options).ValueOrDie();
    FaultPlan plan;
    plan.fail_append_at = k;
    env.SetPlan(plan);
    std::vector<Operation> ops = SampleOps(db.scheme());
    for (const Operation& op : ops) {
      Status s = db.Apply(op);
      if (!s.ok()) break;
      ++applied;
    }
    // The database stays usable after a failed append.
    db.Apply(hypermedia::Fig12NodeAddition(db.scheme()).ValueOrDie())
        .OrDie();
    expected = program::Database{db.scheme(), db.instance()};
  }

  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, applied + 1);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

INSTANTIATE_TEST_SUITE_P(EveryAppend, FaultPointTest,
                         ::testing::Range(1, 7));

TEST(FaultInjectionTest, SyncFailureRollsBackCleanly) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Options options;
  options.env = &env;
  // Fail fast: with retries enabled a lone transient sync fault would be
  // ridden out (covered by WalRetryTest below).
  options.wal_retry_limit = 0;
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  program::Database before{db.scheme(), db.instance()};

  FaultPlan plan;
  plan.fail_sync_at = 1;  // the next op's log sync
  env.SetPlan(plan);
  std::vector<Operation> ops = SampleOps(db.scheme());
  Status s = db.Apply(ops[0]);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(graph::IsIsomorphic(db.instance(), before.instance));

  env.Reset();
  db.Apply(ops[0]).OrDie();
  program::Database expected{db.scheme(), db.instance()};
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 1u);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(FaultInjectionTest, FailedCheckpointRenameKeepsOldState) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Options options;
  options.env = &env;
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  std::vector<Operation> ops = SampleOps(db.scheme());
  db.Apply(ops[0]).OrDie();
  db.Apply(ops[1]).OrDie();

  FaultPlan plan;
  plan.fail_rename_at = 1;  // this checkpoint's snapshot publish
  env.SetPlan(plan);
  Status s = db.Checkpoint();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(db.log_ops(), 2u) << "failed checkpoint must not touch the log";

  // Still usable, and recovery sees the old snapshot + full log.
  db.Apply(ops[2]).OrDie();
  program::Database expected{db.scheme(), db.instance()};
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 3u);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(FaultInjectionTest, CrashBetweenRenameAndTruncationSkipsResidue) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Options options;
  options.env = &env;
  program::Database expected;
  {
    Database db =
        Database::Open(dir, PaperDatabase(), options).ValueOrDie();
    std::vector<Operation> ops = SampleOps(db.scheme());
    db.Apply(ops[0]).OrDie();
    db.Apply(ops[1]).OrDie();
    expected = program::Database{db.scheme(), db.instance()};

    // This checkpoint writes its partition files and manifest, renames,
    // then fails opening the fresh wal — i.e. a crash after the
    // checkpoint became visible but before the log truncation. (The
    // number of file opens before the log reset depends on how many
    // partitions are dirty, so the fault targets the log by path.)
    FaultPlan plan;
    plan.fail_open_path_contains = "wal.log";
    env.SetPlan(plan);
    Status s = db.Checkpoint();
    ASSERT_FALSE(s.ok());
    // The handle cannot log anymore and says so.
    EXPECT_TRUE(
        db.Apply(hypermedia::Fig12NodeAddition(db.scheme()).ValueOrDie())
            .IsFailedPrecondition());
  }

  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 0u);
  EXPECT_EQ(reopened.recovery().ops_skipped, 2u)
      << "pre-checkpoint records must be skipped, not re-applied";
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

// ---------------------------------------------------------------------------
// WAL append retries
// ---------------------------------------------------------------------------

/// Options with fault env, zero backoff (keeps sweeps fast), and the
/// default retry limit of 3.
Options RetryOptions(FaultInjectionEnv* env) {
  Options options;
  options.env = env;
  options.wal_retry_backoff = std::chrono::microseconds{0};
  return options;
}

TEST(WalRetryTest, TransientAppendFaultIsRiddenOutInvisibly) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Database db =
      Database::Open(dir, PaperDatabase(), RetryOptions(&env)).ValueOrDie();

  FaultPlan plan;
  plan.fail_append_at = 1;  // the next op record, once
  env.SetPlan(plan);
  std::vector<Operation> ops = SampleOps(db.scheme());
  ops::ApplyStats stats;
  db.Apply(ops[0], &stats).OrDie();
  EXPECT_EQ(stats.wal_retries, 1u);
  EXPECT_EQ(env.faults_fired(), 1u);
  program::Database expected{db.scheme(), db.instance()};

  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 1u);
  EXPECT_FALSE(reopened.recovery().dropped_torn_tail);
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(WalRetryTest, BurstWithinTheLimitRetriesEachFault) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Database db =
      Database::Open(dir, PaperDatabase(), RetryOptions(&env)).ValueOrDie();

  FaultPlan plan;
  plan.fail_append_at = 1;
  plan.fail_append_count = 2;  // two consecutive append attempts fail
  env.SetPlan(plan);
  ops::ApplyStats stats;
  db.Apply(SampleOps(db.scheme())[0], &stats).OrDie();
  EXPECT_EQ(stats.wal_retries, 2u);
  EXPECT_EQ(env.faults_fired(), 2u);
  EXPECT_EQ(db.log_ops(), 1u);
}

TEST(WalRetryTest, TornWriteIsTruncatedThenRetried) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Database db =
      Database::Open(dir, PaperDatabase(), RetryOptions(&env)).ValueOrDie();

  FaultPlan plan;
  plan.short_write_at = 1;  // torn bytes hit the file before the error
  env.SetPlan(plan);
  ops::ApplyStats stats;
  db.Apply(SampleOps(db.scheme())[0], &stats).OrDie();
  EXPECT_EQ(stats.wal_retries, 1u);
  program::Database expected{db.scheme(), db.instance()};

  // The torn bytes were truncated before the retry, so the log holds
  // exactly one clean record.
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 1u);
  EXPECT_FALSE(reopened.recovery().dropped_torn_tail);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(WalRetryTest, BurstBeyondTheLimitSurfacesAndStaysUsable) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Database db =
      Database::Open(dir, PaperDatabase(), RetryOptions(&env)).ValueOrDie();
  program::Database before{db.scheme(), db.instance()};

  FaultPlan plan;
  plan.fail_append_at = 1;
  plan.fail_append_count = 4;  // 1 initial + 3 retries all fail
  env.SetPlan(plan);
  std::vector<Operation> ops = SampleOps(db.scheme());
  Status s = db.Apply(ops[0]);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(env.faults_fired(), 4u);
  EXPECT_TRUE(graph::IsIsomorphic(db.instance(), before.instance))
      << "a rejected operation must not touch memory";

  // Not poisoned: the very next append (#5, past the burst) succeeds.
  db.Apply(ops[0]).OrDie();
  program::Database expected{db.scheme(), db.instance()};
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 1u);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(WalRetryTest, PermanentFaultSurfacesAfterExhaustingRetries) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Database db =
      Database::Open(dir, PaperDatabase(), RetryOptions(&env)).ValueOrDie();

  FaultPlan plan;
  plan.fail_appends_from = 1;  // every append from here on fails
  env.SetPlan(plan);
  std::vector<Operation> ops = SampleOps(db.scheme());
  Status s = db.Apply(ops[0]);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(env.faults_fired(), 4u) << "initial attempt + 3 retries";

  // Once the medium heals the handle keeps working.
  env.Reset();
  db.Apply(ops[0]).OrDie();
  EXPECT_EQ(db.log_ops(), 1u);
}

TEST(WalRetryTest, RetryDisabledKeepsHistoricalFailFast) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Options options = RetryOptions(&env);
  options.wal_retry_limit = 0;
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();

  FaultPlan plan;
  plan.fail_append_at = 1;
  env.SetPlan(plan);
  ASSERT_FALSE(db.Apply(SampleOps(db.scheme())[0]).ok());
  EXPECT_EQ(env.faults_fired(), 1u) << "no retry attempts may be made";
}

/// Seed for randomized fault sweeps. CI's fault-injection loop job
/// exports a fresh GOOD_FAULT_SEED per iteration and prints it, so a
/// red run is reproducible locally with the same variable.
unsigned FaultSeed() {
  const char* s = std::getenv("GOOD_FAULT_SEED");
  return s != nullptr ? static_cast<unsigned>(std::strtoul(s, nullptr, 10))
                      : 12345u;
}

TEST(WalRetryTest, RandomizedFaultSweepNeverDiverges) {
  std::mt19937 rng(FaultSeed());
  for (int round = 0; round < 8; ++round) {
    std::string dir = MakeTempDir();
    FaultInjectionEnv env;
    Options options = RetryOptions(&env);
    Database db =
        Database::Open(dir, PaperDatabase(), options).ValueOrDie();

    size_t applied = 0;
    for (const Operation& op : SampleOps(db.scheme())) {
      // Per op, one of: no fault, a torn write, or a transient append
      // burst of 1..5 failures. Bursts within the retry limit (3) must
      // be invisible; longer ones must reject the op without applying.
      const unsigned kind = rng() % 8;
      size_t burst = 0;
      FaultPlan plan;
      if (kind == 1) {
        plan.short_write_at = 1;
      } else if (kind >= 2 && kind <= 6) {
        burst = kind - 1;  // 1..5
        plan.fail_append_at = 1;
        plan.fail_append_count = burst;
      }
      env.SetPlan(plan);
      Status s = db.Apply(op);
      if (burst > options.wal_retry_limit) {
        ASSERT_FALSE(s.ok()) << "seed=" << FaultSeed() << " round=" << round;
      } else {
        ASSERT_TRUE(s.ok()) << "seed=" << FaultSeed() << " round=" << round
                            << " burst=" << burst << ": " << s.ToString();
        ++applied;
      }
    }
    program::Database expected{db.scheme(), db.instance()};

    env.Reset();
    Database reopened = Database::Open(dir).ValueOrDie();
    ASSERT_EQ(reopened.recovery().ops_replayed, applied)
        << "seed=" << FaultSeed() << " round=" << round;
    ASSERT_TRUE(reopened.scheme() == expected.scheme);
    ASSERT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance))
        << "seed=" << FaultSeed() << " round=" << round;
  }
}

// ---------------------------------------------------------------------------
// Mid-method failure atomicity (memory / log divergence regression)
// ---------------------------------------------------------------------------

TEST(MethodFailureTest, BudgetExhaustedCallLeavesMemoryAndLogConsistent) {
  // Regression: a method call that dies mid-body (budget exhausted after
  // real mutations) used to leave the mutated prefix in memory while the
  // log record was rolled back — memory and disk silently diverged. The
  // executor's transaction scope now restores memory byte-exactly.
  std::string dir = MakeTempDir();
  method::MethodRegistry registry;
  Scheme scheme = hypermedia::BuildScheme().ValueOrDie();
  registry.Register(hypermedia::MakeUpdateMethod(scheme).ValueOrDie())
      .OrDie();
  Options tiny;
  tiny.methods = &registry;
  tiny.exec.max_steps = 2;  // dies mid-body
  Database db = Database::Open(dir, PaperDatabase(), tiny).ValueOrDie();
  const std::string before = db.instance().Fingerprint();
  const Scheme scheme_before = db.scheme();

  auto call = hypermedia::MakeUpdateCall(db.scheme(), "Music History",
                                         Date{1990, 1, 16})
                  .ValueOrDie();
  Status s = db.Apply(Operation(call));
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsResourceExhausted()) << s.ToString();
  EXPECT_EQ(db.instance().Fingerprint(), before)
      << "memory must roll back byte-exactly";
  EXPECT_TRUE(db.scheme() == scheme_before);

  // The failed call is not in the log either: recovery lands on a state
  // isomorphic to the in-memory one, and the handle still accepts work.
  program::Database in_memory{db.scheme(), db.instance()};
  Options full;
  full.methods = &registry;
  Database reopened = Database::Open(dir, full).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 0u);
  EXPECT_TRUE(reopened.scheme() == in_memory.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), in_memory.instance));

  Options roomy;
  roomy.methods = &registry;
  Database db2 = Database::Open(dir, roomy).ValueOrDie();
  db2.Apply(Operation(call)).OrDie();
  EXPECT_NE(db2.instance().Fingerprint(), before);
}

// ---------------------------------------------------------------------------
// Snapshot corruption & the manifest.prev fallback chain
// ---------------------------------------------------------------------------

/// Bootstraps, checkpoints a 3-op state (displacing the bootstrap
/// manifest into manifest.prev), then logs `tail_ops` more operations.
/// Returns the bootstrap-time (initial) database for comparison.
program::Database BuildCheckpointedDatabase(const std::string& dir,
                                            size_t tail_ops) {
  program::Database initial = PaperDatabase();
  Database db = Database::Open(dir, initial).ValueOrDie();
  std::vector<Operation> ops = SampleOps(db.scheme());
  for (size_t i = 0; i < 3; ++i) db.Apply(ops[i]).OrDie();
  db.Checkpoint().OrDie();
  for (size_t i = 3; i < 3 + tail_ops && i < ops.size(); ++i) {
    db.Apply(ops[i]).OrDie();
  }
  EXPECT_TRUE(FileEnv::Default()->FileExists(
      Database::PreviousManifestPath(dir)));
  return initial;
}

void Overwrite(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

enum class SnapshotDamage { kFlippedByte, kTruncated, kZeroLength };

class SnapshotCorruptionTest
    : public ::testing::TestWithParam<SnapshotDamage> {};

TEST_P(SnapshotCorruptionTest, StrictRejectsSalvageFallsBackToPrev) {
  std::string dir = MakeTempDir();
  program::Database initial = BuildCheckpointedDatabase(dir, 2);
  const std::string man = Database::ManifestPath(dir);
  std::string bytes = FileEnv::Default()->ReadFileToString(man).ValueOrDie();
  switch (GetParam()) {
    case SnapshotDamage::kFlippedByte:
      bytes[bytes.size() / 2] ^= 0x01;
      break;
    case SnapshotDamage::kTruncated:
      bytes.resize(bytes.size() / 2);
      break;
    case SnapshotDamage::kZeroLength:
      bytes.clear();
      break;
  }
  Overwrite(man, bytes);

  // Strict mode: a damaged manifest is kDataLoss, full stop.
  auto strict = Database::Open(dir, PaperDatabase());
  ASSERT_FALSE(strict.ok());
  EXPECT_TRUE(strict.status().IsDataLoss()) << strict.status().ToString();

  // Salvage mode: recovery falls back to the manifest the last
  // checkpoint displaced. The log's records belong to the damaged
  // manifest's era (their sequence numbers jump past manifest.prev's),
  // so none replay — they are quarantined, and the recovered state is
  // the previous checkpoint itself.
  Options options;
  options.salvage_mode = SalvageMode::kSalvage;
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  EXPECT_TRUE(db.recovery().used_previous_snapshot);
  EXPECT_TRUE(db.recovery().salvaged);
  EXPECT_EQ(db.recovery().ops_replayed, 0u);
  EXPECT_EQ(db.recovery().ops_quarantined, 2u);
  EXPECT_EQ(db.recovery().partitions_quarantined, 0u);
  EXPECT_TRUE(db.scheme() == initial.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(db.instance(), initial.instance));
  EXPECT_TRUE(db.Scrub().clean());
}

INSTANTIATE_TEST_SUITE_P(EveryDamage, SnapshotCorruptionTest,
                         ::testing::Values(SnapshotDamage::kFlippedByte,
                                           SnapshotDamage::kTruncated,
                                           SnapshotDamage::kZeroLength));

TEST(SnapshotCorruptionTest, BothManifestsDamagedIsDataLossEvenInSalvage) {
  std::string dir = MakeTempDir();
  BuildCheckpointedDatabase(dir, 2);
  Overwrite(Database::ManifestPath(dir), "junk");
  Overwrite(Database::PreviousManifestPath(dir), "more junk");
  Options options;
  options.salvage_mode = SalvageMode::kSalvage;
  auto db = Database::Open(dir, PaperDatabase(), options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsDataLoss()) << db.status().ToString();
}

TEST(SnapshotCorruptionTest, MissingCurrentManifestRecoversInStrictMode) {
  // A crash between Checkpoint's two renames leaves manifest.prev plus
  // the untruncated log and no manifest.good. That is the engine's own
  // crash window, not damage — even strict mode must recover through
  // it, replaying the full log over the previous checkpoint.
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Options options;
  options.env = &env;
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  std::vector<Operation> ops = SampleOps(db.scheme());
  for (size_t i = 0; i < 4; ++i) db.Apply(ops[i]).OrDie();
  program::Database expected{db.scheme(), db.instance()};
  FaultPlan plan;
  plan.fail_rename_at = 2;  // rename #1: manifest -> prev; #2: tmp -> manifest
  env.SetPlan(plan);
  EXPECT_FALSE(db.Checkpoint().ok());
  // Crash: drop the handle with manifest.good missing.
  EXPECT_FALSE(FileEnv::Default()->FileExists(Database::ManifestPath(dir)));

  Database reopened = Database::Open(dir, PaperDatabase()).ValueOrDie();
  EXPECT_TRUE(reopened.recovery().used_previous_snapshot);
  EXPECT_FALSE(reopened.recovery().salvaged);  // nothing was damaged
  EXPECT_EQ(reopened.recovery().ops_replayed, 4u);
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

// ---------------------------------------------------------------------------
// Incremental checkpoints: dirty-partition tracking & checkpoint stats
// ---------------------------------------------------------------------------

TEST(IncrementalCheckpointTest, CleanCheckpointCarriesEverything) {
  std::string dir = MakeTempDir();
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  // The bootstrap checkpoint wrote every partition; nothing has been
  // mutated since, so a second checkpoint is all carry, no rewrite.
  CheckpointStats idle;
  db.Checkpoint(&idle).OrDie();
  EXPECT_EQ(idle.partitions_written, 0u);
  EXPECT_GT(idle.partitions_carried, 0u);
  EXPECT_FALSE(idle.scheme_written);

  // A mutation that extends nothing (an edge deletion between existing
  // classes) dirties only the source class's partition.
  const size_t total = idle.partitions_carried;
  db.Apply(Operation(hypermedia::Fig16EdgeDeletion(db.scheme())
                         .ValueOrDie()))
      .OrDie();
  CheckpointStats incremental;
  db.Checkpoint(&incremental).OrDie();
  EXPECT_GE(incremental.partitions_written, 1u);
  EXPECT_LT(incremental.partitions_written, total);
  EXPECT_EQ(incremental.partitions_written + incremental.partitions_carried,
            total);
  EXPECT_FALSE(incremental.scheme_written);
  EXPECT_GT(incremental.bytes_written, 0u);

  // A scheme-extending operation forces the scheme file to rewrite.
  std::vector<Operation> ops = SampleOps(db.scheme());
  db.Apply(ops[0]).OrDie();  // introduces the Tag0 class
  CheckpointStats extended;
  db.Checkpoint(&extended).OrDie();
  EXPECT_TRUE(extended.scheme_written);

  // Recovery sees the incremental chain as one consistent state.
  program::Database expected{db.scheme(), db.instance()};
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 0u);
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(IncrementalCheckpointTest, UndoRollbackStillDirtiesTheClass) {
  // Regression guard for the dirty-tracking blind spot: an operation
  // that executes, mutates a partition, then rolls back (undo journal)
  // touched bytes the next checkpoint must still rewrite — the rollback
  // path itself mutates node/edge structures.
  std::string dir = MakeTempDir();
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  CheckpointStats idle;
  db.Checkpoint(&idle).OrDie();
  ASSERT_EQ(idle.partitions_written, 0u);

  // 'links-to' as a node label fails scheme extension AFTER the
  // rollback scope has executed and undone real mutations.
  GraphBuilder b(db.scheme());
  ops::NodeAddition bad(b.BuildOrDie(), Sym("links-to"), {});
  ASSERT_FALSE(db.Apply(Operation(bad)).ok());

  // The state is unchanged, so whatever the rollback dirtied encodes
  // back to identical partition bytes — but the checkpoint may not
  // silently assume that: dirty classes must rewrite.
  CheckpointStats after;
  db.Checkpoint(&after).OrDie();
  program::Database expected{db.scheme(), db.instance()};
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(IncrementalCheckpointTest, TransientPartitionWriteFaultIsRiddenOut) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Database db =
      Database::Open(dir, PaperDatabase(), RetryOptions(&env)).ValueOrDie();
  db.Apply(Operation(hypermedia::Fig16EdgeDeletion(db.scheme())
                         .ValueOrDie()))
      .OrDie();

  // The first write of the checkpoint (a partition file) fails once;
  // the common::Backoff retry loop must ride it out invisibly.
  FaultPlan plan;
  plan.fail_append_at = 1;
  env.SetPlan(plan);
  CheckpointStats stats;
  db.Checkpoint(&stats).OrDie();
  EXPECT_GE(stats.io_retries, 1u);
  EXPECT_EQ(env.faults_fired(), 1u);
  EXPECT_EQ(db.log_ops(), 0u) << "checkpoint completed";

  program::Database expected{db.scheme(), db.instance()};
  env.Reset();
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 0u);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(IncrementalCheckpointTest, PermanentWriteFaultPropagatesAndKeepsDirty) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Database db =
      Database::Open(dir, PaperDatabase(), RetryOptions(&env)).ValueOrDie();
  db.Apply(Operation(hypermedia::Fig16EdgeDeletion(db.scheme())
                         .ValueOrDie()))
      .OrDie();

  FaultPlan plan;
  plan.fail_appends_from = 1;  // a dead device: retries cannot save it
  env.SetPlan(plan);
  Status failed = db.Checkpoint();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.IsUnavailable()) << failed.ToString();
  EXPECT_EQ(db.log_ops(), 1u) << "failed checkpoint must not touch the log";

  // The dirty set survived the failure: once the medium heals, the
  // next checkpoint still rewrites the mutated partition.
  env.Reset();
  CheckpointStats stats;
  db.Checkpoint(&stats).OrDie();
  EXPECT_GE(stats.partitions_written, 1u);
  EXPECT_EQ(db.log_ops(), 0u);
}

TEST(IncrementalCheckpointTest, CarriedPartitionsSurviveReload) {
  // Regression: an incremental checkpoint taken by a *reloaded*
  // process mixes carried files (written under the original ids) with
  // rewritten ones (written under the live ids). The loader must
  // restore nodes under their exact original ids — a load that
  // renumbered would make the two generations collide or, worse,
  // silently swap node identities across classes.
  std::string dir = MakeTempDir();
  std::vector<Operation> ops = SampleOps(PaperDatabase().scheme);
  program::Database expected;
  {
    Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
    db.Apply(ops[1]).OrDie();
    db.Checkpoint().OrDie();
    db.Close().OrDie();
  }
  {
    // Second generation: a fresh process loads the partitioned
    // checkpoint, mutates a couple of classes, and checkpoints
    // incrementally (some partitions carried, some rewritten).
    Database db = Database::Open(dir).ValueOrDie();
    db.Apply(ops[3]).OrDie();
    db.Apply(ops[4]).OrDie();
    CheckpointStats stats;
    db.Checkpoint(&stats).OrDie();
    EXPECT_GT(stats.partitions_carried, 0u) << "test needs carried files";
    EXPECT_GT(stats.partitions_written, 0u);
    expected = program::Database{db.scheme(), db.instance()};
    db.Close().OrDie();
  }
  Database db = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(db.recovery().ops_replayed, 0u);
  EXPECT_TRUE(db.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(db.instance(), expected.instance));
  EXPECT_TRUE(db.Scrub().clean());
}

// ---------------------------------------------------------------------------
// Legacy monolithic snapshots are refused
// ---------------------------------------------------------------------------

/// Every file in `dir` with its bytes.
std::map<std::string, std::string> DirBytes(const std::string& dir) {
  FileEnv* env = FileEnv::Default();
  std::map<std::string, std::string> out;
  for (const std::string& name : env->ListDir(dir).ValueOrDie()) {
    out[name] = env->ReadFileToString(dir + "/" + name).ValueOrDie();
  }
  return out;
}

TEST(LegacyLayoutTest, MonolithicSnapshotIsRefused) {
  // The pre-partitioning layout: a monolithic snapshot beside a log and
  // no manifest. Every salvage mode refuses it, names the file, and
  // leaves the directory exactly as it was.
  for (const char* name : {"snapshot.good", "snapshot.prev"}) {
    for (SalvageMode mode : {SalvageMode::kStrict, SalvageMode::kSalvage,
                             SalvageMode::kReadOnlyDegraded}) {
      std::string dir = MakeTempDir();
      Overwrite(dir + "/" + name, "monolithic snapshot");
      std::string wal;
      AppendRecordTo(&wal, "logged operation");
      Overwrite(Database::WalPath(dir), wal);
      const std::map<std::string, std::string> before = DirBytes(dir);

      Options options;
      options.salvage_mode = mode;
      auto db = Database::Open(dir, PaperDatabase(), options);
      const std::string where = std::string(name) + " in mode " +
                                std::string(SalvageModeToString(mode));
      ASSERT_FALSE(db.ok()) << where;
      EXPECT_TRUE(db.status().IsFailedPrecondition())
          << where << ": " << db.status().ToString();
      EXPECT_NE(db.status().message().find(name), std::string::npos)
          << db.status().ToString();
      EXPECT_EQ(DirBytes(dir), before) << where;
    }
  }
}

// ---------------------------------------------------------------------------
// Double displacement: a crashed checkpoint on top of a crashed
// checkpoint. The displacement rename is skipped when manifest.good is
// already gone, so manifest.prev is never consumed and the chain stays
// complete through back-to-back failures.
// ---------------------------------------------------------------------------

TEST(DoubleDisplacementTest, PartitionedLayoutSurvivesBackToBackCrashes) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Options options;
  options.env = &env;
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  std::vector<Operation> ops = SampleOps(db.scheme());
  db.Apply(ops[0]).OrDie();
  db.Apply(ops[1]).OrDie();

  // Checkpoint #1 crashes between its two renames: manifest.good was
  // displaced into manifest.prev, the new manifest never published.
  FaultPlan plan;
  plan.fail_rename_at = 2;
  env.SetPlan(plan);
  ASSERT_FALSE(db.Checkpoint().ok());
  ASSERT_FALSE(FileEnv::Default()->FileExists(Database::ManifestPath(dir)));

  // The handle keeps logging, and checkpoint #2 — whose displacement
  // is skipped because manifest.good is missing — crashes at its own
  // publish rename (#1 of that checkpoint).
  db.Apply(ops[2]).OrDie();
  plan.fail_rename_at = 1;
  env.SetPlan(plan);
  ASSERT_FALSE(db.Checkpoint().ok());
  program::Database expected{db.scheme(), db.instance()};

  // manifest.prev still holds the bootstrap checkpoint, and the log was
  // never truncated: even strict recovery replays everything.
  {
    Database reopened = Database::Open(dir, PaperDatabase()).ValueOrDie();
    EXPECT_TRUE(reopened.recovery().used_previous_snapshot);
    EXPECT_FALSE(reopened.recovery().salvaged);
    EXPECT_EQ(reopened.recovery().ops_replayed, 3u);
    EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(),
                                    expected.instance));
  }

  // And the original handle can still complete a checkpoint once the
  // renames work again.
  env.Reset();
  db.Checkpoint().OrDie();
  Database reopened = Database::Open(dir, PaperDatabase()).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 0u);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

// ---------------------------------------------------------------------------
// Recovery deadline & report
// ---------------------------------------------------------------------------

TEST(RecoveryDeadlineTest, CancelledRecoveryStopsCleanly) {
  std::string dir = MakeTempDir();
  ApplyAndCrash(dir, 4);
  common::CancelToken cancel;
  cancel.Cancel();
  Options options;
  options.recovery_deadline.ObserveCancellation(&cancel);
  auto db = Database::Open(dir, PaperDatabase(), options);
  ASSERT_FALSE(db.ok());
  EXPECT_TRUE(db.status().IsCancelled()) << db.status().ToString();
  // Without the token the same directory opens fine — nothing was
  // harmed by the cancelled attempt.
  EXPECT_TRUE(Database::Open(dir, PaperDatabase()).ok());
}

TEST(RecoveryDeadlineTest, ReportSummarizesRecovery) {
  std::string dir = MakeTempDir();
  ApplyAndCrash(dir, 3);
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  const std::string summary = db.recovery().ToString();
  EXPECT_NE(summary.find("replayed 3 ops"), std::string::npos) << summary;
  Database fresh = Database::Open(MakeTempDir(), PaperDatabase()).ValueOrDie();
  EXPECT_EQ(fresh.recovery().ToString(), "created fresh database");
}

// ---------------------------------------------------------------------------
// FaultInjectionEnv counter hygiene
// ---------------------------------------------------------------------------

TEST(FaultInjectionTest, SetPlanResetsAccumulatedCounters) {
  // Regression: a reused env must count from zero after SetPlan/Reset,
  // or sweep harnesses that share one env across runs fire faults at
  // drifting positions.
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  FaultPlan plan;
  plan.fail_append_at = 2;
  env.SetPlan(plan);
  auto file = env.NewWritableFile(dir + "/a", true).ValueOrDie();
  file->Append("one").OrDie();  // append #1 passes

  env.SetPlan(plan);  // counters restart: next append is #1 again
  file->Append("two").OrDie();
  EXPECT_FALSE(file->Append("three").ok());  // #2 fires

  env.Reset();  // clears the plan AND the counters
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(file->Append("x").ok()) << "append " << i;
  }
}

// ---------------------------------------------------------------------------
// ApplyTransaction: the group-commit pipeline's storage primitive
// ---------------------------------------------------------------------------

/// A method call to a name no registry holds — fails cleanly at
/// execution, after earlier operations of the sequence succeeded.
method::Operation UnknownMethodCall(const Scheme& scheme) {
  GraphBuilder b(scheme);
  NodeId x = b.Object("Info");
  method::MethodCallOp call;
  call.pattern = b.BuildOrDie();
  call.method_name = "no-such-method";
  call.receiver = x;
  return method::Operation(std::move(call));
}

TEST(ApplyTransactionTest, SequenceIsOneLogRecord) {
  std::string dir = MakeTempDir();
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  std::vector<Operation> ops = SampleOps(db.scheme());
  ops.erase(ops.begin() + 3, ops.end());
  ASSERT_TRUE(db.ApplyTransaction(ops).ok());
  EXPECT_EQ(db.log_ops(), 1u) << "one transaction, one record";
  program::Database expected{db.scheme(), db.instance()};

  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 1u)
      << "the record replays whole";
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(ApplyTransactionTest, MidSequenceFailureAppliesAndLogsNothing) {
  std::string dir = MakeTempDir();
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  program::Database before{db.scheme(), db.instance()};

  std::vector<Operation> ops = SampleOps(db.scheme());
  ops.erase(ops.begin() + 2, ops.end());
  ops.push_back(UnknownMethodCall(db.scheme()));
  Status failed = db.ApplyTransaction(ops);
  ASSERT_FALSE(failed.ok());

  // All-or-nothing: the two operations that had already executed are
  // rolled back, and the log holds no fragment of the transaction.
  EXPECT_EQ(db.log_ops(), 0u);
  EXPECT_TRUE(db.scheme() == before.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(db.instance(), before.instance));
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 0u);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), before.instance));
}

TEST(ApplyTransactionTest, WalAppendFailureRollsBackMemory) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Options options = RetryOptions(&env);
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  program::Database before{db.scheme(), db.instance()};

  FaultPlan plan;
  plan.fail_appends_from = 1;  // permanent: retries cannot save it
  env.SetPlan(plan);
  std::vector<Operation> ops = SampleOps(db.scheme());
  ops.erase(ops.begin() + 2, ops.end());
  Status failed = db.ApplyTransaction(ops);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.IsUnavailable()) << failed.ToString();

  // Execution succeeded but the record never reached the log, so the
  // in-memory state must roll back — log and memory never diverge.
  env.Reset();
  EXPECT_EQ(db.log_ops(), 0u);
  EXPECT_TRUE(db.scheme() == before.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(db.instance(), before.instance));
}

TEST(ApplyTransactionTest, UnsyncedRecordsSurviveSyncWalBarrier) {
  std::string dir = MakeTempDir();
  Options options;
  options.sync_every_append = false;  // group-commit mode
  program::Database expected;
  {
    Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
    std::vector<Operation> ops = SampleOps(db.scheme());
    ASSERT_TRUE(db.ApplyTransaction({ops[0]}).ok());
    ASSERT_TRUE(db.ApplyTransaction({ops[2]}).ok());
    ASSERT_TRUE(db.SyncWal().ok());  // one barrier for both records
    expected = program::Database{db.scheme(), db.instance()};
    // Crash without Close(): only synced bytes are guaranteed, and the
    // barrier covered both transactions.
  }
  Database reopened = Database::Open(dir).ValueOrDie();
  EXPECT_EQ(reopened.recovery().ops_replayed, 2u);
  EXPECT_TRUE(reopened.scheme() == expected.scheme);
  EXPECT_TRUE(graph::IsIsomorphic(reopened.instance(), expected.instance));
}

TEST(ApplyTransactionTest, FailedSyncWalBarrierIsNonRetriableAndPoisons) {
  std::string dir = MakeTempDir();
  FaultInjectionEnv env;
  Options options;
  options.sync_every_append = false;  // group-commit mode
  options.env = &env;
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  std::vector<Operation> ops = SampleOps(db.scheme());
  ASSERT_TRUE(db.ApplyTransaction({ops[0]}).ok());  // appended unsynced

  FaultPlan plan;
  plan.fail_sync_at = 1;  // the group-commit barrier
  env.SetPlan(plan);
  Status sync = db.SyncWal();
  ASSERT_FALSE(sync.ok());
  // The applied transaction is in memory and in the log with unknowable
  // durability: re-running it could commit it twice, so the failure
  // must not be retriable (the client auto-retry gates on IsRetriable)
  // and the handle must refuse further writes until reopened.
  EXPECT_TRUE(sync.IsDataLoss()) << sync.ToString();
  EXPECT_FALSE(common::IsRetriable(sync));
  env.Reset();
  Status next = db.ApplyTransaction({ops[2]});
  EXPECT_TRUE(next.IsFailedPrecondition()) << next.ToString();

  // Reopen recovers a consistent state: at most the one ambiguous
  // transaction, never a duplicate of it.
  Options reopen;
  reopen.env = &env;
  Database reopened = Database::Open(dir, reopen).ValueOrDie();
  EXPECT_LE(reopened.recovery().ops_replayed, 1u);
}

TEST(ApplyTransactionTest, FootprintExcludesFreshNodes) {
  std::string dir = MakeTempDir();
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  std::vector<Operation> ops = SampleOps(db.scheme());

  // ops[0] adds a fresh Tag0 node with an `of` edge to a matched
  // pre-existing node: the footprint holds the pre-existing endpoint
  // but not the fresh node and not the fresh edge.
  ops::Footprint insertion;
  ASSERT_TRUE(db.ApplyTransaction({ops[0]}, nullptr, &insertion).ok());
  EXPECT_FALSE(insertion.empty());
  EXPECT_TRUE(insertion.edges.empty())
      << "every written edge was incident to the fresh node";

  // A deletion's footprint names the killed edge and both endpoints.
  ops::Footprint deletion;
  ASSERT_TRUE(db.ApplyTransaction(
                    {Operation(hypermedia::Fig16EdgeDeletion(db.scheme())
                                   .ValueOrDie())},
                    nullptr, &deletion)
                  .ok());
  EXPECT_EQ(deletion.edges.size(), 1u);
  EXPECT_GE(deletion.nodes.size(), 2u);
}

}  // namespace
}  // namespace good::storage
