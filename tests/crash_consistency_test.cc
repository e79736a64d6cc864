/// Crash-consistency harness tests: exhaustive crash-point exploration
/// (storage/crashsim.h) over the paper's figure workload, WAL salvage
/// and degraded read-only opens (Options::salvage_mode), and the
/// online integrity scrubber (storage/scrub.h). The exploration proves
/// the committed-prefix invariant at EVERY mutating-I/O boundary: the
/// recovered database is isomorphic to an in-memory oracle replay of
/// the acknowledged prefix (GOOD operations are deterministic up to
/// new-object ids, so equality is graph isomorphism, not id identity).

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <random>
#include <string>
#include <vector>

#include "graph/isomorphism.h"
#include "hypermedia/hypermedia.h"
#include "program/serialize.h"
#include "storage/crash_point_env.h"
#include "storage/crashsim.h"
#include "storage/database.h"
#include "storage/partition.h"
#include "storage/salvage.h"
#include "storage/scrub.h"
#include "storage/wal.h"

namespace good::storage {
namespace {

using graph::Instance;
using method::Operation;
using schema::Scheme;

std::string MakeTempDir() {
  std::string tmpl = ::testing::TempDir() + "good_crash_XXXXXX";
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

/// The figure workload: the paper's four operation walkthroughs
/// (Figures 6, 10, 14, 18) applied in sequence — node addition, edge
/// addition, node deletion, and the three-step abstraction.
std::vector<Operation> FigureWorkload(const Scheme& scheme) {
  std::vector<Operation> ops;
  ops.emplace_back(hypermedia::Fig6NodeAddition(scheme).ValueOrDie());
  ops.emplace_back(hypermedia::Fig10EdgeAddition(scheme).ValueOrDie());
  ops.emplace_back(hypermedia::Fig14NodeDeletion(scheme).ValueOrDie());
  auto fig18 = hypermedia::Fig18Abstraction(scheme).ValueOrDie();
  ops.emplace_back(fig18.tag_new);
  ops.emplace_back(fig18.tag_old);
  ops.emplace_back(fig18.abstraction);
  return ops;
}

void OverwriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

/// Builds a database whose log holds all figure-workload records (no
/// auto-checkpoint), then crashes (drops the handle).
program::Database BuildLoggedDatabase(const std::string& dir) {
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  for (const Operation& op : FigureWorkload(db.scheme())) {
    db.Apply(op).OrDie();
  }
  return program::Database{db.scheme(), db.instance()};
}

// ---------------------------------------------------------------------------
// CrashPointEnv
// ---------------------------------------------------------------------------

TEST(CrashPointEnvTest, TornWritePersistsPrefix) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/file";
  CrashPointEnv env;
  // Boundary 1 is the create, boundary 2 the append: crash there, torn.
  env.SetSchedule(CrashSchedule{2, CrashMode::kTornWrite, 1, 2});
  auto file = env.NewWritableFile(path, true).ValueOrDie();
  Status torn = file->Append("0123456789");
  EXPECT_TRUE(torn.IsUnavailable()) << torn.ToString();
  EXPECT_TRUE(env.crashed());
  // The "rebooted" view: half the bytes made it.
  EXPECT_EQ(FileEnv::Default()->ReadFileToString(path).ValueOrDie(), "01234");
}

TEST(CrashPointEnvTest, LoseUnsyncedRollsBackToSyncedSize) {
  const std::string dir = MakeTempDir();
  const std::string path = dir + "/file";
  CrashPointEnv env;
  CrashSchedule schedule;
  schedule.mode = CrashMode::kLoseUnsynced;
  schedule.crash_at = 5;  // create, append, sync, append, crash at sync
  env.SetSchedule(schedule);
  auto file = env.NewWritableFile(path, true).ValueOrDie();
  file->Append("durable").OrDie();
  file->Sync().OrDie();
  file->Append(" lost").OrDie();
  EXPECT_TRUE(file->Sync().IsUnavailable());
  EXPECT_EQ(FileEnv::Default()->ReadFileToString(path).ValueOrDie(),
            "durable");
}

TEST(CrashPointEnvTest, EverythingFailsAfterCrash) {
  const std::string dir = MakeTempDir();
  CrashPointEnv env;
  env.SetSchedule(CrashSchedule{1, CrashMode::kCutBeforeOp});
  EXPECT_TRUE(env.NewWritableFile(dir + "/a", true).status().IsUnavailable());
  // The cut call performed no I/O at all.
  EXPECT_FALSE(FileEnv::Default()->FileExists(dir + "/a"));
  // The dead process cannot even read.
  EXPECT_TRUE(env.ReadFileToString(dir + "/a").status().IsUnavailable());
  EXPECT_TRUE(env.RenameFile(dir + "/a", dir + "/b").IsUnavailable());
}

TEST(CrashPointEnvTest, SetScheduleResetsCounters) {
  const std::string dir = MakeTempDir();
  CrashPointEnv env;
  env.SetSchedule(CrashSchedule{});  // never crash
  auto file = env.NewWritableFile(dir + "/a", true).ValueOrDie();
  file->Append("x").OrDie();
  file->Sync().OrDie();
  EXPECT_EQ(env.ops_seen(), 3u);
  env.SetSchedule(CrashSchedule{1, CrashMode::kCutBeforeOp});
  EXPECT_EQ(env.ops_seen(), 0u);
  // The counter restarted: the very next mutating call is boundary 1.
  EXPECT_TRUE(env.SyncDir(dir).IsUnavailable());
  EXPECT_TRUE(env.crashed());
  env.SetSchedule(CrashSchedule{});
  EXPECT_FALSE(env.crashed());  // alive again for the next run
  EXPECT_TRUE(env.SyncDir(dir).ok());
}

// ---------------------------------------------------------------------------
// Exhaustive crash-point exploration
// ---------------------------------------------------------------------------

CrashSimOptions FigureSimOptions(const std::string& dir) {
  CrashSimOptions options;
  options.initial = PaperDatabase();
  options.workload = FigureWorkload(options.initial.scheme);
  options.dir_prefix = dir;
  return options;
}

TEST(CrashSimTest, FigureWorkloadSurvivesEveryCrashPoint) {
  CrashSimOptions options = FigureSimOptions(MakeTempDir());
  options.checkpoint_every = 2;  // crash inside checkpoints too
  CrashSimReport report = ExploreCrashPoints(options).ValueOrDie();
  std::cout << "[crash-matrix] checkpointed: " << report.ToString() << "\n";
  EXPECT_GT(report.boundaries, 10u);
  EXPECT_EQ(report.schedules_explored, 3 * report.boundaries);
  EXPECT_EQ(report.crashes_simulated, report.schedules_explored);
  EXPECT_EQ(report.recovered_ok, report.schedules_explored);
  EXPECT_TRUE(report.ok()) << report.ToString()
                           << (report.divergences.empty()
                                   ? ""
                                   : "; first: " +
                                         report.divergences[0].detail);
}

TEST(CrashSimTest, FigureWorkloadWithoutCheckpoints) {
  CrashSimOptions options = FigureSimOptions(MakeTempDir());
  options.checkpoint_every = 0;
  CrashSimReport report = ExploreCrashPoints(options).ValueOrDie();
  std::cout << "[crash-matrix] log-only: " << report.ToString() << "\n";
  EXPECT_TRUE(report.ok()) << report.ToString()
                           << (report.divergences.empty()
                                   ? ""
                                   : "; first: " +
                                         report.divergences[0].detail);
}

TEST(CrashSimTest, UnsyncedAppendsStillRecoverAPrefix) {
  CrashSimOptions options = FigureSimOptions(MakeTempDir());
  options.sync_every_append = false;
  options.checkpoint_every = 3;
  CrashSimReport report = ExploreCrashPoints(options).ValueOrDie();
  std::cout << "[crash-matrix] unsynced: " << report.ToString() << "\n";
  EXPECT_TRUE(report.ok()) << report.ToString()
                           << (report.divergences.empty()
                                   ? ""
                                   : "; first: " +
                                         report.divergences[0].detail);
}

TEST(CrashSimTest, DeadlineCutsExplorationShortNotWrong) {
  CrashSimOptions options = FigureSimOptions(MakeTempDir());
  options.deadline = common::Deadline::After(std::chrono::seconds(0));
  CrashSimReport report = ExploreCrashPoints(options).ValueOrDie();
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.divergences.empty());
}

TEST(CrashSimTest, RejectsWorkloadThatFailsWithoutCrashes) {
  CrashSimOptions options = FigureSimOptions(MakeTempDir());
  // A call to a method nobody registered fails on a crash-free run —
  // the harness must refuse to explore such a workload instead of
  // reporting its failures as crash divergences.
  method::MethodCallOp bogus;
  bogus.method_name = "no-such-method";
  options.workload.emplace_back(std::move(bogus));
  auto result = ExploreCrashPoints(options);
  EXPECT_FALSE(result.ok());
}

// ---------------------------------------------------------------------------
// Salvage & degraded open
// ---------------------------------------------------------------------------

/// Flips one byte inside the payload of the `frame`-th log record.
void CorruptLogFrame(const std::string& dir, size_t frame) {
  const std::string wal = Database::WalPath(dir);
  std::string bytes =
      FileEnv::Default()->ReadFileToString(wal).ValueOrDie();
  SalvageResult clean = WalSalvager::Scan(bytes);
  ASSERT_TRUE(clean.report.clean);
  ASSERT_GT(clean.frames.size(), frame);
  bytes[clean.frames[frame].offset + kRecordHeaderSize] ^= 0x40;
  OverwriteFile(wal, bytes);
}

TEST(SalvageOpenTest, StrictRejectsInteriorCorruption) {
  const std::string dir = MakeTempDir();
  BuildLoggedDatabase(dir);
  CorruptLogFrame(dir, 2);
  auto reopened = Database::Open(dir, PaperDatabase());
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsDataLoss()) << reopened.status().ToString();
}

TEST(SalvageOpenTest, DegradedServesReadsAndRejectsWrites) {
  const std::string dir = MakeTempDir();
  BuildLoggedDatabase(dir);
  CorruptLogFrame(dir, 2);
  const std::string before =
      FileEnv::Default()
          ->ReadFileToString(Database::WalPath(dir))
          .ValueOrDie();

  Options options;
  options.salvage_mode = SalvageMode::kReadOnlyDegraded;
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  EXPECT_TRUE(db.degraded());
  EXPECT_TRUE(db.recovery().degraded);
  EXPECT_TRUE(db.recovery().salvaged);
  // Reads work: the salvageable prefix (2 of 6 ops) is served.
  EXPECT_EQ(db.recovery().ops_replayed, 2u);
  EXPECT_GT(db.instance().num_nodes(), 0u);
  EXPECT_TRUE(db.Scrub().clean());
  // Writes are refused with kUnavailable — not a refused open.
  std::vector<Operation> ops = FigureWorkload(db.scheme());
  EXPECT_TRUE(db.Apply(ops[0]).IsUnavailable());
  EXPECT_TRUE(db.Checkpoint().IsUnavailable());
  db.Close().OrDie();

  // Not a byte on disk changed, and no quarantine sidecar appeared.
  EXPECT_EQ(FileEnv::Default()
                ->ReadFileToString(Database::WalPath(dir))
                .ValueOrDie(),
            before);
  EXPECT_FALSE(FileEnv::Default()->FileExists(Database::QuarantinePath(dir)));
}

TEST(SalvageOpenTest, SalvageRepairsLogAndQuarantinesDamage) {
  const std::string dir = MakeTempDir();
  BuildLoggedDatabase(dir);
  CorruptLogFrame(dir, 2);

  program::Database expected = PaperDatabase();
  {
    std::vector<Operation> ops = FigureWorkload(expected.scheme);
    method::MethodRegistry no_methods;
    method::Executor exec(&no_methods, method::ExecOptions{});
    for (size_t i = 0; i < 2; ++i) {  // the salvageable prefix
      exec.Execute(ops[i], &expected.scheme, &expected.instance).OrDie();
    }
  }

  Options options;
  options.salvage_mode = SalvageMode::kSalvage;
  {
    Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
    EXPECT_TRUE(db.recovery().salvaged);
    EXPECT_EQ(db.recovery().ops_replayed, 2u);
    // One frame was corrupt; the three intact frames after it follow a
    // hole in the sequence, so they are quarantined, never executed.
    EXPECT_EQ(db.recovery().ops_quarantined, 3u);
    EXPECT_GT(db.recovery().bytes_truncated, 0u);
    EXPECT_TRUE(graph::IsIsomorphic(db.instance(), expected.instance));
    // A salvaging open is writable again.
    std::vector<Operation> ops = FigureWorkload(db.scheme());
    EXPECT_TRUE(db.Apply(ops[2]).ok());
    db.Close().OrDie();
  }

  // The quarantine sidecar holds the dropped ranges, readable with the
  // standard framing.
  const std::string quarantine =
      FileEnv::Default()
          ->ReadFileToString(Database::QuarantinePath(dir))
          .ValueOrDie();
  LogContents sidecar = ReadLogRecords(quarantine).ValueOrDie();
  EXPECT_GE(sidecar.records.size(), 4u);  // 1 corrupt + 3 unreplayable

  // The repair is durable: a plain strict open succeeds now.
  auto strict = Database::Open(dir, PaperDatabase());
  ASSERT_TRUE(strict.ok()) << strict.status().ToString();
  EXPECT_FALSE(strict->recovery().salvaged);
}

TEST(SalvageOpenTest, SalvageOfCleanDatabaseMatchesStrict) {
  const std::string dir = MakeTempDir();
  program::Database expected = BuildLoggedDatabase(dir);
  Options options;
  options.salvage_mode = SalvageMode::kSalvage;
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  EXPECT_FALSE(db.recovery().salvaged);
  EXPECT_EQ(db.recovery().ops_replayed, 6u);
  EXPECT_EQ(db.recovery().ops_quarantined, 0u);
  EXPECT_TRUE(graph::IsIsomorphic(db.instance(), expected.instance));
  EXPECT_FALSE(FileEnv::Default()->FileExists(Database::QuarantinePath(dir)));
}

// ---------------------------------------------------------------------------
// Partition corruption matrix: damage each partition under each mode
// and prove the blast radius stays one class.
// ---------------------------------------------------------------------------

/// Seed for the partition-corruption sweep (which byte gets flipped).
/// CI exports GOOD_PART_SEED per iteration so red runs reproduce.
unsigned PartSeed() {
  const char* s = std::getenv("GOOD_PART_SEED");
  return s != nullptr ? static_cast<unsigned>(std::strtoul(s, nullptr, 10))
                      : 7u;
}

/// Bootstraps, applies the figure workload, and checkpoints, leaving a
/// multi-partition manifest with an empty log. Returns the final state.
program::Database BuildPartitionedDatabase(const std::string& dir) {
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  for (const Operation& op : FigureWorkload(db.scheme())) {
    db.Apply(op).OrDie();
  }
  db.Checkpoint().OrDie();
  db.Close().OrDie();
  return program::Database{db.scheme(), db.instance()};
}

Manifest ReadCurrentManifest(const std::string& dir) {
  std::string bytes = FileEnv::Default()
                          ->ReadFileToString(Database::ManifestPath(dir))
                          .ValueOrDie();
  return DecodeManifest(bytes).ValueOrDie();
}

enum class PartitionDamage { kFlippedByte, kTruncated, kDeleted };

void DamagePartitionFile(const std::string& path, PartitionDamage damage,
                         std::mt19937* rng) {
  auto* env = FileEnv::Default();
  switch (damage) {
    case PartitionDamage::kFlippedByte: {
      std::string bytes = env->ReadFileToString(path).ValueOrDie();
      ASSERT_FALSE(bytes.empty());
      bytes[(*rng)() % bytes.size()] ^= static_cast<char>(1 + (*rng)() % 255);
      OverwriteFile(path, bytes);
      break;
    }
    case PartitionDamage::kTruncated: {
      std::string bytes = env->ReadFileToString(path).ValueOrDie();
      bytes.resize(bytes.size() / 2);
      OverwriteFile(path, bytes);
      break;
    }
    case PartitionDamage::kDeleted:
      ASSERT_TRUE(env->RemoveFile(path).ok());
      break;
  }
}

class PartitionCorruptionTest
    : public ::testing::TestWithParam<PartitionDamage> {};

TEST_P(PartitionCorruptionTest, SinglePartitionDamageIsIsolated) {
  std::mt19937 rng(PartSeed());
  // One run per partition of the checkpointed figure workload: damage
  // exactly that file, then open under all three salvage modes.
  const size_t partition_count =
      [] {
        std::string probe = MakeTempDir();
        BuildPartitionedDatabase(probe);
        return ReadCurrentManifest(probe).partitions.size();
      }();
  ASSERT_GT(partition_count, 1u) << "matrix needs multiple partitions";

  for (size_t victim = 0; victim < partition_count; ++victim) {
    const std::string dir = MakeTempDir();
    program::Database expected = BuildPartitionedDatabase(dir);
    Manifest manifest = ReadCurrentManifest(dir);
    auto entry = manifest.partitions.begin();
    std::advance(entry, victim);
    const std::string victim_class = entry->first;
    SCOPED_TRACE("victim=" + victim_class + " seed=" +
                 std::to_string(PartSeed()));
    DamagePartitionFile(dir + "/" + entry->second.file, GetParam(), &rng);

    // Strict mode: any partition damage refuses the open.
    auto strict = Database::Open(dir, PaperDatabase());
    ASSERT_FALSE(strict.ok());
    EXPECT_TRUE(strict.status().IsDataLoss()) << strict.status().ToString();

    // Salvage mode: the damaged class is quarantined, everything else
    // serves read-write.
    Options options;
    options.salvage_mode = SalvageMode::kSalvage;
    Database db =
        Database::Open(dir, PaperDatabase(), options).ValueOrDie();
    EXPECT_TRUE(db.partial_degraded());
    EXPECT_FALSE(db.degraded()) << "healthy classes stay writable";
    ASSERT_EQ(db.recovery().partitions_quarantined, 1u);
    ASSERT_EQ(db.quarantined_classes().size(), 1u);
    EXPECT_EQ(db.quarantined_classes()[0], victim_class);

    // Reads: the quarantined class is typed-unavailable and absent;
    // every healthy class still holds its full node census.
    EXPECT_TRUE(db.CheckClassAvailable(Sym(victim_class)).IsUnavailable());
    EXPECT_EQ(db.instance().CountNodesWithLabel(Sym(victim_class)), 0u);
    for (const auto& [cls, healthy_entry] : manifest.partitions) {
      if (cls == victim_class) continue;
      EXPECT_TRUE(db.CheckClassAvailable(Sym(cls)).ok());
      EXPECT_EQ(db.instance().CountNodesWithLabel(Sym(cls)),
                healthy_entry.nodes)
          << "healthy class " << cls << " lost nodes";
    }

    // Writes: healthy classes accept work; the quarantined one draws
    // kUnavailable (retriable taxonomy, not corruption).
    // Node additions only mint object nodes, so the healthy probe class
    // must be an object label (printable classes are still covered as
    // victims above).
    std::string healthy_class;
    for (const auto& [cls, unused] : manifest.partitions) {
      if (cls != victim_class &&
          expected.scheme.IsObjectLabel(Sym(cls))) {
        healthy_class = cls;
        break;
      }
    }
    ASSERT_FALSE(healthy_class.empty());
    Status healthy_write = db.Apply(Operation(
        ops::NodeAddition(pattern::Pattern(), Sym(healthy_class), {})));
    EXPECT_TRUE(healthy_write.ok()) << healthy_write.ToString();
    Status rejected = db.Apply(Operation(
        ops::NodeAddition(pattern::Pattern(), Sym(victim_class), {})));
    EXPECT_TRUE(rejected.IsUnavailable()) << rejected.ToString();

    // The quarantine sidecar names the class and file for the operator.
    const std::string sidecar =
        FileEnv::Default()
            ->ReadFileToString(Database::PartitionQuarantinePath(dir))
            .ValueOrDie();
    EXPECT_NE(sidecar.find(victim_class), std::string::npos);
    EXPECT_NE(sidecar.find(entry->second.file), std::string::npos);
    EXPECT_TRUE(db.Scrub().clean());
    db.Close().OrDie();

    // Read-only degraded: same partial load, not a byte written.
    Options frozen;
    frozen.salvage_mode = SalvageMode::kReadOnlyDegraded;
    Database ro = Database::Open(dir, PaperDatabase(), frozen).ValueOrDie();
    EXPECT_TRUE(ro.partial_degraded());
    EXPECT_TRUE(ro.degraded());
    EXPECT_TRUE(ro.Apply(Operation(ops::NodeAddition(
                             pattern::Pattern(), Sym(healthy_class), {})))
                    .IsUnavailable());
    (void)expected;
  }
}

INSTANTIATE_TEST_SUITE_P(EveryDamage, PartitionCorruptionTest,
                         ::testing::Values(PartitionDamage::kFlippedByte,
                                           PartitionDamage::kTruncated,
                                           PartitionDamage::kDeleted));

TEST(PartitionQuarantineTest, QuarantineSurvivesCheckpointAndReopen) {
  // A quarantined partition is carried forward by reference across
  // checkpoints — never silently dropped, never "repaired" with an
  // empty class — so a later restore of the damaged file can recover
  // the data.
  std::mt19937 rng(PartSeed());
  const std::string dir = MakeTempDir();
  BuildPartitionedDatabase(dir);
  Manifest manifest = ReadCurrentManifest(dir);
  const auto entry = manifest.partitions.begin();
  const std::string victim_class = entry->first;
  const std::string victim_file = dir + "/" + entry->second.file;
  const std::string original =
      FileEnv::Default()->ReadFileToString(victim_file).ValueOrDie();
  DamagePartitionFile(victim_file, PartitionDamage::kFlippedByte, &rng);

  Options options;
  options.salvage_mode = SalvageMode::kSalvage;
  {
    Database db =
        Database::Open(dir, PaperDatabase(), options).ValueOrDie();
    std::string healthy_class;
    for (const auto& [cls, unused] : manifest.partitions) {
      if (cls != victim_class &&
          PaperDatabase().scheme.IsObjectLabel(Sym(cls))) {
        healthy_class = cls;
        break;
      }
    }
    ASSERT_FALSE(healthy_class.empty());
    db.Apply(Operation(ops::NodeAddition(pattern::Pattern(),
                                         Sym(healthy_class), {})))
        .OrDie();
    db.Checkpoint().OrDie();  // carries the quarantined entry untouched
    db.Close().OrDie();
  }
  {
    Database db =
        Database::Open(dir, PaperDatabase(), options).ValueOrDie();
    ASSERT_EQ(db.quarantined_classes().size(), 1u);
    EXPECT_EQ(db.quarantined_classes()[0], victim_class);
    db.Close().OrDie();
  }

  // Restoring the original bytes heals the class on the next open.
  OverwriteFile(victim_file, original);
  Database healed = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  EXPECT_FALSE(healed.partial_degraded());
  EXPECT_TRUE(healed.quarantined_classes().empty());
  EXPECT_GT(healed.instance().CountNodesWithLabel(Sym(victim_class)), 0u);
  EXPECT_TRUE(healed.Scrub().clean());
}

TEST(PartitionQuarantineTest, ReplayStopsAtRecordTouchingQuarantinedClass) {
  // WAL records touching a quarantined class must NOT replay: their
  // patterns would match nothing against the absent class and
  // execution would fabricate state. They end the salvaged prefix.
  std::mt19937 rng(PartSeed());
  const std::string dir = MakeTempDir();
  BuildLoggedDatabase(dir);  // bootstrap checkpoint + 6 logged ops
  Manifest manifest = ReadCurrentManifest(dir);
  // Every figure operation's pattern mentions an Info node, so
  // quarantining Info must stop replay at record 0.
  ASSERT_TRUE(manifest.partitions.count("Info"));
  DamagePartitionFile(dir + "/" + manifest.partitions["Info"].file,
                      PartitionDamage::kFlippedByte, &rng);

  Options options;
  options.salvage_mode = SalvageMode::kSalvage;
  Database db = Database::Open(dir, PaperDatabase(), options).ValueOrDie();
  EXPECT_TRUE(db.partial_degraded());
  EXPECT_EQ(db.recovery().ops_replayed, 0u);
  EXPECT_EQ(db.recovery().ops_quarantined, 6u);
  EXPECT_TRUE(db.Scrub().clean());
}

// ---------------------------------------------------------------------------
// Scrubber
// ---------------------------------------------------------------------------

TEST(ScrubTest, PaperDatabaseIsClean) {
  program::Database db = PaperDatabase();
  ScrubReport report = Scrub(db.scheme, db.instance);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.clean()) << report.problems[0];
  EXPECT_EQ(report.nodes_scrubbed, db.instance.num_nodes());
  EXPECT_EQ(report.edges_scrubbed, db.instance.num_edges());
}

TEST(ScrubTest, PerClassOutcomesPartitionTheTotals) {
  // The per-class breakdown (used for partition-granular reporting)
  // must partition the whole-pass totals exactly, and the cursor must
  // land past the walk when complete.
  program::Database db = PaperDatabase();
  ScrubReport report = Scrub(db.scheme, db.instance);
  ASSERT_TRUE(report.complete);
  EXPECT_FALSE(report.per_class.empty());
  size_t nodes = 0;
  size_t edges = 0;
  size_t problems = 0;
  for (const auto& [cls, outcome] : report.per_class) {
    EXPECT_EQ(outcome.nodes_scrubbed,
              db.instance.CountNodesWithLabel(Sym(cls)))
        << cls;
    nodes += outcome.nodes_scrubbed;
    edges += outcome.edges_scrubbed;
    problems += outcome.problems;
  }
  EXPECT_EQ(nodes, report.nodes_scrubbed);
  EXPECT_EQ(edges, report.edges_scrubbed);
  EXPECT_EQ(problems, report.problems.size());
}

TEST(ScrubTest, ForeignSchemeIsReported) {
  // Scrubbing an instance against a scheme that licenses none of it
  // must surface conformance problems (and proves the checks fire).
  program::Database db = PaperDatabase();
  schema::Scheme empty;
  ScrubReport report = Scrub(empty, db.instance);
  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.clean());
}

TEST(ScrubTest, MaxNodesPausesAndResumes) {
  program::Database db = PaperDatabase();
  Scrubber scrubber(&db.scheme, &db.instance);
  ScrubOptions slice;
  slice.max_nodes = 5;
  size_t slices = 0;
  while (!scrubber.report().complete) {
    scrubber.Step(slice).OrDie();
    ++slices;
    ASSERT_LT(slices, 1000u);
  }
  EXPECT_GT(slices, 1u);
  EXPECT_TRUE(scrubber.report().clean());
  EXPECT_EQ(scrubber.report().nodes_scrubbed, db.instance.num_nodes());
}

TEST(ScrubTest, CancellationPausesResumably) {
  program::Database db = PaperDatabase();
  Scrubber scrubber(&db.scheme, &db.instance);
  common::CancelToken cancel;
  cancel.Cancel();
  ScrubOptions cancelled;
  cancelled.deadline.ObserveCancellation(&cancel);
  EXPECT_TRUE(scrubber.Step(cancelled).IsCancelled());
  EXPECT_FALSE(scrubber.report().complete);
  // A later, uncancelled call finishes the pass.
  scrubber.Step().OrDie();
  EXPECT_TRUE(scrubber.report().complete);
  EXPECT_TRUE(scrubber.report().clean());
}

TEST(ScrubTest, DatabaseScrubIsWiredIn) {
  const std::string dir = MakeTempDir();
  Database db = Database::Open(dir, PaperDatabase()).ValueOrDie();
  ScrubReport report = db.Scrub();
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.clean());
}

}  // namespace
}  // namespace good::storage
