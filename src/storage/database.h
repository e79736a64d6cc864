/// \file database.h
/// \brief A durable GOOD database: write-ahead logging + snapshots.
///
/// The GOOD model makes durability unusually clean: every manipulation
/// is one of the five graph transformations or a method call, each with
/// a storable textual form (program/op_serialize.h). A database's
/// history therefore *is* a log of serialized operations, and its state
/// at any moment is (snapshot ∘ log tail). This class owns a scheme +
/// instance and keeps them durable under that protocol:
///
///  - **Apply** serializes the operation, appends it to the write-ahead
///    log (fsync'd by default) *before* mutating the in-memory
///    instance, then executes it. If execution fails, the just-written
///    record is rolled back by truncation, so the log always holds
///    exactly the operations that succeeded.
///  - **Checkpoint** persists the instance per class (storage/
///    partition.h): each dirty class's partition is written to a fresh
///    immutable file, clean entries are carried forward, and the new
///    CRC-framed manifest is committed by atomic rename — keeping the
///    displaced manifest as `manifest.prev`, the salvage fallback —
///    before the log is truncated. Each log record carries a sequence
///    number and the manifest stores the next expected one, so a crash
///    anywhere in that dance is harmless: recovery skips records the
///    checkpoint already contains, and falls back to `manifest.prev`
///    when the crash hit between the two renames. Damage confined to
///    one partition quarantines just that class (kPartialDegraded)
///    instead of degrading the whole database.
///  - **Open** recovers by loading the snapshot and replaying the log
///    tail, under one of three damage policies (Options::salvage_mode):
///    kStrict drops a torn *final* record (the residue of an
///    interrupted append) and fails loudly with kDataLoss on anything
///    worse; kSalvage scans past interior damage (storage/salvage.h),
///    replays the longest sound prefix, quarantines everything it had
///    to drop into a sidecar file, and repairs the log in place;
///    kReadOnlyDegraded recovers the same salvaged prefix without
///    touching a single byte on disk and serves reads only — writes
///    are rejected with kUnavailable instead of the database refusing
///    to open.
///
/// Operations are deterministic up to the choice of new object ids
/// (Section 3 of the paper), so a recovered instance is isomorphic —
/// not pointer-identical — to the pre-crash one; tests compare with
/// graph/isomorphism.h, and tests/crash_consistency_test.cc proves the
/// committed-prefix invariant at every mutating-I/O boundary via
/// storage/crashsim.h. Methods are code, not data: a database whose
/// log contains `call` records must be reopened with a MethodRegistry
/// providing the same definitions (Options::methods).

#ifndef GOOD_STORAGE_DATABASE_H_
#define GOOD_STORAGE_DATABASE_H_

#include <chrono>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/deadline.h"
#include "method/method.h"
#include "ops/footprint.h"
#include "program/program.h"
#include "storage/file_env.h"
#include "storage/partition.h"
#include "storage/salvage.h"
#include "storage/scrub.h"
#include "storage/wal.h"

namespace good::storage {

/// \brief How much damage Open() tolerates, and at what cost.
enum class SalvageMode {
  /// Torn tails only; interior damage is kDataLoss. The default.
  kStrict,
  /// Recover the longest sound prefix, quarantine the damage to a
  /// sidecar, rewrite the log, open writable.
  kSalvage,
  /// Recover like kSalvage but write nothing — not even the torn-tail
  /// truncation. Reads work; Apply/Checkpoint return kUnavailable.
  kReadOnlyDegraded,
};

std::string_view SalvageModeToString(SalvageMode mode);

/// \brief Tuning and environment knobs for a durable database.
struct Options {
  /// File system to use; nullptr means FileEnv::Default().
  FileEnv* env = nullptr;
  /// Methods available to `call` operations, both at Apply time and
  /// during recovery replay. Not owned; may be nullptr when no method
  /// calls are applied.
  const method::MethodRegistry* methods = nullptr;
  /// Execution budgets for operations and replay.
  method::ExecOptions exec;
  /// Damage tolerance policy for Open (see SalvageMode).
  SalvageMode salvage_mode = SalvageMode::kStrict;
  /// Polled between replayed records during recovery, so opening a
  /// database with a huge log is cancellable / time-boxed. Expiry
  /// surfaces as kDeadlineExceeded (or kCancelled) from Open.
  common::Deadline recovery_deadline;
  /// Fsync the log after every appended operation. Turning this off
  /// trades the durability of the last few operations for throughput
  /// (recovery still sees a consistent prefix).
  bool sync_every_append = true;
  /// Automatically Checkpoint() after this many logged operations;
  /// 0 disables auto-checkpointing.
  size_t checkpoint_every = 0;
  /// How many times a failed WAL append is retried before the operation
  /// is rejected. Each failed attempt's partial bytes are truncated
  /// away first, so retries always start from a clean record boundary.
  /// 0 disables retrying (historical fail-fast behavior).
  size_t wal_retry_limit = 3;
  /// Sleep before the first retry; doubles per subsequent retry
  /// (exponential backoff, capped at wal_retry_max_backoff with seeded
  /// ±25% jitter — see common::Backoff). Zero disables sleeping —
  /// tests use that to keep fault-injection sweeps fast.
  std::chrono::microseconds wal_retry_backoff{100};
  /// Ceiling on any single retry sleep.
  std::chrono::microseconds wal_retry_max_backoff{1'000'000};
};

/// \brief Structured account of what Open() found, dropped, and did.
struct RecoveryReport {
  /// True when the directory held no database and a fresh one was
  /// bootstrapped from the caller's initial state.
  bool created = false;
  /// Operations replayed from the log tail.
  size_t ops_replayed = 0;
  /// Log records skipped because the snapshot already contained them
  /// (crash between checkpoint rename and log truncation).
  size_t ops_skipped = 0;
  /// Checksum-intact log records NOT replayed because they follow a
  /// hole (salvage modes only; quarantined, never executed).
  size_t ops_quarantined = 0;
  /// True iff a torn final log record was dropped.
  bool dropped_torn_tail = false;
  /// Bytes of log tail cut off (torn tail, or everything past the
  /// salvageable prefix in kSalvage mode).
  uint64_t bytes_truncated = 0;
  /// True iff recovery based itself on manifest.prev because the
  /// current manifest was missing or (salvage modes) damaged.
  bool used_previous_snapshot = false;
  /// True iff the salvage scanner had to engage (non-strict mode and
  /// real damage found).
  bool salvaged = false;
  /// True iff the handle is read-only (kReadOnlyDegraded).
  bool degraded = false;
  /// Details of the salvage scan when `salvaged` is true.
  SalvageReport salvage;
  /// Per-partition load outcomes (empty for fresh databases).
  std::vector<PartitionLoadResult> partitions;
  /// Partitions quarantined by this open.
  size_t partitions_quarantined = 0;
  /// Edges from healthy partitions dropped because their target lived
  /// in a quarantined one.
  uint64_t dangling_edges_dropped = 0;
  /// The kPartialDegraded outcome: at least one partition is
  /// quarantined while the rest serve. Under kSalvage the handle stays
  /// writable for healthy classes; reads/writes touching a quarantined
  /// class draw typed kUnavailable (see Database::CheckClassAvailable).
  bool partial_degraded = false;

  /// One-line human summary for logs.
  std::string ToString() const;
};

/// \brief What one incremental checkpoint actually wrote.
struct CheckpointStats {
  /// Partition files rewritten (their class was dirty or new).
  size_t partitions_written = 0;
  /// Clean entries carried forward from the previous manifest without
  /// touching their bytes.
  size_t partitions_carried = 0;
  /// Quarantined entries carried forward untouched (repairability).
  size_t partitions_quarantined = 0;
  /// True iff the scheme changed and its file was rewritten.
  bool scheme_written = false;
  /// Bytes written to partition/scheme/manifest files.
  uint64_t bytes_written = 0;
  /// Transient I/O retries the checkpoint rode out (common::Backoff).
  size_t io_retries = 0;
};

/// \brief A durable scheme + instance rooted in a directory.
///
/// Dropping the handle without Close() models a crash: everything
/// synced to the log survives, nothing else is written.
class Database {
 public:
  /// Opens the database in `dir`, creating it from `initial` when no
  /// snapshot exists yet (on later opens `initial` is ignored — the
  /// recovered state wins). Fails with kDataLoss when the persisted
  /// state is damaged beyond what Options::salvage_mode tolerates, and
  /// with kFailedPrecondition, touching nothing, when `dir` holds a
  /// legacy monolithic snapshot.good/snapshot.prev but no manifest.
  static Result<Database> Open(const std::string& dir,
                               program::Database initial,
                               Options options = {});

  /// Opens with an empty initial scheme + instance.
  static Result<Database> Open(const std::string& dir,
                               Options options = {});

  Database(Database&&) = default;
  Database& operator=(Database&&) = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Logs `op` then executes it against the in-memory database.
  /// On error nothing is durably added and the in-memory state is
  /// unchanged: transient WAL append faults are retried up to
  /// Options::wal_retry_limit times (ApplyStats::wal_retries counts
  /// them), and a failed execution rolls back both the log record (by
  /// truncation) and the in-memory scheme + instance (via the
  /// executor's transaction scope), so log and memory never diverge.
  /// Operations carrying C++ closures (match filters, computed edges)
  /// cannot be serialized and are rejected. A degraded (read-only)
  /// handle rejects every Apply with kUnavailable.
  Status Apply(const method::Operation& op,
               ops::ApplyStats* stats = nullptr);

  /// Applies a sequence of operations in order, stopping at the first
  /// failure (earlier operations remain applied and logged).
  Status ApplyAll(const std::vector<method::Operation>& ops,
                  ops::ApplyStats* stats = nullptr);

  /// Applies `ops` as ONE all-or-nothing transaction held in ONE log
  /// record: every operation succeeds and the whole sequence becomes
  /// durable together, or nothing is applied and nothing is logged.
  /// Unlike Apply, execution runs first (under a rollback scope) and
  /// the record is appended only when the whole sequence succeeded —
  /// recovery therefore replays transactions atomically (a record
  /// either replays whole or ends the valid prefix), which is what the
  /// group-commit pipeline needs: a crash between append and fsync can
  /// only lose *whole* unacknowledged transactions, never expose half
  /// of one. With Options::sync_every_append false the record is
  /// appended unsynced; the caller batches several transactions and
  /// makes them durable together with one SyncWal() (group commit).
  /// When `footprint` is non-null it receives the transaction's write
  /// footprint (ops/footprint.h), collected from the undo journal
  /// before the commit clears it.
  Status ApplyTransaction(const std::vector<method::Operation>& ops,
                          ops::ApplyStats* stats = nullptr,
                          ops::Footprint* footprint = nullptr);

  /// Forces every appended log record to stable storage — the group
  /// commit barrier. A no-op when Options::sync_every_append already
  /// syncs per record. kUnavailable on a degraded handle. A failed
  /// fsync poisons the handle and surfaces as non-retriable kDataLoss:
  /// the affected records are applied in memory and of unknowable
  /// durability, so retrying (re-applying) them could commit them
  /// twice — reopen to recover a consistent state instead.
  Status SyncWal();

  /// Writes a checkpoint of the current state and truncates the log.
  /// Incremental: only partitions whose class was mutated since the
  /// last checkpoint (graph::Instance dirty tracking) are rewritten;
  /// clean and quarantined entries are carried forward by reference in
  /// the new manifest. Transient I/O faults on partition writes are
  /// retried on the common::Backoff schedule (Options::wal_retry_*);
  /// permanent faults propagate. kUnavailable on a degraded handle.
  Status Checkpoint(CheckpointStats* stats = nullptr);

  /// Audits the in-memory pair against the scheme and its own indexes
  /// (storage/scrub.h) — one full pass, sliced under
  /// `options.deadline` if armed. Corruption findings are returned in
  /// the report, not as an error status.
  ScrubReport Scrub(const ScrubOptions& options = {}) const;

  /// Syncs and closes the log. Further Apply calls fail.
  Status Close();

  const schema::Scheme& scheme() const { return db_.scheme; }
  const graph::Instance& instance() const { return db_.instance; }
  /// The owned scheme + instance as a program::Database view.
  const program::Database& database() const { return db_; }

  const RecoveryReport& recovery() const { return recovery_; }
  /// True iff this handle serves reads only (kReadOnlyDegraded open).
  bool degraded() const { return recovery_.degraded; }
  /// True iff some partitions are quarantined while the rest serve
  /// (the kPartialDegraded outcome).
  bool partial_degraded() const { return recovery_.partial_degraded; }
  /// Names of the quarantined classes, sorted (empty when healthy).
  std::vector<std::string> quarantined_classes() const;
  /// OK iff class `cls` is served; typed kUnavailable when its
  /// partition is quarantined. Callers gate reads with this; Apply and
  /// ApplyTransaction enforce it on every write.
  Status CheckClassAvailable(Symbol cls) const;
  /// Operations currently in the log (since the last checkpoint).
  size_t log_ops() const { return log_ops_; }
  /// Log file size in bytes.
  uint64_t log_bytes() const { return writer_ ? writer_->size() : 0; }
  /// Sequence number the next applied operation will carry.
  uint64_t next_sequence() const { return next_seq_; }

  /// Path helpers (for tests and tools).
  /// The committed checkpoint manifest.
  static std::string ManifestPath(const std::string& dir);
  /// The displaced previous manifest, kept as the salvage fallback.
  static std::string PreviousManifestPath(const std::string& dir);
  static std::string WalPath(const std::string& dir);
  /// Sidecar holding the byte ranges a salvaging Open dropped.
  static std::string QuarantinePath(const std::string& dir);
  /// Sidecar describing quarantined partitions (operator-readable).
  static std::string PartitionQuarantinePath(const std::string& dir);

 private:
  Database(std::string dir, Options options);

  /// Loads the committed checkpoint: manifest.good, falling back to
  /// manifest.prev when the current one is missing (all modes — that
  /// is our own checkpoint crash window) or damaged (salvage modes
  /// only). Open calls it only when one of the two exists.
  Status LoadSnapshot();
  /// Decodes and loads one manifest file into db_/next_seq_/manifest_.
  /// Partition damage quarantines (salvage modes) or fails (strict).
  Status LoadManifestFile(const std::string& path);
  /// Replays the log tail over the snapshot state; reports the byte
  /// offset appends must resume from (torn tails are cut off there).
  /// Dispatches to the strict or salvaging variant per salvage_mode.
  Status ReplayWal(uint64_t* valid_bytes);
  Status ReplayWalStrict(std::string_view bytes, uint64_t* valid_bytes);
  Status ReplayWalSalvage(const std::string& wal, std::string_view bytes,
                          uint64_t* valid_bytes);
  /// Parses and executes one logged operation (the payload with its
  /// sequence number already consumed). Shared by both replay variants.
  Status ReplayRecord(std::string_view op_text, size_t index);
  Status OpenWalForAppend(uint64_t valid_bytes);
  /// Rolls back the last log record; poisons the handle if the
  /// truncation itself fails (log and memory can no longer be
  /// reconciled).
  Status Undo(Status cause);
  /// Appends one framed record, retrying transient (common::IsRetriable)
  /// failures up to Options::wal_retry_limit with exponential backoff.
  /// Every failed attempt's partial bytes are truncated first; poisons
  /// the handle when that truncation itself fails.
  Status AppendWithRetry(std::string_view payload, ops::ApplyStats* stats);
  /// Guards shared by every mutating entry point.
  Status CheckWritable() const;
  /// Rejects operations that touch a quarantined class (and, when any
  /// quarantine exists, operations whose class footprint cannot be
  /// determined statically — method calls) with typed kUnavailable.
  Status CheckOpsAvailable(const std::vector<method::Operation>& ops) const;
  Status CheckOpAvailable(const method::Operation& op) const;
  /// Writes `bytes` to dir_/name (truncate + sync + close), retrying
  /// transient faults on the shared Backoff schedule.
  Status WriteFileWithRetry(const std::string& name, std::string_view bytes,
                            size_t* retries);
  /// Deletes part-*/scheme-* files referenced by neither manifest.good
  /// nor manifest.prev. Best-effort.
  void RemoveUnreferencedFiles();
  /// Writes or clears the partition-quarantine sidecar to match the
  /// current quarantine set.
  Status SyncPartitionQuarantineSidecar();

  const method::MethodRegistry* Registry() const;

  std::string dir_;
  Options options_;
  program::Database db_;
  std::unique_ptr<LogWriter> writer_;
  uint64_t next_seq_ = 0;
  size_t log_ops_ = 0;
  size_t ops_since_checkpoint_ = 0;
  RecoveryReport recovery_;
  /// The committed manifest this handle's checkpoints build on.
  Manifest manifest_;
  /// Classes whose partitions this open quarantined.
  std::unordered_set<Symbol> quarantined_;
  /// Serialized scheme as last persisted, to skip rewriting the scheme
  /// file when it has not changed.
  std::string last_scheme_text_;
  /// True until the first checkpoint of a fresh database commits.
  bool have_manifest_ = false;
  bool poisoned_ = false;
  bool closed_ = false;
};

}  // namespace good::storage

#endif  // GOOD_STORAGE_DATABASE_H_
