#include "storage/database.h"

#include <algorithm>
#include <sstream>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>

#include "common/interner.h"
#include "common/retry.h"
#include "ops/transaction.h"
#include "program/op_serialize.h"
#include "program/serialize.h"
#include "program/text.h"
#include "storage/crc32.h"

namespace good::storage {
namespace {

const method::MethodRegistry& EmptyRegistry() {
  static const method::MethodRegistry* empty = new method::MethodRegistry();
  return *empty;
}

/// Collects every class an operation's execution can read or write:
/// the labels of its pattern nodes plus any label the operation
/// introduces nodes under. Returns false when the footprint cannot be
/// determined statically — a method call executes whatever its body
/// holds, so with quarantined partitions present it cannot be proven
/// safe from its top-level form alone.
bool CollectOpClasses(const method::Operation& op,
                      std::unordered_set<Symbol>* classes) {
  bool analyzable = true;
  std::visit(
      [&](const auto& concrete) {
        using T = std::decay_t<decltype(concrete)>;
        if constexpr (std::is_same_v<T, method::MethodCallOp>) {
          analyzable = false;
          for (graph::NodeId n : concrete.pattern.AllNodes()) {
            classes->insert(concrete.pattern.LabelOf(n));
          }
        } else {
          const auto& pattern = concrete.source_pattern();
          for (graph::NodeId n : pattern.AllNodes()) {
            classes->insert(pattern.LabelOf(n));
          }
          if constexpr (std::is_same_v<T, ops::NodeAddition>) {
            classes->insert(concrete.new_label());
          } else if constexpr (std::is_same_v<T, ops::Abstraction>) {
            classes->insert(concrete.set_label());
          } else if constexpr (std::is_same_v<T, ops::ComputedEdgeAddition>) {
            classes->insert(concrete.output_label());
          }
        }
      },
      op);
  return analyzable;
}

}  // namespace

std::string_view SalvageModeToString(SalvageMode mode) {
  switch (mode) {
    case SalvageMode::kStrict:
      return "strict";
    case SalvageMode::kSalvage:
      return "salvage";
    case SalvageMode::kReadOnlyDegraded:
      return "read-only-degraded";
  }
  return "unknown";
}

std::string RecoveryReport::ToString() const {
  if (created) return "created fresh database";
  std::string out = "replayed " + std::to_string(ops_replayed) +
                    " ops, skipped " + std::to_string(ops_skipped);
  if (ops_quarantined > 0) {
    out += ", quarantined " + std::to_string(ops_quarantined);
  }
  if (dropped_torn_tail) out += ", dropped torn tail";
  if (bytes_truncated > 0) {
    out += ", truncated " + std::to_string(bytes_truncated) + " B";
  }
  if (used_previous_snapshot) out += ", from previous snapshot";
  if (partitions_quarantined > 0) {
    out += ", " + std::to_string(partitions_quarantined) +
           " partition(s) quarantined";
    if (dangling_edges_dropped > 0) {
      out += " (" + std::to_string(dangling_edges_dropped) +
             " dangling edges dropped)";
    }
  }
  if (salvaged) out += " [salvaged: " + salvage.ToString() + "]";
  if (partial_degraded) out += " (partially degraded)";
  if (degraded) out += " (read-only degraded)";
  return out;
}

std::string Database::ManifestPath(const std::string& dir) {
  return dir + "/manifest.good";
}

std::string Database::PreviousManifestPath(const std::string& dir) {
  return dir + "/manifest.prev";
}

std::string Database::WalPath(const std::string& dir) {
  return dir + "/wal.log";
}

std::string Database::QuarantinePath(const std::string& dir) {
  return dir + "/wal.quarantine";
}

std::string Database::PartitionQuarantinePath(const std::string& dir) {
  return dir + "/partition.quarantine";
}

Database::Database(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  if (options_.env == nullptr) options_.env = FileEnv::Default();
}

const method::MethodRegistry* Database::Registry() const {
  return options_.methods != nullptr ? options_.methods : &EmptyRegistry();
}

Result<Database> Database::Open(const std::string& dir, Options options) {
  return Open(dir, program::Database{}, std::move(options));
}

Result<Database> Database::Open(const std::string& dir,
                                program::Database initial, Options options) {
  Database db(dir, options);
  FileEnv* env = db.options_.env;
  const bool degraded =
      db.options_.salvage_mode == SalvageMode::kReadOnlyDegraded;
  const bool has_manifest = env->FileExists(ManifestPath(dir)) ||
                            env->FileExists(PreviousManifestPath(dir));
  if (!has_manifest) {
    // The pre-partitioning monolithic layout is no longer read. Refuse
    // before touching anything rather than bootstrap an empty database
    // beside the old snapshot; an older release can still migrate it.
    for (const char* name : {"/snapshot.good", "/snapshot.prev"}) {
      if (env->FileExists(dir + name)) {
        return Status::FailedPrecondition(
            dir + name + " is a legacy monolithic snapshot, which " +
            "this version no longer reads");
      }
    }
  }
  if (!degraded) {
    // A degraded open must not mutate anything — not even mkdir.
    GOOD_RETURN_NOT_OK(env->CreateDirs(dir));
  }
  if (has_manifest) {
    db.recovery_.degraded = degraded;
    GOOD_RETURN_NOT_OK(db.LoadSnapshot());
    uint64_t valid_bytes = 0;
    GOOD_RETURN_NOT_OK(db.ReplayWal(&valid_bytes));
    if (!degraded) {
      GOOD_RETURN_NOT_OK(db.SyncPartitionQuarantineSidecar());
      GOOD_RETURN_NOT_OK(db.OpenWalForAppend(valid_bytes));
    }
  } else {
    if (degraded) {
      return Status::FailedPrecondition(
          "no database in " + dir + " to serve in read-only degraded mode");
    }
    // No snapshot. An intact log record would mean operations were
    // durably acknowledged but their base state is gone.
    const std::string wal = WalPath(dir);
    if (env->FileExists(wal)) {
      GOOD_ASSIGN_OR_RETURN(std::string bytes, env->ReadFileToString(wal));
      GOOD_ASSIGN_OR_RETURN(LogContents contents, ReadLogRecords(bytes));
      if (!contents.records.empty()) {
        return Status::DataLoss("log " + wal +
                                " holds operations but the snapshot " +
                                "they apply to is missing");
      }
    }
    db.db_ = std::move(initial);
    db.recovery_.created = true;
    // The bootstrap checkpoint persists the initial state and creates
    // the (empty) log.
    GOOD_RETURN_NOT_OK(db.Checkpoint());
  }
  return db;
}

Status Database::LoadManifestFile(const std::string& path) {
  auto bytes = options_.env->ReadFileToString(path);
  if (!bytes.ok()) {
    return Status::DataLoss("manifest " + path +
                            " unreadable: " + bytes.status().message());
  }
  auto decoded = DecodeManifest(*bytes);
  if (!decoded.ok()) {
    return Status::DataLoss("manifest " + path +
                            " is damaged: " + decoded.status().message());
  }
  const bool allow_quarantine =
      options_.salvage_mode != SalvageMode::kStrict;
  auto loaded = LoadCheckpoint(options_.env, dir_, *decoded, allow_quarantine);
  if (!loaded.ok()) return loaded.status();
  db_ = std::move(loaded->db);
  next_seq_ = loaded->next_seq;
  last_scheme_text_ = std::move(loaded->scheme_text);
  recovery_.partitions = std::move(loaded->partitions);
  recovery_.partitions_quarantined = loaded->quarantined.size();
  recovery_.dangling_edges_dropped = loaded->dangling_edges_dropped;
  quarantined_.clear();
  quarantined_.insert(loaded->quarantined.begin(), loaded->quarantined.end());
  recovery_.partial_degraded = !quarantined_.empty();
  manifest_ = std::move(*decoded);
  have_manifest_ = true;
  return Status::OK();
}

Status Database::LoadSnapshot() {
  FileEnv* env = options_.env;
  const std::string man = ManifestPath(dir_);
  const std::string man_prev = PreviousManifestPath(dir_);
  if (env->FileExists(man)) {
    Status loaded = LoadManifestFile(man);
    if (loaded.ok()) return loaded;
    if (options_.salvage_mode == SalvageMode::kStrict) return loaded;
    // Salvage modes: the current manifest chain is unusable — fall back
    // to the one the last checkpoint displaced. Note the asymmetry with
    // partition damage: a *readable* manifest with damaged partitions
    // already returned OK above with those partitions quarantined,
    // because the WAL was truncated at that manifest's commit — falling
    // back to manifest.prev would lose every operation since the
    // previous checkpoint for ALL classes, strictly worse than serving
    // the healthy ones and quarantining the rest.
    if (env->FileExists(man_prev)) {
      // Reset whatever the failed attempt half-filled.
      db_ = program::Database{};
      recovery_.partitions.clear();
      recovery_.partitions_quarantined = 0;
      recovery_.dangling_edges_dropped = 0;
      recovery_.partial_degraded = false;
      quarantined_.clear();
      Status fallback = LoadManifestFile(man_prev);
      if (fallback.ok()) {
        recovery_.used_previous_snapshot = true;
        recovery_.salvaged = true;
        return fallback;
      }
    }
    return loaded;  // both damaged: surface the primary failure
  }
  // No current manifest but a previous one: our own checkpoint crash
  // window (between the two manifest renames). The untruncated log
  // still holds everything since the previous checkpoint, so this
  // recovers fully — in every mode, strict included.
  GOOD_RETURN_NOT_OK(LoadManifestFile(man_prev));
  recovery_.used_previous_snapshot = true;
  return Status::OK();
}

Status Database::ReplayRecord(std::string_view op_text, size_t index) {
  // A record holds one operation (Apply) or a whole transaction's
  // sequence (ApplyTransaction). Either way replay is atomic per
  // record: the rollback scope guarantees a record that fails midway
  // leaves the state exactly at the previous record boundary — which
  // is what lets salvage mode keep serving the replayed prefix.
  auto reader = program::OperationReader::Open(std::string(op_text));
  if (!reader.ok()) {
    return Status::DataLoss("log record " + std::to_string(index) +
                            " does not tokenize: " +
                            reader.status().ToString());
  }
  ops::Transaction txn(&db_.scheme, &db_.instance);
  method::Executor exec(Registry(), options_.exec);
  size_t ops_in_record = 0;
  while (!reader->AtEnd()) {
    auto op = reader->Next(db_.scheme);
    if (!op.ok()) {
      return Status::DataLoss("log record " + std::to_string(index) +
                              " does not parse: " + op.status().ToString());
    }
    // A record touching a quarantined class must NOT replay: its
    // pattern would silently match nothing (the class's nodes are
    // absent, not empty) and execution would fabricate a state the
    // pre-crash database never held. Failing here ends the salvaged
    // prefix; the record is quarantined with the rest of the tail.
    Status available = CheckOpAvailable(*op);
    if (!available.ok()) {
      return Status::DataLoss("log record " + std::to_string(index) +
                              " touches a quarantined partition: " +
                              available.message());
    }
    Status applied = exec.Execute(*op, &db_.scheme, &db_.instance);
    if (!applied.ok()) {
      return Status::DataLoss("log record " + std::to_string(index) +
                              " does not replay: " + applied.ToString());
    }
    ++ops_in_record;
  }
  if (ops_in_record == 0) {
    return Status::DataLoss("log record " + std::to_string(index) +
                            " holds no operations");
  }
  txn.Commit();
  ++next_seq_;
  ++recovery_.ops_replayed;
  return Status::OK();
}

Status Database::ReplayWal(uint64_t* valid_bytes) {
  *valid_bytes = 0;
  const std::string wal = WalPath(dir_);
  if (!options_.env->FileExists(wal)) return Status::OK();
  GOOD_ASSIGN_OR_RETURN(std::string bytes,
                        options_.env->ReadFileToString(wal));
  if (options_.salvage_mode == SalvageMode::kStrict) {
    return ReplayWalStrict(bytes, valid_bytes);
  }
  return ReplayWalSalvage(wal, bytes, valid_bytes);
}

Status Database::ReplayWalStrict(std::string_view bytes,
                                 uint64_t* valid_bytes) {
  GOOD_ASSIGN_OR_RETURN(LogContents contents, ReadLogRecords(bytes));
  *valid_bytes = contents.valid_bytes;
  recovery_.dropped_torn_tail = contents.dropped_torn_tail;
  recovery_.bytes_truncated = bytes.size() - contents.valid_bytes;
  const uint64_t snapshot_seq = next_seq_;
  for (size_t i = 0; i < contents.records.size(); ++i) {
    // Replay executes real operations — a huge log tail can take a
    // while, so recovery is cancellable like any other long engine run.
    GOOD_RETURN_NOT_OK(options_.recovery_deadline.Check());
    std::string_view payload = contents.records[i];
    auto seq = ConsumeFixed64(&payload);
    if (!seq.ok()) {
      return Status::DataLoss("log record " + std::to_string(i) +
                              " has no sequence number");
    }
    if (*seq < snapshot_seq) {
      // Residue from a checkpoint that renamed its snapshot but crashed
      // before truncating the log; the snapshot already contains it.
      if (recovery_.ops_replayed > 0) {
        return Status::DataLoss("log record " + std::to_string(i) +
                                " is out of sequence order");
      }
      ++recovery_.ops_skipped;
      continue;
    }
    if (*seq != next_seq_) {
      return Status::DataLoss(
          "log sequence gap at record " + std::to_string(i) + ": expected " +
          std::to_string(next_seq_) + ", found " + std::to_string(*seq));
    }
    GOOD_RETURN_NOT_OK(ReplayRecord(payload, i));
  }
  log_ops_ = contents.records.size();
  ops_since_checkpoint_ = recovery_.ops_replayed;
  return Status::OK();
}

Status Database::ReplayWalSalvage(const std::string& wal,
                                  std::string_view bytes,
                                  uint64_t* valid_bytes) {
  SalvageResult scan = WalSalvager::Scan(bytes);
  const uint64_t snapshot_seq = next_seq_;
  recovery_.dropped_torn_tail =
      !scan.report.dropped.empty() &&
      scan.report.dropped.back().offset + scan.report.dropped.back().length ==
          bytes.size();
  // A lone dropped range at the exact end of the clean prefix is the
  // ordinary torn tail strict mode tolerates too; everything else is
  // real salvage work.
  const bool torn_tail_only =
      scan.report.clean ||
      (scan.report.dropped.size() == 1 &&
       scan.report.dropped[0].offset == scan.report.clean_prefix_bytes &&
       recovery_.dropped_torn_tail);

  // Replay the longest prefix of frames that is sound to execute:
  // contiguous sequence numbers, parseable, and executable. The first
  // frame that is none of these ends the prefix — an intact frame past
  // a hole may depend on lost operations, so executing it would
  // fabricate state.
  std::vector<SalvagedFrame> kept;
  size_t stop_index = scan.frames.size();
  for (size_t i = 0; i < scan.frames.size(); ++i) {
    GOOD_RETURN_NOT_OK(options_.recovery_deadline.Check());
    std::string_view payload = scan.frames[i].payload;
    auto seq = ConsumeFixed64(&payload);
    if (!seq.ok()) {
      stop_index = i;
      break;
    }
    if (*seq < snapshot_seq) {
      if (recovery_.ops_replayed > 0) {
        stop_index = i;  // misordered — do not trust anything after
        break;
      }
      // Checkpoint residue; the snapshot already contains it. Dropped
      // from the rewritten log (it is durable in the snapshot).
      ++recovery_.ops_skipped;
      continue;
    }
    if (*seq != next_seq_) {
      stop_index = i;  // a hole in the history
      break;
    }
    if (!ReplayRecord(payload, i).ok()) {
      stop_index = i;
      break;
    }
    kept.push_back(scan.frames[i]);
  }
  // Frames past the stop point are salvageable but not replayable:
  // quarantine them alongside the corrupt byte ranges.
  for (size_t i = stop_index; i < scan.frames.size(); ++i) {
    const uint64_t extent = kRecordHeaderSize + scan.frames[i].payload.size();
    scan.report.dropped.push_back(DroppedRange{
        scan.frames[i].offset, extent, SalvageDropReason::kUnreplayable});
    scan.report.bytes_dropped += extent;
    scan.report.bytes_kept -= extent;
    ++recovery_.ops_quarantined;
  }
  std::sort(scan.report.dropped.begin(), scan.report.dropped.end(),
            [](const DroppedRange& a, const DroppedRange& b) {
              return a.offset < b.offset;
            });
  scan.report.frames_kept = kept.size();
  scan.report.clean = scan.report.dropped.empty();

  const bool stopped = stop_index < scan.frames.size();
  recovery_.salvaged |= stopped || !torn_tail_only;
  recovery_.salvage = scan.report;
  log_ops_ = recovery_.ops_skipped + recovery_.ops_replayed;
  ops_since_checkpoint_ = recovery_.ops_replayed;

  if (options_.salvage_mode == SalvageMode::kReadOnlyDegraded) {
    // Report only; the damaged file stays byte-for-byte as found.
    *valid_bytes = 0;
    return Status::OK();
  }
  if (stopped || !torn_tail_only || recovery_.used_previous_snapshot) {
    // Real damage: preserve every dropped byte in the sidecar, then
    // rewrite the log to exactly the replayed prefix (atomically — a
    // crash mid-repair leaves the damaged original, and salvage is
    // idempotent).
    GOOD_RETURN_NOT_OK(WalSalvager::WriteQuarantine(
        options_.env, QuarantinePath(dir_), bytes, scan));
    GOOD_RETURN_NOT_OK(
        WalSalvager::RewriteLog(options_.env, wal, kept, kept.size()));
    uint64_t kept_bytes = 0;
    for (const SalvagedFrame& frame : kept) {
      kept_bytes += kRecordHeaderSize + frame.payload.size();
    }
    *valid_bytes = kept_bytes;
    recovery_.bytes_truncated = bytes.size() - kept_bytes;
    log_ops_ = kept.size();
  } else {
    // Clean log or plain torn tail: behave exactly like strict mode
    // (the tail is truncated by OpenWalForAppend).
    *valid_bytes = scan.report.clean_prefix_bytes;
    recovery_.bytes_truncated = bytes.size() - *valid_bytes;
  }
  return Status::OK();
}

Status Database::OpenWalForAppend(uint64_t valid_bytes) {
  const std::string wal = WalPath(dir_);
  GOOD_ASSIGN_OR_RETURN(
      std::unique_ptr<WritableFile> file,
      options_.env->NewWritableFile(wal, /*truncate=*/valid_bytes == 0));
  if (valid_bytes > 0) {
    GOOD_ASSIGN_OR_RETURN(uint64_t size, options_.env->FileSize(wal));
    if (size != valid_bytes) {
      // Cut off the torn tail so new appends continue the valid prefix.
      GOOD_RETURN_NOT_OK(file->Truncate(valid_bytes));
    }
  }
  writer_ = std::make_unique<LogWriter>(std::move(file), valid_bytes,
                                        options_.sync_every_append);
  return Status::OK();
}

Status Database::CheckWritable() const {
  if (closed_) return Status::FailedPrecondition("database is closed");
  if (recovery_.degraded) {
    return Status::Unavailable(
        "database is open read-only (degraded salvage mode); reopen with "
        "SalvageMode::kSalvage to repair and accept writes");
  }
  if (poisoned_) {
    return Status::FailedPrecondition(
        "database is poisoned by an earlier unrecoverable log failure; "
        "reopen to recover");
  }
  return Status::OK();
}

std::vector<std::string> Database::quarantined_classes() const {
  std::vector<std::string> names;
  names.reserve(quarantined_.size());
  for (Symbol cls : quarantined_) names.push_back(SymName(cls));
  std::sort(names.begin(), names.end());
  return names;
}

Status Database::CheckClassAvailable(Symbol cls) const {
  if (quarantined_.find(cls) == quarantined_.end()) return Status::OK();
  return Status::Unavailable(
      "class '" + SymName(cls) +
      "' is unavailable: its snapshot partition was quarantined at "
      "recovery (see " + PartitionQuarantinePath(dir_) + ")");
}

Status Database::CheckOpAvailable(const method::Operation& op) const {
  if (quarantined_.empty()) return Status::OK();
  std::unordered_set<Symbol> classes;
  const bool analyzable = CollectOpClasses(op, &classes);
  for (Symbol cls : classes) {
    GOOD_RETURN_NOT_OK(CheckClassAvailable(cls));
  }
  if (!analyzable) {
    std::string joined;
    for (const std::string& name : quarantined_classes()) {
      if (!joined.empty()) joined += ", ";
      joined += name;
    }
    return Status::Unavailable(
        "method calls are rejected while partitions are quarantined — "
        "their bodies' class footprint cannot be checked statically "
        "(quarantined: " + joined + ")");
  }
  return Status::OK();
}

Status Database::CheckOpsAvailable(
    const std::vector<method::Operation>& ops) const {
  if (quarantined_.empty()) return Status::OK();
  for (const method::Operation& op : ops) {
    GOOD_RETURN_NOT_OK(CheckOpAvailable(op));
  }
  return Status::OK();
}

Status Database::AppendWithRetry(std::string_view payload,
                                 ops::ApplyStats* stats) {
  // Transient (common::IsRetriable) append faults are retried on a
  // shared capped-and-jittered backoff schedule (common::Backoff);
  // every failed attempt's torn bytes are truncated away before the
  // next try so the record never lands twice. Permanent faults surface
  // immediately.
  common::BackoffPolicy policy;
  policy.max_retries = options_.wal_retry_limit;
  policy.initial_delay = options_.wal_retry_backoff;
  policy.max_delay = options_.wal_retry_max_backoff;
  policy.seed = next_seq_;
  common::Backoff backoff(policy);
  while (true) {
    Status logged = writer_->AppendRecord(payload);
    if (logged.ok()) break;
    Status undone = writer_->UndoLastAppend();
    if (!undone.ok()) {
      // The log may now disagree with memory; refuse further writes.
      poisoned_ = true;
      return logged;
    }
    if (!common::IsRetriable(logged)) return logged;
    if (!backoff.CanRetry()) return logged;
    std::chrono::microseconds delay = backoff.NextDelay();
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
  if (stats != nullptr) stats->wal_retries += backoff.retries();
  return Status::OK();
}

Status Database::Apply(const method::Operation& op, ops::ApplyStats* stats) {
  GOOD_RETURN_NOT_OK(CheckWritable());
  GOOD_RETURN_NOT_OK(CheckOpAvailable(op));
  GOOD_ASSIGN_OR_RETURN(std::string text,
                        program::WriteOperation(db_.scheme, op));
  std::string payload;
  payload.reserve(sizeof(uint64_t) + text.size());
  AppendFixed64(&payload, next_seq_);
  payload += text;
  // Write-ahead: the operation reaches the log before the instance.
  GOOD_RETURN_NOT_OK(AppendWithRetry(payload, stats));
  method::Executor exec(Registry(), options_.exec);
  Status applied = exec.Execute(op, &db_.scheme, &db_.instance, stats);
  if (!applied.ok()) return Undo(std::move(applied));
  ++next_seq_;
  ++log_ops_;
  ++ops_since_checkpoint_;
  if (options_.checkpoint_every > 0 &&
      ops_since_checkpoint_ >= options_.checkpoint_every) {
    GOOD_RETURN_NOT_OK(Checkpoint());
  }
  return Status::OK();
}

Status Database::ApplyTransaction(const std::vector<method::Operation>& ops,
                                  ops::ApplyStats* stats,
                                  ops::Footprint* footprint) {
  GOOD_RETURN_NOT_OK(CheckWritable());
  GOOD_RETURN_NOT_OK(CheckOpsAvailable(ops));
  if (footprint != nullptr) *footprint = ops::Footprint{};
  if (ops.empty()) return Status::OK();
  // Execute first, under a rollback scope, serializing each operation
  // against the scheme as it stands (exactly what replay will see).
  // The record is appended only once the whole sequence succeeded, so
  // the log never holds a fragment of a transaction — the inverse of
  // Apply's write-ahead order, with the same invariant: log and memory
  // agree on every return path.
  const schema::Scheme scheme_before = db_.scheme;
  program::OperationWriter record;
  ops::Transaction txn(&db_.scheme, &db_.instance);
  method::Executor exec(Registry(), options_.exec);
  for (const method::Operation& op : ops) {
    GOOD_RETURN_NOT_OK(record.Append(db_.scheme, op));
    GOOD_RETURN_NOT_OK(exec.Execute(op, &db_.scheme, &db_.instance, stats));
  }
  if (footprint != nullptr) {
    *footprint = ops::CollectFootprint(txn.journal());
    footprint->scheme_changed = !(db_.scheme == scheme_before);
  }
  std::string payload;
  AppendFixed64(&payload, next_seq_);
  payload += record.Take();
  GOOD_RETURN_NOT_OK(AppendWithRetry(payload, stats));
  txn.Commit();
  ++next_seq_;
  ++log_ops_;
  ++ops_since_checkpoint_;
  if (options_.checkpoint_every > 0 &&
      ops_since_checkpoint_ >= options_.checkpoint_every) {
    GOOD_RETURN_NOT_OK(Checkpoint());
  }
  return Status::OK();
}

Status Database::SyncWal() {
  GOOD_RETURN_NOT_OK(CheckWritable());
  if (writer_ == nullptr) {
    return Status::FailedPrecondition("database has no open log");
  }
  Status synced = writer_->Sync();
  if (!synced.ok()) {
    // A failed fsync leaves the durability of every record appended
    // since the last barrier unknowable (the kernel may have dropped
    // the dirty pages — or persisted them), while the in-memory state
    // already includes those transactions. Memory and log cannot be
    // reconciled, so refuse further writes and report the failure as
    // non-retriable: a caller that re-ran the "failed" transactions
    // could find them applied twice after recovery.
    poisoned_ = true;
    return Status::DataLoss(
        "group-commit fsync failed; the affected transactions are "
        "applied in memory and may or may not be durable — reopen to "
        "recover a consistent state (" + synced.message() + ")");
  }
  return Status::OK();
}

Status Database::ApplyAll(const std::vector<method::Operation>& ops,
                          ops::ApplyStats* stats) {
  for (const method::Operation& op : ops) {
    GOOD_RETURN_NOT_OK(Apply(op, stats));
  }
  return Status::OK();
}

Status Database::Undo(Status cause) {
  Status undone = writer_->UndoLastAppend();
  if (!undone.ok()) {
    // The log may now disagree with memory; refuse further writes.
    poisoned_ = true;
  }
  return cause;
}

Status Database::WriteFileWithRetry(const std::string& name,
                                    std::string_view bytes, size_t* retries) {
  // Checkpoint files are unreferenced until the manifest commits, so a
  // failed attempt needs no cleanup: the retry reopens with truncate
  // and starts over. Same backoff schedule and transient/permanent
  // split as WAL appends.
  common::BackoffPolicy policy;
  policy.max_retries = options_.wal_retry_limit;
  policy.initial_delay = options_.wal_retry_backoff;
  policy.max_delay = options_.wal_retry_max_backoff;
  policy.seed = next_seq_;
  common::Backoff backoff(policy);
  const std::string path = dir_ + "/" + name;
  while (true) {
    Status wrote = [&]() -> Status {
      GOOD_ASSIGN_OR_RETURN(
          std::unique_ptr<WritableFile> file,
          options_.env->NewWritableFile(path, /*truncate=*/true));
      GOOD_RETURN_NOT_OK(file->Append(bytes));
      GOOD_RETURN_NOT_OK(file->Sync());
      return file->Close();
    }();
    if (wrote.ok()) break;
    if (!common::IsRetriable(wrote)) return wrote;
    if (!backoff.CanRetry()) return wrote;
    std::chrono::microseconds delay = backoff.NextDelay();
    if (delay.count() > 0) std::this_thread::sleep_for(delay);
  }
  if (retries != nullptr) *retries += backoff.retries();
  return Status::OK();
}

Status Database::Checkpoint(CheckpointStats* stats) {
  GOOD_RETURN_NOT_OK(CheckWritable());
  FileEnv* env = options_.env;
  CheckpointStats local;

  Manifest next;
  next.next_seq = next_seq_;
  next.file_number = have_manifest_ ? manifest_.file_number : 1;
  next.node_frontier = db_.instance.NodeFrontier();

  // Scheme file: rewritten only when its serialized text changed.
  std::string scheme_text = program::WriteScheme(db_.scheme);
  if (have_manifest_ && scheme_text == last_scheme_text_) {
    next.scheme = manifest_.scheme;
  } else {
    std::string framed;
    AppendRecordTo(&framed, scheme_text);
    next.scheme.file = SchemeFileName(next.file_number++);
    next.scheme.crc = Crc32(framed);
    next.scheme.bytes = framed.size();
    GOOD_RETURN_NOT_OK(
        WriteFileWithRetry(next.scheme.file, framed, &local.io_retries));
    local.scheme_written = true;
    local.bytes_written += framed.size();
  }

  // Quarantined partitions are carried forward untouched — entry and
  // file bytes alike — so offline repair stays possible. (Their classes
  // cannot have been dirtied: every write path rejects them.)
  for (const auto& [cls_name, entry] : manifest_.partitions) {
    if (quarantined_.count(Sym(cls_name)) > 0) {
      next.partitions.emplace(cls_name, entry);
      ++local.partitions_quarantined;
    }
  }

  // Healthy classes: clean entries are carried forward by reference,
  // dirty or new ones get a fresh immutable file, and entries whose
  // class no longer holds nodes are dropped. File numbers only become
  // durable when the manifest commits, so the files of a *crashed*
  // checkpoint are simply overwritten by the next attempt.
  const std::unordered_set<Symbol>& dirty = db_.instance.dirty_classes();
  std::vector<Symbol> labels = db_.scheme.object_labels();
  {
    std::vector<Symbol> printable = db_.scheme.printable_labels();
    labels.insert(labels.end(), printable.begin(), printable.end());
  }
  for (Symbol cls : labels) {
    if (quarantined_.count(cls) > 0) continue;
    const std::string name = SymName(cls);
    auto it = manifest_.partitions.find(name);
    if (have_manifest_ && it != manifest_.partitions.end() &&
        dirty.count(cls) == 0) {
      next.partitions.emplace(name, it->second);
      ++local.partitions_carried;
      continue;
    }
    if (db_.instance.CountNodesWithLabel(cls) == 0) continue;
    PartitionEntry entry;
    std::string framed = EncodePartition(db_.scheme, db_.instance, cls,
                                         &entry.nodes, &entry.edges);
    entry.file = PartitionFileName(next.file_number++);
    entry.crc = Crc32(framed);
    entry.bytes = framed.size();
    GOOD_RETURN_NOT_OK(
        WriteFileWithRetry(entry.file, framed, &local.io_retries));
    local.bytes_written += framed.size();
    next.partitions.emplace(name, std::move(entry));
    ++local.partitions_written;
  }

  std::string manifest_bytes = EncodeManifest(next);
  GOOD_RETURN_NOT_OK(
      WriteFileWithRetry("manifest.tmp", manifest_bytes, &local.io_retries));
  local.bytes_written += manifest_bytes.size();

  // Atomic publish, keeping the displaced manifest as the salvage
  // fallback. A crash on either side of either rename leaves a
  // recoverable chain: before the first, the old manifest is current;
  // between them, recovery finds manifest.prev plus the untruncated
  // log; after the second, the new manifest is current. When no
  // current manifest exists (recovery in that very window), the
  // displacement is skipped so manifest.prev is never consumed — a
  // crashed checkpoint on top of a crashed checkpoint still leaves a
  // complete chain.
  const std::string man = ManifestPath(dir_);
  if (env->FileExists(man)) {
    GOOD_RETURN_NOT_OK(env->RenameFile(man, PreviousManifestPath(dir_)));
  }
  GOOD_RETURN_NOT_OK(env->RenameFile(dir_ + "/manifest.tmp", man));
  GOOD_RETURN_NOT_OK(env->SyncDir(dir_));

  manifest_ = std::move(next);
  have_manifest_ = true;
  last_scheme_text_ = std::move(scheme_text);
  db_.instance.ClearDirtyClasses();

  // Manifest durable — the log is now redundant. A crash before the
  // truncation below is handled at recovery by sequence-number skip.
  if (writer_ != nullptr) {
    (void)writer_->Close();
    writer_.reset();
  }
  Status reset = OpenWalForAppend(0);
  if (!reset.ok()) {
    poisoned_ = true;  // no log to append to
    return reset;
  }
  log_ops_ = 0;
  ops_since_checkpoint_ = 0;

  // Best-effort sweep of files neither manifest references. Failures
  // are ignored: the sweep is idempotent and the next checkpoint
  // retries it.
  RemoveUnreferencedFiles();
  if (stats != nullptr) *stats = local;
  return Status::OK();
}

void Database::RemoveUnreferencedFiles() {
  FileEnv* env = options_.env;
  std::unordered_set<std::string> referenced;
  // Conservative: when either manifest exists but cannot be decoded,
  // skip the sweep entirely — better to leak files than to delete ones
  // a manifest might still name.
  const auto collect = [&](const std::string& path) -> bool {
    if (!env->FileExists(path)) return true;
    auto bytes = env->ReadFileToString(path);
    if (!bytes.ok()) return false;
    auto decoded = DecodeManifest(*bytes);
    if (!decoded.ok()) return false;
    referenced.insert(decoded->scheme.file);
    for (const auto& [cls, entry] : decoded->partitions) {
      referenced.insert(entry.file);
    }
    return true;
  };
  if (!collect(ManifestPath(dir_)) || !collect(PreviousManifestPath(dir_))) {
    return;
  }
  auto names = env->ListDir(dir_);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    const bool checkpoint_file =
        (name.starts_with("part-") || name.starts_with("scheme-")) &&
        name.ends_with(".good");
    if (!checkpoint_file || referenced.count(name) > 0) continue;
    (void)env->RemoveFile(dir_ + "/" + name);
  }
}

Status Database::SyncPartitionQuarantineSidecar() {
  FileEnv* env = options_.env;
  const std::string path = PartitionQuarantinePath(dir_);
  if (quarantined_.empty()) {
    if (env->FileExists(path)) {
      GOOD_RETURN_NOT_OK(env->RemoveFile(path));
    }
    return Status::OK();
  }
  std::ostringstream os;
  os << "# Partitions quarantined at recovery. Their files are left on\n"
     << "# disk byte-for-byte for inspection and repair (good_dbtool);\n"
     << "# reads and writes touching these classes return kUnavailable.\n";
  for (const PartitionLoadResult& p : recovery_.partitions) {
    if (p.state != PartitionState::kQuarantined) continue;
    os << "partition " << program::text::WriteName(p.class_name) << " "
       << program::text::Quote(p.file) << " "
       << program::text::Quote(p.detail) << ";\n";
  }
  GOOD_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                        env->NewWritableFile(path, /*truncate=*/true));
  GOOD_RETURN_NOT_OK(file->Append(os.str()));
  GOOD_RETURN_NOT_OK(file->Sync());
  return file->Close();
}

ScrubReport Database::Scrub(const ScrubOptions& options) const {
  return storage::Scrub(db_.scheme, db_.instance, options);
}

Status Database::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  if (writer_ == nullptr) return Status::OK();
  Status synced = writer_->Sync();
  Status closed = writer_->Close();
  writer_.reset();
  if (!synced.ok()) return synced;
  return closed;
}

}  // namespace good::storage
