/// \file session.h
/// \brief The multi-session server: snapshot-isolated sessions over one
/// durable database.
///
/// A Server owns a storage::Database and turns it into a service many
/// sessions use concurrently:
///
///  - **Reads** never block and never see partial writes. A session
///    pins the current published Version (a shared_ptr — pinning is a
///    refcount bump) and all its queries run against that immutable
///    snapshot plus its own buffered writes.
///  - **Writes** are buffered locally. Execute() runs each operation
///    against a private working copy of the snapshot under an undo
///    journal, so the session reads its own writes and collects the
///    transaction's write footprint for free. The working copy shares
///    the snapshot's storage pages copy-on-write, so taking it costs a
///    pointer per page and the preview clones only the pages it writes.
///  - **Commit** ships the buffered operations to the single-writer
///    CommitPipeline, which validates them first-committer-wins
///    against everything committed since the session's base snapshot,
///    re-executes them against the authoritative database, and group
///    commits (one fsync per batch of adjacent commits). The session
///    then re-pins the latest published version.
///
/// Operations are deterministic up to the choice of new object ids
/// (Section 3 of the paper), so the authoritative re-execution at
/// commit produces a state isomorphic to the session's working copy —
/// the working copy is a preview, the committed version is the truth.
///
/// Thread model: Server, VersionChain and CommitPipeline are
/// thread-safe; each Session must be used by one thread at a time
/// (the usual connection-handler ownership).

#ifndef GOOD_SERVER_SESSION_H_
#define GOOD_SERVER_SESSION_H_

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "method/method.h"
#include "ops/transaction.h"
#include "pattern/matcher.h"
#include "server/commit_pipeline.h"
#include "server/limits.h"
#include "server/version.h"
#include "storage/database.h"

namespace good::server {

class Session;

struct ServerOptions {
  /// Maximum commits fsynced together (see PipelineOptions::max_batch).
  size_t max_batch = 8;
  /// Commit footprints retained for first-committer-wins validation; a
  /// session whose snapshot falls further behind gets kAborted
  /// ("snapshot too old") at commit and must retry on a fresh pin.
  size_t version_history = 64;
  /// Methods available to session operations. Borrowed; may be null
  /// when no `call` operations are executed. Must match the registry
  /// the database was opened with.
  const method::MethodRegistry* methods = nullptr;
  /// Default execution limits for new sessions (per-session overrides
  /// via Session::exec_options()). The deadline member also bounds
  /// commit waits.
  method::ExecOptions exec;
  /// Admission-control and resource quotas enforced at the front door
  /// (sessions, protocol, sockets) — see server/limits.h.
  ServerLimits limits;
};

/// \brief Shared front-end over one durable database.
class Server {
 public:
  /// Takes ownership of `db` (already recovered via
  /// storage::Database::Open; open it with sync_every_append=false to
  /// get real group commit) and publishes its state as version 0.
  static Result<std::unique_ptr<Server>> Open(storage::Database db,
                                              ServerOptions options = {});

  ~Server();

  /// Starts a session pinned to the current published version.
  /// Unconditional — the embedded (in-process, trusted) entry point.
  std::unique_ptr<Session> StartSession();

  /// Admission-controlled session start: rejects with a retriable
  /// kUnavailable once ServerLimits::max_sessions sessions are live.
  /// The network front-end (protocol/socket) goes through here.
  Result<std::unique_ptr<Session>> TryStartSession();

  /// The newest published version (never null).
  VersionRef current_version() const { return chain_.Current(); }

  PipelineStats pipeline_stats() const { return pipeline_->stats(); }

  /// Front-door limits every layer above enforces.
  const ServerLimits& limits() const { return options_.limits; }

  /// Shed/eviction/quota counters (see server/limits.h); shared with
  /// the socket listener and every connection.
  OverloadCounters& overload_counters() { return overload_; }
  OverloadStats overload_stats() const { return overload_.Snapshot(); }

  /// Sessions currently alive (socket-backed and embedded).
  size_t active_sessions() const {
    return active_sessions_.load(std::memory_order_relaxed);
  }

  /// Stops the commit pipeline (draining queued commits), then syncs
  /// and closes the database. Sessions keep serving snapshot reads;
  /// commits are rejected with kUnavailable. Idempotent.
  Status Close();

  /// The underlying database (authoritative state; for tests/tools).
  const storage::Database& database() const { return db_; }

 private:
  friend class Session;

  Server(storage::Database db, ServerOptions options);

  ServerOptions options_;
  storage::Database db_;
  VersionChain chain_;
  std::unique_ptr<CommitPipeline> pipeline_;
  OverloadCounters overload_;
  std::atomic<size_t> active_sessions_{0};
  bool closed_ = false;
};

/// \brief One client's snapshot-isolated view and write buffer.
class Session {
 public:
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  ~Session();

  // ---- Snapshot ------------------------------------------------------------

  /// Id of the pinned base version.
  uint64_t base_version() const { return pinned_->id; }

  /// The pinned immutable version (shared with every other pinner).
  const VersionRef& snapshot() const { return pinned_; }

  /// The session's view: the pinned snapshot overlaid with its own
  /// uncommitted writes (read-your-writes). The reference is stable
  /// until the next Execute/Commit/Rollback/Refresh.
  const program::Database& view() const {
    return working_ ? *working_ : pinned_->db;
  }

  /// Re-pins the newest published version. Rejected with
  /// kFailedPrecondition while writes are buffered.
  Status Refresh();

  // ---- Reads ---------------------------------------------------------------

  /// Matchings of `pattern` in the session view, under the session
  /// deadline.
  Result<std::vector<pattern::Matching>> Match(
      const pattern::Pattern& pattern) const;

  /// Matching count of `pattern` in the session view.
  Result<size_t> Count(const pattern::Pattern& pattern) const;

  // ---- Writes --------------------------------------------------------------

  /// Executes `op` against the private working copy (creating it on
  /// first write) and buffers it for commit. On error the working copy
  /// is rolled back to the previous operation boundary and nothing is
  /// buffered. An operation that grows the working copy past
  /// ServerLimits::max_working_delta nodes+edges beyond the pinned
  /// snapshot is rolled back the same way and rejected with
  /// kResourceExhausted (non-retriable: the same operations would blow
  /// the same quota again).
  Status Execute(const method::Operation& op);

  /// Executes a sequence all-or-nothing: on the first failure the
  /// session rolls back to the state before the call (bodies buffered
  /// by earlier calls stay) and the failure is returned.
  Status ExecuteAll(const std::vector<method::Operation>& ops);

  // ---- Savepoints ----------------------------------------------------------

  /// A mark in the buffered transaction: everything executed after
  /// MakeSavepoint() can be undone together with RollbackTo(), leaving
  /// older buffered state untouched — the all-or-nothing unit a
  /// multi-operation request body needs. Move-only; resolve each
  /// savepoint with exactly one of ReleaseSavepoint()/RollbackTo()
  /// before the next Commit/Rollback/Refresh.
  struct Savepoint {
    /// Operations buffered when the savepoint was taken.
    size_t buffered_ops = 0;
    /// Nested undo scope over the working copy. Null when the session
    /// was clean at the savepoint — rollback then discards the working
    /// copy whole.
    std::unique_ptr<ops::Transaction> scope;
  };

  /// Marks the current transaction state.
  Savepoint MakeSavepoint();

  /// Accepts everything executed since `sp`; it stays buffered for
  /// commit (the enclosing transaction can still roll it all back).
  void ReleaseSavepoint(Savepoint* sp);

  /// Undoes every operation executed since `sp` — instance mutations
  /// exactly via the undo journal, scheme via the savepoint snapshot —
  /// and drops them from the commit buffer.
  void RollbackTo(Savepoint* sp);

  /// True iff writes are buffered.
  bool dirty() const { return !ops_.empty(); }
  const std::vector<method::Operation>& buffered_ops() const { return ops_; }

  // ---- Transaction control -------------------------------------------------

  /// Ships the buffered operations through the commit pipeline and
  /// blocks for the group-commit ack, honoring exec_options().deadline
  /// while queued. Whatever the outcome the local buffer is discarded
  /// and the session re-pins the newest published version; on OK that
  /// version includes this commit. An empty commit is a no-op refresh.
  CommitResult Commit();

  /// Discards buffered writes and re-pins the newest version.
  void Rollback();

  /// Execution limits for this session's reads, writes and commit
  /// waits. Mutable — e.g. `exec_options().deadline =
  /// common::Deadline::After(50ms)` bounds the next calls.
  method::ExecOptions& exec_options() { return exec_; }
  const method::ExecOptions& exec_options() const { return exec_; }

 private:
  friend class Server;

  Session(Server* server, VersionRef pinned);

  /// Engages the working copy + undo scope on first write.
  Status EnsureWorking();
  /// Discards the working copy (journal detached via scope commit —
  /// the copy is thrown away, replaying inverses would be wasted work).
  void DiscardWorking();

  Server* server_;
  method::ExecOptions exec_;
  VersionRef pinned_;
  /// Engaged on first write: a private copy of the pinned snapshot,
  /// sharing its pages until a write clones the touched ones.
  std::unique_ptr<program::Database> working_;
  /// Outermost undo scope over `working_`; its journal accumulates
  /// every buffered operation's mutations (nested executor scopes keep
  /// their entries), yielding the whole-transaction footprint.
  std::unique_ptr<ops::Transaction> txn_;
  std::vector<method::Operation> ops_;
};

}  // namespace good::server

#endif  // GOOD_SERVER_SESSION_H_
