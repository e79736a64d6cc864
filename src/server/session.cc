#include "server/session.h"

#include <utility>

#include "ops/footprint.h"

namespace good::server {

// ---- Server ----------------------------------------------------------------

Server::Server(storage::Database db, ServerOptions options)
    : options_(options),
      db_(std::move(db)),
      chain_(options.version_history) {}

Result<std::unique_ptr<Server>> Server::Open(storage::Database db,
                                             ServerOptions options) {
  // A degraded (read-only) handle is accepted: sessions serve snapshot
  // reads, and the storage layer rejects every authoritative apply with
  // kUnavailable, which the pipeline surfaces per commit.
  std::unique_ptr<Server> server(new Server(std::move(db), options));
  auto base = std::make_shared<Version>();
  base->id = 0;
  base->db = server->db_.database();
  server->chain_.Reset(std::move(base));
  server->pipeline_ = std::make_unique<CommitPipeline>(
      &server->db_, &server->chain_,
      PipelineOptions{.max_batch = options.max_batch});
  return server;
}

Server::~Server() {
  if (pipeline_) pipeline_->Stop();
  if (!closed_) (void)db_.Close();
}

std::unique_ptr<Session> Server::StartSession() {
  active_sessions_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<Session>(new Session(this, chain_.Current()));
}

Result<std::unique_ptr<Session>> Server::TryStartSession() {
  // Optimistically claim a slot; back out if that overshot the cap.
  // Two racing starts can then both be rejected at exactly the cap —
  // shedding one admissible session under a burst is the safe side.
  size_t live = active_sessions_.fetch_add(1, std::memory_order_relaxed);
  if (live >= options_.limits.max_sessions) {
    active_sessions_.fetch_sub(1, std::memory_order_relaxed);
    overload_.BumpShedSession();
    return Status::Unavailable(
        "busy: session limit (" +
        std::to_string(options_.limits.max_sessions) +
        ") reached; retry later");
  }
  return std::unique_ptr<Session>(new Session(this, chain_.Current()));
}

Status Server::Close() {
  if (pipeline_) pipeline_->Stop();
  if (closed_) return Status::OK();
  closed_ = true;
  return db_.Close();
}

// ---- Session ---------------------------------------------------------------

Session::Session(Server* server, VersionRef pinned)
    : server_(server), exec_(server->options_.exec),
      pinned_(std::move(pinned)) {}

Session::~Session() {
  server_->active_sessions_.fetch_sub(1, std::memory_order_relaxed);
}

Status Session::Refresh() {
  if (dirty()) {
    return Status::FailedPrecondition(
        "session has buffered writes; commit or rollback before refresh");
  }
  DiscardWorking();
  pinned_ = server_->chain_.Current();
  return Status::OK();
}

Result<std::vector<pattern::Matching>> Session::Match(
    const pattern::Pattern& pattern) const {
  pattern::MatchOptions options;
  options.deadline = &exec_.deadline;
  pattern::Matcher matcher(pattern, view().instance, options);
  return matcher.FindAllChecked();
}

Result<size_t> Session::Count(const pattern::Pattern& pattern) const {
  pattern::MatchOptions options;
  options.deadline = &exec_.deadline;
  pattern::Matcher matcher(pattern, view().instance, options);
  return matcher.CountChecked();
}

Status Session::EnsureWorking() {
  if (working_) return Status::OK();
  working_ = std::make_unique<program::Database>(pinned_->db);
  txn_ = std::make_unique<ops::Transaction>(&working_->scheme,
                                            &working_->instance);
  return Status::OK();
}

void Session::DiscardWorking() {
  if (txn_) {
    // The copy is discarded whole (dropping its page references);
    // committing the scope just detaches and clears the journal
    // without replaying inverse mutations.
    txn_->Commit();
    txn_.reset();
  }
  working_.reset();
  ops_.clear();
}

Status Session::Execute(const method::Operation& op) {
  GOOD_RETURN_NOT_OK(EnsureWorking());
  // The quota savepoint brackets just this operation: the executor
  // rolls back its own failures, but a *successful* operation that
  // blew the working-copy growth quota must be undone too.
  Savepoint quota_scope = MakeSavepoint();
  method::Executor executor(server_->options_.methods, exec_);
  Status executed =
      executor.Execute(op, &working_->scheme, &working_->instance);
  if (!executed.ok()) {
    ReleaseSavepoint(&quota_scope);  // executor already rolled back
    return executed;
  }
  size_t pinned_size =
      pinned_->db.instance.num_nodes() + pinned_->db.instance.num_edges();
  size_t working_size =
      working_->instance.num_nodes() + working_->instance.num_edges();
  size_t quota = server_->options_.limits.max_working_delta;
  if (working_size > pinned_size && working_size - pinned_size > quota) {
    RollbackTo(&quota_scope);
    server_->overload_.BumpQuota();
    return Status::ResourceExhausted(
        "session working copy would grow by more than " +
        std::to_string(quota) +
        " nodes+edges beyond its snapshot; commit smaller transactions");
  }
  ReleaseSavepoint(&quota_scope);
  ops_.push_back(op);
  return Status::OK();
}

Status Session::ExecuteAll(const std::vector<method::Operation>& ops) {
  Savepoint savepoint = MakeSavepoint();
  for (const method::Operation& op : ops) {
    Status status = Execute(op);
    if (!status.ok()) {
      RollbackTo(&savepoint);
      return status;
    }
  }
  ReleaseSavepoint(&savepoint);
  return Status::OK();
}

Session::Savepoint Session::MakeSavepoint() {
  Savepoint savepoint;
  savepoint.buffered_ops = ops_.size();
  if (working_) {
    savepoint.scope = std::make_unique<ops::Transaction>(
        &working_->scheme, &working_->instance);
  }
  return savepoint;
}

void Session::ReleaseSavepoint(Savepoint* sp) {
  // A nested commit keeps its journal entries, so the outer scope —
  // and the commit footprint collected from it — still covers the
  // region's mutations.
  if (sp->scope) sp->scope->Commit();
  sp->scope.reset();
}

void Session::RollbackTo(Savepoint* sp) {
  if (sp->scope) {
    sp->scope->Rollback();
    sp->scope.reset();
    ops_.erase(ops_.begin() + static_cast<std::ptrdiff_t>(sp->buffered_ops),
               ops_.end());
    return;
  }
  // The region itself created the working copy (the session was clean
  // at the savepoint); discard it whole.
  DiscardWorking();
}

CommitResult Session::Commit() {
  CommitResult result;
  if (ops_.empty()) {
    DiscardWorking();
    pinned_ = server_->chain_.Current();
    result.status = Status::OK();
    result.version = pinned_->id;
    return result;
  }
  ops::Footprint footprint = ops::CollectFootprint(txn_->journal());
  footprint.scheme_changed = !(working_->scheme == pinned_->db.scheme);

  result = server_->pipeline_->Commit(std::move(ops_), pinned_->id,
                                      std::move(footprint), exec_.deadline);
  // Whatever the outcome the local preview is obsolete: on success the
  // authoritative re-execution is the real state (isomorphic, but with
  // its own node ids); on failure nothing was applied. Either way the
  // session continues from the newest published version.
  DiscardWorking();
  pinned_ = server_->chain_.Current();
  return result;
}

void Session::Rollback() {
  DiscardWorking();
  pinned_ = server_->chain_.Current();
}

}  // namespace good::server
