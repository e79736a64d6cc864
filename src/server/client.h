/// \file client.h
/// \brief C++ client for the text protocol, with automatic retry of
/// retriable commit failures.
///
/// The client speaks protocol.h over an abstract byte Transport, so
/// the same code drives an in-process server (LocalTransport — no
/// sockets, used by tests and benches) and a remote one
/// (server/socket.h). Wire errors decode back into Status values via
/// StatusCodeFromString, so a caller sees the same error model as an
/// embedded storage::Database user.
///
/// Transactions and retry: Exec bodies are buffered client-side until
/// Commit/Rollback. When Commit fails with a *retriable* status
/// (common::IsRetriable — a first-committer-wins kAborted or a
/// transient kUnavailable), the server has already discarded the
/// transaction and re-pinned a fresh snapshot, so the client replays
/// the buffered bodies against the new snapshot and commits again, up
/// to ClientOptions::max_commit_retries times. After a nonzero backoff
/// sleep it first sends `refresh`, so the replay also sees the commits
/// that landed while it slept. Non-retriable failures
/// (kDeadlineExceeded, validation errors) surface immediately.

#ifndef GOOD_SERVER_CLIENT_H_
#define GOOD_SERVER_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/retry.h"
#include "server/protocol.h"

namespace good::server {

/// \brief A bidirectional byte stream to one server connection.
class Transport {
 public:
  virtual ~Transport() = default;
  /// Sends raw bytes.
  virtual Status Write(std::string_view bytes) = 0;
  /// Receives the next line, without its trailing newline.
  virtual Result<std::string> ReadLine() = 0;
  /// Tears the connection down early (later calls fail). Default no-op
  /// for transports with nothing to tear down.
  virtual Status Close() { return Status::OK(); }
  /// Caps how many bytes one underlying read may pull (0 restores the
  /// transport default). A fault-injection hook — ChaosTransport uses
  /// it to force short reads; transports without a byte stream ignore
  /// it.
  virtual void set_recv_chunk_limit(size_t bytes) { (void)bytes; }
};

/// \brief In-process transport: drives a Connection directly. The
/// protocol is strict request-then-response, so every response is
/// fully buffered by the time the request bytes are consumed.
class LocalTransport final : public Transport {
 public:
  explicit LocalTransport(Server* server) : connection_(server) {}

  Status Write(std::string_view bytes) override {
    connection_.Feed(bytes, &output_);
    return Status::OK();
  }

  Result<std::string> ReadLine() override {
    size_t eol = output_.find('\n', read_pos_);
    if (eol == std::string::npos) {
      return Status::Internal(
          "local transport has no buffered response line (request "
          "incomplete?)");
    }
    std::string line = output_.substr(read_pos_, eol - read_pos_);
    read_pos_ = eol + 1;
    if (read_pos_ == output_.size()) {
      output_.clear();
      read_pos_ = 0;
    }
    return line;
  }

 private:
  Connection connection_;
  std::string output_;
  size_t read_pos_ = 0;
};

struct ClientOptions {
  /// Replays-and-retries after a retriable commit failure. 0 disables
  /// auto-retry.
  size_t max_commit_retries = 3;
  /// Sleep before the first retry (doubling per attempt up to
  /// `max_retry_backoff`); zero disables sleeping.
  std::chrono::microseconds retry_backoff{500};
  /// Ceiling on any single retry sleep — backoff never doubles past
  /// this.
  std::chrono::microseconds max_retry_backoff{100'000};
  /// Seed for the ±25% jitter spreading concurrent retriers apart
  /// (common::Backoff). 0 (the default) draws per-client entropy at
  /// construction, so clients built with default options do not retry
  /// in lockstep; set a nonzero seed to replay an exact delay
  /// sequence (tests).
  uint64_t retry_jitter_seed = 0;
};

/// \brief One parsed server reply.
struct ServerReply {
  Status status;     ///< OK for `ok`/`ok+`, decoded code for `err`.
  std::string head;  ///< Arguments of the ok line.
  std::string body;  ///< Un-stuffed body of an `ok+` reply.
};

/// \brief Protocol client. Single-threaded, like the connection it
/// drives.
class Client {
 public:
  /// `transport` is borrowed and must outlive the client.
  explicit Client(Transport* transport, ClientOptions options = {})
      : transport_(transport), options_(options) {
    if (options_.retry_jitter_seed == 0) {
      // Distinct jitter stream per client by default: mix the object
      // address with the construction time so concurrent clients that
      // fail together do not back off in lockstep.
      options_.retry_jitter_seed =
          static_cast<uint64_t>(
              std::chrono::steady_clock::now().time_since_epoch().count()) ^
          (static_cast<uint64_t>(reinterpret_cast<uintptr_t>(this)) *
           0x9e3779b97f4a7c15ull);
    }
  }

  /// Handshake; verifies the protocol version.
  Status Hello();

  /// Newest published version on the server.
  Result<uint64_t> Version();
  /// The session's pinned base version.
  Result<uint64_t> Base();
  /// Re-pins the newest version; returns its id.
  Result<uint64_t> Refresh();

  /// Buffers and executes an operation sequence (text form, see
  /// program/op_serialize.h) on the session's working copy.
  Status Exec(const std::string& ops_text);
  /// Typed convenience: serializes `ops` against `scheme` first.
  Status Exec(const schema::Scheme& scheme,
              const std::vector<method::Operation>& ops);

  /// Matching count of a pattern block (text form) in the session view.
  Result<size_t> Count(const std::string& pattern_text);
  /// Matchings, one rendered line each ("p->n" pairs).
  Result<std::vector<std::string>> Match(const std::string& pattern_text);
  /// Full database text (program/serialize.h) of the session view.
  Result<std::string> Dump();

  struct CommitAck {
    uint64_t version = 0;
    size_t batch_size = 0;
    /// Replays performed by auto-retry before this ack.
    size_t retries = 0;
  };

  /// Commits the buffered operations; auto-retries retriable failures
  /// (see the file comment). On success the buffer is cleared.
  Result<CommitAck> Commit();

  /// Discards buffered operations, server- and client-side.
  Status Rollback();

  /// Bounds subsequent session calls (and commit waits) server-side.
  Status SetDeadline(std::chrono::milliseconds budget);
  Status ClearDeadline();

  /// Raw head of the `stats` reply ("stats shed <n> evicted <n> ...").
  /// Works even on a connection refused by admission control.
  Result<std::string> Stats();

  /// Closes the exchange politely.
  Status Quit();

 private:
  /// One request-response exchange.
  Result<ServerReply> RoundTrip(std::string_view command_line,
                                const std::string* body);

  Transport* transport_;
  ClientOptions options_;
  /// Exec bodies since the last commit/rollback, for commit retry.
  std::vector<std::string> txn_bodies_;
};

}  // namespace good::server

#endif  // GOOD_SERVER_CLIENT_H_
