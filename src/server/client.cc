#include "server/client.h"

#include <charconv>
#include <thread>
#include <utility>

#include "program/op_serialize.h"

namespace good::server {
namespace {

/// Parses the value following `key` in an ok-line head like
/// "committed 7 batch 3".
Result<uint64_t> HeadValue(const std::string& head, std::string_view key) {
  size_t pos = 0;
  while (pos < head.size()) {
    size_t end = head.find(' ', pos);
    if (end == std::string::npos) end = head.size();
    std::string_view token(head.data() + pos, end - pos);
    if (token == key) {
      size_t vstart = end + 1;
      if (vstart >= head.size()) break;
      size_t vend = head.find(' ', vstart);
      if (vend == std::string::npos) vend = head.size();
      uint64_t value = 0;
      auto [ptr, ec] =
          std::from_chars(head.data() + vstart, head.data() + vend, value);
      if (ec != std::errc() || ptr != head.data() + vend) break;
      return value;
    }
    pos = end + 1;
  }
  return Status::Internal("malformed server reply: expected '" +
                          std::string(key) + " <n>' in \"" + head + "\"");
}

}  // namespace

Result<ServerReply> Client::RoundTrip(std::string_view command_line,
                                      const std::string* body) {
  GOOD_RETURN_NOT_OK(transport_->Write(EncodeRequest(command_line, body)));
  GOOD_ASSIGN_OR_RETURN(std::string status_line, transport_->ReadLine());

  ServerReply reply;
  bool has_body = false;
  std::string_view line = status_line;
  if (line.rfind("ok+", 0) == 0) {
    has_body = true;
    line.remove_prefix(line.size() > 3 ? 4 : 3);
  } else if (line.rfind("ok", 0) == 0) {
    line.remove_prefix(line.size() > 2 ? 3 : 2);
  } else if (line.rfind("err ", 0) == 0) {
    line.remove_prefix(4);
    size_t space = line.find(' ');
    std::string_view code_name =
        space == std::string_view::npos ? line : line.substr(0, space);
    std::string message =
        space == std::string_view::npos
            ? std::string()
            : std::string(line.substr(space + 1));
    reply.status = Status(StatusCodeFromString(code_name), std::move(message));
    return reply;
  } else {
    return Status::Internal("malformed server reply: \"" + status_line +
                            "\"");
  }
  reply.head.assign(line);
  if (has_body) {
    for (;;) {
      GOOD_ASSIGN_OR_RETURN(std::string body_line, transport_->ReadLine());
      if (body_line == ".") break;
      std::string_view content = body_line;
      if (!content.empty() && content.front() == '.') content.remove_prefix(1);
      reply.body.append(content);
      reply.body.push_back('\n');
    }
  }
  return reply;
}

Status Client::Hello() {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply, RoundTrip("hello", nullptr));
  if (!reply.status.ok()) return reply.status;
  if (reply.head.rfind(kProtocolVersion, 0) != 0) {
    return Status::Unimplemented("server speaks \"" + reply.head +
                                 "\", client speaks " +
                                 std::string(kProtocolVersion));
  }
  return Status::OK();
}

Result<uint64_t> Client::Version() {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply, RoundTrip("version", nullptr));
  GOOD_RETURN_NOT_OK(reply.status);
  return HeadValue(reply.head, "version");
}

Result<uint64_t> Client::Base() {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply, RoundTrip("base", nullptr));
  GOOD_RETURN_NOT_OK(reply.status);
  return HeadValue(reply.head, "base");
}

Result<uint64_t> Client::Refresh() {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply, RoundTrip("refresh", nullptr));
  GOOD_RETURN_NOT_OK(reply.status);
  return HeadValue(reply.head, "base");
}

Status Client::Exec(const std::string& ops_text) {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply, RoundTrip("exec", &ops_text));
  GOOD_RETURN_NOT_OK(reply.status);
  txn_bodies_.push_back(ops_text);
  return Status::OK();
}

Status Client::Exec(const schema::Scheme& scheme,
                    const std::vector<method::Operation>& ops) {
  GOOD_ASSIGN_OR_RETURN(std::string text,
                        program::WriteOperations(scheme, ops));
  return Exec(text);
}

Result<size_t> Client::Count(const std::string& pattern_text) {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply, RoundTrip("count", &pattern_text));
  GOOD_RETURN_NOT_OK(reply.status);
  GOOD_ASSIGN_OR_RETURN(uint64_t count, HeadValue(reply.head, "count"));
  return static_cast<size_t>(count);
}

Result<std::vector<std::string>> Client::Match(
    const std::string& pattern_text) {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply, RoundTrip("match", &pattern_text));
  GOOD_RETURN_NOT_OK(reply.status);
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < reply.body.size()) {
    size_t eol = reply.body.find('\n', pos);
    if (eol == std::string::npos) eol = reply.body.size();
    lines.push_back(reply.body.substr(pos, eol - pos));
    pos = eol + 1;
  }
  return lines;
}

Result<std::string> Client::Dump() {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply, RoundTrip("dump", nullptr));
  GOOD_RETURN_NOT_OK(reply.status);
  return std::move(reply.body);
}

Result<Client::CommitAck> Client::Commit() {
  auto commit_once = [this]() -> Result<ServerReply> {
    return RoundTrip("commit", nullptr);
  };

  GOOD_ASSIGN_OR_RETURN(ServerReply reply, commit_once());
  common::BackoffPolicy policy;
  policy.max_retries = options_.max_commit_retries;
  policy.initial_delay = options_.retry_backoff;
  policy.max_delay = options_.max_retry_backoff;
  policy.seed = options_.retry_jitter_seed;
  common::Backoff backoff(policy);
  while (!reply.status.ok() && common::IsRetriable(reply.status) &&
         backoff.CanRetry()) {
    // The server discarded the transaction and re-pinned a fresh
    // snapshot; replay the buffered bodies against it and try again.
    std::chrono::microseconds delay = backoff.NextDelay();
    if (delay.count() > 0) {
      std::this_thread::sleep_for(delay);
      // Commits that landed during the sleep postdate that pin, and a
      // replay onto it would conflict with them again: re-pin first.
      GOOD_RETURN_NOT_OK(Refresh().status());
    }
    for (const std::string& ops_text : txn_bodies_) {
      GOOD_ASSIGN_OR_RETURN(ServerReply exec_reply,
                            RoundTrip("exec", &ops_text));
      if (!exec_reply.status.ok()) {
        // The replay itself failed (e.g. a concurrent commit removed
        // what the operations need); roll the partial replay back and
        // surface the failure — retrying the commit would be wrong.
        GOOD_ASSIGN_OR_RETURN(ServerReply rollback_reply,
                              RoundTrip("rollback", nullptr));
        (void)rollback_reply;
        return exec_reply.status;
      }
    }
    GOOD_ASSIGN_OR_RETURN(reply, commit_once());
  }
  GOOD_RETURN_NOT_OK(reply.status);

  CommitAck ack;
  ack.retries = backoff.retries();
  GOOD_ASSIGN_OR_RETURN(ack.version, HeadValue(reply.head, "committed"));
  GOOD_ASSIGN_OR_RETURN(uint64_t batch, HeadValue(reply.head, "batch"));
  ack.batch_size = static_cast<size_t>(batch);
  txn_bodies_.clear();
  return ack;
}

Status Client::Rollback() {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply, RoundTrip("rollback", nullptr));
  GOOD_RETURN_NOT_OK(reply.status);
  txn_bodies_.clear();
  return Status::OK();
}

Status Client::SetDeadline(std::chrono::milliseconds budget) {
  GOOD_ASSIGN_OR_RETURN(
      ServerReply reply,
      RoundTrip("deadline " + std::to_string(budget.count()), nullptr));
  return reply.status;
}

Status Client::ClearDeadline() {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply,
                        RoundTrip("deadline none", nullptr));
  return reply.status;
}

Result<std::string> Client::Stats() {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply, RoundTrip("stats", nullptr));
  GOOD_RETURN_NOT_OK(reply.status);
  return std::move(reply.head);
}

Status Client::Quit() {
  GOOD_ASSIGN_OR_RETURN(ServerReply reply, RoundTrip("quit", nullptr));
  return reply.status;
}

}  // namespace good::server
