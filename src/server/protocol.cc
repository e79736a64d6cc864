#include "server/protocol.h"

#include <charconv>
#include <chrono>
#include <utility>
#include <vector>

#include "program/op_serialize.h"
#include "program/serialize.h"

namespace good::server {
namespace {

/// First whitespace-separated token of a command line.
std::string_view FirstToken(std::string_view line) {
  size_t start = line.find_first_not_of(" \t");
  if (start == std::string_view::npos) return {};
  size_t end = line.find_first_of(" \t", start);
  if (end == std::string_view::npos) end = line.size();
  return line.substr(start, end - start);
}

/// Everything after the first token, trimmed.
std::string_view RestAfterToken(std::string_view line) {
  size_t start = line.find_first_not_of(" \t");
  if (start == std::string_view::npos) return {};
  size_t end = line.find_first_of(" \t", start);
  if (end == std::string_view::npos) return {};
  size_t rest = line.find_first_not_of(" \t", end);
  if (rest == std::string_view::npos) return {};
  return line.substr(rest);
}

void Ok(std::string_view head, std::string* out) {
  out->append("ok");
  if (!head.empty()) {
    out->push_back(' ');
    out->append(head);
  }
  out->push_back('\n');
}

void OkWithBody(std::string_view head, std::string_view body,
                std::string* out) {
  out->append("ok+ ");
  out->append(head);
  out->push_back('\n');
  out->append(DotStuff(body));
}

void Err(const Status& status, std::string* out) {
  // The status line must stay a single line; fold any embedded
  // newlines in the message.
  std::string message = status.message();
  std::replace(message.begin(), message.end(), '\n', ' ');
  out->append("err ");
  out->append(StatusCodeToString(status.code()));
  out->push_back(' ');
  out->append(message);
  out->push_back('\n');
}

/// True for commands whose request carries a dot-terminated body.
bool TakesBody(std::string_view command) {
  return command == "exec" || command == "count" || command == "match";
}

/// One line per matching: "p->n" pairs in pattern-node order.
std::string RenderMatchings(const std::vector<pattern::Matching>& matchings) {
  std::string out;
  for (const pattern::Matching& matching : matchings) {
    bool first = true;
    for (const auto& [pattern_node, instance_node] : matching.map()) {
      if (!first) out += ' ';
      first = false;
      out += std::to_string(pattern_node.id);
      out += "->";
      out += std::to_string(instance_node.id);
    }
    out += '\n';
  }
  return out;
}

/// The largest `deadline <ms>` budget accepted: one year. Larger counts
/// overflow the conversion to the clock's nanoseconds (or wrap negative
/// as signed milliseconds) and would arm a deadline that has already
/// expired.
constexpr uint64_t kMaxDeadlineMs = uint64_t{365} * 24 * 60 * 60 * 1000;

}  // namespace

std::string DotStuff(std::string_view body) {
  std::string out;
  out.reserve(body.size() + 8);
  size_t pos = 0;
  while (pos < body.size()) {
    size_t eol = body.find('\n', pos);
    std::string_view line = body.substr(
        pos, eol == std::string_view::npos ? body.size() - pos : eol - pos);
    if (!line.empty() && line.front() == '.') out.push_back('.');
    out.append(line);
    out.push_back('\n');
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  out.append(".\n");
  return out;
}

std::string EncodeRequest(std::string_view command_line,
                          const std::string* body) {
  std::string out(command_line);
  out.push_back('\n');
  if (body != nullptr) out.append(DotStuff(*body));
  return out;
}

Connection::Connection(Server* server) : server_(server) {
  auto session = server->TryStartSession();
  if (session.ok()) {
    session_ = std::move(*session);
  } else {
    admission_ = session.status();
  }
}

void Connection::QuotaViolation(const std::string& what, std::string* out) {
  server_->overload_counters().BumpQuota();
  Err(Status::ResourceExhausted(what), out);
  // The stream cannot be resynchronized past an over-quota line/body;
  // drop the buffered bytes and tell the transport to hang up.
  input_.clear();
  body_.clear();
  pending_command_.clear();
  in_body_ = false;
  closed_ = true;
}

void Connection::Feed(std::string_view bytes, std::string* out) {
  if (closed_) return;
  const ServerLimits& limits = server_->limits();
  input_.append(bytes);
  size_t start = 0;
  for (;;) {
    size_t eol = input_.find('\n', start);
    if (eol == std::string::npos) break;
    std::string_view line(input_.data() + start, eol - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.size() > limits.max_line_bytes) {
      QuotaViolation("protocol line of " + std::to_string(line.size()) +
                         " bytes exceeds the " +
                         std::to_string(limits.max_line_bytes) +
                         "-byte limit",
                     out);
      return;
    }
    HandleLine(line, out);
    if (closed_) {
      input_.clear();
      return;
    }
    start = eol + 1;
  }
  input_.erase(0, start);
  // An unterminated line may never terminate; cap the backlog too so a
  // newline-free stream cannot buffer unboundedly.
  if (input_.size() > limits.max_line_bytes) {
    QuotaViolation("unterminated protocol line exceeds the " +
                       std::to_string(limits.max_line_bytes) +
                       "-byte limit",
                   out);
  }
}

void Connection::HandleLine(std::string_view line, std::string* out) {
  if (closed_) return;
  if (in_body_) {
    if (line == ".") {
      in_body_ = false;
      std::string command = std::move(pending_command_);
      std::string body = std::move(body_);
      pending_command_.clear();
      body_.clear();
      Dispatch(command, body, out);
      return;
    }
    // Undo dot-stuffing: a body line starting with '.' arrives with
    // one extra leading dot.
    if (!line.empty() && line.front() == '.') line.remove_prefix(1);
    if (body_.size() + line.size() + 1 > server_->limits().max_body_bytes) {
      QuotaViolation("request body exceeds the " +
                         std::to_string(server_->limits().max_body_bytes) +
                         "-byte limit",
                     out);
      return;
    }
    body_.append(line);
    body_.push_back('\n');
    return;
  }
  if (FirstToken(line).empty()) return;  // blank lines between requests
  if (TakesBody(FirstToken(line))) {
    pending_command_.assign(line);
    in_body_ = true;
    return;
  }
  Dispatch(std::string(line), std::string(), out);
}

void Connection::Dispatch(const std::string& command_line,
                          const std::string& body, std::string* out) {
  std::string_view command = FirstToken(command_line);

  if (command == "quit") {
    closed_ = true;
    Ok("bye", out);
    return;
  }
  if (command == "stats") {
    OverloadStats overload = server_->overload_stats();
    PipelineStats pipeline = server_->pipeline_stats();
    // Partition health rides along so an operator's first `stats` call
    // shows whether recovery quarantined any snapshot partitions (those
    // classes answer kUnavailable until repaired; see good_dbtool).
    std::string quarantined;
    for (const std::string& cls :
         server_->database().quarantined_classes()) {
      quarantined += quarantined.empty() ? " quarantined " : ",";
      quarantined += cls;
    }
    Ok("stats shed " + std::to_string(overload.shed_connections) +
           " shed_sessions " + std::to_string(overload.shed_sessions) +
           " evicted " + std::to_string(overload.evicted_sessions) +
           " quota " + std::to_string(overload.quota_rejections) +
           " sessions " + std::to_string(server_->active_sessions()) +
           " committed " + std::to_string(pipeline.committed) +
           " conflicts " + std::to_string(pipeline.conflicts) +
           " batches " + std::to_string(pipeline.batches) + quarantined,
       out);
    return;
  }
  if (session_ == nullptr) {
    // Admission control refused this connection a session; every
    // stateful request sheds with the (retriable) reason. `stats` and
    // `quit` above still work so a load-shedding server stays
    // observable and connections close politely.
    Err(admission_, out);
    return;
  }

  if (command == "hello") {
    Ok(std::string(kProtocolVersion) + " base " +
           std::to_string(session_->base_version()),
       out);
    return;
  }
  if (command == "version") {
    Ok("version " + std::to_string(server_->current_version()->id), out);
    return;
  }
  if (command == "base") {
    Ok("base " + std::to_string(session_->base_version()), out);
    return;
  }
  if (command == "refresh") {
    Status status = session_->Refresh();
    if (!status.ok()) {
      Err(status, out);
      return;
    }
    Ok("base " + std::to_string(session_->base_version()), out);
    return;
  }
  if (command == "exec") {
    auto reader = program::OperationReader::Open(body);
    if (!reader.ok()) {
      Err(reader.status(), out);
      return;
    }
    // The body is all-or-nothing: a failure at any operation rolls the
    // session back to the pre-body state, so the client never has to
    // guess which prefix of a rejected body stayed buffered (its
    // commit-retry replay rebuilds exactly the accepted bodies).
    Session::Savepoint savepoint = session_->MakeSavepoint();
    size_t applied = 0;
    while (!reader->AtEnd()) {
      // Parse against the evolving view scheme: an operation may use
      // labels an earlier operation of the same body introduced.
      auto op = reader->Next(session_->view().scheme);
      if (!op.ok()) {
        session_->RollbackTo(&savepoint);
        Err(op.status(), out);
        return;
      }
      Status status = session_->Execute(*op);
      if (!status.ok()) {
        session_->RollbackTo(&savepoint);
        Err(status, out);
        return;
      }
      ++applied;
    }
    session_->ReleaseSavepoint(&savepoint);
    Ok("applied " + std::to_string(applied), out);
    return;
  }
  if (command == "count" || command == "match") {
    auto pattern = program::ParsePattern(session_->view().scheme, body);
    if (!pattern.ok()) {
      Err(pattern.status(), out);
      return;
    }
    if (command == "count") {
      auto count = session_->Count(*pattern);
      if (!count.ok()) {
        Err(count.status(), out);
        return;
      }
      Ok("count " + std::to_string(*count), out);
      return;
    }
    auto matchings = session_->Match(*pattern);
    if (!matchings.ok()) {
      Err(matchings.status(), out);
      return;
    }
    OkWithBody("matchings " + std::to_string(matchings->size()),
               RenderMatchings(*matchings), out);
    return;
  }
  if (command == "dump") {
    OkWithBody("database", program::WriteDatabase(session_->view()), out);
    return;
  }
  if (command == "commit") {
    CommitResult result = session_->Commit();
    if (!result.ok()) {
      Err(result.status, out);
      return;
    }
    Ok("committed " + std::to_string(result.version) + " batch " +
           std::to_string(result.batch_size),
       out);
    return;
  }
  if (command == "rollback") {
    session_->Rollback();
    Ok("rolledback", out);
    return;
  }
  if (command == "deadline") {
    std::string_view arg = RestAfterToken(command_line);
    if (arg == "none") {
      session_->exec_options().deadline = common::Deadline();
      Ok("deadline none", out);
      return;
    }
    uint64_t ms = 0;
    auto [ptr, ec] =
        std::from_chars(arg.data(), arg.data() + arg.size(), ms);
    if (ec != std::errc() || ptr != arg.data() + arg.size()) {
      Err(Status::InvalidArgument(
              "deadline takes a millisecond count or 'none'"),
          out);
      return;
    }
    if (ms > kMaxDeadlineMs) {
      Err(Status::InvalidArgument("deadline exceeds the maximum of " +
                                  std::to_string(kMaxDeadlineMs) + " ms"),
          out);
      return;
    }
    session_->exec_options().deadline =
        common::Deadline::After(std::chrono::milliseconds(ms));
    Ok("deadline " + std::to_string(ms), out);
    return;
  }
  Err(Status::InvalidArgument("unknown command '" + std::string(command) +
                              "'"),
      out);
}

}  // namespace good::server
