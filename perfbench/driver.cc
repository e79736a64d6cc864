// End-to-end benchmark driver for the GOOD server and rule engine.
//
// Usage:
//   perfbench_driver --workload <commit_heavy|query_heavy|rules_fixpoint>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --work <scratch dir> [--trace-file <path>]
//
// commit_heavy and query_heavy spawn the good_server binary that sits
// next to this driver on a directory pre-populated here, and drive it
// over loopback from kClients closed-loop client threads (one
// connection each, strict request-then-response). Each run issues a
// fixed number of requests derived from --seconds, so the WAL a
// restart replays has the same length on both sides of a comparison.
// rules_fixpoint calls the rule engine in-process.
//
// Every answer is checked: read replies against answers computed at
// set-up, acked writes against the directory reopened after SIGKILL,
// fixpoints against a naive-mode fixpoint. A mismatch exits non-zero.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same seed
// and mix again in-process, untraced and then with spans recorded
// around the calls into each module, and prints the per-layer metrics.
// The last stdout line is one JSON object; a human summary goes to
// stderr.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/retry.h"
#include "harness.h"
#include "hypermedia/hypermedia.h"
#include "method/method.h"
#include "pattern/matcher.h"
#include "program/op_serialize.h"
#include "rules/rules.h"
#include "server/client.h"
#include "server/session.h"
#include "server/socket.h"
#include "storage/database.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using good::Status;
using good::Sym;
using good::Value;
using good::graph::NodeId;

// Requests per second of --seconds: fixes each run's request count so
// that the reference machine spends about --seconds in the measured
// phase.
constexpr double kCommitTxnsPerSecond = 70;
constexpr double kQueryRequestsPerSecond = 4500;
constexpr double kFixpointsPerSecond = 25;
/// Rounds per run; each server round has its own set-up. See Best().
constexpr size_t kRounds = 5;
constexpr size_t kRulesSetupRepeats = 101;
/// Retries a conflicting transaction gets before it counts as failed:
/// far more than first-committer-wins needs with four writers, so that
/// no run exhausts them.
constexpr size_t kMaxCommitRetries = 32;

/// The live good_server, killed by Die() so no exit path leaves it
/// running.
pid_t live_server = -1;

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  if (live_server > 0) {
    ::kill(live_server, SIGKILL);
    ::waitpid(live_server, nullptr, 0);
  }
  std::exit(2);
}

void Check(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Micros(int64_t ns) { return static_cast<double>(ns) * 1e-3; }
double Millis(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

std::string ToJson(const Outcome& o) {
  std::string out = "{\"correct\": ";
  out += o.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(o.attempted);
  out += ", \"failed\": " + std::to_string(o.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + o.metrics[i].name + "\": {\"value\": " +
           JsonNumber(o.metrics[i].value) + ", \"unit\": \"" +
           o.metrics[i].unit + "\"}";
  }
  return out + "}}";
}

/// A /proc/<pid>/status field in KiB ("VmHWM", "VmRSS"); 0 if absent.
double ProcStatusKiB(pid_t pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr);
    }
  }
  return 0;
}

double MedianOf(std::vector<double> v) { return Percentile(std::move(v), 50); }

/// Share of all CPU time the hypervisor gave to other guests since
/// `since` (the "steal" column of /proc/stat), for the stderr summary:
/// it explains a slow round. Stores the current counters in `since`.
double StealShare(std::pair<double, double>* since) {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double total = 0, steal = 0, v = 0;
  in >> cpu;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  const double share = Ratio(steal - since->second, total - since->first);
  *since = {total, steal};
  return share;
}

// ---------------------------------------------------------------------------
// Database directories and the server process
// ---------------------------------------------------------------------------

good::storage::Options DbOptions() {
  good::storage::Options options;
  options.sync_every_append = false;  // the commit pipeline batches fsyncs
  return options;
}

void CopyDir(const std::string& from, const std::string& to) {
  fs::remove_all(to);
  fs::copy(from, to, fs::copy_options::recursive);
}

uint64_t FileSize(const std::string& path) {
  std::error_code ec;
  auto size = fs::file_size(path, ec);
  return ec ? 0 : size;
}

/// Writes `instance` as a fresh database in `dir` (Open + Checkpoint).
void WriteDatabase(const std::string& dir, const good::schema::Scheme& scheme,
                   good::graph::Instance instance) {
  fs::remove_all(dir);
  auto db = good::storage::Database::Open(
      dir, good::program::Database{scheme, std::move(instance)}, DbOptions());
  Check(db.status(), "open " + dir);
  Check(db->Checkpoint(), "checkpoint " + dir);
  Check(db->Close(), "close " + dir);
}

/// The spawned good_server. Killed with SIGKILL and reaped on
/// destruction, so no exit path leaves it running.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::string& dir) {
    int fds[2];
    if (::pipe(fds) != 0) Die("pipe failed");
    pid_ = ::fork();
    if (pid_ < 0) Die("fork failed");
    if (pid_ == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      int devnull = ::open("/dev/null", O_RDONLY);
      if (devnull >= 0) ::dup2(devnull, STDIN_FILENO);
      ::execl(binary.c_str(), binary.c_str(), dir.c_str(), "--port", "0",
              static_cast<char*>(nullptr));
      std::_Exit(127);
    }
    live_server = pid_;
    ::close(fds[1]);
    out_fd_ = fds[0];
    // "serving <dir> on 127.0.0.1:<port>" then "press Ctrl-C to stop".
    std::string text;
    char buf[512];
    while (text.find("press Ctrl-C") == std::string::npos) {
      ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) Die("good_server exited before listening: " + text);
      text.append(buf, static_cast<size_t>(n));
    }
    const size_t colon = text.find("127.0.0.1:");
    if (colon == std::string::npos) Die("no port in: " + text);
    port_ = std::atoi(text.c_str() + colon + 10);
  }

  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  void Kill() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
      pid_ = -1;
      live_server = -1;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  int port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

// ---------------------------------------------------------------------------
// Answers
// ---------------------------------------------------------------------------

/// A read's expected reply: the count and the rendered matchings
/// ("p->n ..." per matching, pairs sorted), sorted.
struct Answer {
  size_t count = 0;
  std::vector<std::string> lines;
};

/// One line per matching, as the server renders them (sort the result
/// before comparing: matching order is not part of the answer).
std::vector<std::string> Render(
    const std::vector<good::pattern::Matching>& matchings) {
  std::vector<std::string> lines;
  lines.reserve(matchings.size());
  for (const auto& m : matchings) {
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    for (const auto& [p, n] : m.map()) pairs.emplace_back(p.id, n.id);
    std::sort(pairs.begin(), pairs.end());
    std::string line;
    for (const auto& [p, n] : pairs) {
      if (!line.empty()) line += ' ';
      line += std::to_string(p) + "->" + std::to_string(n);
    }
    lines.push_back(std::move(line));
  }
  return lines;
}

using AnswerTable = std::map<std::string, Answer>;

/// Answers every read of `w` against `db` (the start state; writes never
/// change them).
AnswerTable ComputeAnswers(const ServerWorkload& w,
                           const good::program::Database& db) {
  AnswerTable table;
  for (const auto& stream : w.streams) {
    for (const Request& r : stream) {
      if (r.kind != Kind::kCount && r.kind != Kind::kMatch) continue;
      if (table.count(r.body)) continue;
      auto pattern = good::program::ParsePattern(db.scheme, r.body);
      Check(pattern.status(), "oracle parse");
      good::pattern::Matcher matcher(*pattern, db.instance);
      auto all = matcher.FindAllChecked();
      Check(all.status(), "oracle match");
      std::vector<std::string> lines = Render(*all);
      std::sort(lines.begin(), lines.end());
      table[r.body] = Answer{all->size(), std::move(lines)};
    }
  }
  return table;
}

// ---------------------------------------------------------------------------
// Closed-loop runs (socket and in-process share the driver loop)
// ---------------------------------------------------------------------------

struct CommitRecord {
  uint64_t version = 0;
  size_t batch_size = 0;
  const Request* request = nullptr;
};

/// What one client thread observed.
struct ClientLog {
  std::map<Kind, std::vector<double>> latency_ms;  // measured phase only
  std::map<Kind, std::vector<int64_t>> done_ns;     // completion times
  std::map<std::string, uint64_t> failures;        // "kind code" -> count
  std::string first_failure;
  std::map<Kind, uint64_t> attempted;
  std::vector<CommitRecord> commits;               // warm-up included
  std::vector<const Request*> failed_txns;
  uint64_t retries = 0;
  uint64_t wrong = 0;
  std::string first_wrong;
  int64_t end_ns = 0;
};

/// One request against one server endpoint: returns OK or the failure.
/// `acked` receives the commit record of a write.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual Status Txn(const Request& r, CommitRecord* acked,
                     uint64_t* retries) = 0;
  virtual Status Count(const Request& r, size_t* count) = 0;
  virtual Status Match(const Request& r, std::vector<std::string>* lines) = 0;
  virtual Status Refresh() = 0;
};

class SocketEndpoint final : public Endpoint {
 public:
  SocketEndpoint(int port, uint64_t jitter_seed) {
    auto t = good::server::SocketTransport::ConnectTcp("127.0.0.1", port);
    Check(t.status(), "connect");
    transport_ = std::move(*t);
    good::server::ClientOptions options;
    options.max_commit_retries = kMaxCommitRetries;
    // A rejected commit re-pins the session's snapshot at once, and the
    // client replays against it after its backoff sleep: every commit
    // landing during the sleep can conflict with the retry again. With
    // the default schedule (0.5 ms doubling to 64 ms) about 1 in 20K
    // query_heavy transactions used up its retries; retrying at once
    // keeps the replay's snapshot fresh.
    options.retry_backoff = std::chrono::microseconds{0};
    options.retry_jitter_seed = jitter_seed;
    client_ = std::make_unique<good::server::Client>(transport_.get(), options);
    Check(client_->Hello(), "hello");
  }

  Status Txn(const Request& r, CommitRecord* acked,
             uint64_t* retries) override {
    Status st = client_->Exec(r.body);
    if (!st.ok()) {
      (void)client_->Rollback();
      return st;
    }
    auto ack = client_->Commit();
    if (!ack.ok()) {
      // A failed Commit keeps the client's replay buffer; drop it so the
      // next transaction does not replay this one.
      (void)client_->Rollback();
      return ack.status();
    }
    acked->version = ack->version;
    acked->batch_size = ack->batch_size;
    *retries += ack->retries;
    return Status::OK();
  }
  Status Count(const Request& r, size_t* count) override {
    auto n = client_->Count(r.body);
    if (!n.ok()) return n.status();
    *count = *n;
    return Status::OK();
  }
  Status Match(const Request& r, std::vector<std::string>* lines) override {
    auto m = client_->Match(r.body);
    if (!m.ok()) return m.status();
    *lines = std::move(*m);
    return Status::OK();
  }
  Status Refresh() override { return client_->Refresh().status(); }

  good::server::Client& client() { return *client_; }

 private:
  std::unique_ptr<good::server::SocketTransport> transport_;
  std::unique_ptr<good::server::Client> client_;
};

/// Drives a Session directly, with spans around each module call when
/// `log` is set.
class SessionEndpoint final : public Endpoint {
 public:
  SessionEndpoint(good::server::Server* server, SpanLog* log)
      : session_(server->StartSession()), log_(log) {}

  Status Txn(const Request& r, CommitRecord* acked,
             uint64_t* retries) override {
    for (size_t attempt = 0;; ++attempt) {
      auto ops = [&] {
        ScopedSpan span(log_, "program.parse_ops");
        return good::program::ParseOperations(session_->view().scheme, r.body);
      }();
      if (!ops.ok()) return ops.status();
      const Status st = [&] {
        ScopedSpan span(log_, "server.execute");
        return session_->ExecuteAll(*ops);
      }();
      if (!st.ok()) {
        session_->Rollback();
        return st;
      }
      const good::server::CommitResult result = [&] {
        ScopedSpan span(log_, "server.commit");
        return session_->Commit();
      }();
      if (result.ok()) {
        acked->version = result.version;
        acked->batch_size = result.batch_size;
        return Status::OK();
      }
      if (!good::common::IsRetriable(result.status) ||
          attempt == kMaxCommitRetries) {
        return result.status;
      }
      ++*retries;
    }
  }
  Status Count(const Request& r, size_t* count) override {
    auto pattern = Parse(r);
    if (!pattern.ok()) return pattern.status();
    ScopedSpan span(log_, "server.count");
    auto n = session_->Count(*pattern);
    if (!n.ok()) return n.status();
    *count = *n;
    return Status::OK();
  }
  Status Match(const Request& r, std::vector<std::string>* lines) override {
    auto pattern = Parse(r);
    if (!pattern.ok()) return pattern.status();
    auto m = [&] {
      ScopedSpan span(log_, "server.match");
      return session_->Match(*pattern);
    }();
    if (!m.ok()) return m.status();
    *lines = Render(*m);
    return Status::OK();
  }
  Status Refresh() override {
    ScopedSpan span(log_, "server.refresh");
    return session_->Refresh();
  }

 private:
  good::Result<good::pattern::Pattern> Parse(const Request& r) {
    ScopedSpan span(log_, "program.parse_pattern");
    return good::program::ParsePattern(session_->view().scheme, r.body);
  }

  std::unique_ptr<good::server::Session> session_;
  SpanLog* log_;
};

/// Stamps the start of the measured phase when the last client
/// finishes its warm-up.
struct StartClock {
  int64_t* start_ns;
  void operator()() noexcept { *start_ns = NowNs(); }
};
using StartBarrier = std::barrier<StartClock>;

/// Runs one client's stream: warm-up, then the barrier, then the
/// measured requests. Every reply is checked against `answers`.
void RunClient(Endpoint* endpoint, const std::vector<Request>& stream,
               size_t warmup, const AnswerTable& answers,
               StartBarrier* start, SpanLog* log, uint64_t request_base,
               ClientLog* out) {
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == warmup) start->arrive_and_wait();
    const Request& r = stream[i];
    if (log != nullptr) log->set_request(request_base + i);
    ++out->attempted[r.kind];
    const int64_t t0 = NowNs();
    Status st;
    size_t count = 0;
    std::vector<std::string> lines;
    {
      ScopedSpan span(log, "request");
      switch (r.kind) {
        case Kind::kTxn: {
          CommitRecord rec;
          rec.request = &r;
          st = endpoint->Txn(r, &rec, &out->retries);
          if (st.ok()) {
            out->commits.push_back(rec);
          } else {
            out->failed_txns.push_back(&r);
          }
          break;
        }
        case Kind::kCount:
          st = endpoint->Count(r, &count);
          break;
        case Kind::kMatch:
          st = endpoint->Match(r, &lines);
          break;
        case Kind::kRefresh:
          st = endpoint->Refresh();
          break;
      }
    }
    const int64_t t1 = NowNs();
    bool wrong = false;
    if (st.ok() && r.kind == Kind::kCount) {
      wrong = count != answers.at(r.body).count;
    } else if (st.ok() && r.kind == Kind::kMatch) {
      std::sort(lines.begin(), lines.end());
      wrong = lines != answers.at(r.body).lines;
    }
    if (!st.ok()) {
      if (out->first_failure.empty()) {
        out->first_failure = std::string(KindName(r.kind)) + ": " +
                             st.ToString();
      }
      ++out->failures[std::string(KindName(r.kind)) + " " +
                      std::string(good::StatusCodeToString(st.code()))];
    } else if (wrong) {
      if (out->wrong++ == 0) out->first_wrong = r.body;
    } else if (i >= warmup) {
      out->latency_ms[r.kind].push_back(Millis(t1 - t0));
      out->done_ns[r.kind].push_back(t1);
    }
  }
  if (warmup >= stream.size()) start->arrive_and_wait();
  out->end_ns = NowNs();
}

struct RunResult {
  std::vector<ClientLog> clients;
  int64_t start_ns = 0;
  int64_t wall_ns = 0;
  /// Completions per second of `kinds` while every client was still
  /// busy (up to the first client's last request): the stragglers'
  /// drain after that runs below the offered concurrency.
  double Throughput(std::initializer_list<Kind> kinds) const {
    int64_t first_end = std::numeric_limits<int64_t>::max();
    for (const ClientLog& c : clients) first_end = std::min(first_end, c.end_ns);
    size_t done = 0;
    for (const ClientLog& c : clients) {
      for (Kind k : kinds) {
        auto it = c.done_ns.find(k);
        if (it == c.done_ns.end()) continue;
        for (int64_t t : it->second) done += t <= first_end;
      }
    }
    return Ratio(static_cast<double>(done), Seconds(first_end - start_ns));
  }
  std::vector<double> Latencies(std::initializer_list<Kind> kinds) const {
    std::vector<double> all;
    for (const ClientLog& c : clients) {
      for (Kind k : kinds) {
        auto it = c.latency_ms.find(k);
        if (it != c.latency_ms.end()) {
          all.insert(all.end(), it->second.begin(), it->second.end());
        }
      }
    }
    return all;
  }
  uint64_t Attempted() const {
    uint64_t n = 0;
    for (const auto& c : clients) {
      for (const auto& [k, v] : c.attempted) n += v;
    }
    return n;
  }
  uint64_t Failed() const {
    uint64_t n = 0;
    for (const auto& c : clients) {
      for (const auto& [k, v] : c.failures) n += v;
    }
    return n;
  }
  uint64_t Wrong() const {
    uint64_t n = 0;
    for (const auto& c : clients) n += c.wrong;
    return n;
  }
  std::vector<CommitRecord> Commits() const {
    std::vector<CommitRecord> all;
    for (const auto& c : clients) {
      all.insert(all.end(), c.commits.begin(), c.commits.end());
    }
    std::sort(all.begin(), all.end(),
              [](const CommitRecord& a, const CommitRecord& b) {
                return a.version < b.version;
              });
    return all;
  }
};

/// Runs every stream of `w` on its own thread against its endpoint.
RunResult RunClosedLoop(const ServerWorkload& w,
                        const std::vector<Endpoint*>& endpoints,
                        const AnswerTable& answers,
                        std::vector<SpanLog>* logs) {
  RunResult result;
  result.clients.resize(w.streams.size());
  int64_t start_ns = 0;
  StartBarrier start(static_cast<std::ptrdiff_t>(w.streams.size()),
                     StartClock{&start_ns});
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w.streams.size(); ++c) {
    threads.emplace_back([&, c] {
      RunClient(endpoints[c], w.streams[c], w.warmup, answers, &start,
                logs ? &(*logs)[c] : nullptr, (c + 1) << 32,
                &result.clients[c]);
    });
  }
  for (auto& t : threads) t.join();
  int64_t end_ns = 0;
  for (const auto& c : result.clients) end_ns = std::max(end_ns, c.end_ns);
  result.start_ns = start_ns;
  result.wall_ns = end_ns - start_ns;
  return result;
}

void ReportFailures(const RunResult& run, const char* label) {
  for (const auto& c : run.clients) {
    if (!c.first_failure.empty()) {
      std::fprintf(stderr, "  %s first failure: %s\n", label,
                   c.first_failure.c_str());
    }
    for (const auto& [what, n] : c.failures) {
      std::fprintf(stderr, "  %s failure: %s x%llu\n", label, what.c_str(),
                   static_cast<unsigned long long>(n));
    }
  }
}

/// Parses "stats shed <n> shed_sessions <n> ..." into a map.
std::map<std::string, uint64_t> ParseStats(const std::string& head) {
  std::map<std::string, uint64_t> out;
  std::istringstream in(head);
  std::string key;
  in >> key;  // "stats"
  std::string value;
  while (in >> key >> value) out[key] = std::strtoull(value.c_str(), nullptr, 10);
  return out;
}

// ---------------------------------------------------------------------------
// Durability check after SIGKILL
// ---------------------------------------------------------------------------

/// Every acked write is in the reopened database and no failed insert
/// is. Returns the first violation, or "" when all hold.
std::string CheckRecovered(const ServerWorkload& w,
                           const good::program::Database& db,
                           const std::vector<CommitRecord>& commits,
                           const std::vector<const Request*>& failed) {
  const auto& g = db.instance;
  const good::Symbol string = Sym("String");
  const good::Symbol name = Sym("name");
  const good::Symbol created = Sym("created");
  const good::Symbol links_to = Sym("links-to");
  const good::Symbol modified = Sym("modified");
  auto doc_named = [&](const std::string& n) -> std::optional<NodeId> {
    auto s = g.FindPrintable(string, Value(n));
    if (!s) return std::nullopt;
    const auto& sources = g.InSources(*s, name);
    if (sources.size() != 1) return std::nullopt;
    return sources[0];
  };
  auto date_of = [&](NodeId node, good::Symbol label) -> int64_t {
    auto d = g.FunctionalTarget(node, label);
    if (!d || !g.HasPrintValue(*d)) return -1;
    return g.PrintValueOf(*d)->AsDate().ToDayNumber();
  };
  if (w.name == "commit_heavy") {
    for (const CommitRecord& c : commits) {
      const Request& r = *c.request;
      auto doc = doc_named(r.doc);
      auto target = doc_named(r.target);
      if (!doc || !target) return "acked insert " + r.doc + " missing";
      if (!g.HasEdge(*doc, links_to, *target)) {
        return "acked insert " + r.doc + " lost its link";
      }
      if (date_of(*doc, created) != r.day) {
        return "acked insert " + r.doc + " has the wrong date";
      }
    }
    for (const Request* r : failed) {
      if (doc_named(r->doc)) return "unacked insert " + r->doc + " present";
    }
    return "";
  }
  // query_heavy: each written doc carries the date of its last acked
  // write in commit order.
  std::map<std::string, int64_t> last;
  for (const CommitRecord& c : commits) last[c.request->doc] = c.request->day;
  for (const auto& [doc_name, day] : last) {
    auto doc = doc_named(doc_name);
    if (!doc) return "document " + doc_name + " missing";
    if (date_of(*doc, modified) != day) {
      return "document " + doc_name + " lost its last acked modified date";
    }
  }
  return "";
}

// ---------------------------------------------------------------------------
// Server workloads
// ---------------------------------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work;
  std::string trace_file;
  std::string server_binary;
};

/// Layer probes of the traced run (see PrintLayerReport for the names).
struct LayerProbes {
  double copy_us = 0;
  double copy_bytes_per_edge = 0;
  double ops_execute_us = 0;
  double ops_matchings = 0;
  double count_us = 0;
  double findall_us = 0;
  double findall_over_count = 0;
  double plan_us = 0;
  double cand_per_matching = 0;
  double apply_txn_us = 0;
  double sync_us = 0;
  double load_s = 0;
  double replay_us_per_op = 0;
};

/// Self and total time (us) of every span, by span name.
struct SpanTotals {
  std::map<std::string, std::vector<double>> self_us;
  std::map<std::string, std::vector<double>> total_us;
};

SpanTotals Totals(const std::vector<SpanLog>& logs) {
  SpanTotals t;
  for (const SpanLog& log : logs) {
    const std::vector<int64_t> self = SelfTimes(log.spans());
    for (size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      t.self_us[s.name].push_back(Micros(self[i]));
      t.total_us[s.name].push_back(Micros(s.end_ns - s.start_ns));
    }
  }
  return t;
}

void WriteTrace(const std::string& path, const std::vector<SpanLog>& logs) {
  if (path.empty()) return;
  std::error_code ec;
  fs::create_directories(fs::path(path).parent_path(), ec);
  std::ofstream out(path);
  out << "[\n";
  bool first = true;
  for (size_t t = 0; t < logs.size(); ++t) {
    const auto& spans = logs[t].spans();
    const std::vector<int64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << (first ? "" : ",\n") << "{\"thread\": " << t << ", \"id\": " << i
          << ", \"name\": \"" << s.name << "\", \"request\": " << s.request
          << ", \"parent\": " << s.parent << ", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << ", \"self_ns\": " << self[i]
          << "}";
      first = false;
    }
  }
  out << "\n]\n";
}

double Mean(const std::map<std::string, std::vector<double>>& m,
            const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : perfbench::Mean(it->second);
}

/// In-process run of `w` on a fresh copy of the start directory.
struct InProcessRun {
  RunResult run;
  good::server::PipelineStats pipeline;
  good::pattern::PlanCacheInfo plan_delta;
  good::server::VersionRef final_version;
};

InProcessRun RunInProcess(const ServerWorkload& w, const Config& cfg,
                          const std::string& start_dir,
                          const AnswerTable& answers,
                          std::vector<SpanLog>* logs) {
  const std::string dir = cfg.work + "/inproc";
  CopyDir(start_dir, dir);
  auto db = good::storage::Database::Open(dir, DbOptions());
  Check(db.status(), "open in-process copy");
  auto server = good::server::Server::Open(std::move(*db));
  Check(server.status(), "server open");
  std::vector<std::unique_ptr<SessionEndpoint>> sessions;
  std::vector<Endpoint*> endpoints;
  for (size_t c = 0; c < w.streams.size(); ++c) {
    sessions.push_back(std::make_unique<SessionEndpoint>(
        server->get(), logs ? &(*logs)[c] : nullptr));
    endpoints.push_back(sessions.back().get());
  }
  InProcessRun out;
  const auto cache_before = good::pattern::GlobalPlanCacheInfo();
  out.run = RunClosedLoop(w, endpoints, answers, logs);
  const auto cache_after = good::pattern::GlobalPlanCacheInfo();
  out.plan_delta.hits = cache_after.hits - cache_before.hits;
  out.plan_delta.misses = cache_after.misses - cache_before.misses;
  out.pipeline = (*server)->pipeline_stats();
  out.final_version = (*server)->current_version();
  sessions.clear();
  Check((*server)->Close(), "server close");
  return out;
}

/// Median wall time of `fn` over `reps` calls, in ns.
template <typename Fn>
int64_t MedianNs(size_t reps, Fn&& fn) {
  std::vector<double> v;
  for (size_t i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    fn();
    v.push_back(static_cast<double>(NowNs() - t0));
  }
  return static_cast<int64_t>(MedianOf(v));
}

LayerProbes ProbeLayers(const ServerWorkload& w, const Config& cfg,
                        const std::string& start_dir,
                        const std::vector<CommitRecord>& commits,
                        const good::program::Database& final_db) {
  LayerProbes p;
  // graph: whole-database copies of the final state, and the RSS one
  // held copy costs per edge.
  {
    std::vector<double> us;
    for (int i = 0; i < 16; ++i) {
      const int64_t t0 = NowNs();
      good::program::Database copy(final_db);
      us.push_back(Micros(NowNs() - t0));
    }
    p.copy_us = MedianOf(us);
    const double before = ProcStatusKiB(::getpid(), "VmRSS");
    std::vector<good::program::Database> held(4, final_db);
    const double after = ProcStatusKiB(::getpid(), "VmRSS");
    p.copy_bytes_per_edge =
        Ratio((after - before) * 1024.0,
              4.0 * static_cast<double>(final_db.instance.num_edges()));
  }
  // method/ops: the run's writes, in commit order, executed on a private
  // copy of the start state (the copy is not timed).
  {
    const std::string src = cfg.work + "/probe";
    CopyDir(start_dir, src);
    auto db = good::storage::Database::Open(src, DbOptions());
    Check(db.status(), "open probe copy");
    good::program::Database priv = db->database();
    good::method::Executor executor(nullptr);
    std::vector<double> us;
    std::vector<double> matchings;
    for (const CommitRecord& c : commits) {
      if (us.size() >= 512) break;
      auto ops =
          good::program::ParseOperations(priv.scheme, c.request->body);
      Check(ops.status(), "probe parse");
      for (const auto& op : *ops) {
        good::ops::ApplyStats stats;
        const int64_t t0 = NowNs();
        Check(executor.Execute(op, &priv.scheme, &priv.instance, &stats),
              "probe execute");
        us.push_back(Micros(NowNs() - t0));
        matchings.push_back(static_cast<double>(stats.matchings));
      }
    }
    p.ops_execute_us = perfbench::Mean(us);
    p.ops_matchings = perfbench::Mean(matchings);
  }
  // pattern: the stream's distinct reads on the final state.
  {
    std::set<std::string> seen;
    std::vector<double> count_us, findall_us, plan_us, cands, found;
    for (const auto& stream : w.streams) {
      for (const Request& r : stream) {
        if (r.kind != Kind::kCount && r.kind != Kind::kMatch) continue;
        if (seen.size() >= 256 || !seen.insert(r.body).second) continue;
        auto pattern = good::program::ParsePattern(final_db.scheme, r.body);
        Check(pattern.status(), "probe pattern");
        good::pattern::MatchStats stats;
        good::pattern::MatchOptions warm;
        warm.stats = &stats;
        good::pattern::Matcher matcher(*pattern, final_db.instance, warm);
        Check(matcher.CountChecked().status(), "probe warm-up");
        good::pattern::MatchOptions cold;
        cold.use_plan_cache = false;
        good::pattern::Matcher cold_matcher(*pattern, final_db.instance, cold);
        good::pattern::Matcher fast(*pattern, final_db.instance);
        const int64_t c_ns = MedianNs(5, [&] { (void)fast.CountChecked(); });
        const int64_t f_ns =
            MedianNs(5, [&] { (void)fast.FindAllChecked(); });
        const int64_t cold_ns =
            MedianNs(5, [&] { (void)cold_matcher.CountChecked(); });
        count_us.push_back(Micros(c_ns));
        findall_us.push_back(Micros(f_ns));
        plan_us.push_back(Micros(cold_ns - c_ns));
        cands.push_back(static_cast<double>(stats.candidates_scanned));
        found.push_back(static_cast<double>(stats.matchings));
      }
    }
    p.count_us = perfbench::Mean(count_us);
    p.findall_us = perfbench::Mean(findall_us);
    p.findall_over_count = Ratio(p.findall_us, p.count_us);
    p.plan_us = perfbench::Mean(plan_us);
    double total_cands = 0, total_found = 0;
    for (double v : cands) total_cands += v;
    for (double v : found) total_found += v;
    p.cand_per_matching = Ratio(total_cands, total_found);
  }
  // storage: replay the run's commits in version order on a copy of the
  // start directory, one fsync per recorded batch; then time reopening
  // with the log and after a checkpoint.
  {
    const std::string dir = cfg.work + "/replay";
    CopyDir(start_dir, dir);
    auto db = good::storage::Database::Open(dir, DbOptions());
    Check(db.status(), "open replay copy");
    std::vector<double> apply_us, sync_us;
    size_t left_in_batch = 0;
    for (const CommitRecord& c : commits) {
      if (left_in_batch == 0) left_in_batch = std::max<size_t>(c.batch_size, 1);
      auto ops = good::program::ParseOperations(db->scheme(), c.request->body);
      Check(ops.status(), "replay parse");
      const int64_t t0 = NowNs();
      Check(db->ApplyTransaction(*ops), "replay apply");
      apply_us.push_back(Micros(NowNs() - t0));
      if (--left_in_batch == 0) {
        const int64_t t1 = NowNs();
        Check(db->SyncWal(), "replay sync");
        sync_us.push_back(Micros(NowNs() - t1));
      }
    }
    if (left_in_batch != 0) Check(db->SyncWal(), "replay sync");
    Check(db->Close(), "replay close");
    p.apply_txn_us = perfbench::Mean(apply_us);
    p.sync_us = perfbench::Mean(sync_us);
    size_t replayed = 0;
    const int64_t with_log = MedianNs(3, [&] {
      auto reopened = good::storage::Database::Open(dir, DbOptions());
      Check(reopened.status(), "reopen with log");
      replayed = reopened->recovery().ops_replayed;
    });
    {
      auto reopened = good::storage::Database::Open(dir, DbOptions());
      Check(reopened.status(), "reopen for checkpoint");
      Check(reopened->Checkpoint(), "checkpoint replay copy");
      Check(reopened->Close(), "close replay copy");
    }
    const int64_t load = MedianNs(3, [&] {
      auto reopened = good::storage::Database::Open(dir, DbOptions());
      Check(reopened.status(), "reopen after checkpoint");
    });
    p.load_s = Seconds(load);
    p.replay_us_per_op =
        Ratio(Micros(with_log - load), static_cast<double>(replayed));
  }
  return p;
}

/// One socket round: set-up, the closed-loop run, SIGKILL, reopen.
struct Round {
  double setup_s = 0;
  double wall_s = 0;
  double txn_per_s = 0, reads_per_s = 0;
  double steal = 0;  // share of CPU time stolen by the host
  LatencySummary txn, reads;
  double restart_s = 0;
  double wal_bytes_per_txn = 0;
  double peak_rss_mb = 0;
  uint64_t attempted = 0, failed = 0, txns = 0, retries = 0;
  std::map<std::string, double> deltas;  // `stats` counters
  bool correct = true;
};

Round RunSocketRound(const Config& cfg, const good::schema::Scheme& scheme,
                     const ServerWorkload& w, const std::string& start_dir,
                     AnswerTable* answers) {
  const std::string dir = cfg.work + "/db";
  Round round;
  // Set-up: generate, write (Open + Checkpoint), spawn good_server and
  // wait for the first hello.
  const int64_t t0 = NowNs();
  auto instance = good::gen::ScaledHyperMedia(scheme, w.instance);
  Check(instance.status(), "generate");
  WriteDatabase(dir, scheme, std::move(*instance));
  const int64_t t1 = NowNs();
  if (answers->empty()) {
    // First round: keep the start state, and answer every read from it
    // as written to disk (node ids as the server restores them).
    CopyDir(dir, start_dir);
    const std::string oracle_dir = cfg.work + "/oracle";
    CopyDir(start_dir, oracle_dir);
    auto db = good::storage::Database::Open(oracle_dir, DbOptions());
    Check(db.status(), "open oracle copy");
    *answers = ComputeAnswers(w, db->database());
  }
  const int64_t t2 = NowNs();
  ServerProcess server(cfg.server_binary, dir);
  std::vector<std::unique_ptr<SocketEndpoint>> clients;
  clients.push_back(
      std::make_unique<SocketEndpoint>(server.port(), cfg.seed + 1));
  round.setup_s = Seconds((t1 - t0) + (NowNs() - t2));

  std::vector<Endpoint*> endpoints{clients[0].get()};
  for (size_t c = 1; c < w.streams.size(); ++c) {
    clients.push_back(
        std::make_unique<SocketEndpoint>(server.port(), cfg.seed + 1 + c));
    endpoints.push_back(clients.back().get());
  }
  auto stats_head = clients[0]->client().Stats();
  Check(stats_head.status(), "stats");
  const auto stats_before = ParseStats(*stats_head);
  const uint64_t wal_before = FileSize(dir + "/wal.log");

  std::pair<double, double> cpu;
  StealShare(&cpu);
  const RunResult run = RunClosedLoop(w, endpoints, *answers, nullptr);
  round.steal = StealShare(&cpu);

  stats_head = clients[0]->client().Stats();
  Check(stats_head.status(), "stats");
  const auto stats_after = ParseStats(*stats_head);
  round.peak_rss_mb = ProcStatusKiB(server.pid(), "VmHWM") / 1024.0;
  const uint64_t wal_after = FileSize(dir + "/wal.log");
  clients.clear();
  server.Kill();

  const int64_t r0 = NowNs();
  auto recovered = good::storage::Database::Open(dir, DbOptions());
  round.restart_s = Seconds(NowNs() - r0);
  Check(recovered.status(), "reopen after SIGKILL");

  round.attempted = run.Attempted();
  round.failed = run.Failed();
  const std::vector<CommitRecord> commits = run.Commits();
  std::vector<const Request*> failed_txns;
  for (const auto& c : run.clients) {
    failed_txns.insert(failed_txns.end(), c.failed_txns.begin(),
                       c.failed_txns.end());
    round.retries += c.retries;
    auto it = c.attempted.find(Kind::kTxn);
    if (it != c.attempted.end()) round.txns += it->second;
  }
  for (const auto& c : run.clients) {
    if (c.wrong) {
      std::fprintf(stderr, "WRONG read answer for:\n%s\n",
                   c.first_wrong.c_str());
      round.correct = false;
      break;
    }
  }
  const std::string durability =
      CheckRecovered(w, recovered->database(), commits, failed_txns);
  if (!durability.empty()) {
    std::fprintf(stderr, "DURABILITY violation: %s\n", durability.c_str());
    round.correct = false;
  }
  for (const auto& [key, after] : stats_after) {
    const auto it = stats_before.find(key);
    round.deltas[key] =
        static_cast<double>(after - (it == stats_before.end() ? 0 : it->second));
  }
  if (stats_after.count("committed") == 0 ||
      stats_after.at("committed") != commits.size()) {
    std::fprintf(stderr, "server committed %.0f but clients acked %zu\n",
                 round.deltas["committed"], commits.size());
    round.correct = false;
  }

  round.wall_s = Seconds(run.wall_ns);
  round.txn_per_s = run.Throughput({Kind::kTxn});
  round.reads_per_s = run.Throughput({Kind::kCount, Kind::kMatch});
  round.txn = Summarize(run.Latencies({Kind::kTxn}));
  round.reads = Summarize(run.Latencies({Kind::kCount, Kind::kMatch}));
  round.wal_bytes_per_txn =
      Ratio(static_cast<double>(wal_after - wal_before),
            static_cast<double>(commits.size()));
  std::fprintf(stderr,
               "%s seed %llu: %zu txns (p50 %.3f ms, p%g %.3f ms), %zu reads "
               "(p50 %.3f ms, p%g %.3f ms; counts p50 %.3f ms, matches p50 "
               "%.3f ms) in %.3f s (%.1f%% stolen); setup %.3f s; "
               "restart %.3f s; "
               "%llu/%llu failed; retries %llu; %.0f commits in %.0f fsync "
               "batches, %.0f conflicts; shed/evicted/quota deltas "
               "%.0f/%.0f/%.0f\n",
               w.name.c_str(), static_cast<unsigned long long>(cfg.seed),
               round.txn.count, round.txn.p50, round.txn.tail_percentile,
               round.txn.tail, round.reads.count, round.reads.p50,
               round.reads.tail_percentile, round.reads.tail,
               Percentile(run.Latencies({Kind::kCount}), 50),
               Percentile(run.Latencies({Kind::kMatch}), 50), round.wall_s,
               100 * round.steal, round.setup_s, round.restart_s,
               static_cast<unsigned long long>(round.failed),
               static_cast<unsigned long long>(round.attempted),
               static_cast<unsigned long long>(round.retries),
               round.deltas["committed"], round.deltas["batches"],
               round.deltas["conflicts"], round.deltas["shed"],
               round.deltas["evicted"], round.deltas["quota"]);
  ReportFailures(run, "socket");
  return round;
}

/// One figure of every round.
template <typename R, typename Fn>
std::vector<double> PerRound(const std::vector<R>& rounds, Fn&& figure) {
  std::vector<double> v;
  for (const R& r : rounds) v.push_back(figure(r));
  return v;
}

/// Timings are reported from the best round (lowest latency, highest
/// throughput): noise on a shared host (CPU steal, neighbours' memory
/// traffic) only ever slows a round down, so the least disturbed round
/// is the steadiest estimate. Set-up time and memory are medians.
double Best(const std::vector<double>& v, bool higher_is_better) {
  return higher_is_better ? *std::max_element(v.begin(), v.end())
                          : *std::min_element(v.begin(), v.end());
}

template <typename R, typename Fn>
double MedianRound(const std::vector<R>& rounds, Fn&& figure) {
  return MedianOf(PerRound(rounds, figure));
}

Outcome RunServerWorkload(const Config& cfg) {
  const good::schema::Scheme scheme =
      good::hypermedia::BuildScheme().ValueOrDie();
  const bool commit_heavy = cfg.workload == "commit_heavy";
  const size_t requests = static_cast<size_t>(
      cfg.seconds / kRounds *
      (commit_heavy ? kCommitTxnsPerSecond : kQueryRequestsPerSecond));
  const ServerWorkload w =
      commit_heavy ? MakeCommitHeavy(scheme, cfg.seed, requests)
                   : MakeQueryHeavy(scheme, cfg.seed, requests);
  const std::string start_dir = cfg.work + "/start";

  // The same stream, from the same start state, kRounds times.
  AnswerTable answers;
  std::vector<Round> rounds;
  Outcome o;
  for (size_t i = 0; i < kRounds; ++i) {
    rounds.push_back(RunSocketRound(cfg, scheme, w, start_dir, &answers));
    o.attempted += rounds.back().attempted;
    o.failed += rounds.back().failed;
    o.correct = o.correct && rounds.back().correct;
  }
  auto primary = [&](const Round& r) -> const LatencySummary& {
    return commit_heavy ? r.txn : r.reads;
  };
  double retries = 0, txns = 0;
  std::map<std::string, double> deltas;
  for (const Round& r : rounds) {
    retries += static_cast<double>(r.retries);
    txns += static_cast<double>(r.txns);
    for (const auto& [key, value] : r.deltas) deltas[key] += value;
  }

  if (!cfg.trace) {
    o.Add("setup_s", MedianRound(rounds, [](const Round& r) {
            return r.setup_s;
          }), "s");
    o.Add("throughput_per_s", Best(PerRound(rounds, [&](const Round& r) {
            return commit_heavy ? r.txn_per_s : r.reads_per_s;
          }), true), "1/s");
    o.Add("p50_ms", Best(PerRound(rounds, [&](const Round& r) {
            return primary(r).p50;
          }), false), "ms");
    o.Add("tail_ms", Best(PerRound(rounds, [&](const Round& r) {
            return primary(r).tail;
          }), false), "ms");
    o.Add("peak_rss_mb", MedianRound(rounds, [](const Round& r) {
            return r.peak_rss_mb;
          }), "MiB");
    return o;
  }

  // ---- Traced run: in-process, untraced then traced, then probes. -----
  const InProcessRun plain = RunInProcess(w, cfg, start_dir, answers, nullptr);
  std::vector<SpanLog> logs(w.streams.size());
  const InProcessRun traced = RunInProcess(w, cfg, start_dir, answers, &logs);
  if (plain.run.Wrong() + traced.run.Wrong() > 0) o.correct = false;
  WriteTrace(cfg.trace_file, logs);
  const SpanTotals spans = Totals(logs);
  const std::vector<CommitRecord> traced_commits = traced.run.Commits();
  const LayerProbes probes =
      ProbeLayers(w, cfg, start_dir, traced_commits, traced.final_version->db);

  const auto plain_txn = Summarize(plain.run.Latencies({Kind::kTxn}));
  const auto plain_reads =
      Summarize(plain.run.Latencies({Kind::kCount, Kind::kMatch}));
  std::vector<double> batch;
  for (const auto& c : traced_commits) {
    batch.push_back(static_cast<double>(c.batch_size));
  }
  const auto& ts = spans.total_us;
  auto span_tail = [&](const char* name) {
    auto it = ts.find(name);
    return it == ts.end() ? 0.0 : Summarize(it->second).tail;
  };
  const double execute_us = Mean(ts, "server.execute");
  const double commit_us = Mean(ts, "server.commit");
  const double count_us = Mean(ts, "server.count");
  const double match_us = Mean(ts, "server.match");
  const double n_count = static_cast<double>(
      ts.count("server.count") ? ts.at("server.count").size() : 0);
  const double n_match = static_cast<double>(
      ts.count("server.match") ? ts.at("server.match").size() : 0);
  const double committed_d =
      static_cast<double>(traced.pipeline.committed);

  o.Add("server.execute_us", execute_us, "us");
  o.Add("server.commit_us", commit_us, "us");
  o.Add("server.commit_p99_us", span_tail("server.commit"), "us");
  o.Add("server.count_us", count_us, "us");
  o.Add("server.match_us", match_us, "us");
  o.Add("server.refresh_us", Mean(ts, "server.refresh"), "us");
  o.Add("server.batch_size", perfbench::Mean(batch), "count");
  o.Add("server.fsyncs_per_commit",
        Ratio(static_cast<double>(traced.pipeline.batches), committed_d),
        "ratio");
  o.Add("server.conflicts_per_commit",
        Ratio(static_cast<double>(traced.pipeline.conflicts), committed_d),
        "ratio");
  o.Add("server.retries_per_txn", Ratio(retries, txns), "ratio");
  const double txn_p50 =
      MedianRound(rounds, [](const Round& r) { return r.txn.p50; });
  const double read_p50 =
      MedianRound(rounds, [](const Round& r) { return r.reads.p50; });
  o.Add("server.wire_txn_us", (txn_p50 - plain_txn.p50) * 1e3, "us");
  o.Add("server.wire_read_us", (read_p50 - plain_reads.p50) * 1e3, "us");
  o.Add("program.parse_ops_us", Mean(ts, "program.parse_ops"), "us");
  o.Add("program.parse_pattern_us", Mean(ts, "program.parse_pattern"), "us");
  o.Add("graph.copy_us", probes.copy_us, "us");
  o.Add("graph.copy_bytes_per_edge", probes.copy_bytes_per_edge, "B");
  o.Add("ops.execute_us", probes.ops_execute_us, "us");
  o.Add("ops.matchings_per_op", probes.ops_matchings, "count");
  o.Add("pattern.count_us", probes.count_us, "us");
  o.Add("pattern.findall_us", probes.findall_us, "us");
  o.Add("pattern.findall_over_count", probes.findall_over_count, "ratio");
  o.Add("pattern.plan_us", probes.plan_us, "us");
  const double lookups =
      static_cast<double>(traced.plan_delta.hits + traced.plan_delta.misses);
  o.Add("pattern.plan_hit_rate",
        Ratio(static_cast<double>(traced.plan_delta.hits), lookups), "ratio");
  o.Add("pattern.plan_lookups", lookups, "count");
  o.Add("pattern.cand_per_matching", probes.cand_per_matching, "ratio");
  o.Add("storage.apply_txn_us", probes.apply_txn_us, "us");
  o.Add("storage.sync_us", probes.sync_us, "us");
  o.Add("storage.load_s", probes.load_s, "s");
  o.Add("storage.replay_us_per_op", probes.replay_us_per_op, "us");
  // A commit's work summed over the layer probes along its path: the
  // working copy, parse, preview, re-apply with WAL append, fsync and the
  // publishing copy. The share taken by the two copies plus the fsync.
  // Every write body holds two operations.
  const double copies_fsync = 2 * probes.copy_us + probes.sync_us;
  o.Add("commit.copy_fsync_share",
        Ratio(copies_fsync,
              copies_fsync + Mean(ts, "program.parse_ops") +
                  2 * probes.ops_execute_us + probes.apply_txn_us),
        "ratio");
  // A read's pattern-layer time (probe on the final state) against the
  // traced parse + session call.
  const double parse_us = Mean(ts, "program.parse_pattern");
  o.Add("read.pattern_share",
        Ratio(n_count * probes.count_us + n_match * probes.findall_us,
              n_count * (parse_us + count_us) +
                  n_match * (parse_us + match_us)),
        "ratio");
  o.Add("trace.overhead_pct",
        100.0 * Ratio(static_cast<double>(traced.run.wall_ns - plain.run.wall_ns),
                      static_cast<double>(plain.run.wall_ns)),
        "%");
  o.Add("e2e.txn_per_s",
        MedianRound(rounds, [](const Round& r) { return r.txn_per_s; }),
        "1/s");
  o.Add("e2e.txn_p50_ms", txn_p50, "ms");
  o.Add("e2e.txn_tail_ms",
        MedianRound(rounds, [](const Round& r) { return r.txn.tail; }), "ms");
  o.Add("e2e.query_per_s",
        MedianRound(rounds, [](const Round& r) { return r.reads_per_s; }),
        "1/s");
  o.Add("e2e.query_p50_ms", read_p50, "ms");
  o.Add("e2e.query_tail_ms",
        MedianRound(rounds, [](const Round& r) { return r.reads.tail; }),
        "ms");
  o.Add("e2e.restart_s",
        MedianRound(rounds, [](const Round& r) { return r.restart_s; }), "s");
  o.Add("e2e.wal_bytes_per_txn", MedianRound(rounds, [](const Round& r) {
          return r.wal_bytes_per_txn;
        }), "B");
  o.Add("e2e.error_ratio",
        Ratio(static_cast<double>(o.failed), static_cast<double>(o.attempted)),
        "ratio");
  o.Add("e2e.shed_delta", deltas["shed"] + deltas["shed_sessions"], "count");
  o.Add("e2e.evicted_delta", deltas["evicted"], "count");
  o.Add("e2e.quota_delta", deltas["quota"], "count");

  // Self time per span name, for the human summary.
  double all_self = 0;
  for (const auto& [name, v] : spans.self_us) {
    for (double x : v) all_self += x;
  }
  std::fprintf(stderr, "self time by span (traced in-process run):\n");
  for (const auto& [name, v] : spans.self_us) {
    double total = 0;
    for (double x : v) total += x;
    std::fprintf(stderr, "  %-24s n=%-7zu self %10.1f ms  %5.1f%%\n",
                 name.c_str(), v.size(), total / 1e3,
                 100.0 * Ratio(total, all_self));
  }
  return o;
}

// ---------------------------------------------------------------------------
// rules_fixpoint
// ---------------------------------------------------------------------------

Outcome RunRulesWorkload(const Config& cfg) {
  std::vector<double> setup_s;
  std::optional<RulesWorkload> w;
  for (size_t rep = 0; rep < kRulesSetupRepeats; ++rep) {
    const int64_t t0 = NowNs();
    auto made = MakeRulesFixpoint(cfg.seed);
    Check(made.status(), "rules workload");
    setup_s.push_back(Seconds(NowNs() - t0));
    w = std::move(*made);
  }

  auto make_engine = [&](good::rules::EvalMode mode) {
    auto engine = std::make_unique<good::rules::RuleEngine>();
    engine->set_eval_mode(mode);
    engine->set_num_threads(kClients);
    for (const auto& rule : w->rules) Check(engine->AddRule(rule), "add rule");
    return engine;
  };

  // Oracle: one naive-mode fixpoint.
  size_t want_nodes = 0, want_edges = 0;
  {
    auto naive = make_engine(good::rules::EvalMode::kNaive);
    good::schema::Scheme s = w->scheme;
    good::graph::Instance g = w->graph;
    Check(naive->Run(&s, &g).status(), "naive fixpoint");
    want_nodes = g.num_nodes();
    want_edges = g.num_edges();
  }
  // Peak RSS of the measured engine only: reset the high-water mark.
  {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
  }

  auto engine = make_engine(good::rules::EvalMode::kIncremental);
  const size_t per_round = std::max<size_t>(
      1, static_cast<size_t>(cfg.seconds * kFixpointsPerSecond / kRounds));
  Outcome o;
  good::rules::RunReport last;
  struct RulesRound {
    LatencySummary latency;
    double per_s = 0;
    int64_t engine_ns = 0;
  };
  // kRounds rounds of per_round fixpoints, each on a fresh (untimed)
  // copy of the graph.
  auto run_rounds = [&](SpanLog* log) {
    std::vector<RulesRound> rounds;
    uint64_t request = 0;
    for (size_t round = 0; round < kRounds; ++round) {
      std::vector<double> ms;
      RulesRound out;
      std::pair<double, double> cpu;
      StealShare(&cpu);
      for (size_t i = 0; i < per_round; ++i) {
        if (log) log->set_request(++request);
        ScopedSpan span(log, "request");
        good::schema::Scheme s;
        good::graph::Instance g;
        {
          ScopedSpan copy(log, "graph.copy");
          s = w->scheme;
          g = w->graph;
        }
        ++o.attempted;
        const int64_t t0 = NowNs();
        auto report = [&] {
          ScopedSpan run(log, "rules.run");
          return engine->Run(&s, &g);
        }();
        const int64_t dt = NowNs() - t0;
        out.engine_ns += dt;
        if (!report.ok()) {
          ++o.failed;
          continue;
        }
        last = *report;
        if (g.num_nodes() != want_nodes || g.num_edges() != want_edges) {
          std::fprintf(stderr,
                       "WRONG fixpoint: %zu nodes / %zu edges, naive mode "
                       "gives %zu / %zu\n",
                       g.num_nodes(), g.num_edges(), want_nodes, want_edges);
          o.correct = false;
        }
        ms.push_back(Millis(dt));
      }
      out.latency = Summarize(ms);
      out.per_s = Ratio(static_cast<double>(ms.size()), Seconds(out.engine_ns));
      std::fprintf(stderr,
                   "rules_fixpoint seed %llu round %zu: %zu fixpoints, p50 "
                   "%.3f ms, p%g %.3f ms (%.1f%% stolen)\n",
                   static_cast<unsigned long long>(cfg.seed), round,
                   out.latency.count, out.latency.p50,
                   out.latency.tail_percentile, out.latency.tail,
                   100 * StealShare(&cpu));
      rounds.push_back(out);
    }
    return rounds;
  };
  auto engine_ns = [](const std::vector<RulesRound>& rounds) {
    int64_t total = 0;
    for (const RulesRound& r : rounds) total += r.engine_ns;
    return total;
  };

  const std::vector<RulesRound> rounds = run_rounds(nullptr);
  const double peak_rss_mb = ProcStatusKiB(::getpid(), "VmHWM") / 1024.0;
  std::string names;
  for (const auto& rule : w->rules) names += " " + rule.name;
  std::fprintf(stderr,
               "rules_fixpoint seed %llu (rule seed %llu:%s): %zu rounds per "
               "fixpoint; fixpoint %zu nodes / %zu edges\n",
               static_cast<unsigned long long>(cfg.seed),
               static_cast<unsigned long long>(w->rule_seed), names.c_str(),
               last.rounds, want_nodes, want_edges);

  if (!cfg.trace) {
    o.Add("setup_s", MedianOf(setup_s), "s");
    // Fixpoints per second of engine time (the untimed copies between
    // runs excluded).
    o.Add("throughput_per_s",
          Best(PerRound(rounds, [](const RulesRound& r) { return r.per_s; }),
               true),
          "1/s");
    o.Add("p50_ms",
          Best(PerRound(rounds,
                        [](const RulesRound& r) { return r.latency.p50; }),
               false),
          "ms");
    o.Add("tail_ms",
          Best(PerRound(rounds,
                        [](const RulesRound& r) { return r.latency.tail; }),
               false),
          "ms");
    o.Add("peak_rss_mb", peak_rss_mb, "MiB");
    return o;
  }

  std::vector<SpanLog> logs(1);
  const int64_t total = engine_ns(rounds);
  const int64_t traced_total = engine_ns(run_rounds(&logs[0]));
  WriteTrace(cfg.trace_file, logs);
  const SpanTotals spans = Totals(logs);
  const auto& m = last.match;
  const double lookups =
      static_cast<double>(m.plan_cache_hits + m.plan_cache_misses);
  o.Add("graph.copy_us", Mean(spans.total_us, "graph.copy"), "us");
  o.Add("trace.overhead_pct",
        100.0 * Ratio(static_cast<double>(traced_total - total),
                      static_cast<double>(total)),
        "%");
  o.Add("e2e.error_ratio",
        Ratio(static_cast<double>(o.failed), static_cast<double>(o.attempted)),
        "ratio");
  o.Add("rules.rounds", static_cast<double>(last.rounds), "count");
  o.Add("rules.full_rounds", static_cast<double>(last.full_rounds), "count");
  o.Add("rules.workers_used", static_cast<double>(last.workers_used), "count");
  o.Add("rules.cand_per_edge",
        Ratio(static_cast<double>(m.candidates_scanned),
              static_cast<double>(last.edges_added)),
        "ratio");
  o.Add("rules.matchings_skipped", static_cast<double>(last.matchings_skipped),
        "count");
  o.Add("rules.plan_hit_rate",
        Ratio(static_cast<double>(m.plan_cache_hits), lookups), "ratio");
  return o;
}

/// Every per-layer metric with its unit, in report order. A layer a
/// workload does not exercise reports 0 (no work done, no time spent).
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"server.execute_us", "us"},        {"server.commit_us", "us"},
    {"server.commit_p99_us", "us"},     {"server.count_us", "us"},
    {"server.match_us", "us"},          {"server.refresh_us", "us"},
    {"server.batch_size", "count"},     {"server.fsyncs_per_commit", "ratio"},
    {"server.conflicts_per_commit", "ratio"},
    {"server.retries_per_txn", "ratio"},
    {"server.wire_txn_us", "us"},       {"server.wire_read_us", "us"},
    {"program.parse_ops_us", "us"},     {"program.parse_pattern_us", "us"},
    {"graph.copy_us", "us"},            {"graph.copy_bytes_per_edge", "B"},
    {"ops.execute_us", "us"},           {"ops.matchings_per_op", "count"},
    {"pattern.count_us", "us"},         {"pattern.findall_us", "us"},
    {"pattern.findall_over_count", "ratio"},
    {"pattern.plan_us", "us"},          {"pattern.plan_hit_rate", "ratio"},
    {"pattern.plan_lookups", "count"},  {"pattern.cand_per_matching", "ratio"},
    {"storage.apply_txn_us", "us"},     {"storage.sync_us", "us"},
    {"storage.load_s", "s"},            {"storage.replay_us_per_op", "us"},
    {"rules.rounds", "count"},          {"rules.full_rounds", "count"},
    {"rules.workers_used", "count"},    {"rules.cand_per_edge", "ratio"},
    {"rules.matchings_skipped", "count"},
    {"rules.plan_hit_rate", "ratio"},
    {"commit.copy_fsync_share", "ratio"},
    {"read.pattern_share", "ratio"},    {"trace.overhead_pct", "%"},
    {"e2e.txn_per_s", "1/s"},           {"e2e.txn_p50_ms", "ms"},
    {"e2e.txn_tail_ms", "ms"},          {"e2e.query_per_s", "1/s"},
    {"e2e.query_p50_ms", "ms"},         {"e2e.query_tail_ms", "ms"},
    {"e2e.restart_s", "s"},             {"e2e.wal_bytes_per_txn", "B"},
    {"e2e.error_ratio", "ratio"},       {"e2e.shed_delta", "count"},
    {"e2e.evicted_delta", "count"},     {"e2e.quota_delta", "count"},
};

/// Puts the traced run's metrics in kLayerMetrics order, with zeros for
/// the layers the workload did not touch.
void CompleteLayerMetrics(Outcome* o) {
  std::map<std::string, double> have;
  for (const Metric& m : o->metrics) have[m.name] = m.value;
  o->metrics.clear();
  for (const auto& [name, unit] : kLayerMetrics) {
    auto it = have.find(name);
    o->Add(name, it == have.end() ? 0 : it->second, unit);
    if (it != have.end()) have.erase(it);
  }
  if (!have.empty()) Die("unlisted layer metric " + have.begin()->first);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using perfbench::Config;
  Config cfg;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--work") {
      cfg.work = value;
    } else if (flag == "--trace-file") {
      cfg.trace_file = value;
    } else {
      perfbench::Die("unknown flag " + flag);
    }
  }
  if (!have_seed || cfg.work.empty() || cfg.seconds <= 0) {
    perfbench::Die(
        "usage: perfbench_driver --workload W --seed N --seconds S "
        "--trace 0|1 --work DIR [--trace-file PATH]");
  }
  cfg.server_binary =
      (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
       "good_server")
          .string();
  std::filesystem::create_directories(cfg.work);

  perfbench::Outcome outcome;
  if (cfg.workload == "commit_heavy" || cfg.workload == "query_heavy") {
    outcome = perfbench::RunServerWorkload(cfg);
  } else if (cfg.workload == "rules_fixpoint") {
    outcome = perfbench::RunRulesWorkload(cfg);
  } else {
    perfbench::Die("unknown workload " + cfg.workload);
  }
  if (cfg.trace) perfbench::CompleteLayerMetrics(&outcome);
  std::printf("%s\n", perfbench::ToJson(outcome).c_str());
  std::fflush(stdout);
  return outcome.correct ? 0 : 1;
}
