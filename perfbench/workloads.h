/// \file workloads.h
/// \brief The benchmark's three workloads, generated from a seed.
///
///  - commit_heavy: every request is a write transaction inserting one
///    Info document (fresh name, a creation date) linked to an existing
///    document drawn with Zipf skew, on a ~8.6K-node hyper-media base.
///    Per-commit cost there is dominated by whole-instance copies and
///    fsync; the matcher barely works (anchored, tiny patterns).
///  - query_heavy: ~95% anchored reads (2-/3-hop links-to counts and
///    Figure-4-shaped matches returning tens to hundreds of matchings)
///    plus ~5% Figure-16-style `modified` replacements, on a 1K-doc
///    base, with a refresh every 16 requests. Matcher planning and
///    enumeration dominate; writes never touch the links-to and created
///    edges the reads traverse, so every read answer is fixed at setup.
///  - rules_fixpoint: an embedded semi-naive fixpoint of a stratified
///    rule set (transitive closure plus a negated rule) over a random
///    links-to graph. No server, storage or copies on the hot path.
///
/// The request streams are pure functions of the seed: the same seed
/// yields byte-identical streams.

#ifndef GOOD_PERFBENCH_WORKLOADS_H_
#define GOOD_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "graph/instance.h"
#include "rules/rules.h"
#include "schema/scheme.h"

namespace perfbench {

/// Concurrent client connections (one thread each) and matcher threads:
/// the core count of the reference machine.
inline constexpr size_t kClients = 4;

enum class Kind { kTxn, kCount, kMatch, kRefresh };
const char* KindName(Kind kind);

/// One protocol request of a closed-loop client.
struct Request {
  Kind kind = Kind::kRefresh;
  /// `exec` operation text for kTxn, pattern block for kCount/kMatch.
  std::string body;
  /// kTxn on commit_heavy: the inserted document's name and the name of
  /// the document it links to. kTxn on query_heavy: the written
  /// document's name.
  std::string doc;
  std::string target;
  /// Creation date (commit_heavy) or new `modified` date (query_heavy),
  /// as a day number.
  int64_t day = 0;
};

struct ServerWorkload {
  std::string name;
  good::gen::HyperMediaOptions instance;
  /// Leading requests per client run before the measured phase.
  size_t warmup = 0;
  /// One stream per client connection, warm-up first.
  std::vector<std::vector<Request>> streams;
};

/// `requests` measured requests in total, spread evenly over kClients.
ServerWorkload MakeCommitHeavy(const good::schema::Scheme& scheme,
                               uint64_t seed, size_t requests);
ServerWorkload MakeQueryHeavy(const good::schema::Scheme& scheme,
                              uint64_t seed, size_t requests);

/// The streams as one byte string (for determinism checks).
std::string StreamBytes(const ServerWorkload& workload);

struct RulesWorkload {
  /// The hyper-media scheme extended with the rules' derived labels.
  good::schema::Scheme scheme;
  std::vector<good::rules::Rule> rules;
  good::graph::Instance graph;
  /// Generator seed the rule set was drawn with.
  uint64_t rule_seed = 0;
};

/// The rule set is the same for every seed (the first generator seed
/// whose set holds a links-to closure and a negated rule, so fixpoint
/// cost does not swing with the template draw); the seed draws the
/// graph: a links-to cycle through a seeded order plus random chords.
good::Result<RulesWorkload> MakeRulesFixpoint(uint64_t seed);

}  // namespace perfbench

#endif  // GOOD_PERFBENCH_WORKLOADS_H_
