#include "workloads.h"

#include <algorithm>
#include <numeric>

#include "harness.h"
#include "hypermedia/hypermedia.h"
#include "method/method.h"
#include "pattern/builder.h"
#include "program/op_serialize.h"

namespace perfbench {

using good::Date;
using good::Sym;
using good::Symbol;
using good::Value;
using good::graph::NodeId;
using good::pattern::GraphBuilder;
using good::schema::Scheme;

namespace {

constexpr size_t kCommitDocs = 4000;
constexpr size_t kQueryDocs = 1000;
/// Documents written and anchored by reads on query_heavy follow
/// Zipf(kQueryZipfExponent). Link targets of commit_heavy inserts follow
/// a milder Zipf(kCommitZipfExponent): a link target is a shared write
/// endpoint, and with four writers in flight a 0.9 skew makes ~7% of
/// commits conflict and retry, which puts the 90th percentile on the
/// edge between first-try and retried commits.
constexpr double kQueryZipfExponent = 0.9;
constexpr double kCommitZipfExponent = 0.5;
/// Rule-engine input size: kRuleNodes Info nodes on a links-to cycle
/// plus kRuleChords random chords.
constexpr size_t kRuleNodes = 110;
constexpr size_t kRuleChords = 220;
constexpr size_t kRuleStrata = 3;

int64_t EpochDay() { return Date{1990, 1, 1}.ToDayNumber(); }

Value DateValue(int64_t day) { return Value(Date::FromDayNumber(day)); }

std::string DocName(size_t i) { return "doc" + std::to_string(i); }

/// A seeded permutation of [0, n): rank k of a Zipf draw names document
/// order[k], so which documents are hot varies with the seed.
std::vector<size_t> Permutation(size_t n, Rng& rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.Below(i)]);
  return order;
}

std::string WriteOps(const Scheme& scheme,
                     const std::vector<good::method::Operation>& ops) {
  return good::program::WriteOperations(scheme, ops).ValueOrDie();
}

/// Inserts Info `name` created on `day`, linked to document `target`.
std::string InsertBody(const Scheme& scheme, const std::string& name,
                       int64_t day, const std::string& target) {
  GraphBuilder na(scheme);
  NodeId s = na.Printable("String", Value(name));
  NodeId d = na.Printable("Date", DateValue(day));
  good::ops::NodeAddition add(na.BuildOrDie(), Sym("Info"),
                              {{Sym("name"), s}, {Sym("created"), d}});
  GraphBuilder ea(scheme);
  NodeId x = ea.Object("Info");
  NodeId xs = ea.Printable("String", Value(name));
  NodeId t = ea.Object("Info");
  NodeId ts = ea.Printable("String", Value(target));
  ea.Edge(x, "name", xs).Edge(t, "name", ts);
  good::ops::EdgeAddition link(
      ea.BuildOrDie(), {good::ops::EdgeSpec{x, Sym("links-to"), t, false}});
  return WriteOps(scheme, {good::method::Operation(std::move(add)),
                           good::method::Operation(std::move(link))});
}

/// Figure 16 on document `doc`: drop its `modified` edge, whatever the
/// date, then set modified = `day`.
std::string ModifiedBody(const Scheme& scheme, const std::string& doc,
                         int64_t day) {
  GraphBuilder del(scheme);
  NodeId i = del.Object("Info");
  NodeId s = del.Printable("String", Value(doc));
  NodeId old_date = del.Printable("Date");
  del.Edge(i, "name", s).Edge(i, "modified", old_date);
  good::ops::EdgeDeletion drop(
      del.BuildOrDie(), {good::ops::EdgeRef{i, Sym("modified"), old_date}});
  GraphBuilder add(scheme);
  NodeId j = add.Object("Info");
  NodeId t = add.Printable("String", Value(doc));
  NodeId d = add.Printable("Date", DateValue(day));
  add.Edge(j, "name", t);
  good::ops::EdgeAddition set(
      add.BuildOrDie(), {good::ops::EdgeSpec{j, Sym("modified"), d, true}});
  return WriteOps(scheme, {good::method::Operation(std::move(drop)),
                           good::method::Operation(std::move(set))});
}

/// Outgoing links-to path of `hops` edges from the document named `doc`.
std::string PathPattern(const Scheme& scheme, const std::string& doc,
                        size_t hops) {
  GraphBuilder b(scheme);
  NodeId prev = b.Object("Info");
  NodeId name = b.Printable("String", Value(doc));
  b.Edge(prev, "name", name);
  for (size_t h = 0; h < hops; ++h) {
    NodeId next = b.Object("Info");
    b.Edge(prev, "links-to", next);
    prev = next;
  }
  return good::program::WritePattern(scheme, b.BuildOrDie());
}

/// Figure 4's shape anchored on a creation date: a named Info created
/// on `day` and the Info it links to.
std::string Fig4Pattern(const Scheme& scheme, int64_t day) {
  GraphBuilder b(scheme);
  NodeId upper = b.Object("Info");
  NodeId lower = b.Object("Info");
  NodeId date = b.Printable("Date", DateValue(day));
  NodeId name = b.Printable("String");
  b.Edge(upper, "created", date)
      .Edge(upper, "name", name)
      .Edge(upper, "links-to", lower);
  return good::program::WritePattern(scheme, b.BuildOrDie());
}

/// Two links-to hops out of the Infos created on `day`.
std::string DatedTwoHopPattern(const Scheme& scheme, int64_t day) {
  GraphBuilder b(scheme);
  NodeId upper = b.Object("Info");
  NodeId mid = b.Object("Info");
  NodeId lower = b.Object("Info");
  NodeId date = b.Printable("Date", DateValue(day));
  b.Edge(upper, "created", date)
      .Edge(upper, "links-to", mid)
      .Edge(mid, "links-to", lower);
  return good::program::WritePattern(scheme, b.BuildOrDie());
}

/// A seeded random links-to graph that always contains a Hamiltonian
/// cycle (through a seeded node order) plus `chords` random edges. Every
/// node reaches every other, so the transitive closure has exactly n^2
/// edges whatever the seed, and fixpoint cost does not swing with it.
good::Result<good::graph::Instance> CycleWithChords(const Scheme& scheme,
                                                     size_t n, size_t chords,
                                                     uint64_t seed) {
  const Symbol info = Sym("Info");
  const Symbol links_to = Sym("links-to");
  Rng rng(seed ^ 0x5eedull);
  good::graph::Instance g;
  std::vector<NodeId> nodes;
  for (size_t i = 0; i < n; ++i) {
    GOOD_ASSIGN_OR_RETURN(NodeId node, g.AddObjectNode(scheme, info));
    nodes.push_back(node);
  }
  const std::vector<size_t> order = Permutation(n, rng);
  for (size_t i = 0; i < n; ++i) {
    GOOD_RETURN_NOT_OK(g.AddEdge(scheme, nodes[order[i]], links_to,
                                 nodes[order[(i + 1) % n]]));
  }
  for (size_t e = 0; e < chords; ++e) {
    const NodeId a = nodes[rng.Below(n)];
    const NodeId b = nodes[rng.Below(n)];
    if (a == b || g.HasEdge(a, links_to, b)) continue;
    GOOD_RETURN_NOT_OK(g.AddEdge(scheme, a, links_to, b));
  }
  return g;
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kTxn:
      return "txn";
    case Kind::kCount:
      return "count";
    case Kind::kMatch:
      return "match";
    case Kind::kRefresh:
      return "refresh";
  }
  return "?";
}

ServerWorkload MakeCommitHeavy(const Scheme& scheme, uint64_t seed,
                               size_t requests) {
  ServerWorkload w;
  w.name = "commit_heavy";
  w.instance.num_docs = kCommitDocs;
  w.instance.links_per_doc = 3;
  // Many dates: a creation date is a shared endpoint, so inserts with
  // equal dates conflict; conflicts are not what this workload measures.
  w.instance.num_versions = 64;
  w.instance.distinct_dates = 512;
  w.instance.seed = seed;
  w.warmup = 4;
  Rng rng(seed ^ 0xc0117ull);
  const Zipf zipf(kCommitDocs, kCommitZipfExponent);
  const std::vector<size_t> hot = Permutation(kCommitDocs, rng);
  const size_t per_client = w.warmup + (requests + kClients - 1) / kClients;
  w.streams.resize(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < per_client; ++i) {
      Request r;
      r.kind = Kind::kTxn;
      r.doc = "new-" + std::to_string(c) + "-" + std::to_string(i);
      r.target = DocName(hot[zipf.Draw(rng)]);
      r.day = EpochDay() +
              static_cast<int64_t>(rng.Below(w.instance.distinct_dates));
      r.body = InsertBody(scheme, r.doc, r.day, r.target);
      w.streams[c].push_back(std::move(r));
    }
  }
  return w;
}

ServerWorkload MakeQueryHeavy(const Scheme& scheme, uint64_t seed,
                              size_t requests) {
  ServerWorkload w;
  w.name = "query_heavy";
  w.instance.num_docs = kQueryDocs;
  w.instance.links_per_doc = 3;
  w.instance.num_versions = 10;
  w.instance.distinct_dates = 32;
  w.instance.seed = seed;
  w.warmup = 32;
  Rng rng(seed ^ 0x9e7ull);
  const Zipf doc_zipf(kQueryDocs, kQueryZipfExponent);
  const Zipf date_zipf(w.instance.distinct_dates, kQueryZipfExponent);
  const std::vector<size_t> hot_docs = Permutation(kQueryDocs, rng);
  const std::vector<size_t> hot_dates =
      Permutation(w.instance.distinct_dates, rng);
  auto doc = [&] { return DocName(hot_docs[doc_zipf.Draw(rng)]); };
  auto date = [&] {
    return EpochDay() + static_cast<int64_t>(hot_dates[date_zipf.Draw(rng)]);
  };
  const size_t per_client = w.warmup + (requests + kClients - 1) / kClients;
  w.streams.resize(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < per_client; ++i) {
      Request r;
      const double u = rng.Uniform();
      if (i % 16 == 15) {
        r.kind = Kind::kRefresh;
      } else if (u < 0.05) {
        r.kind = Kind::kTxn;
        r.doc = doc();
        // Modified dates lie past every creation date the reads anchor on.
        r.day = EpochDay() + 100 + static_cast<int64_t>(rng.Below(64));
        r.body = ModifiedBody(scheme, r.doc, r.day);
      } else if (u < 0.29) {
        // Reads are a quarter 2-hop counts, half 3-hop counts and a
        // quarter matches, so the median read is mid-way through the
        // 3-hop counts rather than on the edge between two request kinds.
        r.kind = Kind::kCount;
        r.body = PathPattern(scheme, doc(), 2);
      } else if (u < 0.76) {
        r.kind = Kind::kCount;
        r.body = PathPattern(scheme, doc(), 3);
      } else if (u < 0.90) {
        r.kind = Kind::kMatch;
        r.body = Fig4Pattern(scheme, date());
      } else {
        r.kind = Kind::kMatch;
        r.body = DatedTwoHopPattern(scheme, date());
      }
      w.streams[c].push_back(std::move(r));
    }
  }
  return w;
}

std::string StreamBytes(const ServerWorkload& workload) {
  std::string out;
  for (size_t c = 0; c < workload.streams.size(); ++c) {
    out += "client " + std::to_string(c) + "\n";
    for (const Request& r : workload.streams[c]) {
      out += KindName(r.kind);
      out += ' ' + r.doc + ' ' + r.target + ' ' + std::to_string(r.day) +
             '\n' + r.body + '\n';
    }
  }
  return out;
}

good::Result<RulesWorkload> MakeRulesFixpoint(uint64_t seed) {
  GOOD_ASSIGN_OR_RETURN(Scheme base, good::hypermedia::BuildScheme());
  const Symbol links_to = Sym("links-to");
  RulesWorkload w;
  for (uint64_t rule_seed = 1;; ++rule_seed) {
    Scheme scheme = base;
    GOOD_ASSIGN_OR_RETURN(
        std::vector<good::rules::Rule> rules,
        good::gen::RandomStratifiedRuleSet(&scheme, kRuleStrata, rule_seed));
    bool closure = false;
    bool negated = false;
    for (const good::rules::Rule& rule : rules) {
      const auto& cond = rule.condition;
      if (rule.name.rfind("closure-seed-", 0) == 0) {
        const auto edges = cond.full.AllEdges();
        closure = edges.size() == 1 && edges[0].label == links_to;
      }
      if (!cond.crossed_edges.empty() ||
          cond.positive_nodes.size() < cond.full.num_nodes()) {
        negated = true;
      }
    }
    if (closure && negated) {
      w.scheme = std::move(scheme);
      w.rules = std::move(rules);
      w.rule_seed = rule_seed;
      break;
    }
  }
  GOOD_ASSIGN_OR_RETURN(w.graph,
                        CycleWithChords(base, kRuleNodes, kRuleChords, seed));
  return w;
}

}  // namespace perfbench
