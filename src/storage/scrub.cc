#include "storage/scrub.h"

#include <algorithm>

namespace good::storage {
namespace {

/// Deadline poll stride: cheap enough to be invisible, frequent enough
/// that a slice overshoots its budget by at most a few nodes.
constexpr size_t kPollStride = 64;

/// How often `node` occurs in `list`. An edge held in one direction's
/// list must occur exactly once in the other direction's list: zero is
/// a lost mirror, two a stale duplicate.
size_t Occurrences(const std::vector<graph::NodeId>& list,
                   graph::NodeId node) {
  return std::count(list.begin(), list.end(), node);
}

}  // namespace

void Scrubber::Reset() {
  report_ = ScrubReport{};
  cursor_ = 0;
  label_census_.clear();
}

void Scrubber::ScrubNode(graph::NodeId node) {
  const graph::Instance& g = *instance_;
  const schema::Scheme& s = *scheme_;
  const std::string name = "node #" + std::to_string(node.id);
  auto problem = [&](std::string text) {
    report_.problems.push_back(name + " " + std::move(text));
  };

  const Symbol label = g.LabelOf(node);
  ++label_census_[label];
  const size_t problems_before = report_.problems.size();
  const size_t edges_before = report_.edges_scrubbed;

  // Scheme conformance of the node itself.
  if (!s.IsNodeLabel(label)) {
    problem("label '" + SymName(label) + "' is not a node label");
  } else if (s.IsPrintableLabel(label)) {
    if (g.HasPrintValue(node)) {
      const Value& value = *g.PrintValueOf(node);
      auto domain = s.DomainOf(label);
      if (!domain.ok()) {
        problem("printable label without a domain: " +
                domain.status().ToString());
      } else if (value.kind() != *domain) {
        problem("print value outside the domain of '" + SymName(label) + "'");
      }
      // Printable dedup: the (label, value) map must resolve to this
      // very node — a duplicate or a stale map entry both surface here.
      auto dedup = g.FindPrintable(label, value);
      if (!dedup.has_value()) {
        problem("missing from the printable dedup index");
      } else if (*dedup != node) {
        problem("printable dedup index resolves to node #" +
                std::to_string(dedup->id) + " instead");
      }
    }
  } else if (g.HasPrintValue(node)) {
    problem("is an object node but carries a print value");
  }

  // Outgoing edges: typing, uniqueness, membership in the edge set, and
  // a single mirror in the target's in-list.
  std::unordered_map<Symbol, size_t> out_census;
  std::unordered_map<Symbol, Symbol> successor_label;
  for (const auto& [edge_label, target] : g.OutEdges(node)) {
    ++report_.edges_scrubbed;
    ++out_census[edge_label];
    if (!g.HasNode(target)) {
      problem("has a '" + SymName(edge_label) + "' edge to dead node #" +
              std::to_string(target.id));
      continue;
    }
    if (!s.HasTriple(label, edge_label, g.LabelOf(target))) {
      problem("edge '" + SymName(edge_label) +
              "' is not licensed by any scheme triple");
    }
    auto [it, inserted] =
        successor_label.emplace(edge_label, g.LabelOf(target));
    if (!inserted && it->second != g.LabelOf(target)) {
      problem("has '" + SymName(edge_label) +
              "' successors with unequal labels");
    }
    if (s.IsFunctionalEdgeLabel(edge_label) &&
        out_census[edge_label] > 1) {
      problem("has multiple functional '" + SymName(edge_label) + "' edges");
    }
    if (!g.HasEdge(node, edge_label, target)) {
      problem("edge '" + SymName(edge_label) + "' missing from the edge set");
    }
    if (Occurrences(g.InSources(target, edge_label), node) != 1) {
      problem("edge '" + SymName(edge_label) +
              "' is not mirrored exactly once in the target's in-list");
    }
  }
  // Incoming edges: every recorded predecessor must hold us exactly once.
  for (const auto& [source, edge_label] : g.InEdges(node)) {
    if (!g.HasNode(source)) {
      problem("has a '" + SymName(edge_label) + "' edge from dead node #" +
              std::to_string(source.id));
      continue;
    }
    if (Occurrences(g.OutTargets(source, edge_label), node) != 1) {
      problem("incoming '" + SymName(edge_label) +
              "' edge is not mirrored exactly once in the source's out-list");
    }
  }
  // Label index membership.
  if (Occurrences(g.NodesWithLabel(label), node) == 0) {
    problem("missing from the label index for '" + SymName(label) + "'");
  }

  // Attribute this node's totals to its class — the snapshot-partition
  // unit — so a red pass names which partition to suspect.
  ClassScrubOutcome& outcome = report_.per_class[SymName(label)];
  ++outcome.nodes_scrubbed;
  outcome.edges_scrubbed += report_.edges_scrubbed - edges_before;
  outcome.problems += report_.problems.size() - problems_before;
}

Status Scrubber::Step(const ScrubOptions& options) {
  if (report_.complete) return Status::OK();
  const std::vector<graph::NodeId> nodes = instance_->AllNodes();
  auto it = std::lower_bound(
      nodes.begin(), nodes.end(), graph::NodeId{cursor_},
      [](graph::NodeId a, graph::NodeId b) { return a.id < b.id; });
  size_t scrubbed_this_call = 0;
  for (; it != nodes.end(); ++it) {
    if (options.deadline.armed() && scrubbed_this_call % kPollStride == 0) {
      Status cutoff = options.deadline.Check();
      if (!cutoff.ok()) {
        cursor_ = it->id;  // resume here next call
        return cutoff;
      }
    }
    if (options.max_nodes != 0 && scrubbed_this_call >= options.max_nodes) {
      cursor_ = it->id;
      return Status::OK();  // paused, report_.complete stays false
    }
    ScrubNode(*it);
    ++report_.nodes_scrubbed;
    ++scrubbed_this_call;
  }
  cursor_ = static_cast<uint32_t>(-1);

  // Whole-instance totals (exact when the pass ran without concurrent
  // mutation; see file comment).
  if (report_.nodes_scrubbed != instance_->num_nodes()) {
    report_.problems.push_back(
        "alive-node count disagrees: walked " +
        std::to_string(report_.nodes_scrubbed) +
        ", instance reports " + std::to_string(instance_->num_nodes()));
  }
  if (report_.edges_scrubbed != instance_->num_edges()) {
    report_.problems.push_back(
        "edge count disagrees: walked " +
        std::to_string(report_.edges_scrubbed) +
        ", instance reports " + std::to_string(instance_->num_edges()));
  }
  for (const auto& [label, count] : label_census_) {
    if (instance_->CountNodesWithLabel(label) != count) {
      report_.problems.push_back(
          "label index cardinality disagrees for '" + SymName(label) + "'");
    }
  }
  report_.complete = true;
  return Status::OK();
}

ScrubReport Scrub(const schema::Scheme& scheme,
                  const graph::Instance& instance,
                  const ScrubOptions& options) {
  Scrubber scrubber(&scheme, &instance);
  (void)scrubber.Step(options);
  return scrubber.report();
}

}  // namespace good::storage
