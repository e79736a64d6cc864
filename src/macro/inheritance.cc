#include "macro/inheritance.h"

#include <deque>
#include <map>
#include <optional>
#include <utility>
#include <vector>

namespace good::macros {

using graph::Instance;
using graph::NodeId;
using pattern::Pattern;
using schema::Scheme;

namespace {

/// BFS over marked isa triples from `from` towards a class licensing
/// (·, edge, target_label); returns the chain of (isa edge label,
/// superclass) hops, empty if `from` itself licenses the edge.
Result<std::vector<std::pair<Symbol, Symbol>>> FindLiftingPath(
    const Scheme& scheme, Symbol from, Symbol edge, Symbol target_label) {
  if (scheme.HasTriple(from, edge, target_label)) {
    return std::vector<std::pair<Symbol, Symbol>>{};
  }
  // Parent pointers for path reconstruction.
  std::map<Symbol, std::pair<Symbol, Symbol>> parent;  // class -> (via, from)
  std::map<Symbol, Symbol> via_edge;  // class -> isa edge label used
  std::deque<Symbol> queue{from};
  std::map<Symbol, bool> seen{{from, true}};
  while (!queue.empty()) {
    Symbol cur = queue.front();
    queue.pop_front();
    for (const auto& [isa_edge, super] : scheme.DirectSuperclasses(cur)) {
      if (seen[super]) continue;
      seen[super] = true;
      parent[super] = {isa_edge, cur};
      if (scheme.HasTriple(super, edge, target_label)) {
        // Reconstruct from `super` back to `from`.
        std::vector<std::pair<Symbol, Symbol>> path;
        Symbol walk = super;
        while (walk != from) {
          auto [e, prev] = parent[walk];
          path.emplace_back(e, walk);
          walk = prev;
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(super);
    }
  }
  return Status::InvalidArgument(
      "edge '" + SymName(edge) + "' towards '" + SymName(target_label) +
      "' is licensed by neither '" + SymName(from) +
      "' nor any of its superclasses");
}

}  // namespace

Result<Pattern> RewriteWithInheritance(const Scheme& scheme,
                                       const Pattern& p) {
  Pattern out = p;
  // Chain-node cache: (original node, class label) -> pattern node, so
  // several lifted edges of one node share the inserted isa chain.
  std::map<std::pair<NodeId, Symbol>, NodeId> chain;

  for (NodeId n : p.AllNodes()) {
    const Symbol own_label = p.LabelOf(n);
    for (const auto& [edge, target] : p.OutEdges(n)) {
      const Symbol target_label = p.LabelOf(target);
      GOOD_ASSIGN_OR_RETURN(
          auto path, FindLiftingPath(scheme, own_label, edge, target_label));
      if (path.empty()) continue;  // Licensed as drawn.
      // Walk / build the isa chain upward from n.
      NodeId cur = n;
      for (const auto& [isa_edge, super] : path) {
        auto key = std::make_pair(n, super);
        auto it = chain.find(key);
        if (it != chain.end()) {
          cur = it->second;
          continue;
        }
        GOOD_ASSIGN_OR_RETURN(NodeId up, out.AddObjectNode(scheme, super));
        GOOD_RETURN_NOT_OK(out.AddEdge(scheme, cur, isa_edge, up));
        chain.emplace(key, up);
        cur = up;
      }
      // Move the edge to the top of the chain.
      GOOD_RETURN_NOT_OK(out.RemoveEdge(n, edge, target));
      GOOD_RETURN_NOT_OK(out.AddEdge(scheme, cur, edge, target));
    }
  }
  return out;
}

Result<VirtualView> BuildVirtualView(const Scheme& scheme,
                                     const Instance& instance) {
  VirtualView view{scheme, instance};

  // Scheme closure: every triple of a superclass is also available on
  // the subclass; iterate for multi-level hierarchies.
  bool scheme_changed = true;
  while (scheme_changed) {
    scheme_changed = false;
    std::vector<schema::Triple> triples = view.scheme.triples();
    for (const schema::Triple& t : triples) {
      for (Symbol label : view.scheme.object_labels()) {
        for (const auto& [isa_edge, super] :
             view.scheme.DirectSuperclasses(label)) {
          (void)isa_edge;
          if (super != t.source) continue;
          if (!view.scheme.HasTriple(label, t.edge, t.target)) {
            GOOD_RETURN_NOT_OK(
                view.scheme.EnsureTriple(label, t.edge, t.target));
            scheme_changed = true;
          }
        }
      }
    }
  }

  // Instance closure: copy the isa-target's outgoing edges down to the
  // isa-source. Functional properties already present on the source take
  // precedence (the subclass overrides); inconsistent multivalued
  // targets are skipped rather than failing the view.
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId sub : view.instance.AllNodes()) {
      // Copy both edge sequences out of their views: AddEdge below
      // appends to sub's out-lists, which would invalidate live
      // iterators.
      const graph::OutEdgeView sub_view = view.instance.OutEdges(sub);
      const std::vector<std::pair<Symbol, NodeId>> sub_out(sub_view.begin(),
                                                           sub_view.end());
      for (const auto& [edge, super] : sub_out) {
        if (!view.scheme.IsIsaTriple(view.instance.LabelOf(sub), edge,
                                     view.instance.LabelOf(super))) {
          continue;
        }
        const graph::OutEdgeView super_view = view.instance.OutEdges(super);
        const std::vector<std::pair<Symbol, NodeId>> super_out(
            super_view.begin(), super_view.end());
        for (const auto& [prop, target] : super_out) {
          if (view.instance.HasEdge(sub, prop, target)) continue;
          if (!view.scheme.HasTriple(view.instance.LabelOf(sub), prop,
                                     view.instance.LabelOf(target))) {
            continue;
          }
          if (view.scheme.IsFunctionalEdgeLabel(prop) &&
              view.instance.FunctionalTarget(sub, prop).has_value()) {
            continue;  // Own property wins.
          }
          Status s = view.instance.AddEdge(view.scheme, sub, prop, target);
          if (s.ok()) {
            changed = true;
          } else if (!s.IsFailedPrecondition()) {
            return s;
          }
        }
      }
    }
  }
  return view;
}

}  // namespace good::macros
