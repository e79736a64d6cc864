/// \file operations.h
/// \brief The five basic GOOD operations (Section 3 of the paper).
///
/// Each operation consists of a *source pattern* J plus a designation of
/// what to add or delete (the bold / double-outlined part of the
/// figures). Applying an operation to a database (S, I):
///  1. computes ALL matchings of J in I (against the pre-state — the
///     paper stresses this set-oriented, parallel application as the key
///     difference from graph grammars),
///  2. minimally extends the scheme S so the result pattern J' is a
///     pattern over it (NA / EA / AB only),
///  3. transforms I per the operation's declarative definition, realized
///     by the procedural algorithm of Figure 9 and its analogues.
/// All operations are deterministic up to the choice of new object ids.

#ifndef GOOD_OPS_OPERATIONS_H_
#define GOOD_OPS_OPERATIONS_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/result.h"
#include "common/status.h"
#include "graph/instance.h"
#include "pattern/matcher.h"
#include "schema/scheme.h"

namespace good::ops {

using graph::NodeId;
using pattern::Pattern;

/// \brief A predicate over matchings — the Section 4.1 "additional
/// predicates on printable objects" extension (QBE-style condition
/// boxes, possibly invoking external functions). An operation with a
/// filter applies only to the matchings the filter accepts. The filter
/// receives the instance being matched so it can express dynamic
/// conditions (e.g. crossed-edge absence checks that must see edges
/// added by earlier fixpoint rounds, Figure 29).
///
/// Filters return Result<bool> so a filter that itself searches the
/// instance (negation filters probe edges or run a matcher) can
/// surface kDeadlineExceeded/kCancelled instead of masking an interrupt
/// as "rejected". Plain predicate lambdas returning bool convert
/// implicitly — only interrupt-aware filters need to spell Result out.
using MatchFilter = std::function<Result<bool>(const pattern::Matching&,
                                               const graph::Instance&)>;

/// \brief Fixpoint evaluation strategy for the drivers that re-apply
/// additive operations to convergence (rules::RuleEngine,
/// macros::RecursiveEdgeAddition). Lives here — the lowest layer both
/// drivers share — so the macro layer need not depend on rules.
enum class EvalMode {
  /// Re-enumerate every matching of every condition in full each round.
  kNaive,
  /// Semi-naive: from a rule's second evaluation on, only enumerate
  /// matchings that bind at least one pattern node/edge into the delta
  /// of instance growth since its previous evaluation (read off the
  /// undo journal), falling back to full re-evaluation when the delta
  /// is a large fraction of the instance. Exact for the additive
  /// rule/macro workloads because NA/EA are idempotent and crossed
  /// (negated) conditions — which still see the full current database —
  /// are anti-monotone under growth: a matching rejected once stays
  /// rejected, and an accepted one already fired.
  kIncremental,
};

/// \brief Mutation counters reported by Apply.
struct ApplyStats {
  size_t matchings = 0;
  size_t nodes_added = 0;
  size_t edges_added = 0;
  size_t nodes_deleted = 0;
  size_t edges_deleted = 0;
  /// WAL append attempts that failed transiently and were retried by
  /// storage::Database::Apply before the record landed. Zero outside
  /// the storage layer.
  size_t wal_retries = 0;
  /// Matcher search-effort counters for the operation's pattern
  /// evaluation (candidates scanned, feasibility rejections, backtracks,
  /// per-depth fanout).
  pattern::MatchStats match;

  ApplyStats& operator+=(const ApplyStats& other) {
    matchings += other.matchings;
    nodes_added += other.nodes_added;
    edges_added += other.edges_added;
    nodes_deleted += other.nodes_deleted;
    edges_deleted += other.edges_deleted;
    wal_retries += other.wal_retries;
    match += other.match;
    return *this;
  }
};

/// \brief Common base of the five operations: holds the source pattern
/// and an optional matching filter (the Section 4.1 predicate
/// extension).
class PatternOperation {
 public:
  const Pattern& source_pattern() const { return pattern_; }

  /// Restricts the operation to the matchings the filter accepts.
  void set_filter(MatchFilter filter) { filter_ = std::move(filter); }
  const MatchFilter& filter() const { return filter_; }

  /// Worker threads for pattern matching; 0 (the default) keeps it
  /// serial. Parallel matching yields the serial matching sequence, and
  /// applying the matchings is always serial, so the resulting database
  /// and ApplyStats are identical to a serial application
  /// (ApplyStats::match.workers_used aside).
  void set_num_threads(size_t num_threads) { num_threads_ = num_threads; }
  size_t num_threads() const { return num_threads_; }

  /// Minimum depth-0 candidate count before parallel matching engages;
  /// see pattern::MatchOptions::parallel_threshold.
  void set_parallel_threshold(size_t threshold) {
    parallel_threshold_ = threshold;
  }
  size_t parallel_threshold() const { return parallel_threshold_; }

  /// Semi-naive delta restriction (not owned; may be null, the
  /// default): when set, pattern matching only enumerates matchings
  /// that bind at least one pattern node/edge into the delta — see
  /// pattern::MatchOptions::delta for the exact contract. The filter
  /// (negation included) still sees the full current database.
  void set_delta(const pattern::DeltaSet* delta) { delta_ = delta; }
  const pattern::DeltaSet* delta() const { return delta_; }

 protected:
  explicit PatternOperation(Pattern pattern) : pattern_(std::move(pattern)) {}

  /// All matchings of the source pattern, filtered. When `stats` is
  /// non-null, matcher search-effort counters accumulate into it.
  /// Honors num_threads()/parallel_threshold(). A non-null armed
  /// `deadline` interrupts enumeration with kDeadlineExceeded /
  /// kCancelled.
  Result<std::vector<pattern::Matching>> Matchings(
      const graph::Instance& instance, pattern::MatchStats* stats = nullptr,
      const common::Deadline* deadline = nullptr) const;

  Pattern pattern_;
  MatchFilter filter_;
  size_t num_threads_ = 0;
  size_t parallel_threshold_ = pattern::kDefaultParallelThreshold;
  const pattern::DeltaSet* delta_ = nullptr;
};

/// \brief Node addition NA[J, K, {(α1, m1), ..., (αn, mn)}]
/// (Section 3.1, procedural semantics in Figure 9).
///
/// For each matching i of J, ensures a K-labeled node with functional
/// αℓ-edges to i(mℓ) exists, creating it (with its edges) if not. The
/// "if not exists" check makes the operation establish a one-to-one
/// correspondence between *restrictions of matchings to {m1..mn}* and
/// K-nodes — four matchings that agree on all bold-edge targets yield a
/// single new node. Node additions never introduce printable nodes and
/// only introduce functional edges (paper invariants; enforced here).
class NodeAddition : public PatternOperation {
 public:
  /// `edges` are the bold (label, pattern-node) pairs; labels must be
  /// pairwise distinct.
  NodeAddition(Pattern pattern, Symbol new_label,
               std::vector<std::pair<Symbol, NodeId>> edges)
      : PatternOperation(std::move(pattern)),
        new_label_(new_label),
        edges_(std::move(edges)) {}

  /// Applies the operation all-or-nothing: on any failure (including a
  /// deadline interrupt) the scheme and instance are rolled back to
  /// their pre-call state via an ops::Transaction scope.
  Status Apply(schema::Scheme* scheme, graph::Instance* instance,
               ApplyStats* stats = nullptr,
               const common::Deadline* deadline = nullptr) const;

  Symbol new_label() const { return new_label_; }
  const std::vector<std::pair<Symbol, NodeId>>& edges() const {
    return edges_;
  }

 private:
  Symbol new_label_;
  std::vector<std::pair<Symbol, NodeId>> edges_;
};

/// \brief One bold edge of an edge addition: add an `label`-edge from
/// the image of `source` to the image of `target`. `functional` selects
/// the label kind when the label is new to the scheme (single- vs
/// double-arrow in the figures); if the label already exists its
/// registered kind must agree.
struct EdgeSpec {
  NodeId source;
  Symbol label;
  NodeId target;
  bool functional = false;
};

/// \brief Edge addition EA[J, {(m1, α1, m1'), ...}] (Section 3.2).
///
/// For each matching i, adds edges (i(mk), αk, i(mk')). The result is
/// undefined — Apply returns FailedPrecondition and leaves the database
/// untouched — when the additions would produce distinct same-labeled
/// edges from one node that are functional or end in unequally-labeled
/// nodes (the run-time consistency check the paper prescribes, static
/// checking being undecidable).
class EdgeAddition : public PatternOperation {
 public:
  EdgeAddition(Pattern pattern, std::vector<EdgeSpec> edges)
      : PatternOperation(std::move(pattern)), edges_(std::move(edges)) {}

  /// Applies the operation all-or-nothing: on any failure (including a
  /// deadline interrupt) the scheme and instance are rolled back to
  /// their pre-call state via an ops::Transaction scope.
  Status Apply(schema::Scheme* scheme, graph::Instance* instance,
               ApplyStats* stats = nullptr,
               const common::Deadline* deadline = nullptr) const;

  const std::vector<EdgeSpec>& edges() const { return edges_; }

 private:
  std::vector<EdgeSpec> edges_;
};

/// \brief Node deletion ND[J, m] (Section 3.3).
///
/// Removes every node i(m) over all matchings i, together with all
/// incident edges (maximal-subinstance semantics). The scheme is
/// unchanged.
class NodeDeletion : public PatternOperation {
 public:
  NodeDeletion(Pattern pattern, NodeId target)
      : PatternOperation(std::move(pattern)), target_(target) {}

  /// Applies the operation all-or-nothing: on any failure (including a
  /// deadline interrupt) the scheme and instance are rolled back to
  /// their pre-call state via an ops::Transaction scope.
  Status Apply(schema::Scheme* scheme, graph::Instance* instance,
               ApplyStats* stats = nullptr,
               const common::Deadline* deadline = nullptr) const;

  NodeId target() const { return target_; }

 private:
  NodeId target_;
};

/// \brief One double-outlined edge of an edge deletion.
struct EdgeRef {
  NodeId source;
  Symbol label;
  NodeId target;
};

/// \brief Edge deletion ED[J, {(m1, α1, m1'), ...}] (Section 3.4).
///
/// Removes the image edges over all matchings. The referenced edges must
/// be edges of the source pattern (per the formal definition). The
/// scheme is unchanged.
class EdgeDeletion : public PatternOperation {
 public:
  EdgeDeletion(Pattern pattern, std::vector<EdgeRef> edges)
      : PatternOperation(std::move(pattern)), edges_(std::move(edges)) {}

  /// Applies the operation all-or-nothing: on any failure (including a
  /// deadline interrupt) the scheme and instance are rolled back to
  /// their pre-call state via an ops::Transaction scope.
  Status Apply(schema::Scheme* scheme, graph::Instance* instance,
               ApplyStats* stats = nullptr,
               const common::Deadline* deadline = nullptr) const;

  const std::vector<EdgeRef>& edges() const { return edges_; }

 private:
  std::vector<EdgeRef> edges_;
};

/// \brief Abstraction AB[J, n, K, α, β] (Section 3.5).
///
/// Groups the matched nodes i(n) into equivalence classes by their
/// β-successor sets (computed in the pre-state) and ensures one
/// K-labeled node per class with multivalued α-edges to exactly the
/// class members — the duplicate eliminator that makes the nested
/// relational algebra expressible (Section 4.3). A class whose exact
/// α-neighbourhood is already served by an existing K-node is skipped,
/// which makes abstraction idempotent. Always well-defined.
class Abstraction : public PatternOperation {
 public:
  Abstraction(Pattern pattern, NodeId node, Symbol set_label,
              Symbol member_edge, Symbol grouping_edge)
      : PatternOperation(std::move(pattern)),
        node_(node),
        set_label_(set_label),
        member_edge_(member_edge),
        grouping_edge_(grouping_edge) {}

  /// Applies the operation all-or-nothing: on any failure (including a
  /// deadline interrupt) the scheme and instance are rolled back to
  /// their pre-call state via an ops::Transaction scope.
  Status Apply(schema::Scheme* scheme, graph::Instance* instance,
               ApplyStats* stats = nullptr,
               const common::Deadline* deadline = nullptr) const;

  NodeId node() const { return node_; }
  Symbol set_label() const { return set_label_; }
  Symbol member_edge() const { return member_edge_; }
  Symbol grouping_edge() const { return grouping_edge_; }

 private:
  NodeId node_;       // n: the abstracted pattern node
  Symbol set_label_;  // K: label of the created set objects
  Symbol member_edge_;   // α: multivalued edge from set to members
  Symbol grouping_edge_; // β: multivalued property defining equality
};

}  // namespace good::ops

#endif  // GOOD_OPS_OPERATIONS_H_
