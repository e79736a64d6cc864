/// \file scrub.h
/// \brief Online integrity scrubbing of a live (scheme, instance) pair.
///
/// Instance::Validate re-verifies the paper's four instance conditions
/// in one uninterruptible pass with private-member access. A
/// production system wants the same audit as a background chore that
/// (a) runs against the public query surface — so it also catches the
/// structures that hold the same facts twice (out- vs. in-adjacency,
/// edge hash set, printable dedup map, label index) drifting out of
/// line — and (b) can be sliced under a common::Deadline so it steals
/// bounded time from serving. The Scrubber walks nodes in id order,
/// cross-checking per node:
///
///  - scheme conformance: node label in OL ∪ POL, print values only on
///    printable labels and inside their domain, every edge licensed by
///    a P-triple, functional-edge uniqueness, equal successor labels;
///  - adjacency agreement: every out-edge present in the edge hash set
///    (HasEdge) and mirrored exactly once in the target's in-list
///    (InSources), and every in-edge mirrored exactly once in the
///    source's out-list (OutTargets);
///  - printable dedup: a valued printable node is exactly the node the
///    (label, value) dedup map resolves to.
///
/// Whole-instance totals (alive-node count, edge count, per-label node
/// census vs. the label index) are checked when a pass completes. A
/// pass sliced across deadline expiries accumulates totals across its
/// slices, so those totals are exact only if the instance was not
/// mutated between slices; the per-node checks are sound regardless
/// (each slice sees a consistent point-in-time node).
///
/// Problems are *reported*, not returned as errors: the scrub status
/// only says whether the pass ran to completion (OK) or was cut off
/// (kDeadlineExceeded / kCancelled). Corruption findings land in
/// ScrubReport::problems so one call can report all of them.

#ifndef GOOD_STORAGE_SCRUB_H_
#define GOOD_STORAGE_SCRUB_H_

#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/deadline.h"
#include "common/interner.h"
#include "common/result.h"
#include "graph/instance.h"
#include "schema/scheme.h"

namespace good::storage {

/// \brief Budget knobs for one Scrubber::Step call.
struct ScrubOptions {
  /// Polled every few nodes; expiry pauses the pass resumably.
  common::Deadline deadline;
  /// Cap on nodes examined by this call; 0 means unlimited.
  size_t max_nodes = 0;
};

/// \brief Scrub totals for the nodes of one class (one snapshot
/// partition's worth of the instance — the unit recovery quarantines).
struct ClassScrubOutcome {
  size_t nodes_scrubbed = 0;
  size_t edges_scrubbed = 0;
  /// Problems found while scrubbing this class's nodes. A nonzero count
  /// here names which partition a red scrub implicates, matching the
  /// per-partition granularity of RecoveryReport.
  size_t problems = 0;
};

/// \brief Cumulative findings of a scrub pass.
struct ScrubReport {
  size_t nodes_scrubbed = 0;
  size_t edges_scrubbed = 0;
  /// True once the pass (including the totals checks) finished.
  bool complete = false;
  /// Human-readable descriptions of every inconsistency found.
  std::vector<std::string> problems;
  /// Per-class (= per-partition) outcomes, keyed by class name and
  /// ordered for deterministic reporting.
  std::map<std::string, ClassScrubOutcome> per_class;

  bool clean() const { return problems.empty(); }
};

/// \brief A resumable integrity pass over one (scheme, instance) pair.
/// Neither is owned; both must outlive the scrubber.
class Scrubber {
 public:
  Scrubber(const schema::Scheme* scheme, const graph::Instance* instance)
      : scheme_(scheme), instance_(instance) {}

  /// Scrubs from the saved cursor until the pass completes, the
  /// deadline expires, or max_nodes is reached. Returns OK when the
  /// pass is complete, kDeadlineExceeded / kCancelled when paused by
  /// the deadline, and OK with report().complete == false when paused
  /// by max_nodes. Findings go to report().problems either way.
  Status Step(const ScrubOptions& options = {});

  const ScrubReport& report() const { return report_; }

  /// The next node id a resumed Step will examine. Lets a chore
  /// scheduler persist its position across slices (or report how far a
  /// cut-off pass got); UINT32_MAX once the walk itself is done.
  uint32_t cursor() const { return cursor_; }

  /// Starts a fresh pass (clears cursor, totals, and findings).
  void Reset();

 private:
  void ScrubNode(graph::NodeId node);

  const schema::Scheme* scheme_;
  const graph::Instance* instance_;
  ScrubReport report_;
  /// Next node id to examine (dense ids make this a resume point).
  uint32_t cursor_ = 0;
  /// Per-label node census accumulated across slices of the current
  /// pass (the node and edge totals are the report's own counters).
  std::unordered_map<Symbol, size_t> label_census_;
};

/// \brief One-shot scrub: a full pass (or as much as the deadline
/// allows — check report.complete).
ScrubReport Scrub(const schema::Scheme& scheme,
                  const graph::Instance& instance,
                  const ScrubOptions& options = {});

}  // namespace good::storage

#endif  // GOOD_STORAGE_SCRUB_H_
