// RAM-budget planning: drop-after-last-use under a width bound.
//
// The min-cut recomputation planner (core/recompute.h) decides *where*
// results come from (load vs compute vs prune) to minimize time; it says
// nothing about how many of them are resident at once. The legacy executor
// kept every produced result alive until the end of the iteration, so peak
// resident bytes were unplanned — a workflow whose intermediates sum past
// RAM could not run on one box no matter what the store budget was.
//
// This pass adds the missing dimension with one rule: given per-node
// memory estimates and a byte budget, it fixes an execution order that
// grows the resident set least, releases every intermediate right after
// its last computing consumer ran, and narrows the parallel width until
// the planned peak resident bytes fit the budget. Planning runs entirely
// on the cost model (a simulation of the executor's own release rule), so
// a plan can be validated deterministically before any real allocation
// happens. A budget that drop-after-last-use cannot meet even sequentially
// yields an infeasible width-1 plan that the executor runs best-effort.
//
// Deliberate drop-and-recompute of long-lived intermediates (the classic
// checkpoint/recompute trade) is not planned: on the census pipeline it
// never lowered the measured peak (docs/ARCHITECTURE.md, "Memory
// planning").
#ifndef HELIX_CORE_MEMORY_PLANNER_H_
#define HELIX_CORE_MEMORY_PLANNER_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "core/recompute.h"
#include "graph/dag.h"

namespace helix {
namespace core {

/// Inputs to one memory-planning pass. All vectors are indexed by DAG node
/// id and must have exactly dag->num_nodes() entries.
struct MemoryProblem {
  const graph::Dag* dag = nullptr;
  /// The recomputation plan's states; kPrune nodes neither run nor hold
  /// memory (the rare load-failure fallback path is not modeled).
  std::vector<NodeState> states;
  std::vector<bool> is_output;
  /// Estimated resident bytes of each node's output while it is held
  /// (`output_mem`): measured store-entry size where available, stats
  /// history otherwise, a configured default when never seen.
  std::vector<int64_t> output_bytes;
  /// Extra transient bytes alive only while the node is being (re)produced
  /// (`run_mem` beyond inputs+output): the serialization/deserialization
  /// buffer for store traffic is the dominant term today.
  std::vector<int64_t> transient_bytes;
  /// Planned peak must stay at or under this; <= 0 disables budget
  /// planning (the plan still reports the unbudgeted peak estimate).
  int64_t budget_bytes = 0;
  /// Parallel width the executor would like to run at; the plan narrows it
  /// when concurrent working sets would widen the peak past budget.
  int requested_width = 1;
};

/// Output of PlanMemory. The executor follows `order` (sequential mode) and
/// releases each intermediate after its last use.
struct MemoryPlan {
  /// True iff budget planning was requested (budget_bytes > 0).
  bool enabled = false;
  /// True iff planned_peak_bytes <= budget (always true when disabled).
  /// An infeasible plan is still the best found; the executor proceeds
  /// best-effort rather than failing the iteration.
  bool feasible = true;
  /// Active (non-pruned) nodes in execution order: a topological order
  /// chosen to minimize resident growth (greedy smallest-footprint-first,
  /// deterministic tie-break on node id).
  std::vector<int> order;
  /// Peak resident bytes under this plan: drop-after-last-use, plus one
  /// more working set per extra parallel worker when max_width > 1. With
  /// the budget disabled, the keep-everything peak.
  int64_t planned_peak_bytes = 0;
  /// Peak of the legacy keep-everything executor, for comparison curves.
  int64_t unbudgeted_peak_bytes = 0;
  /// Parallel width the executor may use: the requested width, narrowed
  /// until the planned peak fits (1 when even sequential does not fit).
  int max_width = 1;
};

/// Plans memory for one iteration. Deterministic: identical inputs yield
/// identical plans. InvalidArgument on shape mismatches.
Result<MemoryPlan> PlanMemory(const MemoryProblem& problem);

}  // namespace core
}  // namespace helix

#endif  // HELIX_CORE_MEMORY_PLANNER_H_
