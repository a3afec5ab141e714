// The HELIX execution engine (paper Section 2.3).
//
// Executes a compiled workflow DAG: slices away operators that do not feed
// outputs, plans {load, compute, prune} states with the recomputation
// optimizer against the materialization store, runs operators as their
// dependencies resolve, and — immediately as each computed result becomes
// available — asks the materialization policy whether to persist it.
// Runtime statistics (compute cost, size, load cost) are recorded in the
// CostStatsRegistry for planning in subsequent iterations.
//
// Two execution strategies share all planning and bookkeeping:
//   * sequential — the classic topological-order loop; used when the
//     effective parallelism is 1 and always under a virtual clock
//     (deterministic simulated timing);
//   * parallel — a thread-pool DAG scheduler (runtime/parallel_scheduler)
//     that starts a node the moment its last parent finishes.
// Both write materializations off the compute path through one background
// writer (runtime/async_materializer) and drain it, helping, at the end of
// the iteration.
#ifndef HELIX_CORE_EXECUTOR_H_
#define HELIX_CORE_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/materialization.h"
#include "core/recompute.h"
#include "core/workflow_dag.h"
#include "dataflow/data_collection.h"
#include "storage/cost_stats.h"
#include "storage/store.h"

namespace helix {
namespace obs {
class MetricsRegistry;
class TraceCollector;
}  // namespace obs

namespace runtime {
class AsyncMaterializer;
class SignatureInflightTable;
}  // namespace runtime

namespace core {

/// Which planner assigns node states.
enum class PlannerKind : uint8_t {
  /// Min-cut OPT (HELIX).
  kOptimal = 0,
  /// Load whatever is loadable (DeepDive-style reuse).
  kNaiveReuse = 1,
  /// Recompute everything needed (KeystoneML / unoptimized HELIX).
  kNoReuse = 2,
  /// Myopic heuristic (ablation).
  kGreedy = 3,
};

const char* PlannerKindToString(PlannerKind k);

/// Executor configuration for one iteration.
struct ExecutionOptions {
  Clock* clock = SystemClock::Default();
  /// Materialization store; nullptr disables both reuse and persistence.
  storage::IntermediateStore* store = nullptr;
  /// Cross-iteration statistics; nullptr disables stat reuse (costs are
  /// then estimated pessimistically).
  storage::CostStatsRegistry* stats = nullptr;
  /// Materialization decision rule; nullptr = never materialize.
  const MaterializationPolicy* mat_policy = nullptr;
  PlannerKind planner = PlannerKind::kOptimal;
  /// Apply program slicing before planning.
  bool enable_slicing = true;
  /// Iteration number (for stats bookkeeping / reports).
  int64_t iteration = 0;
  /// Fallback compute-cost estimate for never-seen operators.
  int64_t default_compute_estimate_micros = 1000000;
  /// RAM budget for this iteration's resident intermediates; 0 disables
  /// memory planning (legacy behavior: every produced result stays
  /// resident until the iteration ends). When set, the executor plans an
  /// execution order, drops intermediates after their last use, and
  /// narrows the parallel width until the planned peak fits (see
  /// core/memory_planner.h). The budget is a planning target over
  /// *estimated* sizes, not an enforced allocator limit; a plan that does
  /// not fit even sequentially executes best-effort.
  int64_t memory_budget_bytes = 0;
  /// Check every loaded envelope against the CRC the store recorded at
  /// Put (IntermediateStore::Get's paranoid mode): defense against a
  /// stored payload silently swapped for another valid one.
  bool paranoid_checks = false;
  /// DAG-level parallelism: 0 = one worker per hardware thread, 1 = the
  /// exact sequential legacy behavior, N > 1 = at most N nodes in flight.
  /// Virtual clocks force sequential execution regardless — simulated
  /// time advances have no meaningful interleaving across threads, and
  /// the benchmark/virtual-clock paths rely on deterministic charging.
  int max_parallelism = 0;
  /// Cross-session block-and-share table (service layer; nullptr = off).
  /// When set, a node about to be computed first registers its signature:
  /// if another session is already computing it, this execution blocks and
  /// receives the shared result (recorded as a load, `NodeExecution::
  /// shared`); owners also re-check the store before computing, closing
  /// the plan-staleness window where a sibling session materialized the
  /// result after this iteration was planned. Requires a real clock
  /// (cross-session blocking has no meaning in simulated time).
  runtime::SignatureInflightTable* inflight = nullptr;
  /// Background writer for materializations: a Session's own, or the
  /// service's shared one; nullptr = the executor creates a private one
  /// for this call. All materializations of this execution are enqueued
  /// tagged with `materializer_owner` and drained per-owner at the end of
  /// the iteration (under a virtual clock, right after each enqueue), so
  /// concurrent sessions sharing one writer never steal or drop each
  /// other's outcomes.
  runtime::AsyncMaterializer* materializer = nullptr;
  /// Owner tag for requests on `materializer` (session id).
  uint64_t materializer_owner = 0;
  /// Optional telemetry registry. When set, the executor maintains
  /// `executor.nodes_{computed,loaded,shared,pruned,materialized}`
  /// counters and `executor.{node_compute,node_load,iteration}_micros`
  /// histograms, plus `materializer.drain_wait_micros` (the
  /// end-of-iteration drain, ExecutionReport::write_wait_micros) when
  /// materializing. Must outlive the execution.
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional span recorder. When set, the executor records one span per
  /// non-pruned node (name, signature, outcome, bytes) plus one
  /// iteration-level span, all timestamped off `clock` — fully
  /// deterministic under a VirtualClock. Spans are recorded post-hoc
  /// during report assembly, so tracing adds nothing to the node hot
  /// path. Must outlive the execution.
  obs::TraceCollector* trace = nullptr;
  /// Trace lane for this execution's spans (Chrome trace "pid"; the
  /// service uses the session id so concurrent sessions get separate
  /// lanes).
  uint64_t trace_pid = 0;
};

/// The worker count Execute will actually use under `options` for a DAG of
/// `num_nodes` nodes (exposed for tests and benchmarks).
int ResolveParallelism(const ExecutionOptions& options, int num_nodes);

/// Per-node record of what the executor did.
struct NodeExecution {
  std::string name;
  Phase phase = Phase::kDataPreprocessing;
  NodeState state = NodeState::kPrune;
  bool sliced = false;           // pruned by the slicer (vs. by the planner)
  /// Result was served by a concurrent session's in-flight computation
  /// (block-and-share); counted under num_loaded, flagged for the
  /// service's cross-session metrics.
  bool shared = false;
  uint64_t signature = 0;        // cumulative signature
  /// Clock reading when work on this node began (0 for pruned nodes);
  /// start_micros + cost_micros bounds the node's span on the timeline.
  int64_t start_micros = 0;
  int64_t cost_micros = 0;       // compute or load cost actually charged
  int64_t output_bytes = 0;      // serialized size (computed/loaded nodes)
  bool materialized = false;     // written to the store this iteration
  /// Writer-side cost of the write, in every strategy: the store's
  /// measured backend write time (IntermediateStore::Put's
  /// write_micros_out), which ran off the compute path; under a virtual
  /// clock, the declared synthetic write cost charged instead. It is not
  /// part of cost_micros, and the part of it the iteration waited for is
  /// in ExecutionReport::write_wait_micros.
  int64_t materialize_micros = 0;
  /// Memory planning dropped this node's result after its last use at
  /// least once (budget mode only); its span is tagged `dropped`.
  bool dropped = false;
  /// Times this node was re-produced (reloaded or recomputed) after a
  /// drop, which only a load-failure fallback demands; the re-production
  /// costs are summed into ExecutionReport::recompute_extra_micros, and
  /// cost_micros reflects the most recent production.
  int recomputes = 0;
};

/// Human/telemetry label for what actually happened to a node:
/// "computed", "loaded", "shared" (loaded from a sibling session's
/// in-flight computation), "sliced" (removed by the slicer) or "pruned"
/// (removed by the planner). Used for trace span tags and plan_viz.
const char* NodeOutcomeString(const NodeExecution& node);

/// Result of executing one iteration.
struct ExecutionReport {
  /// Wall (or virtual) time of the whole iteration, including
  /// materialization writes and planning.
  int64_t total_micros = 0;
  /// Time spent inside the recomputation planner.
  int64_t planning_micros = 0;
  /// Sum of materialization write costs (NodeExecution::materialize_micros).
  int64_t materialize_micros = 0;
  /// Time the end-of-iteration drain of the writer took: the write tail
  /// the iteration waited for (and helped write), included in
  /// total_micros. 0 under a virtual clock, which drains after each
  /// enqueue instead.
  int64_t write_wait_micros = 0;
  std::vector<NodeExecution> nodes;
  /// Output name -> result.
  std::map<std::string, dataflow::DataCollection> outputs;

  int num_computed = 0;
  int num_loaded = 0;
  int num_pruned = 0;
  int num_materialized = 0;
  /// Results served by a concurrent session's in-flight computation
  /// (subset of num_loaded).
  int num_shared = 0;

  // --- Memory planning (see core/memory_planner.h) ------------------------
  /// Planned peak resident bytes of this iteration. With
  /// memory_budget_bytes unset this is the keep-everything estimate; with
  /// it set, the drop-after-last-use estimate at the chosen width.
  int64_t planned_peak_bytes = 0;
  /// Keep-everything peak estimate (what the legacy executor would hold).
  int64_t unbudgeted_peak_bytes = 0;
  /// Measured peak resident bytes: the high-water mark of the results this
  /// execution actually held at once (every production adds its measured
  /// size, every drop/release subtracts it). Unlike planned_peak_bytes —
  /// an estimate that degrades to configured defaults on a cold iteration
  /// — this is ground truth for the sizes, including real parallel
  /// overlap. Serialization/deserialization transients are not included.
  int64_t peak_resident_bytes = 0;
  /// True iff the memory plan fit the budget (trivially true when memory
  /// planning is off). An infeasible plan still executed best-effort.
  bool memory_feasible = true;
  /// Measured cost of re-productions actually performed (reloads +
  /// recomputes of intermediates dropped after their last planned use and
  /// demanded again by a load-failure fallback) — reported, never hidden.
  int64_t recompute_extra_micros = 0;
  /// Nodes whose result was dropped at least once.
  int num_dropped = 0;
  /// Re-productions actually performed.
  int num_recomputed_extra = 0;

  /// Node record by name (nullptr if absent).
  const NodeExecution* FindNode(const std::string& name) const;
};

/// Executes one iteration of `dag` under `options`.
Result<ExecutionReport> Execute(const WorkflowDag& dag,
                                const ExecutionOptions& options);

}  // namespace core
}  // namespace helix

#endif  // HELIX_CORE_EXECUTOR_H_
