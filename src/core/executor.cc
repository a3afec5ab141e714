#include "core/executor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <mutex>
#include <optional>
#include <thread>

#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"
#include "core/memory_planner.h"
#include "core/program_slicer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/async_materializer.h"
#include "runtime/inflight_table.h"
#include "runtime/parallel_scheduler.h"
#include "runtime/thread_pool.h"

namespace helix {
namespace core {

const char* PlannerKindToString(PlannerKind k) {
  switch (k) {
    case PlannerKind::kOptimal:
      return "optimal";
    case PlannerKind::kNaiveReuse:
      return "naive-reuse";
    case PlannerKind::kNoReuse:
      return "no-reuse";
    case PlannerKind::kGreedy:
      return "greedy";
  }
  return "?";
}

const char* NodeOutcomeString(const NodeExecution& node) {
  if (node.sliced) {
    return "sliced";
  }
  switch (node.state) {
    case NodeState::kCompute:
      return "computed";
    case NodeState::kLoad:
      return node.shared ? "shared" : "loaded";
    case NodeState::kPrune:
      return "pruned";
  }
  return "?";
}

const NodeExecution* ExecutionReport::FindNode(const std::string& name) const {
  for (const NodeExecution& n : nodes) {
    if (n.name == name) {
      return &n;
    }
  }
  return nullptr;
}

int ResolveParallelism(const ExecutionOptions& options, int num_nodes) {
  if (options.clock != nullptr && options.clock->is_virtual()) {
    return 1;
  }
  int p = options.max_parallelism;
  if (p == 0) {
    p = static_cast<int>(std::thread::hardware_concurrency());
  }
  p = std::max(1, p);
  return std::min(p, std::max(1, num_nodes));
}

namespace {

// Memory-planning size estimate for an output never measured (no store
// entry, no stats history).
constexpr int64_t kDefaultMemEstimateBytes = 4LL << 20;

// Mutable execution context shared by the sequential loop, the parallel
// scheduler's workers, and the fallback path.
//
// Concurrency contract (parallel mode): each node's task writes only its
// own results/records slot; a dependent node's reads are ordered after
// those writes by the scheduler's internal synchronization. Everything
// cross-node goes through the atomics / mutexes below. In sequential mode
// the mutexes are uncontended and the code path is identical.
struct ExecState {
  const WorkflowDag* dag;
  const ExecutionOptions* opts;
  std::vector<dataflow::DataCollection> results;
  std::vector<int64_t> compute_estimate;  // planner's view, per node
  // -1 until computed this iteration. Atomic: pruned ancestors computed
  // under the fallback path may race with cost summation elsewhere.
  std::vector<std::atomic<int64_t>> measured_compute;
  std::vector<NodeExecution> records;
  int64_t materialize_total = 0;

  // Guards the (thread-compatible) CostStatsRegistry and materialize_total.
  std::mutex stats_mu;
  // Serializes on-demand recomputation of plan-pruned ancestors after a
  // failed load: two concurrent fallbacks may share pruned ancestors.
  std::mutex fallback_mu;
  // Non-null whenever materialization is enabled: every Put runs through
  // this writer (the caller's, or one private to this execution).
  runtime::AsyncMaterializer* materializer = nullptr;

  // --- Memory planning (budget mode; see core/memory_planner.h) ---------
  // True iff a memory budget is active this iteration.
  bool budgeted = false;
  // 1 once the node produced a result this iteration; an empty slot for a
  // produced node means it was dropped after its last use, and a later
  // demand (only the load-failure fallback makes one) must re-produce it.
  // char, not bool: parallel-mode workers write their own element.
  std::vector<char> produced_once;
  // Plan-time loadability (store held the signature when planning ran):
  // re-production of a dropped node reloads instead of recomputing.
  std::vector<char> loadable;
  // Measured cost of re-productions of dropped intermediates (reloads +
  // recomputes) and their count.
  std::atomic<int64_t> extra_micros{0};
  std::atomic<int> extra_productions{0};

  // --- Measured resident accounting --------------------------------------
  // Bytes of results currently held in `results`, and the iteration's
  // high-water mark. Every production (compute/load/share) adds the
  // measured output size; every drop subtracts it. Unlike the plan's
  // estimates this never degrades to defaults, so it is the honest
  // resident number the report and bench curves compare budgets against.
  std::atomic<int64_t> resident_bytes{0};
  std::atomic<int64_t> peak_resident_bytes{0};

  void AddResident(int64_t bytes) {
    int64_t now =
        resident_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    int64_t peak = peak_resident_bytes.load(std::memory_order_relaxed);
    while (now > peak && !peak_resident_bytes.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
  }
  void SubResident(int64_t bytes) {
    resident_bytes.fetch_sub(bytes, std::memory_order_relaxed);
  }
};

// Best-known compute cost of `node`: measured this iteration, else the
// planning estimate (stats history or default).
int64_t KnownComputeCost(const ExecState& st, int node) {
  int64_t measured =
      st.measured_compute[static_cast<size_t>(node)].load(
          std::memory_order_acquire);
  if (measured >= 0) {
    return measured;
  }
  return st.compute_estimate[static_cast<size_t>(node)];
}

// Charges declared synthetic cost on the clock and returns elapsed time
// since `start_micros` (uniform cost accounting: under a real clock the
// advance is a no-op and the result is measured wall time; under a virtual
// clock the result is the declared cost).
int64_t ChargeAndMeasure(Clock* clock, int64_t start_micros,
                         int64_t synthetic_micros) {
  if (synthetic_micros >= 0) {
    clock->AdvanceMicros(synthetic_micros);
  }
  return clock->NowMicros() - start_micros;
}

// Applies one writer outcome to its node's record: a failed Put (over
// budget, duplicate) demotes the decision to a skip; a successful one marks
// the node materialized at `micros` and records the stored size. Runs at
// the end-of-iteration drain, or right after an enqueue (see
// MaybeMaterialize) on the thread that computed the node.
void ApplyOutcome(ExecState* st,
                  const runtime::AsyncMaterializer::Outcome& outcome,
                  int64_t micros) {
  const ExecutionOptions& opts = *st->opts;
  std::lock_guard<std::mutex> lock(st->stats_mu);
  if (!outcome.status.ok()) {
    // The policy checked the (approximate) size, but the serialized size
    // is authoritative; treat an over-budget Put as a skipped decision.
    HELIX_LOG(Info) << "materialization of " << outcome.node_name
                    << " skipped: " << outcome.status.ToString();
    return;
  }
  NodeExecution& record = st->records[static_cast<size_t>(outcome.node)];
  record.materialized = true;
  record.materialize_micros = micros;
  st->materialize_total += micros;
  if (opts.stats != nullptr) {
    std::optional<storage::StoreEntry> entry =
        opts.store->GetEntry(outcome.signature);
    if (entry.has_value()) {
      opts.stats->RecordSize(outcome.signature, outcome.node_name,
                             entry->size_bytes, opts.iteration);
    }
  }
}

// Decides materialization of a freshly computed result and hands it to the
// writer; the outcome is applied to the record when the iteration drains.
void MaybeMaterialize(ExecState* st, int node,
                      const dataflow::DataCollection& data,
                      NodeExecution* record) {
  const ExecutionOptions& opts = *st->opts;
  if (st->materializer == nullptr) {
    return;
  }
  uint64_t sig = st->dag->cumulative_signature(node);
  if (opts.store->Has(sig)) {
    return;  // already persisted in an earlier iteration
  }
  const Operator& op = st->dag->op(node);

  MaterializationContext ctx;
  ctx.node_name = op.name();
  ctx.phase = op.phase();
  ctx.compute_micros = record->cost_micros;
  ctx.size_bytes = data.SizeBytes();
  // Eviction can make room up to the whole budget; the policy gates on
  // that, Put enforces the fine print.
  ctx.remaining_budget_bytes = opts.store->BudgetBytes();
  ctx.est_load_micros = op.synthetic_costs().load_micros >= 0
                            ? op.synthetic_costs().load_micros
                            : opts.store->EstimateLoadMicros(ctx.size_bytes);
  ctx.ancestors_compute_micros = 0;
  std::vector<bool> ancestors = st->dag->dag().Ancestors(node);
  for (int a = 0; a < st->dag->num_nodes(); ++a) {
    if (ancestors[static_cast<size_t>(a)]) {
      ctx.ancestors_compute_micros += KnownComputeCost(*st, a);
    }
  }

  if (!opts.mat_policy->ShouldMaterialize(ctx)) {
    return;
  }

  int64_t start = opts.clock->NowMicros();
  runtime::AsyncMaterializer::Request request;
  request.node = node;
  request.signature = sig;
  request.node_name = op.name();
  request.data = data;  // shares the payload; copies a pointer
  request.iteration = opts.iteration;
  request.compute_micros = record->cost_micros;
  request.owner = opts.materializer_owner;
  st->materializer->Enqueue(std::move(request));
  // Drain right away (the drain helps, so this thread usually performs
  // the Put itself) in two cases. Simulated time has no background: the
  // declared write cost is charged here, right after the node's compute,
  // so virtual timings and telemetry stay a function of the plan alone.
  // And a store that has timed no transfer yet estimates every load at a
  // flat default bandwidth: the decisions that follow must see this
  // write's measured bandwidth, not race the writer for it.
  const bool virtual_clock = opts.clock->is_virtual();
  if (!virtual_clock && !opts.store->LearnsBandwidthFrom(ctx.size_bytes)) {
    return;
  }
  for (const runtime::AsyncMaterializer::Outcome& outcome :
       st->materializer->Drain(opts.materializer_owner)) {
    int64_t micros = outcome.write_micros;
    if (virtual_clock) {
      micros = outcome.status.ok()
                   ? ChargeAndMeasure(opts.clock, start,
                                      op.synthetic_costs().write_micros)
                   : 0;
    }
    ApplyOutcome(st, outcome, micros);
  }
}

// Computes `node`, recursively ensuring parents are available first. Used
// on the normal compute path (parents already available per plan
// feasibility) and as the fallback when a planned load hits a corrupt
// store entry.
Status ComputeNode(ExecState* st, int node);

// Loads `node`'s result from the store (with the paranoid fingerprint
// check when enabled) and performs load bookkeeping. Non-OK when the entry
// is missing or corrupt; callers decide whether to fall back to compute.
Status LoadNodeFromStore(ExecState* st, int node) {
  const ExecutionOptions& options = *st->opts;
  const WorkflowDag& dag = *st->dag;
  NodeExecution& record = st->records[static_cast<size_t>(node)];
  const Operator& op = dag.op(node);
  uint64_t sig = dag.cumulative_signature(node);
  int64_t start = options.clock->NowMicros();
  auto loaded = options.store->Get(sig);
  if (loaded.ok() && options.paranoid_checks) {
    std::optional<storage::StoreEntry> entry = options.store->GetEntry(sig);
    if (entry.has_value() && entry->fingerprint != 0 &&
        entry->fingerprint != loaded.value().Fingerprint()) {
      (void)options.store->Remove(sig);
      loaded = Status::Corruption("fingerprint mismatch for " + op.name());
    }
  }
  if (!loaded.ok()) {
    return loaded.status();
  }
  record.state = NodeState::kLoad;
  record.start_micros = start;
  record.cost_micros = ChargeAndMeasure(options.clock, start,
                                        op.synthetic_costs().load_micros);
  record.output_bytes = loaded.value().SizeBytes();
  st->results[static_cast<size_t>(node)] = std::move(loaded).value();
  st->produced_once[static_cast<size_t>(node)] = 1;
  st->AddResident(record.output_bytes);
  if (options.stats != nullptr) {
    std::lock_guard<std::mutex> lock(st->stats_mu);
    options.stats->RecordLoad(sig, op.name(), record.cost_micros,
                              options.iteration);
  }
  return Status::OK();
}

Status EnsureAvailable(ExecState* st, int node) {
  size_t s = static_cast<size_t>(node);
  if (!st->results[s].empty()) {
    return Status::OK();
  }
  if (st->budgeted && st->produced_once[s]) {
    // Re-production of an intermediate dropped after its last planned use:
    // a failed planned load fell back to recomputing a child of it. Reload
    // when the store held it at plan time, else recompute — the recursion
    // re-produces dropped parents the same way. The price is accounted as
    // recompute overhead, never hidden in the base node cost.
    NodeExecution& record = st->records[s];
    Status status;
    if (st->loadable[s]) {
      status = LoadNodeFromStore(st, node);
      if (!status.ok()) {
        HELIX_LOG(Warning) << "re-load of dropped " << record.name
                           << " failed, recomputing: " << status.ToString();
        status = ComputeNode(st, node);
      }
    } else {
      status = ComputeNode(st, node);
    }
    if (status.ok()) {
      ++record.recomputes;
      st->extra_micros.fetch_add(record.cost_micros,
                                 std::memory_order_relaxed);
      st->extra_productions.fetch_add(1, std::memory_order_relaxed);
    }
    return status;
  }
  return ComputeNode(st, node);
}

// Invokes the operator and performs the bookkeeping of a locally computed
// node: record, measured cost, stats, result slot, materialization.
// Inputs must already be available.
Status InvokeAndRecord(
    ExecState* st, int node,
    const std::vector<const dataflow::DataCollection*>& inputs) {
  const ExecutionOptions& opts = *st->opts;
  const Operator& op = st->dag->op(node);
  int64_t start = opts.clock->NowMicros();
  HELIX_ASSIGN_OR_RETURN(dataflow::DataCollection data, op.Invoke(inputs));
  int64_t cost = ChargeAndMeasure(opts.clock, start,
                                  op.synthetic_costs().compute_micros);

  NodeExecution& record = st->records[static_cast<size_t>(node)];
  record.state = NodeState::kCompute;
  record.start_micros = start;
  record.cost_micros = cost;
  record.output_bytes = data.SizeBytes();
  st->measured_compute[static_cast<size_t>(node)].store(
      cost, std::memory_order_release);

  uint64_t sig = st->dag->cumulative_signature(node);
  if (opts.stats != nullptr) {
    std::lock_guard<std::mutex> lock(st->stats_mu);
    opts.stats->RecordCompute(sig, op.name(), cost, opts.iteration);
    opts.stats->RecordSize(sig, op.name(), record.output_bytes,
                           opts.iteration);
  }
  st->results[static_cast<size_t>(node)] = data;
  st->produced_once[static_cast<size_t>(node)] = 1;
  st->AddResident(record.output_bytes);
  MaybeMaterialize(st, node, data, &record);
  return Status::OK();
}

Status ComputeNode(ExecState* st, int node) {
  const ExecutionOptions& opts = *st->opts;
  const Operator& op = st->dag->op(node);
  std::vector<const dataflow::DataCollection*> inputs;
  for (graph::NodeId p : st->dag->dag().Parents(node)) {
    HELIX_RETURN_IF_ERROR(EnsureAvailable(st, p));
    inputs.push_back(&st->results[static_cast<size_t>(p)]);
  }
  if (opts.inflight == nullptr) {
    return InvokeAndRecord(st, node, inputs);
  }

  // Cross-session block-and-share (service mode). Ordering matters for
  // deadlock freedom: parents are resolved *before* Acquire, so ownership
  // is never held while blocking on another signature (no hold-and-wait).
  uint64_t sig = st->dag->cumulative_signature(node);
  runtime::SignatureInflightTable::Ticket ticket = opts.inflight->Acquire(sig);
  NodeExecution& record = st->records[static_cast<size_t>(node)];
  if (!ticket.owner()) {
    // A concurrent session is computing this exact intermediate: block
    // and share its result instead of duplicating the work.
    int64_t start = opts.clock->NowMicros();
    Result<dataflow::DataCollection> shared = ticket.Wait();
    if (shared.ok()) {
      record.state = NodeState::kLoad;
      record.shared = true;
      record.start_micros = start;
      record.cost_micros = opts.clock->NowMicros() - start;
      record.output_bytes = shared.value().SizeBytes();
      st->results[static_cast<size_t>(node)] = std::move(shared).value();
      st->produced_once[static_cast<size_t>(node)] = 1;
      st->AddResident(record.output_bytes);
      return Status::OK();
    }
    // The owner failed; recompute locally without taking ownership (this
    // cold error path tolerates duplicated work).
    HELIX_LOG(Warning) << "shared in-flight compute of " << op.name()
                       << " failed, computing locally: "
                       << shared.status().ToString();
    return InvokeAndRecord(st, node, inputs);
  }

  // Owner. A sibling session may have materialized this signature after
  // this iteration was planned (the plan said compute because the store
  // was empty at planning time); re-check and serve a load instead.
  if (opts.store != nullptr && opts.store->Has(sig)) {
    int64_t start = opts.clock->NowMicros();
    auto loaded = opts.store->Get(sig);
    if (loaded.ok()) {
      record.state = NodeState::kLoad;
      record.start_micros = start;
      record.cost_micros = ChargeAndMeasure(
          opts.clock, start, op.synthetic_costs().load_micros);
      record.output_bytes = loaded.value().SizeBytes();
      st->results[static_cast<size_t>(node)] = std::move(loaded).value();
      st->produced_once[static_cast<size_t>(node)] = 1;
      st->AddResident(record.output_bytes);
      if (opts.stats != nullptr) {
        std::lock_guard<std::mutex> lock(st->stats_mu);
        opts.stats->RecordLoad(sig, op.name(), record.cost_micros,
                               opts.iteration);
      }
      opts.inflight->Publish(sig, st->results[static_cast<size_t>(node)]);
      return Status::OK();
    }
  }
  Status computed = InvokeAndRecord(st, node, inputs);
  if (computed.ok()) {
    opts.inflight->Publish(sig, st->results[static_cast<size_t>(node)]);
  } else {
    opts.inflight->Publish(sig, computed);
  }
  return computed;
}

// Runs one planned node (the body of the execution loop). Called in
// topological order by the sequential strategy and from worker threads —
// with all active parents already finished — by the parallel scheduler.
Status ExecutePlannedNode(ExecState* st, int i, NodeState state) {
  if (state == NodeState::kPrune) {
    return Status::OK();
  }
  if (state == NodeState::kLoad) {
    Status loaded = LoadNodeFromStore(st, i);
    if (loaded.ok()) {
      return loaded;
    }
    // Corrupt or vanished entry: degrade to recomputation. Ancestors the
    // plan pruned are computed on demand, serialized across workers —
    // concurrent fallbacks may share pruned ancestors.
    HELIX_LOG(Warning) << "load of "
                       << st->records[static_cast<size_t>(i)].name
                       << " failed, recomputing: " << loaded.ToString();
    std::lock_guard<std::mutex> lock(st->fallback_mu);
    return ComputeNode(st, i);
  }
  // kCompute.
  return ComputeNode(st, i);
}

}  // namespace

Result<ExecutionReport> Execute(const WorkflowDag& dag,
                                const ExecutionOptions& options) {
  const int n = dag.num_nodes();
  const int64_t iteration_start_micros = options.clock->NowMicros();
  ScopedTimer total_timer(options.clock);

  // --- 1. Program slicing -------------------------------------------------
  Slice slice;
  if (options.enable_slicing) {
    slice = SliceFromOutputs(dag);
  } else {
    slice.live.assign(static_cast<size_t>(n), true);
    slice.num_live = n;
  }

  // --- 2. Assemble the recomputation problem ------------------------------
  RecomputeProblem problem;
  problem.dag = &dag.dag();
  problem.costs.resize(static_cast<size_t>(n));
  problem.required.assign(static_cast<size_t>(n), false);
  for (int i = 0; i < n; ++i) {
    const Operator& op = dag.op(i);
    NodeCosts& c = problem.costs[static_cast<size_t>(i)];
    uint64_t sig = dag.cumulative_signature(i);

    // Compute-cost estimate: declared synthetic > exact history (same
    // cumulative signature) > same-name history (operator edited, cost
    // likely similar) > default.
    if (op.synthetic_costs().compute_micros >= 0) {
      c.compute_micros = op.synthetic_costs().compute_micros;
    } else if (options.stats != nullptr) {
      auto by_sig = options.stats->Get(sig);
      if (by_sig.has_value() && by_sig->compute_micros >= 0) {
        c.compute_micros = by_sig->compute_micros;
      } else {
        auto by_name = options.stats->GetLatestByName(op.name());
        c.compute_micros = (by_name.has_value() && by_name->compute_micros >= 0)
                               ? by_name->compute_micros
                               : options.default_compute_estimate_micros;
      }
    } else {
      c.compute_micros = options.default_compute_estimate_micros;
    }

    // Loadability: a store entry keyed by the cumulative signature is, by
    // construction, a valid result of this exact operator-on-these-inputs.
    if (options.store != nullptr && options.store->Has(sig) &&
        slice.IsLive(i)) {
      c.loadable = true;
      if (op.synthetic_costs().load_micros >= 0) {
        c.load_micros = op.synthetic_costs().load_micros;
      } else {
        std::optional<storage::StoreEntry> entry = options.store->GetEntry(sig);
        c.load_micros = (entry.has_value() && entry->load_micros >= 0)
                            ? entry->load_micros
                            : options.store->EstimateLoadMicros(
                                  entry.has_value() ? entry->size_bytes : 0);
      }
    }
    problem.required[static_cast<size_t>(i)] =
        dag.is_output(i) && slice.IsLive(i);
  }

  // --- 3. Plan ------------------------------------------------------------
  ScopedTimer plan_timer(SystemClock::Default());
  RecomputePlan plan;
  switch (options.planner) {
    case PlannerKind::kOptimal: {
      HELIX_ASSIGN_OR_RETURN(plan, SolveRecomputation(problem));
      break;
    }
    case PlannerKind::kNaiveReuse:
      plan = SolveRecomputationNaiveReuse(problem);
      break;
    case PlannerKind::kNoReuse:
      plan = SolveRecomputationNoReuse(problem);
      break;
    case PlannerKind::kGreedy:
      plan = SolveRecomputationGreedy(problem);
      break;
  }
  // --- 3b. Memory planning ------------------------------------------------
  // Always planned (even with no budget) so every report carries the
  // unbudgeted peak estimate — the comparison point budget curves need.
  MemoryProblem mem_problem;
  mem_problem.dag = &dag.dag();
  mem_problem.states.resize(static_cast<size_t>(n));
  mem_problem.is_output.assign(static_cast<size_t>(n), false);
  mem_problem.output_bytes.assign(static_cast<size_t>(n), 0);
  mem_problem.transient_bytes.assign(static_cast<size_t>(n), 0);
  mem_problem.budget_bytes = options.memory_budget_bytes;
  mem_problem.requested_width = ResolveParallelism(options, n);
  for (int i = 0; i < n; ++i) {
    size_t s = static_cast<size_t>(i);
    mem_problem.states[s] = plan.state(i);
    mem_problem.is_output[s] = dag.is_output(i);

    // Output-size estimate: measured store entry (GetEntry, not Has — the
    // probe must not count toward hit/miss metrics) > exact stats history
    // > same-name history > kDefaultMemEstimateBytes.
    uint64_t sig = dag.cumulative_signature(i);
    int64_t bytes = -1;
    if (options.store != nullptr) {
      std::optional<storage::StoreEntry> entry = options.store->GetEntry(sig);
      if (entry.has_value() && entry->size_bytes >= 0) {
        bytes = entry->size_bytes;
      }
    }
    if (bytes < 0 && options.stats != nullptr) {
      auto by_sig = options.stats->Get(sig);
      if (by_sig.has_value() && by_sig->size_bytes >= 0) {
        bytes = by_sig->size_bytes;
      } else {
        auto by_name = options.stats->GetLatestByName(dag.op(i).name());
        if (by_name.has_value() && by_name->size_bytes >= 0) {
          bytes = by_name->size_bytes;
        }
      }
    }
    if (bytes < 0) {
      bytes = kDefaultMemEstimateBytes;
    }
    mem_problem.output_bytes[s] = bytes;
    // Loads hold a deserialization buffer while they run — the dominant
    // transient term today.
    if (plan.state(i) == NodeState::kLoad) {
      mem_problem.transient_bytes[s] = bytes;
    }
  }
  HELIX_ASSIGN_OR_RETURN(MemoryPlan mem_plan, PlanMemory(mem_problem));
  int64_t planning_micros = plan_timer.ElapsedMicros();

  // --- 4. Execute ---------------------------------------------------------
  ExecState st;
  st.dag = &dag;
  st.opts = &options;
  st.results.resize(static_cast<size_t>(n));
  st.compute_estimate.resize(static_cast<size_t>(n));
  st.measured_compute = std::vector<std::atomic<int64_t>>(
      static_cast<size_t>(n));
  st.records.resize(static_cast<size_t>(n));
  st.produced_once.assign(static_cast<size_t>(n), 0);
  st.loadable.assign(static_cast<size_t>(n), 0);
  st.budgeted = mem_plan.enabled;
  for (int i = 0; i < n; ++i) {
    st.loadable[static_cast<size_t>(i)] =
        problem.costs[static_cast<size_t>(i)].loadable ? 1 : 0;
    st.compute_estimate[static_cast<size_t>(i)] =
        problem.costs[static_cast<size_t>(i)].compute_micros;
    st.measured_compute[static_cast<size_t>(i)].store(
        -1, std::memory_order_relaxed);
    NodeExecution& record = st.records[static_cast<size_t>(i)];
    record.name = dag.op(i).name();
    record.phase = dag.op(i).phase();
    record.signature = dag.cumulative_signature(i);
    record.state = NodeState::kPrune;
    record.sliced = !slice.IsLive(i);
  }

  // Budget mode narrows the worker count to the plan's width-aware bound.
  const int parallelism =
      mem_plan.enabled
          ? std::min(ResolveParallelism(options, n), mem_plan.max_width)
          : ResolveParallelism(options, n);
  // Materialization writer: the caller's (a Session's own, or the
  // service's shared one), else one private to this execution. Every
  // strategy writes through it; none writes inline.
  std::optional<runtime::AsyncMaterializer> private_materializer;
  const bool materializing =
      options.store != nullptr && options.mat_policy != nullptr;
  if (materializing && options.materializer != nullptr) {
    st.materializer = options.materializer;
  } else if (materializing) {
    private_materializer.emplace(options.store);
    st.materializer = &*private_materializer;
  }
  Status exec_status;
  if (parallelism <= 1 && mem_plan.enabled) {
    // Budget-mode sequential strategy: the planner's order with the exact
    // release rule the planner simulated — after each step, drop every
    // resident non-output whose computing consumers all ran. The scan also
    // re-drops results that a load-failure fallback re-produced.
    std::vector<int> remaining_uses(static_cast<size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      if (plan.state(i) != NodeState::kCompute) {
        continue;
      }
      for (graph::NodeId parent : dag.dag().Parents(i)) {
        if (plan.state(parent) != NodeState::kPrune) {
          ++remaining_uses[static_cast<size_t>(parent)];
        }
      }
    }
    for (int j : mem_plan.order) {
      exec_status = ExecutePlannedNode(&st, j, plan.state(j));
      if (!exec_status.ok()) {
        break;
      }
      if (plan.state(j) == NodeState::kCompute) {
        for (graph::NodeId parent : dag.dag().Parents(j)) {
          if (plan.state(parent) != NodeState::kPrune) {
            --remaining_uses[static_cast<size_t>(parent)];
          }
        }
      }
      for (int i = 0; i < n; ++i) {
        size_t s = static_cast<size_t>(i);
        if (st.results[s].empty() || plan.state(i) == NodeState::kPrune ||
            dag.is_output(i)) {
          continue;
        }
        if (remaining_uses[s] == 0) {
          st.results[s] = dataflow::DataCollection();
          st.records[s].dropped = true;
          st.SubResident(st.records[s].output_bytes);
        }
      }
    }
  } else if (parallelism <= 1) {
    // Sequential strategy: the classic topological loop.
    for (int i : dag.topo_order()) {
      exec_status = ExecutePlannedNode(&st, i, plan.state(i));
      if (!exec_status.ok()) {
        break;
      }
    }
  } else {
    // Parallel strategy: dependency-driven scheduling over a worker pool.
    std::vector<bool> active(static_cast<size_t>(n), false);
    for (int i = 0; i < n; ++i) {
      active[static_cast<size_t>(i)] = plan.state(i) != NodeState::kPrune;
    }
    // The sequential loop implicitly runs a node after *every* earlier
    // topological node; the scheduler must keep the orderings that carry
    // data: a node can reach active ancestors hiding behind pruned chains
    // (the load-failure fallback recurses through them, and cost summation
    // reads their measured costs), so route a dependency edge through each
    // pruned chain to the nearest active ancestors.
    graph::Dag sched_dag;
    sched_dag.AddNodes(n);
    for (int i = 0; i < n; ++i) {
      if (!active[static_cast<size_t>(i)]) {
        continue;
      }
      std::vector<bool> visited(static_cast<size_t>(n), false);
      std::vector<graph::NodeId> frontier(dag.dag().Parents(i).begin(),
                                          dag.dag().Parents(i).end());
      while (!frontier.empty()) {
        graph::NodeId p = frontier.back();
        frontier.pop_back();
        if (visited[static_cast<size_t>(p)]) {
          continue;
        }
        visited[static_cast<size_t>(p)] = true;
        if (active[static_cast<size_t>(p)]) {
          (void)sched_dag.AddEdge(p, i);
        } else {
          for (graph::NodeId gp : dag.dag().Parents(p)) {
            frontier.push_back(gp);
          }
        }
      }
    }
    runtime::ThreadPool pool(parallelism);
    runtime::ParallelDagScheduler scheduler(&sched_dag, std::move(active));
    if (mem_plan.enabled) {
      // Drop-after-last-use in parallel mode: the scheduler reports a node
      // once all its dependents finished; by then no in-flight task can
      // read the slot, and the fallback path — the one reader that may
      // arrive later — takes fallback_mu, which also guards this write.
      scheduler.SetOnLastDependentDone([&st, &dag](int node) {
        if (dag.is_output(node)) {
          return;
        }
        size_t s = static_cast<size_t>(node);
        std::lock_guard<std::mutex> lock(st.fallback_mu);
        if (!st.results[s].empty()) {
          st.results[s] = dataflow::DataCollection();
          st.records[s].dropped = true;
          st.SubResident(st.records[s].output_bytes);
        }
      });
    }
    exec_status = scheduler.Run(&pool, [&st, &plan](int node) {
      return ExecutePlannedNode(&st, node, plan.state(node));
    });
  }
  int64_t write_wait_micros = 0;
  if (st.materializer != nullptr) {
    // Wait out the write pipeline before closing the books — even on an
    // execution error, so a writer never carries this iteration's
    // outcomes (stale node ids) into the next Drain. The report's total
    // time honestly includes any tail of unfinished writes, and this
    // thread helps write it. Only this execution's owner tag is drained:
    // sibling sessions' queued requests are neither awaited nor consumed.
    int64_t wait_start = options.clock->NowMicros();
    std::vector<runtime::AsyncMaterializer::Outcome> outcomes =
        st.materializer->Drain(options.materializer_owner);
    write_wait_micros = options.clock->NowMicros() - wait_start;
    for (const runtime::AsyncMaterializer::Outcome& outcome : outcomes) {
      ApplyOutcome(&st, outcome, outcome.write_micros);
    }
    st.materializer = nullptr;
  }
  HELIX_RETURN_IF_ERROR(exec_status);

  // --- 5. Report ----------------------------------------------------------
  ExecutionReport report;
  report.planning_micros = planning_micros;
  report.materialize_micros = st.materialize_total;
  report.write_wait_micros = write_wait_micros;
  report.planned_peak_bytes = mem_plan.planned_peak_bytes;
  report.unbudgeted_peak_bytes = mem_plan.unbudgeted_peak_bytes;
  report.peak_resident_bytes =
      st.peak_resident_bytes.load(std::memory_order_relaxed);
  report.memory_feasible = mem_plan.feasible;
  report.recompute_extra_micros =
      st.extra_micros.load(std::memory_order_relaxed);
  report.num_recomputed_extra =
      st.extra_productions.load(std::memory_order_relaxed);
  report.nodes = std::move(st.records);
  for (const NodeExecution& record : report.nodes) {
    if (record.dropped) {
      ++report.num_dropped;
    }
    switch (record.state) {
      case NodeState::kCompute:
        ++report.num_computed;
        break;
      case NodeState::kLoad:
        ++report.num_loaded;
        break;
      case NodeState::kPrune:
        ++report.num_pruned;
        break;
    }
    if (record.materialized) {
      ++report.num_materialized;
    }
    if (record.shared) {
      ++report.num_shared;
    }
  }
  for (int out : dag.outputs()) {
    report.outputs[dag.op(out).name()] =
        st.results[static_cast<size_t>(out)];
  }
  report.total_micros = total_timer.ElapsedMicros();

  // --- 6. Telemetry (post-hoc: single-threaded, off every hot path) -------
  if (options.metrics != nullptr) {
    obs::MetricsRegistry& m = *options.metrics;
    m.GetCounter("executor.iterations")->Add(1);
    m.GetCounter("executor.nodes_computed")->Add(report.num_computed);
    m.GetCounter("executor.nodes_loaded")->Add(report.num_loaded);
    m.GetCounter("executor.nodes_shared")->Add(report.num_shared);
    m.GetCounter("executor.nodes_pruned")->Add(report.num_pruned);
    m.GetCounter("executor.nodes_materialized")->Add(report.num_materialized);
    obs::Histogram* compute_micros =
        m.GetHistogram("executor.node_compute_micros");
    obs::Histogram* load_micros = m.GetHistogram("executor.node_load_micros");
    for (const NodeExecution& record : report.nodes) {
      if (record.state == NodeState::kCompute) {
        compute_micros->Observe(record.cost_micros);
      } else if (record.state == NodeState::kLoad) {
        load_micros->Observe(record.cost_micros);
      }
    }
    m.GetHistogram("executor.iteration_micros")->Observe(report.total_micros);
    m.GetGauge("executor.peak_planned_bytes")->Set(report.planned_peak_bytes);
    m.GetGauge("executor.peak_resident_bytes")
        ->Set(report.peak_resident_bytes);
    m.GetGauge("executor.recompute_extra_micros")
        ->Set(report.recompute_extra_micros);
    if (materializing) {
      m.GetHistogram("materializer.drain_wait_micros")
          ->Observe(report.write_wait_micros);
    }
  }
  if (options.trace != nullptr) {
    for (int i = 0; i < n; ++i) {
      const NodeExecution& record =
          report.nodes[static_cast<size_t>(i)];
      obs::TraceSpan span;
      span.name = record.name;
      span.category = "node";
      // Pruned nodes did no work: a zero-length marker at iteration start
      // keeps them visible on the timeline without implying cost.
      span.start_micros = record.state == NodeState::kPrune
                              ? iteration_start_micros
                              : record.start_micros;
      span.duration_micros =
          record.state == NodeState::kPrune ? 0 : record.cost_micros;
      span.pid = options.trace_pid;
      span.tid = static_cast<uint64_t>(i) + 1;  // tid 0 is the iteration lane
      span.str_args.emplace_back("outcome", NodeOutcomeString(record));
      span.str_args.emplace_back("signature", HashToHex(record.signature));
      span.int_args.emplace_back("bytes", record.output_bytes);
      if (record.materialized) {
        span.int_args.emplace_back("materialize_micros",
                                   record.materialize_micros);
      }
      if (record.dropped) {
        span.int_args.emplace_back("dropped", 1);
        span.int_args.emplace_back("recomputes", record.recomputes);
      }
      options.trace->Record(std::move(span));
    }
    obs::TraceSpan iteration_span;
    iteration_span.name = "iteration";
    iteration_span.category = "iteration";
    iteration_span.start_micros = iteration_start_micros;
    iteration_span.duration_micros = report.total_micros;
    iteration_span.pid = options.trace_pid;
    iteration_span.tid = 0;
    iteration_span.str_args.emplace_back("planner",
                                         PlannerKindToString(options.planner));
    iteration_span.int_args.emplace_back("iteration", options.iteration);
    iteration_span.int_args.emplace_back("computed", report.num_computed);
    iteration_span.int_args.emplace_back("loaded", report.num_loaded);
    iteration_span.int_args.emplace_back("shared", report.num_shared);
    iteration_span.int_args.emplace_back("pruned", report.num_pruned);
    iteration_span.int_args.emplace_back("write_wait_micros",
                                         report.write_wait_micros);
    options.trace->Record(std::move(iteration_span));
  }
  return report;
}

}  // namespace core
}  // namespace helix
