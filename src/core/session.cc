#include "core/session.h"

#include "common/file_util.h"
#include "common/logging.h"
#include "core/cse.h"
#include "runtime/async_materializer.h"

namespace helix {
namespace core {

std::string Session::StatsPath() const {
  return JoinPath(options_.workspace_dir, "STATS");
}

Result<std::unique_ptr<Session>> Session::Open(
    const SessionOptions& options) {
  if (options.inflight != nullptr && options.clock != nullptr &&
      options.clock->is_virtual()) {
    // Block-and-share waits real threads on each other; simulated time
    // neither advances for the waiter nor means anything across sessions.
    return Status::InvalidArgument(
        "cross-session in-flight sharing requires a real clock");
  }
  std::unique_ptr<Session> session(new Session(options));
  if (options.shared_store != nullptr) {
    // Service mode: the store, stats registry, and writer belong to the
    // service; this session only borrows them. Nothing to open or load.
    if (options.shared_stats != nullptr) {
      session->stats_ = options.shared_stats;
    }
  } else if (!options.workspace_dir.empty() &&
             options.enable_materialization) {
    storage::StoreOptions store_options;
    store_options.budget_bytes = options.storage_budget_bytes;
    store_options.clock = options.clock;
    store_options.backend = options.storage_backend;
    store_options.default_compute_estimate_micros =
        options.default_compute_estimate_micros;
    store_options.metrics = options.metrics;
    // owned_stats_ has a stable address for the session's lifetime (loaded
    // below by move-*assignment*), so eviction planning can score against
    // the live registry.
    store_options.cost_stats = &session->owned_stats_;
    HELIX_ASSIGN_OR_RETURN(
        session->store_,
        storage::IntermediateStore::Open(
            JoinPath(options.workspace_dir, "store"), store_options));
    auto stats = storage::CostStatsRegistry::Load(session->StatsPath());
    if (stats.ok()) {
      session->owned_stats_ = std::move(stats).value();
    } else if (!stats.status().IsNotFound()) {
      HELIX_LOG(Warning) << "stats registry unreadable, starting fresh: "
                         << stats.status().ToString();
    }
  }
  session->policy_ = options.mat_policy;
  if (session->policy_ == nullptr) {
    session->policy_ = std::make_shared<OnlineCostModelPolicy>();
  }
  if (options.enable_materialization && session->store() != nullptr &&
      options.shared_materializer == nullptr) {
    // One writer for the session's lifetime: iterations neither start a
    // thread nor write inline.
    session->materializer_ =
        std::make_unique<runtime::AsyncMaterializer>(session->store());
    // Which thread performs a write (the writer, or a helping drain) is a
    // scheduling race, so the writer's counters would make virtual-clock
    // telemetry nondeterministic; only a real clock reports them.
    if (options.metrics != nullptr && !options.clock->is_virtual()) {
      session->materializer_->EnableTelemetry(options.metrics);
    }
  }
  return session;
}

Session::Session(SessionOptions options) : options_(std::move(options)) {}

Session::~Session() = default;

Result<IterationResult> Session::RunIteration(const Workflow& workflow,
                                              const std::string& description,
                                              ChangeCategory category) {
  WorkflowDag dag;
  if (options_.enable_cse) {
    CseResult cse = EliminateCommonSubexpressions(workflow);
    if (cse.merged > 0) {
      HELIX_LOG(Info) << "CSE merged " << cse.merged << " duplicate operators";
    }
    HELIX_ASSIGN_OR_RETURN(dag, WorkflowDag::Compile(cse.workflow));
  } else {
    HELIX_ASSIGN_OR_RETURN(dag, WorkflowDag::Compile(workflow));
  }

  WorkflowDiff diff = previous_dag_.has_value()
                          ? DiffWorkflows(*previous_dag_, dag)
                          : InitialDiff(dag);

  ExecutionOptions exec;
  exec.clock = options_.clock;
  exec.store = store();
  exec.stats = stats_;
  exec.mat_policy =
      options_.enable_materialization ? policy_.get() : nullptr;
  exec.inflight = options_.inflight;
  exec.materializer = options_.shared_materializer != nullptr
                          ? options_.shared_materializer
                          : materializer_.get();
  exec.materializer_owner = options_.session_id;
  exec.planner = options_.planner;
  exec.enable_slicing = options_.enable_slicing;
  exec.iteration = iteration_;
  exec.default_compute_estimate_micros =
      options_.default_compute_estimate_micros;
  exec.memory_budget_bytes = options_.memory_budget_bytes;
  exec.paranoid_checks = options_.paranoid_checks;
  exec.max_parallelism = options_.max_parallelism;
  exec.metrics = options_.metrics;
  exec.trace = options_.trace;
  exec.trace_pid = options_.session_id;

  HELIX_ASSIGN_OR_RETURN(ExecutionReport report, Execute(dag, exec));

  // Feed outcomes back to adaptive policies (ReusePredictingPolicy).
  if (options_.enable_materialization && policy_ != nullptr) {
    std::vector<NodeOutcome> outcomes;
    outcomes.reserve(report.nodes.size());
    for (const NodeExecution& node : report.nodes) {
      NodeOutcome outcome;
      outcome.name = node.name;
      outcome.loaded = node.state == NodeState::kLoad;
      outcome.materialized = node.materialized;
      outcomes.push_back(std::move(outcome));
    }
    policy_->ObserveOutcomes(outcomes);
  }

  IterationResult result;
  result.version_id = versions_.AddVersion(dag, report, description, category);
  result.report = std::move(report);
  result.diff = std::move(diff);
  result.dag = dag;

  cumulative_micros_ += result.report.total_micros;
  previous_dag_ = std::move(dag);
  ++iteration_;

  // Shared stats are persisted by their owner (the service); a session
  // only saves the registry it owns.
  if (stats_ == &owned_stats_ && !options_.workspace_dir.empty() &&
      options_.enable_materialization) {
    Status saved = stats_->Save(StatsPath());
    if (!saved.ok()) {
      HELIX_LOG(Warning) << "failed to persist stats: " << saved.ToString();
    }
  }
  return result;
}

}  // namespace core
}  // namespace helix
