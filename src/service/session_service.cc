#include "service/session_service.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "common/file_util.h"
#include "common/logging.h"
#include "dataflow/simd.h"

namespace helix {
namespace service {

SessionCounters ServiceSession::counters() const {
  std::lock_guard<std::mutex> lock(counters_mu_);
  return counters_;
}

void ServiceSession::FoldReport(const core::ExecutionReport& report,
                                const storage::CostStatsRegistry& stats) {
  SessionCounters delta;
  delta.iterations = 1;
  delta.num_computed = report.num_computed;
  delta.num_loaded = report.num_loaded;
  delta.num_shared = report.num_shared;
  delta.total_micros = report.total_micros;
  for (const core::NodeExecution& node : report.nodes) {
    if (node.state == core::NodeState::kCompute) {
      self_computed_.insert(node.signature);
      continue;
    }
    if (node.state == core::NodeState::kPrune) {
      // A planner prune (as opposed to a slicer prune) means a downstream
      // load covered this node: its whole compute cost was avoided by
      // reuse. The min-cut loads only the frontier, so most of reuse's
      // benefit shows up here, not on the loads themselves.
      if (!node.sliced) {
        auto measured = stats.Get(node.signature);
        if (measured.has_value() && measured->compute_micros >= 0) {
          delta.saved_micros += measured->compute_micros;
        }
      }
      continue;
    }
    // kLoad (including shared in-flight results).
    if (!node.shared && self_computed_.count(node.signature) == 0) {
      ++delta.cross_session_loads;
    }
    // Reuse benefit at the cut frontier: what the registry says computing
    // would have cost, minus what the load (or shared wait) actually
    // cost.
    auto measured = stats.Get(node.signature);
    if (measured.has_value() && measured->compute_micros >= 0) {
      delta.saved_micros +=
          std::max<int64_t>(0, measured->compute_micros - node.cost_micros);
    }
  }
  std::lock_guard<std::mutex> lock(counters_mu_);
  counters_ += delta;
}

std::string SessionService::StatsPath() const {
  return JoinPath(options_.workspace_dir, "STATS");
}

Result<std::unique_ptr<SessionService>> SessionService::Open(
    const ServiceOptions& options) {
  if (options.workspace_dir.empty() &&
      options.storage_backend == storage::StorageBackendKind::kDisk) {
    return Status::InvalidArgument(
        "SessionService with a disk backend requires a workspace_dir");
  }
  std::unique_ptr<SessionService> service(new SessionService(options));
  service->clock_ =
      options.clock != nullptr ? options.clock : SystemClock::Default();

  storage::StoreOptions store_options;
  store_options.clock = service->clock_;
  store_options.budget_bytes = options.storage_budget_bytes;
  store_options.backend = options.storage_backend;
  store_options.default_compute_estimate_micros =
      options.default_compute_estimate_micros;
  store_options.metrics = &service->metrics_;
  // stats_ has a stable address for the service's lifetime (loaded below
  // by move-assignment), so eviction scores track the live registry.
  store_options.cost_stats = &service->stats_;
  HELIX_ASSIGN_OR_RETURN(
      service->store_,
      storage::IntermediateStore::Open(
          options.workspace_dir.empty()
              ? std::string()
              : JoinPath(options.workspace_dir, "store"),
          store_options));

  if (!options.workspace_dir.empty()) {
    auto stats = storage::CostStatsRegistry::Load(service->StatsPath());
    if (stats.ok()) {
      service->stats_ = std::move(stats).value();
    } else if (!stats.status().IsNotFound()) {
      HELIX_LOG(Warning) << "shared stats registry unreadable, starting "
                         << "fresh: " << stats.status().ToString();
    }
  }

  service->materializer_ =
      std::make_unique<runtime::AsyncMaterializer>(service->store_.get());
  service->materializer_->EnableTelemetry(&service->metrics_);
  service->inflight_.EnableTelemetry(&service->metrics_);
  int threads = options.num_threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
  }
  service->pool_ = std::make_unique<runtime::ThreadPool>(std::max(1, threads));
  service->pool_->EnableTelemetry(&service->metrics_);
  HELIX_LOG(Info) << "columnar kernels using "
                  << dataflow::simd::ActiveIsaName() << " code path";
  return service;
}

SessionService::~SessionService() {
  // Order matters. (1) The pool drains first: queued iterations still
  // reference sessions, the writer, and the store. (2) The writer drains
  // next, flushing every acknowledged materialization into the store.
  // (3) Stats are persisted once everything that could record has
  // stopped. Members then destroy in reverse declaration order (sessions
  // before the store).
  pool_.reset();
  materializer_.reset();
  if (!options_.workspace_dir.empty()) {
    Status saved = SaveStats();
    if (!saved.ok()) {
      HELIX_LOG(Warning) << "failed to persist shared stats: "
                         << saved.ToString();
    }
  }
}

Result<ServiceSession*> SessionService::CreateSession(
    const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_session_id_++;
  std::shared_ptr<ServiceSession> handle(
      new ServiceSession(id, name.empty() ? "session-" + std::to_string(id)
                                          : name));

  core::SessionOptions session_options;
  session_options.clock = clock_;
  session_options.shared_store = store_.get();
  session_options.shared_stats = &stats_;
  // A virtual clock trades concurrency features for determinism:
  // core::Session rejects in-flight sharing on one (the block-and-share
  // wait has no one to advance the clock), and the shared writer would
  // make materialization timing — and therefore eviction order —
  // scheduling-dependent, so each session writes through a writer of its
  // own, which the executor drains right after every enqueue.
  session_options.inflight = clock_->is_virtual() ? nullptr : &inflight_;
  session_options.shared_materializer =
      clock_->is_virtual() ? nullptr : materializer_.get();
  session_options.session_id = id;
  // One iteration runs sequentially on one pool worker; the service's
  // parallelism is across sessions, not within an iteration.
  session_options.max_parallelism = 1;
  session_options.mat_policy = options_.mat_policy;
  session_options.planner = options_.planner;
  session_options.paranoid_checks = options_.paranoid_checks;
  session_options.default_compute_estimate_micros =
      options_.default_compute_estimate_micros;
  session_options.memory_budget_bytes = options_.memory_budget_bytes;
  session_options.metrics = &metrics_;
  session_options.trace = &trace_;
  HELIX_ASSIGN_OR_RETURN(handle->session_,
                         core::Session::Open(session_options));
  sessions_.push_back(std::move(handle));
  return sessions_.back().get();
}

std::shared_ptr<ServiceSession> SessionService::FindSession(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& session : sessions_) {
    if (session->id() == id) {
      return session;
    }
  }
  return nullptr;
}

Status SessionService::CloseSession(uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
    if ((*it)->id() != id) {
      continue;
    }
    // Fold before erasing: a disconnecting client's iterations must stay
    // in the service-wide aggregate (the wire tests read GetCounters(0)
    // after every client has hung up).
    retired_ += (*it)->counters();
    sessions_.erase(it);  // destruction deferred to the last shared_ptr
    return Status::OK();
  }
  return Status::NotFound("no session with id " + std::to_string(id));
}

Result<core::IterationResult> SessionService::RunIteration(
    ServiceSession* session, const core::Workflow& workflow,
    const std::string& description, core::ChangeCategory category,
    const core::WorkflowSpec* spec) {
  std::lock_guard<std::mutex> run_lock(session->run_mu_);
  auto result = session->session_->RunIteration(workflow, description,
                                                category);
  if (result.ok()) {
    session->FoldReport(result.value().report, stats_);
    if (spec != nullptr && options_.iteration_observer) {
      // Still under run_mu_: one session's observations arrive in
      // iteration order, which is what makes a recorded trace replayable.
      options_.iteration_observer(IterationObservation{
          session->id(), session->name(), *spec, description, category,
          result.value()});
    }
  }
  return result;
}

std::future<Result<core::IterationResult>> SessionService::SubmitIteration(
    ServiceSession* session, core::Workflow workflow, std::string description,
    core::ChangeCategory category, const core::WorkflowSpec* spec) {
  auto shared_workflow = std::make_shared<core::Workflow>(std::move(workflow));
  auto shared_spec = spec == nullptr
                         ? std::shared_ptr<core::WorkflowSpec>()
                         : std::make_shared<core::WorkflowSpec>(*spec);
  return pool_->Submit(
      [this, session, shared_workflow, shared_spec,
       description = std::move(description),
       category]() -> Result<core::IterationResult> {
        return RunIteration(session, *shared_workflow, description, category,
                            shared_spec.get());
      });
}

SessionCounters SessionService::AggregateCounters() const {
  std::lock_guard<std::mutex> lock(mu_);
  SessionCounters total = retired_;
  for (const auto& session : sessions_) {
    total += session->counters();
  }
  return total;
}

Status SessionService::SaveStats() const {
  if (options_.workspace_dir.empty()) {
    return Status::FailedPrecondition("service has no workspace directory");
  }
  return stats_.Save(StatsPath());
}

size_t SessionService::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace service
}  // namespace helix
