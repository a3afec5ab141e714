// Session: the iterative, human-in-the-loop driver.
//
// A Session owns the durable state that persists across iterations of one
// application: the materialization store (budget-gated), the cost
// statistics registry, and the version history. Each RunIteration call
// compiles the (possibly edited) workflow, diffs it against the previous
// version (change tracking), executes it through the optimizing executor,
// and records the resulting version — the programmatic equivalent of one
// edit-and-run loop in the paper's demo (Section 3.2).
#ifndef HELIX_CORE_SESSION_H_
#define HELIX_CORE_SESSION_H_

#include <memory>
#include <optional>
#include <string>

#include "common/clock.h"
#include "common/result.h"
#include "core/executor.h"
#include "core/version_manager.h"
#include "core/workflow.h"
#include "core/workflow_dag.h"
#include "storage/cost_stats.h"
#include "storage/store.h"

namespace helix {
namespace core {

/// Session configuration. The defaults reproduce full HELIX behaviour;
/// the baselines (src/baselines) configure the same machinery differently.
struct SessionOptions {
  /// Directory for the store and stats registry. Empty = fully in-memory
  /// session without materialization (reuse disabled).
  std::string workspace_dir;
  /// Maximum bytes of materialized intermediate results.
  int64_t storage_budget_bytes = 1LL << 30;
  /// Payload backend for the materialization store. kDisk (default)
  /// persists intermediates on disk, so a Session closed and reopened
  /// over the same workspace serves them as loads instead of
  /// recomputing; kMemory confines reuse to this process.
  storage::StorageBackendKind storage_backend =
      storage::StorageBackendKind::kDisk;
  Clock* clock = SystemClock::Default();
  /// Materialization decision rule; nullptr selects the paper's online
  /// cost-model policy. Ignored when materialization is disabled.
  std::shared_ptr<MaterializationPolicy> mat_policy;
  bool enable_materialization = true;
  PlannerKind planner = PlannerKind::kOptimal;
  bool enable_slicing = true;
  /// Apply common-subexpression elimination before compiling (part of the
  /// one-shot DAG optimization both HELIX and KeystoneML perform).
  bool enable_cse = true;
  int64_t default_compute_estimate_micros = 1000000;
  /// RAM budget for resident intermediates per iteration, forwarded to
  /// ExecutionOptions::memory_budget_bytes (0 = memory planning off): drop
  /// after last use under a width bound, see core/memory_planner.h.
  int64_t memory_budget_bytes = 0;
  bool paranoid_checks = false;
  /// DAG-level execution parallelism, forwarded to the executor:
  /// 0 = one worker per hardware thread, 1 = sequential legacy behavior,
  /// N > 1 = at most N operators in flight. Sessions on a virtual clock
  /// always execute sequentially (see ExecutionOptions::max_parallelism).
  int max_parallelism = 0;

  // --- Shared-resource mode (service layer) -------------------------------
  // All four pointers are borrowed and must outlive the Session; they are
  // normally wired up by service::SessionService, which owns one of each
  // and runs many Sessions against them. With shared_store set the
  // session neither opens nor persists its own store/stats (workspace_dir
  // may be empty); the owner of the shared registry persists it.

  /// Shared materialization store (nullptr = open a private store from
  /// workspace_dir as usual).
  storage::IntermediateStore* shared_store = nullptr;
  /// Shared cross-session statistics registry (internally synchronized).
  storage::CostStatsRegistry* shared_stats = nullptr;
  /// Cross-session block-and-share table (see ExecutionOptions::inflight).
  runtime::SignatureInflightTable* inflight = nullptr;
  /// Shared background materialization writer; iterations drain only
  /// their own writes, tagged with `session_id`. nullptr = the session
  /// owns a writer of its own for its lifetime.
  runtime::AsyncMaterializer* shared_materializer = nullptr;
  /// Owner tag on the shared materializer (unique per session).
  uint64_t session_id = 0;

  // --- Telemetry (optional; see src/obs) ----------------------------------
  // Both pointers are borrowed and must outlive the Session. The session
  // forwards them into every execution (trace lane = session_id) and, when
  // it owns its store, into the store for hit/miss/eviction counters.

  /// Metrics registry for executor and store instrumentation.
  obs::MetricsRegistry* metrics = nullptr;
  /// Span recorder for per-node execution timelines.
  obs::TraceCollector* trace = nullptr;
};

/// Result of one iteration.
struct IterationResult {
  int version_id = 0;
  ExecutionReport report;
  WorkflowDiff diff;
  WorkflowDag dag;
};

/// Long-lived iterative development session.
class Session {
 public:
  /// Opens (or resumes) a session. A non-empty workspace persists results
  /// and statistics across Session objects — re-opening the same
  /// workspace resumes where the previous session left off.
  static Result<std::unique_ptr<Session>> Open(const SessionOptions& options);

  /// Finishes any queued write of the session's own writer.
  ~Session();

  /// Compiles and executes one workflow version.
  Result<IterationResult> RunIteration(const Workflow& workflow,
                                       const std::string& description,
                                       ChangeCategory category);

  const VersionManager& versions() const { return versions_; }
  VersionManager* mutable_versions() { return &versions_; }

  /// The effective store: shared (service mode) or privately owned.
  storage::IntermediateStore* store() {
    return options_.shared_store != nullptr ? options_.shared_store
                                            : store_.get();
  }
  /// The effective stats registry: shared (service mode) or owned.
  storage::CostStatsRegistry* stats() { return stats_; }
  Clock* clock() const { return options_.clock; }

  /// Total execution time across all iterations so far (the paper's
  /// cumulative-runtime metric, Figure 2).
  int64_t cumulative_micros() const { return cumulative_micros_; }

  int64_t iteration() const { return iteration_; }

 private:
  explicit Session(SessionOptions options);

  std::string StatsPath() const;

  SessionOptions options_;
  std::unique_ptr<storage::IntermediateStore> store_;
  /// The session's own writer (unless options_.shared_materializer is
  /// set), started at Open. Declared after store_ so it is destroyed —
  /// finishing any write still queued — while the store is still open.
  std::unique_ptr<runtime::AsyncMaterializer> materializer_;
  storage::CostStatsRegistry owned_stats_;
  /// Points at owned_stats_, or at options_.shared_stats in service mode.
  storage::CostStatsRegistry* stats_ = &owned_stats_;
  VersionManager versions_;
  std::shared_ptr<MaterializationPolicy> policy_;
  std::optional<WorkflowDag> previous_dag_;
  int64_t iteration_ = 0;
  int64_t cumulative_micros_ = 0;
};

}  // namespace core
}  // namespace helix

#endif  // HELIX_CORE_SESSION_H_
