// SessionService: many concurrent sessions over one shared store.
//
// The paper's optimizer reuses intermediates across the iterations of one
// analyst; the follow-up work (arXiv:1804.05892 "Challenges and
// Opportunities", arXiv:1812.05762) calls out *multi-tenant* reuse — many
// analysts iterating on the same workflow — as the next frontier. The
// store is already keyed by cumulative Merkle signature (content-derived,
// session-agnostic) and survives restarts, so cross-session reuse is a
// coordination problem, not a storage one. This layer is that
// coordination:
//
//   * one shared IntermediateStore  — an intermediate materialized by
//     session A is Load-planned (min-cut SolveRecomputation) and served
//     to session B whenever signatures match;
//   * one shared CostStatsRegistry  — B plans with costs A measured
//     (internally synchronized, persisted by the service);
//   * one shared ThreadPool         — iterations of all sessions run as
//     tasks on one fixed-size pool ("as many scenarios as the hardware
//     allows", not one pool per user);
//   * one SignatureInflightTable    — two sessions reaching the same
//     not-yet-materialized intermediate block-and-share instead of
//     duplicating the computation;
//   * one AsyncMaterializer         — all sessions' writes funnel through
//     one background writer; per-owner draining keeps one session's
//     iteration boundary from blocking on (or consuming) another's
//     writes.
//
// Lock order (outermost first): service mutex -> per-session run mutex ->
// executor internals (stats/fallback mutexes) -> in-flight table ->
// store budget mutex -> store shard mutex -> backend internals. The
// in-flight table's block-and-share wait is not a lock: ownership is held
// only while actively computing one operator (acquired after parents are
// available, published before anything else blocks), so there is no
// hold-and-wait and no deadlock.
#ifndef HELIX_SERVICE_SESSION_SERVICE_H_
#define HELIX_SERVICE_SESSION_SERVICE_H_

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/materialization.h"
#include "core/session.h"
#include "core/workflow.h"
#include "core/workflow_spec.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/async_materializer.h"
#include "runtime/inflight_table.h"
#include "runtime/thread_pool.h"
#include "storage/cost_stats.h"
#include "storage/store.h"

namespace helix {
namespace service {

class SessionService;
class ServiceSession;

/// One successfully finished iteration, as seen by the service's
/// iteration observer. References point into the caller's arguments and
/// the freshly produced result; they are valid only for the duration of
/// the observer call — copy what you keep (TraceRecorder does).
struct IterationObservation {
  uint64_t session_id = 0;
  const std::string& session_name;
  const core::WorkflowSpec& spec;
  const std::string& description;
  core::ChangeCategory category;
  const core::IterationResult& result;
};

/// Fired after every successful iteration that carried a WorkflowSpec
/// (the wire path and trace replay do; direct workflow submissions are
/// not spec-addressable and therefore not replayable, so they do not
/// fire). Invoked under the session's run mutex: one session's events
/// arrive in iteration order. Must be thread-safe across sessions.
using IterationObserver = std::function<void(const IterationObservation&)>;

/// Configuration of one multi-session service.
struct ServiceOptions {
  /// Root for the shared store ("store/") and stats registry ("STATS").
  /// Required for the disk backend; reopening the same directory resumes
  /// with all previously persisted intermediates and statistics.
  std::string workspace_dir;
  /// Shared storage budget across all sessions.
  int64_t storage_budget_bytes = 1LL << 30;
  storage::StorageBackendKind storage_backend =
      storage::StorageBackendKind::kDisk;
  /// Worker threads of the shared pool (0 = hardware concurrency). Each
  /// iteration runs sequentially on one worker; the pool parallelizes
  /// across sessions, so this bounds concurrently executing iterations.
  int num_threads = 0;
  int64_t default_compute_estimate_micros = 1000000;
  /// Per-iteration RAM budget for resident intermediates, applied to every
  /// session (0 = memory planning off; see
  /// ExecutionOptions::memory_budget_bytes).
  int64_t memory_budget_bytes = 0;
  /// Materialization policy handed to every session (nullptr = each
  /// session gets its own OnlineCostModelPolicy). A non-null policy is
  /// shared by all sessions: supply a stateless one, or one that
  /// tolerates concurrent ObserveOutcomes.
  std::shared_ptr<core::MaterializationPolicy> mat_policy;
  core::PlannerKind planner = core::PlannerKind::kOptimal;
  bool paranoid_checks = false;
  /// Clock driving every session, the shared store, and the latency the
  /// service observes. nullptr = the system clock. A virtual clock makes
  /// measured costs deterministic (zero unless explicitly advanced), which
  /// trace replay uses for bit-exact counter reproducibility — but
  /// VirtualClock is not thread-safe and core::Session refuses in-flight
  /// sharing on one, so a virtual-clock service disables the in-flight
  /// table and the shared writer (each session drains a writer of its own
  /// after every enqueue) and callers must serialize iterations across
  /// sessions themselves.
  Clock* clock = nullptr;
  /// Record/replay hook; see IterationObserver above. Empty = no-op.
  IterationObserver iteration_observer;
};

/// Per-session counters, updated exactly once per finished iteration
/// under the session's mutex (race-free by construction).
struct SessionCounters {
  int64_t iterations = 0;
  int64_t num_computed = 0;
  /// Store loads, including shared in-flight results.
  int64_t num_loaded = 0;
  /// Results served directly from a concurrent session's in-flight
  /// computation (subset of num_loaded).
  int64_t num_shared = 0;
  /// Loads of signatures this session never computed itself — results
  /// materialized by sibling sessions or recovered from a previous run
  /// (plus num_shared, this is the cross-session reuse metric).
  int64_t cross_session_loads = 0;
  /// Estimated time reuse saved this session: for each load, the
  /// registry's measured compute cost minus the actual load cost, plus
  /// the measured compute cost of every planner-pruned ancestor a load
  /// covered (the min-cut loads only the reuse frontier; the avoided
  /// ancestors carry most of the benefit).
  int64_t saved_micros = 0;
  int64_t total_micros = 0;
};

/// One user's long-lived session inside a service. Created by
/// SessionService::CreateSession and owned by the service; iterations of
/// one ServiceSession are serialized (a session is one user's
/// edit-and-run loop), different ServiceSessions run concurrently.
class ServiceSession {
 public:
  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }

  /// Consistent copy of this session's counters.
  SessionCounters counters() const;

  /// The underlying session (version history, cumulative runtime).
  /// Do not call RunIteration directly — go through the service, which
  /// serializes iterations and maintains the counters.
  core::Session* session() { return session_.get(); }

 private:
  friend class SessionService;
  ServiceSession(uint64_t id, std::string name)
      : id_(id), name_(std::move(name)) {}

  /// Folds one finished iteration's report into the counters; requires
  /// run_mu_ (the iteration lock) to be held.
  void FoldReport(const core::ExecutionReport& report,
                  const storage::CostStatsRegistry& stats);

  const uint64_t id_;
  const std::string name_;
  std::unique_ptr<core::Session> session_;
  /// Serializes iterations of this session (core::Session is not
  /// thread-safe; one user's iterations are inherently sequential).
  std::mutex run_mu_;
  /// Guards counters_ against concurrent counters() readers.
  mutable std::mutex counters_mu_;
  SessionCounters counters_;
  /// Signatures this session computed itself (classifies cross-session
  /// loads). Touched only under run_mu_.
  std::unordered_set<uint64_t> self_computed_;
};

/// The multi-session service. See the file comment for what is shared.
///
/// Thread safety: CreateSession, RunIteration, SubmitIteration, and the
/// accessors are safe from any thread. Ownership: the service owns the
/// store, registry, pool, in-flight table, writer, and every
/// ServiceSession; pointers handed out remain valid until the service is
/// destroyed. Failure modes: a failed iteration surfaces its Status to
/// the caller and leaves the session usable; destruction drains all
/// in-flight iterations and writes, then persists the stats registry.
class SessionService {
 public:
  static Result<std::unique_ptr<SessionService>> Open(
      const ServiceOptions& options);

  /// Drains in-flight iterations and pending writes, persists stats.
  ~SessionService();

  SessionService(const SessionService&) = delete;
  SessionService& operator=(const SessionService&) = delete;

  /// Registers a new session sharing the service's store, stats, pool,
  /// writer, and in-flight table. The returned pointer is owned by the
  /// service; it stays valid until CloseSession(id) releases the last
  /// reference (callers that may race a close hold the FindSession
  /// shared_ptr instead).
  Result<ServiceSession*> CreateSession(const std::string& name);

  /// The session with this id, or nullptr. The shared_ptr keeps the
  /// session alive across a concurrent CloseSession — the wire server
  /// holds it for the duration of one request.
  std::shared_ptr<ServiceSession> FindSession(uint64_t id);

  /// Unregisters a session (NotFound if the id is unknown). Its counters
  /// are folded into a retired-sessions accumulator first, so
  /// AggregateCounters still reports the work of every session the
  /// service ever ran — a client that disconnects (closing its sessions)
  /// must not erase its iterations from the service-wide totals. The
  /// ServiceSession object itself is destroyed when the last FindSession
  /// handle lets go; an iteration already running on it completes, but
  /// counter deltas folded after the close are not re-aggregated.
  Status CloseSession(uint64_t id);

  /// Runs one iteration of `session` on the calling thread (iterations of
  /// one session are serialized; concurrent calls for different sessions
  /// proceed in parallel). `spec`, when non-null, is the serializable
  /// description this workflow was resolved from; a successful iteration
  /// then fires the service's iteration observer (how traces get
  /// recorded).
  Result<core::IterationResult> RunIteration(
      ServiceSession* session, const core::Workflow& workflow,
      const std::string& description, core::ChangeCategory category,
      const core::WorkflowSpec* spec = nullptr);

  /// Schedules one iteration on the shared pool; the future carries the
  /// iteration's result or error.
  std::future<Result<core::IterationResult>> SubmitIteration(
      ServiceSession* session, core::Workflow workflow,
      std::string description, core::ChangeCategory category,
      const core::WorkflowSpec* spec = nullptr);

  /// Sum of all sessions' counters — live sessions plus the retired
  /// accumulator of closed ones (plus the in-flight table's view of
  /// shared hits, which must match the per-session sum).
  SessionCounters AggregateCounters() const;

  /// Persists the shared stats registry (also done at destruction).
  Status SaveStats() const;

  storage::IntermediateStore* store() { return store_.get(); }
  /// The effective clock (options.clock, or the system clock).
  Clock* clock() const { return clock_; }
  storage::CostStatsRegistry* stats() { return &stats_; }
  runtime::ThreadPool* pool() { return pool_.get(); }
  runtime::SignatureInflightTable* inflight() { return &inflight_; }
  /// Service-wide telemetry: store/pool/writer/in-flight/executor metrics
  /// and per-node execution spans (trace lane = session id). Always live;
  /// snapshot via metrics()->SnapshotJson() / trace()->ToChromeJson().
  obs::MetricsRegistry* metrics() { return &metrics_; }
  obs::TraceCollector* trace() { return &trace_; }
  size_t num_sessions() const;

 private:
  explicit SessionService(ServiceOptions options)
      : options_(std::move(options)) {}

  std::string StatsPath() const;

  ServiceOptions options_;
  Clock* clock_ = nullptr;
  // Destruction order (reverse of declaration) matters: sessions_ and the
  // writer go before the store; the destructor additionally drains the
  // pool first so no queued iteration outlives the sessions it touches.
  // The telemetry registry and trace come first of all — everything below
  // holds pointers into them, so they must be destroyed last.
  obs::MetricsRegistry metrics_;
  obs::TraceCollector trace_;
  std::unique_ptr<storage::IntermediateStore> store_;
  storage::CostStatsRegistry stats_;
  runtime::SignatureInflightTable inflight_;
  std::unique_ptr<runtime::AsyncMaterializer> materializer_;
  std::unique_ptr<runtime::ThreadPool> pool_;

  mutable std::mutex mu_;  // guards sessions_, retired_, next_session_id_
  std::vector<std::shared_ptr<ServiceSession>> sessions_;
  /// Counter totals of sessions closed by CloseSession (see its comment);
  /// AggregateCounters adds this to the live sessions' sum.
  SessionCounters retired_;
  uint64_t next_session_id_ = 1;
};

}  // namespace service
}  // namespace helix

#endif  // HELIX_SERVICE_SESSION_SERVICE_H_
