// Trace replay: drives a recorded or generated trace through a target.
//
// One engine, two targets: an in-process SessionService (the replay opens
// and owns it) or a remote HelixServer over loopback/None TCP (one
// HelixClient per user, exactly like tools/workload_driver.cc). Both
// targets execute the same WorkflowSpecs, so per-iteration output
// fingerprints are byte-identical across them — the differential property
// tests/trace_test.cc pins.
//
// Determinism contract: output fingerprints are deterministic always.
// Counter totals (computed/loaded/shared) are additionally deterministic
// when the replay is sequential on a virtual clock with a fixed
// materialization policy — measured costs are then constants, so the
// min-cut planner makes identical decisions run after run. That mode is
// what record-then-replay CI smoke and the determinism tests use; wall
// benchmarks use the system clock and concurrency instead.
#ifndef HELIX_WORKLOAD_REPLAY_H_
#define HELIX_WORKLOAD_REPLAY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "core/materialization.h"
#include "service/session_service.h"
#include "storage/store.h"
#include "workload/trace.h"

namespace helix {
namespace workload {

struct ReplayOptions {
  // --- In-process target (default) ---------------------------------------
  /// Service workspace ("" = pure in-memory service).
  std::string workspace_dir;
  storage::StorageBackendKind storage_backend =
      storage::StorageBackendKind::kMemory;
  int64_t storage_budget_bytes = 1LL << 30;
  /// RAM budget for each session's in-flight intermediates (planned peak;
  /// the executor drops results after their last use and narrows its
  /// width to stay under it). 0 = unbudgeted.
  int64_t memory_budget_bytes = 0;
  /// Shared pool width (0 = hardware concurrency).
  int threads = 0;
  /// nullptr = per-session OnlineCostModelPolicy. Determinism runs pass a
  /// shared AlwaysMaterializePolicy.
  std::shared_ptr<core::MaterializationPolicy> mat_policy;
  /// Drives sessions, store, and every latency measurement. nullptr = the
  /// system clock. A virtual clock forces sequential replay.
  Clock* clock = nullptr;

  // --- Remote target ------------------------------------------------------
  /// Non-empty host switches the replay to a remote server; the in-process
  /// fields above are then ignored (the server was configured at launch).
  std::string remote_host;
  int remote_port = 0;

  // --- Replay behavior ----------------------------------------------------
  /// Strict trace order on the calling thread, instead of one thread per
  /// user. Implied by a virtual clock.
  bool sequential = false;
  /// Multiplier on each event's think time: 0 = ignore think times
  /// (benchmarks), 1 = faithful. A virtual clock advances instead of
  /// sleeping, so faithful replay is instant *and* timestamp-accurate.
  double think_scale = 0.0;
  /// Directory substituted for ${WS} in spec paths ("" = events used
  /// verbatim). See MaterializeTraceData.
  std::string data_dir;
  /// Re-records what actually ran (with think times preserved): wired as
  /// the SessionService iteration observer in-process, recorded at the
  /// client callsite for remote targets. Optional.
  TraceRecorder* recorder = nullptr;
};

/// One replayed iteration, in trace event order.
struct IterationRecord {
  uint32_t user = 0;
  /// Per-user iteration index (0-based).
  uint32_t index = 0;
  /// Combined output fingerprint: Hasher over (name, fingerprint) in
  /// output-name order — identical in-process and remote.
  uint64_t fingerprint = 0;
  int64_t latency_micros = 0;
  int64_t num_computed = 0;
  int64_t num_loaded = 0;
  int64_t num_shared = 0;
  int64_t num_pruned = 0;
};

struct ReplayResult {
  std::vector<IterationRecord> records;
  /// Aggregate service counters after the replay (service-side for remote
  /// targets).
  service::SessionCounters totals;
  /// Order-dependent digest over every record's (user, index,
  /// fingerprint): one value that pins the whole replay's outputs.
  uint64_t run_fingerprint = 0;
  int64_t wall_micros = 0;
  /// Post-replay telemetry (service metrics snapshot / Chrome trace JSON),
  /// from the in-process service or via GetMetrics/GetTrace for remote
  /// targets.
  std::string metrics_json;
  std::string trace_json;

  /// Store hit rate over planned node executions: loaded / (computed +
  /// loaded).
  double hit_rate() const {
    int64_t denom = totals.num_computed + totals.num_loaded;
    return denom == 0
               ? 0.0
               : static_cast<double>(totals.num_loaded) /
                     static_cast<double>(denom);
  }
};

/// Replays `trace` against the target selected by `options`. Fails fast
/// with context on the first failing event. InvalidArgument on a virtual
/// clock without sequential=true being implied, or on events whose spec
/// cannot be resolved.
Result<ReplayResult> ReplayTrace(const Trace& trace,
                                 const ReplayOptions& options);

}  // namespace workload
}  // namespace helix

#endif  // HELIX_WORKLOAD_REPLAY_H_
