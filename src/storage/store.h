// The materialization store: intermediate results under a storage budget.
//
// The HELIX execution engine "chooses intermediate results to persist (with
// a maximum storage constraint) in order to minimize the latency of future
// iterations" (paper Section 2.3). Entries are keyed by the producing
// node's cumulative Merkle signature, so an operator edit anywhere upstream
// changes the key and stale results are never reused — this implements the
// iterative change tracker's invalidation semantics at the storage layer.
//
// Architecture (this layer's three jobs):
//   * indexing  — the metadata index sits under one mutex held only for
//     map lookups and updates; payload I/O runs outside it, so concurrent
//     loads from the parallel runtime still overlap;
//   * backends  — payload bytes live behind the StorageBackend interface
//     (storage/backend.h): a persistent append-only-segment disk backend
//     (storage/disk_backend.h) or a volatile in-memory one
//     (storage/memory_backend.h);
//   * eviction  — when a Put does not fit the remaining budget, the store
//     evicts lowest-retention-score entries (storage/eviction.h) instead
//     of rejecting, turning the budget into an online cache constraint as
//     in the HELIX follow-up work (arXiv:1812.05762).
#ifndef HELIX_STORAGE_STORE_H_
#define HELIX_STORAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "dataflow/data_collection.h"
#include "storage/backend.h"

namespace helix {
namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace obs

namespace storage {

class CostStatsRegistry;

/// Options for opening a store.
struct StoreOptions {
  /// Maximum total bytes of materialized results: an online cache
  /// budget. An over-budget Put evicts low-value entries to make room.
  int64_t budget_bytes = 1LL << 30;
  /// Clock used to measure write/load costs (real I/O always happens; a
  /// virtual clock simply won't observe it, callers then charge synthetic
  /// costs themselves).
  Clock* clock = SystemClock::Default();
  /// Where payload bytes live. kDisk persists across process restart;
  /// kMemory is an in-process map (reuse within one process only).
  StorageBackendKind backend = StorageBackendKind::kDisk;
  /// Compute-cost fallback for retention scoring of entries whose
  /// producer cost was never recorded (mirrors
  /// ExecutionOptions::default_compute_estimate_micros).
  int64_t default_compute_estimate_micros = 1000000;
  /// Optional live statistics registry. When set, eviction planning
  /// refreshes each candidate's compute/load costs from the registry's
  /// current snapshot instead of trusting the costs frozen into the entry
  /// at Put time — an entry written under a pre-edit DAG version would
  /// otherwise score with stale compute_micros forever. Must outlive the
  /// store.
  const CostStatsRegistry* cost_stats = nullptr;
  /// Optional telemetry. When set, the store registers aggregate counters
  /// (`store.hits/misses/evictions/bytes_read/bytes_written`), the
  /// resident-bytes gauge `store.bytes`, and phase histograms splitting a Get
  /// into `store.get.read_micros` (backend read and verify) and
  /// `store.get.decode_micros`, and a Put into
  /// `store.put.serialize_micros` and `store.put.write_micros`. Must
  /// outlive the store.
  obs::MetricsRegistry* metrics = nullptr;
};

/// A budget-gated result store over a pluggable payload backend.
///
/// Thread safety: all public methods are safe to call concurrently.
/// Metadata operations take the index mutex; payload I/O (backend
/// Read/Write) runs outside it so concurrent loads overlap; budget
/// admission and eviction are serialized on one budget mutex, so
/// concurrent Puts can never jointly overshoot the budget.
/// Lock order: budget mutex -> index mutex -> backend internals.
///
/// Ownership: the store owns its backend; a Session owns the store. The
/// Clock in StoreOptions must outlive the store.
///
/// Failure modes: corrupt or missing payloads are detected on Get and
/// self-heal by evicting the entry, so callers fall back to
/// recomputation; a failed backend write surfaces as a failed Put (the
/// executor demotes that to "skip persisting"). Crash recovery is the
/// backend's job — reopening a disk-backed store serves every entry whose
/// write completed before the crash.
class IntermediateStore {
 public:
  /// Opens a store rooted at `dir` (created if needed). For the disk
  /// backend the directory holds the segment files and `dir` must be
  /// non-empty; reopening the same directory resumes with all previously
  /// persisted entries (recovered entries beyond the budget are evicted
  /// lowest-retention-first). The memory backend ignores `dir`.
  static Result<std::unique_ptr<IntermediateStore>> Open(
      const std::string& dir, const StoreOptions& options);

  /// True if a valid index entry exists for `signature`.
  bool Has(uint64_t signature) const;

  /// Copy of the entry metadata, or nullopt. Safe under concurrency.
  std::optional<StoreEntry> GetEntry(uint64_t signature) const;

  /// Reads and verifies the stored result: the backend checks its record
  /// checksum and the envelope decodes without re-hashing the same bytes.
  /// With `paranoid`, the envelope's trailer is also checked over its
  /// body and against the CRC recorded at Put (StoreEntry::envelope_crc,
  /// when recorded), which catches a payload swapped for another valid
  /// envelope. On corruption the entry is evicted and Corruption is
  /// returned; NotFound if never stored or evicted concurrently.
  Result<dataflow::DataCollection> Get(uint64_t signature,
                                       bool paranoid = false);

  /// Persists `data` under `signature`. Returns AlreadyExists if present
  /// or if a concurrent Put of the same signature is in flight.
  /// If the result does not fit the remaining budget, eviction frees room
  /// by dropping entries with strictly lower retention scores; returns
  /// ResourceExhausted when the result exceeds the whole budget or when
  /// making room would evict higher-value entries.
  /// `write_micros_out` (optional) receives the measured write time;
  /// `compute_micros` (optional) is the producer's measured compute cost,
  /// recorded for retention scoring (-1 = unknown).
  Status Put(uint64_t signature, const std::string& node_name,
             const dataflow::DataCollection& data, int64_t iteration,
             int64_t* write_micros_out = nullptr,
             int64_t compute_micros = -1);

  /// Removes one entry (no-op if absent).
  Status Remove(uint64_t signature);

  /// Sum of stored entries' payload sizes.
  int64_t TotalBytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  int64_t BudgetBytes() const { return options_.budget_bytes; }
  size_t NumEntries() const;

  /// Entries evicted to make room since open (diagnostics/tests).
  int64_t NumEvictions() const {
    return num_evictions_.load(std::memory_order_relaxed);
  }

  /// Entries ordered by signature (deterministic iteration for reporting).
  std::vector<StoreEntry> Entries() const;

  /// Predicts the cost of loading `size_bytes` from this store, from the
  /// bandwidth observed on previous reads/writes. Used by the planner for
  /// results that have never been loaded. Returns a conservative default
  /// when no I/O has been observed yet.
  int64_t EstimateLoadMicros(int64_t size_bytes) const;

  /// True while EstimateLoadMicros still returns its flat default (no
  /// transfer has been timed yet) and a transfer of `size_bytes` is large
  /// enough to be timed: the write of such a result gives every later
  /// estimate a measured bandwidth.
  bool LearnsBandwidthFrom(int64_t size_bytes) const;

 private:
  explicit IntermediateStore(const StoreOptions& options)
      : options_(options) {}

  // Frees at least `bytes_needed` by evicting entries scoring strictly
  // below `incoming_score`; requires budget_mu_. ResourceExhausted when
  // the eligible victims cannot free enough.
  Status EvictForLocked(int64_t bytes_needed, double incoming_score);
  // Drops one entry from index + backend; returns bytes actually freed.
  int64_t EvictOne(uint64_t signature);
  // EstimateLoadMicros; requires mu_.
  int64_t EstimateLoadMicrosLocked(int64_t size_bytes) const;

  StoreOptions options_;
  std::unique_ptr<StorageBackend> backend_;

  // The index. mu_ guards entries_, writing_ and the estimator's
  // observed_* totals; it is held only for map and counter updates, never
  // across backend Read/Write (EvictOne's Delete is the one backend call
  // made under it).
  mutable std::mutex mu_;
  std::map<uint64_t, StoreEntry> entries_;
  // Signatures with a Put between its index probe and its index insert.
  // One Put per signature at a time keeps every record of a signature
  // ordered against its tombstones (see EvictOne).
  std::set<uint64_t> writing_;

  // Budget accounting. total_bytes_ is authoritative and updated under
  // budget_mu_ for admission (reserve/unreserve) but read lock-free.
  std::mutex budget_mu_;
  std::atomic<int64_t> total_bytes_{0};
  std::atomic<int64_t> num_evictions_{0};

  // Aggregate telemetry (null when StoreOptions::metrics is unset; set
  // once in Open). The gauge mirrors total_bytes_ after every mutation.
  obs::Counter* hits_total_ = nullptr;
  obs::Counter* misses_total_ = nullptr;
  obs::Counter* evictions_total_ = nullptr;
  obs::Counter* bytes_read_total_ = nullptr;
  obs::Counter* bytes_written_total_ = nullptr;
  obs::Gauge* bytes_gauge_ = nullptr;
  obs::Histogram* get_read_micros_ = nullptr;
  obs::Histogram* get_decode_micros_ = nullptr;
  obs::Histogram* put_serialize_micros_ = nullptr;
  obs::Histogram* put_write_micros_ = nullptr;

  // Observed throughput for load-cost estimation (under mu_). Reads (load
  // + deserialize) and writes (serialize + flush) have very different
  // throughput, so they are tracked separately; load estimation prefers
  // read observations.
  int64_t observed_read_bytes_ = 0;
  int64_t observed_read_micros_ = 0;
  int64_t observed_write_bytes_ = 0;
  int64_t observed_write_micros_ = 0;
};

}  // namespace storage
}  // namespace helix

#endif  // HELIX_STORAGE_STORE_H_
