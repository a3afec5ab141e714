// Cost-based eviction for the materialization store.
//
// The HELIX follow-up work frames materialization as an *online caching*
// problem: under a storage budget, the entries worth keeping are the ones
// whose reuse saves the most future time per byte of budget they occupy.
// For an entry i that a future iteration would otherwise recompute, the
// saving of having it on disk is (c_i - l_i) — compute cost avoided minus
// load cost paid — so the retention score is that saving normalized by
// size:
//
//     score(i) = max(c_i - l_i, 0) / size_i      [micros saved per byte]
//
// An entry whose load costs more than its recompute (score 0) is worthless
// and is always the first victim. When a new result needs room, the store
// evicts victims in ascending score order, but only victims scoring
// strictly below the incoming entry — a low-value newcomer must not churn
// out higher-value residents (the classic cache-admission guard).
#ifndef HELIX_STORAGE_EVICTION_H_
#define HELIX_STORAGE_EVICTION_H_

#include <cstdint>
#include <vector>

#include "storage/backend.h"

namespace helix {
namespace storage {

/// One eviction candidate: an entry plus the store's current estimate of
/// its load cost (used when the entry was never actually loaded).
struct EvictionCandidate {
  StoreEntry entry;
  int64_t est_load_micros = 0;
};

/// Result of planning one eviction round.
struct EvictionPlan {
  /// Signatures to evict, in eviction order.
  std::vector<uint64_t> victims;
  /// Sum of victims' size_bytes.
  int64_t freed_bytes = 0;
  /// True if evicting `victims` frees at least the requested bytes.
  bool feasible = false;
};

/// Retention score of `entry`: estimated micros of future work saved per
/// byte of budget held. Uses the measured load cost when available,
/// `est_load_micros` otherwise; an unknown compute cost (-1) falls back to
/// `default_compute_micros` (never-measured entries are presumed mid-value
/// rather than free). Pure function; thread-safe.
double RetentionScore(const StoreEntry& entry, int64_t est_load_micros,
                      int64_t default_compute_micros);

/// Plans which of `candidates` to evict to free `bytes_needed`, choosing
/// lowest retention score first. Equal scores are broken by the documented
/// total order: older iteration first, then smaller signature — so the
/// victim sequence is fully deterministic and independent of candidate
/// enumeration order (and therefore of the store's shard count; pinned by
/// tests/storage_test.cc:EqualScoreEvictionOrderIsSameAcrossShardCounts).
/// Only candidates scoring strictly below `incoming_score` are eligible;
/// the plan is infeasible (and `victims` is empty) if the eligible set
/// cannot free enough bytes. Pure function; thread-safe.
EvictionPlan PlanEviction(const std::vector<EvictionCandidate>& candidates,
                          int64_t bytes_needed, double incoming_score,
                          int64_t default_compute_micros);

}  // namespace storage
}  // namespace helix

#endif  // HELIX_STORAGE_EVICTION_H_
