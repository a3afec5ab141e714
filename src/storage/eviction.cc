#include "storage/eviction.h"

#include <algorithm>

namespace helix {
namespace storage {

double RetentionScore(const StoreEntry& entry, int64_t est_load_micros,
                      int64_t default_compute_micros) {
  int64_t load = entry.load_micros >= 0 ? entry.load_micros : est_load_micros;
  int64_t compute = entry.compute_micros >= 0 ? entry.compute_micros
                                              : default_compute_micros;
  int64_t saved = compute - load;
  if (saved <= 0) {
    return 0.0;  // cheaper to recompute than to load: worthless to keep
  }
  int64_t size = std::max<int64_t>(entry.size_bytes, 1);
  return static_cast<double>(saved) / static_cast<double>(size);
}

EvictionPlan PlanEviction(const std::vector<EvictionCandidate>& candidates,
                          int64_t bytes_needed, double incoming_score,
                          int64_t default_compute_micros) {
  struct Scored {
    double score;
    const EvictionCandidate* candidate;
  };
  std::vector<Scored> scored;
  scored.reserve(candidates.size());
  for (const EvictionCandidate& c : candidates) {
    double s = RetentionScore(c.entry, c.est_load_micros,
                              default_compute_micros);
    if (s < incoming_score) {
      scored.push_back({s, &c});
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const Scored& a, const Scored& b) {
              if (a.score != b.score) {
                return a.score < b.score;
              }
              if (a.candidate->entry.iteration !=
                  b.candidate->entry.iteration) {
                return a.candidate->entry.iteration <
                       b.candidate->entry.iteration;
              }
              return a.candidate->entry.signature <
                     b.candidate->entry.signature;
            });

  EvictionPlan plan;
  for (const Scored& s : scored) {
    if (plan.freed_bytes >= bytes_needed) {
      break;
    }
    plan.victims.push_back(s.candidate->entry.signature);
    plan.freed_bytes += s.candidate->entry.size_bytes;
  }
  plan.feasible = plan.freed_bytes >= bytes_needed;
  if (!plan.feasible) {
    plan.victims.clear();
    plan.freed_bytes = 0;
  }
  return plan;
}

}  // namespace storage
}  // namespace helix
