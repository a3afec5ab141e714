// The materialization problem (paper Section 2.3).
//
// During execution HELIX decides, immediately when each operator finishes
// (the online constraint: results cannot be parked in memory for deferred
// decisions), whether to persist its output under the storage budget. The
// offline problem is NP-hard even under strong assumptions (reduction from
// KNAPSACK); the paper uses a simple online cost model:
//
//     r_i = 2 * l_i - (c_i + sum_{n_j in A(n_i)} c_j)
//
// where l_i is the (estimated) load cost, c_i the compute cost, and A(n_i)
// the ancestors of n_i. Materializing costs about one write (~l_i) now and
// saves (c_i + ancestor computes) - l_i next iteration, so materialize
// when r_i < 0 and the result fits in the remaining budget.
//
// Policies implemented:
//   * OnlineCostModelPolicy  — the paper's rule (HELIX's default)
//   * AlwaysMaterializePolicy — DeepDive-style materialize-everything
//   * NeverMaterializePolicy  — KeystoneML-style
//   * PhaseFilterPolicy       — restricts another policy to given phases
//     (DeepDive materializes pre-processing results only)
//
// SolveOfflineKnapsack computes the clairvoyant-OPT selection for the
// ablation benchmark, under the paper's simplifying assumption (one more
// iteration, everything reusable, independent benefits).
#ifndef HELIX_CORE_MATERIALIZATION_H_
#define HELIX_CORE_MATERIALIZATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/operator.h"

namespace helix {
namespace core {

/// Everything a policy may consult when an operator completes.
struct MaterializationContext {
  std::string node_name;
  Phase phase = Phase::kDataPreprocessing;
  /// Measured compute cost of this node at this iteration.
  int64_t compute_micros = 0;
  /// Estimated cost of loading the result back (l_i).
  int64_t est_load_micros = 0;
  /// Sum of best-known compute costs over all ancestors A(n_i).
  int64_t ancestors_compute_micros = 0;
  /// Serialized size of the result.
  int64_t size_bytes = 0;
  /// Bytes the store can make room for: its whole budget, since eviction
  /// frees the rest.
  int64_t remaining_budget_bytes = 0;
};

/// Per-node outcome of one iteration, fed back to adaptive policies.
struct NodeOutcome {
  std::string name;
  bool loaded = false;        // reused a stored result this iteration
  bool materialized = false;  // persisted a fresh result this iteration
};

/// Online materialization decision rule.
class MaterializationPolicy {
 public:
  virtual ~MaterializationPolicy() = default;

  /// True to persist the result described by `ctx`.
  virtual bool ShouldMaterialize(const MaterializationContext& ctx) const = 0;

  /// Called by the session after each iteration with what actually
  /// happened; adaptive policies (ReusePredictingPolicy) learn from it.
  virtual void ObserveOutcomes(const std::vector<NodeOutcome>& outcomes) {
    (void)outcomes;
  }

  /// Human-readable policy name (reports / benchmarks).
  virtual std::string name() const = 0;
};

/// The paper's cost-model rule: materialize iff r_i < 0 and it fits.
class OnlineCostModelPolicy final : public MaterializationPolicy {
 public:
  bool ShouldMaterialize(const MaterializationContext& ctx) const override;
  std::string name() const override { return "helix-online"; }

  /// r_i = 2*l_i - (c_i + ancestor computes); exposed for tests.
  static int64_t ReductionScore(const MaterializationContext& ctx);
};

/// Materialize everything that fits (DeepDive-style when combined with the
/// pre-processing phase filter).
class AlwaysMaterializePolicy final : public MaterializationPolicy {
 public:
  bool ShouldMaterialize(const MaterializationContext& ctx) const override;
  std::string name() const override { return "always"; }
};

/// Never materialize (KeystoneML-style).
class NeverMaterializePolicy final : public MaterializationPolicy {
 public:
  bool ShouldMaterialize(const MaterializationContext&) const override {
    return false;
  }
  std::string name() const override { return "never"; }
};

/// Applies `inner` only to nodes in the listed phases; others are never
/// materialized.
class PhaseFilterPolicy final : public MaterializationPolicy {
 public:
  PhaseFilterPolicy(std::shared_ptr<MaterializationPolicy> inner,
                    std::vector<Phase> phases)
      : inner_(std::move(inner)), phases_(std::move(phases)) {}

  bool ShouldMaterialize(const MaterializationContext& ctx) const override;
  std::string name() const override {
    return inner_->name() + "+phase-filter";
  }

 private:
  std::shared_ptr<MaterializationPolicy> inner_;
  std::vector<Phase> phases_;
};

/// The paper's "ongoing work" extension (Section 2.3): predict each
/// node's reuse probability from its history and materialize when the
/// *expected* future saving exceeds the write cost:
///
///     p̂(name) · [ (c_i + Σ ancestors c_j) − l_i ]  >  l_i
///
/// p̂ is a Beta-smoothed estimate of "fraction of materializations of this
/// node name that were later reused (loaded)". With no history the prior
/// makes it behave close to the plain cost-model rule; nodes that keep
/// getting invalidated before reuse (e.g. a feature the user churns on)
/// quickly stop being persisted.
class ReusePredictingPolicy final : public MaterializationPolicy {
 public:
  struct Options {
    /// Prior mean reuse probability (Beta prior mean).
    double prior_reuse_probability = 0.6;
    /// Prior strength in pseudo-observations (Beta prior weight).
    double prior_strength = 2.0;
  };

  ReusePredictingPolicy() : ReusePredictingPolicy(Options()) {}
  explicit ReusePredictingPolicy(Options options) : options_(options) {}

  bool ShouldMaterialize(const MaterializationContext& ctx) const override;
  void ObserveOutcomes(const std::vector<NodeOutcome>& outcomes) override;
  std::string name() const override { return "reuse-predicting"; }

  /// Current estimate of p̂ for a node name (exposed for tests).
  double PredictedReuseProbability(const std::string& node_name) const;

 private:
  struct History {
    int64_t materialized = 0;
    int64_t reused = 0;
  };

  Options options_;
  std::map<std::string, History> history_;
};

/// One candidate for offline selection.
struct MaterializationCandidate {
  std::string node_name;
  int64_t size_bytes = 0;
  /// Next-iteration benefit of having this result on disk:
  /// (c_i + ancestor computes) - l_i, clamped at >= 0.
  int64_t benefit_micros = 0;
};

/// Offline 0/1-knapsack OPT over candidates given the byte budget.
/// Returns indices of chosen candidates. Sizes are bucketed to 4 KiB
/// granularity to bound the DP table; with <= 64 candidates and typical
/// budgets this is exact enough for the ablation claims.
std::vector<size_t> SolveOfflineKnapsack(
    const std::vector<MaterializationCandidate>& candidates,
    int64_t budget_bytes);

}  // namespace core
}  // namespace helix

#endif  // HELIX_CORE_MATERIALIZATION_H_
