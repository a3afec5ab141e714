#include "core/memory_planner.h"

#include <algorithm>

namespace helix {
namespace core {

namespace {

// Simulates the executor's budget-mode semantics over a fixed order: each
// node is produced per its planned state and, when `release` is set,
// dropped once every active consumer that computes from it has run. The
// order is topological over the active nodes, so a computing node's
// parents are always still resident when it runs and nothing is ever
// re-produced. The executor's sequential budget loop implements exactly
// this rule, so the simulated peak is the planned peak of the real run.
// `release` off reproduces the legacy keep-everything executor (used to
// measure the unbudgeted peak).
int64_t SimulatePeak(const MemoryProblem& p, const std::vector<bool>& active,
                     const std::vector<int>& uses,
                     const std::vector<int>& order, bool release) {
  const size_t n = static_cast<size_t>(p.dag->num_nodes());
  std::vector<bool> resident(n, false);
  std::vector<int> remaining_uses = uses;
  int64_t resident_bytes = 0;
  int64_t peak_bytes = 0;
  for (int j : order) {
    size_t js = static_cast<size_t>(j);
    resident[js] = true;
    resident_bytes += p.output_bytes[js];
    peak_bytes =
        std::max(peak_bytes, resident_bytes + p.transient_bytes[js]);
    if (!release) {
      continue;
    }
    if (p.states[js] == NodeState::kCompute) {
      for (graph::NodeId parent : p.dag->Parents(j)) {
        if (active[static_cast<size_t>(parent)]) {
          --remaining_uses[static_cast<size_t>(parent)];
        }
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (resident[i] && !p.is_output[i] && remaining_uses[i] == 0) {
        resident[i] = false;
        resident_bytes -= p.output_bytes[i];
      }
    }
  }
  return peak_bytes;
}

// Memory-aware topological order over the active nodes: among ready nodes
// always pick the one whose execution grows the resident set least (its
// own footprint minus the parents its last use would free), tie-broken on
// node id so the order — and therefore the whole plan — is deterministic.
std::vector<int> PlanOrder(const MemoryProblem& problem,
                           const std::vector<bool>& active,
                           const std::vector<int>& uses) {
  const int n = problem.dag->num_nodes();
  std::vector<int> indegree(static_cast<size_t>(n), 0);
  std::vector<int> remaining_uses = uses;
  for (int i = 0; i < n; ++i) {
    if (!active[static_cast<size_t>(i)]) {
      continue;
    }
    for (graph::NodeId parent : problem.dag->Parents(i)) {
      if (active[static_cast<size_t>(parent)]) {
        ++indegree[static_cast<size_t>(i)];
      }
    }
  }
  std::vector<int> order;
  std::vector<bool> done(static_cast<size_t>(n), false);
  for (;;) {
    int best = -1;
    int64_t best_growth = 0;
    for (int i = 0; i < n; ++i) {
      size_t s = static_cast<size_t>(i);
      if (!active[s] || done[s] || indegree[s] != 0) {
        continue;
      }
      int64_t growth = problem.output_bytes[s];
      if (problem.states[s] == NodeState::kCompute) {
        for (graph::NodeId parent : problem.dag->Parents(i)) {
          size_t ps = static_cast<size_t>(parent);
          if (active[ps] && !problem.is_output[ps] &&
              remaining_uses[ps] == 1) {
            growth -= problem.output_bytes[ps];
          }
        }
      }
      if (best == -1 || growth < best_growth) {
        best = i;
        best_growth = growth;
      }
    }
    if (best == -1) {
      break;
    }
    size_t bs = static_cast<size_t>(best);
    done[bs] = true;
    order.push_back(best);
    if (problem.states[bs] == NodeState::kCompute) {
      for (graph::NodeId parent : problem.dag->Parents(best)) {
        if (active[static_cast<size_t>(parent)]) {
          --remaining_uses[static_cast<size_t>(parent)];
        }
      }
    }
    for (graph::NodeId child : problem.dag->Children(best)) {
      if (active[static_cast<size_t>(child)]) {
        --indegree[static_cast<size_t>(child)];
      }
    }
  }
  return order;
}

}  // namespace

Result<MemoryPlan> PlanMemory(const MemoryProblem& problem) {
  if (problem.dag == nullptr) {
    return Status::InvalidArgument("memory problem has no dag");
  }
  const size_t n = static_cast<size_t>(problem.dag->num_nodes());
  if (problem.states.size() != n || problem.is_output.size() != n ||
      problem.output_bytes.size() != n ||
      problem.transient_bytes.size() != n) {
    return Status::InvalidArgument(
        "memory problem vectors must match dag size");
  }

  std::vector<bool> active(n, false);
  for (size_t i = 0; i < n; ++i) {
    active[i] = problem.states[i] != NodeState::kPrune;
  }
  // A node is "used" once per active child that computes from it; loaded
  // children read the store, not their parents, so they hold no reference.
  std::vector<int> uses(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (!active[i] || problem.states[i] != NodeState::kCompute) {
      continue;
    }
    for (graph::NodeId parent :
         problem.dag->Parents(static_cast<int>(i))) {
      if (active[static_cast<size_t>(parent)]) {
        ++uses[static_cast<size_t>(parent)];
      }
    }
  }

  MemoryPlan plan;
  plan.order = PlanOrder(problem, active, uses);
  plan.unbudgeted_peak_bytes =
      SimulatePeak(problem, active, uses, plan.order, /*release=*/false);
  if (problem.budget_bytes <= 0) {
    plan.planned_peak_bytes = plan.unbudgeted_peak_bytes;
    plan.max_width = std::max(1, problem.requested_width);
    return plan;
  }
  plan.enabled = true;

  // Widen toward the requested parallelism as far as the budget allows.
  // Each extra concurrent node holds at most one more working set (its
  // output plus transient), so the width-aware bound is the sequential
  // peak plus (W-1) of the largest single-node footprint. When even the
  // sequential peak does not fit, the plan is width 1 and infeasible: the
  // executor runs it best-effort.
  const int64_t sequential_peak =
      SimulatePeak(problem, active, uses, plan.order, /*release=*/true);
  int64_t max_footprint = 0;
  for (size_t i = 0; i < n; ++i) {
    if (active[i]) {
      max_footprint =
          std::max(max_footprint,
                   problem.output_bytes[i] + problem.transient_bytes[i]);
    }
  }
  int width = std::max(1, problem.requested_width);
  while (width > 1 && sequential_peak + (width - 1) * max_footprint >
                          problem.budget_bytes) {
    --width;
  }
  plan.max_width = width;
  plan.planned_peak_bytes = sequential_peak + (width - 1) * max_footprint;
  plan.feasible = plan.planned_peak_bytes <= problem.budget_bytes;
  return plan;
}

}  // namespace core
}  // namespace helix
