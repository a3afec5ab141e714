// Memory-budget planning tests: the planner's order, peak and width on
// hand-built problems, the executor's budget-mode semantics (drops after
// last use, re-production of a dropped parent by the load-failure
// fallback, overhead accounting), and the 10-seed determinism property —
// outputs are bit-identical whether the budget is infinite, tight, or
// pathological.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "backend_util.h"
#include "common/clock.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "core/executor.h"
#include "core/materialization.h"
#include "core/memory_planner.h"
#include "core/std_ops.h"
#include "core/workflow.h"
#include "core/workflow_dag.h"
#include "graph/dag.h"
#include "obs/metrics.h"
#include "storage/cost_stats.h"
#include "storage/disk_backend.h"
#include "storage/store.h"

namespace helix {
namespace core {
namespace {

namespace ops = core::ops;

// -------------------------------------------------------------------------
// Planner units
// -------------------------------------------------------------------------

// A -> B -> C -> D(output), 100 bytes each: drop-after-last-use holds at
// most one parent+child pair, so the sequential peak is 200 against an
// unbudgeted 400.
MemoryProblem ChainProblem(graph::Dag* dag) {
  dag->AddNodes(4);
  EXPECT_TRUE(dag->AddEdge(0, 1).ok());
  EXPECT_TRUE(dag->AddEdge(1, 2).ok());
  EXPECT_TRUE(dag->AddEdge(2, 3).ok());
  MemoryProblem p;
  p.dag = dag;
  p.states.assign(4, NodeState::kCompute);
  p.is_output = {false, false, false, true};
  p.output_bytes.assign(4, 100);
  p.transient_bytes.assign(4, 0);
  return p;
}

TEST(MemoryPlannerTest, NoBudgetReportsUnbudgetedPeak) {
  graph::Dag dag;
  MemoryProblem p = ChainProblem(&dag);
  p.budget_bytes = 0;
  auto plan = PlanMemory(p);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_FALSE(plan->enabled);
  EXPECT_TRUE(plan->feasible);
  EXPECT_EQ(plan->unbudgeted_peak_bytes, 400);
  EXPECT_EQ(plan->planned_peak_bytes, 400);
  EXPECT_EQ(plan->order.size(), 4u);
}

TEST(MemoryPlannerTest, DropAfterLastUseFitsBudget) {
  graph::Dag dag;
  MemoryProblem p = ChainProblem(&dag);
  p.budget_bytes = 250;
  auto plan = PlanMemory(p);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->enabled);
  EXPECT_TRUE(plan->feasible);
  EXPECT_EQ(plan->planned_peak_bytes, 200);
  EXPECT_EQ(plan->unbudgeted_peak_bytes, 400);
}

TEST(MemoryPlannerTest, ChainPairPeakIsIrreducible) {
  // Nothing shrinks a chain below parent+child: the plan is best-effort
  // and honestly reports infeasible rather than thrashing.
  graph::Dag dag;
  MemoryProblem p = ChainProblem(&dag);
  p.budget_bytes = 150;
  auto plan = PlanMemory(p);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->enabled);
  EXPECT_FALSE(plan->feasible);
  EXPECT_EQ(plan->planned_peak_bytes, 200);
}

// A(100) -> B(100) -> C(100) -> D(10, output), with A also feeding D: A is
// pinned across the whole chain by its late use, so drop-after-last-use
// peaks at A+B+C = 300.
MemoryProblem LateUseProblem(graph::Dag* dag) {
  dag->AddNodes(4);
  EXPECT_TRUE(dag->AddEdge(0, 1).ok());
  EXPECT_TRUE(dag->AddEdge(1, 2).ok());
  EXPECT_TRUE(dag->AddEdge(2, 3).ok());
  EXPECT_TRUE(dag->AddEdge(0, 3).ok());
  MemoryProblem p;
  p.dag = dag;
  p.states.assign(4, NodeState::kCompute);
  p.is_output = {false, false, false, true};
  p.output_bytes = {100, 100, 100, 10};
  p.transient_bytes.assign(4, 0);
  return p;
}

TEST(MemoryPlannerTest, DropOnlyMissIsSequentialAndInfeasible) {
  // The late use pins A past the budget: the plan reports the drop-only
  // estimate, collapses to width 1, and is run best-effort.
  graph::Dag dag;
  MemoryProblem p = LateUseProblem(&dag);
  p.budget_bytes = 250;
  p.requested_width = 8;
  auto plan = PlanMemory(p);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->enabled);
  EXPECT_FALSE(plan->feasible);
  EXPECT_EQ(plan->planned_peak_bytes, 300);
  EXPECT_EQ(plan->unbudgeted_peak_bytes, 310);
  EXPECT_EQ(plan->max_width, 1);
}

TEST(MemoryPlannerTest, WidthNarrowsToFitConcurrentWorkingSets) {
  graph::Dag dag;
  MemoryProblem p = ChainProblem(&dag);
  p.requested_width = 4;
  // Drop-only peak 200 + (W-1) * 100 must stay under 450: W = 3.
  p.budget_bytes = 450;
  auto plan = PlanMemory(p);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->feasible);
  EXPECT_EQ(plan->max_width, 3);
  EXPECT_EQ(plan->planned_peak_bytes, 400);
}

TEST(MemoryPlannerTest, DeterministicPlans) {
  for (int round = 0; round < 3; ++round) {
    graph::Dag dag;
    MemoryProblem p = LateUseProblem(&dag);
    p.budget_bytes = 250;
    auto a = PlanMemory(p);
    auto b = PlanMemory(p);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a->order, b->order);
    EXPECT_EQ(a->max_width, b->max_width);
    EXPECT_EQ(a->planned_peak_bytes, b->planned_peak_bytes);
  }
}

// -------------------------------------------------------------------------
// Executor budget mode
// -------------------------------------------------------------------------

// The LateUse shape as a real workflow. payload_kb controls actual output
// sizes; declared costs make timing deterministic on the virtual clock.
Workflow LateUseWorkflow(int64_t edit_tag) {
  Workflow wf("late-use");
  SyntheticCosts costs{1000, 100, 0};
  NodeRef a = wf.Add(ops::Synthetic("big-a", Phase::kDataPreprocessing, 11,
                                    costs, /*payload_bytes=*/100 << 10));
  NodeRef b = wf.Add(ops::Synthetic("b", Phase::kDataPreprocessing, 22, costs,
                                    /*payload_bytes=*/100 << 10),
                     {a});
  NodeRef c = wf.Add(ops::Synthetic("c", Phase::kMachineLearning,
                                    33 + edit_tag, costs,
                                    /*payload_bytes=*/100 << 10),
                     {b});
  NodeRef d = wf.Add(ops::Synthetic("eval", Phase::kPostprocessing, 44, costs,
                                    /*payload_bytes=*/10 << 10),
                     {c, a});
  wf.MarkOutput(d);
  return wf;
}

std::map<std::string, uint64_t> Fingerprints(const ExecutionReport& report) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, data] : report.outputs) {
    out[name] = data.Fingerprint();
  }
  return out;
}

class MemoryExecutorTest : public ::testing::Test {
 protected:
  // Store-less execution: stats carry size history, nothing is loadable,
  // so budget pressure exercises the drop-after-last-use path.
  ExecutionOptions Options(int64_t iteration, int64_t budget) {
    ExecutionOptions options;
    options.clock = &clock_;
    options.stats = &stats_;
    options.iteration = iteration;
    options.memory_budget_bytes = budget;
    return options;
  }

  ExecutionReport Run(const Workflow& wf, const ExecutionOptions& options) {
    auto dag = WorkflowDag::Compile(wf);
    EXPECT_TRUE(dag.ok()) << dag.status().ToString();
    auto report = Execute(*dag, options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  }

  VirtualClock clock_;
  storage::CostStatsRegistry stats_;
};

TEST_F(MemoryExecutorTest, BudgetedRunMatchesUnbudgetedBitForBit) {
  Workflow wf = LateUseWorkflow(0);
  // Iteration 0 populates measured sizes; iteration 1 plans with them.
  Run(wf, Options(0, 0));
  ExecutionReport unbudgeted = Run(wf, Options(1, 0));
  ASSERT_GT(unbudgeted.unbudgeted_peak_bytes, 0);
  EXPECT_TRUE(unbudgeted.memory_feasible);
  EXPECT_EQ(unbudgeted.num_dropped, 0);
  EXPECT_EQ(unbudgeted.recompute_extra_micros, 0);

  int64_t budget = unbudgeted.unbudgeted_peak_bytes * 3 / 4;
  ExecutionReport budgeted = Run(wf, Options(2, budget));
  EXPECT_EQ(Fingerprints(budgeted), Fingerprints(unbudgeted));
  if (budgeted.memory_feasible) {
    EXPECT_LE(budgeted.planned_peak_bytes, budget);
  }
  EXPECT_LT(budgeted.planned_peak_bytes, unbudgeted.unbudgeted_peak_bytes);
  EXPECT_GT(budgeted.num_dropped, 0);
  // Measured resident accounting: both runs held something, and dropping
  // intermediates must show up as a strictly lower measured high-water.
  EXPECT_GT(unbudgeted.peak_resident_bytes, 0);
  EXPECT_GT(budgeted.peak_resident_bytes, 0);
  EXPECT_LT(budgeted.peak_resident_bytes, unbudgeted.peak_resident_bytes);
}

// a -> p -> {q, x} -> eval(output). Only the post-processing nodes (x and
// eval) are materialized, so after editing q a warm run computes a, p and q
// and loads x: p's one computing use is q, and it is dropped right after.
// q is unpadded and tiny, so running it frees p's bytes and the planner's
// order runs q before x.
Workflow FallbackWorkflow(int64_t q_tag) {
  Workflow wf("fallback");
  SyntheticCosts costs{1000, 100, 0};
  NodeRef a = wf.Add(ops::Synthetic("a", Phase::kDataPreprocessing, 11, costs,
                                    /*payload_bytes=*/100 << 10));
  NodeRef p = wf.Add(ops::Synthetic("p", Phase::kDataPreprocessing, 22, costs,
                                    /*payload_bytes=*/100 << 10),
                     {a});
  NodeRef q = wf.Add(ops::Synthetic("q", Phase::kMachineLearning, q_tag, costs),
                     {p});
  NodeRef x = wf.Add(ops::Synthetic("x", Phase::kPostprocessing, 33, costs,
                                    /*payload_bytes=*/100 << 10),
                     {p});
  NodeRef eval = wf.Add(ops::Synthetic("eval", Phase::kPostprocessing, 44,
                                       costs, /*payload_bytes=*/10 << 10),
                        {q, x});
  wf.MarkOutput(eval);
  return wf;
}

TEST_F(MemoryExecutorTest, RecomputeOverheadIsReportedNotHidden) {
  auto dir = MakeTempDir("helix-memory-fallback");
  ASSERT_TRUE(dir.ok());
  storage::StoreOptions store_options;
  store_options.clock = &clock_;
  PhaseFilterPolicy policy(std::make_shared<AlwaysMaterializePolicy>(),
                           {Phase::kPostprocessing});
  uint64_t x_sig = 0;
  {
    auto store = storage::IntermediateStore::Open(dir.value(), store_options);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ExecutionOptions options = Options(0, 0);
    options.store = store.value().get();
    options.mat_policy = &policy;
    ExecutionReport cold = Run(FallbackWorkflow(1), options);
    ASSERT_TRUE(cold.FindNode("x")->materialized);
    ASSERT_FALSE(cold.FindNode("p")->materialized);
    x_sig = cold.FindNode("x")->signature;
    auto entry = store.value()->GetEntry(x_sig);
    ASSERT_TRUE(entry.has_value());
    store.value().reset();
    // Tamper x's payload: a well-formed segment record whose bytes no
    // longer decode, so the reopened store still advertises x as loadable.
    auto backend =
        storage::DiskBackend::Open(dir.value(), storage::DiskBackendOptions());
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    ASSERT_TRUE(backend.value()->Recover().ok());
    ASSERT_TRUE(storage::WriteBytes(backend.value().get(), *entry,
                                    "not an envelope")
                    .ok());
  }
  auto store = storage::IntermediateStore::Open(dir.value(), store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  Workflow edited = FallbackWorkflow(2);
  ExecutionReport unbudgeted = Run(edited, Options(1, 0));
  ExecutionOptions options = Options(2, unbudgeted.unbudgeted_peak_bytes / 2);
  options.store = store.value().get();
  ExecutionReport budgeted = Run(edited, options);

  EXPECT_EQ(Fingerprints(budgeted), Fingerprints(unbudgeted));
  // x's planned load failed and fell back to computing x, whose parent p
  // had already been dropped after q, its last computing use.
  EXPECT_EQ(budgeted.FindNode("x")->state, NodeState::kCompute);
  const NodeExecution* p = budgeted.FindNode("p");
  EXPECT_TRUE(p->dropped);
  EXPECT_GT(p->recomputes, 0);
  EXPECT_GT(budgeted.num_recomputed_extra, 0);
  EXPECT_GT(budgeted.recompute_extra_micros, 0);
  // A re-produced node carries its drop in the report.
  for (const NodeExecution& node : budgeted.nodes) {
    if (node.recomputes > 0) {
      EXPECT_TRUE(node.dropped) << node.name;
    }
  }
  store.value().reset();
  (void)RemoveDirRecursively(dir.value());
}

TEST_F(MemoryExecutorTest, GaugesTrackPlannedPeakAndOverhead) {
  obs::MetricsRegistry metrics;
  Workflow wf = LateUseWorkflow(0);
  Run(wf, Options(0, 0));
  ExecutionReport unbudgeted = Run(wf, Options(1, 0));
  ExecutionOptions options =
      Options(2, unbudgeted.unbudgeted_peak_bytes / 2);
  options.metrics = &metrics;
  ExecutionReport budgeted = Run(wf, options);
  EXPECT_EQ(metrics.GetGauge("executor.peak_planned_bytes")->Value(),
            budgeted.planned_peak_bytes);
  EXPECT_EQ(metrics.GetGauge("executor.peak_resident_bytes")->Value(),
            budgeted.peak_resident_bytes);
  EXPECT_EQ(metrics.GetGauge("executor.recompute_extra_micros")->Value(),
            budgeted.recompute_extra_micros);
}

// Every result here dwarfs the store budget, so every materialization is
// an oversized Put. The store must refuse each one cleanly — zero eviction
// churn — and the executor must fall back to recomputing on the next
// iteration (nothing reusable landed) with bit-identical outputs.
TEST_F(MemoryExecutorTest, OversizedPutsRejectCleanlyAndExecutorRecomputes) {
  auto dir = MakeTempDir("helix-memory-oversized");
  ASSERT_TRUE(dir.ok());
  storage::StoreOptions store_options;
  // Below any serialized result (even dictionary-encoded padding keeps a
  // result's envelope well past this), so every Put is oversized.
  store_options.budget_bytes = 64;
  store_options.clock = &clock_;
  auto store = storage::IntermediateStore::Open(dir.value(), store_options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  Workflow wf = LateUseWorkflow(0);
  ExecutionReport reference = Run(wf, Options(0, 0));

  AlwaysMaterializePolicy policy;
  for (int64_t it = 1; it <= 2; ++it) {
    ExecutionOptions options = Options(it, 0);
    options.store = store.value().get();
    options.mat_policy = &policy;
    ExecutionReport report = Run(wf, options);
    EXPECT_EQ(Fingerprints(report), Fingerprints(reference));
    EXPECT_EQ(report.num_loaded, 0);  // nothing landed, so nothing loads
  }
  EXPECT_EQ(store.value()->NumEntries(), 0u);
  EXPECT_EQ(store.value()->NumEvictions(), 0);
  (void)RemoveDirRecursively(dir.value());
}

// -------------------------------------------------------------------------
// 10-seed determinism property (satellite: budget-constrained determinism)
// -------------------------------------------------------------------------

// Seeded random workflow: a chain with random payload sizes, random skip
// edges (which create late uses, the planner's hard case), and a per-
// iteration edit on the last ML-phase node.
Workflow RandomWorkflow(uint64_t seed, int iteration) {
  Rng rng(seed);
  const int n = static_cast<int>(rng.NextInt(4, 8));
  Workflow wf("prop-" + std::to_string(seed));
  std::vector<NodeRef> nodes;
  for (int i = 0; i < n; ++i) {
    SyntheticCosts costs{rng.NextInt(100, 2000), rng.NextInt(10, 200), 0};
    int64_t payload = rng.NextInt(1, 64) << 10;
    int64_t tag = rng.NextInt(1, 1 << 20);
    Phase phase = i < n - 2 ? Phase::kDataPreprocessing
                            : Phase::kMachineLearning;
    if (i == n - 1) {
      tag += iteration;  // the iterative edit
    }
    std::vector<NodeRef> inputs;
    if (i > 0) {
      inputs.push_back(nodes.back());
      // Random skip edge to an earlier node: a long-lived intermediate.
      if (i > 1 && rng.NextInt(0, 2) == 0) {
        inputs.push_back(nodes[static_cast<size_t>(rng.NextInt(0, i - 1))]);
      }
    }
    nodes.push_back(wf.Add(ops::Synthetic("n" + std::to_string(i), phase, tag,
                                          costs, payload),
                           inputs));
  }
  wf.MarkOutput(nodes.back());
  return wf;
}

TEST(MemoryBudgetPropertyTest, TenSeedsBitIdenticalAcrossBudgets) {
  constexpr int kIterations = 3;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    // Probe: unbudgeted run to learn the peak (fresh stats per config so
    // configs never contaminate each other's planning).
    int64_t probe_peak = 0;
    int64_t probe_resident = 0;
    std::vector<std::map<std::string, uint64_t>> reference;
    {
      VirtualClock clock;
      storage::CostStatsRegistry stats;
      for (int it = 0; it < kIterations; ++it) {
        auto dag = WorkflowDag::Compile(RandomWorkflow(seed, it));
        ASSERT_TRUE(dag.ok());
        ExecutionOptions options;
        options.clock = &clock;
        options.stats = &stats;
        options.iteration = it;
        auto report = Execute(*dag, options);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        probe_peak = std::max(probe_peak, report->unbudgeted_peak_bytes);
        probe_resident = std::max(probe_resident, report->peak_resident_bytes);
        reference.push_back(Fingerprints(*report));
      }
    }
    ASSERT_GT(probe_peak, 0);
    ASSERT_GT(probe_resident, 0);

    const int64_t budgets[] = {probe_peak / 2, 1};  // tight, pathological
    for (int64_t budget : budgets) {
      VirtualClock clock;
      storage::CostStatsRegistry stats;
      for (int it = 0; it < kIterations; ++it) {
        auto dag = WorkflowDag::Compile(RandomWorkflow(seed, it));
        ASSERT_TRUE(dag.ok());
        ExecutionOptions options;
        options.clock = &clock;
        options.stats = &stats;
        options.iteration = it;
        options.memory_budget_bytes = budget;
        auto report = Execute(*dag, options);
        ASSERT_TRUE(report.ok()) << report.status().ToString();
        EXPECT_EQ(Fingerprints(*report), reference[static_cast<size_t>(it)])
            << "seed " << seed << " budget " << budget << " iteration " << it;
        if (report->memory_feasible) {
          EXPECT_LE(report->planned_peak_bytes, budget)
              << "seed " << seed << " budget " << budget;
        }
        // Dropping intermediates can only lower the measured high-water
        // relative to the keep-everything probe.
        EXPECT_LE(report->peak_resident_bytes, probe_resident)
            << "seed " << seed << " budget " << budget << " iteration " << it;
      }
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace helix
