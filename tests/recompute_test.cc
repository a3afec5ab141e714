// Tests for the recomputation optimizer (paper Section 2.2, Equation 1).
//
// The key property: the min-cut solver and the explicit project-selection
// reduction must both match a brute-force search over all 3^N state
// assignments, across DAG topologies (chains, diamonds, trees, random),
// cost regimes, and loadable subsets.
#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.h"
#include "core/recompute.h"
#include "graph/dag.h"

namespace helix {
namespace core {
namespace {

RecomputeProblem MakeProblem(const graph::Dag* dag,
                             std::vector<NodeCosts> costs,
                             std::vector<int> required_nodes) {
  RecomputeProblem problem;
  problem.dag = dag;
  problem.costs = std::move(costs);
  problem.required.assign(static_cast<size_t>(dag->num_nodes()), false);
  for (int r : required_nodes) {
    problem.required[static_cast<size_t>(r)] = true;
  }
  return problem;
}

NodeCosts Compute(int64_t c) {
  NodeCosts costs;
  costs.compute_micros = c;
  return costs;
}

NodeCosts ComputeOrLoad(int64_t c, int64_t l) {
  NodeCosts costs;
  costs.compute_micros = c;
  costs.load_micros = l;
  costs.loadable = true;
  return costs;
}

// --- Hand-constructed cases -------------------------------------------------

TEST(RecomputeTest, SingleNodeComputes) {
  graph::Dag dag;
  dag.AddNode();
  auto problem = MakeProblem(&dag, {Compute(10)}, {0});
  auto plan = SolveRecomputation(problem);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->state(0), NodeState::kCompute);
  EXPECT_EQ(plan->planned_cost_micros, 10);
}

TEST(RecomputeTest, SingleNodeLoadsWhenCheaper) {
  graph::Dag dag;
  dag.AddNode();
  auto problem = MakeProblem(&dag, {ComputeOrLoad(10, 3)}, {0});
  auto plan = SolveRecomputation(problem);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->state(0), NodeState::kLoad);
  EXPECT_EQ(plan->planned_cost_micros, 3);
}

TEST(RecomputeTest, LoadingOutputPrunesWholeChain) {
  // 0 -> 1 -> 2 (output); 2 is loadable cheaply.
  graph::Dag dag;
  dag.AddNodes(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 2).ok());
  auto problem = MakeProblem(
      &dag, {Compute(100), Compute(100), ComputeOrLoad(100, 5)}, {2});
  auto plan = SolveRecomputation(problem);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->state(0), NodeState::kPrune);
  EXPECT_EQ(plan->state(1), NodeState::kPrune);
  EXPECT_EQ(plan->state(2), NodeState::kLoad);
  EXPECT_EQ(plan->planned_cost_micros, 5);
}

TEST(RecomputeTest, PaperExampleKeepParentWhenChildLoadCheap) {
  // The paper's example: "if l_k << c_k for a node n_k that is a child of
  // some n_j in A(n_i), the run time is minimized by keeping n_j and
  // computing n_k from it" — i.e. loading an ancestor and computing the
  // output beats loading the output when the output's load cost is high.
  //
  //   0 -> 1 -> 2(out, expensive to load, cheap to compute)
  graph::Dag dag;
  dag.AddNodes(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 2).ok());
  auto problem = MakeProblem(
      &dag,
      {Compute(1000), ComputeOrLoad(1000, 10), ComputeOrLoad(5, 500)}, {2});
  auto plan = SolveRecomputation(problem);
  ASSERT_TRUE(plan.ok());
  // Load n_1 (10), compute n_2 from it (5) = 15, vs loading n_2 = 500.
  EXPECT_EQ(plan->state(0), NodeState::kPrune);
  EXPECT_EQ(plan->state(1), NodeState::kLoad);
  EXPECT_EQ(plan->state(2), NodeState::kCompute);
  EXPECT_EQ(plan->planned_cost_micros, 15);
}

TEST(RecomputeTest, SharedAncestorLoadedOnceForTwoOutputs) {
  //      0 (expensive)
  //     / \     (edges 0->1, 0->2)
  //    1   2     both outputs, not loadable; 0 loadable.
  graph::Dag dag;
  dag.AddNodes(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(0, 2).ok());
  auto problem = MakeProblem(
      &dag, {ComputeOrLoad(1000, 50), Compute(10), Compute(10)}, {1, 2});
  auto plan = SolveRecomputation(problem);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->state(0), NodeState::kLoad);
  EXPECT_EQ(plan->planned_cost_micros, 70);
}

TEST(RecomputeTest, NonLoadableRequiredForcesComputeChain) {
  graph::Dag dag;
  dag.AddNodes(2);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  auto problem = MakeProblem(&dag, {Compute(7), Compute(9)}, {1});
  auto plan = SolveRecomputation(problem);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->state(0), NodeState::kCompute);
  EXPECT_EQ(plan->state(1), NodeState::kCompute);
  EXPECT_EQ(plan->planned_cost_micros, 16);
}

TEST(RecomputeTest, UnrequiredSubgraphPruned) {
  // 0 -> 1(out); 2 -> 3 dangling.
  graph::Dag dag;
  dag.AddNodes(4);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(2, 3).ok());
  auto problem = MakeProblem(
      &dag, {Compute(5), Compute(5), Compute(5), Compute(5)}, {1});
  auto plan = SolveRecomputation(problem);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->state(2), NodeState::kPrune);
  EXPECT_EQ(plan->state(3), NodeState::kPrune);
  EXPECT_EQ(plan->planned_cost_micros, 10);
}

TEST(RecomputeTest, ValidationCatchesSizeMismatch) {
  graph::Dag dag;
  dag.AddNodes(2);
  RecomputeProblem problem;
  problem.dag = &dag;
  problem.costs = {Compute(1)};
  problem.required = {true, false};
  EXPECT_FALSE(SolveRecomputation(problem).ok());
}

TEST(RecomputeTest, DiamondWithCheapMiddleLoads) {
  //    0
  //   / \     (edges 0->1, 0->2)
  //  1   2
  //   \ /
  //    3 (out)
  graph::Dag dag;
  dag.AddNodes(4);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(0, 2).ok());
  ASSERT_TRUE(dag.AddEdge(1, 3).ok());
  ASSERT_TRUE(dag.AddEdge(2, 3).ok());
  auto problem = MakeProblem(&dag,
                             {Compute(100), ComputeOrLoad(50, 5),
                              ComputeOrLoad(50, 5), Compute(20)},
                             {3});
  auto plan = SolveRecomputation(problem);
  ASSERT_TRUE(plan.ok());
  // Load both middles (10) + compute output (20) = 30 beats computing the
  // root chain (100+50+50+20).
  EXPECT_EQ(plan->planned_cost_micros, 30);
  EXPECT_EQ(plan->state(0), NodeState::kPrune);
}

// --- Heuristic baselines -------------------------------------------------------

TEST(RecomputeTest, NaiveReuseLoadsEverythingLoadable) {
  graph::Dag dag;
  dag.AddNodes(2);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  // Loading is *more* expensive than computing; naive reuse loads anyway.
  auto problem =
      MakeProblem(&dag, {Compute(1), ComputeOrLoad(1, 100)}, {1});
  RecomputePlan naive = SolveRecomputationNaiveReuse(problem);
  EXPECT_EQ(naive.state(1), NodeState::kLoad);
  EXPECT_EQ(naive.planned_cost_micros, 100);

  auto opt = SolveRecomputation(problem);
  ASSERT_TRUE(opt.ok());
  EXPECT_LT(opt->planned_cost_micros, naive.planned_cost_micros);
}

TEST(RecomputeTest, NoReuseComputesEverythingNeeded) {
  graph::Dag dag;
  dag.AddNodes(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 2).ok());
  auto problem = MakeProblem(
      &dag, {Compute(5), ComputeOrLoad(5, 0), Compute(5)}, {2});
  RecomputePlan plan = SolveRecomputationNoReuse(problem);
  EXPECT_EQ(plan.planned_cost_micros, 15);
  EXPECT_EQ(plan.CountState(NodeState::kCompute), 3);
}

TEST(RecomputeTest, GreedyIsSuboptimalOnSharedAncestor) {
  // Two outputs each loadable at cost 60; computing them costs 10 each
  // plus a shared ancestor costing 100. OPT computes the shared ancestor
  // once: 100 + 10 + 10 = 120, vs greedy: each output sees an estimated
  // recompute of 110 > 60, so it loads both for 120... make asymmetric:
  //
  //        0 (c=100)
  //       / \     (edges 0->1, 0->2)
  //  1(out)  2(out)   c=10 each, l=70 each.
  // OPT: compute all = 120. Greedy (reverse topo visits 2 first): est for
  // 2 = 10+100=110 > 70 -> load 2 (70); then 1: est = 10+100 -> load (70).
  // Total 140 > 120.
  graph::Dag dag;
  dag.AddNodes(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(0, 2).ok());
  auto problem = MakeProblem(
      &dag, {Compute(100), ComputeOrLoad(10, 70), ComputeOrLoad(10, 70)},
      {1, 2});
  RecomputePlan greedy = SolveRecomputationGreedy(problem);
  auto opt = SolveRecomputation(problem);
  ASSERT_TRUE(opt.ok());
  EXPECT_EQ(opt->planned_cost_micros, 120);
  EXPECT_GT(greedy.planned_cost_micros, opt->planned_cost_micros);
}

// --- Property tests vs brute force ----------------------------------------------

enum class Topology { kChain, kDiamond, kTree, kRandom, kFan };

graph::Dag MakeTopology(Topology topology, int n, Rng* rng) {
  graph::Dag dag;
  dag.AddNodes(n);
  switch (topology) {
    case Topology::kChain:
      for (int i = 0; i + 1 < n; ++i) {
        EXPECT_TRUE(dag.AddEdge(i, i + 1).ok());
      }
      break;
    case Topology::kDiamond:
      // Layered: alternate split/merge.
      for (int i = 0; i + 2 < n; i += 2) {
        EXPECT_TRUE(dag.AddEdge(i, i + 1).ok());
        EXPECT_TRUE(dag.AddEdge(i, i + 2).ok());
        if (i + 3 < n) {
          EXPECT_TRUE(dag.AddEdge(i + 1, i + 3).ok());
          EXPECT_TRUE(dag.AddEdge(i + 2, i + 3).ok());
        }
      }
      break;
    case Topology::kTree:
      for (int i = 1; i < n; ++i) {
        EXPECT_TRUE(dag.AddEdge((i - 1) / 2, i).ok());
      }
      break;
    case Topology::kRandom:
      for (int i = 1; i < n; ++i) {
        int num_parents = static_cast<int>(rng->NextInt(0, 2));
        for (int p = 0; p < num_parents; ++p) {
          EXPECT_TRUE(
              dag.AddEdge(static_cast<int>(rng->NextInt(0, i - 1)), i).ok());
        }
      }
      break;
    case Topology::kFan:
      // One hub feeding all later nodes.
      for (int i = 1; i < n; ++i) {
        EXPECT_TRUE(dag.AddEdge(0, i).ok());
      }
      break;
  }
  return dag;
}

class RecomputePropertyTest
    : public ::testing::TestWithParam<std::tuple<Topology, int, uint64_t>> {};

TEST_P(RecomputePropertyTest, OptimalMatchesBruteForceAndPsp) {
  auto [topology, n, seed] = GetParam();
  Rng rng(seed * 2654435761ULL + static_cast<uint64_t>(n));
  graph::Dag dag = MakeTopology(topology, n, &rng);

  std::vector<NodeCosts> costs;
  for (int i = 0; i < n; ++i) {
    NodeCosts c;
    c.compute_micros = rng.NextInt(0, 40);
    c.loadable = rng.NextBool(0.5);
    if (c.loadable) {
      c.load_micros = rng.NextInt(0, 40);
    }
    costs.push_back(c);
  }
  // Required set: every sink plus a random extra node.
  std::vector<int> required = {n - 1};
  if (n > 2) {
    required.push_back(static_cast<int>(rng.NextInt(0, n - 1)));
  }
  auto problem = MakeProblem(&dag, costs, required);

  auto brute = SolveRecomputationBruteForce(problem);
  auto mincut = SolveRecomputation(problem);
  auto psp = SolveRecomputationViaProjectSelection(problem);
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(mincut.ok());
  ASSERT_TRUE(psp.ok());

  EXPECT_EQ(mincut->planned_cost_micros, brute->planned_cost_micros)
      << "min-cut differs from brute force";
  EXPECT_EQ(psp->planned_cost_micros, brute->planned_cost_micros)
      << "PSP reduction differs from brute force";

  // Solutions must be feasible and their reported costs consistent.
  EXPECT_TRUE(IsFeasible(problem, mincut->states));
  EXPECT_TRUE(IsFeasible(problem, psp->states));
  EXPECT_EQ(PlanCost(problem, mincut->states), mincut->planned_cost_micros);

  // Heuristics are feasible and never beat OPT.
  for (const RecomputePlan& heuristic :
       {SolveRecomputationGreedy(problem),
        SolveRecomputationNaiveReuse(problem),
        SolveRecomputationNoReuse(problem)}) {
    EXPECT_TRUE(IsFeasible(problem, heuristic.states));
    EXPECT_GE(heuristic.planned_cost_micros, mincut->planned_cost_micros);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RecomputePropertyTest,
    ::testing::Combine(::testing::Values(Topology::kChain, Topology::kDiamond,
                                         Topology::kTree, Topology::kRandom,
                                         Topology::kFan),
                       ::testing::Values(3, 5, 7, 9),
                       ::testing::Range<uint64_t>(0, 6)));

// Degenerate cost regimes get their own sweep: zero costs, all-loadable,
// none-loadable.
class RecomputeDegenerateTest : public ::testing::TestWithParam<int> {};

TEST_P(RecomputeDegenerateTest, ZeroAndUniformCostsMatchBruteForce) {
  int variant = GetParam();
  Rng rng(static_cast<uint64_t>(variant) + 99);
  graph::Dag dag = MakeTopology(Topology::kRandom, 7, &rng);
  std::vector<NodeCosts> costs;
  for (int i = 0; i < 7; ++i) {
    NodeCosts c;
    switch (variant % 4) {
      case 0:  // all zero costs
        c.compute_micros = 0;
        c.loadable = true;
        c.load_micros = 0;
        break;
      case 1:  // nothing loadable
        c.compute_micros = rng.NextInt(1, 10);
        break;
      case 2:  // everything loadable, loads free
        c.compute_micros = rng.NextInt(1, 10);
        c.loadable = true;
        c.load_micros = 0;
        break;
      default:  // uniform costs
        c.compute_micros = 5;
        c.loadable = true;
        c.load_micros = 5;
        break;
    }
    costs.push_back(c);
  }
  auto problem = MakeProblem(&dag, costs, {6});
  auto brute = SolveRecomputationBruteForce(problem);
  auto mincut = SolveRecomputation(problem);
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(mincut.ok());
  EXPECT_EQ(mincut->planned_cost_micros, brute->planned_cost_micros);
}

INSTANTIATE_TEST_SUITE_P(Degenerate, RecomputeDegenerateTest,
                         ::testing::Range(0, 16));

TEST(RecomputeTest, ScalesToLargeDags) {
  // PTIME claim sanity check: a 3000-node layered DAG plans quickly and
  // the plan is feasible.
  Rng rng(5);
  const int n = 3000;
  graph::Dag dag;
  dag.AddNodes(n);
  for (int i = 1; i < n; ++i) {
    ASSERT_TRUE(
        dag.AddEdge(static_cast<int>(rng.NextInt(std::max(0, i - 20), i - 1)),
                    i)
            .ok());
  }
  std::vector<NodeCosts> costs;
  for (int i = 0; i < n; ++i) {
    NodeCosts c;
    c.compute_micros = rng.NextInt(1, 1000);
    c.loadable = rng.NextBool(0.4);
    if (c.loadable) {
      c.load_micros = rng.NextInt(1, 1000);
    }
    costs.push_back(c);
  }
  auto problem = MakeProblem(&dag, costs, {n - 1, n - 2});
  auto plan = SolveRecomputation(problem);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(IsFeasible(problem, plan->states));
}

}  // namespace
}  // namespace core
}  // namespace helix
