// CostStatsRegistry failure modes and shared-registry behavior:
//
//   * a corrupted stats file surfaces as Corruption, and a Session opened
//     over it starts fresh instead of failing;
//   * Save is temp+rename atomic: concurrent Save and Load never observe
//     a half-written file;
//   * concurrent Record/Get from many threads is safe (the registry is
//     internally synchronized — the shared-store service path);
//   * statistics measured at iteration t actually flip an iteration t+1
//     materialization decision (OnlineCostModelPolicy planning with
//     measured costs vs. defaults).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "core/session.h"
#include "core/std_ops.h"
#include "dataflow/metrics.h"
#include "storage/cost_stats.h"

namespace helix {
namespace storage {
namespace {

class CostStatsFailureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-cost-stats-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  std::string dir_;
};

TEST_F(CostStatsFailureTest, CorruptFileIsCorruptionAndSessionStartsFresh) {
  std::string stats_path = JoinPath(dir_, "STATS");
  ASSERT_TRUE(
      WriteStringToFile(stats_path, "definitely not a stats file").ok());
  EXPECT_TRUE(CostStatsRegistry::Load(stats_path).status().IsCorruption());

  // A session over the damaged workspace opens fine with an empty
  // registry and overwrites the bad file on its first iteration.
  core::SessionOptions options;
  options.workspace_dir = dir_;
  auto session = core::Session::Open(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ((*session)->stats()->size(), 0u);

  core::Workflow wf("w");
  auto a = wf.Add(core::ops::Synthetic("a", core::Phase::kDataPreprocessing,
                                       1, core::SyntheticCosts{}));
  wf.MarkOutput(a);
  ASSERT_TRUE((*session)
                  ->RunIteration(wf, "initial",
                                 core::ChangeCategory::kInitial)
                  .ok());
  auto reloaded = CostStatsRegistry::Load(stats_path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_GT(reloaded.value().size(), 0u);
}

TEST_F(CostStatsFailureTest, TruncatedFileIsCorruption) {
  CostStatsRegistry registry;
  registry.RecordCompute(1, "op", 500, 0);
  registry.RecordCompute(2, "other", 900, 1);
  std::string path = JoinPath(dir_, "STATS");
  ASSERT_TRUE(registry.Save(path).ok());
  auto full = ReadFileToString(path);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(
      WriteStringToFile(path, full.value().substr(0, full.value().size() / 2))
          .ok());
  EXPECT_TRUE(CostStatsRegistry::Load(path).status().IsCorruption());
}

TEST_F(CostStatsFailureTest, ConcurrentSaveAndLoadNeverSeeTornFiles) {
  std::string path = JoinPath(dir_, "STATS");
  CostStatsRegistry registry;
  for (uint64_t sig = 1; sig <= 64; ++sig) {
    registry.RecordCompute(sig, "node-" + std::to_string(sig),
                           static_cast<int64_t>(sig) * 100, 0);
  }
  ASSERT_TRUE(registry.Save(path).ok());

  std::atomic<bool> stop{false};
  std::atomic<int64_t> bad_loads{0};
  std::atomic<int64_t> good_loads{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 60 && !stop.load(); ++i) {
        Status saved = registry.Save(path);
        if (!saved.ok()) {
          bad_loads.fetch_add(1);
        }
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&]() {
      for (int i = 0; i < 120 && !stop.load(); ++i) {
        auto loaded = CostStatsRegistry::Load(path);
        // temp+rename atomicity: the file at `path` is always either the
        // old complete registry or the new complete registry.
        if (!loaded.ok()) {
          bad_loads.fetch_add(1);
        } else if (loaded.value().size() != 64u) {
          bad_loads.fetch_add(1);
        } else {
          good_loads.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(bad_loads.load(), 0);
  EXPECT_GT(good_loads.load(), 0);
}

TEST_F(CostStatsFailureTest, ConcurrentRecordAndReadIsSafe) {
  CostStatsRegistry registry;
  std::vector<std::thread> threads;
  std::atomic<int64_t> reads{0};
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&registry, w]() {
      for (int i = 0; i < 2000; ++i) {
        uint64_t sig = static_cast<uint64_t>(i % 37) + 1;
        std::string name = "op-" + std::to_string(i % 5);
        switch ((w + i) % 3) {
          case 0:
            registry.RecordCompute(sig, name, i, i);
            break;
          case 1:
            registry.RecordLoad(sig, name, i / 2, i);
            break;
          default:
            registry.RecordSize(sig, name, i * 3, i);
            break;
        }
      }
    });
  }
  for (int r = 0; r < 4; ++r) {
    threads.emplace_back([&registry, &reads]() {
      for (int i = 0; i < 2000; ++i) {
        uint64_t sig = static_cast<uint64_t>(i % 41) + 1;
        auto stats = registry.Get(sig);
        if (stats.has_value()) {
          reads.fetch_add(1);
          EXPECT_FALSE(stats->node_name.empty());
        }
        (void)registry.GetLatestByName("op-" + std::to_string(i % 5));
        (void)registry.size();
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(registry.size(), 37u);
  EXPECT_GT(reads.load(), 0);
}

// The point of the registry: what iteration t measures changes what
// iteration t+1 decides. A workflow source -> slow -> tail, where `slow`
// really costs ~60ms. After iteration 0, the registry knows slow's cost.
// At iteration 1 (tail edited, new signature) the OnlineCostModelPolicy
// decides whether to materialize the new tail from
//     r = 2*l_tail - (c_tail + sum of ancestor compute costs)
// where the ancestors (source, slow) are *not* recomputed this iteration
// — their costs come from the registry (measured) or the default
// estimate. tail declares l_tail = 25ms, so 2*l_tail = 50ms sits between
// the cheap side and slow's 60ms: measured: ancestors >= 60ms -> r < 0 ->
// materialize. With the stats file deleted and a tiny default estimate:
// ancestors ~micros -> r > 0 -> skip, as long as tail itself computes in
// under 50ms — true even under a sanitizer, where wall-clock costs of
// source and tail grow. Same workflow, same measured behavior at t+1; only
// the iteration-t statistics differ.
TEST_F(CostStatsFailureTest, MeasuredStatsFlipNextIterationMaterialization) {
  auto build = [](int tail_tag) {
    core::Workflow wf("flip");
    auto source =
        wf.Add(core::ops::Synthetic("source", core::Phase::kDataPreprocessing,
                                    3, core::SyntheticCosts{}));
    // Declared load cost keeps the planner loading `slow` in both
    // scenarios (5us < any compute estimate); compute cost stays
    // *measured*, which is the whole point.
    auto slow = wf.Add(
        core::ops::Reducer(
            "slow", core::Phase::kDataPreprocessing, 11,
            [](const std::vector<const dataflow::DataCollection*>& inputs)
                -> Result<dataflow::DataCollection> {
              std::this_thread::sleep_for(std::chrono::milliseconds(60));
              auto metrics = std::make_shared<dataflow::MetricsData>();
              metrics->Set("slow", inputs.empty()
                                       ? 0.0
                                       : static_cast<double>(
                                             inputs[0]->Fingerprint() % 997));
              return dataflow::DataCollection::FromMetrics(metrics);
            })
            .SetSyntheticCosts(core::SyntheticCosts{-1, 5, -1}),
        {source});
    // Declared load cost (used as l_tail by the materialization rule);
    // compute cost stays measured.
    auto tail = wf.Add(
        core::ops::Synthetic("tail", core::Phase::kPostprocessing, tail_tag,
                             core::SyntheticCosts{-1, 25000, -1},
                             /*payload_bytes=*/512),
        {slow});
    wf.MarkOutput(tail);
    return wf;
  };

  // Iteration 0: compute everything, measure slow's real cost, persist
  // stats + materializations.
  {
    core::SessionOptions options;
    options.workspace_dir = dir_;
    auto session = core::Session::Open(options);
    ASSERT_TRUE(session.ok());
    auto v0 = (*session)->RunIteration(build(100), "initial",
                                       core::ChangeCategory::kInitial);
    ASSERT_TRUE(v0.ok()) << v0.status().ToString();
    ASSERT_TRUE((*session)->stats()->Get(
        v0->report.FindNode("slow")->signature).has_value());
    EXPECT_GE((*session)
                  ->stats()
                  ->Get(v0->report.FindNode("slow")->signature)
                  ->compute_micros,
              50000);
  }

  // Iteration t+1 with iteration t's statistics: the edited tail is
  // materialized (its ancestors are known-expensive). The default estimate
  // is as tiny as below, so only the reloaded measurement can justify it.
  {
    core::SessionOptions options;
    options.workspace_dir = dir_;
    options.default_compute_estimate_micros = 10;
    auto session = core::Session::Open(options);
    ASSERT_TRUE(session.ok());
    auto v1 = (*session)->RunIteration(build(101), "edit tail",
                                       core::ChangeCategory::kEvaluation);
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    const core::NodeExecution* tail = v1->report.FindNode("tail");
    ASSERT_NE(tail, nullptr);
    EXPECT_EQ(tail->state, core::NodeState::kCompute);
    EXPECT_TRUE(tail->materialized)
        << "measured ancestor costs should justify materializing tail";
    // The reused `slow` was loaded, not recomputed (~60ms avoided).
    EXPECT_NE(v1->report.FindNode("slow")->state,
              core::NodeState::kCompute);
  }

  // Same t+1 edit without iteration t's statistics (file deleted) and a
  // tiny default estimate: ancestors look cheap, the policy skips.
  ASSERT_TRUE(RemoveFileIfExists(JoinPath(dir_, "STATS")).ok());
  {
    core::SessionOptions options;
    options.workspace_dir = dir_;
    options.default_compute_estimate_micros = 10;
    auto session = core::Session::Open(options);
    ASSERT_TRUE(session.ok());
    auto v2 = (*session)->RunIteration(build(102), "edit tail again",
                                       core::ChangeCategory::kEvaluation);
    ASSERT_TRUE(v2.ok()) << v2.status().ToString();
    const core::NodeExecution* tail = v2->report.FindNode("tail");
    ASSERT_NE(tail, nullptr);
    EXPECT_EQ(tail->state, core::NodeState::kCompute);
    EXPECT_FALSE(tail->materialized)
        << "default-cost ancestors should not justify materializing tail";
    EXPECT_NE(v2->report.FindNode("slow")->state,
              core::NodeState::kCompute);
  }
}

}  // namespace
}  // namespace storage
}  // namespace helix
