// Behavioral tests for the execution engine: cost charging on a virtual
// clock, cross-iteration reuse through the store, fallback on corruption,
// plan invariance across planners, and statistics recording.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/file_util.h"
#include "common/hash.h"
#include "core/executor.h"
#include "core/std_ops.h"
#include "core/workflow.h"
#include "core/workflow_dag.h"
#include "storage/disk_backend.h"
#include "backend_util.h"
#include "table_util.h"

namespace helix {
namespace core {
namespace {

namespace ops = core::ops;

// Rewrites stored payloads through the disk backend's own API: appends a
// well-formed segment record per entry (same signature and metadata, new
// payload bytes); on the next store open, last-record-wins replay serves
// the tampered bytes. The store must be closed while tampering.
void TamperPayloads(const std::string& store_dir,
                    const std::vector<storage::StoreEntry>& entries,
                    const std::string& payload) {
  auto backend =
      storage::DiskBackend::Open(store_dir, storage::DiskBackendOptions());
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  ASSERT_TRUE(backend.value()->Recover().ok());
  for (const storage::StoreEntry& entry : entries) {
    ASSERT_TRUE(
        storage::WriteBytes(backend.value().get(), entry, payload).ok());
  }
}

// Re-encodes a stored table envelope in a retired format, with a valid
// FNV-64 trailer of its era, holding the very same table: v2 kept the
// current columnar table body; v1 wrote each cell row-major as a type tag
// and value (the Synthetic tables here hold int cells only).
std::string RetiredEnvelope(const dataflow::DataCollection& data,
                            uint32_t version) {
  const dataflow::TableData* table = data.AsTable().value();
  ByteWriter w;
  w.PutU32(0x44584C48);  // "HLXD"
  w.PutU32(version);
  w.PutU8(static_cast<uint8_t>(dataflow::PayloadKind::kTable));
  if (version == 2) {
    table->Serialize(&w);
  } else {
    table->schema().Serialize(&w);
    w.PutU64(static_cast<uint64_t>(table->num_rows()));
    for (int64_t r = 0; r < table->num_rows(); ++r) {
      for (int c = 0; c < table->schema().num_fields(); ++c) {
        dataflow::Value cell = table->column(c)->GetValue(r);
        EXPECT_EQ(cell.type(), dataflow::ValueType::kInt);
        w.PutU8(static_cast<uint8_t>(dataflow::ValueType::kInt));
        w.PutI64(cell.AsInt());
      }
    }
  }
  w.PutU64(FnvHash64(w.data().data(), w.data().size()));
  return w.data();
}

// A linear pipeline source -> prep -> train -> eval with controllable
// synthetic costs, mimicking the census shape at hour scale.
struct Pipeline {
  int64_t source_tag = 1;
  int64_t prep_tag = 2;
  int64_t train_tag = 3;
  int64_t eval_tag = 4;

  // Costs in micros; loads cheap relative to computes.
  int64_t source_cost = 1000;
  int64_t prep_cost = 100000;  // expensive pre-processing
  int64_t train_cost = 50000;
  int64_t eval_cost = 1000;
  int64_t load_cost = 2000;

  Workflow Build() const {
    Workflow wf("pipeline");
    SyntheticCosts source_costs{source_cost, load_cost, 0};
    SyntheticCosts prep_costs{prep_cost, load_cost, 0};
    SyntheticCosts train_costs{train_cost, load_cost, 0};
    SyntheticCosts eval_costs{eval_cost, load_cost, 0};
    NodeRef source = wf.Add(ops::Synthetic(
        "source", Phase::kDataPreprocessing, source_tag, source_costs));
    NodeRef prep = wf.Add(
        ops::Synthetic("prep", Phase::kDataPreprocessing, prep_tag,
                       prep_costs),
        {source});
    NodeRef train = wf.Add(
        ops::Synthetic("train", Phase::kMachineLearning, train_tag,
                       train_costs),
        {prep});
    NodeRef eval = wf.Add(
        ops::Synthetic("eval", Phase::kPostprocessing, eval_tag, eval_costs),
        {train});
    wf.MarkOutput(eval);
    return wf;
  }
};

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-executor-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
    ReopenStore();
  }

  void ReopenStore() {
    storage::StoreOptions store_options;
    store_options.budget_bytes = 1 << 20;
    store_options.clock = &clock_;
    auto store = storage::IntermediateStore::Open(dir_, store_options);
    ASSERT_TRUE(store.ok());
    store_ = std::move(store).value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  ExecutionOptions Options(int64_t iteration) {
    ExecutionOptions options;
    options.clock = &clock_;
    options.store = store_.get();
    options.stats = &stats_;
    options.mat_policy = &policy_;
    options.iteration = iteration;
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
  std::string dir_;
  std::unique_ptr<storage::IntermediateStore> store_;
  storage::CostStatsRegistry stats_;
  OnlineCostModelPolicy policy_;
};

TEST_F(ExecutorTest, FirstRunComputesEverythingAndChargesDeclaredCosts) {
  Pipeline p;
  ExecutionReport report = Run(p.Build(), Options(0));
  EXPECT_EQ(report.num_computed, 4);
  EXPECT_EQ(report.num_loaded, 0);
  EXPECT_EQ(report.num_pruned, 0);
  // Virtual total = sum of declared compute costs (+ zero write costs).
  EXPECT_EQ(report.total_micros,
            p.source_cost + p.prep_cost + p.train_cost + p.eval_cost);
  // The expensive intermediates were materialized under the online rule.
  EXPECT_GT(report.num_materialized, 0);
  const NodeExecution* prep = report.FindNode("prep");
  ASSERT_NE(prep, nullptr);
  EXPECT_TRUE(prep->materialized);
  EXPECT_EQ(prep->cost_micros, p.prep_cost);
}

TEST_F(ExecutorTest, IdenticalRerunLoadsCheapestCut) {
  Pipeline p;
  Run(p.Build(), Options(0));
  ExecutionReport second = Run(p.Build(), Options(1));
  // The final output is stored; OPT loads just it (or an equally cheap
  // cut) instead of recomputing the chain.
  EXPECT_EQ(second.num_computed, 0);
  EXPECT_EQ(second.num_loaded, 1);
  EXPECT_EQ(second.total_micros, p.load_cost);
  const NodeExecution* eval = second.FindNode("eval");
  ASSERT_NE(eval, nullptr);
  EXPECT_EQ(eval->state, NodeState::kLoad);
}

TEST_F(ExecutorTest, MlEditReusesPreprocessing) {
  Pipeline p;
  Run(p.Build(), Options(0));
  // Edit the trainer (hyperparameter change).
  Pipeline edited = p;
  edited.train_tag = 33;
  ExecutionReport report = Run(edited.Build(), Options(1));
  // prep is loaded (2ms) instead of recomputed (100ms); train+eval rerun.
  const NodeExecution* prep = report.FindNode("prep");
  ASSERT_NE(prep, nullptr);
  EXPECT_EQ(prep->state, NodeState::kLoad);
  EXPECT_EQ(report.FindNode("train")->state, NodeState::kCompute);
  EXPECT_EQ(report.FindNode("eval")->state, NodeState::kCompute);
  EXPECT_EQ(report.FindNode("source")->state, NodeState::kPrune);
  EXPECT_EQ(report.total_micros,
            p.load_cost + p.train_cost + p.eval_cost);
}

TEST_F(ExecutorTest, UpstreamEditInvalidatesStoredDownstream) {
  Pipeline p;
  Run(p.Build(), Options(0));
  // Edit the source: every cumulative signature changes, nothing stored is
  // valid, so everything recomputes.
  Pipeline edited = p;
  edited.source_tag = 99;
  ExecutionReport report = Run(edited.Build(), Options(1));
  EXPECT_EQ(report.num_loaded, 0);
  EXPECT_EQ(report.num_computed, 4);
}

TEST_F(ExecutorTest, NoStoreMeansNoReuse) {
  Pipeline p;
  ExecutionOptions options = Options(0);
  options.store = nullptr;
  options.mat_policy = nullptr;
  Run(p.Build(), options);
  ExecutionReport second = Run(p.Build(), options);
  EXPECT_EQ(second.num_loaded, 0);
  EXPECT_EQ(second.num_computed, 4);
}

TEST_F(ExecutorTest, SlicingPrunesDeadBranch) {
  Pipeline p;
  Workflow wf = p.Build();
  // Dangling expensive node: never contributes to the output.
  wf.Add(ops::Synthetic("dead", Phase::kDataPreprocessing, 7,
                        SyntheticCosts{1000000, -1, -1}),
         {wf.Find("source")});
  ExecutionReport report = Run(wf, Options(0));
  const NodeExecution* dead = report.FindNode("dead");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->state, NodeState::kPrune);
  EXPECT_TRUE(dead->sliced);
  // Its cost is NOT part of the iteration.
  EXPECT_EQ(report.total_micros,
            p.source_cost + p.prep_cost + p.train_cost + p.eval_cost);
}

TEST_F(ExecutorTest, SlicingDisabledComputesDeadBranch) {
  Pipeline p;
  Workflow wf = p.Build();
  wf.Add(ops::Synthetic("dead", Phase::kDataPreprocessing, 7,
                        SyntheticCosts{500, -1, -1}),
         {wf.Find("source")});
  ExecutionOptions options = Options(0);
  options.enable_slicing = false;
  ExecutionReport report = Run(wf, options);
  // Without slicing the planner has no required-output exemption for the
  // dead node... it is still not required, so the optimal planner prunes
  // it anyway. The slicer flag controls only the `sliced` attribution.
  const NodeExecution* dead = report.FindNode("dead");
  ASSERT_NE(dead, nullptr);
  EXPECT_FALSE(dead->sliced);
}

TEST_F(ExecutorTest, CorruptStoreEntryFallsBackToRecompute) {
  Pipeline p;
  int64_t iteration = 0;
  // Replace every stored entry: close the store, overwrite each payload
  // with bytes no current reader accepts, and reopen — a simulated
  // restart against a damaged store. The segment record itself stays
  // well-formed, so only deserialization can catch it. With `version` 0
  // each payload becomes bytes that are not an envelope at all; with 1 or
  // 2, an envelope of the same table in that retired format, which older
  // builds loaded and which is now a miss.
  for (uint32_t version : {0u, 1u, 2u}) {
    SCOPED_TRACE("version " + std::to_string(version));
    for (const storage::StoreEntry& entry : store_->Entries()) {
      ASSERT_TRUE(store_->Remove(entry.signature).ok());
    }
    ExecutionReport first = Run(p.Build(), Options(iteration++));
    ASSERT_TRUE(first.FindNode("eval")->materialized ||
                first.FindNode("prep")->materialized);
    std::vector<storage::StoreEntry> entries = store_->Entries();
    ASSERT_FALSE(entries.empty());
    std::vector<std::string> payloads;
    for (const storage::StoreEntry& entry : entries) {
      if (version == 0) {
        payloads.push_back("corrupted bytes");
        continue;
      }
      auto stored = store_->Get(entry.signature);
      ASSERT_TRUE(stored.ok()) << stored.status().ToString();
      payloads.push_back(RetiredEnvelope(stored.value(), version));
    }
    store_.reset();
    for (size_t i = 0; i < entries.size(); ++i) {
      TamperPayloads(dir_, {entries[i]}, payloads[i]);
    }
    ReopenStore();

    ExecutionReport second = Run(p.Build(), Options(iteration++));
    // All loads failed; the executor recomputed on demand and the outputs
    // are still produced.
    EXPECT_EQ(second.outputs.count("eval"), 1u);
    EXPECT_EQ(second.num_loaded, 0);
    EXPECT_GT(second.num_computed, 0);
    // Identical results despite the fallback.
    EXPECT_EQ(second.outputs.at("eval").Fingerprint(),
              first.outputs.at("eval").Fingerprint());
  }
}

TEST_F(ExecutorTest, OutputsIdenticalAcrossPlanners) {
  Pipeline p;
  Run(p.Build(), Options(0));  // populate the store

  uint64_t expected = 0;
  for (PlannerKind planner :
       {PlannerKind::kOptimal, PlannerKind::kNaiveReuse,
        PlannerKind::kNoReuse, PlannerKind::kGreedy}) {
    ExecutionOptions options = Options(1);
    options.planner = planner;
    ExecutionReport report = Run(p.Build(), options);
    ASSERT_EQ(report.outputs.count("eval"), 1u)
        << PlannerKindToString(planner);
    uint64_t fp = report.outputs.at("eval").Fingerprint();
    if (expected == 0) {
      expected = fp;
    }
    EXPECT_EQ(fp, expected) << PlannerKindToString(planner);
  }
}

TEST_F(ExecutorTest, StatsRecordedForComputedAndLoadedNodes) {
  Pipeline p;
  Run(p.Build(), Options(0));
  auto dag = WorkflowDag::Compile(p.Build());
  ASSERT_TRUE(dag.ok());
  uint64_t prep_sig = dag->cumulative_signature(dag->FindNode("prep"));
  auto prep_stats = stats_.Get(prep_sig);
  ASSERT_TRUE(prep_stats.has_value());
  EXPECT_EQ(prep_stats->compute_micros, p.prep_cost);
  EXPECT_GT(prep_stats->size_bytes, 0);

  // After an ML edit the loaded prep gets a load-cost measurement.
  Pipeline edited = p;
  edited.train_tag = 34;
  Run(edited.Build(), Options(1));
  prep_stats = stats_.Get(prep_sig);
  ASSERT_TRUE(prep_stats.has_value());
  EXPECT_EQ(prep_stats->load_micros, p.load_cost);
}

TEST_F(ExecutorTest, ZeroBudgetNeverMaterializes) {
  storage::StoreOptions store_options;
  store_options.budget_bytes = 0;
  store_options.clock = &clock_;
  auto tiny_dir = MakeTempDir("helix-zero-budget");
  ASSERT_TRUE(tiny_dir.ok());
  auto store = storage::IntermediateStore::Open(tiny_dir.value(),
                                                store_options);
  ASSERT_TRUE(store.ok());

  Pipeline p;
  ExecutionOptions options = Options(0);
  options.store = store.value().get();
  ExecutionReport report = Run(p.Build(), options);
  EXPECT_EQ(report.num_materialized, 0);
  EXPECT_EQ(store.value()->NumEntries(), 0u);
  (void)RemoveDirRecursively(tiny_dir.value());
}

// Says yes to everything, budget or not: only the store can refuse.
class YesPolicy : public MaterializationPolicy {
 public:
  bool ShouldMaterialize(const MaterializationContext&) const override {
    return true;
  }
  std::string name() const override { return "yes"; }
};

// A Put the store refuses as over budget comes back from the writer as a
// failed outcome, which demotes the decision to a skip: the iteration
// still succeeds, with nothing marked materialized. Checked on the
// virtual clock (drained after each enqueue) and on a real clock (drained
// at the end of the iteration).
TEST_F(ExecutorTest, OverBudgetPutInSequentialModeIsASkippedMaterialization) {
  auto tiny_dir = MakeTempDir("helix-over-budget");
  ASSERT_TRUE(tiny_dir.ok());
  YesPolicy yes;
  for (bool virtual_clock : {true, false}) {
    storage::StoreOptions store_options;
    store_options.budget_bytes = 16;  // smaller than any envelope
    store_options.clock = &clock_;
    auto store = storage::IntermediateStore::Open(
        JoinPath(tiny_dir.value(), virtual_clock ? "virtual" : "real"),
        store_options);
    ASSERT_TRUE(store.ok());
    Pipeline p;
    ExecutionOptions options = Options(0);
    options.store = store.value().get();
    options.mat_policy = &yes;
    options.max_parallelism = 1;
    if (!virtual_clock) {
      options.clock = SystemClock::Default();
    }
    ExecutionReport report = Run(p.Build(), options);
    EXPECT_EQ(report.num_computed, 4) << virtual_clock;
    EXPECT_EQ(report.num_materialized, 0) << virtual_clock;
    EXPECT_EQ(report.materialize_micros, 0) << virtual_clock;
    for (const NodeExecution& node : report.nodes) {
      EXPECT_FALSE(node.materialized) << node.name;
    }
    EXPECT_EQ(store.value()->NumEntries(), 0u);
  }
  (void)RemoveDirRecursively(tiny_dir.value());
}

TEST_F(ExecutorTest, MaterializeWriteCostCharged) {
  Pipeline p;
  Workflow wf("write-cost");
  // Expensive node whose declared write cost must appear in the total.
  SyntheticCosts costs;
  costs.compute_micros = 100000;
  costs.load_micros = 10;
  costs.write_micros = 7777;
  NodeRef a = wf.Add(
      ops::Synthetic("a", Phase::kDataPreprocessing, 1, costs));
  wf.MarkOutput(a);
  ExecutionReport report = Run(wf, Options(0));
  const NodeExecution* node = report.FindNode("a");
  ASSERT_NE(node, nullptr);
  ASSERT_TRUE(node->materialized);
  EXPECT_EQ(node->materialize_micros, 7777);
  EXPECT_EQ(report.materialize_micros, 7777);
  EXPECT_EQ(report.total_micros, 100000 + 7777);
}

TEST_F(ExecutorTest, FailingOperatorPropagatesError) {
  Workflow wf("fails");
  NodeRef bad = wf.Add(ops::Reducer(
      "bad", Phase::kPostprocessing, 0,
      [](const auto&) -> Result<dataflow::DataCollection> {
        return Status::Internal("intentional failure");
      }));
  wf.MarkOutput(bad);
  auto dag = WorkflowDag::Compile(wf);
  ASSERT_TRUE(dag.ok());
  auto report = Execute(*dag, Options(0));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInternal());
  EXPECT_NE(report.status().message().find("bad"), std::string::npos);
}

TEST_F(ExecutorTest, ParanoidChecksCatchFingerprintTampering) {
  Pipeline p;
  ExecutionReport first = Run(p.Build(), Options(0));
  ASSERT_GT(first.num_materialized, 0);

  // Replace each stored entry with a VALID envelope of different content
  // while keeping the recorded fingerprint (every checksum passes; only
  // the executor's fingerprint check can catch the swap).
  auto table = dataflow::MakeTable(dataflow::Schema::AllStrings({"v"}),
                                   {{dataflow::Value("tampered")}});
  std::string valid_other =
      dataflow::DataCollection::FromTable(table).SerializeToString();
  std::vector<storage::StoreEntry> entries = store_->Entries();
  store_.reset();
  TamperPayloads(dir_, entries, valid_other);
  ReopenStore();

  ExecutionOptions options = Options(1);
  options.paranoid_checks = true;
  ExecutionReport second = Run(p.Build(), options);
  // Tampered loads rejected -> recomputed -> same results as the first run.
  EXPECT_EQ(second.outputs.at("eval").Fingerprint(),
            first.outputs.at("eval").Fingerprint());
  EXPECT_EQ(second.num_loaded, 0);
}

// --- Parallel execution -----------------------------------------------------
//
// The parallel strategy must be an implementation detail: same outputs,
// same plan, same record states as the sequential executor — only the wall
// time may differ. These tests run both strategies side by side on
// separate workspaces and compare everything observable.

// Diamond source -> {left, right} -> join; every non-source node is an
// output so re-runs exercise concurrent loads. Declared costs steer the
// planner (compute expensive, loads cheap); the real clock measures the
// actual (tiny) execution.
Workflow ParallelDiamond() {
  Workflow wf("par-diamond");
  SyntheticCosts costs{/*compute=*/100000, /*load=*/100, /*write=*/-1};
  NodeRef source = wf.Add(
      ops::Synthetic("source", Phase::kDataPreprocessing, 21, costs));
  NodeRef left = wf.Add(
      ops::Synthetic("left", Phase::kDataPreprocessing, 22, costs), {source});
  NodeRef right = wf.Add(
      ops::Synthetic("right", Phase::kDataPreprocessing, 23, costs), {source});
  NodeRef join = wf.Add(
      ops::Synthetic("join", Phase::kMachineLearning, 24, costs),
      {left, right});
  wf.MarkOutput(left);
  wf.MarkOutput(right);
  wf.MarkOutput(join);
  return wf;
}

class ParallelExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-parallel-executor-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  // A self-contained execution environment (store + stats) for one mode.
  struct Env {
    std::unique_ptr<storage::IntermediateStore> store;
    storage::CostStatsRegistry stats;
    AlwaysMaterializePolicy policy;  // deterministic decisions
  };

  std::unique_ptr<Env> OpenEnv(const std::string& name) {
    auto env = std::make_unique<Env>();
    storage::StoreOptions store_options;
    store_options.budget_bytes = 1 << 20;
    auto store =
        storage::IntermediateStore::Open(JoinPath(dir_, name), store_options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    env->store = std::move(store).value();
    return env;
  }

  ExecutionOptions Options(Env* env, int parallelism, int64_t iteration) {
    ExecutionOptions options;
    options.clock = SystemClock::Default();
    options.store = env->store.get();
    options.stats = &env->stats;
    options.mat_policy = &env->policy;
    options.max_parallelism = parallelism;
    options.iteration = iteration;
    return options;
  }

  ExecutionReport Run(const Workflow& wf, const ExecutionOptions& options) {
    auto dag = WorkflowDag::Compile(wf);
    EXPECT_TRUE(dag.ok()) << dag.status().ToString();
    auto report = Execute(*dag, options);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(report).value();
  }

  // name -> (state, sliced) for every node; the full decision surface.
  static std::map<std::string, std::pair<NodeState, bool>> States(
      const ExecutionReport& report) {
    std::map<std::string, std::pair<NodeState, bool>> out;
    for (const NodeExecution& node : report.nodes) {
      out[node.name] = {node.state, node.sliced};
    }
    return out;
  }

  static std::map<std::string, std::string> SerializedOutputs(
      const ExecutionReport& report) {
    std::map<std::string, std::string> out;
    for (const auto& [name, data] : report.outputs) {
      out[name] = data.SerializeToString();
    }
    return out;
  }

  std::string dir_;
};

TEST_F(ParallelExecutorTest, ResolveParallelismHonorsClockAndBounds) {
  VirtualClock virtual_clock;
  ExecutionOptions options;
  options.clock = &virtual_clock;
  options.max_parallelism = 8;
  // Virtual clocks force the sequential strategy.
  EXPECT_EQ(ResolveParallelism(options, 100), 1);

  options.clock = SystemClock::Default();
  EXPECT_EQ(ResolveParallelism(options, 100), 8);
  // Never more workers than nodes, never fewer than one.
  EXPECT_EQ(ResolveParallelism(options, 3), 3);
  options.max_parallelism = 1;
  EXPECT_EQ(ResolveParallelism(options, 100), 1);
  options.max_parallelism = 0;
  EXPECT_GE(ResolveParallelism(options, 100), 1);
}

// The determinism contract: byte-identical outputs and identical
// computed/loaded/pruned node sets across strategies, on both a cold run
// (everything computed + materialized) and a warm re-run (loads).
TEST_F(ParallelExecutorTest, ParallelAndSequentialAreByteIdentical) {
  Workflow wf = ParallelDiamond();
  auto seq_env = OpenEnv("seq");
  auto par_env = OpenEnv("par");

  // Iteration 0: cold. Everything computes in both modes.
  ExecutionReport seq0 = Run(wf, Options(seq_env.get(), 1, 0));
  ExecutionReport par0 = Run(wf, Options(par_env.get(), 4, 0));
  EXPECT_EQ(States(seq0), States(par0));
  EXPECT_EQ(SerializedOutputs(seq0), SerializedOutputs(par0));
  EXPECT_EQ(seq0.num_computed, par0.num_computed);
  EXPECT_EQ(seq0.num_loaded, par0.num_loaded);
  EXPECT_EQ(seq0.num_pruned, par0.num_pruned);
  EXPECT_EQ(seq0.num_computed, 4);
  // AlwaysMaterialize + fresh store: all four results persisted, by the
  // background writer in parallel mode, inline in sequential mode.
  EXPECT_EQ(seq_env->store->NumEntries(), 4u);
  EXPECT_EQ(par_env->store->NumEntries(), 4u);
  EXPECT_EQ(seq0.num_materialized, 4);
  EXPECT_EQ(par0.num_materialized, 4);

  // Iteration 1: warm. The planner loads the three required outputs
  // (declared load cost 100us vs compute 100000us) in both modes —
  // concurrently in parallel mode.
  ExecutionReport seq1 = Run(wf, Options(seq_env.get(), 1, 1));
  ExecutionReport par1 = Run(wf, Options(par_env.get(), 4, 1));
  EXPECT_EQ(States(seq1), States(par1));
  EXPECT_EQ(SerializedOutputs(seq1), SerializedOutputs(par1));
  EXPECT_EQ(seq1.num_computed, 0);
  EXPECT_EQ(par1.num_computed, 0);
  EXPECT_EQ(seq1.num_loaded, 3);
  EXPECT_EQ(par1.num_loaded, 3);

  // And the warm outputs equal the cold outputs: reuse is lossless.
  EXPECT_EQ(SerializedOutputs(par1), SerializedOutputs(par0));
}

TEST_F(ParallelExecutorTest, WideDagMatchesSequentialWithoutStore) {
  // 4 lanes x depth 3 of synthetic work feeding one sink, no store: the
  // pure compute path through the scheduler.
  Workflow wf("wide");
  std::vector<NodeRef> heads;
  NodeRef source = wf.Add(
      ops::Synthetic("source", Phase::kDataPreprocessing, 1,
                     SyntheticCosts{}));
  for (int lane = 0; lane < 4; ++lane) {
    NodeRef prev = source;
    for (int depth = 0; depth < 3; ++depth) {
      prev = wf.Add(
          ops::Synthetic(
              "lane" + std::to_string(lane) + "_" + std::to_string(depth),
              Phase::kDataPreprocessing, 100 + lane * 10 + depth,
              SyntheticCosts{}),
          {prev});
    }
    heads.push_back(prev);
  }
  NodeRef sink = wf.Add(
      ops::Synthetic("sink", Phase::kMachineLearning, 999, SyntheticCosts{}),
      heads);
  wf.MarkOutput(sink);

  ExecutionOptions seq_options;
  seq_options.clock = SystemClock::Default();
  seq_options.max_parallelism = 1;
  ExecutionOptions par_options = seq_options;
  par_options.max_parallelism = 4;

  ExecutionReport seq = Run(wf, seq_options);
  ExecutionReport par = Run(wf, par_options);
  EXPECT_EQ(seq.num_computed, 14);
  EXPECT_EQ(par.num_computed, 14);
  EXPECT_EQ(States(seq), States(par));
  EXPECT_EQ(SerializedOutputs(seq), SerializedOutputs(par));
}

// The nasty fallback shape: P (active, output) -> A (pruned) -> I (load).
// When I's store entry is corrupt, its fallback recomputes the pruned A,
// which reads P — an active ancestor I has no *direct* edge to. The
// parallel scheduler must order I after P anyway (dependencies are routed
// through pruned chains), and the result must match the sequential run.
TEST_F(ParallelExecutorTest, LoadFallbackThroughPrunedAncestorMatchesSequential) {
  auto row_from_inputs = [](const std::string& tag) {
    return [tag](const std::vector<const dataflow::DataCollection*>& inputs)
               -> Result<dataflow::DataCollection> {
      uint64_t acc = 0;
      for (const dataflow::DataCollection* input : inputs) {
        acc ^= input->Fingerprint();
      }
      return dataflow::DataCollection::FromTable(
          dataflow::MakeTable(dataflow::Schema::AllStrings({"v"}),
                              {{dataflow::Value(tag + std::to_string(acc))}}));
    };
  };
  // Declared costs steer the planner toward loads (compute nominally
  // expensive, loads cheap); the real fns above still run in microseconds.
  SyntheticCosts costs{/*compute=*/100000, /*load=*/100, /*write=*/-1};
  Workflow wf("fallback");
  NodeRef p = wf.Add(
      ops::Reducer("P", Phase::kDataPreprocessing, 0, row_from_inputs("p"))
          .SetSyntheticCosts(costs));
  NodeRef a = wf.Add(
      ops::Reducer("A", Phase::kMachineLearning, 0, row_from_inputs("a"))
          .SetSyntheticCosts(costs),
      {p});
  NodeRef i = wf.Add(
      ops::Reducer("I", Phase::kDataPreprocessing, 0, row_from_inputs("i"))
          .SetSyntheticCosts(costs),
      {a});
  wf.MarkOutput(p);
  wf.MarkOutput(i);

  // Materialize only the pre-processing nodes (P and I): A stays
  // unpersisted, so the warm plan loads P and I and prunes A.
  PhaseFilterPolicy policy(std::make_shared<AlwaysMaterializePolicy>(),
                           {Phase::kDataPreprocessing});

  std::map<int, ExecutionReport> warm;  // parallelism -> iteration-1 report
  for (int parallelism : {1, 4}) {
    std::string name = "fb-" + std::to_string(parallelism);
    auto env = OpenEnv(name);
    ExecutionOptions options = Options(env.get(), parallelism, 0);
    options.mat_policy = &policy;
    ExecutionReport cold = Run(wf, options);
    EXPECT_EQ(cold.num_computed, 3);
    ASSERT_TRUE(cold.FindNode("P")->materialized);
    ASSERT_TRUE(cold.FindNode("I")->materialized);
    EXPECT_FALSE(cold.FindNode("A")->materialized);

    // Corrupt I's payload via a tampering record, then reopen: the
    // rebuilt index still advertises I as loadable, but the stored bytes
    // no longer deserialize.
    uint64_t sig = cold.FindNode("I")->signature;
    auto tampered = env->store->GetEntry(sig);
    ASSERT_TRUE(tampered.has_value());
    env->store.reset();
    TamperPayloads(JoinPath(dir_, name), {*tampered},
                   "garbage that fails the envelope checksum");
    env = OpenEnv(name);

    ExecutionOptions warm_options = Options(env.get(), parallelism, 1);
    warm_options.mat_policy = &policy;
    warm[parallelism] = Run(wf, warm_options);
  }

  for (int parallelism : {1, 4}) {
    const ExecutionReport& report = warm[parallelism];
    EXPECT_EQ(report.FindNode("P")->state, NodeState::kLoad);
    EXPECT_EQ(report.FindNode("A")->state, NodeState::kCompute);  // fallback
    EXPECT_EQ(report.FindNode("I")->state, NodeState::kCompute);  // fallback
  }
  EXPECT_EQ(States(warm[1]), States(warm[4]));
  EXPECT_EQ(SerializedOutputs(warm[1]), SerializedOutputs(warm[4]));
}

TEST_F(ParallelExecutorTest, FailingOperatorPropagatesFromWorker) {
  Workflow wf("fails-parallel");
  NodeRef source = wf.Add(
      ops::Synthetic("source", Phase::kDataPreprocessing, 1,
                     SyntheticCosts{}));
  wf.Add(ops::Synthetic("ok", Phase::kDataPreprocessing, 2,
                        SyntheticCosts{}),
         {source});
  NodeRef bad = wf.Add(
      ops::Reducer("bad", Phase::kPostprocessing, 0,
                   [](const auto&) -> Result<dataflow::DataCollection> {
                     return Status::Internal("parallel failure");
                   }),
      {source});
  wf.MarkOutput(bad);
  auto dag = WorkflowDag::Compile(wf);
  ASSERT_TRUE(dag.ok());
  ExecutionOptions options;
  options.clock = SystemClock::Default();
  options.max_parallelism = 4;
  auto report = Execute(*dag, options);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInternal());
}

}  // namespace
}  // namespace core
}  // namespace helix
