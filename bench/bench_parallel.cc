// Benchmark: the parallel DAG runtime vs the sequential executor.
//
// Workload: a 4-way-wide synthetic DAG — one cheap source fanning out into
// 4 independent lanes of depth-4 operator chains, joined by one sink. Each
// lane operator does non-trivial work: a real CPU hashing pass over a
// buffer plus a blocking wait modeling the I/O-bound portion of realistic
// operators (feature extraction reading shards, model io, RPC-backed
// sources). Lanes are mutually independent, so the DAG has parallelism 4;
// the sequential executor leaves all of it on the table.
//
// Runs the identical workload at max_parallelism 1/2/4/8 and reports wall
// time and speedup vs the sequential run, both as a human table and as one
// machine-readable JSON line (grep '^json,').
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/json.h"
#include "core/executor.h"
#include "core/std_ops.h"
#include "core/workflow.h"
#include "core/workflow_dag.h"
#include "dataflow/data_collection.h"

namespace helix {
namespace bench {
namespace {

using core::ExecutionOptions;
using core::ExecutionReport;
using core::NodeRef;
using core::Phase;
using core::Workflow;
using dataflow::DataCollection;
using dataflow::Schema;
using dataflow::TableData;

constexpr int kLanes = 4;
constexpr int kDepth = 4;
constexpr int kHashPasses = 400;        // ~a few ms of real CPU per node
constexpr int kBlockingMillis = 40;     // modeled I/O wait per node
const int kThreadCounts[] = {1, 2, 4, 8};

DataCollection MakeRow(const std::string& content) {
  dataflow::ColumnBuilder v(dataflow::ValueType::kString);
  v.AppendString(content);
  auto table = TableData::FromColumns(Schema::AllStrings({"v"}), {v.Finish()});
  CheckOk(table.status(), "one-row table");
  return DataCollection::FromTable(table.value());
}

// One lane operator: hash a buffer for a while (CPU), block as if reading
// a shard (I/O), and fold the inputs' fingerprints into the output so the
// result — and therefore the DAG's data dependencies — is real.
core::OperatorFn LaneWork(int lane, int depth) {
  return [lane, depth](const std::vector<const DataCollection*>& inputs)
             -> Result<DataCollection> {
    uint64_t acc = FnvHash64("seed", 4) + static_cast<uint64_t>(lane * 131) +
                   static_cast<uint64_t>(depth);
    for (const DataCollection* input : inputs) {
      acc ^= input->Fingerprint();
    }
    char buffer[4096];
    for (size_t i = 0; i < sizeof(buffer); ++i) {
      buffer[i] = static_cast<char>((acc >> (i % 8)) & 0xFF);
    }
    for (int pass = 0; pass < kHashPasses; ++pass) {
      acc = FnvHash64(buffer, sizeof(buffer)) ^ (acc + pass);
      buffer[pass % sizeof(buffer)] = static_cast<char>(acc & 0xFF);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(kBlockingMillis));
    return MakeRow(std::to_string(acc));
  };
}

Workflow BuildWideWorkflow() {
  Workflow wf("bench-parallel");
  NodeRef source = wf.Add(core::ops::Reducer(
      "source", Phase::kDataPreprocessing, 0,
      [](const std::vector<const DataCollection*>&) -> Result<DataCollection> {
        return MakeRow("source");
      }));
  std::vector<NodeRef> heads;
  for (int lane = 0; lane < kLanes; ++lane) {
    NodeRef prev = source;
    for (int depth = 0; depth < kDepth; ++depth) {
      prev = wf.Add(
          core::ops::Reducer("lane" + std::to_string(lane) + "_" +
                                 std::to_string(depth),
                             Phase::kDataPreprocessing, 0,
                             LaneWork(lane, depth)),
          {prev});
    }
    heads.push_back(prev);
  }
  NodeRef sink = wf.Add(
      core::ops::Reducer(
          "sink", Phase::kMachineLearning, 0,
          [](const std::vector<const DataCollection*>& inputs)
              -> Result<DataCollection> {
            uint64_t acc = 0;
            for (const DataCollection* input : inputs) {
              acc ^= input->Fingerprint();
            }
            return MakeRow(std::to_string(acc));
          }),
      heads);
  wf.MarkOutput(sink);
  return wf;
}

double RunOnce(const core::WorkflowDag& dag, int threads,
               uint64_t* output_fingerprint) {
  ExecutionOptions options;
  options.clock = SystemClock::Default();
  options.max_parallelism = threads;
  auto start = std::chrono::steady_clock::now();
  ExecutionReport report = ValueOrDie(Execute(dag, options), "execute");
  double wall_ms = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count() /
                   1000.0;
  if (report.num_computed != kLanes * kDepth + 2) {
    std::fprintf(stderr, "FATAL unexpected computed count %d\n",
                 report.num_computed);
    std::abort();
  }
  *output_fingerprint = report.outputs.at("sink").Fingerprint();
  return wall_ms;
}

int Main() {
  Workflow wf = BuildWideWorkflow();
  core::WorkflowDag dag =
      ValueOrDie(core::WorkflowDag::Compile(wf), "compile");
  std::printf(
      "bench_parallel: %d lanes x depth %d (+source/sink), "
      "%d hash passes + %d ms blocking per node\n",
      kLanes, kDepth, kHashPasses, kBlockingMillis);

  std::vector<int> threads;
  std::vector<double> wall_ms;
  uint64_t reference_fingerprint = 0;
  for (int t : kThreadCounts) {
    uint64_t fingerprint = 0;
    double ms = RunOnce(dag, t, &fingerprint);
    if (reference_fingerprint == 0) {
      reference_fingerprint = fingerprint;
    } else if (fingerprint != reference_fingerprint) {
      std::fprintf(stderr, "FATAL output diverged at %d threads\n", t);
      std::abort();
    }
    threads.push_back(t);
    wall_ms.push_back(ms);
  }

  std::printf("%-8s %12s %9s\n", "threads", "wall_ms", "speedup");
  JsonWriter json;
  json.BeginObject()
      .KV("benchmark", "bench_parallel")
      .KV("lanes", kLanes)
      .KV("depth", kDepth)
      .KV("nodes", kLanes * kDepth + 2)
      .KV("hash_passes", kHashPasses)
      .KV("blocking_ms", kBlockingMillis)
      .Key("results")
      .BeginArray();
  for (size_t i = 0; i < threads.size(); ++i) {
    double speedup = wall_ms[0] / wall_ms[i];
    std::printf("%-8d %12.1f %8.2fx\n", threads[i], wall_ms[i], speedup);
    json.BeginObject()
        .KV("threads", threads[i])
        .KV("wall_ms", wall_ms[i])
        .KV("speedup", speedup)
        .EndObject();
  }
  json.EndArray().EndObject();
  PrintJsonLine(json);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace helix

int main() {
  int rc = helix::bench::Main();
  helix::bench::WriteBenchSummary("parallel");
  return rc;
}
