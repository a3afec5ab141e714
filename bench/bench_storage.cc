// Microbenchmarks for the storage substrate: DataCollection serialization,
// IntermediateStore put/get throughput, and disk-backend read/write
// bandwidth. These costs are the "l_i" side of every optimizer decision,
// so their absolute magnitudes matter for interpreting the figure
// benchmarks.
//
// The custom main runs a self-driving disk-throughput harness first (it
// emits one "json,"-prefixed machine-readable line via bench_util.h),
// then hands over to Google Benchmark for the registered microbenchmarks.
#include <benchmark/benchmark.h>

#include <chrono>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "dataflow/data_collection.h"
#include "storage/store.h"

namespace helix {
namespace {

using dataflow::DataCollection;
using dataflow::ExamplesData;
using dataflow::Schema;
using dataflow::TableData;

DataCollection MakeTable(int64_t rows, uint64_t seed) {
  Rng rng(seed);
  std::vector<dataflow::ColumnBuilder> cols(
      4, dataflow::ColumnBuilder(dataflow::ValueType::kString));
  for (dataflow::ColumnBuilder& b : cols) {
    b.Reserve(rows);
  }
  for (int64_t i = 0; i < rows; ++i) {
    cols[0].AppendString(StrFormat("row-%lld", (long long)i));
    cols[1].AppendString(
        StrFormat("val-%llu", (unsigned long long)rng.NextBelow(1000)));
    cols[2].AppendString(
        StrFormat("%llu", (unsigned long long)rng.NextU64()));
    cols[3].AppendString(std::string(24, 'x'));
  }
  auto table = TableData::FromColumns(
      Schema::AllStrings({"a", "b", "c", "d"}),
      {cols[0].Finish(), cols[1].Finish(), cols[2].Finish(),
       cols[3].Finish()});
  return DataCollection::FromTable(std::move(table).value());
}

DataCollection MakeExamples(int64_t n, uint64_t seed) {
  Rng rng(seed);
  auto data = std::make_shared<ExamplesData>();
  for (int j = 0; j < 2000; ++j) {
    data->mutable_dict()->Intern(StrFormat("feature_%d", j));
  }
  data->Reserve(n, n * 12);
  dataflow::SparseVector row;
  for (int64_t i = 0; i < n; ++i) {
    double label = rng.NextBool() ? 1.0 : 0.0;
    row.Clear();
    for (int k = 0; k < 12; ++k) {
      row.Set(static_cast<int32_t>(rng.NextBelow(2000)), 1.0);
    }
    data->AddRow(row.view(), label, i, /*is_test=*/false);
  }
  return DataCollection::FromExamples(std::move(data));
}

void BM_SerializeTable(benchmark::State& state) {
  DataCollection data = MakeTable(state.range(0), 1);
  int64_t bytes = 0;
  for (auto _ : state) {
    std::string s = data.SerializeToString();
    bytes += static_cast<int64_t>(s.size());
    benchmark::DoNotOptimize(s);
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_SerializeTable)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DeserializeTable(benchmark::State& state) {
  std::string bytes = MakeTable(state.range(0), 1).SerializeToString();
  int64_t processed = 0;
  for (auto _ : state) {
    auto restored = DataCollection::DeserializeFromString(bytes);
    benchmark::DoNotOptimize(restored);
    processed += static_cast<int64_t>(bytes.size());
  }
  state.SetBytesProcessed(processed);
}
BENCHMARK(BM_DeserializeTable)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_SerializeExamples(benchmark::State& state) {
  DataCollection data = MakeExamples(state.range(0), 2);
  int64_t bytes = 0;
  for (auto _ : state) {
    std::string s = data.SerializeToString();
    bytes += static_cast<int64_t>(s.size());
    benchmark::DoNotOptimize(s);
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_SerializeExamples)->Arg(10000)->Arg(50000);

void BM_StorePutGet(benchmark::State& state) {
  bench::TempWorkspace workspace("helix-store-bench");
  storage::StoreOptions options;
  options.budget_bytes = 4LL << 30;
  auto store = bench::ValueOrDie(
      storage::IntermediateStore::Open(workspace.dir(), options), "open");
  DataCollection data = MakeTable(state.range(0), 3);
  uint64_t sig = 1;
  int64_t bytes = 0;
  for (auto _ : state) {
    bench::CheckOk(store->Put(sig, "bench", data, 0), "put");
    auto loaded = store->Get(sig);
    benchmark::DoNotOptimize(loaded);
    bench::CheckOk(store->Remove(sig), "remove");
    ++sig;
    bytes += data.SizeBytes();
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_StorePutGet)->Arg(1000)->Arg(20000);

void BM_FingerprintTable(benchmark::State& state) {
  DataCollection data = MakeTable(state.range(0), 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data.Fingerprint());
  }
}
BENCHMARK(BM_FingerprintTable)->Arg(1000)->Arg(100000);

// --- Self-driving harness: disk backend throughput -------------------------
//
// Sequentially writes then reads back ~1 MiB payloads through a
// disk-backed store, reporting bandwidth the way the store's own load-cost
// estimator sees it (serialization + segment append; read + deserialize).
void RunDiskThroughput() {
  constexpr int kPayloads = 24;
  constexpr int64_t kRowsPerPayload = 12000;  // ~1 MiB serialized
  bench::TempWorkspace workspace("helix-disk-throughput");
  storage::StoreOptions options;
  options.backend = storage::StorageBackendKind::kDisk;
  options.budget_bytes = 4LL << 30;
  auto store = bench::ValueOrDie(
      storage::IntermediateStore::Open(workspace.dir(), options),
      "open disk store");

  std::vector<DataCollection> payloads;
  payloads.reserve(kPayloads);
  int64_t total_bytes = 0;
  for (int i = 0; i < kPayloads; ++i) {
    payloads.push_back(MakeTable(kRowsPerPayload, static_cast<uint64_t>(i)));
    total_bytes +=
        static_cast<int64_t>(payloads.back().SerializeToString().size());
  }

  auto write_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPayloads; ++i) {
    bench::CheckOk(store->Put(static_cast<uint64_t>(i + 1), "bench",
                              payloads[static_cast<size_t>(i)], 0),
                   "disk put");
  }
  double write_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - write_start)
                        .count();

  auto read_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kPayloads; ++i) {
    auto loaded = store->Get(static_cast<uint64_t>(i + 1));
    bench::CheckOk(loaded.status(), "disk get");
    benchmark::DoNotOptimize(loaded);
  }
  double read_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - read_start)
                       .count();

  double mib = static_cast<double>(total_bytes) / (1024.0 * 1024.0);
  JsonWriter json;
  json.BeginObject()
      .KV("bench", "disk_backend_throughput")
      .KV("payloads", kPayloads)
      .KV("total_mib", mib)
      .KV("write_ms", write_ms)
      .KV("write_mib_per_sec", mib / (write_ms / 1000.0))
      .KV("read_ms", read_ms)
      .KV("read_mib_per_sec", mib / (read_ms / 1000.0))
      .KV("est_load_micros_1mib", store->EstimateLoadMicros(1 << 20))
      .EndObject();
  bench::PrintJsonLine(json);
}

}  // namespace
}  // namespace helix

int main(int argc, char** argv) {
  helix::RunDiskThroughput();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  helix::bench::WriteBenchSummary("storage");
  return 0;
}
