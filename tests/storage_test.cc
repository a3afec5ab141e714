// Tests for src/storage: the sharded, budget-gated materialization store
// over pluggable backends (with failure injection), cost-based eviction,
// the append-only disk backend's crash recovery, and the cost statistics
// registry.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "dataflow/data_collection.h"
#include "dataflow/simd.h"
#include "obs/metrics.h"
#include "storage/cost_stats.h"
#include "storage/disk_backend.h"
#include "storage/eviction.h"
#include "storage/store.h"
#include "backend_util.h"
#include "table_util.h"

namespace helix {
namespace storage {
namespace {

using dataflow::DataCollection;
using dataflow::Schema;
using dataflow::TableData;
using dataflow::Value;
using dataflow::simd::Crc32cIsa;
using dataflow::simd::InvocationCount;
using dataflow::simd::Kernel;

DataCollection MakeCollection(const std::string& content, int rows = 1) {
  return DataCollection::FromTable(dataflow::MakeTable(
      Schema::AllStrings({"v"}),
      std::vector<dataflow::Row>(static_cast<size_t>(rows),
                                 {Value(content)})));
}

int64_t SerializedSize(const DataCollection& data) {
  return static_cast<int64_t>(data.SerializeToString().size());
}

// The only segment file of a freshly written single-segment store.
std::string FirstSegmentPath(const std::string& dir) {
  return JoinPath(dir, "seg-000001.log");
}

class StoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-store-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  std::unique_ptr<IntermediateStore> OpenStore(StoreOptions options) {
    auto store = IntermediateStore::Open(dir_, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  std::unique_ptr<IntermediateStore> OpenStore(int64_t budget = 1 << 20) {
    StoreOptions options;
    options.budget_bytes = budget;
    return OpenStore(options);
  }

  std::string dir_;
};

TEST_F(StoreTest, PutGetRoundTrip) {
  auto store = OpenStore();
  DataCollection data = MakeCollection("hello");
  ASSERT_TRUE(store->Put(0xAB, "node", data, 0).ok());
  EXPECT_TRUE(store->Has(0xAB));
  EXPECT_EQ(store->NumEntries(), 1u);

  int64_t load_micros = -1;
  auto got = store->Get(0xAB, &load_micros);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().Fingerprint(), data.Fingerprint());
  EXPECT_GE(load_micros, 0);
}

// A table wide enough that its envelope is more spans than writev takes
// (IOV_MAX, 1024): the disk backend splits the gathered record write
// instead of failing it, on the first write and after a reopen.
TEST_F(StoreTest, WideTableOfMoreSpansThanIovMaxWritesAndReadsBack) {
  std::vector<dataflow::Field> fields;
  std::vector<std::shared_ptr<const dataflow::Column>> columns;
  for (int c = 0; c < 600; ++c) {
    fields.push_back({"c" + std::to_string(c), dataflow::ValueType::kInt});
    dataflow::ColumnBuilder builder(dataflow::ValueType::kInt);
    builder.AppendInt(c);
    builder.AppendInt(-c);
    columns.push_back(builder.Finish());
  }
  auto table = TableData::FromColumns(Schema(fields), std::move(columns));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  DataCollection wide = DataCollection::FromTable(table.value());
  SpanWriter spans;
  wide.SerializeToSpans(&spans);
  ASSERT_GT(spans.spans().size(), 1024u);
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->Put(7, "wide", wide, 0).ok());
    auto got = store->Get(7);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().Fingerprint(), wide.Fingerprint());
  }
  auto reopened = OpenStore();
  auto got = reopened->Get(7);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().Fingerprint(), wide.Fingerprint());
  EXPECT_EQ(got.value().SerializeToString(), wide.SerializeToString());
}

TEST_F(StoreTest, GetMissingIsNotFound) {
  auto store = OpenStore();
  EXPECT_TRUE(store->Get(123).status().IsNotFound());
}

TEST_F(StoreTest, DuplicatePutIsAlreadyExists) {
  auto store = OpenStore();
  DataCollection data = MakeCollection("x");
  ASSERT_TRUE(store->Put(1, "n", data, 0).ok());
  EXPECT_TRUE(store->Put(1, "n", data, 0).IsAlreadyExists());
}

TEST_F(StoreTest, OversizedPutRejectedEvenWithEviction) {
  auto store = OpenStore(/*budget=*/100);
  DataCollection big = MakeCollection(std::string(500, 'x'));
  Status s = store->Put(1, "big", big, 0);
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(store->NumEntries(), 0u);
  EXPECT_EQ(store->TotalBytes(), 0);
}

TEST_F(StoreTest, EvictionMakesRoomLowestScoreFirst) {
  DataCollection data = MakeCollection(std::string(1000, 'a'));
  int64_t size = SerializedSize(data);
  // Room for two entries, not three.
  auto store = OpenStore(/*budget=*/2 * size + size / 2);
  // Entry 1 is cheap to recompute (low retention score); entry 2 is very
  // expensive (high score).
  ASSERT_TRUE(store->Put(1, "cheap", data, 0, nullptr,
                         /*compute_micros=*/5000).ok());
  ASSERT_TRUE(store->Put(2, "dear", data, 0, nullptr,
                         /*compute_micros=*/50000000).ok());
  // A mid-value newcomer fits only by evicting: the cheap entry goes, the
  // dear one stays.
  ASSERT_TRUE(store->Put(3, "mid", data, 1, nullptr,
                         /*compute_micros=*/1000000).ok());
  EXPECT_FALSE(store->Has(1));
  EXPECT_TRUE(store->Has(2));
  EXPECT_TRUE(store->Has(3));
  EXPECT_EQ(store->NumEvictions(), 1);
  EXPECT_LE(store->TotalBytes(), store->BudgetBytes());
}

TEST_F(StoreTest, LowValueNewcomerDoesNotChurnResidents) {
  DataCollection data = MakeCollection(std::string(1000, 'a'));
  int64_t size = SerializedSize(data);
  auto store = OpenStore(/*budget=*/2 * size + size / 2);
  ASSERT_TRUE(store->Put(1, "a", data, 0, nullptr, 10000000).ok());
  ASSERT_TRUE(store->Put(2, "b", data, 0, nullptr, 10000000).ok());
  // compute 0: loading can never beat recomputing, retention score 0 —
  // no resident scores strictly below it, so the put is refused.
  Status s = store->Put(3, "worthless", data, 1, nullptr, 0);
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_TRUE(store->Has(1));
  EXPECT_TRUE(store->Has(2));
  EXPECT_FALSE(store->Has(3));
  EXPECT_EQ(store->NumEvictions(), 0);
}

// A result that alone exceeds the whole budget must be refused before any
// admission work: it can never fit, so evicting residents for it would be
// pure churn. Regression — the reject must happen with zero evictions even
// when eviction is enabled and victims are available.
TEST_F(StoreTest, OversizedPutCausesNoEvictionChurn) {
  DataCollection data = MakeCollection(std::string(1000, 'a'));
  int64_t size = SerializedSize(data);
  auto store = OpenStore(/*budget=*/2 * size + size / 2);
  ASSERT_TRUE(store->Put(1, "a", data, 0, nullptr, 5000).ok());
  ASSERT_TRUE(store->Put(2, "b", data, 0, nullptr, 5000).ok());
  // Five times the whole budget: hopeless no matter what gets evicted.
  DataCollection big = MakeCollection(std::string(1000, 'x'), 12);
  Status s = store->Put(3, "oversized", big, 1, nullptr, 50000000);
  EXPECT_TRUE(s.IsResourceExhausted());
  EXPECT_EQ(store->NumEvictions(), 0);
  EXPECT_TRUE(store->Has(1));
  EXPECT_TRUE(store->Has(2));
  EXPECT_EQ(store->NumEntries(), 2u);
}

// Eviction scores from the live cost registry, not the costs frozen at Put
// time. Regression for the stale-compute_micros bug: an entry written
// under a pre-edit DAG version kept its old (here: inflated) compute cost
// forever, so the store defended the wrong resident.
TEST_F(StoreTest, EvictionRefreshesStaleComputeCostsFromLiveStats) {
  DataCollection data = MakeCollection(std::string(1000, 'a'));
  int64_t size = SerializedSize(data);
  CostStatsRegistry stats;
  StoreOptions options;
  options.budget_bytes = 2 * size + size / 2;
  options.cost_stats = &stats;
  auto store = OpenStore(options);
  // Frozen costs say entry 1 is dear and entry 2 is cheap...
  ASSERT_TRUE(store->Put(1, "a", data, 0, nullptr,
                         /*compute_micros=*/50000000).ok());
  ASSERT_TRUE(store->Put(2, "b", data, 0, nullptr,
                         /*compute_micros=*/5000).ok());
  // ...but fresh measurements say the opposite.
  stats.RecordCompute(1, "a", 5000, 1);
  stats.RecordCompute(2, "b", 50000000, 1);
  ASSERT_TRUE(store->Put(3, "mid", data, 1, nullptr,
                         /*compute_micros=*/1000000).ok());
  // The refreshed scores pick entry 1 (now cheap) as the victim; the
  // frozen scores would have churned out entry 2.
  EXPECT_FALSE(store->Has(1));
  EXPECT_TRUE(store->Has(2));
  EXPECT_TRUE(store->Has(3));
  EXPECT_EQ(store->NumEvictions(), 1);
}

// With refreshed costs equal, the documented tie order still holds: older
// iteration first (then smaller signature) — the refresh path must not
// perturb the deterministic victim sequence.
TEST_F(StoreTest, RefreshedEqualScoresKeepDeterministicTieOrder) {
  DataCollection data = MakeCollection(std::string(1000, 'a'));
  int64_t size = SerializedSize(data);
  CostStatsRegistry stats;
  StoreOptions options;
  options.budget_bytes = 2 * size + size / 2;
  options.cost_stats = &stats;
  auto store = OpenStore(options);
  // Frozen costs differ (and would pick entry 1, the cheaper one)...
  ASSERT_TRUE(store->Put(1, "a", data, /*iteration=*/1, nullptr, 5000).ok());
  ASSERT_TRUE(store->Put(2, "b", data, /*iteration=*/0, nullptr, 7000).ok());
  // ...but the live registry refreshes both to the same cost, so the tie
  // breaks on iteration age: entry 2 (iteration 0) goes first.
  stats.RecordCompute(1, "a", 1000000, 2);
  stats.RecordCompute(2, "b", 1000000, 2);
  ASSERT_TRUE(store->Put(3, "new", data, 2, nullptr, 50000000).ok());
  EXPECT_TRUE(store->Has(1));
  EXPECT_FALSE(store->Has(2));
  EXPECT_TRUE(store->Has(3));
  EXPECT_EQ(store->NumEvictions(), 1);
}

// The documented tie order for equal retention scores: older iteration
// first, then smaller signature — a total order, so the victim sequence
// is deterministic regardless of the order candidates are enumerated in.
TEST(EvictionPlanTest, EqualScoresEvictOldestIterationThenSmallestSignature) {
  auto make = [](uint64_t sig, int64_t iteration) {
    EvictionCandidate c;
    c.entry.signature = sig;
    c.entry.size_bytes = 100;
    c.entry.compute_micros = 1000000;
    c.entry.load_micros = 1000;
    c.entry.iteration = iteration;
    c.est_load_micros = 1000;
    return c;
  };
  // All five score identically; only (iteration, signature) differ.
  std::vector<EvictionCandidate> candidates = {
      make(50, 1), make(10, 3), make(40, 1), make(30, 2), make(20, 2)};
  EvictionPlan plan = PlanEviction(candidates, /*bytes_needed=*/350,
                                   /*incoming_score=*/1e18,
                                   /*default_compute_micros=*/0);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.victims, (std::vector<uint64_t>{40, 50, 20, 30}));
  EXPECT_EQ(plan.freed_bytes, 400);

  // Reversing the candidate enumeration changes nothing.
  std::vector<EvictionCandidate> reversed(candidates.rbegin(),
                                          candidates.rend());
  EvictionPlan again = PlanEviction(reversed, 350, 1e18, 0);
  EXPECT_EQ(again.victims, plan.victims);
}

// Store-level version of the same property: a store's shard count changes
// how entries are partitioned across index shards (and thus every
// internal enumeration order), but must not change which equal-score
// entry is evicted when.
TEST_F(StoreTest, EqualScoreEvictionOrderIsSameAcrossShardCounts) {
  // (signature, iteration) pairs whose documented eviction order is
  // 40, 50 (iteration 1, by signature), then 20, 30 (iteration 2), then
  // 10 (iteration 3).
  const std::vector<std::pair<uint64_t, int64_t>> residents = {
      {50, 1}, {10, 3}, {40, 1}, {30, 2}, {20, 2}};
  const std::vector<uint64_t> expected_order = {40, 50, 20, 30};
  DataCollection data = MakeCollection(std::string(1000, 'a'));
  int64_t size = SerializedSize(data);

  for (int shard_count : {1, 4, 8}) {
    SCOPED_TRACE("shard_count=" + std::to_string(shard_count));
    StoreOptions options;
    options.backend = StorageBackendKind::kMemory;
    options.shard_count = shard_count;
    options.budget_bytes = 5 * size;  // exactly the residents
    auto store = OpenStore(options);
    for (const auto& [sig, iteration] : residents) {
      ASSERT_TRUE(store->Put(sig, "r" + std::to_string(sig), data, iteration,
                             nullptr, /*compute_micros=*/1000000)
                      .ok());
    }
    // Each high-value newcomer displaces exactly one equal-score
    // resident; the victims must appear in the documented order.
    for (size_t k = 0; k < expected_order.size(); ++k) {
      ASSERT_TRUE(store->Put(1000 + k, "incoming", data,
                             /*iteration=*/9, nullptr,
                             /*compute_micros=*/1000000000000)
                      .ok());
      EXPECT_FALSE(store->Has(expected_order[k]))
          << "newcomer " << k << " should have evicted "
          << expected_order[k];
      for (size_t later = k + 1; later < expected_order.size(); ++later) {
        EXPECT_TRUE(store->Has(expected_order[later]))
            << "newcomer " << k << " wrongly evicted "
            << expected_order[later];
      }
      EXPECT_EQ(store->NumEvictions(), static_cast<int64_t>(k) + 1);
    }
    // The iteration-3 resident outlived every iteration-1/2 peer.
    EXPECT_TRUE(store->Has(10));
  }
}

TEST_F(StoreTest, RemoveFreesBudget) {
  auto store = OpenStore();
  DataCollection data = MakeCollection("y");
  ASSERT_TRUE(store->Put(7, "n", data, 0).ok());
  int64_t used = store->TotalBytes();
  EXPECT_GT(used, 0);
  ASSERT_TRUE(store->Remove(7).ok());
  EXPECT_EQ(store->TotalBytes(), 0);
  EXPECT_FALSE(store->Has(7));
  // Removing again is a no-op.
  EXPECT_TRUE(store->Remove(7).ok());
}

TEST_F(StoreTest, ClearRemovesEverything) {
  auto store = OpenStore();
  ASSERT_TRUE(store->Put(1, "a", MakeCollection("1"), 0).ok());
  ASSERT_TRUE(store->Put(2, "b", MakeCollection("2"), 0).ok());
  ASSERT_TRUE(store->Clear().ok());
  EXPECT_EQ(store->NumEntries(), 0u);
  EXPECT_FALSE(store->Has(1));
  EXPECT_EQ(store->TotalBytes(), 0);
}

TEST_F(StoreTest, PersistsAcrossReopen) {
  DataCollection data = MakeCollection("persist me");
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->Put(0xFEED, "node", data, 3, nullptr, 12345).ok());
  }
  auto store = OpenStore();
  EXPECT_TRUE(store->Has(0xFEED));
  const StoreEntry* entry = store->Find(0xFEED);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->node_name, "node");
  EXPECT_EQ(entry->iteration, 3);
  EXPECT_EQ(entry->compute_micros, 12345);  // retention input survives too
  auto got = store->Get(0xFEED);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().Fingerprint(), data.Fingerprint());
}

TEST_F(StoreTest, CrashReloadServesCompletedWrites) {
  // Simulated crash: the store object is dropped with no clean shutdown
  // (there is none — every Put is durable on return), then reopened.
  DataCollection a = MakeCollection("a", 10);
  DataCollection b = MakeCollection("b", 20);
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->Put(1, "a", a, 0).ok());
    ASSERT_TRUE(store->Put(2, "b", b, 1).ok());
    // No Clear/Close/flush: unique_ptr destruction only.
  }
  auto store = OpenStore();
  EXPECT_EQ(store->NumEntries(), 2u);
  auto got_a = store->Get(1);
  auto got_b = store->Get(2);
  ASSERT_TRUE(got_a.ok());
  ASSERT_TRUE(got_b.ok());
  EXPECT_EQ(got_a.value().Fingerprint(), a.Fingerprint());
  EXPECT_EQ(got_b.value().Fingerprint(), b.Fingerprint());
}

TEST_F(StoreTest, TornTailRecordDroppedOnReload) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->Put(1, "keep", MakeCollection("1"), 0).ok());
    ASSERT_TRUE(store->Put(2, "keep2", MakeCollection("2"), 0).ok());
  }
  // Append half a record: a frame header promising more bytes than exist
  // — what a crash mid-append leaves behind.
  std::string seg = FirstSegmentPath(dir_);
  auto bytes = ReadFileToString(seg);
  ASSERT_TRUE(bytes.ok());
  std::string torn = bytes.value() + std::string("\xFF\x00\x00\x00garbage");
  ASSERT_TRUE(WriteStringToFile(seg, torn).ok());

  auto store = OpenStore();
  EXPECT_TRUE(store->Has(1));
  EXPECT_TRUE(store->Has(2));
  EXPECT_TRUE(store->Get(1).ok());
}

TEST_F(StoreTest, WritesAfterTornTailRecoverySurviveNextReload) {
  // A torn segment must be sealed at recovery: if new writes were
  // appended after the tear, the NEXT replay would stop at the tear and
  // silently lose acknowledged writes.
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->Put(1, "old", MakeCollection("old"), 0).ok());
  }
  std::string seg = FirstSegmentPath(dir_);
  auto bytes = ReadFileToString(seg);
  ASSERT_TRUE(bytes.ok());
  ASSERT_TRUE(
      WriteStringToFile(seg, bytes.value() + std::string("\xFF\x00\x00\x00x"))
          .ok());
  DataCollection fresh = MakeCollection("fresh");
  {
    auto store = OpenStore();  // recovery over the torn segment
    EXPECT_TRUE(store->Has(1));
    ASSERT_TRUE(store->Put(2, "fresh", fresh, 1).ok());  // acknowledged
  }
  auto store = OpenStore();
  EXPECT_TRUE(store->Has(1));
  ASSERT_TRUE(store->Has(2));  // the write after recovery survived
  auto got = store->Get(2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().Fingerprint(), fresh.Fingerprint());
}

TEST_F(StoreTest, TruncatedSegmentKeepsEarlierRecords) {
  DataCollection first = MakeCollection("first");
  int64_t after_first = 0;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->Put(1, "first", first, 0).ok());
    auto bytes = ReadFileToString(FirstSegmentPath(dir_));
    ASSERT_TRUE(bytes.ok());
    after_first = static_cast<int64_t>(bytes.value().size());
    ASSERT_TRUE(store->Put(2, "second", MakeCollection("second"), 0).ok());
  }
  // Crash mid-write of the second record: truncate inside it.
  std::string seg = FirstSegmentPath(dir_);
  auto bytes = ReadFileToString(seg);
  ASSERT_TRUE(bytes.ok());
  ASSERT_GT(static_cast<int64_t>(bytes.value().size()), after_first + 6);
  ASSERT_TRUE(WriteStringToFile(
                  seg, bytes.value().substr(
                           0, static_cast<size_t>(after_first) + 6))
                  .ok());

  auto store = OpenStore();
  EXPECT_TRUE(store->Has(1));
  EXPECT_FALSE(store->Has(2));
  auto got = store->Get(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().Fingerprint(), first.Fingerprint());
}

TEST_F(StoreTest, EveryTruncationPointKeepsExactlyTheRecordsBeforeIt) {
  // Record one segment through the backend: puts, an overwrite and a
  // tombstone, noting where each record ends.
  const std::vector<DataCollection> data = {
      MakeCollection("one"), MakeCollection("two", 2),
      MakeCollection("one, rewritten"), MakeCollection("three", 3)};
  struct Op {
    uint64_t signature;
    int value;  // index into `data`; -1 = delete
  };
  const std::vector<Op> history = {{1, 0}, {2, 1}, {1, 2}, {2, -1}, {3, 3}};
  std::vector<size_t> boundaries = {8};  // the segment header
  {
    auto backend = DiskBackend::Open(dir_, DiskBackendOptions());
    ASSERT_TRUE(backend.ok());
    ASSERT_TRUE(backend.value()->Recover().ok());
    for (const Op& op : history) {
      if (op.value < 0) {
        ASSERT_TRUE(backend.value()->Delete(op.signature).ok());
      } else {
        const DataCollection& value = data[static_cast<size_t>(op.value)];
        std::string payload = value.SerializeToString();
        StoreEntry meta;
        meta.signature = op.signature;
        meta.node_name = "n";
        meta.size_bytes = static_cast<int64_t>(payload.size());
        meta.fingerprint = value.Fingerprint();
        ASSERT_TRUE(WriteBytes(backend.value().get(), meta, payload).ok());
      }
      auto bytes = ReadFileToString(FirstSegmentPath(dir_));
      ASSERT_TRUE(bytes.ok());
      boundaries.push_back(bytes.value().size());
    }
  }
  auto recorded = ReadFileToString(FirstSegmentPath(dir_));
  ASSERT_TRUE(recorded.ok());
  const std::string original = recorded.value();
  ASSERT_EQ(boundaries.back(), original.size());

  // Every torn cut logs a warning; keep the sweep quiet.
  struct QuietLog {
    LogLevel saved = GetLogLevel();
    QuietLog() { SetLogLevel(LogLevel::kOff); }
    ~QuietLog() { SetLogLevel(saved); }
  } quiet;
  const DataCollection after = MakeCollection("written after reopen");
  for (size_t cut = 0; cut <= original.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    ASSERT_TRUE(RemoveDirRecursively(dir_).ok());
    ASSERT_TRUE(MakeDirs(dir_).ok());
    ASSERT_TRUE(
        WriteStringToFile(FirstSegmentPath(dir_), original.substr(0, cut))
            .ok());
    // The state the records wholly before the cut leave: last write wins,
    // a tombstone hides its entry.
    std::map<uint64_t, const DataCollection*> expected;
    for (size_t i = 0; i < history.size() && boundaries[i + 1] <= cut; ++i) {
      if (history[i].value < 0) {
        expected.erase(history[i].signature);
      } else {
        expected[history[i].signature] =
            &data[static_cast<size_t>(history[i].value)];
      }
    }
    auto check = [&](IntermediateStore* store) {
      for (uint64_t sig : {1, 2, 3}) {
        auto want = expected.find(sig);
        ASSERT_EQ(store->Has(sig), want != expected.end()) << "sig " << sig;
        if (want != expected.end()) {
          auto got = store->Get(sig);
          ASSERT_TRUE(got.ok()) << "sig " << sig << ": "
                                << got.status().ToString();
          EXPECT_EQ(got.value().Fingerprint(), want->second->Fingerprint())
              << "sig " << sig;
        }
      }
    };
    {
      auto store = OpenStore();
      check(store.get());
      ASSERT_TRUE(store->Put(4, "after", after, 1).ok());
    }
    // A cut inside a record or the header seals the segment, so the write
    // lands in a fresh one; a cut on a boundary leaves it appendable.
    bool on_boundary =
        cut == 0 ||
        std::find(boundaries.begin(), boundaries.end(), cut) !=
            boundaries.end();
    auto files = ListFiles(dir_);
    ASSERT_TRUE(files.ok());
    EXPECT_EQ(files.value().size(), on_boundary ? 1u : 2u);
    auto store = OpenStore();
    check(store.get());
    auto got = store->Get(4);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().Fingerprint(), after.Fingerprint());
  }
}

TEST_F(StoreTest, TombstoneSurvivesReload) {
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->Put(1, "gone", MakeCollection("1"), 0).ok());
    ASSERT_TRUE(store->Put(2, "kept", MakeCollection("2"), 0).ok());
    ASSERT_TRUE(store->Remove(1).ok());
  }
  auto store = OpenStore();
  EXPECT_FALSE(store->Has(1));
  EXPECT_TRUE(store->Has(2));
}

TEST_F(StoreTest, CorruptEntryEvictedOnGet) {
  auto store = OpenStore();
  ASSERT_TRUE(store->Put(0xC0, "node",
                         MakeCollection(std::string(256, 'd')), 0)
                  .ok());
  // Flip payload bytes inside the segment record; the record checksum
  // catches it on read.
  std::string seg = FirstSegmentPath(dir_);
  auto bytes = ReadFileToString(seg);
  ASSERT_TRUE(bytes.ok());
  std::string mutated = bytes.value();
  for (size_t i = mutated.size() / 2; i < mutated.size() / 2 + 16; ++i) {
    mutated[i] = static_cast<char>(~mutated[i]);
  }
  ASSERT_TRUE(WriteStringToFile(seg, mutated).ok());

  EXPECT_TRUE(store->Get(0xC0).status().IsCorruption());
  // Self-healed: entry evicted so the caller recomputes.
  EXPECT_FALSE(store->Has(0xC0));
}

TEST_F(StoreTest, EveryRecordByteFlipIsCorruptionAndEvicts) {
  DataCollection data = MakeCollection("sweep", 3);
  std::string original;
  {
    auto store = OpenStore();
    ASSERT_TRUE(store->Put(0xC1, "node", data, 0).ok());
    auto bytes = ReadFileToString(FirstSegmentPath(dir_));
    ASSERT_TRUE(bytes.ok());
    original = bytes.value();
  }
  // Bytes 0..7 are the segment file header, which no Get reads; every
  // byte after it belongs to the record: length prefix, payload, node
  // name, metadata footer, CRC trailer.
  const size_t kFileHeader = 8;
  ASSERT_GT(original.size(), kFileHeader + 4 + 4);
  for (size_t i = kFileHeader; i < original.size(); ++i) {
    ASSERT_TRUE(WriteStringToFile(FirstSegmentPath(dir_), original).ok());
    auto store = OpenStore();
    ASSERT_TRUE(store->Has(0xC1));
    std::string flipped = original;
    flipped[i] = static_cast<char>(flipped[i] ^ 0x20);
    ASSERT_TRUE(WriteStringToFile(FirstSegmentPath(dir_), flipped).ok());
    auto got = store->Get(0xC1);
    EXPECT_TRUE(got.status().IsCorruption())
        << "byte " << i << ": " << got.status().ToString();
    EXPECT_FALSE(store->Has(0xC1)) << "byte " << i << " not evicted";
  }
}

TEST_F(StoreTest, DiskGetRunsOneChecksumAndRecordsPhases) {
  obs::MetricsRegistry metrics;
  StoreOptions options;
  options.metrics = &metrics;
  auto store = OpenStore(options);
  DataCollection data = MakeCollection("verify once", 50);
  ASSERT_TRUE(store->Put(0xC2, "node", data, 0).ok());
  // The backend's record CRC is the only hash over the loaded bytes: the
  // envelope decodes without re-hashing its trailer.
  uint64_t before = InvocationCount(Kernel::kCrc32c, Crc32cIsa());
  auto got = store->Get(0xC2);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(InvocationCount(Kernel::kCrc32c, Crc32cIsa()), before + 1);
  EXPECT_EQ(got.value().Fingerprint(), data.Fingerprint());
  for (const char* name :
       {"store.get.read_micros", "store.get.decode_micros",
        "store.put.serialize_micros", "store.put.write_micros"}) {
    EXPECT_EQ(metrics.GetHistogram(name)->Count(), 1) << name;
  }
}

TEST_F(StoreTest, MemoryGetRunsNoChecksum) {
  StoreOptions options;
  options.backend = StorageBackendKind::kMemory;
  auto store = OpenStore(options);
  DataCollection data = MakeCollection("in process", 20);
  ASSERT_TRUE(store->Put(0xC3, "node", data, 0).ok());
  uint64_t before = InvocationCount(Kernel::kCrc32c, Crc32cIsa());
  auto got = store->Get(0xC3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(InvocationCount(Kernel::kCrc32c, Crc32cIsa()), before);
  EXPECT_EQ(got.value().Fingerprint(), data.Fingerprint());
}

TEST_F(StoreTest, MemoryBackendRoundTripAndForgetsOnReopen) {
  StoreOptions options;
  options.backend = StorageBackendKind::kMemory;
  DataCollection data = MakeCollection("volatile");
  {
    auto opened = IntermediateStore::Open("", options);  // dir-less
    ASSERT_TRUE(opened.ok());
    auto& store = opened.value();
    ASSERT_TRUE(store->Put(1, "n", data, 0).ok());
    auto got = store->Get(1);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().Fingerprint(), data.Fingerprint());
    EXPECT_STREQ(store->backend_name(), "memory");
  }
  auto reopened = IntermediateStore::Open("", options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->NumEntries(), 0u);
}

TEST_F(StoreTest, ShardCountOneMatchesShardedStore) {
  // The same operation sequence against a 1-shard (legacy single-mutex)
  // and an 8-shard store must be observationally identical.
  auto run = [](IntermediateStore* store) {
    EXPECT_TRUE(
        store->Put(11, "a", MakeCollection("a"), 0, nullptr, 500).ok());
    EXPECT_TRUE(
        store->Put(22, "b", MakeCollection("b", 5), 0, nullptr, 900).ok());
    EXPECT_TRUE(
        store->Put(33, "c", MakeCollection("c", 9), 1, nullptr, 100).ok());
    EXPECT_TRUE(store->Remove(22).ok());
    EXPECT_TRUE(store->Get(11).ok());
    EXPECT_TRUE(store->Get(33).ok());
  };
  StoreOptions mem1;
  mem1.backend = StorageBackendKind::kMemory;
  mem1.shard_count = 1;
  StoreOptions mem8 = mem1;
  mem8.shard_count = 8;
  auto s1 = IntermediateStore::Open("", mem1);
  auto s8 = IntermediateStore::Open("", mem8);
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s8.ok());
  EXPECT_EQ(s1.value()->shard_count(), 1);
  EXPECT_EQ(s8.value()->shard_count(), 8);
  run(s1.value().get());
  run(s8.value().get());

  EXPECT_EQ(s1.value()->TotalBytes(), s8.value()->TotalBytes());
  EXPECT_EQ(s1.value()->NumEntries(), s8.value()->NumEntries());
  std::vector<StoreEntry> e1 = s1.value()->Entries();
  std::vector<StoreEntry> e8 = s8.value()->Entries();
  ASSERT_EQ(e1.size(), e8.size());
  for (size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].signature, e8[i].signature);
    EXPECT_EQ(e1[i].size_bytes, e8[i].size_bytes);
    EXPECT_EQ(e1[i].compute_micros, e8[i].compute_micros);
  }
}

TEST_F(StoreTest, ConcurrentGetsAcrossShards) {
  StoreOptions options;
  options.backend = StorageBackendKind::kMemory;
  options.shard_count = 8;
  auto opened = IntermediateStore::Open("", options);
  ASSERT_TRUE(opened.ok());
  auto& store = opened.value();
  constexpr int kEntries = 64;
  for (int i = 0; i < kEntries; ++i) {
    ASSERT_TRUE(store
                    ->Put(static_cast<uint64_t>(i + 1), "n",
                          MakeCollection(std::to_string(i)), 0)
                    .ok());
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&store, &failures]() {
      for (int i = 0; i < kEntries; ++i) {
        if (!store->Get(static_cast<uint64_t>(i + 1)).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(store->NumEntries(), static_cast<size_t>(kEntries));
}

TEST_F(StoreTest, ReopenOverSmallerBudgetTrimsLowestScoreFirst) {
  DataCollection data = MakeCollection(std::string(1000, 'a'));
  int64_t size = SerializedSize(data);
  {
    auto store = OpenStore(/*budget=*/4 * size);
    ASSERT_TRUE(store->Put(1, "low", data, 0, nullptr, 1000).ok());
    ASSERT_TRUE(store->Put(2, "high", data, 0, nullptr, 60000000).ok());
    ASSERT_TRUE(store->Put(3, "mid", data, 0, nullptr, 3000000).ok());
  }
  // Reopen with room for only two: the lowest-scoring entry is trimmed.
  auto store = OpenStore(/*budget=*/2 * size + size / 2);
  EXPECT_EQ(store->NumEntries(), 2u);
  EXPECT_FALSE(store->Has(1));
  EXPECT_TRUE(store->Has(2));
  EXPECT_TRUE(store->Has(3));
}

TEST_F(StoreTest, EstimateLoadMicrosMonotonicInSize) {
  auto store = OpenStore();
  EXPECT_LE(store->EstimateLoadMicros(1000),
            store->EstimateLoadMicros(1000000));
  EXPECT_GE(store->EstimateLoadMicros(0), 0);
}

TEST_F(StoreTest, EstimateLoadMicrosSurvivesZeroObservedMicros) {
  // Under a virtual clock every measured I/O takes zero micros; the
  // bandwidth estimator must fall back to its default instead of dividing
  // by the observed (zero) time.
  VirtualClock clock;
  StoreOptions options;
  options.budget_bytes = 64 << 20;
  options.clock = &clock;
  auto opened = IntermediateStore::Open(dir_, options);
  ASSERT_TRUE(opened.ok());
  auto& store = opened.value();
  // Large enough payloads to pass the estimator's observability threshold
  // (64 KiB) with zero observed micros — the hazardous combination.
  ASSERT_TRUE(store->Put(1, "big", MakeCollection("x", 100000), 0).ok());
  ASSERT_TRUE(store->Get(1).ok());
  int64_t estimate = store->EstimateLoadMicros(1 << 20);
  EXPECT_GT(estimate, 0);
  EXPECT_LT(estimate, 60LL * 1000 * 1000);  // sane, not overflow garbage
}

TEST_F(StoreTest, FingerprintRecordedInEntry) {
  auto store = OpenStore();
  DataCollection data = MakeCollection("fp");
  ASSERT_TRUE(store->Put(9, "n", data, 0).ok());
  const StoreEntry* entry = store->Find(9);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->fingerprint, data.Fingerprint());
}

TEST_F(StoreTest, EntriesDeterministicOrder) {
  auto store = OpenStore();
  ASSERT_TRUE(store->Put(5, "e", MakeCollection("5"), 0).ok());
  ASSERT_TRUE(store->Put(3, "c", MakeCollection("3"), 0).ok());
  ASSERT_TRUE(store->Put(4, "d", MakeCollection("4"), 0).ok());
  auto entries = store->Entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].signature, 3u);
  EXPECT_EQ(entries[1].signature, 4u);
  EXPECT_EQ(entries[2].signature, 5u);
}

TEST_F(StoreTest, NegativeBudgetRejected) {
  StoreOptions options;
  options.budget_bytes = -1;
  EXPECT_FALSE(IntermediateStore::Open(dir_, options).ok());
}

TEST_F(StoreTest, DiskBackendRequiresDirectory) {
  StoreOptions options;  // kDisk default
  EXPECT_FALSE(IntermediateStore::Open("", options).ok());
}

// --- Eviction policy (pure functions) --------------------------------------

StoreEntry MakeEntry(uint64_t sig, int64_t size, int64_t compute,
                     int64_t load = -1, int64_t iteration = 0) {
  StoreEntry e;
  e.signature = sig;
  e.size_bytes = size;
  e.compute_micros = compute;
  e.load_micros = load;
  e.iteration = iteration;
  return e;
}

TEST(EvictionTest, ScoreZeroWhenLoadBeatsCompute) {
  // Loading costs more than recomputing: worthless to keep.
  EXPECT_EQ(RetentionScore(MakeEntry(1, 1000, /*compute=*/50, /*load=*/100),
                           /*est_load_micros=*/0,
                           /*default_compute_micros=*/1000000),
            0.0);
}

TEST(EvictionTest, ScoreScalesWithSavedTimePerByte) {
  double small = RetentionScore(MakeEntry(1, 1000, 10000, 100), 0, 1000000);
  double large = RetentionScore(MakeEntry(2, 2000, 10000, 100), 0, 1000000);
  EXPECT_GT(small, large);  // same saving, half the footprint
  double dear = RetentionScore(MakeEntry(3, 1000, 90000, 100), 0, 1000000);
  EXPECT_GT(dear, small);
}

TEST(EvictionTest, UnknownCostsUseFallbacks) {
  // Never-measured load uses the estimate; never-measured compute uses
  // the default.
  double s = RetentionScore(MakeEntry(1, 1000, /*compute=*/-1, /*load=*/-1),
                            /*est_load_micros=*/1000,
                            /*default_compute_micros=*/2000);
  EXPECT_DOUBLE_EQ(s, (2000.0 - 1000.0) / 1000.0);
}

TEST(EvictionTest, PlanEvictsLowestScoreFirstDeterministically) {
  std::vector<EvictionCandidate> candidates;
  candidates.push_back({MakeEntry(10, 100, 5000, 0, /*iteration=*/7), 0});
  candidates.push_back({MakeEntry(20, 100, 1000, 0, /*iteration=*/3), 0});
  candidates.push_back({MakeEntry(30, 100, 1000, 0, /*iteration=*/1), 0});
  candidates.push_back({MakeEntry(40, 100, 90000, 0, /*iteration=*/2), 0});
  EvictionPlan plan = PlanEviction(candidates, /*bytes_needed=*/250,
                                   /*incoming_score=*/1e9, 1000000);
  ASSERT_TRUE(plan.feasible);
  // Ties on score (20 vs 30) break toward the older iteration.
  ASSERT_EQ(plan.victims.size(), 3u);
  EXPECT_EQ(plan.victims[0], 30u);
  EXPECT_EQ(plan.victims[1], 20u);
  EXPECT_EQ(plan.victims[2], 10u);
  EXPECT_EQ(plan.freed_bytes, 300);
}

TEST(EvictionTest, PlanInfeasibleWhenVictimsTooValuable) {
  std::vector<EvictionCandidate> candidates;
  candidates.push_back({MakeEntry(1, 100, 50000, 0), 0});
  candidates.push_back({MakeEntry(2, 100, 60000, 0), 0});
  // Incoming scores below both residents: nothing is eligible.
  EvictionPlan plan = PlanEviction(candidates, 100,
                                   /*incoming_score=*/1.0, 1000000);
  EXPECT_FALSE(plan.feasible);
  EXPECT_TRUE(plan.victims.empty());
  EXPECT_EQ(plan.freed_bytes, 0);
}

TEST(EvictionTest, PlanStopsOnceEnoughFreed) {
  std::vector<EvictionCandidate> candidates;
  candidates.push_back({MakeEntry(1, 100, 1000, 0), 0});
  candidates.push_back({MakeEntry(2, 100, 2000, 0), 0});
  candidates.push_back({MakeEntry(3, 100, 3000, 0), 0});
  EvictionPlan plan = PlanEviction(candidates, 150, 1e9, 1000000);
  ASSERT_TRUE(plan.feasible);
  EXPECT_EQ(plan.victims.size(), 2u);  // 200 bytes >= 150 needed
}

// --- DiskBackend internals -------------------------------------------------

class DiskBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-disk-backend-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  std::unique_ptr<DiskBackend> OpenBackend(DiskBackendOptions options = {}) {
    auto backend = DiskBackend::Open(dir_, options);
    EXPECT_TRUE(backend.ok()) << backend.status().ToString();
    EXPECT_TRUE(backend.value()->Recover().ok());
    return std::move(backend).value();
  }

  static StoreEntry Meta(uint64_t sig, const std::string& payload) {
    StoreEntry e;
    e.signature = sig;
    e.node_name = "n";
    e.size_bytes = static_cast<int64_t>(payload.size());
    return e;
  }

  std::string dir_;
};

TEST_F(DiskBackendTest, SegmentsRollAtSizeThreshold) {
  DiskBackendOptions options;
  options.segment_max_bytes = 4096;
  auto backend = OpenBackend(options);
  std::string payload(1500, 'p');
  for (uint64_t sig = 1; sig <= 8; ++sig) {
    ASSERT_TRUE(WriteBytes(backend.get(), Meta(sig, payload), payload).ok());
  }
  EXPECT_GT(backend->NumSegments(), 1u);
  for (uint64_t sig = 1; sig <= 8; ++sig) {
    auto read = backend->Read(sig);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), payload);
  }
}

TEST_F(DiskBackendTest, OverwriteRetiresOldRecordAndReadsNew) {
  auto backend = OpenBackend();
  ASSERT_TRUE(WriteBytes(backend.get(), Meta(1, "old"), "old").ok());
  ASSERT_TRUE(WriteBytes(backend.get(), Meta(1, "newer"), "newer").ok());
  auto read = backend->Read(1);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), "newer");
  EXPECT_EQ(backend->NumIndexed(), 1u);
  EXPECT_GT(backend->DeadBytes(), 0);
}

TEST_F(DiskBackendTest, CompactionReclaimsDeadSpaceAndKeepsLive) {
  DiskBackendOptions options;
  options.segment_max_bytes = 1 << 20;
  auto backend = OpenBackend(options);
  std::string payload(2000, 'p');
  for (uint64_t sig = 1; sig <= 20; ++sig) {
    ASSERT_TRUE(WriteBytes(backend.get(), Meta(sig, payload), payload).ok());
  }
  for (uint64_t sig = 1; sig <= 18; ++sig) {
    ASSERT_TRUE(backend->Delete(sig).ok());
  }
  ASSERT_TRUE(backend->Compact().ok());
  EXPECT_EQ(backend->DeadBytes(), 0);
  EXPECT_EQ(backend->NumIndexed(), 2u);
  for (uint64_t sig = 19; sig <= 20; ++sig) {
    auto read = backend->Read(sig);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read.value(), payload);
  }
  // Compacted state also survives a reopen.
  backend.reset();
  auto reopened = OpenBackend(options);
  EXPECT_EQ(reopened->NumIndexed(), 2u);
  EXPECT_TRUE(reopened->Read(19).ok());
}

TEST_F(DiskBackendTest, SegmentsStartWithTheV2Header) {
  auto backend = OpenBackend();
  ASSERT_TRUE(WriteBytes(backend.get(), Meta(1, "abc"), "abc").ok());
  auto bytes = ReadFileToString(FirstSegmentPath(dir_));
  ASSERT_TRUE(bytes.ok());
  // "HLXS", version 2, then the first record's u32 length prefix.
  ASSERT_GE(bytes.value().size(), 12u);
  EXPECT_EQ(bytes.value().substr(0, 8), std::string("HLXS\x02\0\0\0", 8));
  // Header accounting: the header is neither live nor dead.
  EXPECT_EQ(backend->DeadBytes(), 0);
}

TEST_F(DiskBackendTest, RecordOfFourGibibytesIsRefusedBeforeAppending) {
  // A payload whose record would not fit the u32 length prefix. The pages
  // are reserved, never touched: the length check must run first.
  const size_t kHuge = (size_t{4} << 30) + 1;
  void* mapping = ::mmap(nullptr, kHuge, PROT_READ,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mapping == MAP_FAILED) {
    GTEST_SKIP() << "cannot reserve 4 GiB of address space";
  }
  auto backend = OpenBackend();
  ASSERT_TRUE(WriteBytes(backend.get(), Meta(1, "small"), "small").ok());
  std::string_view huge(static_cast<const char*>(mapping), kHuge);
  StoreEntry meta = Meta(2, "");
  meta.size_bytes = static_cast<int64_t>(kHuge);
  Status refused = WriteBytes(backend.get(), meta, huge);
  ::munmap(mapping, kHuge);
  EXPECT_TRUE(refused.IsInvalidArgument()) << refused.ToString();
  EXPECT_EQ(backend->NumIndexed(), 1u);
  // Nothing was appended: a later write and a reopen see every record.
  ASSERT_TRUE(WriteBytes(backend.get(), Meta(3, "after"), "after").ok());
  backend.reset();
  auto reopened = OpenBackend();
  EXPECT_EQ(reopened->NumIndexed(), 2u);
  auto read = reopened->Read(3);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value(), "after");
}

// --- CostStatsRegistry ------------------------------------------------------

TEST(CostStatsTest, RecordAndGet) {
  CostStatsRegistry registry;
  registry.RecordCompute(1, "op", 500, 0);
  registry.RecordSize(1, "op", 1024, 0);
  auto stats = registry.Get(1);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->compute_micros, 500);
  EXPECT_EQ(stats->size_bytes, 1024);
  EXPECT_EQ(stats->load_micros, -1);
  EXPECT_EQ(stats->node_name, "op");
}

TEST(CostStatsTest, MergeKeepsUnsetFields) {
  CostStatsRegistry registry;
  registry.RecordCompute(1, "op", 500, 0);
  registry.RecordLoad(1, "op", 90, 1);
  auto stats = registry.Get(1);
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->compute_micros, 500);
  EXPECT_EQ(stats->load_micros, 90);
  EXPECT_EQ(stats->last_iteration, 1);
}

TEST(CostStatsTest, GetLatestByNamePrefersNewest) {
  CostStatsRegistry registry;
  registry.RecordCompute(1, "learner", 100, 0);
  registry.RecordCompute(2, "learner", 200, 5);  // newer signature
  auto latest = registry.GetLatestByName("learner");
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->compute_micros, 200);
  EXPECT_FALSE(registry.GetLatestByName("ghost").has_value());
}

TEST(CostStatsTest, SaveLoadRoundTrip) {
  auto dir = MakeTempDir("helix-stats-test");
  ASSERT_TRUE(dir.ok());
  std::string path = JoinPath(dir.value(), "STATS");

  CostStatsRegistry registry;
  registry.RecordCompute(11, "a", 100, 0);
  registry.RecordLoad(12, "b", 30, 1);
  ASSERT_TRUE(registry.Save(path).ok());

  auto loaded = CostStatsRegistry::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(loaded.value().Get(11)->compute_micros, 100);
  EXPECT_EQ(loaded.value().Get(12)->load_micros, 30);
  EXPECT_EQ(loaded.value().GetLatestByName("b")->load_micros, 30);
  (void)RemoveDirRecursively(dir.value());
}

TEST(CostStatsTest, LoadMissingIsNotFound) {
  EXPECT_TRUE(
      CostStatsRegistry::Load("/nonexistent/STATS").status().IsNotFound());
}

TEST(CostStatsTest, LoadCorruptIsCorruption) {
  auto dir = MakeTempDir("helix-stats-corrupt");
  ASSERT_TRUE(dir.ok());
  std::string path = JoinPath(dir.value(), "STATS");
  ASSERT_TRUE(WriteStringToFile(path, "not a stats file").ok());
  EXPECT_TRUE(CostStatsRegistry::Load(path).status().IsCorruption());
  (void)RemoveDirRecursively(dir.value());
}

}  // namespace
}  // namespace storage
}  // namespace helix
