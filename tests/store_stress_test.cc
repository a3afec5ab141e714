// Stress test for the shared IntermediateStore under multi-session-style
// concurrency: 8 threads hammer one disk-backed store with a tight budget
// through a fixed count of mixed Put/Get/Remove operations (evictions
// happen implicitly on over-budget Puts). Invariants checked throughout:
//
//   * budget      — TotalBytes() never exceeds BudgetBytes(), sampled
//                   after every operation on every thread;
//   * no torn reads — a successful Get always deserializes to exactly the
//                   payload that was put for that signature (fingerprint
//                   match); concurrent mutation may surface NotFound,
//                   never Corruption (nothing here damages bytes) and
//                   never wrong bytes;
//   * durability  — after the run, a close-and-reopen replay serves every
//                   entry that survived (every acknowledged write not
//                   since deleted or evicted) with intact payloads.
//
// This file runs under the ASan/UBSan CI job like the rest of the suite
// and is part of the TSan job's target set.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/rng.h"
#include "dataflow/data_collection.h"
#include "dataflow/metrics.h"
#include "storage/store.h"

namespace helix {
namespace storage {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 500;
constexpr uint64_t kSignatureSpace = 48;

// The canonical payload for a signature: deterministic, so any successful
// read anywhere can be checked bit-for-bit via its fingerprint.
dataflow::DataCollection PayloadFor(uint64_t signature) {
  auto metrics = std::make_shared<dataflow::MetricsData>();
  // 1..8 entries: payload sizes vary, so eviction decisions differ.
  int entries = static_cast<int>(signature % 8) + 1;
  for (int i = 0; i < entries; ++i) {
    metrics->Set("m" + std::to_string(signature) + "_" + std::to_string(i),
                 static_cast<double>(signature * 31 + static_cast<uint64_t>(i)));
  }
  return dataflow::DataCollection::FromMetrics(metrics);
}

class StoreStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-store-stress");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  std::string dir_;
};

TEST_F(StoreStressTest, MixedOpsKeepBudgetAndPayloadInvariants) {
  // Precompute expected fingerprints (and a typical size for the budget).
  std::vector<uint64_t> expected_fingerprint(kSignatureSpace + 1, 0);
  int64_t max_size = 0;
  for (uint64_t sig = 1; sig <= kSignatureSpace; ++sig) {
    dataflow::DataCollection payload = PayloadFor(sig);
    expected_fingerprint[sig] = payload.Fingerprint();
    max_size = std::max<int64_t>(
        max_size, static_cast<int64_t>(payload.SerializeToString().size()));
  }

  StoreOptions options;
  // Tight: roughly a third of the signature space fits, so over-budget
  // Puts continuously trigger eviction.
  options.budget_bytes = max_size * static_cast<int64_t>(kSignatureSpace) / 3;
  options.backend = StorageBackendKind::kDisk;
  auto opened = IntermediateStore::Open(dir_, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<IntermediateStore> store = std::move(opened).value();

  std::atomic<int64_t> torn_reads{0};
  std::atomic<int64_t> budget_violations{0};
  std::atomic<int64_t> unexpected_statuses{0};
  std::atomic<int64_t> successful_gets{0};
  std::atomic<int64_t> successful_puts{0};

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t]() {
      Rng rng(0x57E55ULL ^ static_cast<uint64_t>(t) * 1000003);
      for (int op = 0; op < kOpsPerThread; ++op) {
        uint64_t sig = 1 + rng.NextBelow(kSignatureSpace);
        double roll = rng.NextDouble();
        if (roll < 0.50) {
          auto got = store->Get(sig);
          if (got.ok()) {
            successful_gets.fetch_add(1);
            if (got.value().Fingerprint() != expected_fingerprint[sig]) {
              torn_reads.fetch_add(1);
            }
          } else if (!got.status().IsNotFound()) {
            // A racing eviction or Remove is a miss; reporting it as
            // Corruption would fail a remote FetchOutput for no damage.
            unexpected_statuses.fetch_add(1);
          }
        } else if (roll < 0.85) {
          Status put = store->Put(sig, "stress-" + std::to_string(sig),
                                  PayloadFor(sig), /*iteration=*/op);
          if (put.ok()) {
            successful_puts.fetch_add(1);
          } else if (!put.IsAlreadyExists() && !put.IsResourceExhausted()) {
            unexpected_statuses.fetch_add(1);
          }
        } else {
          if (!store->Remove(sig).ok()) {
            unexpected_statuses.fetch_add(1);
          }
        }
        if (store->TotalBytes() > store->BudgetBytes()) {
          budget_violations.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) {
    w.join();
  }

  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(budget_violations.load(), 0);
  EXPECT_EQ(unexpected_statuses.load(), 0);
  // The workload actually exercised both paths.
  EXPECT_GT(successful_gets.load(), 0);
  EXPECT_GT(successful_puts.load(), 0);
  EXPECT_GT(store->NumEvictions(), 0);

  // Quiescent consistency: the byte ledger matches the index exactly.
  std::vector<StoreEntry> survivors = store->Entries();
  int64_t ledger = 0;
  for (const StoreEntry& entry : survivors) {
    ledger += entry.size_bytes;
  }
  EXPECT_EQ(ledger, store->TotalBytes());
  EXPECT_LE(store->TotalBytes(), store->BudgetBytes());

  // Reopen replay: every surviving acknowledged write is served intact.
  store.reset();
  auto reopened = IntermediateStore::Open(dir_, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->NumEntries(), survivors.size());
  for (const StoreEntry& entry : survivors) {
    auto got = (*reopened)->Get(entry.signature);
    ASSERT_TRUE(got.ok()) << "signature " << entry.signature << ": "
                          << got.status().ToString();
    EXPECT_EQ(got.value().Fingerprint(),
              expected_fingerprint[entry.signature])
        << "signature " << entry.signature;
  }
  EXPECT_LE((*reopened)->TotalBytes(), (*reopened)->BudgetBytes());
}

}  // namespace
}  // namespace storage
}  // namespace helix
