// Tests for the parallel DAG runtime (src/runtime): thread pool semantics
// (futures, exception and Status propagation, drain-on-shutdown), the
// dependency-driven parallel scheduler (ordering, error cut-off, inactive
// nodes), and the asynchronous materialization pipeline.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/file_util.h"
#include "common/status.h"
#include "dataflow/data_collection.h"
#include "graph/dag.h"
#include "obs/metrics.h"
#include "runtime/async_materializer.h"
#include "runtime/parallel_scheduler.h"
#include "runtime/thread_pool.h"
#include "storage/store.h"
#include "table_util.h"

namespace helix {
namespace runtime {
namespace {

using dataflow::DataCollection;
using dataflow::Schema;
using dataflow::TableData;
using dataflow::Value;

// --- ThreadPool -------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasksAndReturnsValues) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, WorkersRunConcurrently) {
  // Two tasks that can only both finish if they overlap in time: each
  // waits for the other to have started. A serial pool would deadlock;
  // the generous timeout turns that deadlock into a test failure.
  ThreadPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  auto task = [&]() {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [&]() { return started >= 2; });
  };
  auto a = pool.Submit(task);
  auto b = pool.Submit(task);
  EXPECT_TRUE(a.get());
  EXPECT_TRUE(b.get());
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);  // single worker: tasks queue up behind each other
    for (int i = 0; i < 16; ++i) {
      pool.Schedule([&done]() {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        done.fetch_add(1);
      });
    }
    // Destruction begins with most tasks still queued.
  }
  EXPECT_EQ(done.load(), 16);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool pool(1);
  auto future = pool.Submit(
      []() -> int { throw std::runtime_error("operator exploded"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPoolTest, StatusPropagatesThroughFuture) {
  ThreadPool pool(2);
  auto ok = pool.Submit([]() { return Status::OK(); });
  auto err = pool.Submit(
      []() { return Status::ResourceExhausted("budget gone"); });
  EXPECT_TRUE(ok.get().ok());
  Status status = err.get();
  EXPECT_TRUE(status.IsResourceExhausted());
  EXPECT_EQ(status.message(), "budget gone");
}

TEST(ThreadPoolTest, WaitIdleObservesCompletion) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.Schedule([&done]() {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      done.fetch_add(1);
    });
  }
  pool.WaitIdle();
  EXPECT_EQ(done.load(), 8);
  EXPECT_EQ(pool.QueueDepth(), 0u);
}

// --- ParallelDagScheduler ---------------------------------------------------

// Builds the diamond a -> {b, c} -> d.
graph::Dag Diamond() {
  graph::Dag dag;
  dag.AddNodes(4);
  EXPECT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_TRUE(dag.AddEdge(0, 2).ok());
  EXPECT_TRUE(dag.AddEdge(1, 3).ok());
  EXPECT_TRUE(dag.AddEdge(2, 3).ok());
  return dag;
}

TEST(ParallelDagSchedulerTest, RespectsDependencyOrderOnDiamond) {
  graph::Dag dag = Diamond();
  std::mutex mu;
  std::vector<int> order;
  ThreadPool pool(4);
  ParallelDagScheduler scheduler(&dag, std::vector<bool>(4, true));
  Status status = scheduler.Run(&pool, [&](int node) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(node);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 0);
  EXPECT_EQ(order.back(), 3);
  EXPECT_EQ(std::set<int>(order.begin(), order.end()),
            (std::set<int>{0, 1, 2, 3}));
}

TEST(ParallelDagSchedulerTest, EachNodeRunsExactlyOnce) {
  // A wider DAG: 2 roots, 8 mids, 1 sink.
  graph::Dag dag;
  dag.AddNodes(11);
  for (int mid = 2; mid < 10; ++mid) {
    EXPECT_TRUE(dag.AddEdge(mid % 2, mid).ok());
    EXPECT_TRUE(dag.AddEdge(mid, 10).ok());
  }
  std::vector<std::atomic<int>> runs(11);
  ThreadPool pool(4);
  ParallelDagScheduler scheduler(&dag, std::vector<bool>(11, true));
  Status status = scheduler.Run(&pool, [&](int node) {
    runs[static_cast<size_t>(node)].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  for (int i = 0; i < 11; ++i) {
    EXPECT_EQ(runs[static_cast<size_t>(i)].load(), 1) << "node " << i;
  }
}

TEST(ParallelDagSchedulerTest, ErrorStopsDescendants) {
  // Chain 0 -> 1 -> 2; node 1 fails, node 2 must never start.
  graph::Dag dag;
  dag.AddNodes(3);
  EXPECT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_TRUE(dag.AddEdge(1, 2).ok());
  std::atomic<bool> tail_ran{false};
  ThreadPool pool(2);
  ParallelDagScheduler scheduler(&dag, std::vector<bool>(3, true));
  Status status = scheduler.Run(&pool, [&](int node) -> Status {
    if (node == 1) {
      return Status::Internal("node 1 died");
    }
    if (node == 2) {
      tail_ran.store(true);
    }
    return Status::OK();
  });
  EXPECT_TRUE(status.IsInternal());
  EXPECT_EQ(status.message(), "node 1 died");
  EXPECT_FALSE(tail_ran.load());
}

TEST(ParallelDagSchedulerTest, InactiveNodesAreSkippedAndUnblockChildren) {
  // Diamond with node 1 inactive: 3 still runs once 2 is done.
  graph::Dag dag = Diamond();
  std::vector<bool> active = {true, false, true, true};
  std::mutex mu;
  std::vector<int> order;
  ThreadPool pool(2);
  ParallelDagScheduler scheduler(&dag, active);
  Status status = scheduler.Run(&pool, [&](int node) {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(node);
    return Status::OK();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(std::set<int>(order.begin(), order.end()),
            (std::set<int>{0, 2, 3}));
}

TEST(ParallelDagSchedulerTest, EmptyActiveSetReturnsOk) {
  graph::Dag dag = Diamond();
  ThreadPool pool(2);
  ParallelDagScheduler scheduler(&dag, std::vector<bool>(4, false));
  Status status = scheduler.Run(&pool, [](int) {
    return Status::Internal("must not run");
  });
  EXPECT_TRUE(status.ok());
}

TEST(ParallelDagSchedulerTest, WideFanoutOverlapsWork) {
  // 8 independent nodes each sleeping 20ms on a 8-wide pool: total must be
  // well under the 160ms a serial execution would take. Generous margin to
  // survive noisy CI machines.
  graph::Dag dag;
  dag.AddNodes(8);
  ThreadPool pool(8);
  ParallelDagScheduler scheduler(&dag, std::vector<bool>(8, true));
  auto start = std::chrono::steady_clock::now();
  Status status = scheduler.Run(&pool, [](int) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return Status::OK();
  });
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  ASSERT_TRUE(status.ok());
  EXPECT_LT(elapsed.count(), 120);
}

// --- AsyncMaterializer ------------------------------------------------------

DataCollection MakeCollection(const std::string& content, int rows = 1) {
  return DataCollection::FromTable(dataflow::MakeTable(
      Schema::AllStrings({"v"}),
      std::vector<dataflow::Row>(static_cast<size_t>(rows),
                                 {Value(content)})));
}

class AsyncMaterializerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-async-mat-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  std::unique_ptr<storage::IntermediateStore> OpenStore(
      int64_t budget = 1 << 20) {
    storage::StoreOptions options;
    options.budget_bytes = budget;
    auto store = storage::IntermediateStore::Open(dir_, options);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    return std::move(store).value();
  }

  std::string dir_;
};

TEST_F(AsyncMaterializerTest, WritesLandInStoreAndDrainReportsThem) {
  auto store = OpenStore();
  AsyncMaterializer materializer(store.get());
  for (int i = 0; i < 4; ++i) {
    AsyncMaterializer::Request request;
    request.node = i;
    request.signature = 100 + static_cast<uint64_t>(i);
    request.node_name = "node" + std::to_string(i);
    request.data = MakeCollection("payload" + std::to_string(i));
    request.iteration = 7;
    materializer.Enqueue(std::move(request));
  }
  std::vector<AsyncMaterializer::Outcome> outcomes = materializer.Drain();
  ASSERT_EQ(outcomes.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const auto& outcome = outcomes[static_cast<size_t>(i)];
    EXPECT_EQ(outcome.node, i);  // single writer: enqueue order preserved
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_GE(outcome.write_micros, 0);
    EXPECT_TRUE(store->Has(outcome.signature));
    auto entry = store->GetEntry(outcome.signature);
    ASSERT_TRUE(entry.has_value());
    EXPECT_EQ(entry->iteration, 7);
  }
  EXPECT_EQ(materializer.Pending(), 0u);
}

TEST_F(AsyncMaterializerTest, OverBudgetWriteSurfacesResourceExhausted) {
  auto store = OpenStore(/*budget=*/16);  // nothing real fits
  AsyncMaterializer materializer(store.get());
  AsyncMaterializer::Request request;
  request.node = 0;
  request.signature = 42;
  request.node_name = "big";
  request.data = MakeCollection("way too large for sixteen bytes", 64);
  materializer.Enqueue(std::move(request));
  std::vector<AsyncMaterializer::Outcome> outcomes = materializer.Drain();
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_TRUE(outcomes[0].status.IsResourceExhausted());
  EXPECT_FALSE(store->Has(42));
  EXPECT_EQ(store->TotalBytes(), 0);
}

TEST_F(AsyncMaterializerTest, DestructorFinishesOutstandingWrites) {
  auto store = OpenStore();
  {
    AsyncMaterializer materializer(store.get());
    for (int i = 0; i < 8; ++i) {
      AsyncMaterializer::Request request;
      request.node = i;
      request.signature = 200 + static_cast<uint64_t>(i);
      request.node_name = "n" + std::to_string(i);
      request.data = MakeCollection("data", 4);
      materializer.Enqueue(std::move(request));
    }
    // Destroyed with writes likely still queued.
  }
  EXPECT_EQ(store->NumEntries(), 8u);
}

TEST_F(AsyncMaterializerTest, DuplicateSignatureReportsAlreadyExists) {
  auto store = OpenStore();
  AsyncMaterializer materializer(store.get());
  for (int i = 0; i < 2; ++i) {
    AsyncMaterializer::Request request;
    request.node = i;
    request.signature = 7;  // same key twice
    request.node_name = "dup";
    request.data = MakeCollection("same");
    materializer.Enqueue(std::move(request));
  }
  std::vector<AsyncMaterializer::Outcome> outcomes = materializer.Drain();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].status.ok());
  EXPECT_TRUE(outcomes[1].status.IsAlreadyExists());
  EXPECT_EQ(store->NumEntries(), 1u);
}

// Concurrent store hammering: the mutex-protected manifest/budget must
// stay consistent under parallel Put/Get/Remove from many threads.
TEST_F(AsyncMaterializerTest, StoreSurvivesConcurrentAccess) {
  auto store = OpenStore();
  ThreadPool pool(8);
  std::vector<std::future<Status>> puts;
  for (int i = 0; i < 32; ++i) {
    uint64_t sig = 1000 + static_cast<uint64_t>(i);
    puts.push_back(pool.Submit([&store, sig]() {
      return store->Put(sig, "n", MakeCollection("x", 8), 0);
    }));
  }
  for (auto& f : puts) {
    EXPECT_TRUE(f.get().ok());
  }
  std::vector<std::future<bool>> gets;
  for (int i = 0; i < 32; ++i) {
    uint64_t sig = 1000 + static_cast<uint64_t>(i);
    gets.push_back(pool.Submit([&store, sig]() {
      return store->Get(sig).ok() && store->Remove(sig).ok();
    }));
  }
  for (auto& f : gets) {
    EXPECT_TRUE(f.get());
  }
  EXPECT_EQ(store->NumEntries(), 0u);
  EXPECT_EQ(store->TotalBytes(), 0);
}

// --- Shared-writer (multi-session) semantics --------------------------------

// Regression for the shared-pool shutdown-ordering bug: with one writer
// serving several sessions, a session draining its own iteration must not
// consume (drop) another session's outcomes. The legacy Drain() cleared
// the whole outcome buffer — session 2's outcomes vanished into session
// 1's drain.
TEST_F(AsyncMaterializerTest, PerOwnerDrainPartitionsOutcomes) {
  auto store = OpenStore();
  AsyncMaterializer materializer(store.get());
  for (int i = 0; i < 6; ++i) {
    AsyncMaterializer::Request request;
    request.node = i;
    request.signature = 300 + static_cast<uint64_t>(i);
    request.node_name = "n" + std::to_string(i);
    request.data = MakeCollection("owner-tagged" + std::to_string(i));
    request.owner = static_cast<uint64_t>(1 + i % 2);  // interleaved 1,2,1,2…
    materializer.Enqueue(std::move(request));
  }
  std::vector<AsyncMaterializer::Outcome> one = materializer.Drain(1);
  ASSERT_EQ(one.size(), 3u);
  for (size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].owner, 1u);
    EXPECT_EQ(one[i].node, static_cast<int>(2 * i));  // enqueue order kept
    EXPECT_TRUE(one[i].status.ok()) << one[i].status.ToString();
  }
  // Session 2's outcomes survived session 1's drain.
  std::vector<AsyncMaterializer::Outcome> two = materializer.Drain(2);
  ASSERT_EQ(two.size(), 3u);
  for (const auto& outcome : two) {
    EXPECT_EQ(outcome.owner, 2u);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
  EXPECT_TRUE(materializer.Drain(1).empty());
  EXPECT_TRUE(materializer.Drain(2).empty());
  EXPECT_EQ(store->NumEntries(), 6u);
  EXPECT_EQ(materializer.Pending(), 0u);
}

// Draining one owner must not wait on another owner's continuing stream
// of requests: Drain(1) returns once owner 1's writes are attempted, even
// while owner 2 keeps the queue busy.
TEST_F(AsyncMaterializerTest, DrainOneOwnerWhileAnotherKeepsEnqueueing) {
  auto store = OpenStore();
  AsyncMaterializer materializer(store.get());
  std::atomic<bool> stop{false};
  std::atomic<int> enqueued_by_two{0};
  std::thread other([&]() {
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      AsyncMaterializer::Request request;
      request.node = i;
      request.signature = 10000 + static_cast<uint64_t>(i);
      request.node_name = "bg";
      request.data = MakeCollection("bg" + std::to_string(i));
      request.owner = 2;
      materializer.Enqueue(std::move(request));
      enqueued_by_two.fetch_add(1);
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 5; ++i) {
    AsyncMaterializer::Request request;
    request.node = i;
    request.signature = 500 + static_cast<uint64_t>(i);
    request.node_name = "fg";
    request.data = MakeCollection("fg" + std::to_string(i));
    request.owner = 1;
    materializer.Enqueue(std::move(request));
  }
  std::vector<AsyncMaterializer::Outcome> mine = materializer.Drain(1);
  stop.store(true);
  other.join();
  ASSERT_EQ(mine.size(), 5u);
  for (const auto& outcome : mine) {
    EXPECT_EQ(outcome.owner, 1u);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
  // Owner 2's acknowledged writes are all eventually applied and
  // drainable — nothing was dropped by owner 1's drain.
  std::vector<AsyncMaterializer::Outcome> theirs = materializer.Drain(2);
  EXPECT_EQ(theirs.size(),
            static_cast<size_t>(enqueued_by_two.load()));
  for (const auto& outcome : theirs) {
    EXPECT_EQ(outcome.owner, 2u);
  }
}

// Regression for the unbounded-queue RAM spike: a burst of large Puts used
// to pin every payload in the queue simultaneously. With a byte budget,
// Enqueue back-pressures the producer, so the queue's high-water mark (the
// `materializer.queue_bytes` gauge) stays under the bound.
TEST_F(AsyncMaterializerTest, ByteBudgetBoundsQueuedPayloadBytes) {
  auto store = OpenStore(/*budget=*/8 << 20);
  obs::MetricsRegistry metrics;
  DataCollection payload = MakeCollection(std::string(1000, 'p'), 16);
  int64_t unit = payload.SizeBytes();
  // Room for one queued-or-in-flight request, never two.
  const int64_t bound = unit + unit / 2;
  AsyncMaterializer materializer(store.get(), bound);
  materializer.EnableTelemetry(&metrics);
  for (int i = 0; i < 8; ++i) {
    AsyncMaterializer::Request request;
    request.node = i;
    request.signature = 700 + static_cast<uint64_t>(i);
    request.node_name = "n" + std::to_string(i);
    request.data = MakeCollection(std::string(1000, 'p'), 16);
    materializer.Enqueue(std::move(request));
  }
  std::vector<AsyncMaterializer::Outcome> outcomes = materializer.Drain();
  ASSERT_EQ(outcomes.size(), 8u);
  for (const auto& outcome : outcomes) {
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  }
  // The gauge's high-water mark proves the bound actually held while the
  // writes raced through — not just at the quiescent ends.
  obs::Gauge* queue_bytes = metrics.GetGauge("materializer.queue_bytes");
  EXPECT_GE(queue_bytes->Max(), unit);  // something was actually queued
  EXPECT_LE(queue_bytes->Max(), bound);
  EXPECT_EQ(materializer.QueuedBytes(), 0);
}

// A single request larger than the whole bound is admitted once the queue
// is empty — back-pressure slows bursts, it must never deadlock one big
// write.
TEST_F(AsyncMaterializerTest, OversizedRequestIsAdmittedAloneNotDeadlocked) {
  auto store = OpenStore(/*budget=*/8 << 20);
  AsyncMaterializer materializer(store.get(), /*max_queue_bytes=*/256);
  AsyncMaterializer::Request small;
  small.node = 0;
  small.signature = 800;
  small.node_name = "small";
  small.data = MakeCollection("s");
  materializer.Enqueue(std::move(small));
  AsyncMaterializer::Request big;
  big.node = 1;
  big.signature = 801;
  big.node_name = "big";
  big.data = MakeCollection(std::string(1000, 'q'), 64);  // >> 256 bytes
  EXPECT_GT(big.data.SizeBytes(), 256);
  materializer.Enqueue(std::move(big));  // must return, not hang
  std::vector<AsyncMaterializer::Outcome> outcomes = materializer.Drain();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].status.ok()) << outcomes[0].status.ToString();
  EXPECT_TRUE(outcomes[1].status.ok()) << outcomes[1].status.ToString();
  EXPECT_TRUE(store->Has(801));
  EXPECT_EQ(materializer.QueuedBytes(), 0);
}


// --- Helping drains ----------------------------------------------------------

// A payload whose serialization — which Put runs on whichever thread
// writes it — blocks until released, so a test can hold the writer inside
// one request while it inspects the queue. Everything else forwards to a
// plain table.
class GatedPayload final : public dataflow::DataPayload {
 public:
  GatedPayload(DataCollection inner, std::shared_future<void> release,
               std::promise<void>* started)
      : inner_(std::move(inner)),
        release_(std::move(release)),
        started_(started) {}

  dataflow::PayloadKind kind() const override { return inner_.kind(); }
  int64_t SizeBytes() const override { return inner_.SizeBytes(); }
  uint64_t Fingerprint() const override { return inner_.Fingerprint(); }
  void Serialize(ByteWriter* w) const override {
    started_->set_value();
    release_.wait();
    inner_.payload()->Serialize(w);
  }
  std::string DebugString() const override { return "gated"; }

 private:
  DataCollection inner_;
  std::shared_future<void> release_;
  std::promise<void>* started_;
};

AsyncMaterializer::Request MakeRequest(int node, uint64_t owner,
                                       DataCollection data) {
  AsyncMaterializer::Request request;
  request.node = node;
  request.signature = 900 + static_cast<uint64_t>(node);
  request.node_name = "n" + std::to_string(node);
  request.data = std::move(data);
  request.owner = owner;
  return request;
}

// The writer sits inside owner 2's first write. A drain of owner 1 writes
// owner 1's queued requests itself, returns their outcomes in enqueue
// order, frees their queue bytes for a back-pressured producer, and
// leaves owner 2's queued request to the writer.
TEST_F(AsyncMaterializerTest, HelpingDrainWritesOnlyItsOwnersRequests) {
  auto store = OpenStore(/*budget=*/8 << 20);
  obs::MetricsRegistry metrics;
  const int64_t unit = MakeCollection(std::string(1000, 'u'), 8).SizeBytes();
  std::promise<void> release;
  std::promise<void> started;
  DataCollection gated(std::make_shared<GatedPayload>(
      MakeCollection(std::string(1000, 'g'), 8),
      release.get_future().share(), &started));
  // Room for the in-flight gated request and three more, never four.
  const int64_t bound = gated.SizeBytes() + 3 * unit;
  AsyncMaterializer materializer(store.get(), bound);
  materializer.EnableTelemetry(&metrics);
  materializer.Enqueue(MakeRequest(0, /*owner=*/2, gated));
  started.get_future().wait();  // the writer is inside request 0

  materializer.Enqueue(
      MakeRequest(1, 1, MakeCollection(std::string(1000, 'a'), 8)));
  materializer.Enqueue(
      MakeRequest(2, 1, MakeCollection(std::string(1000, 'b'), 8)));
  materializer.Enqueue(
      MakeRequest(3, 2, MakeCollection(std::string(1000, 'c'), 8)));
  ASSERT_EQ(materializer.QueuedBytes(), bound);
  // Request 4 cannot be admitted while the writer is held and nothing
  // else writes.
  std::atomic<bool> admitted{false};
  std::thread producer([&]() {
    materializer.Enqueue(
        MakeRequest(4, 3, MakeCollection(std::string(1000, 'd'), 8)));
    admitted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(admitted.load());

  std::vector<AsyncMaterializer::Outcome> mine = materializer.Drain(1);
  ASSERT_EQ(mine.size(), 2u);
  EXPECT_EQ(mine[0].node, 1);
  EXPECT_EQ(mine[1].node, 2);
  for (const auto& outcome : mine) {
    EXPECT_EQ(outcome.owner, 1u);
    EXPECT_TRUE(outcome.status.ok()) << outcome.status.ToString();
    EXPECT_TRUE(store->Has(outcome.signature));
  }
  // Both were written on this thread: the writer is still held, and owner
  // 2's queued request is still waiting for it.
  EXPECT_EQ(metrics.GetCounter("materializer.writes_helped")->Value(), 2);
  EXPECT_EQ(materializer.Pending(2), 2u);
  EXPECT_FALSE(store->Has(903));
  // The helped writes' freed bytes admitted the back-pressured producer.
  producer.join();
  EXPECT_TRUE(admitted.load());

  release.set_value();
  std::vector<AsyncMaterializer::Outcome> theirs = materializer.Drain(2);
  ASSERT_EQ(theirs.size(), 2u);
  EXPECT_EQ(theirs[0].node, 0);
  EXPECT_EQ(theirs[1].node, 3);
  std::vector<AsyncMaterializer::Outcome> third = materializer.Drain(3);
  ASSERT_EQ(third.size(), 1u);
  EXPECT_TRUE(third[0].status.ok()) << third[0].status.ToString();
  EXPECT_EQ(store->NumEntries(), 5u);
  EXPECT_EQ(materializer.QueuedBytes(), 0);
}

}  // namespace
}  // namespace runtime
}  // namespace helix
