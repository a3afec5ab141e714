// Tests for the telemetry layer (src/obs): exactness of the striped
// counters and fixed-bucket histograms under concurrency (the TSan CI
// lane runs this binary), trace ring-buffer bounds, and the layer's
// headline property — under VirtualClock two identical session runs
// produce byte-identical trace and metrics JSON, and the per-node span
// outcomes agree exactly with the execution report's counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/file_util.h"
#include "core/session.h"
#include "core/std_ops.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace helix {
namespace obs {
namespace {

// --- Counter / Gauge --------------------------------------------------------

TEST(CounterTest, ConcurrentAddsAreExact) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter]() {
      for (int i = 0; i < kAddsPerThread; ++i) {
        counter.Add(1);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(counter.Value(), int64_t{kThreads} * kAddsPerThread);
}

TEST(CounterTest, AddWithDeltaAccumulates) {
  Counter counter;
  counter.Add(5);
  counter.Add(7);
  counter.Add();  // default increment
  EXPECT_EQ(counter.Value(), 13);
}

TEST(GaugeTest, TracksValueAndHighWaterMark) {
  Gauge gauge;
  EXPECT_EQ(gauge.Value(), 0);
  gauge.Set(10);
  gauge.Set(40);
  gauge.Set(3);
  EXPECT_EQ(gauge.Value(), 3);
  EXPECT_EQ(gauge.Max(), 40);
}

// --- Histogram --------------------------------------------------------------

TEST(HistogramTest, BucketBoundsAreInclusiveUpperLimits) {
  Histogram h({10, 20, 50});
  h.Observe(10);  // exactly at a bound lands in that bucket
  h.Observe(11);  // first value past a bound lands in the next
  h.Observe(50);
  h.Observe(51);  // overflow
  auto buckets = h.Buckets();
  ASSERT_EQ(buckets.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(buckets[0].first, 10);
  EXPECT_EQ(buckets[0].second, 1);
  EXPECT_EQ(buckets[1].first, 20);
  EXPECT_EQ(buckets[1].second, 1);
  EXPECT_EQ(buckets[2].first, 50);
  EXPECT_EQ(buckets[2].second, 1);
  EXPECT_EQ(buckets[3].first, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(buckets[3].second, 1);
  EXPECT_EQ(h.Count(), 4);
  EXPECT_EQ(h.Sum(), 10 + 11 + 50 + 51);
}

TEST(HistogramTest, NegativeObservationsClampToZero) {
  Histogram h({10, 20});
  h.Observe(-5);
  auto buckets = h.Buckets();
  EXPECT_EQ(buckets[0].second, 1);  // clamped into the first bucket
  EXPECT_EQ(h.Sum(), 0);            // the clamped value, not the raw one
}

TEST(HistogramTest, PercentileIsExactRankWalk) {
  Histogram h({10, 20, 50, 100});
  // 50 observations <= 10, 30 in (10, 20], 19 in (20, 50], 1 in (50, 100].
  for (int i = 0; i < 50; ++i) h.Observe(5);
  for (int i = 0; i < 30; ++i) h.Observe(15);
  for (int i = 0; i < 19; ++i) h.Observe(30);
  h.Observe(80);
  EXPECT_EQ(h.Percentile(0.5), 10);   // rank 50 is the last in bucket 10
  EXPECT_EQ(h.Percentile(0.51), 20);  // rank 51 spills into the next
  EXPECT_EQ(h.Percentile(0.99), 50);
  EXPECT_EQ(h.Percentile(1.0), 100);
}

TEST(HistogramTest, EmptyAndOverflowEdges) {
  Histogram h({10, 20});
  EXPECT_EQ(h.Percentile(0.5), 0);  // empty
  h.Observe(1000);                  // overflow only
  // Overflow reports the largest finite bound: a saturation marker.
  EXPECT_EQ(h.Percentile(0.5), 20);
  EXPECT_EQ(h.Percentile(0.0), 20);  // p=0 still needs rank >= 1
}

TEST(HistogramTest, ConcurrentObservationsAreExact) {
  Histogram h({100, 1000});
  constexpr int kThreads = 8;
  constexpr int kObsPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t]() {
      for (int i = 0; i < kObsPerThread; ++i) {
        h.Observe(t * 100);  // threads 0 spread over both finite buckets
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(h.Count(), int64_t{kThreads} * kObsPerThread);
  int64_t bucket_total = 0;
  for (const auto& [bound, count] : h.Buckets()) {
    bucket_total += count;
  }
  EXPECT_EQ(bucket_total, h.Count());
}

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistryTest, GetReturnsStablePointers) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("layer.requests");
  Counter* b = registry.GetCounter("layer.requests");
  EXPECT_EQ(a, b);
  a->Add(3);
  EXPECT_EQ(b->Value(), 3);
}

TEST(MetricsRegistryTest, KindCollisionReturnsNull) {
  MetricsRegistry registry;
  ASSERT_NE(registry.GetCounter("x"), nullptr);
  EXPECT_EQ(registry.GetGauge("x"), nullptr);
  EXPECT_EQ(registry.GetHistogram("x"), nullptr);
  ASSERT_NE(registry.GetGauge("y"), nullptr);
  EXPECT_EQ(registry.GetCounter("y"), nullptr);
}

TEST(MetricsRegistryTest, ConcurrentRegistrationAndUpdate) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry]() {
      // Every thread looks up (racing first-registration) then updates.
      Counter* c = registry.GetCounter("shared.counter");
      Histogram* h = registry.GetHistogram("shared.latency");
      for (int i = 0; i < kAddsPerThread; ++i) {
        c->Add(1);
        h->Observe(i % 512);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(registry.GetCounter("shared.counter")->Value(),
            int64_t{kThreads} * kAddsPerThread);
  EXPECT_EQ(registry.GetHistogram("shared.latency")->Count(),
            int64_t{kThreads} * kAddsPerThread);
}

TEST(MetricsRegistryTest, SnapshotJsonIsDeterministicAndSorted) {
  auto populate = [](MetricsRegistry* r) {
    r->GetCounter("z.last")->Add(2);
    r->GetCounter("a.first")->Add(1);
    r->GetGauge("m.depth")->Set(7);
    r->GetHistogram("q.wait", {10, 100})->Observe(42);
  };
  MetricsRegistry one;
  MetricsRegistry two;
  populate(&one);
  populate(&two);
  std::string json = one.SnapshotJson();
  EXPECT_EQ(json, two.SnapshotJson());
  // Sorted by name within each section.
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_NE(json.find("\"record\":\"helix_metrics\""), std::string::npos);
  EXPECT_NE(json.find("m.depth"), std::string::npos);
  EXPECT_NE(json.find("q.wait"), std::string::npos);
}

// --- TraceCollector ---------------------------------------------------------

TraceSpan MakeSpan(const std::string& name, int64_t start) {
  TraceSpan span;
  span.name = name;
  span.start_micros = start;
  span.duration_micros = 10;
  return span;
}

TEST(TraceCollectorTest, RingOverwritesOldestAndCountsDrops) {
  TraceCollector trace(4);
  for (int i = 0; i < 6; ++i) {
    trace.Record(MakeSpan("s" + std::to_string(i), i * 100));
  }
  EXPECT_EQ(trace.Size(), 4u);
  EXPECT_EQ(trace.DroppedCount(), 2);
  std::vector<TraceSpan> spans = trace.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest first, and the two oldest spans are gone.
  EXPECT_EQ(spans[0].name, "s2");
  EXPECT_EQ(spans[3].name, "s5");
  trace.Clear();
  EXPECT_EQ(trace.Size(), 0u);
  EXPECT_EQ(trace.DroppedCount(), 0);
}

TEST(TraceCollectorTest, ChromeJsonShape) {
  TraceCollector trace(16);
  TraceSpan span = MakeSpan("prep", 1000);
  span.category = "node";
  span.pid = 3;
  span.tid = 1;
  span.str_args.emplace_back("outcome", "computed");
  span.int_args.emplace_back("bytes", 2048);
  trace.Record(span);
  std::string json = trace.ToChromeJson();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedSpans\":0"), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"prep\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\":\"computed\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":2048"), std::string::npos);
}

TEST(TraceCollectorTest, ConcurrentRecordingKeepsBufferConsistent) {
  TraceCollector trace(256);
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&trace, t]() {
      for (int i = 0; i < kSpansPerThread; ++i) {
        trace.Record(MakeSpan("t" + std::to_string(t), i));
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  EXPECT_EQ(trace.Size(), 256u);
  EXPECT_EQ(trace.DroppedCount(),
            int64_t{kThreads} * kSpansPerThread - 256);
}

// --- End-to-end determinism -------------------------------------------------

core::Workflow MakeSyntheticWorkflow(int64_t prep_tag, int64_t ml_tag) {
  namespace ops = core::ops;
  using core::Phase;
  core::Workflow wf("obs-synth");
  core::NodeRef source =
      wf.Add(ops::Synthetic("source", Phase::kDataPreprocessing, 1,
                            core::SyntheticCosts{1000, 500, 0}));
  core::NodeRef prep =
      wf.Add(ops::Synthetic("prep", Phase::kDataPreprocessing, prep_tag,
                            core::SyntheticCosts{80000, 1500, 0}),
             {source});
  core::NodeRef model =
      wf.Add(ops::Synthetic("model", Phase::kMachineLearning, ml_tag,
                            core::SyntheticCosts{40000, 1500, 0}),
             {prep});
  core::NodeRef eval =
      wf.Add(ops::Synthetic("eval", Phase::kPostprocessing, 10,
                            core::SyntheticCosts{500, 400, 0}),
             {model});
  wf.MarkOutput(eval);
  return wf;
}

// Runs a fixed two-iteration session (initial + ML edit) on a virtual
// clock with its own registry/collector; returns the rendered telemetry.
struct TelemetryRun {
  std::string metrics_json;
  std::string trace_json;
  core::ExecutionReport last_report;
  std::vector<TraceSpan> spans;
};

TelemetryRun RunInstrumentedSession(const std::string& dir) {
  VirtualClock clock;
  MetricsRegistry metrics;
  TraceCollector trace;
  core::SessionOptions options;
  options.workspace_dir = dir;
  options.clock = &clock;
  options.metrics = &metrics;
  options.trace = &trace;
  options.session_id = 7;
  auto session = core::Session::Open(options);
  EXPECT_TRUE(session.ok()) << session.status().ToString();
  TelemetryRun run;
  auto v0 = (*session)->RunIteration(MakeSyntheticWorkflow(2, 3), "initial",
                                     core::ChangeCategory::kInitial);
  EXPECT_TRUE(v0.ok()) << v0.status().ToString();
  auto v1 = (*session)->RunIteration(MakeSyntheticWorkflow(2, 33), "ml edit",
                                     core::ChangeCategory::kMachineLearning);
  EXPECT_TRUE(v1.ok()) << v1.status().ToString();
  run.metrics_json = metrics.SnapshotJson();
  run.trace_json = trace.ToChromeJson();
  run.last_report = v1->report;
  run.spans = trace.Snapshot();
  return run;
}

TEST(TelemetryDeterminismTest, VirtualClockRunsProduceIdenticalTelemetry) {
  auto dir_a = MakeTempDir("helix-obs-a");
  auto dir_b = MakeTempDir("helix-obs-b");
  ASSERT_TRUE(dir_a.ok());
  ASSERT_TRUE(dir_b.ok());
  TelemetryRun a = RunInstrumentedSession(dir_a.value());
  TelemetryRun b = RunInstrumentedSession(dir_b.value());
  // The headline property: byte-identical trace and metrics documents.
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  // And they are non-trivial.
  EXPECT_NE(a.trace_json.find("\"cat\":\"iteration\""), std::string::npos);
  EXPECT_NE(a.trace_json.find("\"cat\":\"node\""), std::string::npos);
  EXPECT_NE(a.metrics_json.find("executor.iterations"), std::string::npos);
  (void)RemoveDirRecursively(dir_a.value());
  (void)RemoveDirRecursively(dir_b.value());
}

TEST(TelemetryDeterminismTest, SpanOutcomesMatchReportCounters) {
  auto dir = MakeTempDir("helix-obs-outcomes");
  ASSERT_TRUE(dir.ok());
  TelemetryRun run = RunInstrumentedSession(dir.value());
  // Count outcomes over the *last* iteration's node spans. The trace holds
  // both iterations; node spans from the second one are the trailing
  // records before the final iteration span.
  int computed = 0;
  int loaded = 0;
  int shared = 0;
  int pruned = 0;
  size_t node_count = run.last_report.nodes.size();
  ASSERT_GE(run.spans.size(), node_count + 1);
  // Last span is the iteration marker; the node spans precede it.
  EXPECT_EQ(run.spans.back().category, "iteration");
  for (size_t i = run.spans.size() - 1 - node_count;
       i < run.spans.size() - 1; ++i) {
    const TraceSpan& span = run.spans[i];
    ASSERT_EQ(span.category, "node");
    ASSERT_FALSE(span.str_args.empty());
    ASSERT_EQ(span.str_args[0].first, "outcome");
    const std::string& outcome = span.str_args[0].second;
    if (outcome == "computed") {
      ++computed;
    } else if (outcome == "loaded") {
      ++loaded;
    } else if (outcome == "shared") {
      ++shared;
    } else if (outcome == "pruned" || outcome == "sliced") {
      ++pruned;
    }
  }
  EXPECT_EQ(computed, run.last_report.num_computed);
  // The report's num_loaded counts every kLoad node, shared waits
  // included; the span outcome tags split those out as "shared".
  EXPECT_EQ(loaded + shared, run.last_report.num_loaded);
  EXPECT_EQ(shared, run.last_report.num_shared);
  EXPECT_EQ(pruned, run.last_report.num_pruned);
  // The ML edit reuses upstream work, so reuse must actually appear.
  EXPECT_GT(loaded + pruned, 0);
  (void)RemoveDirRecursively(dir.value());
}


// The write tail: every materializing iteration observes its end-of-
// iteration drain in `materializer.drain_wait_micros` and tags its span
// with `write_wait_micros`. On a virtual clock both read 0 (the executor
// drains after each enqueue) and the session's writer registers no
// counters, whose values would depend on which thread won a write.
TEST(TelemetryDeterminismTest, WriteTailIsReportedAndZeroOnAVirtualClock) {
  auto dir = MakeTempDir("helix-obs-write-tail");
  ASSERT_TRUE(dir.ok());
  TelemetryRun run = RunInstrumentedSession(dir.value());
  EXPECT_EQ(run.last_report.write_wait_micros, 0);
  EXPECT_NE(run.metrics_json.find("materializer.drain_wait_micros"),
            std::string::npos);
  EXPECT_EQ(run.metrics_json.find("materializer.writes_helped"),
            std::string::npos);
  const TraceSpan& iteration = run.spans.back();
  ASSERT_EQ(iteration.category, "iteration");
  bool tagged = false;
  for (const auto& [key, value] : iteration.int_args) {
    if (key == "write_wait_micros") {
      tagged = true;
      EXPECT_EQ(value, 0);
    }
  }
  EXPECT_TRUE(tagged);
  (void)RemoveDirRecursively(dir.value());

  // On a real clock the session's own writer reports its counters.
  auto real_dir = MakeTempDir("helix-obs-write-tail-real");
  ASSERT_TRUE(real_dir.ok());
  MetricsRegistry metrics;
  core::SessionOptions options;
  options.workspace_dir = real_dir.value();
  options.metrics = &metrics;
  options.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
  auto session = core::Session::Open(options);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto v0 = (*session)->RunIteration(MakeSyntheticWorkflow(2, 3), "initial",
                                     core::ChangeCategory::kInitial);
  ASSERT_TRUE(v0.ok()) << v0.status().ToString();
  EXPECT_GT(v0->report.num_materialized, 0);
  EXPECT_EQ(metrics.GetCounter("materializer.writes_ok")->Value(),
            v0->report.num_materialized);
  EXPECT_EQ(metrics.GetHistogram("materializer.drain_wait_micros")->Count(),
            1);
  session.value().reset();
  (void)RemoveDirRecursively(real_dir.value());
}

}  // namespace
}  // namespace obs
}  // namespace helix
