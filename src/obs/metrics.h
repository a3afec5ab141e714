// Process-wide metrics: counters, gauges, and fixed-bucket histograms.
//
// Helix's runtime decisions — min-cut load-vs-compute, cost-based
// eviction, cross-session block-and-share — were previously visible only
// as end-of-iteration integer counters. This registry is the quantitative
// backbone underneath them: every hot layer (executor, thread pool,
// store, background writer, in-flight table, TCP server) updates named
// metrics cheap enough for its hot path, and anything — a test, the
// workload driver, or a remote GetMetrics request — can snapshot the
// whole registry as one deterministic JSON document.
//
// Design constraints, in order:
//   * hot-path cheap — Counter::Add is one relaxed atomic add on a
//     cache-line-private stripe (no mutex, no false sharing between
//     threads hammering the same counter); Histogram::Observe is two
//     relaxed adds;
//   * exact — counters never sample or approximate; histogram
//     percentiles are computed exactly from bucket counts by rank walk
//     (no sorting, no reservoir), quantized to the bucket upper bound;
//   * deterministic snapshots — metrics are emitted sorted by name with
//     integer-only values, so two identical runs produce byte-identical
//     JSON (the VirtualClock trace tests depend on the same property of
//     the trace layer).
#ifndef HELIX_OBS_METRICS_H_
#define HELIX_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace helix {
class JsonWriter;

namespace obs {

/// Monotonically increasing counter, striped over cache lines so
/// concurrent writers on different cores do not bounce one line.
/// Value() folds the stripes (racy-exact: concurrent Adds before the
/// fold are included, later ones are not — the usual counter contract).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(int64_t n = 1) {
    stripes_[StripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  int64_t Value() const {
    int64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr int kStripes = 8;
  struct alignas(64) Stripe {
    std::atomic<int64_t> v{0};
  };
  static size_t StripeIndex();

  Stripe stripes_[kStripes];
};

/// Last-writer-wins instantaneous value (queue depths, resident bytes).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  /// Set + high-water-mark update (one relaxed store; the CAS loop runs
  /// only while the value actually exceeds the recorded maximum).
  void Set(int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

  /// Highest value ever Set (high-water mark).
  int64_t Max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
  std::atomic<int64_t> max_{0};
};

/// Fixed-bucket latency histogram. Buckets are defined by an ascending
/// list of inclusive upper bounds plus an implicit overflow bucket;
/// Observe is two relaxed atomic adds (bucket + sum), Percentile walks
/// the bucket counts — exact given the bucket resolution, never sorts.
class Histogram {
 public:
  /// `bounds` must be strictly ascending and non-empty. Values are
  /// clamped to >= 0 before bucketing.
  explicit Histogram(std::vector<int64_t> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(int64_t value);

  int64_t Count() const { return count_.Value(); }
  int64_t Sum() const { return sum_.Value(); }

  /// Value at or below which a fraction `p` (0..1] of observations fall,
  /// quantized to the containing bucket's upper bound. The overflow
  /// bucket reports the largest finite bound (a saturation marker, not a
  /// measurement). Returns 0 when empty.
  int64_t Percentile(double p) const;

  /// Snapshot of (upper_bound, count) pairs, overflow bucket last with
  /// bound INT64_MAX. Racy-exact like Counter::Value.
  std::vector<std::pair<int64_t, int64_t>> Buckets() const;

  const std::vector<int64_t>& bounds() const { return bounds_; }

  /// The registry's default bucket bounds for latencies in microseconds:
  /// 1,2,5-progression from 1us to 100s (25 finite buckets + overflow).
  static const std::vector<int64_t>& DefaultLatencyBoundsMicros();

 private:
  const std::vector<int64_t> bounds_;
  std::vector<std::atomic<int64_t>> buckets_;  // bounds_.size() + 1
  Counter count_;
  Counter sum_;
};

/// Named metric registry. Get* registers on first use and returns a
/// stable pointer (instrument sites look up once and cache); names are
/// dot-separated `layer.metric` (see docs/ARCHITECTURE.md,
/// "Observability"). Registration takes a mutex; metric updates
/// afterwards are lock-free.
///
/// Thread safety: all methods are safe from any thread. Ownership: the
/// registry owns its metrics; pointers remain valid for the registry's
/// lifetime. A metric name identifies one kind: requesting an existing
/// name as a different kind returns nullptr (programming error,
/// surfaced loudly in tests).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  /// `bounds` empty = DefaultLatencyBoundsMicros(). Bounds are fixed by
  /// the first registration; later calls ignore theirs.
  Histogram* GetHistogram(std::string_view name,
                          std::vector<int64_t> bounds = {});

  /// One deterministic JSON document: metrics sorted by name inside
  /// "counters" / "gauges" / "histograms" objects; histograms carry
  /// count, sum, p50/p90/p99, and the non-empty buckets.
  std::string SnapshotJson() const;

  /// Appends the same snapshot into an existing writer (the workload
  /// driver embeds it in a larger document).
  void WriteSnapshot(JsonWriter* json) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace obs
}  // namespace helix

#endif  // HELIX_OBS_METRICS_H_
