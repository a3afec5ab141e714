#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <thread>

#include "common/json.h"

namespace helix {
namespace obs {

size_t Counter::StripeIndex() {
  // One stripe per thread, stable for the thread's lifetime. Hashing the
  // thread id once into a thread_local is cheaper than hashing per Add
  // and spreads threads evenly enough for 8 stripes.
  thread_local const size_t stripe =
      std::hash<std::thread::id>()(std::this_thread::get_id()) % kStripes;
  return stripe;
}

Histogram::Histogram(std::vector<int64_t> bounds)
    : bounds_(std::move(bounds)),
      buckets_(std::vector<std::atomic<int64_t>>(bounds_.size() + 1)) {
  assert(!bounds_.empty());
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
}

void Histogram::Observe(int64_t value) {
  if (value < 0) {
    value = 0;  // time deltas; a clock hiccup must not underflow a bucket
  }
  // First bound >= value; bounds are inclusive upper limits.
  size_t index = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.Add(1);
  sum_.Add(value);
}

int64_t Histogram::Percentile(double p) const {
  // Snapshot the buckets once, then rank-walk. Exact with respect to the
  // snapshot: rank = ceil(p * count) observations fall at or below the
  // returned bound.
  std::vector<int64_t> counts(buckets_.size());
  int64_t total = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) {
    return 0;
  }
  p = std::min(1.0, std::max(0.0, p));
  int64_t rank = static_cast<int64_t>(p * static_cast<double>(total));
  if (static_cast<double>(rank) < p * static_cast<double>(total)) {
    ++rank;  // ceil
  }
  rank = std::max<int64_t>(1, rank);
  int64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      return i < bounds_.size() ? bounds_[i] : bounds_.back();
    }
  }
  return bounds_.back();
}

std::vector<std::pair<int64_t, int64_t>> Histogram::Buckets() const {
  std::vector<std::pair<int64_t, int64_t>> out;
  out.reserve(buckets_.size());
  for (size_t i = 0; i < buckets_.size(); ++i) {
    int64_t bound = i < bounds_.size() ? bounds_[i]
                                       : std::numeric_limits<int64_t>::max();
    out.emplace_back(bound, buckets_[i].load(std::memory_order_relaxed));
  }
  return out;
}

const std::vector<int64_t>& Histogram::DefaultLatencyBoundsMicros() {
  // 1-2-5 decades from 1us to 100s: fine enough that p50/p99 of both a
  // 30us store hit and a 2s cold iteration land in distinct buckets,
  // coarse enough that a histogram is 26 atomics.
  static const std::vector<int64_t> kBounds = {
      1,       2,       5,        10,       20,       50,
      100,     200,     500,      1000,     2000,     5000,
      10000,   20000,   50000,    100000,   200000,   500000,
      1000000, 2000000, 5000000,  10000000, 20000000, 50000000,
      100000000};
  return kBounds;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (gauges_.count(name) > 0 || histograms_.count(name) > 0) {
    return nullptr;  // name already registered as a different kind
  }
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) > 0 || histograms_.count(name) > 0) {
    return nullptr;
  }
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::vector<int64_t> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  if (counters_.count(name) > 0 || gauges_.count(name) > 0) {
    return nullptr;
  }
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) {
      bounds = Histogram::DefaultLatencyBoundsMicros();
    }
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::WriteSnapshot(JsonWriter* json) const {
  std::lock_guard<std::mutex> lock(mu_);
  json->Key("counters").BeginObject();
  for (const auto& [name, counter] : counters_) {
    json->KV(name, counter->Value());
  }
  json->EndObject();
  json->Key("gauges").BeginObject();
  for (const auto& [name, gauge] : gauges_) {
    json->Key(name)
        .BeginObject()
        .KV("value", gauge->Value())
        .KV("max", gauge->Max())
        .EndObject();
  }
  json->EndObject();
  json->Key("histograms").BeginObject();
  for (const auto& [name, hist] : histograms_) {
    json->Key(name).BeginObject();
    json->KV("count", hist->Count())
        .KV("sum", hist->Sum())
        .KV("p50", hist->Percentile(0.5))
        .KV("p90", hist->Percentile(0.9))
        .KV("p99", hist->Percentile(0.99));
    json->Key("buckets").BeginArray();
    for (const auto& [bound, count] : hist->Buckets()) {
      if (count == 0) {
        continue;  // compact: empty buckets carry no information
      }
      json->BeginArray();
      if (bound == std::numeric_limits<int64_t>::max()) {
        json->String("inf");
      } else {
        json->Int(bound);
      }
      json->Int(count).EndArray();
    }
    json->EndArray();
    json->EndObject();
  }
  json->EndObject();
}

std::string MetricsRegistry::SnapshotJson() const {
  JsonWriter json;
  json.BeginObject();
  json.KV("record", "helix_metrics");
  WriteSnapshot(&json);
  json.EndObject();
  return json.str();
}

}  // namespace obs
}  // namespace helix
