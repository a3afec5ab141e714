#include "storage/store.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "common/bytes.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"
#include "obs/metrics.h"
#include "storage/cost_stats.h"
#include "storage/disk_backend.h"
#include "storage/eviction.h"
#include "storage/memory_backend.h"

namespace helix {
namespace storage {

namespace {
// Defaults when no I/O has been observed: reads (including
// deserialization) around 400 MiB/s, plus a fixed per-file overhead.
// Writes are typically slower but are not used for load estimates.
constexpr int64_t kDefaultReadBytesPerSecond = 400LL * 1024 * 1024;
constexpr int64_t kFixedIoOverheadMicros = 200;
// Transfers below this size are dominated by the fixed overhead and would
// bias the learned bandwidth; they are excluded from the estimator.
constexpr int64_t kMinObservableBytes = 64 * 1024;

// Phase durations come from the store's clock, so virtual-clock runs keep
// producing identical telemetry.
void ObservePhase(obs::Histogram* histogram, int64_t micros) {
  if (histogram != nullptr) {
    histogram->Observe(micros);
  }
}
}  // namespace

const char* StorageBackendKindToString(StorageBackendKind kind) {
  switch (kind) {
    case StorageBackendKind::kDisk:
      return "disk";
    case StorageBackendKind::kMemory:
      return "memory";
  }
  return "?";
}

Result<std::unique_ptr<IntermediateStore>> IntermediateStore::Open(
    const std::string& dir, const StoreOptions& options) {
  if (options.budget_bytes < 0) {
    return Status::InvalidArgument("store budget must be non-negative");
  }
  std::unique_ptr<IntermediateStore> store(
      new IntermediateStore(dir, options));

  switch (options.backend) {
    case StorageBackendKind::kDisk: {
      if (dir.empty()) {
        return Status::InvalidArgument(
            "disk-backed store requires a directory");
      }
      DiskBackendOptions disk_options;
      disk_options.segment_max_bytes = options.segment_max_bytes;
      HELIX_ASSIGN_OR_RETURN(store->backend_,
                             DiskBackend::Open(dir, disk_options));
      break;
    }
    case StorageBackendKind::kMemory:
      store->backend_ = std::make_unique<MemoryBackend>();
      break;
  }

  int shards = std::max(1, options.shard_count);
  store->shards_.reserve(static_cast<size_t>(shards));
  for (int i = 0; i < shards; ++i) {
    auto shard = std::make_unique<Shard>();
    if (options.metrics != nullptr) {
      std::string prefix = StrFormat("store.shard.%d.", i);
      shard->hits = options.metrics->GetCounter(prefix + "hits");
      shard->misses = options.metrics->GetCounter(prefix + "misses");
      shard->evictions = options.metrics->GetCounter(prefix + "evictions");
      shard->bytes_read = options.metrics->GetCounter(prefix + "bytes_read");
      shard->bytes_written =
          options.metrics->GetCounter(prefix + "bytes_written");
    }
    store->shards_.push_back(std::move(shard));
  }
  if (options.metrics != nullptr) {
    store->hits_total_ = options.metrics->GetCounter("store.hits");
    store->misses_total_ = options.metrics->GetCounter("store.misses");
    store->evictions_total_ = options.metrics->GetCounter("store.evictions");
    store->bytes_read_total_ =
        options.metrics->GetCounter("store.bytes_read");
    store->bytes_written_total_ =
        options.metrics->GetCounter("store.bytes_written");
    store->bytes_gauge_ = options.metrics->GetGauge("store.bytes");
    store->get_read_micros_ =
        options.metrics->GetHistogram("store.get.read_micros");
    store->get_decode_micros_ =
        options.metrics->GetHistogram("store.get.decode_micros");
    store->put_serialize_micros_ =
        options.metrics->GetHistogram("store.put.serialize_micros");
    store->put_write_micros_ =
        options.metrics->GetHistogram("store.put.write_micros");
  }

  // Rebuild the index from whatever the backend recovered. No locks
  // needed: the store is not yet visible to any other thread.
  HELIX_ASSIGN_OR_RETURN(std::vector<StoreEntry> recovered,
                         store->backend_->Recover());
  int64_t total = 0;
  for (StoreEntry& entry : recovered) {
    total += entry.size_bytes;
    uint64_t sig = entry.signature;
    store->ShardFor(sig).entries[sig] = std::move(entry);
  }
  store->total_bytes_.store(total, std::memory_order_relaxed);

  // A shrunk budget (or a crash that resurrected tombstoned entries) can
  // leave the recovered set over budget: trim it lowest-retention-first.
  if (total > options.budget_bytes) {
    std::lock_guard<std::mutex> lock(store->budget_mu_);
    Status trimmed = store->EvictForLocked(
        total - options.budget_bytes, std::numeric_limits<double>::infinity());
    if (!trimmed.ok()) {
      return trimmed;
    }
  }
  // The resident-bytes gauge starts at what the reopened store holds.
  if (store->bytes_gauge_ != nullptr) {
    store->bytes_gauge_->Set(
        store->total_bytes_.load(std::memory_order_relaxed));
  }
  return store;
}

bool IntermediateStore::Has(uint64_t signature) const {
  Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  bool present = shard.entries.count(signature) > 0;
  // Has is the planner's reuse probe — every load-vs-compute decision
  // goes through it — so this is where hit/miss rates are meaningful.
  // (Get also counts a miss on the rare vanished-payload paths.)
  if (shard.hits != nullptr) {
    if (present) {
      shard.hits->Add(1);
      hits_total_->Add(1);
    } else {
      shard.misses->Add(1);
      misses_total_->Add(1);
    }
  }
  return present;
}

const StoreEntry* IntermediateStore::Find(uint64_t signature) const {
  Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(signature);
  return it == shard.entries.end() ? nullptr : &it->second;
}

std::optional<StoreEntry> IntermediateStore::GetEntry(
    uint64_t signature) const {
  Shard& shard = ShardFor(signature);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(signature);
  if (it == shard.entries.end()) {
    return std::nullopt;
  }
  return it->second;
}

Result<dataflow::DataCollection> IntermediateStore::Get(
    uint64_t signature, int64_t* load_micros_out) {
  // The backend read and deserialization — the expensive parts — run
  // outside any shard lock so concurrent loads (the parallel executor's
  // warm path) actually overlap; only index lookups/updates take the
  // owning shard's mutex.
  Shard& shard = ShardFor(signature);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.entries.count(signature) == 0) {
      if (shard.misses != nullptr) {
        shard.misses->Add(1);
        misses_total_->Add(1);
      }
      return Status::NotFound(
          StrFormat("no stored result for signature %s",
                    HashToHex(signature).c_str()));
    }
  }
  ScopedTimer timer(options_.clock);
  auto payload = backend_->Read(signature);
  const int64_t read_micros = timer.ElapsedMicros();
  ObservePhase(get_read_micros_, read_micros);
  if (!payload.ok()) {
    // Payload vanished or failed verification: self-heal by evicting.
    // NotFound means a concurrent eviction or Remove took the entry after
    // the index probe above — an ordinary miss, reported as one so a
    // FetchOutput caller sees NotFound rather than Corruption.
    bool vanished = payload.status().IsNotFound();
    if (!vanished) {
      HELIX_LOG(Warning) << "store entry unreadable, evicting "
                         << HashToHex(signature) << ": "
                         << payload.status().ToString();
    }
    (void)EvictOne(signature);
    if (shard.misses != nullptr) {
      shard.misses->Add(1);  // the caller ends up recomputing: a miss
      misses_total_->Add(1);
    }
    if (vanished) {
      return Status::NotFound(
          StrFormat("stored result %s was evicted concurrently",
                    HashToHex(signature).c_str()));
    }
    return Status::Corruption("store entry unreadable: " +
                              payload.status().ToString());
  }
  // The backend already verified these bytes against its own checksum
  // (a disk record's CRC32C), or they never left the process (memory):
  // decode without hashing them a second time.
  auto data = dataflow::DataCollection::DeserializeVerified(payload.value());
  if (!data.ok()) {
    HELIX_LOG(Warning) << "store entry corrupt, evicting "
                       << HashToHex(signature) << ": "
                       << data.status().ToString();
    (void)EvictOne(signature);
    if (shard.misses != nullptr) {
      shard.misses->Add(1);
      misses_total_->Add(1);
    }
    return data.status();
  }
  int64_t elapsed = timer.ElapsedMicros();
  ObservePhase(get_decode_micros_, elapsed - read_micros);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(signature);
    if (it != shard.entries.end()) {
      it->second.load_micros = elapsed;
    }
  }
  // Hits are counted at the Has probe; a successful Get only accounts
  // for the bytes it actually moved.
  if (shard.bytes_read != nullptr) {
    shard.bytes_read->Add(static_cast<int64_t>(payload.value().size()));
    bytes_read_total_->Add(static_cast<int64_t>(payload.value().size()));
  }
  ObserveRead(static_cast<int64_t>(payload.value().size()), elapsed);
  if (load_micros_out != nullptr) {
    *load_micros_out = elapsed;
  }
  return data;
}

Status IntermediateStore::Put(uint64_t signature,
                              const std::string& node_name,
                              const dataflow::DataCollection& data,
                              int64_t iteration, int64_t* write_micros_out,
                              int64_t compute_micros) {
  // Reject a stored or in-flight signature before paying for
  // serialization, and otherwise mark it in flight until this Put
  // returns. Deliberately not Has(): this bookkeeping probe must not
  // count toward the reuse hit/miss rate.
  Shard& shard = ShardFor(signature);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.entries.count(signature) > 0 ||
        !shard.writing.insert(signature).second) {
      return Status::AlreadyExists(
          StrFormat("signature %s already stored",
                    HashToHex(signature).c_str()));
    }
  }
  struct WritingMark {
    Shard& shard;
    uint64_t signature;
    ~WritingMark() {
      std::lock_guard<std::mutex> lock(shard.mu);
      shard.writing.erase(signature);
    }
  } mark{shard, signature};
  // A result that alone exceeds the whole budget can never be admitted;
  // reject before paying for serialization or touching the budget lock
  // (no eviction churn ahead of an inevitable failure). SizeBytes is a
  // close approximation of the serialized footprint, so only clearly
  // oversized payloads short-circuit here — the exact post-serialization
  // check below stays authoritative for the borderline.
  if (data.SizeBytes() > options_.budget_bytes) {
    return Status::ResourceExhausted(StrFormat(
        "result %s (~%s) exceeds the whole store budget (%s)",
        node_name.c_str(), HumanBytes(data.SizeBytes()).c_str(),
        HumanBytes(options_.budget_bytes).c_str()));
  }
  // The envelope is emitted as a span list — header fields in owned
  // scratch, column bodies borrowed from `data` — and handed to the
  // backend as is, so no contiguous copy of the payload is ever built:
  // the span list plus its envelope checksum is all this phase costs.
  // `data` stays alive (the caller holds it) until Write returns.
  ScopedTimer serialize_timer(options_.clock);
  SpanWriter serialized;
  data.SerializeToSpans(&serialized);
  const std::vector<ByteSpan>& spans = serialized.spans();
  ObservePhase(put_serialize_micros_, serialize_timer.ElapsedMicros());
  int64_t size = static_cast<int64_t>(serialized.TotalBytes());
  if (size > options_.budget_bytes) {
    return Status::ResourceExhausted(StrFormat(
        "result %s (%s) exceeds the whole store budget (%s)",
        node_name.c_str(), HumanBytes(size).c_str(),
        HumanBytes(options_.budget_bytes).c_str()));
  }

  StoreEntry entry;
  entry.signature = signature;
  entry.node_name = node_name;
  entry.size_bytes = size;
  entry.compute_micros = compute_micros;
  entry.iteration = iteration;
  entry.fingerprint = data.Fingerprint();

  // Admission: budget check, eviction, and reservation are atomic under
  // budget_mu_, so concurrent Puts can never jointly overshoot the
  // budget. The backend write happens after, off this lock.
  {
    std::lock_guard<std::mutex> lock(budget_mu_);
    int64_t remaining =
        options_.budget_bytes - total_bytes_.load(std::memory_order_relaxed);
    if (size > remaining) {
      double incoming_score =
          RetentionScore(entry, EstimateLoadMicros(size),
                         options_.default_compute_estimate_micros);
      HELIX_RETURN_IF_ERROR(EvictForLocked(size - remaining, incoming_score));
    }
    total_bytes_.fetch_add(size, std::memory_order_relaxed);
  }

  ScopedTimer timer(options_.clock);
  Status written = backend_->Write(entry, spans.data(), spans.size());
  int64_t elapsed = timer.ElapsedMicros();
  ObservePhase(put_write_micros_, elapsed);
  if (!written.ok()) {
    total_bytes_.fetch_sub(size, std::memory_order_relaxed);  // unreserve
    return written;
  }
  entry.write_micros = elapsed;

  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.entries[signature] = entry;
    if (shard.bytes_written != nullptr) {
      shard.bytes_written->Add(size);
      bytes_written_total_->Add(size);
    }
  }
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Set(total_bytes_.load(std::memory_order_relaxed));
  }
  ObserveWrite(size, elapsed);
  if (write_micros_out != nullptr) {
    *write_micros_out = elapsed;
  }
  return Status::OK();
}

Status IntermediateStore::EvictForLocked(int64_t bytes_needed,
                                         double incoming_score) {
  std::vector<EvictionCandidate> candidates;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [sig, entry] : shard->entries) {
      (void)sig;
      // Copy only the scoring inputs — node_name in particular stays put;
      // this scan runs under budget_mu_ on every over-budget Put.
      EvictionCandidate c;
      c.entry.signature = entry.signature;
      c.entry.size_bytes = entry.size_bytes;
      c.entry.load_micros = entry.load_micros;
      c.entry.compute_micros = entry.compute_micros;
      c.entry.iteration = entry.iteration;
      c.est_load_micros = EstimateLoadMicros(entry.size_bytes);
      candidates.push_back(std::move(c));
    }
  }
  // Score from the live statistics, not the costs frozen at Put time: an
  // entry written under a pre-edit DAG version carries that version's
  // compute_micros forever, and a later measurement (same signature, so
  // same bytes) is strictly better information. The registry's mutex is a
  // leaf lock under budget_mu_ -> shard mu.
  if (options_.cost_stats != nullptr) {
    for (EvictionCandidate& c : candidates) {
      std::optional<NodeStats> stats =
          options_.cost_stats->Get(c.entry.signature);
      if (!stats.has_value()) {
        continue;
      }
      if (stats->compute_micros >= 0) {
        c.entry.compute_micros = stats->compute_micros;
      }
      if (c.entry.load_micros < 0 && stats->load_micros >= 0) {
        c.entry.load_micros = stats->load_micros;
      }
    }
  }
  EvictionPlan plan =
      PlanEviction(candidates, bytes_needed, incoming_score,
                   options_.default_compute_estimate_micros);
  if (!plan.feasible) {
    return Status::ResourceExhausted(StrFormat(
        "making %s of room would evict higher-value entries",
        HumanBytes(bytes_needed).c_str()));
  }
  for (uint64_t victim : plan.victims) {
    int64_t freed = EvictOne(victim);
    if (freed > 0) {
      num_evictions_.fetch_add(1, std::memory_order_relaxed);
      HELIX_LOG(Info) << "evicted " << HashToHex(victim) << " ("
                      << HumanBytes(freed) << ") to make room";
    }
  }
  return Status::OK();
}

int64_t IntermediateStore::EvictOne(uint64_t signature) {
  int64_t freed = 0;
  Shard& shard = ShardFor(signature);
  Status deleted;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.entries.find(signature);
    if (it == shard.entries.end()) {
      return 0;
    }
    freed = it->second.size_bytes;
    shard.entries.erase(it);
    // The tombstone goes to the backend under the shard lock. A Put of
    // this signature probes the index under the same lock, so its record
    // always lands after the tombstone; appended later, the tombstone
    // would delete that live record (and drop it from a reopened store).
    deleted = backend_->Delete(signature);
  }
  total_bytes_.fetch_sub(freed, std::memory_order_relaxed);
  if (shard.evictions != nullptr) {
    shard.evictions->Add(1);
    evictions_total_->Add(1);
  }
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Set(total_bytes_.load(std::memory_order_relaxed));
  }
  if (!deleted.ok()) {
    HELIX_LOG(Warning) << "backend delete of " << HashToHex(signature)
                       << " failed: " << deleted.ToString();
  }
  return freed;
}

Status IntermediateStore::Remove(uint64_t signature) {
  (void)EvictOne(signature);
  return Status::OK();
}

Status IntermediateStore::Clear() {
  std::lock_guard<std::mutex> budget_lock(budget_mu_);
  int64_t cleared = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [sig, entry] : shard->entries) {
      (void)sig;
      cleared += entry.size_bytes;
    }
    shard->entries.clear();
  }
  total_bytes_.fetch_sub(cleared, std::memory_order_relaxed);
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Set(total_bytes_.load(std::memory_order_relaxed));
  }
  return backend_->DeleteAll();
}

size_t IntermediateStore::NumEntries() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->entries.size();
  }
  return n;
}

std::vector<StoreEntry> IntermediateStore::Entries() const {
  std::vector<StoreEntry> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [sig, entry] : shard->entries) {
      (void)sig;
      out.push_back(entry);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const StoreEntry& a, const StoreEntry& b) {
              return a.signature < b.signature;
            });
  return out;
}

void IntermediateStore::ObserveRead(int64_t bytes, int64_t micros) {
  if (bytes < kMinObservableBytes) {
    return;
  }
  std::lock_guard<std::mutex> lock(est_mu_);
  observed_read_bytes_ += bytes;
  observed_read_micros_ += micros;
}

void IntermediateStore::ObserveWrite(int64_t bytes, int64_t micros) {
  if (bytes < kMinObservableBytes) {
    return;
  }
  std::lock_guard<std::mutex> lock(est_mu_);
  observed_write_bytes_ += bytes;
  observed_write_micros_ += micros;
}

bool IntermediateStore::LearnsBandwidthFrom(int64_t size_bytes) const {
  if (size_bytes < kMinObservableBytes) {
    return false;
  }
  std::lock_guard<std::mutex> lock(est_mu_);
  return observed_read_micros_ <= 0 && observed_write_micros_ <= 0;
}

int64_t IntermediateStore::EstimateLoadMicros(int64_t size_bytes) const {
  if (size_bytes < 0) {
    size_bytes = 0;
  }
  std::lock_guard<std::mutex> lock(est_mu_);
  // Guarded ratio: zero observed micros (e.g. measurements taken under a
  // virtual clock) must never divide; such observations fall through to
  // the next source.
  double bytes_per_micro = 0;
  if (observed_read_micros_ > 0 && observed_read_bytes_ > 0) {
    bytes_per_micro = static_cast<double>(observed_read_bytes_) /
                      static_cast<double>(observed_read_micros_);
  } else if (observed_write_micros_ > 0 && observed_write_bytes_ > 0) {
    // No reads yet: assume reads run at least at write speed (they are
    // almost always faster: page-cache hits and no flush).
    bytes_per_micro = static_cast<double>(observed_write_bytes_) /
                      static_cast<double>(observed_write_micros_);
  }
  if (bytes_per_micro <= 0) {
    bytes_per_micro = static_cast<double>(kDefaultReadBytesPerSecond) / 1e6;
  }
  return kFixedIoOverheadMicros +
         static_cast<int64_t>(static_cast<double>(size_bytes) /
                              bytes_per_micro);
}

}  // namespace storage
}  // namespace helix
