#include "storage/store.h"

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

void Count(obs::Counter* counter, int64_t n) {
  if (counter != nullptr) {
    counter->Add(n);
  }
}

// Adds one timed transfer to a bandwidth estimator's totals; transfers
// too small to time are dropped.
void Observe(int64_t bytes, int64_t micros, int64_t* total_bytes,
             int64_t* total_micros) {
  if (bytes >= kMinObservableBytes) {
    *total_bytes += bytes;
    *total_micros += micros;
  }
}

// The paranoid check: the envelope's trailer matches its body, and the
// body is the one Put recorded (`recorded_crc` 0 = not recorded).
Status CheckRecordedCrc(std::string_view envelope, uint64_t recorded_crc) {
  HELIX_ASSIGN_OR_RETURN(uint32_t crc,
                         dataflow::DataCollection::VerifyEnvelopeCrc(envelope));
  if (recorded_crc != 0 && crc != recorded_crc) {
    return Status::Corruption(StrFormat(
        "envelope CRC %08x differs from the %08llx recorded at Put", crc,
        static_cast<unsigned long long>(recorded_crc)));
  }
  return Status::OK();
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
  std::unique_ptr<IntermediateStore> store(new IntermediateStore(options));

  switch (options.backend) {
    case StorageBackendKind::kDisk: {
      if (dir.empty()) {
        return Status::InvalidArgument(
            "disk-backed store requires a directory");
      }
      HELIX_ASSIGN_OR_RETURN(store->backend_,
                             DiskBackend::Open(dir, DiskBackendOptions()));
      break;
    }
    case StorageBackendKind::kMemory:
      store->backend_ = std::make_unique<MemoryBackend>();
      break;
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
    store->entries_[sig] = std::move(entry);
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
  bool present;
  {
    std::lock_guard<std::mutex> lock(mu_);
    present = entries_.count(signature) > 0;
  }
  // Has is the planner's reuse probe — every load-vs-compute decision
  // goes through it — so this is where hit/miss rates are meaningful.
  // (Get also counts a miss on the rare vanished-payload paths.)
  Count(present ? hits_total_ : misses_total_, 1);
  return present;
}

std::optional<StoreEntry> IntermediateStore::GetEntry(
    uint64_t signature) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(signature);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second;
}

Result<dataflow::DataCollection> IntermediateStore::Get(
    uint64_t signature, bool paranoid) {
  // The backend read and deserialization — the expensive parts — run
  // outside the index lock so concurrent loads (the parallel executor's
  // warm path) actually overlap; only index lookups/updates take it.
  uint64_t recorded_crc = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(signature);
    if (it == entries_.end()) {
      Count(misses_total_, 1);
      return Status::NotFound(
          StrFormat("no stored result for signature %s",
                    HashToHex(signature).c_str()));
    }
    recorded_crc = it->second.envelope_crc;
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
    Count(misses_total_, 1);  // the caller ends up recomputing: a miss
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
  // decode without hashing them a second time — unless paranoid, which
  // pays one envelope hash to check the bytes against the CRC recorded
  // at Put.
  Status verified = paranoid ? CheckRecordedCrc(payload.value(), recorded_crc)
                             : Status::OK();
  Result<dataflow::DataCollection> data =
      verified.ok()
          ? dataflow::DataCollection::DeserializeVerified(payload.value())
          : Result<dataflow::DataCollection>(verified);
  if (!data.ok()) {
    HELIX_LOG(Warning) << "store entry corrupt, evicting "
                       << HashToHex(signature) << ": "
                       << data.status().ToString();
    (void)EvictOne(signature);
    Count(misses_total_, 1);
    return data.status();
  }
  int64_t elapsed = timer.ElapsedMicros();
  ObservePhase(get_decode_micros_, elapsed - read_micros);
  const int64_t bytes = static_cast<int64_t>(payload.value().size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(signature);
    if (it != entries_.end()) {
      it->second.load_micros = elapsed;
    }
    Observe(bytes, elapsed, &observed_read_bytes_, &observed_read_micros_);
  }
  // Hits are counted at the Has probe; a successful Get only accounts
  // for the bytes it actually moved.
  Count(bytes_read_total_, bytes);
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
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.count(signature) > 0 ||
        !writing_.insert(signature).second) {
      return Status::AlreadyExists(
          StrFormat("signature %s already stored",
                    HashToHex(signature).c_str()));
    }
  }
  struct WritingMark {
    IntermediateStore* store;
    uint64_t signature;
    ~WritingMark() {
      std::lock_guard<std::mutex> lock(store->mu_);
      store->writing_.erase(signature);
    }
  } mark{this, signature};
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
  const uint32_t envelope_crc = data.SerializeToSpans(&serialized);
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
  entry.envelope_crc = envelope_crc;

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
    std::lock_guard<std::mutex> lock(mu_);
    entries_[signature] = entry;
    Observe(size, elapsed, &observed_write_bytes_, &observed_write_micros_);
  }
  Count(bytes_written_total_, size);
  if (bytes_gauge_ != nullptr) {
    bytes_gauge_->Set(total_bytes_.load(std::memory_order_relaxed));
  }
  if (write_micros_out != nullptr) {
    *write_micros_out = elapsed;
  }
  return Status::OK();
}

Status IntermediateStore::EvictForLocked(int64_t bytes_needed,
                                         double incoming_score) {
  std::vector<EvictionCandidate> candidates;
  {
    std::lock_guard<std::mutex> lock(mu_);
    candidates.reserve(entries_.size());
    for (const auto& [sig, entry] : entries_) {
      (void)sig;
      // Copy only the scoring inputs — node_name in particular stays put;
      // this scan runs under budget_mu_ on every over-budget Put.
      EvictionCandidate c;
      c.entry.signature = entry.signature;
      c.entry.size_bytes = entry.size_bytes;
      c.entry.load_micros = entry.load_micros;
      c.entry.compute_micros = entry.compute_micros;
      c.entry.iteration = entry.iteration;
      c.est_load_micros = EstimateLoadMicrosLocked(entry.size_bytes);
      candidates.push_back(std::move(c));
    }
  }
  // Score from the live statistics, not the costs frozen at Put time: an
  // entry written under a pre-edit DAG version carries that version's
  // compute_micros forever, and a later measurement (same signature, so
  // same bytes) is strictly better information. The registry's mutex is a
  // leaf lock under budget_mu_.
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
  Status deleted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(signature);
    if (it == entries_.end()) {
      return 0;
    }
    freed = it->second.size_bytes;
    entries_.erase(it);
    // The bytes leave the ledger under the same lock as the entry leaves
    // the index: an admission whose eviction plan picked this entry and
    // then finds it gone must also find its bytes gone, or its
    // reservation could overshoot the budget until this subtraction.
    total_bytes_.fetch_sub(freed, std::memory_order_relaxed);
    // The tombstone goes to the backend under the index lock. A Put of
    // this signature probes the index under the same lock, so its record
    // always lands after the tombstone; appended later, the tombstone
    // would delete that live record (and drop it from a reopened store).
    deleted = backend_->Delete(signature);
  }
  Count(evictions_total_, 1);
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

size_t IntermediateStore::NumEntries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<StoreEntry> IntermediateStore::Entries() const {
  std::vector<StoreEntry> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(entries_.size());
  for (const auto& [sig, entry] : entries_) {
    (void)sig;
    out.push_back(entry);  // the map is ordered by signature
  }
  return out;
}

bool IntermediateStore::LearnsBandwidthFrom(int64_t size_bytes) const {
  if (size_bytes < kMinObservableBytes) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return observed_read_micros_ <= 0 && observed_write_micros_ <= 0;
}

int64_t IntermediateStore::EstimateLoadMicros(int64_t size_bytes) const {
  std::lock_guard<std::mutex> lock(mu_);
  return EstimateLoadMicrosLocked(size_bytes);
}

int64_t IntermediateStore::EstimateLoadMicrosLocked(
    int64_t size_bytes) const {
  if (size_bytes < 0) {
    size_bytes = 0;
  }
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
