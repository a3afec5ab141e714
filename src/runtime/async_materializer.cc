#include "runtime/async_materializer.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"

namespace helix {
namespace runtime {

AsyncMaterializer::AsyncMaterializer(storage::IntermediateStore* store,
                                     int64_t max_queue_bytes)
    : store_(store),
      max_queue_bytes_(max_queue_bytes),
      writer_([this]() { WriterLoop(); }) {}

AsyncMaterializer::~AsyncMaterializer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  space_cv_.notify_all();
  writer_.join();
}

void AsyncMaterializer::Enqueue(Request request) {
  request.size_bytes = request.data.SizeBytes();
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (max_queue_bytes_ > 0) {
      // Back-pressure: hold the producer until the writer frees room. A
      // request that alone exceeds the bound is admitted once the queue is
      // empty (queued_bytes_ == 0), so the wait always terminates.
      space_cv_.wait(lock, [this, &request]() {
        return shutdown_ || queued_bytes_ == 0 ||
               queued_bytes_ + request.size_bytes <= max_queue_bytes_;
      });
    }
    request.seq = next_seq_++;
    ++pending_per_owner_[request.owner];
    queued_bytes_ += request.size_bytes;
    queue_.push_back(std::move(request));
    if (queue_depth_ != nullptr) {
      queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    if (queue_bytes_ != nullptr) {
      queue_bytes_->Set(queued_bytes_);
    }
  }
  work_cv_.notify_one();
}

int64_t AsyncMaterializer::QueuedBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_bytes_;
}

void AsyncMaterializer::EnableTelemetry(obs::MetricsRegistry* registry,
                                        const std::string& prefix) {
  std::lock_guard<std::mutex> lock(mu_);
  queue_depth_ = registry->GetGauge(prefix + ".queue_depth");
  queue_bytes_ = registry->GetGauge(prefix + ".queue_bytes");
  queue_bytes_->Set(queued_bytes_);
  write_micros_ = registry->GetHistogram(prefix + ".write_micros");
  writes_ok_ = registry->GetCounter(prefix + ".writes_ok");
  writes_failed_ = registry->GetCounter(prefix + ".writes_failed");
  writes_helped_ = registry->GetCounter(prefix + ".writes_helped");
}

std::vector<AsyncMaterializer::Outcome> AsyncMaterializer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock,
                   [this]() { return queue_.empty() && in_flight_ == 0; });
  std::vector<Outcome> out;
  out.reserve(outcomes_.size());
  for (Finished& f : outcomes_) {
    out.push_back(std::move(f.outcome));
  }
  outcomes_.clear();
  return out;
}

std::vector<AsyncMaterializer::Outcome> AsyncMaterializer::Drain(
    uint64_t owner) {
  std::unique_lock<std::mutex> lock(mu_);
  auto mine = [owner](const Request& r) { return r.owner == owner; };
  for (auto it = std::find_if(queue_.begin(), queue_.end(), mine);
       it != queue_.end();
       it = std::find_if(queue_.begin(), queue_.end(), mine)) {
    Request request = std::move(*it);
    queue_.erase(it);
    Write(&lock, std::move(request), /*helped=*/true);
  }
  drained_cv_.wait(lock, [this, owner]() {
    return pending_per_owner_.count(owner) == 0;
  });
  std::vector<Outcome> out;
  auto done = [owner](const Finished& f) { return f.outcome.owner == owner; };
  for (Finished& f : outcomes_) {
    if (done(f)) {
      out.push_back(std::move(f.outcome));
    }
  }
  outcomes_.erase(std::remove_if(outcomes_.begin(), outcomes_.end(), done),
                  outcomes_.end());
  return out;
}

size_t AsyncMaterializer::Pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + static_cast<size_t>(in_flight_);
}

size_t AsyncMaterializer::Pending(uint64_t owner) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = pending_per_owner_.find(owner);
  return it == pending_per_owner_.end() ? 0 : it->second;
}

void AsyncMaterializer::WriterLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this]() { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) {
      // Shutdown with a drained queue: exit. Pending requests are always
      // written first, so ~AsyncMaterializer never loses work.
      return;
    }
    Request request = std::move(queue_.front());
    queue_.pop_front();
    Write(&lock, std::move(request), /*helped=*/false);
  }
}

void AsyncMaterializer::Write(std::unique_lock<std::mutex>* lock,
                              Request request, bool helped) {
  ++in_flight_;
  if (queue_depth_ != nullptr) {
    queue_depth_->Set(static_cast<int64_t>(queue_.size()));
  }
  // Snapshot telemetry pointers under mu_ — EnableTelemetry also writes
  // them under mu_, so the Put below can report without the lock.
  obs::Histogram* write_micros = write_micros_;
  obs::Counter* writes_ok = writes_ok_;
  obs::Counter* writes_failed = writes_failed_;
  if (helped && writes_helped_ != nullptr) {
    writes_helped_->Add(1);
  }
  lock->unlock();

  Finished finished;
  finished.seq = request.seq;
  Outcome& outcome = finished.outcome;
  outcome.node = request.node;
  outcome.signature = request.signature;
  outcome.node_name = request.node_name;
  outcome.owner = request.owner;
  outcome.status = store_->Put(request.signature, request.node_name,
                               request.data, request.iteration,
                               &outcome.write_micros, request.compute_micros);
  if (outcome.status.ok()) {
    if (writes_ok != nullptr) {
      writes_ok->Add(1);
    }
    if (write_micros != nullptr) {
      write_micros->Observe(outcome.write_micros);
    }
  } else if (writes_failed != nullptr) {
    writes_failed->Add(1);
  }

  lock->lock();
  --in_flight_;
  queued_bytes_ -= request.size_bytes;
  if (queue_bytes_ != nullptr) {
    queue_bytes_->Set(queued_bytes_);
  }
  // A helper's write can finish before the writer's earlier one: insert
  // at the outcome's enqueue position (almost always the end).
  auto pos = std::upper_bound(
      outcomes_.begin(), outcomes_.end(), finished.seq,
      [](uint64_t seq, const Finished& f) { return seq < f.seq; });
  outcomes_.insert(pos, std::move(finished));
  auto it = pending_per_owner_.find(request.owner);
  if (it != pending_per_owner_.end() && --it->second == 0) {
    pending_per_owner_.erase(it);
  }
  // Per-owner drains must observe every completed write, not just the
  // queue-empty edge; back-pressured producers wake on the freed bytes.
  drained_cv_.notify_all();
  space_cv_.notify_all();
}

}  // namespace runtime
}  // namespace helix
