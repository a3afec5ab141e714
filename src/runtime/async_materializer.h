// Asynchronous materialization pipeline.
//
// HELIX materializes intermediate results *while* the workflow executes
// (paper Section 2.3, the online constraint). Done inline, every
// store->Put stalls the operator that produced the result: the content
// fingerprint, the envelope checksum and the disk write all sit on the
// critical path. The related-work challenges paper calls out overlapping
// computation with I/O as a key acceleration opportunity; this pipeline
// is that overlap, and it is the only way results reach the store: every
// core::Session owns one writer for its lifetime (the service shares one
// across its sessions), and compute threads only enqueue a (cheap,
// shared-payload) DataCollection handle and move on. The writer's Put is
// zero-copy — IntermediateStore::Put emits the envelope as a span list
// that borrows column bodies from the queued payload and gathers it into
// the backend (see DataCollection::SerializeToSpans and
// StorageBackend::Write) — so the writer thread allocates no
// payload-sized buffers. Outcomes are collected and applied to execution
// records when the caller drains its writes at the end of the iteration.
//
// A drain helps: Drain(owner) writes that owner's not-yet-started requests
// on the draining thread itself — which would otherwise sit idle — and
// then waits only for the request the writer already has in flight. The
// draining thread is already running, so the requests it writes itself
// pay no thread hand-off, and two threads write while the tail lasts.
//
// Multi-session sharing: one materializer may serve many concurrent
// sessions writing to one shared store (the service layer). Requests
// carry an `owner` tag, and Drain(owner) helps with, waits for and
// returns only that owner's writes — one session finishing its iteration
// neither blocks on another session's (possibly endless) stream of
// requests nor steals its outcomes.
#ifndef HELIX_RUNTIME_ASYNC_MATERIALIZER_H_
#define HELIX_RUNTIME_ASYNC_MATERIALIZER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "dataflow/data_collection.h"
#include "storage/store.h"

namespace helix {
namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace obs

namespace runtime {

/// Background writer that persists results to an IntermediateStore off the
/// compute critical path. The store must be thread-safe (it is — see
/// storage/store.h). The writer is a single thread that takes requests in
/// enqueue order. A helping Drain(owner) writes that owner's later
/// requests while the writer may still have an earlier one in flight, so
/// one owner's writes can overlap by one and complete out of order;
/// outcomes are still returned in enqueue order.
///
/// Thread safety: Enqueue/Drain/Pending are safe from any thread;
/// multiple producers may enqueue concurrently. Ownership: the store is
/// borrowed and must outlive the materializer; Requests (and their
/// shared-payload DataCollections) are owned by the queue until written.
/// Failure modes: a failed Put never aborts the pipeline — the Status is
/// carried in the corresponding Outcome and the caller decides (the
/// executor demotes it to a skipped materialization).
class AsyncMaterializer {
 public:
  /// One pending materialization. `data` shares its payload with the
  /// executor's in-memory result — enqueueing copies a pointer, not data.
  struct Request {
    int node = -1;  // caller-defined tag (executor: DAG node id)
    uint64_t signature = 0;
    std::string node_name;
    dataflow::DataCollection data;
    int64_t iteration = 0;
    /// Producer's measured compute cost, forwarded to the store for
    /// eviction retention scoring (-1 = unknown).
    int64_t compute_micros = -1;
    /// Session tag for per-owner draining on a shared materializer
    /// (0 = the single-session default).
    uint64_t owner = 0;
    /// Payload bytes this request keeps alive while queued or writing.
    /// Filled by Enqueue from `data` (callers need not set it).
    int64_t size_bytes = 0;
    /// Enqueue order, filled by Enqueue (callers need not set it).
    uint64_t seq = 0;
  };

  /// Result of one attempted write.
  struct Outcome {
    int node = -1;
    uint64_t signature = 0;
    std::string node_name;
    Status status;             // Put's verdict (may be ResourceExhausted)
    int64_t write_micros = 0;  // measured write cost when status is OK
    uint64_t owner = 0;        // echo of Request::owner
  };

  /// Default Enqueue back-pressure threshold (see max_queue_bytes).
  static constexpr int64_t kDefaultMaxQueueBytes = 256LL << 20;

  /// `store` must outlive the materializer. `max_queue_bytes` bounds the
  /// payload bytes held alive by queued + in-flight requests: without a
  /// bound, a burst of large Puts pins every serialized buffer
  /// simultaneously — exactly the RAM spike memory planning schedules
  /// against. <= 0 disables the bound (legacy behavior).
  explicit AsyncMaterializer(storage::IntermediateStore* store,
                             int64_t max_queue_bytes = kDefaultMaxQueueBytes);

  /// Drains outstanding writes (all owners), then stops the writer thread.
  ~AsyncMaterializer();

  AsyncMaterializer(const AsyncMaterializer&) = delete;
  AsyncMaterializer& operator=(const AsyncMaterializer&) = delete;

  /// Queues a write. Returns immediately while queued payload bytes stay
  /// under max_queue_bytes; otherwise blocks the producer until the writer
  /// frees room (back-pressure: the producer re-enters its compute loop
  /// only as fast as the store absorbs writes). A request larger than the
  /// whole bound is admitted alone — when nothing is queued ahead of it —
  /// so it can never deadlock the pipeline.
  void Enqueue(Request request);

  /// Payload bytes currently held by queued + in-flight requests.
  int64_t QueuedBytes() const;

  /// Blocks until every write enqueued so far — any owner — has been
  /// attempted, then returns (and clears) their outcomes in enqueue
  /// order. Does not help. Only meaningful for a single-owner
  /// materializer: under concurrent producers this waits for a
  /// momentarily empty queue.
  std::vector<Outcome> Drain();

  /// Writes every request of `owner` still queued on the calling thread,
  /// oldest first, then blocks until the one the writer may have in
  /// flight is attempted too, and returns (and clears) that owner's
  /// outcomes in enqueue order. Other owners' queued requests are left to
  /// the writer: they are neither written, waited for, nor returned —
  /// their own Drain still sees them. Each helped write frees its queue
  /// bytes for back-pressured producers as it completes.
  std::vector<Outcome> Drain(uint64_t owner);

  /// Writes queued or executing right now (diagnostics).
  size_t Pending() const;

  /// Writes queued or executing right now for `owner` (diagnostics).
  size_t Pending(uint64_t owner) const;

  /// Registers `<prefix>.queue_depth` / `<prefix>.queue_bytes` (gauges),
  /// `<prefix>.write_micros` (histogram of successful Put latencies) and
  /// `<prefix>.writes_ok` / `<prefix>.writes_failed` /
  /// `<prefix>.writes_helped` (counters; the last counts writes a helping
  /// Drain performed) in `registry` and starts updating them.
  void EnableTelemetry(obs::MetricsRegistry* registry,
                       const std::string& prefix = "materializer");

 private:
  // An attempted request's outcome, keyed by Request::seq.
  struct Finished {
    uint64_t seq = 0;
    Outcome outcome;
  };

  void WriterLoop();
  // Runs `request`'s Put with mu_ released and records its outcome.
  // `lock` holds mu_ on entry and on return.
  void Write(std::unique_lock<std::mutex>* lock, Request request,
             bool helped);

  storage::IntermediateStore* store_;
  const int64_t max_queue_bytes_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;     // wakes the writer
  std::condition_variable drained_cv_;  // wakes Drain (any flavor)
  std::condition_variable space_cv_;    // wakes Enqueue back-pressure waits
  std::deque<Request> queue_;
  int64_t queued_bytes_ = 0;  // payload bytes queued + in-flight
  uint64_t next_seq_ = 0;
  std::vector<Finished> outcomes_;  // ordered by seq (enqueue order)
  // Queued + in-flight request count per owner; the entry is erased when
  // it reaches zero, so the map stays bounded by live owners.
  std::unordered_map<uint64_t, size_t> pending_per_owner_;
  int in_flight_ = 0;  // Puts executing right now (writer + helpers)
  bool shutdown_ = false;

  // Telemetry (null until EnableTelemetry; pointers written under mu_).
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* queue_bytes_ = nullptr;
  obs::Histogram* write_micros_ = nullptr;
  obs::Counter* writes_ok_ = nullptr;
  obs::Counter* writes_failed_ = nullptr;
  obs::Counter* writes_helped_ = nullptr;

  std::thread writer_;
};

}  // namespace runtime
}  // namespace helix

#endif  // HELIX_RUNTIME_ASYNC_MATERIALIZER_H_
