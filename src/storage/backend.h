// StorageBackend: the pluggable payload layer under the IntermediateStore.
//
// The store separates *what* is cached (the metadata index, budget
// accounting, eviction policy — storage/store.h) from *where* payload bytes
// live. A backend is a flat keyed blob space: serialized DataCollection
// envelopes keyed by the producing node's cumulative Merkle signature.
// Two implementations ship today: MemoryBackend (storage/memory_backend.h)
// and DiskBackend (storage/disk_backend.h, append-only segment files).
#ifndef HELIX_STORAGE_BACKEND_H_
#define HELIX_STORAGE_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/spans.h"
#include "common/status.h"

namespace helix {
namespace storage {

/// Selects the payload backend an IntermediateStore runs on.
enum class StorageBackendKind : uint8_t {
  /// Append-only segment files on disk; survives process restart.
  kDisk = 0,
  /// In-process map; fastest, forgets everything at destruction.
  kMemory = 1,
};

const char* StorageBackendKindToString(StorageBackendKind kind);

/// Manifest record for one stored result. The store keeps these in its
/// index; persistent backends also embed them in their on-disk
/// records so the index can be rebuilt on open.
struct StoreEntry {
  uint64_t signature = 0;      // cumulative Merkle signature (the key)
  std::string node_name;       // producing operator (diagnostics/reports)
  int64_t size_bytes = 0;      // serialized payload size
  int64_t write_micros = 0;    // measured materialization cost
  int64_t load_micros = -1;    // last measured load cost (-1 = never loaded)
  int64_t compute_micros = -1; // producer's compute cost (-1 = unknown);
                               // feeds the eviction retention score
  int64_t iteration = -1;      // iteration that wrote the entry
  uint64_t envelope_crc = 0;   // the payload envelope's CRC32C trailer as
                               // Put emitted it (0 = not recorded); a
                               // paranoid Get checks the bytes it reads
                               // against it
};

/// Flat blob storage keyed by signature.
///
/// Contract for implementations:
///   * Thread safety — every method must be safe to call concurrently;
///     the store deliberately performs backend Read/Write outside its
///     index lock so reads of different entries can overlap.
///   * Ownership — backends own their resources (maps, file handles);
///     the store owns the backend and destroys it on close. Destruction
///     must not lose writes that already returned OK.
///   * Failure modes — Read returns NotFound for unknown signatures and
///     Corruption when stored bytes fail verification; the store reacts
///     to either by evicting the index entry so callers fall back to
///     recomputation. Write/Delete return IOError on environmental
///     failure; the store surfaces those to the materialization path,
///     which degrades to "skip persisting" rather than aborting.
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Enumerates the entries that survived in this backend, called exactly
  /// once — at store open, before any concurrency. Volatile backends
  /// return an empty vector; persistent backends replay their on-disk
  /// state (tolerating a torn tail from a crash) and return every entry
  /// whose payload is intact.
  virtual Result<std::vector<StoreEntry>> Recover() = 0;

  /// Durably associates the payload with `meta.signature`, overwriting any
  /// previous association. The payload is the concatenation of the `n`
  /// spans at `payload`, in order: the materialization path hands over the
  /// envelope exactly as DataCollection::SerializeToSpans emitted it —
  /// header fields interleaved with column bodies borrowed from the live
  /// result — so no contiguous copy of the payload is ever built. The
  /// spans are borrowed for the duration of the call only; a backend that
  /// keeps the bytes (MemoryBackend) copies them, a persistent one
  /// (DiskBackend) gathers them straight into its file. `meta` must
  /// describe the payload (in particular meta.size_bytes equals the spans'
  /// total length); persistent backends store the metadata alongside it
  /// for Recover. `n` may be 0 (an empty payload) and is not bounded by
  /// any system iovec limit.
  virtual Status Write(const StoreEntry& meta, const ByteSpan* payload,
                       size_t n) = 0;

  /// Returns the payload bytes for `signature`. NotFound if absent;
  /// Corruption if present but failing verification. The returned bytes
  /// are trusted as-is: a backend whose bytes leave the process (disk)
  /// must verify every one of them against its own record checksum,
  /// because the store decodes the envelope without re-hashing it (a
  /// backend that never lets them leave, like MemoryBackend, need not).
  virtual Result<std::string> Read(uint64_t signature) = 0;

  /// Removes `signature`; OK if absent. Persistent backends make the
  /// removal durable (tombstones) so deleted entries stay deleted across
  /// restart.
  virtual Status Delete(uint64_t signature) = 0;
};

}  // namespace storage
}  // namespace helix

#endif  // HELIX_STORAGE_BACKEND_H_
