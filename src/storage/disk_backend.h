// Disk payload backend: append-only segment files + in-memory index.
//
// Layout under the backend directory:
//
//   seg-000001.log, seg-000002.log, ...
//
// Each segment is a sequence of length-prefixed, checksummed records: a
// PUT record carries a StoreEntry's metadata plus the payload bytes; a
// TOMBSTONE records a deletion. A segment is an 8-byte file header (u32
// magic "HLXS", u32 version 3), then records
// [u32 body_len][body][u32 CRC32C(body)]. A PUT body is the payload, then
// the node name, then a fixed footer (signature, six metadata fields —
// the last the envelope's CRC32C — payload length, name length, type byte
// last); a TOMBSTONE body is the signature and the type byte. A file
// without that header (the retired v1 and v2 formats — v2 footers held a
// semantic fingerprint in the CRC's slot — or a header torn mid-write)
// replays no records and is never appended to; its bytes count as dead
// until compaction deletes it.
//
// Write streams one CRC over the borrowed payload spans and sends the
// header, the spans, the name and footer, and the trailer as gathered
// writev calls (IOV_MAX pieces at most per call), so the payload is never
// copied into a record buffer. Read lands the payload at offset 0
// of the string it returns with one preadv and checks the CRC once; the
// store then decodes the envelope without re-hashing it, so on load the
// record checksum is the only hash over a stored payload's bytes.
//
// Nothing is ever rewritten in place — Write and Delete only append to the
// newest ("active") segment, which rolls to a fresh file past a size
// threshold, so a crash can at worst tear the final record of the final
// segment.
//
// Open replays every segment in order to rebuild the signature -> location
// index (last record wins, tombstones erase). Replay stops at the first
// torn or checksum-failing record of a segment and keeps everything before
// it: the crash-tolerance contract is "all writes that completed are
// recovered; a torn tail is dropped silently".
//
// Space reclamation: segments whose live payload drops to zero are deleted
// eagerly; beyond that, when dead bytes exceed both a floor and half of
// the total file bytes, Compact rewrites live records into fresh segments.
#ifndef HELIX_STORAGE_DISK_BACKEND_H_
#define HELIX_STORAGE_DISK_BACKEND_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/spans.h"
#include "storage/backend.h"

namespace helix {
namespace storage {

/// Tuning knobs for a DiskBackend.
struct DiskBackendOptions {
  /// Roll to a new segment once the active one exceeds this many bytes.
  int64_t segment_max_bytes = 64LL << 20;
};

/// Append-only segmented log StorageBackend.
///
/// Thread safety: all methods are safe to call concurrently. One mutex
/// guards the index and all appends (writes are strictly serialized —
/// the store keeps them off the compute path via the async materializer);
/// Read resolves the location under the mutex but performs the actual
/// file read outside it, so loads of different entries overlap.
/// Ownership: owns its directory contents; destroying the backend closes
/// the active segment but deletes nothing.
/// Failure modes: Read returns NotFound for unknown signatures and
/// Corruption when the stored record fails its checksum; Write returns
/// InvalidArgument for a record of 4 GiB or more (its length prefix is a
/// u32); Write/Delete return IOError when the filesystem does. A failed
/// append never corrupts existing data (the torn record is dropped on
/// next open).
class DiskBackend final : public StorageBackend {
 public:
  /// Opens (creating if needed) a backend rooted at `dir`. The returned
  /// backend has NOT replayed its segments yet — the store calls Recover
  /// exactly once before first use.
  static Result<std::unique_ptr<DiskBackend>> Open(
      const std::string& dir, const DiskBackendOptions& options);

  Result<std::vector<StoreEntry>> Recover() override;
  Status Write(const StoreEntry& meta, const ByteSpan* payload,
               size_t n) override;
  Result<std::string> Read(uint64_t signature) override;
  Status Delete(uint64_t signature) override;

  /// Rewrites all live records into fresh segments and deletes the old
  /// ones, reclaiming tombstoned/overwritten space. Called automatically
  /// past the dead-bytes thresholds; exposed for tests. Blocks all other
  /// backend calls for the duration.
  Status Compact();

  /// Live payload locations currently indexed (diagnostics/tests).
  size_t NumIndexed() const;
  /// Segment files currently on disk (diagnostics/tests).
  size_t NumSegments() const;
  /// Bytes of dead (overwritten or tombstoned) records awaiting
  /// compaction (diagnostics/tests).
  int64_t DeadBytes() const;

 private:
  // Where one live record's full bytes (meta + payload) sit.
  struct Location {
    uint64_t segment = 0;  // segment id
    int64_t offset = 0;    // byte offset of the record body in the file
    int64_t length = 0;    // record body length
    int64_t record_bytes = 0;  // full footprint incl. framing (accounting)
  };
  struct Segment {
    int64_t file_bytes = 0;  // total bytes appended, file header included
    int64_t live_bytes = 0;  // bytes of records still referenced
  };

  DiskBackend(std::string dir, const DiskBackendOptions& options)
      : dir_(std::move(dir)), options_(options) {}

  std::string SegmentPath(uint64_t id) const;
  // Reads and verifies one record body at a snapshotted location; called
  // without mu_ (segments are append-only; Read retries stale locations).
  Result<std::string> ReadAt(uint64_t signature, const Location& loc) const;
  // *Locked methods require mu_.
  // Appends one record whose body is the concatenation of `pieces`
  // spans (borrowed, not copied) and reports where it landed.
  Status AppendRecordLocked(uint64_t segment_id, const ByteSpan* body,
                            size_t pieces, Location* loc);
  // Appends a PUT record whose payload is the `n` borrowed spans
  // (`payload_len` bytes in total) to the active segment and indexes it.
  Status AppendPutLocked(const StoreEntry& meta, const ByteSpan* payload,
                         size_t n, size_t payload_len);
  Status RollIfNeededLocked();
  Status DropSegmentIfDeadLocked(uint64_t id);
  Status CompactLocked();
  Status MaybeCompactLocked();
  int64_t DeadBytesLocked() const;
  // Replays one segment file into index_/segments_ (open-time only).
  // `clean_out` reports whether the whole file parsed (false = torn tail
  // dropped; such a segment must never become the append target again).
  Status ReplaySegment(uint64_t id, bool* clean_out);

  std::string dir_;
  DiskBackendOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, Location> index_;
  // Metadata mirrored per live signature so Compact can rewrite records
  // and Recover can hand entries back without re-reading payloads.
  std::unordered_map<uint64_t, StoreEntry> meta_;
  std::map<uint64_t, Segment> segments_;  // ordered: replay + active = last
  uint64_t active_segment_ = 0;           // 0 = none yet
};

}  // namespace storage
}  // namespace helix

#endif  // HELIX_STORAGE_DISK_BACKEND_H_
