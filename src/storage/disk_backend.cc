#include "storage/disk_backend.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/strings.h"
#include "dataflow/simd.h"

namespace helix {
namespace storage {

namespace {

constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".log";

constexpr uint8_t kRecordPut = 1;
constexpr uint8_t kRecordTombstone = 2;

// Segment file header: "HLXS" little-endian, then the format version.
// v3 footers record the envelope's CRC32C where v2 footers held a
// semantic fingerprint; a v2 (or older) segment replays as retired.
constexpr uint32_t kSegmentMagic = 0x53584C48;
constexpr uint32_t kSegmentVersion = 3;
constexpr int64_t kSegmentHeaderBytes = 4 + 4;
// Record framing: u32 body length before the body, u32 CRC32C after it.
constexpr size_t kRecordTrailerBytes = 4;
// PUT footer: signature, six metadata fields, payload length, name
// length, record type (last, so a body parses from its end).
constexpr size_t kPutFooterBytes = 8 + 6 * 8 + 8 + 4 + 1;
constexpr size_t kTombstoneBodyBytes = 8 + 1;
// Compact once dead bytes exceed this floor and half the file bytes.
constexpr int64_t kCompactMinDeadBytes = 4LL << 20;
// writev/preadv take at most IOV_MAX pieces (EINVAL beyond); a gathered
// record of a wide table has several spans per column, so larger lists
// go out as consecutive calls.
constexpr size_t kMaxIovPerCall = IOV_MAX;

uint32_t LoadLe32(const char* p) {
  return ByteReader(std::string_view(p, 4)).GetU32().value();
}

struct ParsedRecord {
  uint8_t type = 0;
  StoreEntry meta;
  std::string_view payload;  // aliases the parsed body
};

// Checks one record body against its CRC32C trailer and parses it. A PUT
// body is payload, node name, footer; a TOMBSTONE is the signature and
// the type byte. The payload leads so a read lands it at offset 0 of its
// buffer and drops the rest in place.
Result<ParsedRecord> VerifyAndParse(std::string_view body,
                                    const char* trailer) {
  if (LoadLe32(trailer) != dataflow::simd::Crc32c(body.data(), body.size())) {
    return Status::Corruption("segment record checksum mismatch");
  }
  ParsedRecord rec;
  if (body.empty()) {
    return Status::Corruption("empty segment record");
  }
  rec.type = static_cast<uint8_t>(body.back());
  if (rec.type == kRecordTombstone) {
    if (body.size() != kTombstoneBodyBytes) {
      return Status::Corruption("malformed tombstone record");
    }
    rec.meta.signature = ByteReader(body).GetU64().value();
    return rec;
  }
  if (rec.type != kRecordPut || body.size() < kPutFooterBytes) {
    return Status::Corruption("unknown or short segment record");
  }
  ByteReader r(body.substr(body.size() - kPutFooterBytes));
  rec.meta.signature = r.GetU64().value();
  rec.meta.size_bytes = r.GetI64().value();
  rec.meta.write_micros = r.GetI64().value();
  rec.meta.load_micros = r.GetI64().value();
  rec.meta.compute_micros = r.GetI64().value();
  rec.meta.iteration = r.GetI64().value();
  rec.meta.envelope_crc = r.GetU64().value();
  uint64_t payload_len = r.GetU64().value();
  uint32_t name_len = r.GetU32().value();
  uint64_t head = body.size() - kPutFooterBytes;
  if (payload_len > head || name_len != head - payload_len) {
    return Status::Corruption("segment record lengths disagree");
  }
  rec.payload = body.substr(0, payload_len);
  rec.meta.node_name.assign(body.substr(payload_len, name_len));
  return rec;
}

// Node name then footer: everything of a PUT body after the payload.
std::string BuildPutTail(const StoreEntry& meta, size_t payload_len) {
  ByteWriter w;
  w.Reserve(meta.node_name.size() + kPutFooterBytes);
  w.PutRaw(meta.node_name.data(), meta.node_name.size());
  w.PutU64(meta.signature);
  w.PutI64(meta.size_bytes);
  w.PutI64(meta.write_micros);
  w.PutI64(meta.load_micros);
  w.PutI64(meta.compute_micros);
  w.PutI64(meta.iteration);
  w.PutU64(meta.envelope_crc);
  w.PutU64(payload_len);
  w.PutU32(static_cast<uint32_t>(meta.node_name.size()));
  w.PutU8(kRecordPut);
  return w.TakeData();
}

// Closes a file descriptor when it goes out of scope.
class FdCloser {
 public:
  explicit FdCloser(int fd) : fd_(fd) {}
  ~FdCloser() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  FdCloser(const FdCloser&) = delete;
  FdCloser& operator=(const FdCloser&) = delete;

 private:
  const int fd_;
};

// Transfers every byte of `iov` with (p)readv/writev, at most
// kMaxIovPerCall pieces per call, resuming after short transfers and
// EINTR. `offset` < 0 writes at the file position.
Status TransferAll(int fd, std::vector<iovec> iov, int64_t offset,
                   bool is_read) {
  size_t first = 0;
  while (first < iov.size()) {
    int count =
        static_cast<int>(std::min(iov.size() - first, kMaxIovPerCall));
    ssize_t n = is_read ? ::preadv(fd, &iov[first], count, offset)
                        : ::writev(fd, &iov[first], count);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n <= 0) {
      return Status::IOError(n == 0 ? "unexpected end of segment file"
                                    : std::strerror(errno));
    }
    if (offset >= 0) {
      offset += n;
    }
    size_t done = static_cast<size_t>(n);
    while (first < iov.size() && done >= iov[first].iov_len) {
      done -= iov[first].iov_len;
      ++first;
    }
    if (done > 0) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + done;
      iov[first].iov_len -= done;
    }
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<DiskBackend>> DiskBackend::Open(
    const std::string& dir, const DiskBackendOptions& options) {
  if (options.segment_max_bytes <= 0) {
    return Status::InvalidArgument("segment_max_bytes must be positive");
  }
  HELIX_RETURN_IF_ERROR(MakeDirs(dir));
  return std::unique_ptr<DiskBackend>(new DiskBackend(dir, options));
}

std::string DiskBackend::SegmentPath(uint64_t id) const {
  return JoinPath(dir_, StrFormat("%s%06llu%s", kSegmentPrefix,
                                  (unsigned long long)id, kSegmentSuffix));
}

Result<std::vector<StoreEntry>> DiskBackend::Recover() {
  std::lock_guard<std::mutex> lock(mu_);
  HELIX_ASSIGN_OR_RETURN(std::vector<std::string> files, ListFiles(dir_));
  std::vector<uint64_t> ids;
  for (const std::string& name : files) {
    size_t prefix_len = sizeof(kSegmentPrefix) - 1;
    size_t suffix_len = sizeof(kSegmentSuffix) - 1;
    if (name.size() <= prefix_len + suffix_len ||
        name.compare(0, prefix_len, kSegmentPrefix) != 0 ||
        name.compare(name.size() - suffix_len, suffix_len, kSegmentSuffix) !=
            0) {
      continue;  // foreign file; ignore
    }
    std::string digits =
        name.substr(prefix_len, name.size() - prefix_len - suffix_len);
    char* end = nullptr;
    unsigned long long id = std::strtoull(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || id == 0) {
      continue;
    }
    ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  bool last_clean = true;
  for (uint64_t id : ids) {
    HELIX_RETURN_IF_ERROR(ReplaySegment(id, &last_clean));
  }
  // A torn-tailed final segment is sealed, never appended to again: a
  // record written after the tear would be unreachable on the next replay
  // (which stops at the tear), silently losing an acknowledged write.
  // Leaving active_segment_ at 0 forces the next Write onto a fresh file.
  active_segment_ = (ids.empty() || !last_clean) ? 0 : ids.back();
  std::vector<StoreEntry> out;
  out.reserve(meta_.size());
  for (const auto& [sig, entry] : meta_) {
    (void)sig;
    out.push_back(entry);
  }
  // Deterministic order for the store's shard population (and tests).
  std::sort(out.begin(), out.end(),
            [](const StoreEntry& a, const StoreEntry& b) {
              return a.signature < b.signature;
            });
  return out;
}

Status DiskBackend::ReplaySegment(uint64_t id, bool* clean_out) {
  HELIX_ASSIGN_OR_RETURN(std::string data,
                         ReadFileToString(SegmentPath(id)));
  Segment& seg = segments_[id];
  seg.file_bytes = static_cast<int64_t>(data.size());
  seg.live_bytes = 0;
  *clean_out = true;
  // An empty file gets the header with its first append. A file without
  // the header (a retired format, or a header torn mid-write) replays
  // nothing and is sealed: its bytes count as dead, the next compaction
  // deletes it, and its entries are store misses that recompute.
  if (data.empty()) {
    return Status::OK();
  }
  if (data.size() < static_cast<size_t>(kSegmentHeaderBytes) ||
      LoadLe32(data.data()) != kSegmentMagic ||
      LoadLe32(data.data() + 4) != kSegmentVersion) {
    HELIX_LOG(Warning) << "segment " << id
                       << " has no current segment header; sealing it "
                          "unreplayed";
    *clean_out = false;
    return Status::OK();
  }
  size_t pos = kSegmentHeaderBytes;
  while (pos + 4 <= data.size()) {
    uint32_t body_len = LoadLe32(data.data() + pos);
    size_t frame = 4 + static_cast<size_t>(body_len) + kRecordTrailerBytes;
    if (pos + frame > data.size()) {
      // Torn tail from a crash mid-append: keep everything before it.
      HELIX_LOG(Warning) << "segment " << id << " ends in a torn record at "
                         << pos << "; dropping the tail";
      *clean_out = false;
      break;
    }
    auto rec = VerifyAndParse(std::string_view(data.data() + pos + 4, body_len),
                              data.data() + pos + 4 + body_len);
    if (!rec.ok()) {
      HELIX_LOG(Warning) << "segment " << id << " record at " << pos
                         << " fails verification; dropping the tail: "
                         << rec.status().ToString();
      *clean_out = false;
      break;
    }
    uint64_t sig = rec.value().meta.signature;
    // Last record wins: retire whatever this signature pointed at before.
    auto prev = index_.find(sig);
    if (prev != index_.end()) {
      segments_[prev->second.segment].live_bytes -= prev->second.record_bytes;
      index_.erase(prev);
      meta_.erase(sig);
    }
    if (rec.value().type == kRecordPut) {
      Location loc;
      loc.segment = id;
      loc.offset = static_cast<int64_t>(pos) + 4;
      loc.length = body_len;
      loc.record_bytes = static_cast<int64_t>(frame);
      index_[sig] = loc;
      meta_[sig] = std::move(rec.value().meta);
      seg.live_bytes += loc.record_bytes;
    }
    pos += frame;
  }
  if (*clean_out && pos != data.size()) {
    // Trailing sub-header bytes (fewer than a frame header): also a tear.
    HELIX_LOG(Warning) << "segment " << id << " has " << (data.size() - pos)
                       << " trailing bytes; sealing";
    *clean_out = false;
  }
  return Status::OK();
}

Status DiskBackend::AppendRecordLocked(uint64_t segment_id,
                                       const ByteSpan* body, size_t pieces,
                                       Location* loc) {
  Segment& seg = segments_[segment_id];
  uint64_t body_len = 0;
  for (size_t i = 0; i < pieces; ++i) {
    body_len += body[i].len;
  }
  // Header (file header first on a fresh segment) and CRC trailer go out
  // with the borrowed body pieces as one gathered write (split only at
  // kMaxIovPerCall): the payload is never copied into a record buffer.
  ByteWriter head;
  if (seg.file_bytes == 0) {
    head.PutU32(kSegmentMagic);
    head.PutU32(kSegmentVersion);
  }
  head.PutU32(static_cast<uint32_t>(body_len));
  ByteWriter trailer;
  trailer.PutU32(dataflow::simd::Crc32c(body, pieces));
  std::vector<iovec> iov;
  iov.reserve(pieces + 2);
  iov.push_back({const_cast<char*>(head.data().data()), head.size()});
  for (size_t i = 0; i < pieces; ++i) {
    iov.push_back({const_cast<char*>(body[i].data), body[i].len});
  }
  iov.push_back({const_cast<char*>(trailer.data().data()), trailer.size()});
  int64_t total =
      static_cast<int64_t>(head.size() + body_len + kRecordTrailerBytes);

  const std::string path = SegmentPath(segment_id);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError("cannot open segment for append: " + path);
  }
  FdCloser closer(fd);
  Status written = TransferAll(fd, std::move(iov), -1, /*is_read=*/false);
  if (!written.ok()) {
    // The file may now end in a torn record; never append after it again
    // (replay would stop at the tear and lose later good records).
    seg.file_bytes += total;
    active_segment_ = 0;
    return Status::IOError("segment append failed: " + path + ": " +
                           written.message());
  }
  loc->segment = segment_id;
  loc->offset = seg.file_bytes + static_cast<int64_t>(head.size());
  loc->length = static_cast<int64_t>(body_len);
  loc->record_bytes =
      4 + static_cast<int64_t>(body_len) + kRecordTrailerBytes;
  seg.file_bytes += total;
  return Status::OK();
}

Status DiskBackend::AppendPutLocked(const StoreEntry& meta,
                                    const ByteSpan* payload, size_t n,
                                    size_t payload_len) {
  std::string tail = BuildPutTail(meta, payload_len);
  std::vector<ByteSpan> body(payload, payload + n);
  body.push_back({tail.data(), tail.size()});
  Location loc;
  HELIX_RETURN_IF_ERROR(
      AppendRecordLocked(active_segment_, body.data(), body.size(), &loc));
  index_[meta.signature] = loc;
  segments_[loc.segment].live_bytes += loc.record_bytes;
  return Status::OK();
}

Status DiskBackend::RollIfNeededLocked() {
  if (active_segment_ != 0 &&
      segments_[active_segment_].file_bytes < options_.segment_max_bytes) {
    return Status::OK();
  }
  uint64_t next = segments_.empty() ? 1 : segments_.rbegin()->first + 1;
  segments_[next];  // creates the accounting slot; file appears on append
  active_segment_ = next;
  return Status::OK();
}

Status DiskBackend::DropSegmentIfDeadLocked(uint64_t id) {
  auto it = segments_.find(id);
  if (it == segments_.end() || it->second.live_bytes > 0 ||
      id == active_segment_) {
    return Status::OK();
  }
  HELIX_RETURN_IF_ERROR(RemoveFileIfExists(SegmentPath(id)));
  segments_.erase(it);
  return Status::OK();
}

Status DiskBackend::Write(const StoreEntry& meta, const ByteSpan* payload,
                          size_t n) {
  size_t payload_len = 0;
  for (size_t i = 0; i < n; ++i) {
    payload_len += payload[i].len;
  }
  // The record length prefix is a u32: refuse before appending anything,
  // or the wrapped length would fail replay there and seal the segment,
  // silently dropping every later acknowledged record.
  uint64_t body_len = payload_len + meta.node_name.size() + kPutFooterBytes;
  if (body_len > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(StrFormat(
        "a %llu-byte record exceeds the 4 GiB segment record limit",
        static_cast<unsigned long long>(body_len)));
  }
  std::lock_guard<std::mutex> lock(mu_);
  HELIX_RETURN_IF_ERROR(RollIfNeededLocked());
  std::optional<Location> prev;
  if (auto it = index_.find(meta.signature); it != index_.end()) {
    prev = it->second;
  }
  HELIX_RETURN_IF_ERROR(AppendPutLocked(meta, payload, n, payload_len));
  if (prev.has_value()) {
    segments_[prev->segment].live_bytes -= prev->record_bytes;
    HELIX_RETURN_IF_ERROR(DropSegmentIfDeadLocked(prev->segment));
  }
  meta_[meta.signature] = meta;
  return MaybeCompactLocked();
}

Result<std::string> DiskBackend::Read(uint64_t signature) {
  // File I/O happens outside the mutex so loads of different entries
  // overlap. Segments are append-only, so a snapshotted location normally
  // stays valid — but a concurrent Compact (or an overwrite of this very
  // signature) can move or delete the record under us. On any read
  // failure, re-resolve the location and retry once if it moved; only a
  // failure at a *stable* location is real corruption.
  Location loc;
  for (int attempt = 0;; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = index_.find(signature);
      if (it == index_.end()) {
        return Status::NotFound("no payload in disk backend");
      }
      if (attempt > 0 && it->second.segment == loc.segment &&
          it->second.offset == loc.offset) {
        return Status::Corruption("segment record unreadable or corrupt: " +
                                  SegmentPath(loc.segment));
      }
      loc = it->second;
    }
    auto payload = ReadAt(signature, loc);
    if (payload.ok()) {
      return payload;
    }
  }
}

Result<std::string> DiskBackend::ReadAt(uint64_t signature,
                                        const Location& loc) const {
  // One preadv: the length prefix into a small buffer, body and trailer
  // into the string that is returned.
  const std::string path = SegmentPath(loc.segment);
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::Corruption("segment file unreadable: " + path);
  }
  FdCloser closer(fd);
  std::string buf(static_cast<size_t>(loc.length) + kRecordTrailerBytes,
                  '\0');
  char prefix[4] = {};
  Status read = TransferAll(
      fd, {{prefix, sizeof(prefix)}, {buf.data(), buf.size()}},
      loc.offset - 4, /*is_read=*/true);
  if (!read.ok()) {
    return Status::Corruption("segment record truncated on read: " +
                              read.message());
  }
  if (LoadLe32(prefix) != static_cast<uint64_t>(loc.length)) {
    return Status::Corruption("segment record length prefix mismatch");
  }
  std::string_view body(buf.data(), static_cast<size_t>(loc.length));
  HELIX_ASSIGN_OR_RETURN(ParsedRecord rec,
                         VerifyAndParse(body, buf.data() + body.size()));
  if (rec.type != kRecordPut || rec.meta.signature != signature) {
    return Status::Corruption("segment record does not match signature");
  }
  // The body leads with the payload: drop the rest in place, no copy.
  buf.resize(rec.payload.size());
  return buf;
}

Status DiskBackend::Delete(uint64_t signature) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(signature);
  if (it == index_.end()) {
    return Status::OK();  // absent on disk too (index mirrors replay state)
  }
  uint64_t owner = it->second.segment;
  segments_[owner].live_bytes -= it->second.record_bytes;
  index_.erase(it);
  meta_.erase(signature);
  // Durable deletion: a tombstone in the log outlives a crash. Appended
  // after the index update so even on append failure the in-memory state
  // is consistent (the entry can at worst resurrect on restart).
  HELIX_RETURN_IF_ERROR(RollIfNeededLocked());
  ByteWriter tombstone;
  tombstone.PutU64(signature);
  tombstone.PutU8(kRecordTombstone);
  ByteSpan body{tombstone.data().data(), tombstone.size()};
  Location ignored;
  Status appended = AppendRecordLocked(active_segment_, &body, 1, &ignored);
  HELIX_RETURN_IF_ERROR(DropSegmentIfDeadLocked(owner));
  HELIX_RETURN_IF_ERROR(MaybeCompactLocked());
  return appended;
}

Status DiskBackend::Compact() {
  std::lock_guard<std::mutex> lock(mu_);
  return CompactLocked();
}

Status DiskBackend::MaybeCompactLocked() {
  int64_t dead = DeadBytesLocked();
  int64_t total = 0;
  for (const auto& [id, seg] : segments_) {
    (void)id;
    total += seg.file_bytes;
  }
  if (dead < kCompactMinDeadBytes || dead * 2 < total) {
    return Status::OK();
  }
  return CompactLocked();
}

Status DiskBackend::CompactLocked() {
  // Stream live records into fresh segments one OLD segment at a time —
  // each old file is read exactly once and only one is in memory at any
  // moment — then drop every old file, sealed headerless ones included. A
  // record that fails verification here is dropped (same
  // degrade-to-recompute contract as Read).
  std::map<uint64_t, std::vector<std::pair<int64_t, uint64_t>>> by_segment;
  for (const auto& [sig, loc] : index_) {
    by_segment[loc.segment].emplace_back(loc.offset, sig);
  }
  std::vector<uint64_t> old_ids;
  for (const auto& [id, seg] : segments_) {
    (void)seg;
    old_ids.push_back(id);
  }
  std::unordered_map<uint64_t, Location> old_index = std::move(index_);

  uint64_t next = segments_.empty() ? 1 : segments_.rbegin()->first + 1;
  index_.clear();
  segments_[next];
  active_segment_ = next;
  for (auto& [old_id, records] : by_segment) {
    auto file = ReadFileToString(SegmentPath(old_id));
    if (!file.ok()) {
      HELIX_LOG(Warning) << "compaction drops unreadable segment " << old_id
                         << ": " << file.status().ToString();
      for (const auto& [offset, sig] : records) {
        (void)offset;
        meta_.erase(sig);
      }
      continue;
    }
    std::string_view bytes = file.value();
    std::sort(records.begin(), records.end());  // sequential old-file order
    for (const auto& [offset, sig] : records) {
      const Location& loc = old_index[sig];
      Result<ParsedRecord> rec = Status::Corruption("truncated record");
      if (bytes.size() >= static_cast<size_t>(offset + loc.length) +
                              kRecordTrailerBytes) {
        rec = VerifyAndParse(bytes.substr(static_cast<size_t>(offset),
                                          static_cast<size_t>(loc.length)),
                             bytes.data() + offset + loc.length);
      }
      if (!rec.ok() || rec.value().type != kRecordPut) {
        // Verified here, before the rewrite gives it a fresh checksum.
        HELIX_LOG(Warning) << "compaction drops corrupt record for "
                           << HashToHex(sig);
        meta_.erase(sig);
        continue;
      }
      if (segments_[active_segment_].file_bytes >=
          options_.segment_max_bytes) {
        ++next;
        segments_[next];
        active_segment_ = next;
      }
      std::string_view payload = rec.value().payload;
      ByteSpan span{payload.data(), payload.size()};
      HELIX_RETURN_IF_ERROR(
          AppendPutLocked(rec.value().meta, &span, 1, payload.size()));
    }
  }
  for (uint64_t id : old_ids) {
    HELIX_RETURN_IF_ERROR(RemoveFileIfExists(SegmentPath(id)));
    segments_.erase(id);
  }
  return Status::OK();
}

int64_t DiskBackend::DeadBytesLocked() const {
  int64_t dead = 0;
  for (const auto& [id, seg] : segments_) {
    (void)id;
    // A file's first 8 bytes are its header, which belongs to no record
    // and is never dead (a sealed headerless file's first 8 are skipped
    // alike; compaction deletes that file whatever its count).
    dead += seg.file_bytes - std::min(seg.file_bytes, kSegmentHeaderBytes) -
            seg.live_bytes;
  }
  return dead;
}

size_t DiskBackend::NumIndexed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

size_t DiskBackend::NumSegments() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segments_.size();
}

int64_t DiskBackend::DeadBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return DeadBytesLocked();
}

}  // namespace storage
}  // namespace helix
