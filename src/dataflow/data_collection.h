// DataCollection: the unit of data flowing along workflow DAG edges.
//
// In the paper every DAG node is an intermediate result; here that result is
// a DataCollection — a cheap, shareable handle to an immutable payload. The
// serialization envelope (magic, version, kind tag, body, trailing CRC32C)
// is what the materialization store writes to disk and FetchOutput sends;
// a standalone envelope is verified against its checksum so a corrupt one
// degrades to recomputation. Inside a container that checksums its own
// bytes (a disk segment record, a wire frame) the envelope's trailer is
// not hashed a second time: one checksum per byte per container.
#ifndef HELIX_DATAFLOW_DATA_COLLECTION_H_
#define HELIX_DATAFLOW_DATA_COLLECTION_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "dataflow/examples.h"
#include "dataflow/metrics.h"
#include "dataflow/model.h"
#include "dataflow/payload.h"
#include "dataflow/table.h"
#include "dataflow/text.h"

namespace helix {
namespace dataflow {

/// Shared, immutable handle to a payload. Copying a DataCollection copies a
/// pointer, never data.
class DataCollection {
 public:
  DataCollection() = default;
  explicit DataCollection(std::shared_ptr<const DataPayload> payload)
      : payload_(std::move(payload)) {}

  static DataCollection FromTable(std::shared_ptr<const TableData> t) {
    return DataCollection(std::move(t));
  }
  static DataCollection FromText(std::shared_ptr<TextData> t) {
    return DataCollection(std::move(t));
  }
  static DataCollection FromExamples(std::shared_ptr<ExamplesData> e) {
    return DataCollection(std::move(e));
  }
  static DataCollection FromModel(std::shared_ptr<ModelData> m) {
    return DataCollection(std::move(m));
  }
  static DataCollection FromMetrics(std::shared_ptr<MetricsData> m) {
    return DataCollection(std::move(m));
  }

  bool empty() const { return payload_ == nullptr; }
  PayloadKind kind() const { return payload_->kind(); }
  const DataPayload* payload() const { return payload_.get(); }

  int64_t SizeBytes() const { return empty() ? 0 : payload_->SizeBytes(); }
  uint64_t Fingerprint() const {
    return empty() ? 0 : payload_->Fingerprint();
  }
  std::string DebugString() const {
    return empty() ? "<empty>" : payload_->DebugString();
  }

  /// Typed accessors; InvalidArgument if the payload kind differs.
  Result<const TableData*> AsTable() const;
  Result<const TextData*> AsText() const;
  Result<const ExamplesData*> AsExamples() const;
  Result<const ModelData*> AsModel() const;
  Result<const MetricsData*> AsMetrics() const;

  /// Serializes with envelope (magic, format version, kind, body, CRC32C
  /// of everything before the checksum) into one contiguous buffer,
  /// size-estimated and reserved up front. Always writes the current
  /// format version (v3). The store and the wire emit the same bytes
  /// through SerializeToSpans instead.
  std::string SerializeToString() const;

  /// Zero-copy variant of SerializeToString: appends the identical
  /// envelope bytes to `s` as a span list, borrowing column bodies from
  /// the in-memory payload instead of copying them. The payload (this
  /// handle, or another share of it) must stay alive until the spans are
  /// consumed. The trailing checksum is computed by streaming over the
  /// emitted spans, so Flatten() of the list deserializes like a
  /// SerializeToString buffer. Bytes already in `s` are left untouched
  /// and excluded from the checksum. Returns that checksum (the trailer's
  /// CRC32C), which the store records as the entry's envelope_crc.
  uint32_t SerializeToSpans(SpanWriter* s) const;

  /// Hashes an envelope's bytes before the trailer and returns the CRC32C
  /// when it matches the trailer; Corruption on a mismatch or a buffer
  /// too short to hold a header and trailer. Header fields are not
  /// parsed.
  static Result<uint32_t> VerifyEnvelopeCrc(std::string_view data);

  /// Parses and checksum-verifies an envelope produced by
  /// SerializeToString. Only the current version (v3) is read: a retired
  /// or unknown version is Corruption, like any other mismatch, so a
  /// stored envelope of an older build is a miss that recomputes.
  static Result<DataCollection> DeserializeFromString(std::string_view data);

  /// Same parse, for bytes a container checksum already verified (a
  /// storage backend record, a wire frame) or that never left the
  /// process: the trailer must be present but is not hashed again. Every
  /// structural check still runs, so damaged bytes fail closed as
  /// Corruption (or decode to some other well-formed payload) — never a
  /// crash or an allocation the buffer cannot back.
  static Result<DataCollection> DeserializeVerified(std::string_view data);

 private:
  std::shared_ptr<const DataPayload> payload_;
};

}  // namespace dataflow
}  // namespace helix

#endif  // HELIX_DATAFLOW_DATA_COLLECTION_H_
