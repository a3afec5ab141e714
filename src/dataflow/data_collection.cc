#include "dataflow/data_collection.h"

#include <vector>

#include "common/strings.h"
#include "dataflow/simd.h"

namespace helix {
namespace dataflow {

namespace {
// "HLXD" little-endian.
constexpr uint32_t kMagic = 0x44584C48;
// Envelope format v3: a 4-byte CRC32C trailer, tables column-contiguous
// (type tag + validity + packed body per column), examples one block per
// CSR array, and no bytes after the payload. Writers emit it and readers
// accept only it: a retired (v1/v2, FNV-64 trailer) or unknown version is
// Corruption, which the store treats as a miss that recomputes.
constexpr uint32_t kFormatVersion = 3;
constexpr size_t kHeaderBytes = 4 + 4 + 1;  // magic, version, kind
constexpr size_t kTrailerBytes = 4;         // CRC32C

// The one decode body behind both public entry points. The trailer must
// be present either way; `verify_trailer` says whether to hash the bytes
// against it, or whether a container checksum already covered them.
Result<DataCollection> Decode(std::string_view data, bool verify_trailer) {
  ByteReader header(data);
  HELIX_ASSIGN_OR_RETURN(uint32_t magic, header.GetU32());
  if (magic != kMagic) {
    return Status::Corruption("bad magic in data collection envelope");
  }
  HELIX_ASSIGN_OR_RETURN(uint32_t version, header.GetU32());
  if (version != kFormatVersion) {
    return Status::Corruption(
        StrFormat("unsupported format version %u", version));
  }
  if (data.size() < kHeaderBytes + kTrailerBytes) {
    return Status::Corruption("data collection buffer too short");
  }
  if (verify_trailer) {
    HELIX_RETURN_IF_ERROR(DataCollection::VerifyEnvelopeCrc(data).status());
  }
  std::string_view body = data.substr(0, data.size() - kTrailerBytes);

  ByteReader r(body.substr(header.pos()));
  HELIX_ASSIGN_OR_RETURN(uint8_t kind_tag, r.GetU8());
  DataCollection out;
  switch (static_cast<PayloadKind>(kind_tag)) {
    case PayloadKind::kTable: {
      HELIX_ASSIGN_OR_RETURN(auto t, TableData::Deserialize(&r));
      out = DataCollection::FromTable(std::move(t));
      break;
    }
    case PayloadKind::kText: {
      HELIX_ASSIGN_OR_RETURN(auto t, TextData::Deserialize(&r));
      out = DataCollection::FromText(std::move(t));
      break;
    }
    case PayloadKind::kExamples: {
      HELIX_ASSIGN_OR_RETURN(auto e, ExamplesData::Deserialize(&r));
      out = DataCollection::FromExamples(std::move(e));
      break;
    }
    case PayloadKind::kModel: {
      HELIX_ASSIGN_OR_RETURN(auto m, ModelData::Deserialize(&r));
      out = DataCollection::FromModel(std::move(m));
      break;
    }
    case PayloadKind::kMetrics: {
      HELIX_ASSIGN_OR_RETURN(auto m, MetricsData::Deserialize(&r));
      out = DataCollection::FromMetrics(std::move(m));
      break;
    }
    default:
      return Status::Corruption(
          StrFormat("bad payload kind tag %u", kind_tag));
  }
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after the envelope payload");
  }
  return out;
}

}  // namespace

Result<const TableData*> DataCollection::AsTable() const {
  if (empty() || kind() != PayloadKind::kTable) {
    return Status::InvalidArgument("payload is not a table");
  }
  return static_cast<const TableData*>(payload_.get());
}

Result<const TextData*> DataCollection::AsText() const {
  if (empty() || kind() != PayloadKind::kText) {
    return Status::InvalidArgument("payload is not a text corpus");
  }
  return static_cast<const TextData*>(payload_.get());
}

Result<const ExamplesData*> DataCollection::AsExamples() const {
  if (empty() || kind() != PayloadKind::kExamples) {
    return Status::InvalidArgument("payload is not an example set");
  }
  return static_cast<const ExamplesData*>(payload_.get());
}

Result<const ModelData*> DataCollection::AsModel() const {
  if (empty() || kind() != PayloadKind::kModel) {
    return Status::InvalidArgument("payload is not a model");
  }
  return static_cast<const ModelData*>(payload_.get());
}

Result<const MetricsData*> DataCollection::AsMetrics() const {
  if (empty() || kind() != PayloadKind::kMetrics) {
    return Status::InvalidArgument("payload is not a metrics map");
  }
  return static_cast<const MetricsData*>(payload_.get());
}

std::string DataCollection::SerializeToString() const {
  ByteWriter w;
  // SizeBytes approximates the serialized footprint closely for columnar
  // payloads; reserving up front makes the whole serialization a single
  // allocation instead of O(log size) grow-and-copy cycles.
  w.Reserve(static_cast<size_t>(SizeBytes()) + 64);
  w.PutU32(kMagic);
  w.PutU32(kFormatVersion);
  w.PutU8(static_cast<uint8_t>(kind()));
  payload_->Serialize(&w);
  w.PutU32(simd::Crc32c(w.data().data(), w.data().size()));
  return std::move(w).TakeData();
}

uint32_t DataCollection::SerializeToSpans(SpanWriter* s) const {
  size_t start = s->TotalBytes();
  ByteWriter* w = s->writer();
  w->PutU32(kMagic);
  w->PutU32(kFormatVersion);
  w->PutU8(static_cast<uint8_t>(kind()));
  payload_->SerializeToSpans(s);
  // Checksum the emitted spans as one stream — the same CRC hashing the
  // flattened buffer would produce. Bytes the caller wrote before the
  // envelope (e.g. a reply status prefix) are skipped.
  std::vector<ByteSpan> covered;
  size_t skip = start;
  for (const ByteSpan& span : s->spans()) {
    if (skip >= span.len) {
      skip -= span.len;
      continue;
    }
    covered.push_back(ByteSpan{span.data + skip, span.len - skip});
    skip = 0;
  }
  uint32_t crc = simd::Crc32c(covered.data(), covered.size());
  s->writer()->PutU32(crc);
  return crc;
}

Result<uint32_t> DataCollection::VerifyEnvelopeCrc(std::string_view data) {
  if (data.size() < kHeaderBytes + kTrailerBytes) {
    return Status::Corruption("data collection buffer too short");
  }
  std::string_view body = data.substr(0, data.size() - kTrailerBytes);
  uint32_t stored = ByteReader(data.substr(body.size())).GetU32().value();
  uint32_t actual = simd::Crc32c(body.data(), body.size());
  if (stored != actual) {
    return Status::Corruption(StrFormat(
        "checksum mismatch: stored %08x != actual %08x", stored, actual));
  }
  return actual;
}

Result<DataCollection> DataCollection::DeserializeFromString(
    std::string_view data) {
  return Decode(data, /*verify_trailer=*/true);
}

Result<DataCollection> DataCollection::DeserializeVerified(
    std::string_view data) {
  return Decode(data, /*verify_trailer=*/false);
}

}  // namespace dataflow
}  // namespace helix
