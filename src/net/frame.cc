#include "net/frame.h"

#include <utility>
#include <vector>

#include "common/bytes.h"
#include "dataflow/simd.h"

namespace helix {
namespace net {
namespace {

// Validated header fields, shared by the buffer and stream decoders.
struct Header {
  uint8_t opcode = 0;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
};

// Parses and validates the fixed 18-byte header.
Result<Header> DecodeHeader(std::string_view bytes,
                            uint32_t max_payload_bytes) {
  ByteReader reader(bytes);
  HELIX_ASSIGN_OR_RETURN(uint32_t magic, reader.GetU32());
  if (magic != kFrameMagic) {
    return Status::Corruption("bad frame magic");
  }
  HELIX_ASSIGN_OR_RETURN(uint8_t version, reader.GetU8());
  Header header;
  HELIX_ASSIGN_OR_RETURN(header.opcode, reader.GetU8());
  HELIX_ASSIGN_OR_RETURN(header.request_id, reader.GetU64());
  HELIX_ASSIGN_OR_RETURN(header.payload_len, reader.GetU32());
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        "unsupported protocol version " + std::to_string(version));
  }
  if (header.payload_len > max_payload_bytes) {
    return Status::ResourceExhausted(
        "frame payload of " + std::to_string(header.payload_len) +
        " bytes exceeds the " + std::to_string(max_payload_bytes) +
        "-byte limit");
  }
  return header;
}

// Verifies the trailing CRC32C over everything before it.
Status VerifyChecksum(std::string_view covered, std::string_view trailer) {
  ByteReader reader(trailer);
  HELIX_ASSIGN_OR_RETURN(uint32_t declared, reader.GetU32());
  if (declared != dataflow::simd::Crc32c(covered.data(), covered.size())) {
    return Status::Corruption("frame checksum mismatch");
  }
  return Status::OK();
}

}  // namespace

std::string EncodeFrame(const Frame& frame) {
  ByteWriter writer;
  writer.Reserve(kFrameHeaderBytes + frame.payload.size() +
                 kFrameChecksumBytes);
  writer.PutU32(kFrameMagic);
  writer.PutU8(kProtocolVersion);
  writer.PutU8(frame.opcode);
  writer.PutU64(frame.request_id);
  writer.PutU32(static_cast<uint32_t>(frame.payload.size()));
  writer.PutRaw(frame.payload.data(), frame.payload.size());
  writer.PutU32(
      dataflow::simd::Crc32c(writer.data().data(), writer.data().size()));
  return std::move(writer.TakeData());
}

Result<size_t> DecodeFrameFromBuffer(std::string_view buffer,
                                     uint32_t max_payload_bytes, Frame* out,
                                     uint64_t* request_id_out) {
  if (buffer.size() < kFrameHeaderBytes) {
    return static_cast<size_t>(0);  // header not yet buffered
  }
  // Surface the request id before validation, as ReadFrame does.
  if (request_id_out != nullptr) {
    ByteReader reader(buffer);
    (void)reader.GetU32();
    (void)reader.GetU8();
    (void)reader.GetU8();
    Result<uint64_t> id = reader.GetU64();
    if (id.ok()) {
      *request_id_out = id.value();
    }
  }
  // Header validation fails fast: a hostile magic or length must not make
  // the reader buffer (or wait for) a payload it will never trust.
  HELIX_ASSIGN_OR_RETURN(
      Header header,
      DecodeHeader(buffer.substr(0, kFrameHeaderBytes), max_payload_bytes));
  size_t total = kFrameHeaderBytes + header.payload_len + kFrameChecksumBytes;
  if (buffer.size() < total) {
    return static_cast<size_t>(0);  // payload/trailer not yet buffered
  }
  HELIX_RETURN_IF_ERROR(VerifyChecksum(
      buffer.substr(0, kFrameHeaderBytes + header.payload_len),
      buffer.substr(kFrameHeaderBytes + header.payload_len,
                    kFrameChecksumBytes)));
  out->opcode = header.opcode;
  out->request_id = header.request_id;
  out->payload.assign(buffer.data() + kFrameHeaderBytes, header.payload_len);
  return total;
}

Result<Frame> ReadFrame(TcpConnection* conn, uint32_t max_payload_bytes,
                        uint64_t* request_id_out) {
  std::string header_bytes(kFrameHeaderBytes, '\0');
  {
    HELIX_ASSIGN_OR_RETURN(
        bool got,
        conn->ReadAllOrEof(header_bytes.data(), header_bytes.size()));
    if (!got) {
      return Status::NotFound("connection closed");
    }
  }
  // Surface the request id even when validation below fails, so the server
  // can tell the sender *which* request died before dropping the stream.
  {
    ByteReader reader(header_bytes);
    (void)reader.GetU32();
    (void)reader.GetU8();
    (void)reader.GetU8();
    Result<uint64_t> id = reader.GetU64();
    if (id.ok() && request_id_out != nullptr) {
      *request_id_out = id.value();
    }
  }
  HELIX_ASSIGN_OR_RETURN(Header header,
                         DecodeHeader(header_bytes, max_payload_bytes));
  std::string rest(header.payload_len + kFrameChecksumBytes, '\0');
  {
    HELIX_ASSIGN_OR_RETURN(bool got,
                           conn->ReadAllOrEof(rest.data(), rest.size()));
    if (!got) {
      return Status::IOError("connection closed mid-frame");
    }
  }
  // One checksum streamed over header then payload in place, instead of
  // concatenating: a frame near the payload limit must not cost
  // transient copies of itself on the hot request path.
  ByteSpan covered[] = {{header_bytes.data(), header_bytes.size()},
                        {rest.data(), header.payload_len}};
  uint32_t computed = dataflow::simd::Crc32c(covered, 2);
  uint32_t declared = 0;
  {
    ByteReader trailer(
        std::string_view(rest).substr(header.payload_len));
    HELIX_ASSIGN_OR_RETURN(declared, trailer.GetU32());
  }
  if (declared != computed) {
    return Status::Corruption("frame checksum mismatch");
  }
  Frame frame;
  frame.opcode = header.opcode;
  frame.request_id = header.request_id;
  rest.resize(header.payload_len);  // drop the trailer, keep the payload
  frame.payload = std::move(rest);
  return frame;
}

Status WriteFrame(TcpConnection* conn, const Frame& frame) {
  std::string bytes = EncodeFrame(frame);
  return conn->WriteAll(bytes.data(), bytes.size());
}

void BuildFrameParts(uint8_t opcode, uint64_t request_id,
                     SpanWriter* payload, std::string* header_out,
                     std::string* trailer_out) {
  ByteWriter header;
  header.Reserve(kFrameHeaderBytes);
  header.PutU32(kFrameMagic);
  header.PutU8(kProtocolVersion);
  header.PutU8(opcode);
  header.PutU64(request_id);
  header.PutU32(static_cast<uint32_t>(payload->TotalBytes()));
  // The checksum streams over header + spans — same CRC EncodeFrame
  // computes over its contiguous buffer.
  std::vector<ByteSpan> covered;
  covered.reserve(payload->spans().size() + 1);
  covered.push_back(ByteSpan{header.data().data(), header.size()});
  covered.insert(covered.end(), payload->spans().begin(),
                 payload->spans().end());
  ByteWriter trailer;
  trailer.PutU32(dataflow::simd::Crc32c(covered.data(), covered.size()));
  *header_out = std::move(header.TakeData());
  *trailer_out = std::move(trailer.TakeData());
}

}  // namespace net
}  // namespace helix
