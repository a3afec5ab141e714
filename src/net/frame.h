// The HELIX wire framing: length-prefixed, checksummed binary frames.
//
// Every message in either direction is one frame (all integers
// little-endian, via common/bytes.h):
//
//   offset  size  field
//   0       4     magic 0x584C4548 ("HELX")
//   4       1     protocol version (kProtocolVersion = 2)
//   5       1     opcode (net/wire.h)
//   6       8     request id (echoed verbatim on the reply)
//   14      4     payload length N
//   18      N     payload (opcode-specific, see net/wire.h)
//   18+N    4     CRC32C over bytes [0, 18+N)
//
// Version 1 carried an 8-byte FNV-64 trailer; peers of different versions
// reject each other's frames (InvalidArgument) rather than guess. The
// frame CRC is the only hash a receiver runs over the payload: a
// FetchOutput reply's envelope decodes without re-hashing its trailer.
//
// Decoding is defensive by construction: a reader trusts nothing until the
// magic, version, and length bound have been validated and the checksum has
// matched — truncated, corrupt, oversized, or alien bytes must surface as a
// clean Status, never as a crash or an over-allocation (the length bound is
// checked *before* the payload is read, so a hostile 4 GiB length never
// allocates 4 GiB).
#ifndef HELIX_NET_FRAME_H_
#define HELIX_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/spans.h"
#include "common/status.h"
#include "net/socket.h"

namespace helix {
namespace net {

inline constexpr uint32_t kFrameMagic = 0x584C4548;  // "HELX" when LE
inline constexpr uint8_t kProtocolVersion = 2;
inline constexpr size_t kFrameHeaderBytes = 18;
inline constexpr size_t kFrameChecksumBytes = 4;
/// Default bound on one frame's payload; a decoder rejects larger lengths
/// before reading (or allocating) the payload.
inline constexpr uint32_t kDefaultMaxPayloadBytes = 64u << 20;

/// One decoded frame.
struct Frame {
  uint8_t opcode = 0;
  uint64_t request_id = 0;
  std::string payload;
};

/// Serializes header + payload + checksum.
std::string EncodeFrame(const Frame& frame);

/// Incremental decoder for a growing receive buffer (the event loop's
/// nonblocking read path): examines the front of `buffer` and returns the
/// number of bytes one complete frame consumed (header + payload +
/// checksum), with the decoded frame in `*out` — or 0 when the buffer does
/// not yet hold a complete frame (read more bytes and retry; nothing is
/// consumed). Corruption on bad magic or a bad checksum, InvalidArgument
/// on an unsupported version, ResourceExhausted on a payload length
/// beyond `max_payload_bytes`; each is checked as early as the bytes
/// allow: a bad magic or an oversized length fails as soon as the 18-byte
/// header is buffered, without waiting for the (untrustworthy) payload.
/// When the fixed header parses, a non-null `request_id_out` receives its
/// request id even if validation then fails, so a server can address its
/// error reply.
Result<size_t> DecodeFrameFromBuffer(
    std::string_view buffer, uint32_t max_payload_bytes, Frame* out,
    uint64_t* request_id_out = nullptr);

/// Reads exactly one frame from the connection. Same error taxonomy as
/// DecodeFrameFromBuffer, plus NotFound("connection closed") on a clean
/// end-of-stream at a frame boundary and IOError on a torn stream. When
/// the fixed header parses (even if the body then fails validation),
/// `request_id_out` (if non-null) receives the header's request id so a
/// server can address its error reply.
Result<Frame> ReadFrame(TcpConnection* conn, uint32_t max_payload_bytes,
                        uint64_t* request_id_out = nullptr);

/// Encodes and writes one frame.
Status WriteFrame(TcpConnection* conn, const Frame& frame);

/// Builds the header and checksum-trailer bytes of a frame whose payload
/// is `payload`'s span list — the two owned pieces the event loop queues
/// around the borrowed spans for a deferred gathered write, so the
/// payload bytes are never copied into a contiguous buffer (the checksum
/// streams over the spans in place). Concatenating header + spans +
/// trailer is byte-identical to EncodeFrame of the flattened payload.
void BuildFrameParts(uint8_t opcode, uint64_t request_id,
                     SpanWriter* payload, std::string* header_out,
                     std::string* trailer_out);

}  // namespace net
}  // namespace helix

#endif  // HELIX_NET_FRAME_H_
