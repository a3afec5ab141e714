// Request/reply message encodings carried inside frames (net/frame.h).
//
// Workflows cannot cross the wire directly — operators embed arbitrary C++
// UDF closures — so a remote RunIteration carries a WorkflowSpec: a named
// application plus string parameters, resolved *server-side* into a real
// core::Workflow by a WorkflowResolver. Because operator signatures (and
// therefore store keys, plans, and outputs) are pure functions of the
// resolved workflow, a remote iteration is byte-identical to the same
// iteration run in-process — the property tests/net_test.cc pins.
//
// Every reply payload starts with an encoded Status (code + message); a
// result body follows only when the status is OK. The client rebuilds the
// same Status code locally, so remote failures and local failures flow
// through one error channel.
#ifndef HELIX_NET_WIRE_H_
#define HELIX_NET_WIRE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/spans.h"
#include "core/version_manager.h"
#include "dataflow/data_collection.h"
#include "core/workflow.h"
#include "core/workflow_spec.h"
#include "service/session_service.h"

namespace helix {
namespace net {

/// Frame opcodes. Requests are client->server; every server frame is a
/// kReply echoing the request id.
enum class Opcode : uint8_t {
  kOpenSession = 1,
  kRunIteration = 2,
  kGetCounters = 3,
  kShutdown = 4,
  /// Telemetry introspection: the reply body is one JSON text blob
  /// (metrics snapshot / Chrome trace document). Requests carry no
  /// payload.
  kGetMetrics = 5,
  kGetTrace = 6,
  /// Pulls one materialized output payload out of the server's store by
  /// executor signature (learned from a RunIteration reply). The reply
  /// body is a whole DataCollection envelope; on the server's cache-hit
  /// path it is written zero-copy (spans over column bodies + writev).
  kFetchOutput = 7,
  /// Unregisters a server-side session opened by kOpenSession. The
  /// session's counters move into the service's retired aggregate, so
  /// GetCounters(0) keeps reporting its work. The server also closes a
  /// connection's sessions implicitly when the connection drops.
  kCloseSession = 8,
  kReply = 0x80,
};

/// One workflow output as seen across the wire: name, content
/// fingerprint, and the executor signature keying the server-side store
/// entry — enough for the client to verify determinism and, when it
/// wants the bytes, FetchOutput them by signature.
struct RemoteOutput {
  std::string name;
  uint64_t fingerprint = 0;
  /// Cumulative executor signature of the producing node (0 if the
  /// server could not resolve it); the FetchOutput store key.
  uint64_t signature = 0;
};

/// Counter snapshot and iteration summary returned by a remote iteration.
/// Fingerprints stand in for payloads: outputs stay server-side, the
/// client gets enough to verify determinism and drive the next edit.
struct RemoteIterationResult {
  int64_t version_id = 0;
  int64_t num_computed = 0;
  int64_t num_loaded = 0;
  int64_t num_shared = 0;
  int64_t num_pruned = 0;
  int64_t num_materialized = 0;
  int64_t total_micros = 0;
  /// Per-output (name, fingerprint, signature), in output-name order.
  std::vector<RemoteOutput> outputs;
};

// --- Status ---------------------------------------------------------------

void EncodeStatus(const Status& status, ByteWriter* out);
/// Decodes an encoded status into `*out`. The return value is the
/// *transport* status (Corruption on malformed bytes); `*out` is the
/// decoded application status.
Status DecodeStatus(ByteReader* in, Status* out);

// --- Request payloads -----------------------------------------------------

std::string EncodeOpenSessionRequest(const std::string& name);
Result<std::string> DecodeOpenSessionRequest(std::string_view payload);

std::string EncodeRunIterationRequest(uint64_t session_id,
                                      const core::WorkflowSpec& spec,
                                      const std::string& description,
                                      core::ChangeCategory category);
struct RunIterationRequest {
  uint64_t session_id = 0;
  core::WorkflowSpec spec;
  std::string description;
  core::ChangeCategory category = core::ChangeCategory::kInitial;
};
Result<RunIterationRequest> DecodeRunIterationRequest(
    std::string_view payload);

/// session_id 0 asks for the service-wide aggregate.
std::string EncodeGetCountersRequest(uint64_t session_id);
Result<uint64_t> DecodeGetCountersRequest(std::string_view payload);

/// GetMetrics / GetTrace requests are empty; the decoder only rejects
/// stray payload bytes.
Status DecodeEmptyRequest(std::string_view payload, const char* what);

std::string EncodeFetchOutputRequest(uint64_t signature);
Result<uint64_t> DecodeFetchOutputRequest(std::string_view payload);

std::string EncodeCloseSessionRequest(uint64_t session_id);
Result<uint64_t> DecodeCloseSessionRequest(std::string_view payload);

// --- Reply payloads -------------------------------------------------------

/// A failed reply is just the status; a successful one is OK + body.
std::string EncodeErrorReply(const Status& status);
std::string EncodeOpenSessionReply(uint64_t session_id);
std::string EncodeRunIterationReply(const RemoteIterationResult& result);
std::string EncodeCountersReply(const service::SessionCounters& counters);
std::string EncodeEmptyReply();
/// OK status + one opaque text blob (GetMetrics / GetTrace JSON).
std::string EncodeTextReply(const std::string& text);
/// OK status + a whole DataCollection envelope, as a span list: status
/// into the scratch writer, then the envelope borrowing column bodies
/// from `data`, which must outlive the spans.
void EncodeFetchOutputReplyToSpans(const dataflow::DataCollection& data,
                                   SpanWriter* s);

/// Reply decoders: each decodes the leading status — a non-OK remote
/// status is returned as-is (same code, message prefixed "remote: ") —
/// then the body.
Result<uint64_t> DecodeOpenSessionReply(std::string_view payload);
Result<RemoteIterationResult> DecodeRunIterationReply(
    std::string_view payload);
Result<service::SessionCounters> DecodeCountersReply(
    std::string_view payload);
Status DecodeEmptyReply(std::string_view payload);
Result<std::string> DecodeTextReply(std::string_view payload);
Result<dataflow::DataCollection> DecodeFetchOutputReply(
    std::string_view payload);

}  // namespace net
}  // namespace helix

#endif  // HELIX_NET_WIRE_H_
