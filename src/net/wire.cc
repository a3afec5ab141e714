#include "net/wire.h"

#include <utility>

#include "common/strings.h"

namespace helix {
namespace net {
namespace {

// Decodes a reply's leading status. A non-OK remote status is surfaced
// as-is (same code, message prefixed for provenance); the caller then
// continues decoding the body from `in`.
Status DecodeReplyStatus(ByteReader* in) {
  Status remote;
  HELIX_RETURN_IF_ERROR(DecodeStatus(in, &remote));
  if (!remote.ok()) {
    return Status(remote.code(), "remote: " + remote.message());
  }
  return Status::OK();
}

}  // namespace

void EncodeStatus(const Status& status, ByteWriter* out) {
  out->PutU8(static_cast<uint8_t>(status.code()));
  out->PutString(status.message());
}

Status DecodeStatus(ByteReader* in, Status* out) {
  HELIX_ASSIGN_OR_RETURN(uint8_t code, in->GetU8());
  HELIX_ASSIGN_OR_RETURN(std::string message, in->GetString());
  if (code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::Corruption("unknown status code " + std::to_string(code));
  }
  *out = code == 0 ? Status::OK()
                   : Status(static_cast<StatusCode>(code),
                            std::move(message));
  return Status::OK();
}

std::string EncodeOpenSessionRequest(const std::string& name) {
  ByteWriter out;
  out.PutString(name);
  return std::move(out.TakeData());
}

Result<std::string> DecodeOpenSessionRequest(std::string_view payload) {
  ByteReader in(payload);
  HELIX_ASSIGN_OR_RETURN(std::string name, in.GetString());
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in OpenSession request");
  }
  return name;
}

std::string EncodeRunIterationRequest(uint64_t session_id,
                                      const core::WorkflowSpec& spec,
                                      const std::string& description,
                                      core::ChangeCategory category) {
  ByteWriter out;
  out.PutU64(session_id);
  core::EncodeWorkflowSpec(spec, &out);
  out.PutString(description);
  out.PutU8(static_cast<uint8_t>(category));
  return std::move(out.TakeData());
}

Result<RunIterationRequest> DecodeRunIterationRequest(
    std::string_view payload) {
  ByteReader in(payload);
  RunIterationRequest request;
  HELIX_ASSIGN_OR_RETURN(request.session_id, in.GetU64());
  HELIX_ASSIGN_OR_RETURN(request.spec, core::DecodeWorkflowSpec(&in));
  HELIX_ASSIGN_OR_RETURN(request.description, in.GetString());
  HELIX_ASSIGN_OR_RETURN(uint8_t category, in.GetU8());
  if (category > static_cast<uint8_t>(core::ChangeCategory::kEvaluation)) {
    return Status::InvalidArgument("unknown change category " +
                                   std::to_string(category));
  }
  request.category = static_cast<core::ChangeCategory>(category);
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in RunIteration request");
  }
  return request;
}

std::string EncodeGetCountersRequest(uint64_t session_id) {
  ByteWriter out;
  out.PutU64(session_id);
  return std::move(out.TakeData());
}

Result<uint64_t> DecodeGetCountersRequest(std::string_view payload) {
  ByteReader in(payload);
  HELIX_ASSIGN_OR_RETURN(uint64_t session_id, in.GetU64());
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in GetCounters request");
  }
  return session_id;
}

Status DecodeEmptyRequest(std::string_view payload, const char* what) {
  if (!payload.empty()) {
    return Status::Corruption(StrFormat("unexpected payload bytes in %s "
                                        "request", what));
  }
  return Status::OK();
}

std::string EncodeFetchOutputRequest(uint64_t signature) {
  ByteWriter out;
  out.PutU64(signature);
  return std::move(out.TakeData());
}

Result<uint64_t> DecodeFetchOutputRequest(std::string_view payload) {
  ByteReader in(payload);
  HELIX_ASSIGN_OR_RETURN(uint64_t signature, in.GetU64());
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in FetchOutput request");
  }
  return signature;
}

std::string EncodeCloseSessionRequest(uint64_t session_id) {
  ByteWriter out;
  out.PutU64(session_id);
  return std::move(out.TakeData());
}

Result<uint64_t> DecodeCloseSessionRequest(std::string_view payload) {
  ByteReader in(payload);
  HELIX_ASSIGN_OR_RETURN(uint64_t session_id, in.GetU64());
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in CloseSession request");
  }
  return session_id;
}

std::string EncodeErrorReply(const Status& status) {
  ByteWriter out;
  EncodeStatus(status, &out);
  return std::move(out.TakeData());
}

std::string EncodeOpenSessionReply(uint64_t session_id) {
  ByteWriter out;
  EncodeStatus(Status::OK(), &out);
  out.PutU64(session_id);
  return std::move(out.TakeData());
}

std::string EncodeRunIterationReply(const RemoteIterationResult& result) {
  ByteWriter out;
  EncodeStatus(Status::OK(), &out);
  out.PutI64(result.version_id);
  out.PutI64(result.num_computed);
  out.PutI64(result.num_loaded);
  out.PutI64(result.num_shared);
  out.PutI64(result.num_pruned);
  out.PutI64(result.num_materialized);
  out.PutI64(result.total_micros);
  out.PutU64(result.outputs.size());
  for (const RemoteOutput& output : result.outputs) {
    out.PutString(output.name);
    out.PutU64(output.fingerprint);
    out.PutU64(output.signature);
  }
  return std::move(out.TakeData());
}

std::string EncodeCountersReply(const service::SessionCounters& counters) {
  ByteWriter out;
  EncodeStatus(Status::OK(), &out);
  out.PutI64(counters.iterations);
  out.PutI64(counters.num_computed);
  out.PutI64(counters.num_loaded);
  out.PutI64(counters.num_shared);
  out.PutI64(counters.cross_session_loads);
  out.PutI64(counters.saved_micros);
  out.PutI64(counters.total_micros);
  return std::move(out.TakeData());
}

std::string EncodeEmptyReply() {
  ByteWriter out;
  EncodeStatus(Status::OK(), &out);
  return std::move(out.TakeData());
}

std::string EncodeTextReply(const std::string& text) {
  ByteWriter out;
  EncodeStatus(Status::OK(), &out);
  out.PutString(text);
  return std::move(out.TakeData());
}

void EncodeFetchOutputReplyToSpans(const dataflow::DataCollection& data,
                                   SpanWriter* s) {
  EncodeStatus(Status::OK(), s->writer());
  data.SerializeToSpans(s);
}

Result<uint64_t> DecodeOpenSessionReply(std::string_view payload) {
  ByteReader in(payload);
  HELIX_RETURN_IF_ERROR(DecodeReplyStatus(&in));
  HELIX_ASSIGN_OR_RETURN(uint64_t session_id, in.GetU64());
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in OpenSession reply");
  }
  return session_id;
}

Result<RemoteIterationResult> DecodeRunIterationReply(
    std::string_view payload) {
  ByteReader in(payload);
  HELIX_RETURN_IF_ERROR(DecodeReplyStatus(&in));
  RemoteIterationResult result;
  HELIX_ASSIGN_OR_RETURN(result.version_id, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(result.num_computed, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(result.num_loaded, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(result.num_shared, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(result.num_pruned, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(result.num_materialized, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(result.total_micros, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(uint64_t n, in.GetU64());
  // Each entry costs at least 24 bytes (length prefix + two u64s); a
  // count claiming more is corrupt, and must be rejected before reserve.
  if (n > in.remaining() / 24) {
    return Status::Corruption("output count implausible");
  }
  result.outputs.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    RemoteOutput output;
    HELIX_ASSIGN_OR_RETURN(output.name, in.GetString());
    HELIX_ASSIGN_OR_RETURN(output.fingerprint, in.GetU64());
    HELIX_ASSIGN_OR_RETURN(output.signature, in.GetU64());
    result.outputs.push_back(std::move(output));
  }
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in RunIteration reply");
  }
  return result;
}

Result<service::SessionCounters> DecodeCountersReply(
    std::string_view payload) {
  ByteReader in(payload);
  HELIX_RETURN_IF_ERROR(DecodeReplyStatus(&in));
  service::SessionCounters counters;
  HELIX_ASSIGN_OR_RETURN(counters.iterations, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(counters.num_computed, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(counters.num_loaded, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(counters.num_shared, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(counters.cross_session_loads, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(counters.saved_micros, in.GetI64());
  HELIX_ASSIGN_OR_RETURN(counters.total_micros, in.GetI64());
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in counters reply");
  }
  return counters;
}

Status DecodeEmptyReply(std::string_view payload) {
  ByteReader in(payload);
  HELIX_RETURN_IF_ERROR(DecodeReplyStatus(&in));
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in empty reply");
  }
  return Status::OK();
}

Result<std::string> DecodeTextReply(std::string_view payload) {
  ByteReader in(payload);
  HELIX_RETURN_IF_ERROR(DecodeReplyStatus(&in));
  HELIX_ASSIGN_OR_RETURN(std::string text, in.GetString());
  if (!in.AtEnd()) {
    return Status::Corruption("trailing bytes in text reply");
  }
  return text;
}

Result<dataflow::DataCollection> DecodeFetchOutputReply(
    std::string_view payload) {
  ByteReader in(payload);
  HELIX_RETURN_IF_ERROR(DecodeReplyStatus(&in));
  // Everything after the status is one DataCollection envelope. The frame
  // CRC already covered these bytes, so its trailer is not hashed again;
  // its magic, version and structure still validate them.
  return dataflow::DataCollection::DeserializeVerified(
      payload.substr(payload.size() - in.remaining()));
}

}  // namespace net
}  // namespace helix
