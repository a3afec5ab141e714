// Tests for src/net: the framing codec's defensive decoding, the spec
// codecs' signature-preservation, and — the core property — that remoting
// perturbs nothing: K concurrent clients over loopback TCP produce
// per-iteration output fingerprints byte-identical to the same K sessions
// run through an in-process SessionService (and to K isolated sequential
// sessions), while computing strictly less than isolation in total. A
// robustness/fuzz pass pins that malformed frames — truncated, corrupt
// checksum, oversized, unknown opcode — surface as clean Status errors on
// the sender and never take the server (or its other connections) down.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "common/spans.h"
#include "core/materialization.h"
#include "core/session.h"
#include "core/std_ops.h"
#include "dataflow/simd.h"
#include "net/app_specs.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "service/session_service.h"
#include "synthetic_app.h"
#include "table_util.h"

namespace helix {
namespace net {
namespace {

using core::ChangeCategory;
using testutil::FingerprintOutputs;
using testutil::OutputFingerprints;
using testutil::RunTrace;
using testutil::SyntheticApp;

// --- Framing codec --------------------------------------------------------

Frame MakeTestFrame() {
  Frame frame;
  frame.opcode = static_cast<uint8_t>(Opcode::kOpenSession);
  frame.request_id = 0xDEADBEEF12345678ULL;
  frame.payload = EncodeOpenSessionRequest("alice");
  return frame;
}

TEST(FrameTest, EverySingleByteCorruptionIsRejected) {
  std::string bytes = EncodeFrame(MakeTestFrame());
  Frame out;
  for (size_t i = 0; i < bytes.size(); ++i) {
    SCOPED_TRACE("flip at byte " + std::to_string(i));
    std::string corrupted = bytes;
    corrupted[i] = static_cast<char>(corrupted[i] ^ 0x40);
    auto consumed =
        DecodeFrameFromBuffer(corrupted, kDefaultMaxPayloadBytes, &out);
    if (i == 4) {
      // The version byte: "unsupported version", not "corrupt".
      EXPECT_TRUE(consumed.status().IsInvalidArgument())
          << consumed.status().ToString();
    } else if (i >= 14 && i < kFrameHeaderBytes) {
      // The length: a longer frame waits for bytes that never come, a
      // shorter one fails its checksum, an oversized one its bound.
      EXPECT_TRUE(!consumed.ok() || consumed.value() == 0u)
          << "accepted a frame of " << consumed.value() << " bytes";
    } else {
      // The magic, or a byte the checksum covers.
      EXPECT_TRUE(consumed.status().IsCorruption())
          << consumed.status().ToString();
    }
  }
}

TEST(FrameTest, UnsupportedVersionIsInvalidArgument) {
  std::string bytes = EncodeFrame(MakeTestFrame());
  bytes[4] = static_cast<char>(kProtocolVersion + 1);
  // The version check fires before the checksum check: a future-version
  // frame reports "unsupported version", not "corrupt".
  Frame out;
  EXPECT_TRUE(DecodeFrameFromBuffer(bytes, kDefaultMaxPayloadBytes, &out)
                  .status()
                  .IsInvalidArgument());
}

TEST(FrameTest, OversizedDeclaredLengthIsResourceExhausted) {
  Frame frame = MakeTestFrame();
  frame.payload.assign(2048, 'x');
  std::string bytes = EncodeFrame(frame);
  Frame out;
  auto consumed =
      DecodeFrameFromBuffer(bytes, /*max_payload_bytes=*/1024, &out);
  EXPECT_TRUE(consumed.status().IsResourceExhausted())
      << consumed.status().ToString();
}

// --- Incremental decoder (the event loop's read path) ---------------------

TEST(FrameTest, IncrementalDecodeConsumesNothingUntilComplete) {
  Frame frame = MakeTestFrame();
  std::string bytes = EncodeFrame(frame);
  Frame out;
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto consumed = DecodeFrameFromBuffer(
        std::string_view(bytes).substr(0, len), kDefaultMaxPayloadBytes,
        &out);
    ASSERT_TRUE(consumed.ok()) << "prefix " << len << ": "
                               << consumed.status().ToString();
    EXPECT_EQ(consumed.value(), 0u) << "consumed a " << len << "-byte prefix";
  }
  auto consumed = DecodeFrameFromBuffer(bytes, kDefaultMaxPayloadBytes, &out);
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  EXPECT_EQ(consumed.value(), bytes.size());
  EXPECT_EQ(out.opcode, frame.opcode);
  EXPECT_EQ(out.request_id, frame.request_id);
  EXPECT_EQ(out.payload, frame.payload);
}

TEST(FrameTest, IncrementalDecodeWalksConcatenatedFrames) {
  Frame first = MakeTestFrame();
  Frame second;
  second.opcode = static_cast<uint8_t>(Opcode::kGetCounters);
  second.request_id = 42;
  second.payload = EncodeGetCountersRequest(7);
  std::string buffer = EncodeFrame(first) + EncodeFrame(second);
  // A pipelining client's bytes arrive back to back plus a partial tail.
  std::string tail = EncodeFrame(first).substr(0, kFrameHeaderBytes + 3);
  buffer += tail;

  Frame out;
  auto consumed = DecodeFrameFromBuffer(buffer, kDefaultMaxPayloadBytes,
                                        &out);
  ASSERT_TRUE(consumed.ok());
  ASSERT_GT(consumed.value(), 0u);
  EXPECT_EQ(out.request_id, first.request_id);
  std::string_view rest = std::string_view(buffer).substr(consumed.value());

  consumed = DecodeFrameFromBuffer(rest, kDefaultMaxPayloadBytes, &out);
  ASSERT_TRUE(consumed.ok());
  ASSERT_GT(consumed.value(), 0u);
  EXPECT_EQ(out.request_id, second.request_id);
  EXPECT_EQ(out.payload, second.payload);
  rest = rest.substr(consumed.value());

  consumed = DecodeFrameFromBuffer(rest, kDefaultMaxPayloadBytes, &out);
  ASSERT_TRUE(consumed.ok());
  EXPECT_EQ(consumed.value(), 0u) << "consumed a partial trailing frame";
}

TEST(FrameTest, IncrementalDecodeFailsFastOnBadHeader) {
  // A hostile header must be rejected as soon as it is buffered — without
  // waiting for (or allocating) the payload it declares.
  ByteWriter header;
  header.PutU32(kFrameMagic);
  header.PutU8(kProtocolVersion);
  header.PutU8(static_cast<uint8_t>(Opcode::kOpenSession));
  header.PutU64(/*request_id=*/7);
  header.PutU32(512u << 20);  // far beyond any limit; body never sent
  Frame out;
  uint64_t request_id = 0;
  auto consumed =
      DecodeFrameFromBuffer(header.data(), kDefaultMaxPayloadBytes, &out,
                            &request_id);
  EXPECT_TRUE(consumed.status().IsResourceExhausted())
      << consumed.status().ToString();
  // The request id was surfaced so a server can address its error reply.
  EXPECT_EQ(request_id, 7u);

  std::string bad_magic = EncodeFrame(MakeTestFrame());
  bad_magic[0] = static_cast<char>(bad_magic[0] ^ 0x01);
  consumed = DecodeFrameFromBuffer(
      std::string_view(bad_magic).substr(0, kFrameHeaderBytes),
      kDefaultMaxPayloadBytes, &out);
  EXPECT_TRUE(consumed.status().IsCorruption())
      << consumed.status().ToString();
}

// --- Span frames (the zero-copy reply path) -------------------------------

// The bytes the event loop's gathered writes put on the wire for a span
// reply: BuildFrameParts' header, the spans as-is, then its trailer.
std::string SpanFrameBytes(uint8_t opcode, uint64_t request_id,
                           SpanWriter* payload) {
  std::string header;
  std::string trailer;
  BuildFrameParts(opcode, request_id, payload, &header, &trailer);
  std::string bytes = header;
  for (const ByteSpan& span : payload->spans()) {
    bytes.append(span.data, span.len);
  }
  return bytes + trailer;
}

TEST(FrameTest, SpanFramePartsAreByteIdenticalToEncodeFrame) {
  const std::string body(300, 'b');
  const std::string tail = "tail";
  struct Case {
    const char* name;
    uint64_t request_id;
    std::function<void(SpanWriter*)> fill;
  };
  const Case cases[] = {
      {"multi-span", 42,
       [&](SpanWriter* s) {
         s->writer()->PutU32(7);
         s->Borrow(body.data(), body.size());
         s->writer()->PutU64(0x0123456789ABCDEFULL);
         s->Borrow(tail.data(), tail.size());
         s->writer()->PutU8(0xFF);
       }},
      {"empty-spans", 43,
       [&](SpanWriter* s) {
         s->Borrow(nullptr, 0);
         s->writer()->PutU8(1);
         s->Borrow(body.data(), 0);
         s->Borrow(tail.data(), tail.size());
         s->Borrow(nullptr, 0);
       }},
      {"zero-length-payload", 44, [](SpanWriter*) {}},
      {"wide-request-id", 0xFEDCBA9876543210ULL,
       [&](SpanWriter* s) { s->Borrow(body.data(), body.size()); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SpanWriter payload;
    c.fill(&payload);
    Frame flat;
    flat.opcode = static_cast<uint8_t>(Opcode::kReply);
    flat.request_id = c.request_id;
    flat.payload = payload.Flatten();
    std::string bytes = SpanFrameBytes(flat.opcode, c.request_id, &payload);
    EXPECT_EQ(bytes, EncodeFrame(flat));

    Frame out;
    auto consumed =
        DecodeFrameFromBuffer(bytes, kDefaultMaxPayloadBytes, &out);
    ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
    EXPECT_EQ(consumed.value(), bytes.size());
    EXPECT_EQ(out.opcode, flat.opcode);
    EXPECT_EQ(out.request_id, c.request_id);
    EXPECT_EQ(out.payload, flat.payload);
  }
}

// --- Listener address resolution ------------------------------------------

TEST(SocketTest, ListenResolvesNumericHostnameAndWildcard) {
  // Numeric IPv4 (the historical path).
  auto numeric = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(numeric.ok()) << numeric.status().ToString();
  EXPECT_TRUE(Connect("127.0.0.1", (*numeric)->port()).ok());

  // A resolvable name (getaddrinfo path; inet_pton alone cannot do this).
  auto named = TcpListener::Listen("localhost", 0);
  ASSERT_TRUE(named.ok()) << named.status().ToString();
  EXPECT_TRUE(Connect("localhost", (*named)->port()).ok());

  // Empty host binds the wildcard address.
  auto wildcard = TcpListener::Listen("", 0);
  ASSERT_TRUE(wildcard.ok()) << wildcard.status().ToString();
  EXPECT_TRUE(Connect("127.0.0.1", (*wildcard)->port()).ok());

  // An unresolvable name is a clean error, not a crash or a hang.
  EXPECT_FALSE(TcpListener::Listen("no.such.host.invalid.", 0).ok());
}

// --- Spec codecs ----------------------------------------------------------

// Serializes and reparses a spec through the byte codec.
core::WorkflowSpec RecodeSpec(const core::WorkflowSpec& spec) {
  ByteWriter writer;
  core::EncodeWorkflowSpec(spec, &writer);
  ByteReader reader(writer.data());
  auto decoded = core::DecodeWorkflowSpec(&reader);
  EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(reader.AtEnd());
  return decoded.ok() ? decoded.value() : core::WorkflowSpec{};
}

void ExpectSameSignatures(const core::Workflow& a, const core::Workflow& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (int i = 0; i < a.num_nodes(); ++i) {
    EXPECT_EQ(a.op(i).Signature(), b.op(i).Signature())
        << "operator " << a.op(i).name();
    EXPECT_EQ(a.op(i).name(), b.op(i).name());
  }
}

TEST(AppSpecTest, CensusRoundTripPreservesOperatorSignatures) {
  apps::CensusConfig config;
  config.train_path = "/data/train.csv";
  config.test_path = "/data/test.csv";
  config.use_occ = true;
  config.use_edu_x_occ = false;
  config.age_bins = 7;
  config.learner.model_type = "nb";
  config.learner.reg_param = 0.1 + 0.2;  // not exactly representable
  config.learner.epochs = 13;
  config.eval.auc = true;
  config.eval.threshold = 0.37;

  auto decoded = CensusConfigFromSpec(RecodeSpec(MakeCensusSpec(config)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameSignatures(apps::BuildCensusWorkflow(config),
                       apps::BuildCensusWorkflow(decoded.value()));
}

TEST(AppSpecTest, IeRoundTripPreservesOperatorSignatures) {
  apps::IeConfig config;
  config.corpus_path = "/data/news.dat";
  config.train_frac = 0.65;
  config.features.gazetteer = true;
  config.features.context = true;
  config.features.context_window = 2;
  config.learner.learning_rate = 0.3;
  config.decoder.threshold = 0.61;
  config.decoder.max_tokens = 4;

  auto decoded = IeConfigFromSpec(RecodeSpec(MakeIeSpec(config)));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameSignatures(apps::BuildIeWorkflow(config),
                       apps::BuildIeWorkflow(decoded.value()));
}

TEST(AppSpecTest, MalformedParamIsInvalidArgument) {
  core::WorkflowSpec spec = MakeCensusSpec(apps::CensusConfig{});
  spec.params["age_bins"] = "not-a-number";
  EXPECT_TRUE(CensusConfigFromSpec(spec).status().IsInvalidArgument());
}

// --- Remote differential determinism --------------------------------------

constexpr char kSyntheticApp[] = "synthetic";

core::WorkflowSpec MakeSyntheticSpec(uint64_t seed, int iteration) {
  core::WorkflowSpec spec;
  spec.app = kSyntheticApp;
  spec.SetInt("seed", static_cast<int64_t>(seed));
  spec.SetInt("iteration", iteration);
  return spec;
}

core::WorkflowResolver SyntheticResolver() {
  return [](const core::WorkflowSpec& spec) -> Result<core::Workflow> {
    if (spec.app != kSyntheticApp) {
      return Status::NotFound("no resolver for app '" + spec.app + "'");
    }
    HELIX_ASSIGN_OR_RETURN(int64_t seed, spec.GetInt("seed", 0));
    HELIX_ASSIGN_OR_RETURN(int64_t iteration, spec.GetInt("iteration", 0));
    return SyntheticApp(static_cast<uint64_t>(seed))
        .Build(static_cast<int>(iteration));
  };
}

// K concurrent clients over loopback TCP against one HelixServer.
void RunRemote(const std::string& root, const SyntheticApp& app,
               int num_sessions, int num_iterations, RunTrace* trace,
               service::SessionCounters* aggregate_out) {
  trace->outputs.resize(static_cast<size_t>(num_sessions));
  ServerOptions options;
  options.service.workspace_dir = JoinPath(root, "remote");
  options.service.num_threads = num_sessions;
  options.service.mat_policy =
      std::make_shared<core::AlwaysMaterializePolicy>();
  auto server = HelixServer::Start(options, SyntheticResolver());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  std::vector<std::thread> users;
  std::atomic<bool> failed{false};
  for (int s = 0; s < num_sessions; ++s) {
    users.emplace_back([&, s]() {
      auto client = HelixClient::Connect("127.0.0.1", (*server)->port());
      if (!client.ok()) {
        ADD_FAILURE() << client.status().ToString();
        failed.store(true);
        return;
      }
      auto session = (*client)->OpenSession("user-" + std::to_string(s));
      if (!session.ok()) {
        ADD_FAILURE() << session.status().ToString();
        failed.store(true);
        return;
      }
      for (int i = 0; i < num_iterations; ++i) {
        auto result = (*client)->RunIteration(
            session.value(), MakeSyntheticSpec(app.seed, i),
            "iter-" + std::to_string(i),
            i == 0 ? ChangeCategory::kInitial
                   : ChangeCategory::kMachineLearning);
        if (!result.ok()) {
          ADD_FAILURE() << "client " << s << ": "
                        << result.status().ToString();
          failed.store(true);
          return;
        }
        testutil::OutputFingerprints fingerprints;
        fingerprints.reserve(result->outputs.size());
        for (const net::RemoteOutput& output : result->outputs) {
          fingerprints.emplace_back(output.name, output.fingerprint);
        }
        trace->outputs[static_cast<size_t>(s)].push_back(
            std::move(fingerprints));
      }
    });
  }
  for (std::thread& t : users) {
    t.join();
  }
  ASSERT_FALSE(failed.load());
  auto client = HelixClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto aggregate = (*client)->GetCounters(0);
  ASSERT_TRUE(aggregate.ok()) << aggregate.status().ToString();
  trace->total_computed = aggregate->num_computed;
  if (aggregate_out != nullptr) {
    *aggregate_out = aggregate.value();
  }
  (*server)->Stop();
}

class NetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-net-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  std::string dir_;
};

// The headline property, over many seeds: putting the service behind the
// wire changes no session's outputs — remote fingerprints are
// byte-identical to the in-process service's and to isolated sessions' —
// and cross-session reuse still computes strictly less than isolation.
TEST_F(NetTest, RemoteMatchesInProcessDeterminismProperty) {
  constexpr int kSeeds = 10;
  constexpr int kSessions = 4;
  constexpr int kIterations = 3;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    SyntheticApp app(0x5EAF00D + static_cast<uint64_t>(seed) * 104729);
    std::string root = JoinPath(dir_, "seed-" + std::to_string(seed));

    RunTrace isolated;
    testutil::RunIsolated(root, app, kSessions, kIterations, &isolated);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    RunTrace inproc;
    testutil::RunShared(JoinPath(root, "inproc"), app, kSessions,
                        kIterations, &inproc, nullptr);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }
    RunTrace remote;
    service::SessionCounters aggregate;
    RunRemote(root, app, kSessions, kIterations, &remote, &aggregate);
    if (::testing::Test::HasFatalFailure()) {
      return;
    }

    // Byte-identical outputs, per session, per iteration, across all
    // three execution styles.
    ASSERT_EQ(remote.outputs.size(), inproc.outputs.size());
    for (size_t s = 0; s < remote.outputs.size(); ++s) {
      ASSERT_EQ(remote.outputs[s].size(), inproc.outputs[s].size());
      for (size_t i = 0; i < remote.outputs[s].size(); ++i) {
        EXPECT_EQ(remote.outputs[s][i], inproc.outputs[s][i])
            << "remote vs in-process, session " << s << " iteration " << i;
        EXPECT_EQ(remote.outputs[s][i], isolated.outputs[s][i])
            << "remote vs isolated, session " << s << " iteration " << i;
      }
    }
    // Reuse still happened over the wire: strictly fewer computations
    // than isolation, visible in the remote counters.
    EXPECT_LT(remote.total_computed, isolated.total_computed);
    EXPECT_GT(aggregate.num_shared + aggregate.cross_session_loads, 0)
        << "no cross-session reuse events recorded over the wire";
  }
}

// --- Protocol robustness --------------------------------------------------

// Parses `"name":N` out of a metrics JSON snapshot; -1 when absent.
int64_t CounterFromSnapshot(const std::string& json,
                            const std::string& name) {
  std::string needle = "\"" + name + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return -1;
  }
  return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
}

class RobustnessTest : public NetTest {
 protected:
  void StartServer(uint32_t max_payload_bytes = 1u << 16) {
    ServerOptions options;
    options.service.workspace_dir = JoinPath(dir_, "server");
    options.service.num_threads = 2;
    options.max_payload_bytes = max_payload_bytes;
    auto server = HelixServer::Start(options, SyntheticResolver());
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(server).value();
  }

  void TearDown() override {
    server_.reset();  // stop (and persist stats) before the dir goes away
    NetTest::TearDown();
  }

  // The liveness probe: a well-behaved client can still open a session.
  void ExpectServerStillServes() {
    auto client = HelixClient::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto session = (*client)->OpenSession("prober");
    EXPECT_TRUE(session.ok()) << session.status().ToString();
  }

  std::unique_ptr<HelixServer> server_;
};

TEST_F(RobustnessTest, TruncatedFrameLeavesServerServing) {
  StartServer();
  {
    auto conn = Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(conn.ok());
    std::string bytes = EncodeFrame(MakeTestFrame());
    ASSERT_TRUE(
        (*conn)->WriteAll(bytes.data(), bytes.size() / 2).ok());
    // Connection closes mid-frame when `conn` goes out of scope.
  }
  ExpectServerStillServes();
  // A mid-frame EOF is a torn stream: the hangup is classified as a
  // dropped peer. (The counter is bumped on the hangup path; poll.)
  auto probe = HelixClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(probe.ok());
  int64_t drops = 0;
  for (int i = 0; i < 200; ++i) {
    auto metrics = (*probe)->GetMetricsJson();
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    drops = CounterFromSnapshot(*metrics, "server.reply_drops");
    if (drops >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(drops, 1) << "torn stream was not counted as a reply drop";
}

TEST_F(RobustnessTest, CorruptChecksumYieldsErrorReplyThenClose) {
  StartServer();
  auto conn = Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  std::string bytes = EncodeFrame(MakeTestFrame());
  bytes[kFrameHeaderBytes] ^= 0x01;  // first payload byte
  ASSERT_TRUE((*conn)->WriteAll(bytes.data(), bytes.size()).ok());
  auto reply = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->opcode, static_cast<uint8_t>(Opcode::kReply));
  EXPECT_EQ(reply->request_id, MakeTestFrame().request_id);
  Status remote = DecodeEmptyReply(reply->payload);
  EXPECT_TRUE(remote.IsCorruption()) << remote.ToString();
  // The stream is untrusted after a framing error: the server drops it.
  auto next = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
  EXPECT_FALSE(next.ok());
  ExpectServerStillServes();
}

TEST_F(RobustnessTest, OversizedFrameYieldsErrorReplyThenClose) {
  StartServer(/*max_payload_bytes=*/4096);
  auto conn = Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  // A header declaring a payload far beyond the server's limit; the body
  // is never sent — the server must reject on the declared length alone
  // (and must not allocate it).
  ByteWriter header;
  header.PutU32(kFrameMagic);
  header.PutU8(kProtocolVersion);
  header.PutU8(static_cast<uint8_t>(Opcode::kOpenSession));
  header.PutU64(/*request_id=*/7);
  header.PutU32(512u << 20);
  ASSERT_TRUE(
      (*conn)->WriteAll(header.data().data(), header.data().size()).ok());
  auto reply = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->request_id, 7u);
  Status remote = DecodeEmptyReply(reply->payload);
  EXPECT_TRUE(remote.IsResourceExhausted()) << remote.ToString();
  auto next = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
  EXPECT_FALSE(next.ok());
  ExpectServerStillServes();
}

TEST_F(RobustnessTest, UnknownOpcodeIsAnsweredAndConnectionSurvives) {
  StartServer();
  auto conn = Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  Frame weird;
  weird.opcode = 42;
  weird.request_id = 99;
  weird.payload = "whatever";
  ASSERT_TRUE(WriteFrame(conn->get(), weird).ok());
  auto reply = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->request_id, 99u);
  Status remote = DecodeEmptyReply(reply->payload);
  EXPECT_TRUE(remote.IsInvalidArgument()) << remote.ToString();
  // A well-framed unknown opcode is not a framing error: the same
  // connection keeps working.
  Frame open;
  open.opcode = static_cast<uint8_t>(Opcode::kOpenSession);
  open.request_id = 100;
  open.payload = EncodeOpenSessionRequest("after-weird");
  ASSERT_TRUE(WriteFrame(conn->get(), open).ok());
  auto open_reply = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
  ASSERT_TRUE(open_reply.ok()) << open_reply.status().ToString();
  auto session_id = DecodeOpenSessionReply(open_reply->payload);
  EXPECT_TRUE(session_id.ok()) << session_id.status().ToString();
  ExpectServerStillServes();
}

TEST_F(RobustnessTest, RemoteApplicationErrorsKeepTheirStatusCode) {
  StartServer();
  auto client = HelixClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  // Unknown session id.
  auto result = (*client)->RunIteration(12345, MakeSyntheticSpec(1, 0),
                                        "x", ChangeCategory::kInitial);
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();
  EXPECT_NE(result.status().message().find("remote:"), std::string::npos);
  // Unknown app spec.
  auto session = (*client)->OpenSession("errors");
  ASSERT_TRUE(session.ok());
  core::WorkflowSpec unknown;
  unknown.app = "no-such-app";
  auto unresolved = (*client)->RunIteration(session.value(), unknown, "x",
                                            ChangeCategory::kInitial);
  EXPECT_TRUE(unresolved.status().IsNotFound())
      << unresolved.status().ToString();
  // The connection survives application-level errors.
  auto counters = (*client)->GetCounters(0);
  EXPECT_TRUE(counters.ok()) << counters.status().ToString();
}

// GetMetrics / GetTrace round-trip over loopback: the wire introspection
// opcodes return the server's live telemetry as JSON, and a request that
// smuggles payload bytes is rejected without killing the connection.
TEST_F(RobustnessTest, GetMetricsAndTraceRoundTrip) {
  StartServer();
  auto client = HelixClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  auto session = (*client)->OpenSession("telemetry");
  ASSERT_TRUE(session.ok());
  for (int i = 0; i < 2; ++i) {
    auto result = (*client)->RunIteration(
        session.value(), MakeSyntheticSpec(/*seed=*/5, i),
        "iter-" + std::to_string(i),
        i == 0 ? ChangeCategory::kInitial
               : ChangeCategory::kMachineLearning);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }

  auto metrics = (*client)->GetMetricsJson();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  // The snapshot reflects the work just done across the layers: executor
  // counters, store traffic, pool queueing, and the server's own request
  // phases (this very GetMetrics request arrived through them).
  EXPECT_NE(metrics->find("\"record\":\"helix_metrics\""),
            std::string::npos);
  EXPECT_NE(metrics->find("executor.iterations"), std::string::npos);
  EXPECT_NE(metrics->find("store.hits"), std::string::npos);
  EXPECT_NE(metrics->find("store.misses"), std::string::npos);
  EXPECT_NE(metrics->find("pool.task_wait_micros"), std::string::npos);
  EXPECT_NE(metrics->find("server.decode_micros"), std::string::npos);
  EXPECT_NE(metrics->find("server.requests"), std::string::npos);
  // One output-fingerprint sample per RunIteration reply (the histogram's
  // "count" is its first field).
  EXPECT_EQ(CounterFromSnapshot(
                *metrics, "server.reply_fingerprint_micros\":{\"count"),
            2);

  auto trace = (*client)->GetTraceJson();
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_NE(trace->find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(trace->find("\"cat\":\"node\""), std::string::npos);
  EXPECT_NE(trace->find("\"outcome\":"), std::string::npos);

  // A GetMetrics request carrying payload bytes is malformed by contract.
  auto conn = Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  Frame bad;
  bad.opcode = static_cast<uint8_t>(Opcode::kGetMetrics);
  bad.request_id = 11;
  bad.payload = "stray";
  ASSERT_TRUE(WriteFrame(conn->get(), bad).ok());
  auto reply = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->request_id, 11u);
  auto decoded = DecodeTextReply(reply->payload);
  EXPECT_TRUE(decoded.status().IsCorruption())
      << decoded.status().ToString();
  ExpectServerStillServes();
}

// Close() from another thread must unblock a Call parked on a server
// that accepted the connection but never answers — the escape hatch has
// to work exactly when the server is wedged.
TEST(ClientTest, CloseUnblocksCallStuckOnSilentServer) {
  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  std::thread acceptor([&]() {
    auto conn = (*listener)->Accept();
    if (conn.ok()) {
      // Hold the connection open, read nothing, answer nothing, until the
      // client gives up.
      char byte;
      (void)(*conn)->ReadAllOrEof(&byte, 1);
    }
  });
  auto client = HelixClient::Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(client.ok());
  std::thread closer([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    (*client)->Close();
  });
  int64_t start = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count();
  auto session = (*client)->OpenSession("stuck");
  int64_t elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count() -
      start;
  EXPECT_FALSE(session.ok());
  EXPECT_LT(elapsed_ms, 5000) << "Close() did not unblock the call";
  closer.join();
  (*listener)->Close();
  acceptor.join();
}

// Deterministic fuzz: random mutations (bit flips, truncations, garbage)
// of a valid frame, each thrown at a fresh connection. The server must
// shrug every one off and keep serving.
TEST_F(RobustnessTest, FuzzedFramesNeverKillTheServer) {
  StartServer();
  Rng rng(0xF0CCED);
  std::string valid = EncodeFrame(MakeTestFrame());
  for (int round = 0; round < 120; ++round) {
    auto conn = Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(conn.ok()) << "round " << round;
    std::string bytes = valid;
    int mutations = static_cast<int>(rng.NextInt(1, 8));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.NextInt(0, 2)) {
        case 0: {  // flip a byte
          if (bytes.empty()) {
            break;
          }
          size_t i = static_cast<size_t>(
              rng.NextInt(0, static_cast<int64_t>(bytes.size()) - 1));
          bytes[i] = static_cast<char>(bytes[i] ^
                                       (1 << rng.NextInt(0, 7)));
          break;
        }
        case 1: {  // truncate
          if (bytes.empty()) {
            break;
          }
          bytes = bytes.substr(
              0, static_cast<size_t>(rng.NextInt(
                     0, static_cast<int64_t>(bytes.size()))));
          break;
        }
        default: {  // append garbage
          bytes.push_back(static_cast<char>(rng.NextInt(0, 255)));
          break;
        }
      }
    }
    if (!bytes.empty()) {
      (void)(*conn)->WriteAll(bytes.data(), bytes.size());
    }
    // Drop the connection without reading any reply: the server must
    // handle both the garbage and the abrupt hangup.
  }
  ExpectServerStillServes();
}

// --- Session lifecycle ----------------------------------------------------

// Connect/OpenSession/work/drop, N times, without ever sending
// CloseSession: close-on-disconnect must reap every server-side session
// (the count returns to baseline) while the retired sessions' counters
// stay in the service aggregate.
TEST_F(NetTest, DisconnectReapsSessionsEventMode) {
  ServerOptions options;
  options.service.workspace_dir = JoinPath(dir_, "reap-event");
  options.service.num_threads = 2;
  auto server = HelixServer::Start(options, SyntheticResolver());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  service::SessionService* service = (*server)->service();
  ASSERT_NE(service, nullptr);
  const size_t baseline = service->num_sessions();
  constexpr int kCycles = 6;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    auto client = HelixClient::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    auto session = (*client)->OpenSession("cycle-" + std::to_string(cycle));
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    auto result = (*client)->RunIteration(session.value(),
                                          MakeSyntheticSpec(/*seed=*/21, 0),
                                          "iter", ChangeCategory::kInitial);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    (*client).reset();  // drop the connection without CloseSession
  }
  // Close-on-disconnect runs on the server's hangup path, asynchronous
  // to the client's close.
  for (int i = 0; i < 500 && service->num_sessions() != baseline; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(service->num_sessions(), baseline)
      << "server-side sessions leaked across " << kCycles
      << " connect/drop cycles";
  // The vanished clients' work is still in the aggregate.
  auto probe = HelixClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(probe.ok());
  auto aggregate = (*probe)->GetCounters(0);
  ASSERT_TRUE(aggregate.ok()) << aggregate.status().ToString();
  EXPECT_EQ(aggregate->iterations, kCycles);
  (*server)->Stop();
}

TEST_F(RobustnessTest, CloseSessionRetiresCountersAndRejectsReuse) {
  StartServer();
  auto client = HelixClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  auto session = (*client)->OpenSession("closer");
  ASSERT_TRUE(session.ok());
  auto result = (*client)->RunIteration(session.value(),
                                        MakeSyntheticSpec(/*seed=*/3, 0),
                                        "iter", ChangeCategory::kInitial);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto per_session = (*client)->GetCounters(session.value());
  ASSERT_TRUE(per_session.ok());
  EXPECT_EQ(per_session->iterations, 1);

  ASSERT_TRUE((*client)->CloseSession(session.value()).ok());
  // The id is dead for every opcode...
  EXPECT_TRUE(
      (*client)->GetCounters(session.value()).status().IsNotFound());
  EXPECT_TRUE((*client)
                  ->RunIteration(session.value(),
                                 MakeSyntheticSpec(/*seed=*/3, 1), "late",
                                 ChangeCategory::kMachineLearning)
                  .status()
                  .IsNotFound());
  // ...including a second close.
  EXPECT_TRUE((*client)->CloseSession(session.value()).IsNotFound());
  // But its work survives in the aggregate, and the connection is fine.
  auto aggregate = (*client)->GetCounters(0);
  ASSERT_TRUE(aggregate.ok());
  EXPECT_EQ(aggregate->iterations, 1);
  EXPECT_TRUE((*client)->OpenSession("closer-2").ok());
}

// --- Async multiplexing ---------------------------------------------------

// Many calls in flight on ONE connection, issued without waiting: every
// completion fires exactly once, with no transport error.
TEST_F(RobustnessTest, AsyncClientMultiplexesManyCallsOnOneConnection) {
  StartServer();
  auto client = HelixClient::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(client.ok());
  auto session = (*client)->OpenSession("multiplexer");
  ASSERT_TRUE(session.ok());

  constexpr int kCalls = 48;
  std::mutex mu;
  std::condition_variable cv;
  int completed = 0;
  std::vector<std::string> failures;
  auto tally = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(mu);
    if (!status.ok()) {
      failures.push_back(status.ToString());
    }
    ++completed;
    cv.notify_all();
  };
  for (int i = 0; i < kCalls; ++i) {
    (*client)->GetCountersAsync(
        0, [&tally](Result<service::SessionCounters> reply) {
          tally(reply.status());
        });
  }
  // An iteration interleaved among the snapshots exercises out-of-order
  // completion: the snapshots queued behind it finish only after it.
  (*client)->RunIterationAsync(
      session.value(), MakeSyntheticSpec(/*seed=*/9, 0), "async-iter",
      ChangeCategory::kInitial,
      [&tally](Result<RemoteIterationResult> reply) {
        tally(reply.status());
      });

  std::unique_lock<std::mutex> lock(mu);
  ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(60),
                          [&]() { return completed == kCalls + 1; }))
      << completed << " of " << (kCalls + 1) << " completions arrived";
  EXPECT_TRUE(failures.empty())
      << failures.size() << " failed, first: " << failures.front();
}

// --- Backpressure ---------------------------------------------------------

// Bounds how long a raw-socket ReadFrame may wait, so a reply the server
// never sends fails the test instead of hanging it.
void SetReceiveTimeout(TcpConnection* conn, int seconds) {
  timeval tv{};
  tv.tv_sec = seconds;
  ASSERT_EQ(setsockopt(conn->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)),
            0);
}

// A resolver whose "block" app parks the resolving pool worker on a
// latch — with a single-worker pool this wedges the service
// deterministically, so shedding thresholds can be asserted exactly.
core::WorkflowResolver BlockingResolver(std::promise<void>* entered,
                                  std::shared_future<void> release) {
  auto inner = SyntheticResolver();
  return [entered, release = std::move(release),
          inner](const core::WorkflowSpec& spec) -> Result<core::Workflow> {
    if (spec.app == "block") {
      entered->set_value();
      release.wait();
      return Status::NotFound("blocker released");
    }
    return inner(spec);
  };
}

// Unparks the BlockingResolver's worker once, at the latest on scope
// exit: declared after the server, it runs before the server's Stop(),
// so a failed assertion cannot leave the drain waiting on a parked task.
class Unparker {
 public:
  explicit Unparker(std::promise<void>* release) : release_(release) {}
  ~Unparker() { Release(); }
  void Release() {
    if (!released_) {
      released_ = true;
      release_->set_value();
    }
  }

 private:
  std::promise<void>* release_;
  bool released_ = false;
};

// A connection that pipelines past max_inflight_per_connection while the
// pool is wedged gets ResourceExhausted for exactly the excess frames —
// each shed reply keyed to its own request id, the connection alive, and
// the admitted requests answered once the pool frees up.
TEST_F(NetTest, PipelinedFloodIsShedPerConnectionInEventMode) {
  std::promise<void> entered;
  std::promise<void> release;
  ServerOptions options;
  options.max_inflight_per_connection = 4;
  options.service.workspace_dir = JoinPath(dir_, "flood-event");
  options.service.num_threads = 1;  // one worker, parked by the blocker
  auto server = HelixServer::Start(
      options, BlockingResolver(&entered, release.get_future().share()));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Unparker unpark(&release);

  auto blocker = HelixClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(blocker.ok());
  auto blocker_session = (*blocker)->OpenSession("blocker");
  ASSERT_TRUE(blocker_session.ok());
  std::promise<Status> blocked_done;
  core::WorkflowSpec block_spec;
  block_spec.app = "block";
  (*blocker)->RunIterationAsync(
      blocker_session.value(), block_spec, "park",
      ChangeCategory::kInitial,
      [&blocked_done](Result<RemoteIterationResult> reply) {
        blocked_done.set_value(reply.status());
      });
  entered.get_future().wait();

  auto conn = Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  SetReceiveTimeout(conn->get(), 20);
  constexpr int kFlood = 20;
  constexpr uint64_t kBase = 1000;
  const int kLimit = options.max_inflight_per_connection;
  for (int i = 0; i < kFlood; ++i) {
    Frame request;
    request.opcode = static_cast<uint8_t>(Opcode::kGetCounters);
    request.request_id = kBase + static_cast<uint64_t>(i);
    request.payload = EncodeGetCountersRequest(0);
    ASSERT_TRUE(WriteFrame(conn->get(), request).ok()) << "frame " << i;
  }
  // While the worker is parked nothing but shed replies can flow, and
  // they are exactly the frames past the limit, in arrival order.
  for (int i = 0; i < kFlood - kLimit; ++i) {
    auto reply = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->request_id,
              kBase + static_cast<uint64_t>(kLimit + i));
    auto decoded = DecodeCountersReply(reply->payload);
    EXPECT_TRUE(decoded.status().IsResourceExhausted())
        << decoded.status().ToString();
  }
  // Release the worker: the admitted requests complete normally.
  unpark.Release();
  std::vector<uint64_t> admitted_ids;
  for (int i = 0; i < kLimit; ++i) {
    auto reply = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    admitted_ids.push_back(reply->request_id);
    auto decoded = DecodeCountersReply(reply->payload);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  }
  std::sort(admitted_ids.begin(), admitted_ids.end());
  for (int i = 0; i < kLimit; ++i) {
    EXPECT_EQ(admitted_ids[static_cast<size_t>(i)],
              kBase + static_cast<uint64_t>(i));
  }
  EXPECT_FALSE(blocked_done.get_future().get().ok());

  auto probe = HelixClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(probe.ok());
  auto metrics = (*probe)->GetMetricsJson();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(CounterFromSnapshot(*metrics, "server.requests_shed"),
            kFlood - kLimit);
  (*server)->Stop();
}

// The same shedding contract, tripped by the loop-wide in-flight bound
// instead: with the blocker's request holding one slot and a total limit
// of 3, a 10-frame flood on another connection admits 2 and sheds 8.
TEST_F(NetTest, PipelinedFloodIsShedByGlobalLimitInEventMode) {
  std::promise<void> entered;
  std::promise<void> release;
  ServerOptions options;
  options.max_inflight_per_connection = 64;
  options.max_inflight_total = 3;
  options.service.workspace_dir = JoinPath(dir_, "flood-global");
  options.service.num_threads = 1;
  auto server = HelixServer::Start(
      options, BlockingResolver(&entered, release.get_future().share()));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  Unparker unpark(&release);

  auto blocker = HelixClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(blocker.ok());
  auto blocker_session = (*blocker)->OpenSession("blocker");
  ASSERT_TRUE(blocker_session.ok());
  std::promise<Status> blocked_done;
  core::WorkflowSpec block_spec;
  block_spec.app = "block";
  (*blocker)->RunIterationAsync(
      blocker_session.value(), block_spec, "park",
      ChangeCategory::kInitial,
      [&blocked_done](Result<RemoteIterationResult> reply) {
        blocked_done.set_value(reply.status());
      });
  entered.get_future().wait();

  auto conn = Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(conn.ok());
  SetReceiveTimeout(conn->get(), 20);
  constexpr int kFlood = 10;
  constexpr uint64_t kBase = 2000;
  const int kAdmitted = 2;  // blocker holds slot 1 of max_inflight_total=3
  for (int i = 0; i < kFlood; ++i) {
    Frame request;
    request.opcode = static_cast<uint8_t>(Opcode::kGetCounters);
    request.request_id = kBase + static_cast<uint64_t>(i);
    request.payload = EncodeGetCountersRequest(0);
    ASSERT_TRUE(WriteFrame(conn->get(), request).ok()) << "frame " << i;
  }
  for (int i = 0; i < kFlood - kAdmitted; ++i) {
    auto reply = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->request_id,
              kBase + static_cast<uint64_t>(kAdmitted + i));
    auto decoded = DecodeCountersReply(reply->payload);
    EXPECT_TRUE(decoded.status().IsResourceExhausted())
        << decoded.status().ToString();
  }
  unpark.Release();
  std::vector<uint64_t> admitted_ids;
  for (int i = 0; i < kAdmitted; ++i) {
    auto reply = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    admitted_ids.push_back(reply->request_id);
    auto decoded = DecodeCountersReply(reply->payload);
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
  }
  std::sort(admitted_ids.begin(), admitted_ids.end());
  for (int i = 0; i < kAdmitted; ++i) {
    EXPECT_EQ(admitted_ids[static_cast<size_t>(i)],
              kBase + static_cast<uint64_t>(i));
  }
  EXPECT_FALSE(blocked_done.get_future().get().ok());

  auto probe = HelixClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(probe.ok());
  auto metrics = (*probe)->GetMetricsJson();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(CounterFromSnapshot(*metrics, "server.requests_shed"),
            kFlood - kAdmitted);
  (*server)->Stop();
}

// A peer that requests replies and never reads them must be torn down
// once its outbound queue blows the byte budget — classified as
// server.reply_timeouts (slow reader), not reply_drops — while the
// server keeps serving everyone else.
TEST_F(NetTest, SlowReaderIsTornDownAndClassifiedInEventMode) {
  ServerOptions options;
  options.max_outbound_queue_bytes = 64 << 10;
  // The in-flight limits must not fire first; this test is about the
  // byte budget.
  options.max_inflight_per_connection = 1 << 20;
  options.max_inflight_total = 1 << 20;
  options.service.workspace_dir = JoinPath(dir_, "slow-reader");
  options.service.num_threads = 2;
  auto server = HelixServer::Start(options, SyntheticResolver());
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto victim = Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(victim.ok());
  // Pump metrics requests and never read a byte back. Replies fill the
  // kernel buffers, then the outbound queue, then the budget trips and
  // the server resets the connection — visible here as a write failure
  // once the reset propagates. Batched with pauses so the pool keeps
  // pace and the leftover task backlog stays small.
  bool torn_down = false;
  uint64_t next_id = 1;
  for (int batch = 0; batch < 100 && !torn_down; ++batch) {
    for (int i = 0; i < 500; ++i) {
      Frame request;
      request.opcode = static_cast<uint8_t>(Opcode::kGetMetrics);
      request.request_id = next_id++;
      if (!WriteFrame(victim->get(), request).ok()) {
        torn_down = true;
        break;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(torn_down) << "server never tore down the slow reader";

  // The kill is classified and the server still serves. (The counter is
  // bumped on the hangup path; poll briefly.)
  auto probe = HelixClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(probe.ok());
  int64_t timeouts = 0;
  for (int i = 0; i < 200; ++i) {
    auto metrics = (*probe)->GetMetricsJson();
    ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
    timeouts = CounterFromSnapshot(*metrics, "server.reply_timeouts");
    if (timeouts >= 1) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_GE(timeouts, 1) << "slow-reader kill was not classified";
  // The victim's connection is gone server-side (probe remains).
  for (int i = 0; i < 100 && (*server)->num_connections() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_LE((*server)->num_connections(), 1);
  (*server)->Stop();
}

// --- FetchOutput / zero-copy reply path -----------------------------------

// Runs one iteration against a fresh server (materializing every output)
// and fetches every output back by the signature the reply carried. The
// replies take the event loop's queued-spans path, where each pins its
// DataCollection until the kernel takes the bytes; what arrives must be
// the very output the iteration fingerprinted.
TEST_F(NetTest, FetchOutputZeroCopyMatchesIterationFingerprints) {
  ServerOptions options;
  options.service.workspace_dir = JoinPath(dir_, "fetch");
  options.service.num_threads = 2;
  options.service.mat_policy =
      std::make_shared<core::AlwaysMaterializePolicy>();
  auto server = HelixServer::Start(options, SyntheticResolver());
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = HelixClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto session = (*client)->OpenSession("fetcher");
  ASSERT_TRUE(session.ok());
  auto result = (*client)->RunIteration(session.value(),
                                        MakeSyntheticSpec(/*seed=*/77, 0),
                                        "iter-0", ChangeCategory::kInitial);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->outputs.empty());
  for (const RemoteOutput& output : result->outputs) {
    ASSERT_NE(output.signature, 0u)
        << "server could not resolve the producing node for "
        << output.name;
    auto fetched = (*client)->FetchOutput(output.signature);
    ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
    EXPECT_EQ(fetched->Fingerprint(), output.fingerprint)
        << "output " << output.name;
  }
  // A signature the store has never seen is a clean remote NotFound.
  auto missing = (*client)->FetchOutput(0x0BADC0DEDEADBEEFULL);
  ASSERT_FALSE(missing.ok());
  EXPECT_TRUE(missing.status().IsNotFound())
      << missing.status().ToString();
  EXPECT_NE(missing.status().message().find("remote: "), std::string::npos);
  (*server)->Stop();
}

// The client verifies a FetchOutput reply exactly once: the frame CRC
// covers the envelope, so decoding it hashes nothing more.
TEST(FetchOutputDecodeTest, ClientDecodeRunsOneChecksum) {
  dataflow::DataCollection data =
      dataflow::DataCollection::FromTable(dataflow::MakeTable(
          dataflow::Schema::AllStrings({"v"}),
          std::vector<dataflow::Row>(100, {dataflow::Value("row")})));
  SpanWriter spans;
  EncodeFetchOutputReplyToSpans(data, &spans);
  Frame reply;
  reply.opcode = static_cast<uint8_t>(Opcode::kReply);
  reply.request_id = 5;
  reply.payload = spans.Flatten();

  auto listener = TcpListener::Listen("127.0.0.1", 0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&]() {
    auto conn = (*listener)->Accept();
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(WriteFrame(conn->get(), reply).ok());
  });
  auto conn = Connect("127.0.0.1", (*listener)->port());
  ASSERT_TRUE(conn.ok());
  server.join();

  auto checksums = []() {
    return dataflow::simd::InvocationCount(dataflow::simd::Kernel::kCrc32c,
                                           dataflow::simd::Crc32cIsa());
  };
  uint64_t before = checksums();
  auto frame = ReadFrame(conn->get(), kDefaultMaxPayloadBytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  auto decoded = DecodeFetchOutputReply(frame->payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(checksums(), before + 1);
  EXPECT_EQ(decoded->Fingerprint(), data.Fingerprint());
  // The buffer decoder (the server's read path) agrees.
  before = checksums();
  std::string encoded = EncodeFrame(reply);
  Frame again;
  auto consumed =
      DecodeFrameFromBuffer(encoded, kDefaultMaxPayloadBytes, &again);
  ASSERT_TRUE(consumed.ok()) << consumed.status().ToString();
  EXPECT_EQ(consumed.value(), encoded.size());
  ASSERT_TRUE(DecodeFetchOutputReply(again.payload).ok());
  EXPECT_EQ(checksums(), before + 2);  // EncodeFrame's + the decoder's
  (*listener)->Close();
}

// A FetchOutput reply past the server's frame payload limit would make the
// client reject the frame and drop the connection, failing every call in
// flight there. The server answers that one call with ResourceExhausted
// instead, and the connection keeps serving.
TEST_F(NetTest, OversizedFetchOutputReplyIsResourceExhausted) {
  ServerOptions options;
  options.service.workspace_dir = JoinPath(dir_, "limit");
  options.service.num_threads = 2;
  options.service.mat_policy =
      std::make_shared<core::AlwaysMaterializePolicy>();
  options.max_payload_bytes = 16 * 1024;
  auto resolver = [](const core::WorkflowSpec&) -> Result<core::Workflow> {
    core::Workflow wf("big-and-small");
    // 8192 distinct int64 values: a 64 KiB column body.
    core::NodeRef big = wf.Add(core::ops::Reducer(
        "big", core::Phase::kDataPreprocessing, 1,
        [](const std::vector<const dataflow::DataCollection*>&)
            -> Result<dataflow::DataCollection> {
          dataflow::ColumnBuilder v(dataflow::ValueType::kInt);
          for (int64_t i = 0; i < 8192; ++i) {
            v.AppendInt(i);
          }
          HELIX_ASSIGN_OR_RETURN(
              auto table,
              dataflow::TableData::FromColumns(
                  dataflow::Schema({{"v", dataflow::ValueType::kInt}}),
                  {v.Finish()}));
          return dataflow::DataCollection::FromTable(std::move(table));
        }));
    core::NodeRef small = wf.Add(core::ops::Synthetic(
        "small", core::Phase::kDataPreprocessing, 2, core::SyntheticCosts{}));
    wf.MarkOutput(big);
    wf.MarkOutput(small);
    return wf;
  };
  auto server = HelixServer::Start(options, resolver);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = HelixClient::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok());
  auto session = (*client)->OpenSession("limited");
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  core::WorkflowSpec spec;
  spec.app = "big";
  auto result = (*client)->RunIteration(session.value(), spec, "iter-0",
                                        ChangeCategory::kInitial);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  uint64_t big_sig = 0;
  uint64_t small_sig = 0;
  for (const RemoteOutput& output : result->outputs) {
    (output.name == "big" ? big_sig : small_sig) = output.signature;
  }
  ASSERT_NE(big_sig, 0u);
  ASSERT_NE(small_sig, 0u);

  auto big = (*client)->FetchOutput(big_sig);
  ASSERT_FALSE(big.ok());
  EXPECT_TRUE(big.status().IsResourceExhausted()) << big.status().ToString();
  // Same client, same connection: the next call succeeds.
  auto small = (*client)->FetchOutput(small_sig);
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  for (const RemoteOutput& output : result->outputs) {
    if (output.name == "small") {
      EXPECT_EQ(small->Fingerprint(), output.fingerprint);
    }
  }
  (*server)->Stop();
}

}  // namespace
}  // namespace net
}  // namespace helix
