// helix_server: the SessionService behind a TCP port.
//
// Serves OpenSession / RunIteration / GetCounters / Shutdown for the
// standard applications (census, ie) over the framing protocol. Runs until
// a client sends Shutdown, then drains connections, in-flight iterations,
// and pending materializations, persists the shared stats registry, and
// exits 0 — the CI smoke test asserts exactly this clean lifecycle.
//
// Usage:
//   helix_server [--host=127.0.0.1] [--port=0] [--workspace=DIR]
//                [--threads=0] [--budget-mb=1024] [--record=FILE]
//                [--io-threads=2]
//
// The epoll event loop serves any number of connections from
// --io-threads I/O threads plus the service pool.
//
// Port 0 binds an ephemeral port; the chosen one is printed on the
// "json,{...}" line (record=server_listening) before serving begins.
//
// --record=FILE captures every iteration any client runs (across all
// sessions, in service arrival order) as a .htrc workload trace, written
// at clean shutdown. Think times are recorded as 0 — the server cannot
// observe client-side pauses; workload_driver --record captures those at
// the callsite instead. Server recordings also embed each client's data
// paths verbatim, so they replay only while those files still exist;
// use driver-side --record for portable (${WS}-rebased) traces.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "bench/bench_util.h"
#include "common/json.h"
#include "dataflow/simd.h"
#include "net/app_specs.h"
#include "net/server.h"
#include "workload/trace.h"

namespace helix {
namespace tools {
namespace {

struct ServerConfig {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string workspace;
  int threads = 0;
  int64_t budget_mb = 1024;
  std::string record_out;  // empty = no trace recording
  int io_threads = 2;
};

int Run(const ServerConfig& config) {
  net::ServerOptions options;
  options.host = config.host;
  options.port = config.port;
  options.io_threads = config.io_threads;
  options.service.workspace_dir = config.workspace;
  options.service.storage_budget_bytes = config.budget_mb << 20;
  options.service.num_threads = config.threads;
  workload::TraceRecorder recorder;
  if (!config.record_out.empty()) {
    workload::TraceHeader header;
    header.scenario = "recorded";
    options.service.iteration_observer =
        [&recorder](const service::IterationObservation& obs) {
          recorder.Record(obs.session_id, obs.spec, obs.description,
                          obs.category, /*think_micros=*/0);
        };
    recorder.SetHeader(header);
  }

  auto server = net::HelixServer::Start(options,
                                        net::MakeStandardResolver());
  if (!server.ok()) {
    std::fprintf(stderr, "failed to start: %s\n",
                 server.status().ToString().c_str());
    return 1;
  }
  JsonWriter json;
  json.BeginObject()
      .KV("record", "server_listening")
      .KV("host", config.host)
      .KV("port", static_cast<int64_t>((*server)->port()))
      .KV("workspace", config.workspace)
      .KV("isa", dataflow::simd::ActiveIsaName())
      .EndObject();
  bench::PrintJsonLine(json);
  std::fflush(stdout);

  (*server)->WaitForShutdownRequest();
  std::printf("shutdown requested, draining\n");
  (*server)->Stop();
  if (!config.record_out.empty()) {
    Status written = recorder.WriteFile(config.record_out);
    if (!written.ok()) {
      std::fprintf(stderr, "failed to write recorded trace: %s\n",
                   written.ToString().c_str());
      return 1;
    }
    std::printf("recorded %zu events to %s\n", recorder.num_events(),
                config.record_out.c_str());
  }
  std::printf("clean shutdown\n");
  return 0;
}

}  // namespace
}  // namespace tools
}  // namespace helix

int main(int argc, char** argv) {
  helix::tools::ServerConfig config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    int64_t v;
    if ((v = helix::bench::FlagValue(arg, "--port")) >= 0) {
      config.port = static_cast<int>(v);
    } else if ((v = helix::bench::FlagValue(arg, "--threads")) >= 0) {
      config.threads = static_cast<int>(v);
    } else if ((v = helix::bench::FlagValue(arg, "--budget-mb")) >= 0) {
      config.budget_mb = v;
    } else if ((v = helix::bench::FlagValue(arg, "--io-threads")) >= 0) {
      config.io_threads = static_cast<int>(v);
    } else if (std::strncmp(arg, "--host=", 7) == 0) {
      config.host = arg + 7;
    } else if (std::strncmp(arg, "--workspace=", 12) == 0) {
      config.workspace = arg + 12;
    } else if (std::strncmp(arg, "--record=", 9) == 0) {
      config.record_out = arg + 9;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  // Lazy fallback: only materialize a throwaway workspace when none was
  // given (it lives until exit so the store outlasts Run()).
  std::optional<helix::bench::TempWorkspace> fallback_workspace;
  if (config.workspace.empty()) {
    fallback_workspace.emplace("helix-server");
    config.workspace = fallback_workspace->dir();
  }
  return helix::tools::Run(config);
}
