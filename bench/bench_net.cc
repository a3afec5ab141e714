// bench_net: what does the wire cost? In-process SessionService vs the
// same service behind loopback TCP (HelixServer + one HelixClient per
// user), same 4-user census workload, fresh workspace per mode. Emits one
// "json,{...}" line per mode with aggregate throughput, p50/p99 iteration
// latency, and the reuse hit rates — if remoting is correct, the hit
// rates match and only the latency overhead differs.
//
// Also emits the event loop's scaling curve (1/10/100/1000 concurrent
// connections, with the process thread count as evidence of its flat
// thread model), the zero-copy FetchOutput reply throughput, and a
// serial-vs-pipelined RPC row for the async multiplexing client.
//
// Usage: bench_net [--users=4] [--iterations=6] [--rows=4000] [--threads=0]
//                  [--max-clients=1000]
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/census_app.h"
#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/json.h"
#include "core/materialization.h"
#include "datagen/census_gen.h"
#include "net/app_specs.h"
#include "net/client.h"
#include "net/server.h"
#include "service/session_service.h"

namespace helix {
namespace bench {
namespace {

struct Config {
  int users = 4;
  int iterations = 6;
  int64_t rows = 4000;
  int threads = 0;
  /// Largest point on the connection-scaling curve.
  int max_clients = 1000;
};

struct ModeResult {
  std::vector<int64_t> latencies_micros;  // all users, sorted
  service::SessionCounters totals;
  int64_t wall_micros = 0;
};

// Runs one user's census script, timing each iteration through `run`.
template <typename RunFn>
void DriveUser(const Config& config, const std::string& train,
               const std::string& test, RunFn run,
               std::vector<int64_t>* latencies) {
  apps::CensusConfig census;
  census.train_path = train;
  census.test_path = test;
  census.learner.epochs = 6;
  auto script = apps::MakeCensusIterationScript();
  for (int i = 0; i < config.iterations; ++i) {
    const auto& step = script[static_cast<size_t>(i) % script.size()];
    step.mutate(&census);
    int64_t start = SystemClock::Default()->NowMicros();
    CheckOk(run(census, step.description, step.category), "iteration");
    latencies->push_back(SystemClock::Default()->NowMicros() - start);
  }
}

ModeResult RunInProcess(const Config& config, const std::string& workspace,
                        const std::string& train, const std::string& test) {
  service::ServiceOptions options;
  options.workspace_dir = workspace;
  options.num_threads = config.threads > 0 ? config.threads : config.users;
  auto service = ValueOrDie(service::SessionService::Open(options),
                            "open service");
  std::vector<service::ServiceSession*> sessions;
  for (int u = 0; u < config.users; ++u) {
    sessions.push_back(ValueOrDie(
        service->CreateSession("user-" + std::to_string(u)), "session"));
  }
  std::vector<std::vector<int64_t>> latencies(
      static_cast<size_t>(config.users));
  std::vector<std::thread> users;
  int64_t wall_start = SystemClock::Default()->NowMicros();
  for (int u = 0; u < config.users; ++u) {
    users.emplace_back([&, u]() {
      DriveUser(config, train, test,
                [&, u](const apps::CensusConfig& census,
                       const std::string& description,
                       core::ChangeCategory category) -> Status {
                  auto result =
                      service
                          ->SubmitIteration(
                              sessions[static_cast<size_t>(u)],
                              apps::BuildCensusWorkflow(census),
                              description, category)
                          .get();
                  return result.ok() ? Status::OK() : result.status();
                },
                &latencies[static_cast<size_t>(u)]);
    });
  }
  for (std::thread& t : users) {
    t.join();
  }
  ModeResult mode;
  mode.wall_micros = SystemClock::Default()->NowMicros() - wall_start;
  mode.totals = service->AggregateCounters();
  for (const auto& user : latencies) {
    mode.latencies_micros.insert(mode.latencies_micros.end(), user.begin(),
                                 user.end());
  }
  std::sort(mode.latencies_micros.begin(), mode.latencies_micros.end());
  return mode;
}

ModeResult RunOverTcp(const Config& config, const std::string& workspace,
                      const std::string& train, const std::string& test) {
  net::ServerOptions options;
  options.service.workspace_dir = workspace;
  options.service.num_threads =
      config.threads > 0 ? config.threads : config.users;
  auto server = ValueOrDie(
      net::HelixServer::Start(options, net::MakeStandardResolver()),
      "start server");
  std::vector<std::unique_ptr<net::HelixClient>> clients;
  std::vector<uint64_t> sessions;
  for (int u = 0; u < config.users; ++u) {
    clients.push_back(ValueOrDie(
        net::HelixClient::Connect("127.0.0.1", server->port()), "connect"));
    sessions.push_back(ValueOrDie(
        clients.back()->OpenSession("user-" + std::to_string(u)),
        "open session"));
  }
  std::vector<std::vector<int64_t>> latencies(
      static_cast<size_t>(config.users));
  std::vector<std::thread> users;
  int64_t wall_start = SystemClock::Default()->NowMicros();
  for (int u = 0; u < config.users; ++u) {
    users.emplace_back([&, u]() {
      DriveUser(config, train, test,
                [&, u](const apps::CensusConfig& census,
                       const std::string& description,
                       core::ChangeCategory category) -> Status {
                  auto result =
                      clients[static_cast<size_t>(u)]->RunIteration(
                          sessions[static_cast<size_t>(u)],
                          net::MakeCensusSpec(census), description,
                          category);
                  return result.ok() ? Status::OK() : result.status();
                },
                &latencies[static_cast<size_t>(u)]);
    });
  }
  for (std::thread& t : users) {
    t.join();
  }
  ModeResult mode;
  mode.wall_micros = SystemClock::Default()->NowMicros() - wall_start;
  mode.totals = ValueOrDie(clients[0]->GetCounters(0), "aggregate counters");
  for (const auto& user : latencies) {
    mode.latencies_micros.insert(mode.latencies_micros.end(), user.begin(),
                                 user.end());
  }
  std::sort(mode.latencies_micros.begin(), mode.latencies_micros.end());
  server->Stop();
  return mode;
}

void PrintMode(const Config& config, const char* mode,
               const ModeResult& result) {
  const service::SessionCounters& t = result.totals;
  int64_t reuse = t.num_loaded;
  int64_t cross = t.cross_session_loads + t.num_shared;
  double denom = static_cast<double>(t.num_computed + reuse);
  JsonWriter json;
  json.BeginObject()
      .KV("record", "bench_net")
      .KV("mode", mode)
      .KV("users", static_cast<int64_t>(config.users))
      .KV("iterations_per_user", static_cast<int64_t>(config.iterations))
      .KV("rows", config.rows)
      .KV("wall_ms", static_cast<double>(result.wall_micros) / 1e3)
      .KV("throughput_iters_per_sec",
          result.wall_micros > 0
              ? static_cast<double>(t.iterations) * 1e6 /
                    static_cast<double>(result.wall_micros)
              : 0)
      .KV("p50_ms", PercentileSorted(result.latencies_micros, 0.5) / 1e3)
      .KV("p99_ms", PercentileSorted(result.latencies_micros, 0.99) / 1e3)
      .KV("num_computed", t.num_computed)
      .KV("num_loaded", t.num_loaded)
      .KV("num_shared", t.num_shared)
      .KV("cross_session_loads", t.cross_session_loads)
      .KV("hit_rate", denom > 0 ? static_cast<double>(reuse) / denom : 0)
      .KV("cross_session_hit_rate",
          denom > 0 ? static_cast<double>(cross) / denom : 0)
      .EndObject();
  PrintJsonLine(json);
}

// Cache-hit reply throughput: one warm iteration materializes every
// output server-side, then the client fetches the largest one in a tight
// loop. The server's store Get is a memory hit, so the measured rate is
// the reply path itself — the payload goes straight from the stored
// columns' buffers into gathered writes, never flattened into a
// contiguous reply buffer. Emits one "json,{...}" row.
void RunFetchOutputBench(const Config& config, const std::string& workspace,
                         const std::string& train, const std::string& test) {
  net::ServerOptions options;
  options.service.workspace_dir = workspace;
  options.service.num_threads = 2;
  options.service.mat_policy =
      std::make_shared<core::AlwaysMaterializePolicy>();
  auto server = ValueOrDie(
      net::HelixServer::Start(options, net::MakeStandardResolver()),
      "start server");
  auto client = ValueOrDie(
      net::HelixClient::Connect("127.0.0.1", server->port()), "connect");
  uint64_t session = ValueOrDie(client->OpenSession("fetcher"), "session");
  apps::CensusConfig census;
  census.train_path = train;
  census.test_path = test;
  census.learner.epochs = 2;
  auto result = ValueOrDie(
      client->RunIteration(session, net::MakeCensusSpec(census), "warm",
                           core::ChangeCategory::kInitial),
      "warm iteration");
  // Fetch every output once to find the biggest payload (and to fault
  // everything resident).
  uint64_t signature = 0;
  size_t payload_bytes = 0;
  for (const net::RemoteOutput& output : result.outputs) {
    if (output.signature == 0) {
      continue;
    }
    auto data =
        ValueOrDie(client->FetchOutput(output.signature), "probe fetch");
    size_t size = data.SerializeToString().size();
    if (size > payload_bytes) {
      payload_bytes = size;
      signature = output.signature;
    }
  }
  CheckOk(signature != 0
              ? Status::OK()
              : Status::Internal("no fetchable outputs materialized"),
          "fetch target");
  constexpr int kFetches = 64;
  int64_t start = SystemClock::Default()->NowMicros();
  for (int i = 0; i < kFetches; ++i) {
    auto data = ValueOrDie(client->FetchOutput(signature), "fetch");
    (void)data;
  }
  int64_t wall = SystemClock::Default()->NowMicros() - start;
  double total_bytes = static_cast<double>(payload_bytes) * kFetches;
  JsonWriter json;
  json.BeginObject()
      .KV("record", "bench_net")
      .KV("mode", "fetch_zero_copy")
      .KV("rows", config.rows)
      .KV("payload_bytes", static_cast<int64_t>(payload_bytes))
      .KV("fetches", static_cast<int64_t>(kFetches))
      .KV("wall_ms", static_cast<double>(wall) / 1e3)
      .KV("bytes_per_sec",
          wall > 0 ? total_bytes * 1e6 / static_cast<double>(wall) : 0)
      .EndObject();
  PrintJsonLine(json);
  server->Stop();
}

// Lifts RLIMIT_NOFILE to its hard cap so the 1000-connection point (two
// fds per client: one in the client, one in the server, same process)
// does not trip the default soft limit.
void RaiseFdLimit() {
  struct rlimit rl;
  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &rl);
  }
}

// Current thread count of this process (server and clients together),
// from /proc/self/status. -1 when unreadable.
int ReadThreadCount() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return -1;
  }
  char line[256];
  int threads = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Threads:", 8) == 0) {
      threads = std::atoi(line + 8);
      break;
    }
  }
  std::fclose(f);
  return threads;
}

// One point on the scaling curve: N concurrent connections sharing a
// fixed call budget of small GetCounters RPCs — the cost of carrying
// connections, not of running workflows. The thread count is sampled
// with all N connected: the server's share stays flat as N grows
// (io_threads + pool); only the clients' own receivers scale with N.
void RunScalingCell(const std::string& workspace, int num_clients) {
  net::ServerOptions options;
  options.service.workspace_dir = workspace;
  options.service.num_threads = 2;
  // This bench measures transport capacity, not shedding: lift the
  // backpressure bounds out of the way.
  options.max_inflight_per_connection = 1 << 20;
  options.max_inflight_total = 1 << 20;
  auto server = ValueOrDie(
      net::HelixServer::Start(options, net::MakeStandardResolver()),
      "start server");
  std::vector<std::unique_ptr<net::HelixClient>> clients;
  clients.reserve(static_cast<size_t>(num_clients));
  for (int c = 0; c < num_clients; ++c) {
    clients.push_back(ValueOrDie(
        net::HelixClient::Connect("127.0.0.1", server->port()), "connect"));
  }
  int threads_connected = ReadThreadCount();

  const int calls_per_client = std::max(1, 4000 / num_clients);
  const int total = calls_per_client * num_clients;
  std::mutex mu;
  std::condition_variable cv;
  int done = 0;
  std::atomic<int> failed{0};
  int64_t start = SystemClock::Default()->NowMicros();
  for (auto& client : clients) {
    for (int i = 0; i < calls_per_client; ++i) {
      client->GetCountersAsync(
          0, [&](Result<service::SessionCounters> reply) {
            if (!reply.ok()) {
              failed.fetch_add(1, std::memory_order_relaxed);
            }
            std::lock_guard<std::mutex> lock(mu);
            ++done;
            cv.notify_all();
          });
    }
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return done == total; });
  }
  int64_t wall = SystemClock::Default()->NowMicros() - start;
  CheckOk(failed.load() == 0
              ? Status::OK()
              : Status::Internal(std::to_string(failed.load()) +
                                 " scaling calls failed"),
          "scaling calls");
  JsonWriter json;
  json.BeginObject()
      .KV("record", "bench_net")
      .KV("mode", "scaling_event_loop")
      .KV("clients", static_cast<int64_t>(num_clients))
      .KV("calls", static_cast<int64_t>(total))
      .KV("threads_at_peak", static_cast<int64_t>(threads_connected))
      .KV("wall_ms", static_cast<double>(wall) / 1e3)
      .KV("calls_per_sec",
          wall > 0 ? static_cast<double>(total) * 1e6 /
                         static_cast<double>(wall)
                   : 0)
      .EndObject();
  PrintJsonLine(json);
  server->Stop();
}

void RunScalingBench(const Config& config, const std::string& workspace) {
  RaiseFdLimit();
  const int points[] = {1, 10, 100, 1000};
  for (int clients : points) {
    if (clients > config.max_clients) {
      continue;
    }
    RunScalingCell(workspace + "-" + std::to_string(clients), clients);
  }
}

// Serial vs pipelined RPC on ONE connection: the same 2000 GetCounters
// calls issued one-at-a-time (each waiting its reply) and then issued
// through the async interface with a window of 32 in flight. The ratio
// is what multiplexing buys a chatty client over loopback.
void RunPipelineBench(const std::string& workspace) {
  net::ServerOptions options;
  options.service.workspace_dir = workspace;
  options.service.num_threads = 2;
  auto server = ValueOrDie(
      net::HelixServer::Start(options, net::MakeStandardResolver()),
      "start server");
  auto client = ValueOrDie(
      net::HelixClient::Connect("127.0.0.1", server->port()), "connect");
  constexpr int kCalls = 2000;
  constexpr int kWindow = 32;

  int64_t start = SystemClock::Default()->NowMicros();
  for (int i = 0; i < kCalls; ++i) {
    ValueOrDie(client->GetCounters(0), "serial call");
  }
  int64_t serial_wall = SystemClock::Default()->NowMicros() - start;

  std::mutex mu;
  std::condition_variable cv;
  int inflight = 0;
  int done = 0;
  std::atomic<int> failed{0};
  start = SystemClock::Default()->NowMicros();
  for (int i = 0; i < kCalls; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&]() { return inflight < kWindow; });
      ++inflight;
    }
    client->GetCountersAsync(
        0, [&](Result<service::SessionCounters> reply) {
          if (!reply.ok()) {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
          std::lock_guard<std::mutex> lock(mu);
          --inflight;
          ++done;
          cv.notify_all();
        });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&]() { return done == kCalls; });
  }
  int64_t pipelined_wall = SystemClock::Default()->NowMicros() - start;
  CheckOk(failed.load() == 0
              ? Status::OK()
              : Status::Internal("pipelined calls failed"),
          "pipelined calls");
  for (bool pipelined : {false, true}) {
    int64_t wall = pipelined ? pipelined_wall : serial_wall;
    JsonWriter json;
    json.BeginObject()
        .KV("record", "bench_net")
        .KV("mode", pipelined ? "rpc_pipelined" : "rpc_serial")
        .KV("calls", static_cast<int64_t>(kCalls))
        .KV("window", static_cast<int64_t>(pipelined ? kWindow : 1))
        .KV("wall_ms", static_cast<double>(wall) / 1e3)
        .KV("calls_per_sec",
            wall > 0 ? static_cast<double>(kCalls) * 1e6 /
                           static_cast<double>(wall)
                     : 0)
        .EndObject();
    PrintJsonLine(json);
  }
  server->Stop();
}

void Run(const Config& config) {
  TempWorkspace workspace("helix-bench-net");
  std::string train = workspace.Path("census.train.csv");
  std::string test = workspace.Path("census.test.csv");
  datagen::CensusGenOptions gen;
  gen.num_rows = config.rows;
  CheckOk(datagen::WriteCensusFiles(gen, train, test), "census datagen");

  ModeResult inproc =
      RunInProcess(config, workspace.Path("ws-inproc"), train, test);
  PrintMode(config, "inproc", inproc);
  ModeResult tcp = RunOverTcp(config, workspace.Path("ws-tcp"), train, test);
  PrintMode(config, "tcp", tcp);
  RunFetchOutputBench(config, workspace.Path("ws-fetch"), train, test);
  RunPipelineBench(workspace.Path("ws-pipeline"));
  RunScalingBench(config, workspace.Path("ws-scale"));

  double ratio = tcp.wall_micros > 0
                     ? static_cast<double>(inproc.wall_micros) /
                           static_cast<double>(tcp.wall_micros)
                     : 0;
  std::printf("loopback TCP at %.2fx the in-process aggregate throughput\n",
              ratio);
}

}  // namespace
}  // namespace bench
}  // namespace helix

int main(int argc, char** argv) {
  helix::bench::Config config;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    int64_t v;
    if ((v = helix::bench::FlagValue(arg, "--users")) >= 0) {
      config.users = static_cast<int>(v);
    } else if ((v = helix::bench::FlagValue(arg, "--iterations")) >= 0) {
      config.iterations = static_cast<int>(v);
    } else if ((v = helix::bench::FlagValue(arg, "--rows")) >= 0) {
      config.rows = v;
    } else if ((v = helix::bench::FlagValue(arg, "--threads")) >= 0) {
      config.threads = static_cast<int>(v);
    } else if ((v = helix::bench::FlagValue(arg, "--max-clients")) >= 0) {
      config.max_clients = static_cast<int>(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  helix::bench::Run(config);
  helix::bench::WriteBenchSummary("net");
  return 0;
}
