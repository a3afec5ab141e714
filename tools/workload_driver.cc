// Multi-user workload driver for the session service.
//
// Two modes sharing one binary:
//
// Legacy app mode (--app=census|ie|mixed) simulates K users iterating
// concurrently on the paper's applications with randomized think time
// between edits, against one of three targets:
//
//   * one shared in-process SessionService (--shared=1, the default):
//     cross-session reuse on;
//   * fully isolated per-user services (--shared=0): the baseline;
//   * a remote helix_server over TCP (--remote=host:port): one
//     HelixClient connection per user, workflows shipped as specs and
//     resolved server-side — the networked equivalent of the shared mode.
//
// Trace mode (--scenario=NAME or --trace=FILE) drives the workload layer
// instead: a seeded generated scenario (src/workload/generator.h) or a
// recorded .htrc trace file is replayed through src/workload/replay.h
// against the in-process service or a --remote server. The same flags
// select the target in both modes.
//
// Emits one "json,{...}" line per user and one aggregate line with
// throughput, p50/p99 iteration latency, and the store hit rate — the
// service-layer counterpart of the paper's cumulative-runtime plots. The
// aggregate metrics are computed identically for all targets, so a remote
// run is directly comparable to an in-process one; bench_net runs that
// comparison under controlled (matched-thread) conditions in one process,
// and tests/net_test.cc + tests/trace_test.cc pin the underlying
// determinism exactly.
//
// Usage:
//   workload_driver [--users=4] [--iterations=10] [--app=census|ie|mixed]
//                   [--shared=1] [--threads=0] [--think-ms=20]
//                   [--rows=8000] [--docs=80] [--budget-mb=1024]
//                   [--memory-budget-mb=0] [--seed=1]
//                   [--remote=host:port] [--shutdown-remote=0]
//                   [--metrics-out=FILE] [--trace-out=FILE]
//   workload_driver --scenario=localized|sweep|features|refresh|stream
//                   [--seed=N] [--users=2] [--iterations=8] [--rows=2000]
//                   [--docs=24] [--stream-batch-rows=400]
//                   [--refresh-period=3] [--think-ms=0] ...
//   workload_driver --trace=FILE ...
//
// Trace-mode extras:
//   --record=FILE       re-record what actually ran as a .htrc trace
//                       (paths rebased back to ${WS}, so the recording is
//                       portable and self-contained like a generated one)
//   --summary-out=FILE  deterministic replay summary JSON: per-iteration
//                       output fingerprints + counter totals, no wall
//                       times — byte-identical across runs when replayed
//                       with --virtual-clock (CI diffs record-then-replay
//                       summaries for equality)
//   --sequential=1      strict trace order on one thread
//   --data-dir=DIR      materialize the trace's data files under DIR
//                       (kept after the run) instead of a fresh temporary
//                       directory: FileSource signatures embed the paths,
//                       so two runs of the same trace with the same DIR —
//                       against one server, or across a server restart —
//                       compute the same signatures and can reuse each
//                       other's stored results
//   --virtual-clock=1   deterministic virtual time: implies sequential,
//                       pins the materialization policy, think time
//                       advances the clock instead of sleeping
//   --think-scale=X     multiplier on recorded think times (default 0)
//
// --shutdown-remote=1 sends the server a Shutdown RPC after the run (the
// CI smoke step uses this to assert a clean server exit).
//
// --metrics-out / --trace-out dump the run's telemetry after the users
// finish: the service metrics snapshot (JSON) and the span buffer as
// Chrome trace-event JSON (open in Perfetto / chrome://tracing). In
// remote mode they come from the server via GetMetrics/GetTrace RPCs
// (before any shutdown); in-process they cover the shared service, or
// the first per-user service when --shared=0.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/census_app.h"
#include "apps/ie_app.h"
#include "bench/bench_util.h"
#include "common/clock.h"
#include "common/file_util.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/materialization.h"
#include "datagen/census_gen.h"
#include "dataflow/simd.h"
#include "datagen/news_gen.h"
#include "net/app_specs.h"
#include "net/client.h"
#include "service/session_service.h"
#include "workload/generator.h"
#include "workload/replay.h"
#include "workload/trace.h"

namespace helix {
namespace tools {
namespace {

struct DriverConfig {
  int users = 4;
  int iterations = 10;
  std::string app = "census";  // census | ie | mixed
  bool shared = true;
  int threads = 0;
  int think_ms = 20;
  int64_t rows = 8000;
  int64_t docs = 80;
  int64_t budget_mb = 1024;
  /// Per-iteration RAM budget for in-flight intermediates (0 = off): the
  /// executor drops results after their last use and narrows its width to
  /// keep its planned resident peak under it.
  int64_t memory_budget_mb = 0;
  uint64_t seed = 1;
  std::string remote_host;  // empty = in-process
  int remote_port = 0;
  bool shutdown_remote = false;
  std::string metrics_out;  // empty = no metrics dump
  std::string trace_out;    // empty = no trace dump
  /// Every latency/wall measurement goes through this clock, so tests and
  /// deterministic replays can substitute a virtual one.
  Clock* clock = SystemClock::Default();

  // --- Trace mode ----------------------------------------------------------
  std::string scenario;   // non-empty = generate + replay this scenario
  std::string trace_in;   // non-empty = replay this .htrc file
  std::string record_out;  // non-empty = re-record the replay here
  std::string summary_out;  // non-empty = deterministic summary JSON
  std::string data_dir;  // non-empty = materialize trace data here
  bool sequential = false;
  bool virtual_clock = false;
  double think_scale = 0.0;
  int64_t stream_batch_rows = 400;
  int refresh_period = 3;
};

struct UserResult {
  std::string app;
  std::vector<int64_t> latencies_micros;
  service::SessionCounters counters;
};

// One user's target: an in-process ServiceSession or a remote session
// behind a HelixClient. Either way, RunCensus/RunIe executes one
// iteration and counters() snapshots the session's bookkeeping.
class UserTarget {
 public:
  UserTarget(service::SessionService* svc, service::ServiceSession* session)
      : svc_(svc), session_(session) {}
  UserTarget(net::HelixClient* client, uint64_t remote_session)
      : client_(client), remote_session_(remote_session) {}

  Status RunCensus(const apps::CensusConfig& config,
                   const std::string& description,
                   core::ChangeCategory category) {
    if (client_ != nullptr) {
      auto result = client_->RunIteration(
          remote_session_, net::MakeCensusSpec(config), description,
          category);
      return result.ok() ? Status::OK() : result.status();
    }
    // Through the shared pool, like a real service frontend would.
    auto result = svc_->SubmitIteration(session_,
                                        apps::BuildCensusWorkflow(config),
                                        description, category)
                      .get();
    return result.ok() ? Status::OK() : result.status();
  }

  Status RunIe(const apps::IeConfig& config, const std::string& description,
               core::ChangeCategory category) {
    if (client_ != nullptr) {
      auto result = client_->RunIteration(
          remote_session_, net::MakeIeSpec(config), description, category);
      return result.ok() ? Status::OK() : result.status();
    }
    auto result = svc_->SubmitIteration(session_,
                                        apps::BuildIeWorkflow(config),
                                        description, category)
                      .get();
    return result.ok() ? Status::OK() : result.status();
  }

  service::SessionCounters counters() {
    if (client_ != nullptr) {
      return bench::ValueOrDie(client_->GetCounters(remote_session_),
                               "remote counters");
    }
    return session_->counters();
  }

 private:
  service::SessionService* svc_ = nullptr;
  service::ServiceSession* session_ = nullptr;
  net::HelixClient* client_ = nullptr;
  uint64_t remote_session_ = 0;
};

// One user's life: M iterations of their app's scripted edits (cycling
// past the script end), thinking between runs.
void DriveUser(UserTarget* target, const DriverConfig& config,
               const std::string& app, const std::string& train,
               const std::string& test, const std::string& corpus,
               uint64_t user_seed, UserResult* out) {
  Rng rng(user_seed);
  Clock* clock = config.clock;
  out->app = app;
  if (app == "census") {
    apps::CensusConfig census;
    census.train_path = train;
    census.test_path = test;
    census.learner.epochs = 6;
    auto script = apps::MakeCensusIterationScript();
    for (int i = 0; i < config.iterations; ++i) {
      const auto& step = script[static_cast<size_t>(i) % script.size()];
      step.mutate(&census);
      if (config.think_ms > 0 && i > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            rng.NextInt(0, 2 * config.think_ms)));
      }
      int64_t start = clock->NowMicros();
      bench::CheckOk(target->RunCensus(census, step.description,
                                       step.category),
                     "census iteration");
      out->latencies_micros.push_back(clock->NowMicros() - start);
    }
  } else {
    apps::IeConfig ie;
    ie.corpus_path = corpus;
    ie.learner.epochs = 3;
    auto script = apps::MakeIeIterationScript();
    for (int i = 0; i < config.iterations; ++i) {
      const auto& step = script[static_cast<size_t>(i) % script.size()];
      step.mutate(&ie);
      if (config.think_ms > 0 && i > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(
            rng.NextInt(0, 2 * config.think_ms)));
      }
      int64_t start = clock->NowMicros();
      bench::CheckOk(target->RunIe(ie, step.description, step.category),
                     "ie iteration");
      out->latencies_micros.push_back(clock->NowMicros() - start);
    }
  }
  out->counters = target->counters();
}

std::unique_ptr<service::SessionService> OpenService(
    const DriverConfig& config, const std::string& workspace) {
  service::ServiceOptions options;
  options.workspace_dir = workspace;
  options.storage_budget_bytes = config.budget_mb << 20;
  options.memory_budget_bytes = config.memory_budget_mb << 20;
  options.num_threads = config.threads > 0 ? config.threads : config.users;
  return bench::ValueOrDie(service::SessionService::Open(options),
                           "open service");
}

void Run(const DriverConfig& config) {
  const bool remote = !config.remote_host.empty();
  bench::TempWorkspace workspace("helix-workload");
  std::string train = workspace.Path("census.train.csv");
  std::string test = workspace.Path("census.test.csv");
  std::string corpus = workspace.Path("news.dat");
  bool uses_census = config.app != "ie";
  bool uses_ie = config.app != "census";
  if (uses_census) {
    datagen::CensusGenOptions gen;
    gen.num_rows = config.rows;
    bench::CheckOk(datagen::WriteCensusFiles(gen, train, test),
                   "census datagen");
  }
  if (uses_ie) {
    datagen::NewsGenOptions gen;
    gen.num_docs = config.docs;
    bench::CheckOk(datagen::WriteNewsCorpus(gen, corpus), "news datagen");
  }

  // Shared mode: one service for everyone. Isolated mode: one service per
  // user — same machinery, nothing shared, the multi-tenant ablation.
  // Remote mode: no local service at all; one client connection per user
  // against one server (inherently shared, data files read server-side —
  // the driver and server must see the same filesystem).
  std::vector<std::unique_ptr<service::SessionService>> services;
  std::vector<std::unique_ptr<net::HelixClient>> clients;
  std::vector<std::unique_ptr<UserTarget>> targets;
  for (int u = 0; u < config.users; ++u) {
    if (remote) {
      clients.push_back(bench::ValueOrDie(
          net::HelixClient::Connect(config.remote_host, config.remote_port),
          "connect"));
      uint64_t session = bench::ValueOrDie(
          clients.back()->OpenSession("user-" + std::to_string(u)),
          "open remote session");
      targets.push_back(
          std::make_unique<UserTarget>(clients.back().get(), session));
      continue;
    }
    if (services.empty() || !config.shared) {
      services.push_back(OpenService(
          config, workspace.Path(config.shared
                                     ? std::string("ws-shared")
                                     : "ws-user-" + std::to_string(u))));
    }
    service::SessionService* svc = services.back().get();
    service::ServiceSession* session = bench::ValueOrDie(
        svc->CreateSession("user-" + std::to_string(u)), "create session");
    targets.push_back(std::make_unique<UserTarget>(svc, session));
  }

  std::vector<UserResult> results(static_cast<size_t>(config.users));
  std::vector<std::thread> users;
  int64_t wall_start = config.clock->NowMicros();
  for (int u = 0; u < config.users; ++u) {
    std::string app = config.app == "mixed"
                          ? (u % 2 == 0 ? "census" : "ie")
                          : config.app;
    users.emplace_back([&, app, u]() {
      DriveUser(targets[static_cast<size_t>(u)].get(), config, app, train,
                test, corpus, config.seed * 7919 + static_cast<uint64_t>(u),
                &results[static_cast<size_t>(u)]);
    });
  }
  for (std::thread& t : users) {
    t.join();
  }
  int64_t wall_micros = config.clock->NowMicros() - wall_start;

  // Per-user lines + aggregate.
  std::vector<int64_t> all_latencies;
  service::SessionCounters totals;
  for (int u = 0; u < config.users; ++u) {
    const UserResult& r = results[static_cast<size_t>(u)];
    std::vector<int64_t> sorted = r.latencies_micros;
    std::sort(sorted.begin(), sorted.end());
    all_latencies.insert(all_latencies.end(), sorted.begin(), sorted.end());
    JsonWriter json;
    json.BeginObject()
        .KV("record", "workload_user")
        .KV("user", static_cast<int64_t>(u))
        .KV("app", r.app)
        .KV("iterations", r.counters.iterations)
        .KV("p50_ms", bench::PercentileSorted(sorted, 0.5) / 1e3)
        .KV("p99_ms", bench::PercentileSorted(sorted, 0.99) / 1e3)
        .KV("num_computed", r.counters.num_computed)
        .KV("num_loaded", r.counters.num_loaded)
        .KV("num_shared", r.counters.num_shared)
        .KV("cross_session_loads", r.counters.cross_session_loads)
        .KV("saved_ms", static_cast<double>(r.counters.saved_micros) / 1e3)
        .EndObject();
    bench::PrintJsonLine(json);
    totals.iterations += r.counters.iterations;
    totals.num_computed += r.counters.num_computed;
    totals.num_loaded += r.counters.num_loaded;
    totals.num_shared += r.counters.num_shared;
    totals.cross_session_loads += r.counters.cross_session_loads;
    totals.saved_micros += r.counters.saved_micros;
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  int64_t reuse_events = totals.num_loaded;  // includes shared waits
  int64_t cross_session = totals.cross_session_loads + totals.num_shared;
  double hit_rate =
      totals.num_computed + reuse_events > 0
          ? static_cast<double>(reuse_events) /
                static_cast<double>(totals.num_computed + reuse_events)
          : 0;
  double cross_rate =
      totals.num_computed + reuse_events > 0
          ? static_cast<double>(cross_session) /
                static_cast<double>(totals.num_computed + reuse_events)
          : 0;
  JsonWriter json;
  json.BeginObject()
      .KV("record", "workload_aggregate")
      .KV("app", config.app)
      .KV("users", static_cast<int64_t>(config.users))
      .KV("iterations_per_user", static_cast<int64_t>(config.iterations))
      .KV("shared_store", config.shared || remote)
      .KV("remote", remote)
      .KV("think_ms", static_cast<int64_t>(config.think_ms))
      .KV("wall_ms", static_cast<double>(wall_micros) / 1e3)
      .KV("throughput_iters_per_sec",
          wall_micros > 0 ? static_cast<double>(totals.iterations) * 1e6 /
                                static_cast<double>(wall_micros)
                          : 0)
      .KV("p50_ms", bench::PercentileSorted(all_latencies, 0.5) / 1e3)
      .KV("p99_ms", bench::PercentileSorted(all_latencies, 0.99) / 1e3)
      .KV("num_computed", totals.num_computed)
      .KV("num_loaded", totals.num_loaded)
      .KV("num_shared", totals.num_shared)
      .KV("cross_session_loads", totals.cross_session_loads)
      .KV("hit_rate", hit_rate)
      .KV("cross_session_hit_rate", cross_rate)
      .KV("saved_ms", static_cast<double>(totals.saved_micros) / 1e3)
      .EndObject();
  bench::PrintJsonLine(json);

  // Telemetry dumps come before any remote shutdown: GetMetrics/GetTrace
  // need a live server.
  if (!config.metrics_out.empty() || !config.trace_out.empty()) {
    std::string metrics_json;
    std::string trace_json;
    if (remote) {
      metrics_json = bench::ValueOrDie(clients[0]->GetMetricsJson(),
                                       "remote metrics");
      trace_json = bench::ValueOrDie(clients[0]->GetTraceJson(),
                                     "remote trace");
    } else {
      // Kernel invocation counters live in simd-layer globals; fold the
      // deltas in so the dump shows which ISA path did the work. (The
      // remote path's GetMetrics handler does the same server-side.)
      dataflow::simd::FoldCountersInto(services[0]->metrics());
      metrics_json = services[0]->metrics()->SnapshotJson();
      trace_json = services[0]->trace()->ToChromeJson();
    }
    if (!config.metrics_out.empty()) {
      bench::CheckOk(WriteStringToFile(config.metrics_out, metrics_json),
                     "write metrics");
      std::printf("metrics written to %s\n", config.metrics_out.c_str());
    }
    if (!config.trace_out.empty()) {
      bench::CheckOk(WriteStringToFile(config.trace_out, trace_json),
                     "write trace");
    }
  }

  if (remote && config.shutdown_remote) {
    bench::CheckOk(clients[0]->Shutdown(), "remote shutdown");
    std::printf("remote server acknowledged shutdown\n");
  }
}

// --- Trace mode -----------------------------------------------------------

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void RunTrace(const DriverConfig& config) {
  const bool remote = !config.remote_host.empty();

  // 1. The trace: generated from a scenario or read from a file. A file
  // carries its own provenance (header params), so replay regenerates the
  // exact data it was generated/recorded against.
  workload::Trace trace;
  if (!config.trace_in.empty()) {
    trace = bench::ValueOrDie(workload::ReadTraceFile(config.trace_in),
                              "read trace");
  } else {
    workload::ScenarioConfig scenario;
    scenario.scenario = config.scenario;
    scenario.seed = config.seed;
    scenario.users = config.users;
    scenario.iterations = config.iterations;
    scenario.rows = config.rows;
    scenario.docs = config.docs;
    scenario.stream_batch_rows = config.stream_batch_rows;
    scenario.refresh_period = config.refresh_period;
    scenario.think_ms = config.think_ms;
    trace = bench::ValueOrDie(workload::GenerateTrace(scenario),
                              "generate trace");
  }

  // 2. Materialize the data the trace references (deterministic content,
  // so rewriting it under a kept --data-dir changes nothing).
  bench::TempWorkspace workspace("helix-trace");
  std::string data_dir =
      config.data_dir.empty() ? workspace.Path("data") : config.data_dir;
  bench::CheckOk(workload::MaterializeTraceData(trace, data_dir),
                 "materialize trace data");

  // 3. Replay.
  VirtualClock virtual_clock;
  Clock* clock = config.virtual_clock ? &virtual_clock : config.clock;
  workload::TraceRecorder recorder;
  recorder.SetHeader(trace.header);
  workload::ReplayOptions replay;
  replay.workspace_dir = workspace.Path("ws-replay");
  replay.storage_budget_bytes = config.budget_mb << 20;
  replay.memory_budget_bytes = config.memory_budget_mb << 20;
  replay.threads = config.threads > 0 ? config.threads : config.users;
  replay.clock = clock;
  if (config.virtual_clock) {
    // Measured costs are all zero on a virtual clock; pin the policy so
    // planner decisions cannot depend on leftover cost-model state.
    replay.mat_policy = std::make_shared<core::AlwaysMaterializePolicy>();
  }
  replay.remote_host = config.remote_host;
  replay.remote_port = config.remote_port;
  replay.sequential = config.sequential;
  replay.think_scale = config.think_scale;
  replay.data_dir = data_dir;
  replay.recorder = config.record_out.empty() ? nullptr : &recorder;
  workload::ReplayResult result =
      bench::ValueOrDie(workload::ReplayTrace(trace, replay), "replay");

  // 4. Per-user lines + aggregate, same shape as app mode.
  uint32_t num_users = 0;
  for (const workload::IterationRecord& record : result.records) {
    num_users = std::max(num_users, record.user + 1);
  }
  std::vector<int64_t> all_latencies;
  int64_t total_pruned = 0;
  for (uint32_t u = 0; u < num_users; ++u) {
    std::vector<int64_t> sorted;
    int64_t computed = 0;
    int64_t loaded = 0;
    int64_t shared = 0;
    int64_t pruned = 0;
    int64_t iterations = 0;
    for (const workload::IterationRecord& record : result.records) {
      if (record.user != u) {
        continue;
      }
      sorted.push_back(record.latency_micros);
      computed += record.num_computed;
      loaded += record.num_loaded;
      shared += record.num_shared;
      pruned += record.num_pruned;
      ++iterations;
    }
    total_pruned += pruned;
    std::sort(sorted.begin(), sorted.end());
    all_latencies.insert(all_latencies.end(), sorted.begin(), sorted.end());
    JsonWriter json;
    json.BeginObject()
        .KV("record", "trace_user")
        .KV("user", static_cast<int64_t>(u))
        .KV("iterations", iterations)
        .KV("p50_ms", bench::PercentileSorted(sorted, 0.5) / 1e3)
        .KV("p99_ms", bench::PercentileSorted(sorted, 0.99) / 1e3)
        .KV("num_computed", computed)
        .KV("num_loaded", loaded)
        .KV("num_shared", shared)
        .KV("num_pruned", pruned)
        .EndObject();
    bench::PrintJsonLine(json);
  }
  std::sort(all_latencies.begin(), all_latencies.end());
  JsonWriter json;
  json.BeginObject()
      .KV("record", "trace_aggregate")
      .KV("scenario", trace.header.scenario)
      .KV("seed", trace.header.seed)
      .KV("users", static_cast<int64_t>(num_users))
      .KV("events", static_cast<int64_t>(result.records.size()))
      .KV("remote", remote)
      .KV("sequential", config.sequential || config.virtual_clock)
      .KV("virtual_clock", config.virtual_clock)
      .KV("wall_ms", static_cast<double>(result.wall_micros) / 1e3)
      .KV("throughput_iters_per_sec",
          result.wall_micros > 0
              ? static_cast<double>(result.records.size()) * 1e6 /
                    static_cast<double>(result.wall_micros)
              : 0)
      .KV("p50_ms", bench::PercentileSorted(all_latencies, 0.5) / 1e3)
      .KV("p99_ms", bench::PercentileSorted(all_latencies, 0.99) / 1e3)
      .KV("num_computed", result.totals.num_computed)
      .KV("num_loaded", result.totals.num_loaded)
      .KV("num_shared", result.totals.num_shared)
      .KV("num_pruned", total_pruned)
      .KV("hit_rate", result.hit_rate())
      .KV("trace_fingerprint", Hex64(workload::TraceFingerprint(trace)))
      .KV("run_fingerprint", Hex64(result.run_fingerprint))
      .EndObject();
  bench::PrintJsonLine(json);

  // 5. Deterministic summary: everything in here is stable across replays
  // of the same trace under --virtual-clock (no wall times, no paths), so
  // CI can assert record-then-replay equality with a byte diff.
  if (!config.summary_out.empty()) {
    JsonWriter summary;
    summary.BeginObject()
        .KV("record", "trace_summary")
        .KV("scenario", trace.header.scenario)
        .KV("seed", trace.header.seed)
        .KV("users", static_cast<int64_t>(num_users))
        .KV("events", static_cast<int64_t>(result.records.size()))
        .KV("trace_fingerprint", Hex64(workload::TraceFingerprint(trace)))
        .KV("run_fingerprint", Hex64(result.run_fingerprint))
        .KV("num_computed", result.totals.num_computed)
        .KV("num_loaded", result.totals.num_loaded)
        .KV("num_shared", result.totals.num_shared)
        .KV("hit_rate", result.hit_rate());
    summary.Key("iterations").BeginArray();
    for (const workload::IterationRecord& record : result.records) {
      summary.BeginObject()
          .KV("user", static_cast<int64_t>(record.user))
          .KV("index", static_cast<int64_t>(record.index))
          .KV("fingerprint", Hex64(record.fingerprint))
          .KV("num_computed", record.num_computed)
          .KV("num_loaded", record.num_loaded)
          .KV("num_shared", record.num_shared)
          .KV("num_pruned", record.num_pruned)
          .EndObject();
    }
    summary.EndArray().EndObject();
    bench::CheckOk(
        WriteStringToFile(config.summary_out, summary.str() + "\n"),
        "write summary");
    std::printf("summary written to %s\n", config.summary_out.c_str());
  }

  // 6. Re-recorded trace: rebase the materialized paths back to ${WS} so
  // the recording is as portable as a generated trace (replaying it
  // re-materializes identical data from the preserved header).
  if (!config.record_out.empty()) {
    workload::Trace recorded = recorder.Snapshot();
    recorded = workload::RebaseTracePaths(recorded, data_dir,
                                          workload::kWorkspacePlaceholder);
    bench::CheckOk(workload::WriteTraceFile(config.record_out, recorded),
                   "write recorded trace");
    std::printf("recorded %zu events to %s\n", recorded.events.size(),
                config.record_out.c_str());
  }

  if (!config.metrics_out.empty()) {
    bench::CheckOk(WriteStringToFile(config.metrics_out, result.metrics_json),
                   "write metrics");
    std::printf("metrics written to %s\n", config.metrics_out.c_str());
  }
  if (!config.trace_out.empty()) {
    bench::CheckOk(WriteStringToFile(config.trace_out, result.trace_json),
                   "write trace");
  }

  if (remote && config.shutdown_remote) {
    auto client = bench::ValueOrDie(
        net::HelixClient::Connect(config.remote_host, config.remote_port),
        "connect for shutdown");
    bench::CheckOk(client->Shutdown(), "remote shutdown");
    std::printf("remote server acknowledged shutdown\n");
  }
}

}  // namespace
}  // namespace tools
}  // namespace helix

int main(int argc, char** argv) {
  helix::tools::DriverConfig config;
  bool think_ms_set = false;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    int64_t v;
    if ((v = helix::bench::FlagValue(arg, "--users")) >= 0) {
      config.users = static_cast<int>(v);
    } else if ((v = helix::bench::FlagValue(arg, "--iterations")) >= 0) {
      config.iterations = static_cast<int>(v);
    } else if ((v = helix::bench::FlagValue(arg, "--shared")) >= 0) {
      config.shared = v != 0;
    } else if ((v = helix::bench::FlagValue(arg, "--threads")) >= 0) {
      config.threads = static_cast<int>(v);
    } else if ((v = helix::bench::FlagValue(arg, "--think-ms")) >= 0) {
      config.think_ms = static_cast<int>(v);
      think_ms_set = true;
    } else if ((v = helix::bench::FlagValue(arg, "--rows")) >= 0) {
      config.rows = v;
    } else if ((v = helix::bench::FlagValue(arg, "--docs")) >= 0) {
      config.docs = v;
    } else if ((v = helix::bench::FlagValue(arg, "--memory-budget-mb")) >=
               0) {
      config.memory_budget_mb = v;
    } else if ((v = helix::bench::FlagValue(arg, "--budget-mb")) >= 0) {
      config.budget_mb = v;
    } else if ((v = helix::bench::FlagValue(arg, "--seed")) >= 0) {
      config.seed = static_cast<uint64_t>(v);
    } else if ((v = helix::bench::FlagValue(arg, "--shutdown-remote")) >= 0) {
      config.shutdown_remote = v != 0;
    } else if ((v = helix::bench::FlagValue(arg, "--sequential")) >= 0) {
      config.sequential = v != 0;
    } else if ((v = helix::bench::FlagValue(arg, "--virtual-clock")) >= 0) {
      config.virtual_clock = v != 0;
    } else if ((v = helix::bench::FlagValue(arg,
                                            "--stream-batch-rows")) >= 0) {
      config.stream_batch_rows = v;
    } else if ((v = helix::bench::FlagValue(arg, "--refresh-period")) >= 0) {
      config.refresh_period = static_cast<int>(v);
    } else if (std::strncmp(arg, "--think-scale=", 14) == 0) {
      config.think_scale = std::atof(arg + 14);
    } else if (std::strncmp(arg, "--app=", 6) == 0) {
      config.app = arg + 6;
    } else if (std::strncmp(arg, "--scenario=", 11) == 0) {
      config.scenario = arg + 11;
    } else if (std::strncmp(arg, "--trace=", 8) == 0) {
      config.trace_in = arg + 8;
    } else if (std::strncmp(arg, "--record=", 9) == 0) {
      config.record_out = arg + 9;
    } else if (std::strncmp(arg, "--summary-out=", 14) == 0) {
      config.summary_out = arg + 14;
    } else if (std::strncmp(arg, "--data-dir=", 11) == 0) {
      config.data_dir = arg + 11;
    } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
      config.metrics_out = arg + 14;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      config.trace_out = arg + 12;
    } else if (std::strncmp(arg, "--remote=", 9) == 0) {
      auto parts = helix::Split(arg + 9, ':');
      int64_t port = 0;
      if (parts.size() != 2 || !helix::ParseInt64(parts[1], &port) ||
          port <= 0 || port > 65535) {
        std::fprintf(stderr, "--remote must be host:port\n");
        return 2;
      }
      config.remote_host = parts[0];
      config.remote_port = static_cast<int>(port);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg);
      return 2;
    }
  }
  const bool trace_mode =
      !config.scenario.empty() || !config.trace_in.empty();
  if (trace_mode) {
    if (!config.scenario.empty() && !config.trace_in.empty()) {
      std::fprintf(stderr, "--scenario and --trace are exclusive\n");
      return 2;
    }
    // Scenario defaults differ from app-mode defaults (smaller, think-free
    // unless asked).
    if (!think_ms_set) {
      config.think_ms = 0;
    }
    helix::tools::RunTrace(config);
    return 0;
  }
  if (!config.record_out.empty() || !config.summary_out.empty() ||
      !config.data_dir.empty()) {
    std::fprintf(stderr,
                 "--record/--summary-out/--data-dir require --scenario or "
                 "--trace\n");
    return 2;
  }
  if (config.app != "census" && config.app != "ie" && config.app != "mixed") {
    std::fprintf(stderr, "--app must be census, ie, or mixed\n");
    return 2;
  }
  helix::tools::Run(config);
  return 0;
}
