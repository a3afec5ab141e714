// End-to-end edit-and-rerun benchmark (see perfbench/README.md).
//
// One process runs one workload for a fixed number of seconds as a closed
// loop of "passes". A pass is the unit the paper measures (Figure 2): set
// up a fresh data directory and an empty store, then run a scripted
// sequence of human edits, each iteration submitted only after the
// previous one returned.
//
//   census_edit      the 10-step Figure 2(b) script on core::Session
//   ie_edit          the 10-step Figure 2(a) script on core::Session
//   service_refresh  3 analysts over loopback TCP against one in-process
//                    net::HelixServer: localized census/IE edits plus a
//                    periodic data refresh, FetchOutput after every run
//
// Timed mode (--trace 0) reports end-to-end metrics. Traced mode
// (--trace 1) runs the same loop while recording spans from this file
// around every layer call, then probes the store of the last pass; it
// reports per-layer metrics and writes a Chrome trace-event file.
//
// The benchmark only uses the library's public entry points; every span
// and counter here is computed from what those calls return.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/census_app.h"
#include "apps/ie_app.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/json.h"
#include "core/session.h"
#include "core/std_ops.h"
#include "dataflow/data_collection.h"
#include "dataflow/simd.h"
#include "datagen/census_gen.h"
#include "datagen/news_gen.h"
#include "net/app_specs.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "storage/disk_backend.h"
#include "storage/store.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace helix {
namespace perfbench {
namespace {

// --- workload shapes ---------------------------------------------------------

// census_edit: rows of generated census data (80/20 train/test) and the
// learner's epochs. The default 1 GiB store budget holds the working set.
constexpr int64_t kCensusRows = 60000;
constexpr int kCensusEpochs = 20;
// ie_edit: generated news documents; epochs of the initial learner.
constexpr int64_t kIeDocs = 150;
constexpr int kIeEpochs = 10;
// service_refresh: analysts, edits per analyst, data refresh period and
// data shape; the shared store budget sits below the working set so
// eviction runs.
constexpr int kServiceUsers = 3;
constexpr int kServiceIterations = 9;
constexpr int kServiceRefreshPeriod = 3;
constexpr int64_t kServiceRows = 30000;
constexpr int64_t kServiceDocs = 60;
constexpr int64_t kServiceStoreBudget = 24LL << 20;
// The in-process workloads pin DAG-level parallelism to 1: under the
// default (one worker per core) the planner's load/compute split varies
// from run to run, and sequential execution makes the per-node spans
// tile the iteration exactly.
constexpr int kAppParallelism = 1;

constexpr char kCensusEdit[] = "census_edit";
constexpr char kIeEdit[] = "ie_edit";
constexpr char kServiceRefresh[] = "service_refresh";

int64_t NowMicros() { return SystemClock::Default()->NowMicros(); }

double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- layers ------------------------------------------------------------------

enum Layer : int {
  kSource = 0,    // FileSource / CorpusSource
  kCsvScan,       // CSVScanner
  kFeaturize,     // FieldExtractor, Bucketizer, InteractionFeature, ...
  kNlpFeaturize,  // SentenceTokenizer, TokenFeaturizer
  kLearn,         // Learner
  kEvaluate,      // Predictor, Evaluator, MentionDecoder, SpanEvaluator
  kPlan,          // ExecutionReport::planning_micros
  kStoreLoad,     // nodes the plan loaded from the store
  kShareWait,     // nodes served by a sibling session's computation
  kMaterialize,   // store writes of computed results
  kWire,          // client latency minus server-side iteration time
  kUnattributed,  // iteration time no span above covers
  kNumLayers,
};

constexpr const char* kLayerNames[kNumLayers] = {
    "source",  "csv_scan",   "featurize",   "nlp_featurize",
    "learn",   "evaluate",   "plan",        "store_load",
    "inflight_wait", "materialize", "wire", "unattributed"};

Layer LayerOfOp(const std::string& op_type) {
  if (op_type == "CSVScanner") {
    return kCsvScan;
  }
  if (op_type == "FieldExtractor" || op_type == "Bucketizer" ||
      op_type == "InteractionFeature" || op_type == "AssembleExamples") {
    return kFeaturize;
  }
  if (op_type == "SentenceTokenizer" || op_type == "TokenFeaturizer") {
    return kNlpFeaturize;
  }
  if (op_type == "Learner") {
    return kLearn;
  }
  if (op_type == "Predictor" || op_type == "Evaluator" ||
      op_type == "MentionDecoder" || op_type == "SpanEvaluator") {
    return kEvaluate;
  }
  return kSource;
}

// --- spans -------------------------------------------------------------------

struct Span {
  std::string name;
  std::string cat;
  int64_t ts = 0;
  int64_t dur = 0;
  uint32_t tid = 0;
  std::string parent;
};

// Keeps spans in memory; written once as Chrome trace-event JSON when the
// run ends. `overhead_micros` is the time spent recording.
class SpanRecorder {
 public:
  void Add(std::vector<Span> spans) {
    std::lock_guard<std::mutex> lock(mu_);
    for (Span& span : spans) {
      spans_.push_back(std::move(span));
    }
  }
  void AddOverhead(int64_t micros) {
    std::lock_guard<std::mutex> lock(mu_);
    overhead_micros_ += micros;
  }
  int64_t overhead_micros() const {
    std::lock_guard<std::mutex> lock(mu_);
    return overhead_micros_;
  }
  Status WriteChromeJson(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    JsonWriter json;
    json.BeginObject().Key("traceEvents").BeginArray();
    for (const Span& span : spans_) {
      json.BeginObject()
          .KV("name", span.name)
          .KV("cat", span.cat)
          .KV("ph", "X")
          .KV("ts", span.ts)
          .KV("dur", span.dur)
          .KV("pid", int64_t{1})
          .KV("tid", static_cast<int64_t>(span.tid))
          .Key("args")
          .BeginObject()
          .KV("parent", span.parent)
          .EndObject()
          .EndObject();
    }
    json.EndArray().EndObject();
    return WriteStringToFile(path, json.str());
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  int64_t overhead_micros_ = 0;
};

// What one iteration's ExecutionReport says about its layers.
struct Breakdown {
  int64_t planning_micros = 0;
  double layer_micros[kNumLayers] = {};
  int featurize_nodes = 0;
  int nlp_nodes = 0;
  bool learner_computed = false;
  int64_t materialized_bytes = 0;
  std::vector<uint64_t> loaded_signatures;
  // (estimated, measured) load micros of every loaded node.
  std::vector<std::pair<int64_t, int64_t>> load_estimates;
  std::vector<Span> node_spans;
};

Breakdown BreakDown(const core::IterationResult& result,
                    const storage::IntermediateStore* store, uint32_t tid,
                    const std::string& parent) {
  const core::ExecutionReport& report = result.report;
  Breakdown b;
  b.planning_micros = report.planning_micros;
  b.layer_micros[kPlan] = static_cast<double>(report.planning_micros);
  for (const core::NodeExecution& node : report.nodes) {
    if (node.state == core::NodeState::kPrune) {
      continue;
    }
    Layer layer = kStoreLoad;
    if (node.shared) {
      layer = kShareWait;
    } else if (node.state == core::NodeState::kCompute) {
      int id = result.dag.FindNode(node.name);
      layer = id < 0 ? kSource : LayerOfOp(result.dag.op(id).op_type());
      b.featurize_nodes += layer == kFeaturize ? 1 : 0;
      b.nlp_nodes += layer == kNlpFeaturize ? 1 : 0;
      b.learner_computed = b.learner_computed || layer == kLearn;
    } else {
      b.loaded_signatures.push_back(node.signature);
      if (store != nullptr) {
        b.load_estimates.emplace_back(
            store->EstimateLoadMicros(node.output_bytes), node.cost_micros);
      }
    }
    b.layer_micros[layer] += static_cast<double>(node.cost_micros);
    b.node_spans.push_back({node.name, kLayerNames[layer], node.start_micros,
                            node.cost_micros, tid, parent});
    if (node.materialized) {
      b.materialized_bytes += node.output_bytes;
      b.layer_micros[kMaterialize] += static_cast<double>(node.materialize_micros);
      b.node_spans.push_back({node.name + " (write)", "materialize",
                              node.start_micros + node.cost_micros,
                              node.materialize_micros, tid, parent});
    }
  }
  return b;
}

// Combined output digest, computed as workload/replay.h does: a Hasher
// over (name, fingerprint) in output-name order.
uint64_t CombineOutputs(
    const std::map<std::string, dataflow::DataCollection>& outputs) {
  Hasher hasher;
  for (const auto& [name, collection] : outputs) {
    hasher.Add(name).AddU64(collection.Fingerprint());
  }
  return hasher.Digest();
}

uint64_t CombineOutputs(const std::vector<net::RemoteOutput>& outputs) {
  Hasher hasher;
  for (const net::RemoteOutput& output : outputs) {
    hasher.Add(output.name).AddU64(output.fingerprint);
  }
  return hasher.Digest();
}

// --- run state ---------------------------------------------------------------

struct IterSample {
  int pass = 0;
  uint32_t user = 0;
  int index = 0;
  core::ChangeCategory category = core::ChangeCategory::kInitial;
  double latency_ms = 0;
  uint64_t fingerprint = 0;
  double fetch_ms = -1;  // < 0: nothing fetched
  int64_t fetch_bytes = 0;
  bool fetch_missed = false;  // the output was not in the store
  bool ie = false;            // the analyst runs the IE application
  int computed = 0;
  int loaded = 0;
  int pruned = 0;
  int materialized = 0;
  double server_ms = 0;  // remote: server-reported iteration time
  // Traced mode only.
  Breakdown breakdown;
  int64_t learn_visits = 0;
};

struct PassStats {
  double setup_s = 0;
  double wall_s = 0;
  int64_t store_bytes = 0;
  int64_t evictions = 0;
  int64_t store_hits = 0;
  int64_t store_misses = 0;
  // service_refresh only.
  int64_t service_shared = 0;
  double cross_session_hit_rate = 0;
  double pool_wait_ms_p50 = 0;
  double share_wait_ms_p50 = 0;
  uint64_t digest = 0;  // Hasher over (user, index, fingerprint)
};

// Post-run probe of the last pass's store (traced mode).
struct StoreProbe {
  int64_t loaded_bytes = 0;
  int64_t read_micros = 0;
  int64_t checksum_micros = 0;
  int64_t decode_table_micros = 0;
  int64_t decode_examples_micros = 0;
  int64_t get_micros = 0;
  int64_t get_bytes = 0;
  int64_t serialize_micros = 0;
  int64_t put_micros = 0;
  double csv_mb_per_s = 0;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string out_dir = ".bench_build/results";
  std::string expected_path;
  bool record = false;
};

struct RunState {
  Args args;
  std::vector<IterSample> iters;
  std::vector<PassStats> passes;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<uint64_t> reference;  // per-iteration fingerprints of pass 0
  SpanRecorder spans;
  std::set<uint64_t> last_loaded;  // signatures loaded in the latest pass
  std::string last_store_dir;
  std::string last_csv_train, last_csv_test;
  double census_examples = 0;  // examples per census learner run

  void Fail(const std::string& what) {
    ++failed;
    if (errors.size() < 20) {
      errors.push_back(what);
    }
  }
};

// Checks one pass's per-iteration fingerprints against the first pass.
void CheckAgainstReference(RunState* st, int pass,
                           const std::vector<uint64_t>& fingerprints) {
  if (pass == 0) {
    st->reference = fingerprints;
    return;
  }
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    if (i >= st->reference.size() || fingerprints[i] != st->reference[i]) {
      st->Fail("pass " + std::to_string(pass) + " iteration " +
               std::to_string(i) + ": fingerprint differs from pass 0");
    }
  }
}

std::string PassDir(const RunState& st, int pass) {
  return JoinPath(st.args.work_dir, "pass-" + std::to_string(pass));
}

// The pass's own empty directory; the previous pass's is dropped (only the
// latest one is kept, for the traced store probe).
std::string FreshPassDir(const RunState& st, int pass) {
  if (pass > 0) {
    std::filesystem::remove_all(PassDir(st, pass - 1));
  }
  std::filesystem::remove_all(PassDir(st, pass));
  return PassDir(st, pass);
}

// Learner visits of one iteration: examples x epochs (one pass for naive
// Bayes).
int64_t LearnVisits(double examples, const core::ops::LearnerConfig& config) {
  int epochs = config.model_type == "nb" ? 1 : config.epochs;
  return static_cast<int64_t>(examples) * epochs;
}

// Records the spans of one finished iteration (traced mode).
// `tid` is the trace lane: the session the iteration ran in.
void RecordIterationSpans(RunState* st, const IterSample& sample,
                          uint32_t tid, int64_t start_micros,
                          const std::string& label, double wire_micros) {
  int64_t t0 = NowMicros();
  const Breakdown& b = sample.breakdown;
  std::vector<Span> spans;
  auto latency = static_cast<int64_t>(sample.latency_ms * 1e3);
  spans.push_back({label, "iteration", start_micros, latency, tid,
                   "pass-" + std::to_string(sample.pass)});
  // Planning runs first; the wire share (request plus reply) is drawn as
  // one block at the start because only its total is known.
  spans.push_back({"plan", "plan", start_micros, b.planning_micros, tid,
                   label});
  if (wire_micros > 0) {
    spans.push_back({"wire", "wire", start_micros,
                     static_cast<int64_t>(wire_micros), tid, label});
  }
  for (const Span& span : b.node_spans) {
    spans.push_back(span);
  }
  st->spans.Add(std::move(spans));
  st->spans.AddOverhead(NowMicros() - t0);
}

// --- census_edit / ie_edit ---------------------------------------------------

struct AppPass {
  std::function<Status(const std::string& dir)> make_data;
  std::vector<std::string> descriptions;
  std::vector<core::ChangeCategory> categories;
  // Applies step i's edit and returns the workflow plus its learner config.
  std::function<core::Workflow(size_t step, core::ops::LearnerConfig*)> step;
  std::string fetch_output;
};

AppPass MakeCensusPass(RunState* st) {
  auto config = std::make_shared<apps::CensusConfig>();
  auto script = std::make_shared<std::vector<apps::ScriptedIteration>>(
      apps::MakeCensusIterationScript());
  AppPass pass;
  uint64_t seed = st->args.seed;
  pass.make_data = [config, seed, st](const std::string& dir) {
    *config = apps::CensusConfig();
    config->learner.epochs = kCensusEpochs;
    config->train_path = JoinPath(dir, "census.train.csv");
    config->test_path = JoinPath(dir, "census.test.csv");
    st->last_csv_train = config->train_path;
    st->last_csv_test = config->test_path;
    datagen::CensusGenOptions gen;
    gen.num_rows = kCensusRows;
    gen.seed = seed;
    return datagen::WriteCensusFiles(gen, config->train_path,
                                     config->test_path);
  };
  for (const apps::ScriptedIteration& s : *script) {
    pass.descriptions.push_back(s.description);
    pass.categories.push_back(s.category);
  }
  pass.step = [config, script](size_t i, core::ops::LearnerConfig* learner) {
    (*script)[i].mutate(config.get());
    *learner = config->learner;
    return apps::BuildCensusWorkflow(*config);
  };
  pass.fetch_output = "predictions";
  st->census_examples = static_cast<double>(kCensusRows);
  return pass;
}

AppPass MakeIePass(RunState* st) {
  auto config = std::make_shared<apps::IeConfig>();
  auto script = std::make_shared<std::vector<apps::IeScriptedIteration>>(
      apps::MakeIeIterationScript());
  AppPass pass;
  uint64_t seed = st->args.seed;
  pass.make_data = [config, seed, st](const std::string& dir) {
    *config = apps::IeConfig();
    config->learner.epochs = kIeEpochs;
    config->corpus_path = JoinPath(dir, "news.dat");
    datagen::NewsGenOptions gen;
    gen.num_docs = kIeDocs;
    gen.seed = seed;
    return datagen::WriteNewsCorpus(gen, config->corpus_path);
  };
  for (const apps::IeScriptedIteration& s : *script) {
    pass.descriptions.push_back(s.description);
    pass.categories.push_back(s.category);
  }
  pass.step = [config, script](size_t i, core::ops::LearnerConfig* learner) {
    (*script)[i].mutate(config.get());
    *learner = config->learner;
    return apps::BuildIeWorkflow(*config);
  };
  pass.fetch_output = "mentions";
  return pass;
}

// Examples the IE learner sees: one per token of the corpus.
Result<int64_t> CountTokens(const std::string& corpus_path) {
  HELIX_ASSIGN_OR_RETURN(dataflow::DataCollection corpus,
                         core::ops::CorpusSource("corpus", corpus_path)
                             .Invoke({}));
  HELIX_ASSIGN_OR_RETURN(
      dataflow::DataCollection tokens,
      core::ops::SentenceTokenizer("tokens").Invoke({&corpus}));
  HELIX_ASSIGN_OR_RETURN(const dataflow::TableData* table, tokens.AsTable());
  return table->num_rows();
}

// Examples the IE learner sees per run, counted once before the timed
// passes on the same generated corpus (its v0 version for the service).
Result<double> CountIeExamples(const RunState& st,
                               const workload::Trace& trace) {
  const std::string dir = JoinPath(st.args.work_dir, "tokens");
  std::string corpus = JoinPath(dir, "news.dat");
  if (st.args.workload == kIeEdit) {
    HELIX_RETURN_IF_ERROR(MakeDirs(dir));
    datagen::NewsGenOptions gen;
    gen.num_docs = kIeDocs;
    gen.seed = st.args.seed;
    HELIX_RETURN_IF_ERROR(datagen::WriteNewsCorpus(gen, corpus));
  } else {
    workload::Trace first_ie;
    first_ie.header = trace.header;
    for (const workload::TraceEvent& event : trace.events) {
      if (event.spec.app == net::kIeApp) {
        first_ie.events.push_back(event);
        break;
      }
    }
    HELIX_RETURN_IF_ERROR(workload::MaterializeTraceData(first_ie, dir));
    corpus = JoinPath(dir, "news.v0.dat");
  }
  HELIX_ASSIGN_OR_RETURN(int64_t tokens, CountTokens(corpus));
  std::filesystem::remove_all(dir);
  return static_cast<double>(tokens);
}

Status RunAppPass(RunState* st, AppPass* app, int pass_index,
                  double examples) {
  const bool traced = st->args.trace;
  const std::string dir = FreshPassDir(*st, pass_index);
  PassStats stats;

  int64_t setup_start = NowMicros();
  HELIX_RETURN_IF_ERROR(MakeDirs(dir));
  HELIX_RETURN_IF_ERROR(app->make_data(dir));
  obs::MetricsRegistry metrics;
  core::SessionOptions options;
  options.workspace_dir = JoinPath(dir, "ws");
  options.max_parallelism = kAppParallelism;
  if (traced) {
    options.metrics = &metrics;
  }
  HELIX_ASSIGN_OR_RETURN(std::unique_ptr<core::Session> session,
                         core::Session::Open(options));
  stats.setup_s = static_cast<double>(NowMicros() - setup_start) / 1e6;

  std::vector<uint64_t> fingerprints;
  std::set<uint64_t> loaded;
  Hasher digest;
  int64_t loop_start = NowMicros();
  for (size_t i = 0; i < app->descriptions.size(); ++i) {
    IterSample sample;
    sample.pass = pass_index;
    sample.index = static_cast<int>(i);
    sample.category = app->categories[i];
    core::ops::LearnerConfig learner;
    core::Workflow workflow = app->step(i, &learner);
    ++st->attempted;
    int64_t start = NowMicros();
    Result<core::IterationResult> result =
        session->RunIteration(workflow, app->descriptions[i], sample.category);
    int64_t end = NowMicros();
    if (!result.ok()) {
      st->Fail("iteration " + std::to_string(i) + ": " +
               result.status().ToString());
      return Status::OK();
    }
    const core::ExecutionReport& report = result->report;
    sample.latency_ms = static_cast<double>(end - start) / 1e3;
    sample.fingerprint = CombineOutputs(report.outputs);
    sample.computed = report.num_computed;
    sample.loaded = report.num_loaded;
    sample.pruned = report.num_pruned;
    sample.materialized = report.num_materialized;
    fingerprints.push_back(sample.fingerprint);
    digest.AddU64(0).AddU64(i).AddU64(sample.fingerprint);

    // The analyst reads the predictions back from the store, as the
    // service's FetchOutput does.
    const core::NodeExecution* out = report.FindNode(app->fetch_output);
    auto produced = report.outputs.find(app->fetch_output);
    if (out == nullptr || produced == report.outputs.end()) {
      // Not an output of this workflow version: nothing to show.
    } else if (!session->store()->Has(out->signature)) {
      sample.fetch_missed = true;
    } else {
      ++st->attempted;
      int64_t fetch_start = NowMicros();
      Result<dataflow::DataCollection> fetched =
          session->store()->Get(out->signature);
      sample.fetch_ms = static_cast<double>(NowMicros() - fetch_start) / 1e3;
      if (!fetched.ok() ||
          fetched->Fingerprint() != produced->second.Fingerprint()) {
        st->Fail("fetch after iteration " + std::to_string(i) + " failed");
      } else {
        sample.fetch_bytes = fetched->SizeBytes();
      }
    }

    if (traced) {
      int64_t t0 = NowMicros();
      sample.breakdown = BreakDown(*result, session->store(), 0,
                                   app->descriptions[i]);
      for (uint64_t sig : sample.breakdown.loaded_signatures) {
        loaded.insert(sig);
      }
      if (sample.breakdown.learner_computed) {
        sample.learn_visits = LearnVisits(examples, learner);
      }
      st->spans.AddOverhead(NowMicros() - t0);
      RecordIterationSpans(st, sample, 0, start, app->descriptions[i], 0);
    }
    st->iters.push_back(std::move(sample));
  }
  stats.wall_s = static_cast<double>(NowMicros() - loop_start) / 1e6;
  stats.store_bytes = session->store()->TotalBytes();
  stats.evictions = session->store()->NumEvictions();
  stats.digest = digest.Digest();
  if (traced) {
    stats.store_hits = metrics.GetCounter("store.hits")->Value();
    stats.store_misses = metrics.GetCounter("store.misses")->Value();
  }
  session.reset();
  CheckAgainstReference(st, pass_index, fingerprints);
  st->passes.push_back(stats);
  st->last_loaded = std::move(loaded);
  st->last_store_dir = JoinPath(JoinPath(dir, "ws"), "store");
  return Status::OK();
}

// --- service_refresh ---------------------------------------------------------

// The localized scenario (census and IE analysts alternating, each edit
// drawn from the apps' scripts) with a data refresh every
// kServiceRefreshPeriod edits: from then on the analyst's specs point at
// the next data version, which invalidates everything downstream. The
// edit sequence is fixed by kServiceScriptSeed; the benchmark seed only
// picks the generated data (MaterializeTraceData derives every data file
// from the header seed), so every seed runs the same script.
constexpr uint64_t kServiceScriptSeed = 182;

Result<workload::Trace> MakeServiceTrace(uint64_t seed) {
  workload::ScenarioConfig scenario;
  scenario.scenario = "localized";
  scenario.seed = kServiceScriptSeed;
  scenario.users = kServiceUsers;
  scenario.iterations = kServiceIterations;
  scenario.rows = kServiceRows;
  scenario.docs = kServiceDocs;
  HELIX_ASSIGN_OR_RETURN(workload::Trace trace,
                         workload::GenerateTrace(scenario));
  trace.header.seed = seed;
  std::vector<int> index(kServiceUsers, 0);
  for (workload::TraceEvent& event : trace.events) {
    int i = index[event.user]++;
    int version = i / kServiceRefreshPeriod;
    if (version == 0) {
      continue;
    }
    for (auto& [key, value] : event.spec.params) {
      size_t at = value.rfind(".v0.");
      if (value.rfind(workload::kWorkspacePlaceholder, 0) == 0 &&
          at != std::string::npos) {
        value.replace(at, 4, ".v" + std::to_string(version) + ".");
      }
    }
    if (i % kServiceRefreshPeriod == 0) {
      event.description =
          "refresh data to v" + std::to_string(version) + ", " +
          event.description;
      event.category = core::ChangeCategory::kDataPreprocessing;
    }
  }
  return trace;
}

// Server-side view of one finished iteration, captured by the service's
// iteration observer (traced mode) and claimed by the client thread that
// submitted it.
class ObservationQueue {
 public:
  void Push(uint64_t session_id, Breakdown b) {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[session_id].push_back(std::move(b));
  }
  bool Pop(uint64_t session_id, Breakdown* out) {
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<Breakdown>& q = queues_[session_id];
    if (q.empty()) {
      return false;
    }
    *out = std::move(q.front());
    q.pop_front();
    return true;
  }

 private:
  std::mutex mu_;
  std::map<uint64_t, std::deque<Breakdown>> queues_;
};

Status RunServicePass(RunState* st, const workload::Trace& trace,
                      int pass_index, double census_examples,
                      double ie_examples) {
  const bool traced = st->args.trace;
  const std::string dir = FreshPassDir(*st, pass_index);
  PassStats stats;
  ObservationQueue observations;
  SpanRecorder* spans = &st->spans;
  // Set once the server runs; the observer only fires after that.
  std::atomic<const storage::IntermediateStore*> store{nullptr};

  int64_t setup_start = NowMicros();
  const std::string data_dir = JoinPath(dir, "data");
  HELIX_RETURN_IF_ERROR(workload::MaterializeTraceData(trace, data_dir));
  const workload::Trace events = workload::RebaseTracePaths(
      trace, workload::kWorkspacePlaceholder, data_dir);
  net::ServerOptions server_options;
  server_options.service.workspace_dir = JoinPath(dir, "ws");
  server_options.service.storage_budget_bytes = kServiceStoreBudget;
  server_options.service.num_threads = kServiceUsers;
  HELIX_RETURN_IF_ERROR(MakeDirs(server_options.service.workspace_dir));
  if (traced) {
    server_options.service.iteration_observer =
        [&observations, &store,
         spans](const service::IterationObservation& obs) {
          int64_t t0 = NowMicros();
          observations.Push(
              obs.session_id,
              BreakDown(obs.result, store.load(),
                        static_cast<uint32_t>(obs.session_id),
                        obs.description));
          spans->AddOverhead(NowMicros() - t0);
        };
  }
  HELIX_ASSIGN_OR_RETURN(
      std::unique_ptr<net::HelixServer> server,
      net::HelixServer::Start(server_options, net::MakeStandardResolver()));
  store.store(server->service()->store());
  std::vector<std::unique_ptr<net::HelixClient>> clients;
  std::vector<uint64_t> session_ids;
  for (int u = 0; u < kServiceUsers; ++u) {
    HELIX_ASSIGN_OR_RETURN(std::unique_ptr<net::HelixClient> client,
                           net::HelixClient::Connect("127.0.0.1",
                                                     server->port()));
    HELIX_ASSIGN_OR_RETURN(uint64_t session_id,
                           client->OpenSession("analyst-" +
                                               std::to_string(u)));
    clients.push_back(std::move(client));
    session_ids.push_back(session_id);
  }
  stats.setup_s = static_cast<double>(NowMicros() - setup_start) / 1e6;

  // Each analyst's events in trace order; one thread per analyst.
  std::vector<std::vector<const workload::TraceEvent*>> per_user(
      kServiceUsers);
  for (const workload::TraceEvent& event : events.events) {
    per_user[event.user].push_back(&event);
  }
  std::vector<std::vector<IterSample>> samples(kServiceUsers);
  std::vector<std::vector<std::string>> failures(kServiceUsers);
  std::vector<int64_t> attempts(kServiceUsers, 0);
  int64_t loop_start = NowMicros();
  std::vector<std::thread> threads;
  for (int u = 0; u < kServiceUsers; ++u) {
    threads.emplace_back([&, u]() {
      net::HelixClient* client = clients[u].get();
      for (size_t i = 0; i < per_user[u].size(); ++i) {
        const workload::TraceEvent& event = *per_user[u][i];
        IterSample sample;
        sample.pass = pass_index;
        sample.user = static_cast<uint32_t>(u);
        sample.index = static_cast<int>(i);
        sample.category = event.category;
        sample.ie = event.spec.app == net::kIeApp;
        ++attempts[u];
        int64_t start = NowMicros();
        Result<net::RemoteIterationResult> result = client->RunIteration(
            session_ids[u], event.spec, event.description, event.category);
        int64_t end = NowMicros();
        if (!result.ok()) {
          failures[u].push_back("analyst " + std::to_string(u) +
                                " iteration " + std::to_string(i) + ": " +
                                result.status().ToString());
          return;
        }
        sample.latency_ms = static_cast<double>(end - start) / 1e3;
        sample.server_ms = static_cast<double>(result->total_micros) / 1e3;
        sample.fingerprint = CombineOutputs(result->outputs);
        sample.computed = static_cast<int>(result->num_computed);
        sample.loaded = static_cast<int>(result->num_loaded);
        sample.pruned = static_cast<int>(result->num_pruned);
        sample.materialized = static_cast<int>(result->num_materialized);

        // The GUI pulls the predictions of every run.
        for (const net::RemoteOutput& output : result->outputs) {
          if (output.name != "predictions" && output.name != "mentions") {
            continue;
          }
          ++attempts[u];
          int64_t fetch_start = NowMicros();
          Result<dataflow::DataCollection> fetched =
              client->FetchOutput(output.signature);
          double fetch_ms =
              static_cast<double>(NowMicros() - fetch_start) / 1e3;
          if (!fetched.ok() && fetched.status().IsNotFound()) {
            // The store is a cache: an output the server did not keep (or
            // whose write has not landed yet) is a documented miss.
            sample.fetch_missed = true;
          } else if (!fetched.ok() ||
                     fetched->Fingerprint() != output.fingerprint) {
            failures[u].push_back(
                "analyst " + std::to_string(u) + " fetch after iteration " +
                std::to_string(i) + ": " +
                (fetched.ok() ? "fingerprint mismatch"
                              : fetched.status().ToString()));
          } else {
            sample.fetch_ms = fetch_ms;
            sample.fetch_bytes = fetched->SizeBytes();
          }
        }

        if (traced) {
          int64_t t0 = NowMicros();
          if (!observations.Pop(session_ids[u], &sample.breakdown)) {
            failures[u].push_back("no server observation for analyst " +
                                  std::to_string(u));
          }
          double wire = static_cast<double>((end - start) -
                                            result->total_micros);
          sample.breakdown.layer_micros[kWire] = wire;
          if (sample.breakdown.learner_computed) {
            core::ops::LearnerConfig learner;
            if (sample.ie) {
              Result<apps::IeConfig> c = net::IeConfigFromSpec(event.spec);
              learner = c.ok() ? c->learner : learner;
            } else {
              Result<apps::CensusConfig> c =
                  net::CensusConfigFromSpec(event.spec);
              learner = c.ok() ? c->learner : learner;
            }
            sample.learn_visits = LearnVisits(
                sample.ie ? ie_examples : census_examples, learner);
          }
          spans->AddOverhead(NowMicros() - t0);
          RecordIterationSpans(st, sample,
                               static_cast<uint32_t>(session_ids[u]), start,
                               event.description, wire);
        }
        samples[u].push_back(std::move(sample));
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  stats.wall_s = static_cast<double>(NowMicros() - loop_start) / 1e6;

  for (int u = 0; u < kServiceUsers; ++u) {
    st->attempted += attempts[u];
    for (const std::string& failure : failures[u]) {
      st->Fail(failure);
    }
  }
  Result<service::SessionCounters> counters = clients[0]->GetCounters(0);
  if (!counters.ok()) {
    ++st->attempted;
    st->Fail("GetCounters: " + counters.status().ToString());
  } else {
    stats.service_shared = counters->num_shared;
    int64_t planned = counters->num_computed + counters->num_loaded;
    stats.cross_session_hit_rate =
        planned == 0 ? 0.0
                     : static_cast<double>(counters->cross_session_loads +
                                           counters->num_shared) /
                           static_cast<double>(planned);
  }
  service::SessionService* service = server->service();
  stats.store_bytes = service->store()->TotalBytes();
  stats.evictions = service->store()->NumEvictions();
  obs::MetricsRegistry* metrics = service->metrics();
  stats.store_hits = metrics->GetCounter("store.hits")->Value();
  stats.store_misses = metrics->GetCounter("store.misses")->Value();
  stats.pool_wait_ms_p50 =
      static_cast<double>(
          metrics->GetHistogram("pool.task_wait_micros")->Percentile(0.5)) /
      1e3;
  stats.share_wait_ms_p50 =
      static_cast<double>(
          metrics->GetHistogram("inflight.share_wait_micros")
              ->Percentile(0.5)) /
      1e3;
  for (auto& client : clients) {
    client->Close();
  }
  clients.clear();
  server->Stop();
  server.reset();

  // Records in trace order; pass digest as ReplayResult::run_fingerprint.
  std::vector<uint64_t> fingerprints;
  std::set<uint64_t> loaded;
  Hasher digest;
  std::vector<size_t> next(kServiceUsers, 0);
  for (const workload::TraceEvent& event : events.events) {
    size_t k = next[event.user]++;
    if (k >= samples[event.user].size()) {
      continue;  // the analyst stopped on a failure, already counted
    }
    IterSample& sample = samples[event.user][k];
    fingerprints.push_back(sample.fingerprint);
    digest.AddU64(sample.user).AddU64(k).AddU64(sample.fingerprint);
    for (uint64_t sig : sample.breakdown.loaded_signatures) {
      loaded.insert(sig);
    }
    st->iters.push_back(std::move(sample));
  }
  stats.digest = digest.Digest();
  CheckAgainstReference(st, pass_index, fingerprints);
  st->passes.push_back(stats);
  st->last_loaded = std::move(loaded);
  st->last_store_dir = JoinPath(JoinPath(dir, "ws"), "store");
  st->last_csv_train = JoinPath(data_dir, "census.train.v0.csv");
  st->last_csv_test = JoinPath(data_dir, "census.test.v0.csv");
  return Status::OK();
}

// --- store probe (traced mode) -----------------------------------------------

// Reopens the last pass's store after its session closed and times the
// load path piece by piece over every signature the pass loaded, then the
// write path over every entry still stored.
Status ProbeStore(RunState* st, StoreProbe* probe) {
  {
    HELIX_ASSIGN_OR_RETURN(
        std::unique_ptr<storage::DiskBackend> backend,
        storage::DiskBackend::Open(st->last_store_dir,
                                   storage::DiskBackendOptions()));
    HELIX_RETURN_IF_ERROR(backend->Recover().status());
    for (uint64_t sig : st->last_loaded) {
      int64_t t0 = NowMicros();
      auto bytes = backend->Read(sig);
      int64_t t1 = NowMicros();
      if (!bytes.ok()) {
        continue;  // evicted since it was loaded
      }
      const auto& payload = bytes.value();
      probe->read_micros += t1 - t0;
      probe->loaded_bytes += static_cast<int64_t>(payload.size());
      t0 = NowMicros();
      volatile uint64_t sink = FnvHash64(payload.data(), payload.size());
      (void)sink;
      t1 = NowMicros();
      probe->checksum_micros += t1 - t0;
      Result<dataflow::DataCollection> decoded =
          dataflow::DataCollection::DeserializeFromString(payload);
      int64_t t2 = NowMicros();
      if (!decoded.ok()) {
        return decoded.status().WithContext("decoding a stored result");
      }
      if (decoded->kind() == dataflow::PayloadKind::kExamples) {
        probe->decode_examples_micros += t2 - t1;
      } else if (decoded->kind() == dataflow::PayloadKind::kTable) {
        probe->decode_table_micros += t2 - t1;
      }
    }
  }
  storage::StoreOptions options;
  options.budget_bytes = 1LL << 30;
  HELIX_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::IntermediateStore> store,
      storage::IntermediateStore::Open(st->last_store_dir, options));
  for (uint64_t sig : st->last_loaded) {
    int64_t t0 = NowMicros();
    Result<dataflow::DataCollection> data = store->Get(sig);
    if (data.ok()) {
      probe->get_micros += NowMicros() - t0;
      std::optional<storage::StoreEntry> entry = store->GetEntry(sig);
      probe->get_bytes += entry ? entry->size_bytes : 0;
    }
  }
  const std::string copy_dir = JoinPath(st->args.work_dir, "probe-store");
  std::filesystem::remove_all(copy_dir);
  HELIX_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::IntermediateStore> copy,
      storage::IntermediateStore::Open(copy_dir, options));
  for (const storage::StoreEntry& entry : store->Entries()) {
    Result<dataflow::DataCollection> data = store->Get(entry.signature);
    if (!data.ok()) {
      continue;
    }
    int64_t t0 = NowMicros();
    std::string bytes = data->SerializeToString();
    int64_t t1 = NowMicros();
    Status put = copy->Put(entry.signature, entry.node_name, data.value(), 0);
    int64_t t2 = NowMicros();
    HELIX_RETURN_IF_ERROR(put);
    probe->serialize_micros += t1 - t0;
    probe->put_micros += t2 - t1;
  }
  copy.reset();
  std::filesystem::remove_all(copy_dir);

  if (!st->last_csv_train.empty() && st->args.workload != kIeEdit) {
    HELIX_ASSIGN_OR_RETURN(
        dataflow::DataCollection data,
        core::ops::FileSource("data", st->last_csv_train, st->last_csv_test)
            .Invoke({}));
    int64_t t0 = NowMicros();
    HELIX_ASSIGN_OR_RETURN(
        dataflow::DataCollection rows,
        core::ops::CsvScanner("rows", datagen::CensusColumns())
            .Invoke({&data}));
    double seconds = static_cast<double>(NowMicros() - t0) / 1e6;
    probe->csv_mb_per_s = static_cast<double>(data.SizeBytes()) / 1e6 /
                          std::max(seconds, 1e-9);
  }
  return Status::OK();
}

// --- reporting ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
};

double MsToS(double ms) { return ms / 1e3; }

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> EndToEnd(const RunState& st) {
  std::vector<double> cumulative(st.passes.size(), 0.0);
  std::vector<double> cold, warm, pre, ml, eval, fetch;
  for (const IterSample& s : st.iters) {
    cumulative[static_cast<size_t>(s.pass)] += s.latency_ms;
    // On the service the median covers the census predictions table only:
    // the IE analysts' mentions are two orders of magnitude smaller, and
    // how many census fetches miss the budgeted store would otherwise
    // decide which of the two sizes the median lands on.
    if (s.fetch_ms >= 0 && !(s.ie && st.args.workload == kServiceRefresh)) {
      fetch.push_back(s.fetch_ms);
    }
    switch (s.category) {
      case core::ChangeCategory::kInitial:
        cold.push_back(s.latency_ms);
        continue;
      case core::ChangeCategory::kDataPreprocessing:
        pre.push_back(s.latency_ms);
        break;
      case core::ChangeCategory::kMachineLearning:
        ml.push_back(s.latency_ms);
        break;
      case core::ChangeCategory::kEvaluation:
        eval.push_back(s.latency_ms);
        break;
    }
    warm.push_back(s.latency_ms);
  }
  std::vector<double> setup, store_mb, throughput;
  for (size_t p = 0; p < st.passes.size(); ++p) {
    setup.push_back(st.passes[p].setup_s);
    store_mb.push_back(static_cast<double>(st.passes[p].store_bytes) / 1e6);
    cumulative[p] = MsToS(cumulative[p]);
  }
  std::vector<int64_t> iters_per_pass(st.passes.size(), 0);
  for (const IterSample& s : st.iters) {
    ++iters_per_pass[static_cast<size_t>(s.pass)];
  }
  for (size_t p = 0; p < st.passes.size(); ++p) {
    throughput.push_back(static_cast<double>(iters_per_pass[p]) /
                         std::max(st.passes[p].wall_s, 1e-9));
  }
  int64_t n_passes = static_cast<int64_t>(st.passes.size());
  double attempted = static_cast<double>(std::max<int64_t>(st.attempted, 1));
  return {
      {"cumulative_s", Median(cumulative), "s", n_passes},
      {"cold_iter_ms", Median(cold), "ms", static_cast<int64_t>(cold.size())},
      {"iter_ms.p50", Median(warm), "ms", static_cast<int64_t>(warm.size())},
      {"iter_ms.preprocess.p50", Median(pre), "ms",
       static_cast<int64_t>(pre.size())},
      {"iter_ms.ml.p50", Median(ml), "ms", static_cast<int64_t>(ml.size())},
      {"iter_ms.eval.p50", Median(eval), "ms",
       static_cast<int64_t>(eval.size())},
      {"setup_s", Median(setup), "s", n_passes},
      {"peak_rss_mb", PeakRssMb(), "MB", 1},
      {"store_mb", Median(store_mb), "MB", n_passes},
      {"throughput_iters_per_s", Median(throughput), "1/s", n_passes},
      {"fetch_ms.p50", Median(fetch), "ms",
       static_cast<int64_t>(fetch.size())},
      {"error_rate", static_cast<double>(st.failed) / attempted, "ratio",
       st.attempted},
  };
}

std::vector<Metric> PerLayer(const RunState& st, const StoreProbe& probe,
                             double nlp_tokens) {
  size_t n = st.passes.size();
  // Per-pass sums, reported as the median pass.
  std::vector<std::vector<double>> layer(kNumLayers, std::vector<double>(n));
  std::vector<double> featurize_rows(n), nlp_tokens_done(n), visits(n),
      computed(n), loaded(n), pruned(n), materialized(n), mat_bytes(n),
      traced_cumulative(n), fetch_bytes(n), fetch_ms(n);
  std::vector<double> iter_ms, est_err, rpc_overhead;
  double fetches = 0;
  double fetch_misses = 0;
  const double rows = st.args.workload == kServiceRefresh
                          ? static_cast<double>(kServiceRows)
                          : static_cast<double>(kCensusRows);
  for (const IterSample& s : st.iters) {
    size_t p = static_cast<size_t>(s.pass);
    const Breakdown& b = s.breakdown;
    double attributed = 0;
    for (int l = 0; l < kUnattributed; ++l) {
      layer[l][p] += b.layer_micros[l] / 1e3;
      attributed += b.layer_micros[l];
    }
    layer[kUnattributed][p] += s.latency_ms - attributed / 1e3;
    featurize_rows[p] += rows * b.featurize_nodes;
    nlp_tokens_done[p] += nlp_tokens * b.nlp_nodes;
    visits[p] += static_cast<double>(s.learn_visits);
    computed[p] += s.computed;
    loaded[p] += s.loaded;
    pruned[p] += s.pruned;
    materialized[p] += s.materialized;
    mat_bytes[p] += static_cast<double>(b.materialized_bytes) / 1e6;
    traced_cumulative[p] += s.latency_ms / 1e3;
    fetches += s.fetch_ms >= 0 || s.fetch_missed ? 1 : 0;
    fetch_misses += s.fetch_missed ? 1 : 0;
    if (s.category != core::ChangeCategory::kInitial) {
      iter_ms.push_back(s.latency_ms);
    }
    for (const auto& [est, actual] : b.load_estimates) {
      if (actual > 0) {
        est_err.push_back(std::abs(static_cast<double>(est - actual)) /
                          static_cast<double>(actual));
      }
    }
    if (st.args.workload == kServiceRefresh) {
      rpc_overhead.push_back(s.latency_ms - s.server_ms);
      if (s.fetch_ms >= 0) {
        fetch_bytes[p] += static_cast<double>(s.fetch_bytes) / 1e6;
        fetch_ms[p] += s.fetch_ms;
      }
    }
  }
  // Time and volume per pass are means, so that the layer times plus
  // unattributed.ms add up to traced.cumulative_s; counts and rates are
  // medians.
  auto rate = [](const std::vector<double>& work,
                 const std::vector<double>& ms) {
    std::vector<double> r;
    for (size_t i = 0; i < work.size(); ++i) {
      if (ms[i] > 0) {
        r.push_back(work[i] / (ms[i] / 1e3));
      }
    }
    return Median(r);
  };
  std::vector<double> hit_rate, evictions, shared, cross, pool_wait,
      share_wait;
  for (const PassStats& p : st.passes) {
    int64_t lookups = p.store_hits + p.store_misses;
    hit_rate.push_back(lookups == 0 ? 0.0
                                    : static_cast<double>(p.store_hits) /
                                          static_cast<double>(lookups));
    evictions.push_back(static_cast<double>(p.evictions));
    shared.push_back(static_cast<double>(p.service_shared));
    cross.push_back(p.cross_session_hit_rate);
    pool_wait.push_back(p.pool_wait_ms_p50);
    share_wait.push_back(p.share_wait_ms_p50);
  }
  auto mb_per_s = [](int64_t bytes, int64_t micros) {
    return micros <= 0 ? 0.0
                       : static_cast<double>(bytes) /
                             static_cast<double>(micros);
  };
  auto ms = [](int64_t micros) { return static_cast<double>(micros) / 1e3; };
  int64_t k = static_cast<int64_t>(n);
  return {
      {"source.ms", Mean(layer[kSource]), "ms", k},
      {"csv_scan.ms", Mean(layer[kCsvScan]), "ms", k},
      {"csv_scan.mb_per_s", probe.csv_mb_per_s, "MB/s", 1},
      {"featurize.ms", Mean(layer[kFeaturize]), "ms", k},
      {"featurize.rows_per_s", rate(featurize_rows, layer[kFeaturize]),
       "rows/s", k},
      {"nlp_featurize.ms", Mean(layer[kNlpFeaturize]), "ms", k},
      {"nlp_featurize.tokens_per_s",
       rate(nlp_tokens_done, layer[kNlpFeaturize]), "tokens/s", k},
      {"learn.ms", Mean(layer[kLearn]), "ms", k},
      {"learn.example_visits_per_s", rate(visits, layer[kLearn]), "visits/s",
       k},
      {"evaluate.ms", Mean(layer[kEvaluate]), "ms", k},
      {"plan.ms", Mean(layer[kPlan]), "ms", k},
      {"plan.computed", Median(computed), "count", k},
      {"plan.loaded", Median(loaded), "count", k},
      {"plan.pruned", Median(pruned), "count", k},
      {"plan.materialized", Median(materialized), "count", k},
      {"plan.load_est_err", Median(est_err), "ratio",
       static_cast<int64_t>(est_err.size())},
      {"store_load.ms", Mean(layer[kStoreLoad]), "ms", k},
      {"store_load.mb_per_s", mb_per_s(probe.get_bytes, probe.get_micros),
       "MB/s", 1},
      {"store_load.read_ms", ms(probe.read_micros), "ms", 1},
      {"store_load.decode_ms.table", ms(probe.decode_table_micros), "ms", 1},
      {"store_load.decode_ms.examples", ms(probe.decode_examples_micros), "ms",
       1},
      {"store_load.checksum_mb_per_s",
       mb_per_s(probe.loaded_bytes, probe.checksum_micros), "MB/s", 1},
      {"inflight_wait.ms", Mean(layer[kShareWait]), "ms", k},
      {"materialize.ms", Mean(layer[kMaterialize]), "ms", k},
      {"materialize.serialize_ms", ms(probe.serialize_micros), "ms", 1},
      {"materialize.put_ms", ms(probe.put_micros), "ms", 1},
      {"materialize.mb", Mean(mat_bytes), "MB", k},
      {"materialize.count", Median(materialized), "count", k},
      {"store.hit_rate", Median(hit_rate), "ratio", k},
      {"store.evictions", Median(evictions), "count", k},
      {"store.fetch_miss_rate", fetches == 0 ? 0.0 : fetch_misses / fetches,
       "ratio", static_cast<int64_t>(fetches)},
      {"pool.task_wait_ms.p50", Median(pool_wait), "ms", k},
      {"service.shared", Median(shared), "count", k},
      {"service.cross_session_hit_rate", Median(cross), "ratio", k},
      {"inflight.share_wait_ms.p50", Median(share_wait), "ms", k},
      {"wire.ms", Mean(layer[kWire]), "ms", k},
      {"wire.rpc_overhead_ms.p50", Median(rpc_overhead), "ms",
       static_cast<int64_t>(rpc_overhead.size())},
      {"wire.fetch_mb_per_s", rate(fetch_bytes, fetch_ms), "MB/s", k},
      {"wire.fetch_mb", Mean(fetch_bytes), "MB", k},
      {"unattributed.ms", Mean(layer[kUnattributed]), "ms", k},
      {"traced.cumulative_s", Mean(traced_cumulative), "s", k},
      {"traced.iter_ms.p50", Median(iter_ms), "ms",
       static_cast<int64_t>(iter_ms.size())},
      {"trace.overhead_ms",
       ms(st.spans.overhead_micros()) / std::max<double>(1.0, n), "ms", k},
  };
}

const Metric* FindMetric(const std::vector<Metric>& metrics,
                         const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

// The traced run's bypass predictions: a workload that is meant to skip a
// layer must not spend time in it.
void CheckBypasses(RunState* st, const std::vector<Metric>& layers) {
  auto expect_zero = [&](const char* name) {
    const Metric* m = FindMetric(layers, name);
    ++st->attempted;
    if (m == nullptr || m->value != 0.0) {
      st->Fail(std::string("bypass check: ") + name + " is " +
               (m == nullptr ? "missing" : std::to_string(m->value)) +
               " on " + st->args.workload);
    }
  };
  if (st->args.workload == kIeEdit) {
    expect_zero("csv_scan.ms");
  }
  if (st->args.workload != kServiceRefresh) {
    expect_zero("wire.ms");
    expect_zero("wire.fetch_mb");
    expect_zero("wire.rpc_overhead_ms.p50");
  }
}

// Layer self times plus the residual against the traced pass time.
void PrintAttribution(const std::vector<Metric>& layers) {
  double attributed = 0;
  for (int l = 0; l < kUnattributed; ++l) {
    const Metric* m = FindMetric(layers, std::string(kLayerNames[l]) + ".ms");
    attributed += m != nullptr ? m->value : 0.0;
  }
  const Metric* rest = FindMetric(layers, "unattributed.ms");
  const Metric* total = FindMetric(layers, "traced.cumulative_s");
  if (rest != nullptr && total != nullptr) {
    std::printf("  attribution per pass: layers %.3f ms + unattributed %.3f "
                "ms = %.3f ms (traced.cumulative_s %.6f s)\n",
                attributed, rest->value, attributed + rest->value,
                total->value);
  }
}

// Expected pass digests: lines "<workload> <seed> <16 hex digits>".
Result<std::map<std::pair<std::string, uint64_t>, uint64_t>> ReadExpected(
    const std::string& path) {
  std::map<std::pair<std::string, uint64_t>, uint64_t> expected;
  if (path.empty()) {
    return expected;
  }
  HELIX_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string::npos) {
      end = text.size();
    }
    std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    char name[64] = {};
    unsigned long long seed = 0;
    char hex[32] = {};
    uint64_t digest = 0;
    if (std::sscanf(line.c_str(), "%63s %llu %31s", name, &seed, hex) != 3 ||
        !HexToHash(hex, &digest)) {
      return Status::Corruption("bad line in " + path + ": " + line);
    }
    expected[{name, seed}] = digest;
  }
  return expected;
}

void PrintHuman(const RunState& st, const std::vector<Metric>& metrics,
                const char* title) {
  std::printf("%s (%s, seed %llu, %zu passes):\n", title,
              st.args.workload.c_str(),
              static_cast<unsigned long long>(st.args.seed),
              st.passes.size());
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.4f %-9s (n=%lld)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
}

// Plan decisions next to the latencies they explain, one line per pass.
void PrintPasses(const RunState& st) {
  std::vector<double> cumulative(st.passes.size(), 0.0);
  std::vector<std::vector<int>> counts(st.passes.size(),
                                       std::vector<int>(4, 0));
  for (const IterSample& s : st.iters) {
    size_t p = static_cast<size_t>(s.pass);
    cumulative[p] += s.latency_ms / 1e3;
    counts[p][0] += s.computed;
    counts[p][1] += s.loaded;
    counts[p][2] += s.pruned;
    counts[p][3] += s.materialized;
  }
  for (size_t p = 0; p < st.passes.size(); ++p) {
    std::printf(
        "  pass %zu: cumulative_s=%.3f setup_s=%.5f store_mb=%.2f "
        "plan.computed=%d plan.loaded=%d plan.pruned=%d "
        "plan.materialized=%d evictions=%lld\n",
        p, cumulative[p], st.passes[p].setup_s,
        static_cast<double>(st.passes[p].store_bytes) / 1e6, counts[p][0],
        counts[p][1], counts[p][2], counts[p][3],
        static_cast<long long>(st.passes[p].evictions));
  }
}

std::string ResultJson(const RunState& st, const std::vector<Metric>& metrics,
                       bool correct) {
  JsonWriter json;
  json.BeginObject()
      .KV("correct", correct)
      .KV("attempted", st.attempted)
      .KV("failed", st.failed)
      .Key("metrics")
      .BeginObject();
  for (const Metric& m : metrics) {
    if (m.name == "error_rate") {
      continue;  // carried by "failed" / "attempted"
    }
    json.Key(m.name).BeginObject().KV("value", m.value).KV("unit", m.unit);
    json.EndObject();
  }
  json.EndObject().EndObject();
  return json.str();
}

std::string MetaJson(const RunState& st, const std::string& reference) {
  JsonWriter json;
  json.BeginObject()
      .Key("meta")
      .BeginObject()
      .KV("workload", st.args.workload)
      .KV("seed", st.args.seed)
      .KV("seconds", st.args.seconds)
      .KV("traced", st.args.trace)
      .KV("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .KV("simd_isa", dataflow::simd::ActiveIsaName())
      .KV("build_type", HELIX_BENCH_BUILD_TYPE)
      .KV("passes", static_cast<int64_t>(st.passes.size()))
      .KV("fingerprint_reference", reference)
      .KV("app_parallelism", int64_t{kAppParallelism})
      .Key("errors")
      .BeginArray();
  for (const std::string& e : st.errors) {
    json.String(e);
  }
  json.EndArray().EndObject().EndObject();
  return json.str();
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--record") {
      args->record = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else if (flag == "--expected") {
      args->expected_path = value;
    } else {
      return false;
    }
  }
  return args->workload == kCensusEdit || args->workload == kIeEdit ||
         args->workload == kServiceRefresh;
}

int Main(int argc, char** argv) {
  RunState st;
  if (!ParseArgs(argc, argv, &st.args)) {
    std::fprintf(stderr,
                 "usage: helix_perfbench --workload census_edit|ie_edit|"
                 "service_refresh --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR] [--out-dir DIR] [--expected FILE] "
                 "[--record]\n");
    return 2;
  }
  auto expected = ReadExpected(st.args.expected_path);
  if (!expected.ok()) {
    std::fprintf(stderr, "%s\n", expected.status().ToString().c_str());
    return 2;
  }
  std::filesystem::remove_all(st.args.work_dir);
  Status made = MakeDirs(st.args.work_dir);
  if (!made.ok()) {
    std::fprintf(stderr, "%s\n", made.ToString().c_str());
    return 2;
  }

  // Workload inputs are built from the seed alone.
  AppPass app;
  workload::Trace trace;
  double ie_examples = 0;
  if (st.args.workload == kCensusEdit) {
    app = MakeCensusPass(&st);
  } else if (st.args.workload == kIeEdit) {
    app = MakeIePass(&st);
  } else {
    Result<workload::Trace> generated = MakeServiceTrace(st.args.seed);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 2;
    }
    trace = std::move(generated).value();
  }

  if (st.args.trace && st.args.workload != kCensusEdit) {
    Result<double> tokens = CountIeExamples(st, trace);
    if (!tokens.ok()) {
      std::fprintf(stderr, "%s\n", tokens.status().ToString().c_str());
      return 2;
    }
    ie_examples = tokens.value();
  }

  const int64_t run_start = NowMicros();
  const double budget_s = st.args.record ? 0.0 : st.args.seconds;
  for (int pass = 0;; ++pass) {
    double elapsed = static_cast<double>(NowMicros() - run_start) / 1e6;
    if (pass > 0 && elapsed >= budget_s) {
      break;
    }
    Status status;
    if (st.args.workload == kServiceRefresh) {
      status = RunServicePass(&st, trace, pass, kServiceRows, ie_examples);
    } else {
      status = RunAppPass(&st, &app, pass,
                          st.args.workload == kIeEdit ? ie_examples
                                                      : st.census_examples);
    }
    if (!status.ok()) {
      ++st.attempted;
      st.Fail("pass " + std::to_string(pass) + ": " + status.ToString());
    }
    if (st.failed > 0 || st.passes.size() <= static_cast<size_t>(pass)) {
      break;
    }
  }

  std::string reference = "none";
  if (!st.passes.empty()) {
    auto it = expected->find({st.args.workload, st.args.seed});
    if (st.args.record) {
      std::printf("%s %llu %s\n", st.args.workload.c_str(),
                  static_cast<unsigned long long>(st.args.seed),
                  HashToHex(st.passes[0].digest).c_str());
      std::filesystem::remove_all(st.args.work_dir);
      return st.failed == 0 ? 0 : 1;
    }
    if (it != expected->end()) {
      reference = "expected";
      for (size_t p = 0; p < st.passes.size(); ++p) {
        ++st.attempted;
        if (st.passes[p].digest != it->second) {
          st.Fail("pass " + std::to_string(p) + " outputs differ from " +
                  st.args.expected_path);
        }
      }
    } else {
      reference = "pass0";  // unrecorded seed: passes must agree
    }
  }

  std::vector<Metric> metrics = EndToEnd(st);
  PrintHuman(st, metrics, "end-to-end");
  PrintPasses(st);
  if (st.args.trace && st.failed == 0) {
    StoreProbe probe;
    Status probed = ProbeStore(&st, &probe);
    if (!probed.ok()) {
      ++st.attempted;
      st.Fail("store probe: " + probed.ToString());
    }
    std::vector<Metric> layers = PerLayer(st, probe, ie_examples);
    CheckBypasses(&st, layers);
    PrintHuman(st, layers, "per-layer (traced)");
    PrintAttribution(layers);
    Status wrote = MakeDirs(st.args.out_dir);
    if (wrote.ok()) {
      wrote = st.spans.WriteChromeJson(JoinPath(
          st.args.out_dir,
          "trace-" + st.args.workload + "-seed" +
              std::to_string(st.args.seed) + ".json"));
    }
    if (!wrote.ok()) {
      std::fprintf(stderr, "writing trace: %s\n", wrote.ToString().c_str());
    }
    metrics = layers;
  }
  for (const std::string& e : st.errors) {
    std::fprintf(stderr, "error: %s\n", e.c_str());
  }
  std::filesystem::remove_all(st.args.work_dir);
  bool correct = st.failed == 0 && !st.passes.empty();
  std::printf("%s\n", MetaJson(st, reference).c_str());
  std::printf("%s\n", ResultJson(st, metrics, correct).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench
}  // namespace helix

int main(int argc, char** argv) { return helix::perfbench::Main(argc, argv); }
