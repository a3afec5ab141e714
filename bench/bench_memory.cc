// Memory-budget curve: the census workflow run unbudgeted to learn its
// keep-everything *measured* peak (ExecutionReport::peak_resident_bytes —
// the planner's estimate degrades to per-node defaults on cold
// iterations), then re-run from scratch under 50% and 25% of that peak
// (`SessionOptions::memory_budget_bytes`). Claims under test:
//
//   * at the 50% point the measured peak resident bytes stay under the
//     budget (drop-after-last-use does the job; 25% sits below the
//     pipeline's single-step working-set floor and may honestly report
//     over-budget, with an infeasible plan run best-effort);
//   * outputs are bit-identical to the unbudgeted run — the budget
//     changes *when* intermediates live, never *what* is computed;
//   * what the budget did is reported, not hidden: num_dropped and any
//     re-production cost (recompute_extra_micros, nonzero only when a
//     failed load re-produces a dropped parent) land in BENCH_memory.json.
//
// Each budget point runs in a fresh workspace so materialized state from
// one configuration can never subsidize another.
//
// Usage: bench_memory [--rows=1000000] [--epochs=2]
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/census_app.h"
#include "bench/bench_util.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/session.h"
#include "datagen/census_gen.h"

namespace helix {
namespace bench {
namespace {

struct BudgetPoint {
  std::string label;           // "unbudgeted" | "50pct" | "25pct"
  int64_t budget_bytes = 0;    // 0 = memory planning off
  // Per-iteration results.
  std::vector<int64_t> iteration_micros;
  std::vector<int64_t> planned_peak_bytes;
  std::vector<int64_t> unbudgeted_peak_bytes;
  std::vector<int64_t> peak_resident_bytes;
  std::vector<int64_t> recompute_extra_micros;
  std::vector<int> num_dropped;
  std::vector<bool> feasible;
  // Output fingerprints per iteration, keyed by output name.
  std::vector<std::map<std::string, uint64_t>> fingerprints;
};

std::map<std::string, uint64_t> Fingerprints(
    const core::ExecutionReport& report) {
  std::map<std::string, uint64_t> out;
  for (const auto& [name, data] : report.outputs) {
    out[name] = data.Fingerprint();
  }
  return out;
}

BudgetPoint RunPoint(const std::string& label, int64_t budget_bytes,
                     const TempWorkspace& workspace, const std::string& train,
                     const std::string& test, int64_t epochs,
                     const std::vector<apps::ScriptedIteration>& script) {
  core::SessionOptions options;
  options.workspace_dir = workspace.Path("ws-" + label);
  options.storage_budget_bytes = 1LL << 30;
  options.memory_budget_bytes = budget_bytes;
  auto session = ValueOrDie(core::Session::Open(options), "open session");

  apps::CensusConfig config;
  config.train_path = train;
  config.test_path = test;
  config.learner.epochs = static_cast<int>(epochs);

  BudgetPoint point;
  point.label = label;
  point.budget_bytes = budget_bytes;
  for (const auto& step : script) {
    step.mutate(&config);
    auto result = ValueOrDie(
        session->RunIteration(apps::BuildCensusWorkflow(config),
                              step.description, step.category),
        "iteration");
    const core::ExecutionReport& report = result.report;
    point.iteration_micros.push_back(report.total_micros);
    point.planned_peak_bytes.push_back(report.planned_peak_bytes);
    point.unbudgeted_peak_bytes.push_back(report.unbudgeted_peak_bytes);
    point.peak_resident_bytes.push_back(report.peak_resident_bytes);
    point.recompute_extra_micros.push_back(report.recompute_extra_micros);
    point.num_dropped.push_back(report.num_dropped);
    point.feasible.push_back(report.memory_feasible);
    point.fingerprints.push_back(Fingerprints(report));
  }
  return point;
}

void Run(int64_t rows, int64_t epochs) {
  TempWorkspace workspace("helix-bench-memory");
  std::string train = workspace.Path("census.train.csv");
  std::string test = workspace.Path("census.test.csv");
  datagen::CensusGenOptions gen;
  gen.num_rows = rows;
  CheckOk(datagen::WriteCensusFiles(gen, train, test), "census datagen");

  // Two iterations: the initial run plus one ML edit (a budget must hold
  // on cold and warm iterations alike).
  auto full_script = apps::MakeCensusIterationScript();
  std::vector<apps::ScriptedIteration> script(
      full_script.begin(),
      full_script.begin() + std::min<size_t>(2, full_script.size()));

  std::fprintf(stderr, "probing unbudgeted peak (%lld rows)...\n",
               static_cast<long long>(rows));
  BudgetPoint probe =
      RunPoint("unbudgeted", 0, workspace, train, test, epochs, script);
  // Budgets derive from the probe's *measured* keep-everything peak, not
  // the planner's estimate: a cold iteration's estimate degrades to
  // per-node defaults and would make "50% of peak" a fiction.
  int64_t peak = 0;
  for (int64_t p : probe.peak_resident_bytes) {
    peak = std::max(peak, p);
  }

  std::vector<BudgetPoint> points;
  points.push_back(std::move(probe));
  for (auto [label, fraction] :
       {std::pair<const char*, int>{"50pct", 2},
        std::pair<const char*, int>{"25pct", 4}}) {
    std::fprintf(stderr, "running %s budget...\n", label);
    points.push_back(RunPoint(label, peak / fraction, workspace, train, test,
                              epochs, script));
  }

  std::printf("\nMemory-budget curve: census, %lld rows, %zu iterations "
              "(unbudgeted peak %lld bytes)\n",
              static_cast<long long>(rows), script.size(),
              static_cast<long long>(peak));
  std::printf("%-11s %14s %14s %14s %12s %8s %8s %10s\n", "budget", "bytes",
              "measured_peak", "planned_est", "extra_ms", "dropped",
              "in_budget", "identical");
  const BudgetPoint& reference = points[0];
  for (const BudgetPoint& point : points) {
    bool identical = point.fingerprints == reference.fingerprints;
    int64_t planned = 0;
    int64_t measured = 0;
    int64_t extra = 0;
    int dropped = 0;
    bool plan_feasible = true;
    for (size_t i = 0; i < point.iteration_micros.size(); ++i) {
      planned = std::max(planned, point.planned_peak_bytes[i]);
      measured = std::max(measured, point.peak_resident_bytes[i]);
      extra += point.recompute_extra_micros[i];
      dropped += point.num_dropped[i];
      plan_feasible = plan_feasible && point.feasible[i];
    }
    // The headline verdict: measured peak resident bytes under budget.
    bool in_budget = point.budget_bytes <= 0 || measured <= point.budget_bytes;
    std::printf("%-11s %14lld %14lld %14lld %12.1f %8d %8s %10s\n",
                point.label.c_str(),
                static_cast<long long>(point.budget_bytes),
                static_cast<long long>(measured),
                static_cast<long long>(planned),
                static_cast<double>(extra) / 1e3, dropped,
                in_budget ? "yes" : "no", identical ? "yes" : "no");

    JsonWriter json;
    json.BeginObject();
    json.KV("record", "memory_budget_point");
    json.KV("label", point.label);
    json.KV("rows", rows);
    json.KV("budget_bytes", point.budget_bytes);
    json.KV("unbudgeted_peak_bytes", peak);
    json.KV("max_peak_resident_bytes", measured);
    json.KV("max_planned_peak_bytes", planned);
    json.KV("recompute_extra_micros", extra);
    json.KV("num_dropped", dropped);
    json.KV("in_budget", in_budget);
    json.KV("plan_feasible", plan_feasible);
    json.KV("outputs_identical", identical);
    json.Key("iteration_micros").BeginArray();
    for (int64_t micros : point.iteration_micros) {
      json.Int(micros);
    }
    json.EndArray();
    json.EndObject();
    PrintJsonLine(json);

    // The acceptance claims, enforced loudly (benchmarks have no test
    // runner to fail for them).
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL %s outputs diverged from the unbudgeted run\n",
                   point.label.c_str());
      std::abort();
    }
    if (point.budget_bytes >= peak / 2 && !in_budget) {
      // 50% of the keep-everything peak must be schedulable on this
      // pipeline; looser budgets even more so. (Tighter points like 25%
      // may honestly report over-budget — a single step's inputs+output
      // working set is a floor no schedule can cross.)
      std::fprintf(stderr, "FATAL %s measured peak %lld over budget %lld\n",
                   point.label.c_str(), static_cast<long long>(measured),
                   static_cast<long long>(point.budget_bytes));
      std::abort();
    }
  }
}

}  // namespace
}  // namespace bench
}  // namespace helix

int main(int argc, char** argv) {
  int64_t rows = 1000000;
  int64_t epochs = 2;
  for (int i = 1; i < argc; ++i) {
    int64_t v;
    if ((v = helix::bench::FlagValue(argv[i], "--rows")) >= 0) {
      rows = v;
    } else if ((v = helix::bench::FlagValue(argv[i], "--epochs")) >= 0) {
      epochs = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  helix::bench::Run(rows, epochs);
  helix::bench::WriteBenchSummary("memory");
  return 0;
}
