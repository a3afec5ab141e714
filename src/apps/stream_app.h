// The streaming-append application (workload scenario "stream").
//
// A two-source variant of the Census workflow for periodic data arrival:
// a *fixed* base table trains the model (the prefix of the DAG), and a
// *growing* stream table is scored and evaluated by it (the suffix).
// Appending a batch only changes the stream FileSource's parameters, so
// every prefix signature — scan, extractors, assembled examples, the
// trained model — is unchanged and hits the store; the min-cut planner
// loads the model at the reuse frontier and recomputes only the suffix.
// This is the materialization win the streaming scenario exists to
// measure, and tests/trace_test.cc asserts it node-by-node.
//
// Feature-space alignment: the suffix assembles its examples over
// (base_train rows, then stream rows), sharing the base_train row prefix
// with the training assembly (base_train rows, then holdout rows).
// AssembleExamples interns features deterministically in row order, so
// every feature the model was trained on has the same index in the
// suffix's space; stream-only features land past the weight vector and
// contribute zero (SparseRow::Dot skips out-of-range indices).
#ifndef HELIX_APPS_STREAM_APP_H_
#define HELIX_APPS_STREAM_APP_H_

#include <string>

#include "core/std_ops.h"
#include "core/workflow.h"
#include "ml/evaluation.h"

namespace helix {
namespace apps {

/// Knobs of the streaming workflow. Between iterations only stream_path
/// changes (pointing at a longer cumulative batch file); everything else
/// stays fixed so the prefix keeps its signatures.
struct StreamConfig {
  /// Fixed training rows; also the row prefix of the scoring assembly.
  std::string base_train_path;
  /// Small fixed evaluation split for the training assembly's test side.
  std::string holdout_path;
  /// Cumulative stream rows scored by the model; grows every iteration.
  std::string stream_path;

  int age_bins = 10;
  core::ops::LearnerConfig learner;
  ml::BinaryMetricsOptions eval;
};

/// Builds the two-source workflow; outputs are the stream predictions and
/// their evaluation.
core::Workflow BuildStreamWorkflow(const StreamConfig& config);

/// Node names of the DAG prefix (training side): after the first
/// iteration, appending stream data must leave all of these load-or-prune
/// (never recomputed). Terminated by nullptr.
extern const char* const kStreamPrefixNodes[];
/// Node names of the DAG suffix (scoring side): the nodes an append
/// legitimately invalidates. Terminated by nullptr.
extern const char* const kStreamSuffixNodes[];

}  // namespace apps
}  // namespace helix

#endif  // HELIX_APPS_STREAM_APP_H_
