// The Information Extraction application (paper Section 3, application 2).
//
// Structured prediction over unstructured news text: identify person
// mentions. Mirrors the paper's description — "this workflow requires more
// data pre-processing steps to enable learning": CorpusSource ->
// SentenceTokenizer -> TokenFeaturizer -> Learner -> Predictor ->
// MentionDecoder -> SpanEvaluator. Pre-processing dominates the runtime,
// so cross-iteration reuse matters even more than in Census.
#ifndef HELIX_APPS_IE_APP_H_
#define HELIX_APPS_IE_APP_H_

#include <functional>
#include <string>
#include <vector>

#include "core/std_ops.h"
#include "core/version_manager.h"
#include "core/workflow.h"
#include "nlp/mention_decoder.h"
#include "nlp/token_features.h"

namespace helix {
namespace apps {

/// Tunable knobs of the IE workflow.
struct IeConfig {
  std::string corpus_path;
  /// Train/test split by document index.
  double train_frac = 0.7;
  /// Token feature families (pre-processing iterations toggle these).
  nlp::TokenFeatureOptions features;
  /// Learner hyperparameters.
  core::ops::LearnerConfig learner;
  /// Span decoding (post-processing).
  nlp::MentionDecoderOptions decoder;

  IeConfig() {
    features.word_identity = true;
    features.shape = true;
    learner.model_type = "lr";
    learner.reg_param = 0.01;
    learner.learning_rate = 0.5;
    learner.epochs = 5;
  }
};

/// Builds the IE workflow for a configuration.
core::Workflow BuildIeWorkflow(const IeConfig& config);

/// One scripted human edit to the IE workflow.
struct IeScriptedIteration {
  std::string description;
  core::ChangeCategory category = core::ChangeCategory::kInitial;
  std::function<void(IeConfig*)> mutate;
};

/// The 10-iteration script used by the Figure 2(a) reproduction.
std::vector<IeScriptedIteration> MakeIeIterationScript();

}  // namespace apps
}  // namespace helix

#endif  // HELIX_APPS_IE_APP_H_
