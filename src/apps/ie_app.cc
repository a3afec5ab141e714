#include "apps/ie_app.h"

namespace helix {
namespace apps {

using core::NodeRef;
using core::Workflow;
namespace ops = core::ops;

core::Workflow BuildIeWorkflow(const IeConfig& config) {
  Workflow wf("ie");

  NodeRef corpus = wf.Add(ops::CorpusSource("corpus", config.corpus_path));
  NodeRef tokens = wf.Add(ops::SentenceTokenizer("tokens"), {corpus});
  NodeRef feats = wf.Add(
      ops::TokenFeaturizer("tokenFeats", config.features, config.train_frac),
      {tokens});
  NodeRef model = wf.Add(ops::Learner("mentionModel", config.learner),
                         {feats});
  NodeRef preds = wf.Add(ops::Predictor("tokenPreds"), {model, feats});
  NodeRef mentions = wf.Add(ops::MentionDecoder("mentions", config.decoder),
                            {tokens, preds});
  NodeRef checked = wf.Add(
      ops::SpanEvaluator("checked", config.train_frac), {corpus, mentions});

  wf.MarkOutput(mentions);
  wf.MarkOutput(checked);
  return wf;
}

std::vector<IeScriptedIteration> MakeIeIterationScript() {
  using core::ChangeCategory;
  std::vector<IeScriptedIteration> script;
  script.push_back({"initial version (identity + shape features)",
                    ChangeCategory::kInitial, [](IeConfig*) {}});
  script.push_back({"add gazetteer features",
                    ChangeCategory::kDataPreprocessing,
                    [](IeConfig* c) { c->features.gazetteer = true; }});
  script.push_back({"more epochs", ChangeCategory::kMachineLearning,
                    [](IeConfig* c) { c->learner.epochs += 5; }});
  script.push_back({"add context window features",
                    ChangeCategory::kDataPreprocessing, [](IeConfig* c) {
                      c->features.context = true;
                      c->features.context_window = 1;
                    }});
  script.push_back({"lower decoder threshold to 0.4",
                    ChangeCategory::kEvaluation,
                    [](IeConfig* c) { c->decoder.threshold = 0.4; }});
  script.push_back({"add honorific and position cues",
                    ChangeCategory::kDataPreprocessing, [](IeConfig* c) {
                      c->features.honorific = true;
                      c->features.position = true;
                    }});
  script.push_back({"lower regularization",
                    ChangeCategory::kMachineLearning,
                    [](IeConfig* c) { c->learner.reg_param = 0.001; }});
  script.push_back({"add prefix/suffix features",
                    ChangeCategory::kDataPreprocessing,
                    [](IeConfig* c) { c->features.prefix_suffix = true; }});
  script.push_back({"cap mention length at 4 tokens",
                    ChangeCategory::kEvaluation,
                    [](IeConfig* c) { c->decoder.max_tokens = 4; }});
  script.push_back({"switch to averaged perceptron",
                    ChangeCategory::kMachineLearning, [](IeConfig* c) {
                      c->learner.model_type = "perceptron";
                      c->learner.epochs = 8;
                      c->learner.reg_param = 0.0;
                    }});
  return script;
}

}  // namespace apps
}  // namespace helix
