#include "net/app_specs.h"

#include <utility>

namespace helix {
namespace net {
namespace {

void PutLearner(const core::ops::LearnerConfig& learner,
                core::WorkflowSpec* spec) {
  spec->SetString("learner.model_type", learner.model_type);
  spec->SetDouble("learner.reg_param", learner.reg_param);
  spec->SetDouble("learner.learning_rate", learner.learning_rate);
  spec->SetInt("learner.epochs", learner.epochs);
  spec->SetInt("learner.seed", static_cast<int64_t>(learner.seed));
}

Status GetLearner(const core::WorkflowSpec& spec,
                  core::ops::LearnerConfig* out) {
  out->model_type = spec.GetString("learner.model_type", out->model_type);
  HELIX_ASSIGN_OR_RETURN(out->reg_param,
                         spec.GetDouble("learner.reg_param", out->reg_param));
  HELIX_ASSIGN_OR_RETURN(
      out->learning_rate,
      spec.GetDouble("learner.learning_rate", out->learning_rate));
  HELIX_ASSIGN_OR_RETURN(int64_t epochs,
                         spec.GetInt("learner.epochs", out->epochs));
  out->epochs = static_cast<int>(epochs);
  HELIX_ASSIGN_OR_RETURN(
      int64_t seed,
      spec.GetInt("learner.seed", static_cast<int64_t>(out->seed)));
  out->seed = static_cast<uint64_t>(seed);
  return Status::OK();
}

}  // namespace

core::WorkflowSpec MakeCensusSpec(const apps::CensusConfig& config) {
  core::WorkflowSpec spec;
  spec.app = kCensusApp;
  spec.SetString("train_path", config.train_path);
  spec.SetString("test_path", config.test_path);
  spec.SetBool("use_edu", config.use_edu);
  spec.SetBool("use_occ", config.use_occ);
  spec.SetBool("use_age_bucket", config.use_age_bucket);
  spec.SetBool("use_edu_x_occ", config.use_edu_x_occ);
  spec.SetBool("use_capital_loss", config.use_capital_loss);
  spec.SetBool("use_marital_status", config.use_marital_status);
  spec.SetBool("use_race", config.use_race);
  spec.SetBool("use_hours", config.use_hours);
  spec.SetBool("use_sex", config.use_sex);
  spec.SetInt("age_bins", config.age_bins);
  PutLearner(config.learner, &spec);
  spec.SetDouble("eval.threshold", config.eval.threshold);
  spec.SetBool("eval.accuracy", config.eval.accuracy);
  spec.SetBool("eval.precision_recall_f1", config.eval.precision_recall_f1);
  spec.SetBool("eval.auc", config.eval.auc);
  spec.SetBool("eval.log_loss", config.eval.log_loss);
  spec.SetBool("eval.confusion_counts", config.eval.confusion_counts);
  return spec;
}

Result<apps::CensusConfig> CensusConfigFromSpec(
    const core::WorkflowSpec& spec) {
  if (spec.app != kCensusApp) {
    return Status::InvalidArgument("spec is for app '" + spec.app +
                                   "', not census");
  }
  apps::CensusConfig config;
  config.train_path = spec.GetString("train_path", config.train_path);
  config.test_path = spec.GetString("test_path", config.test_path);
  HELIX_ASSIGN_OR_RETURN(config.use_edu,
                         spec.GetBool("use_edu", config.use_edu));
  HELIX_ASSIGN_OR_RETURN(config.use_occ,
                         spec.GetBool("use_occ", config.use_occ));
  HELIX_ASSIGN_OR_RETURN(
      config.use_age_bucket,
      spec.GetBool("use_age_bucket", config.use_age_bucket));
  HELIX_ASSIGN_OR_RETURN(
      config.use_edu_x_occ,
      spec.GetBool("use_edu_x_occ", config.use_edu_x_occ));
  HELIX_ASSIGN_OR_RETURN(
      config.use_capital_loss,
      spec.GetBool("use_capital_loss", config.use_capital_loss));
  HELIX_ASSIGN_OR_RETURN(
      config.use_marital_status,
      spec.GetBool("use_marital_status", config.use_marital_status));
  HELIX_ASSIGN_OR_RETURN(config.use_race,
                         spec.GetBool("use_race", config.use_race));
  HELIX_ASSIGN_OR_RETURN(config.use_hours,
                         spec.GetBool("use_hours", config.use_hours));
  HELIX_ASSIGN_OR_RETURN(config.use_sex,
                         spec.GetBool("use_sex", config.use_sex));
  HELIX_ASSIGN_OR_RETURN(int64_t age_bins,
                         spec.GetInt("age_bins", config.age_bins));
  config.age_bins = static_cast<int>(age_bins);
  HELIX_RETURN_IF_ERROR(GetLearner(spec, &config.learner));
  HELIX_ASSIGN_OR_RETURN(
      config.eval.threshold,
      spec.GetDouble("eval.threshold", config.eval.threshold));
  HELIX_ASSIGN_OR_RETURN(config.eval.accuracy,
                         spec.GetBool("eval.accuracy", config.eval.accuracy));
  HELIX_ASSIGN_OR_RETURN(
      config.eval.precision_recall_f1,
      spec.GetBool("eval.precision_recall_f1",
                   config.eval.precision_recall_f1));
  HELIX_ASSIGN_OR_RETURN(config.eval.auc,
                         spec.GetBool("eval.auc", config.eval.auc));
  HELIX_ASSIGN_OR_RETURN(config.eval.log_loss,
                         spec.GetBool("eval.log_loss", config.eval.log_loss));
  HELIX_ASSIGN_OR_RETURN(
      config.eval.confusion_counts,
      spec.GetBool("eval.confusion_counts", config.eval.confusion_counts));
  return config;
}

core::WorkflowSpec MakeIeSpec(const apps::IeConfig& config) {
  core::WorkflowSpec spec;
  spec.app = kIeApp;
  spec.SetString("corpus_path", config.corpus_path);
  spec.SetDouble("train_frac", config.train_frac);
  spec.SetBool("features.word_identity", config.features.word_identity);
  spec.SetBool("features.shape", config.features.shape);
  spec.SetBool("features.prefix_suffix", config.features.prefix_suffix);
  spec.SetBool("features.gazetteer", config.features.gazetteer);
  spec.SetBool("features.context", config.features.context);
  spec.SetInt("features.context_window", config.features.context_window);
  spec.SetBool("features.honorific", config.features.honorific);
  spec.SetBool("features.position", config.features.position);
  PutLearner(config.learner, &spec);
  spec.SetDouble("decoder.threshold", config.decoder.threshold);
  spec.SetString("decoder.label", config.decoder.label);
  spec.SetInt("decoder.min_tokens", config.decoder.min_tokens);
  spec.SetInt("decoder.max_tokens", config.decoder.max_tokens);
  return spec;
}

Result<apps::IeConfig> IeConfigFromSpec(const core::WorkflowSpec& spec) {
  if (spec.app != kIeApp) {
    return Status::InvalidArgument("spec is for app '" + spec.app +
                                   "', not ie");
  }
  apps::IeConfig config;
  config.corpus_path = spec.GetString("corpus_path", config.corpus_path);
  HELIX_ASSIGN_OR_RETURN(config.train_frac,
                         spec.GetDouble("train_frac", config.train_frac));
  HELIX_ASSIGN_OR_RETURN(
      config.features.word_identity,
      spec.GetBool("features.word_identity", config.features.word_identity));
  HELIX_ASSIGN_OR_RETURN(config.features.shape,
                         spec.GetBool("features.shape",
                                      config.features.shape));
  HELIX_ASSIGN_OR_RETURN(
      config.features.prefix_suffix,
      spec.GetBool("features.prefix_suffix", config.features.prefix_suffix));
  HELIX_ASSIGN_OR_RETURN(
      config.features.gazetteer,
      spec.GetBool("features.gazetteer", config.features.gazetteer));
  HELIX_ASSIGN_OR_RETURN(
      config.features.context,
      spec.GetBool("features.context", config.features.context));
  HELIX_ASSIGN_OR_RETURN(
      int64_t window,
      spec.GetInt("features.context_window",
                  config.features.context_window));
  config.features.context_window = static_cast<int>(window);
  HELIX_ASSIGN_OR_RETURN(
      config.features.honorific,
      spec.GetBool("features.honorific", config.features.honorific));
  HELIX_ASSIGN_OR_RETURN(
      config.features.position,
      spec.GetBool("features.position", config.features.position));
  HELIX_RETURN_IF_ERROR(GetLearner(spec, &config.learner));
  HELIX_ASSIGN_OR_RETURN(
      config.decoder.threshold,
      spec.GetDouble("decoder.threshold", config.decoder.threshold));
  config.decoder.label = spec.GetString("decoder.label",
                                        config.decoder.label);
  HELIX_ASSIGN_OR_RETURN(
      int64_t min_tokens,
      spec.GetInt("decoder.min_tokens", config.decoder.min_tokens));
  config.decoder.min_tokens = static_cast<int>(min_tokens);
  HELIX_ASSIGN_OR_RETURN(
      int64_t max_tokens,
      spec.GetInt("decoder.max_tokens", config.decoder.max_tokens));
  config.decoder.max_tokens = static_cast<int>(max_tokens);
  return config;
}

core::WorkflowSpec MakeStreamSpec(const apps::StreamConfig& config) {
  core::WorkflowSpec spec;
  spec.app = kStreamApp;
  spec.SetString("base_train_path", config.base_train_path);
  spec.SetString("holdout_path", config.holdout_path);
  spec.SetString("stream_path", config.stream_path);
  spec.SetInt("age_bins", config.age_bins);
  PutLearner(config.learner, &spec);
  spec.SetDouble("eval.threshold", config.eval.threshold);
  spec.SetBool("eval.accuracy", config.eval.accuracy);
  spec.SetBool("eval.precision_recall_f1", config.eval.precision_recall_f1);
  spec.SetBool("eval.auc", config.eval.auc);
  spec.SetBool("eval.log_loss", config.eval.log_loss);
  spec.SetBool("eval.confusion_counts", config.eval.confusion_counts);
  return spec;
}

Result<apps::StreamConfig> StreamConfigFromSpec(
    const core::WorkflowSpec& spec) {
  if (spec.app != kStreamApp) {
    return Status::InvalidArgument("spec is for app '" + spec.app +
                                   "', not stream");
  }
  apps::StreamConfig config;
  config.base_train_path =
      spec.GetString("base_train_path", config.base_train_path);
  config.holdout_path = spec.GetString("holdout_path", config.holdout_path);
  config.stream_path = spec.GetString("stream_path", config.stream_path);
  HELIX_ASSIGN_OR_RETURN(int64_t age_bins,
                         spec.GetInt("age_bins", config.age_bins));
  config.age_bins = static_cast<int>(age_bins);
  HELIX_RETURN_IF_ERROR(GetLearner(spec, &config.learner));
  HELIX_ASSIGN_OR_RETURN(
      config.eval.threshold,
      spec.GetDouble("eval.threshold", config.eval.threshold));
  HELIX_ASSIGN_OR_RETURN(config.eval.accuracy,
                         spec.GetBool("eval.accuracy", config.eval.accuracy));
  HELIX_ASSIGN_OR_RETURN(
      config.eval.precision_recall_f1,
      spec.GetBool("eval.precision_recall_f1",
                   config.eval.precision_recall_f1));
  HELIX_ASSIGN_OR_RETURN(config.eval.auc,
                         spec.GetBool("eval.auc", config.eval.auc));
  HELIX_ASSIGN_OR_RETURN(config.eval.log_loss,
                         spec.GetBool("eval.log_loss", config.eval.log_loss));
  HELIX_ASSIGN_OR_RETURN(
      config.eval.confusion_counts,
      spec.GetBool("eval.confusion_counts", config.eval.confusion_counts));
  return config;
}

core::WorkflowResolver MakeStandardResolver() {
  return [](const core::WorkflowSpec& spec) -> Result<core::Workflow> {
    if (spec.app == kCensusApp) {
      HELIX_ASSIGN_OR_RETURN(apps::CensusConfig config,
                             CensusConfigFromSpec(spec));
      return apps::BuildCensusWorkflow(config);
    }
    if (spec.app == kIeApp) {
      HELIX_ASSIGN_OR_RETURN(apps::IeConfig config, IeConfigFromSpec(spec));
      return apps::BuildIeWorkflow(config);
    }
    if (spec.app == kStreamApp) {
      HELIX_ASSIGN_OR_RETURN(apps::StreamConfig config,
                             StreamConfigFromSpec(spec));
      return apps::BuildStreamWorkflow(config);
    }
    return Status::NotFound("no workflow resolver for app '" + spec.app +
                            "'");
  };
}

}  // namespace net
}  // namespace helix
