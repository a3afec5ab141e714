// L2-regularized logistic regression trained with mini-batch-free SGD.
//
// This is the default `Learner` of the Census workflow (paper Figure 1a,
// line 16: `new Learner(modelType, regParam=0.1)`). Training is
// deterministic: example order is shuffled with a seeded RNG, so the same
// inputs and hyperparameters always produce bit-identical models — a
// requirement for HELIX's plan-invariance guarantees (optimized and
// unoptimized executions must produce identical results).
#ifndef HELIX_ML_LOGISTIC_REGRESSION_H_
#define HELIX_ML_LOGISTIC_REGRESSION_H_

#include <memory>

#include "common/result.h"
#include "dataflow/examples.h"
#include "dataflow/model.h"

namespace helix {
namespace ml {

struct LogisticRegressionOptions {
  /// L2 regularization strength (the paper's regParam).
  double reg_param = 0.1;
  double learning_rate = 0.1;
  int epochs = 20;
  /// Shuffle seed; same seed => bit-identical model.
  uint64_t seed = 42;
  /// Learning-rate decay per epoch: lr_t = lr / (1 + decay * epoch).
  double lr_decay = 0.05;
};

/// Trains on examples with is_test == false. Fails if there are no
/// training examples, or on a non-positive or non-finite learning rate, a
/// negative or non-finite reg_param, or a non-finite lr_decay.
Result<std::shared_ptr<dataflow::ModelData>> TrainLogisticRegression(
    const dataflow::ExamplesData& data, const LogisticRegressionOptions& opts);

/// P(y=1 | x) under a trained linear model (logistic link).
double PredictProbability(const dataflow::ModelData& model,
                          const dataflow::SparseRow& features);

/// Raw linear score w . x + b.
double PredictScore(const dataflow::ModelData& model,
                    const dataflow::SparseRow& features);

}  // namespace ml
}  // namespace helix

#endif  // HELIX_ML_LOGISTIC_REGRESSION_H_
