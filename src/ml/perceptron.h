// Averaged perceptron for token-level structured prediction.
//
// The information-extraction application labels each token as inside or
// outside a person mention; consecutive positive tokens are decoded into
// spans (paper Section 3, "Information Extraction"). The averaged
// perceptron (Collins 2002) is the classic trainer for this setting and is
// exported as a linear ModelData, sharing the prediction path with the
// other learners.
#ifndef HELIX_ML_PERCEPTRON_H_
#define HELIX_ML_PERCEPTRON_H_

#include <memory>

#include "common/result.h"
#include "dataflow/examples.h"
#include "dataflow/model.h"

namespace helix {
namespace ml {

struct PerceptronOptions {
  int epochs = 10;
  uint64_t seed = 17;
  /// Margin for the update rule; 0 = vanilla perceptron. Must be finite.
  double margin = 0.0;
};

/// Trains an averaged perceptron on examples with is_test == false.
Result<std::shared_ptr<dataflow::ModelData>> TrainAveragedPerceptron(
    const dataflow::ExamplesData& data, const PerceptronOptions& opts);

}  // namespace ml
}  // namespace helix

#endif  // HELIX_ML_PERCEPTRON_H_
