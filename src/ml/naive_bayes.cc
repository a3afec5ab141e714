#include "ml/naive_bayes.h"

#include <cmath>
#include <vector>

namespace helix {
namespace ml {

Result<std::shared_ptr<dataflow::ModelData>> TrainNaiveBayes(
    const dataflow::ExamplesData& data, const NaiveBayesOptions& opts) {
  if (opts.smoothing <= 0 || !std::isfinite(opts.smoothing)) {
    return Status::InvalidArgument("smoothing must be positive and finite");
  }
  const size_t dim = static_cast<size_t>(data.num_features());
  // count[c][j] = number of class-c training examples with feature j present.
  std::vector<double> count_pos(dim, 0.0);
  std::vector<double> count_neg(dim, 0.0);
  double n_pos = 0;
  double n_neg = 0;

  const int64_t* offsets = data.offsets();
  const int32_t* indices = data.indices();
  const double* values = data.values();
  for (int64_t i = 0; i < data.num_examples(); ++i) {
    if (data.is_test(i)) {
      continue;
    }
    bool positive = data.label(i) > 0.5;
    (positive ? n_pos : n_neg) += 1.0;
    double* counts = positive ? count_pos.data() : count_neg.data();
    for (int64_t k = offsets[i]; k < offsets[i + 1]; ++k) {
      if (values[k] != 0.0 && static_cast<size_t>(indices[k]) < dim) {
        counts[indices[k]] += 1.0;
      }
    }
  }
  if (n_pos == 0 || n_neg == 0) {
    return Status::InvalidArgument(
        "naive Bayes requires both classes in the training data");
  }

  // Linear form: score(x) = log P(y=1)/P(y=0)
  //   + sum_j x_j * [logit(p_j|1) - logit(p_j|0)]
  //   + sum_j [log(1-p_j|1) - log(1-p_j|0)]   (absorbed into the bias)
  const double a = opts.smoothing;
  std::vector<double> weights(dim, 0.0);
  double bias = std::log(n_pos) - std::log(n_neg);
  for (size_t j = 0; j < dim; ++j) {
    double p1 = (count_pos[j] + a) / (n_pos + 2 * a);
    double p0 = (count_neg[j] + a) / (n_neg + 2 * a);
    weights[j] = std::log(p1 / (1 - p1)) - std::log(p0 / (1 - p0));
    bias += std::log(1 - p1) - std::log(1 - p0);
  }

  auto model = std::make_shared<dataflow::ModelData>(
      "naive_bayes", std::move(weights), bias);
  model->SetInfo("smoothing", a);
  model->SetInfo("num_train", n_pos + n_neg);
  return model;
}

}  // namespace ml
}  // namespace helix
