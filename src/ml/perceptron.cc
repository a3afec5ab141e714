#include "ml/perceptron.h"

#include <cmath>
#include <vector>

#include "common/rng.h"

namespace helix {
namespace ml {

Result<std::shared_ptr<dataflow::ModelData>> TrainAveragedPerceptron(
    const dataflow::ExamplesData& data, const PerceptronOptions& opts) {
  if (opts.epochs <= 0) {
    return Status::InvalidArgument("epochs must be positive");
  }
  if (!std::isfinite(opts.margin)) {
    return Status::InvalidArgument("margin must be finite");
  }
  std::vector<size_t> train_idx;
  for (int64_t i = 0; i < data.num_examples(); ++i) {
    if (!data.is_test(i)) {
      train_idx.push_back(static_cast<size_t>(i));
    }
  }
  if (train_idx.empty()) {
    return Status::InvalidArgument("no training examples (all is_test)");
  }

  const size_t dim = static_cast<size_t>(data.num_features());
  const int64_t* offsets = data.offsets();
  const int32_t* indices = data.indices();
  const double* values = data.values();
  const double* labels = data.labels();
  // Lazily-averaged perceptron: `acc` accumulates w * step so the average
  // can be recovered in O(dim) at the end.
  std::vector<double> weights(dim, 0.0);
  std::vector<double> acc(dim, 0.0);
  double* w = weights.data();
  double* a = acc.data();
  double bias = 0.0;
  double bias_acc = 0.0;
  double step = 1.0;
  int64_t mistakes = 0;

  Rng rng(opts.seed);
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.Shuffle(&train_idx);
    for (size_t i : train_idx) {
      // Entries past the dictionary never score and their updates are
      // discarded; indices increase, so the rest form a prefix.
      const int64_t begin = offsets[i];
      int64_t end = offsets[i + 1];
      while (end > begin && static_cast<size_t>(indices[end - 1]) >= dim) {
        --end;
      }
      double y = labels[i] > 0.5 ? 1.0 : -1.0;
      double score = 0.0;
      for (int64_t k = begin; k < end; ++k) {
        score += w[indices[k]] * values[k];
      }
      score += bias;
      if (y * score <= opts.margin) {
        for (int64_t k = begin; k < end; ++k) {
          w[indices[k]] += y * values[k];
        }
        bias += y;
        // Track the update moment for averaging.
        double moment = y * step;
        for (int64_t k = begin; k < end; ++k) {
          a[indices[k]] += moment * values[k];
        }
        bias_acc += moment;
        ++mistakes;
      }
      step += 1.0;
    }
  }

  // Averaged weights: w_avg = w - acc / T.
  std::vector<double> averaged(dim, 0.0);
  for (size_t j = 0; j < dim; ++j) {
    averaged[j] = weights[j] - acc[j] / step;
  }
  double averaged_bias = bias - bias_acc / step;

  auto model = std::make_shared<dataflow::ModelData>(
      "averaged_perceptron", std::move(averaged), averaged_bias);
  model->SetInfo("epochs", opts.epochs);
  model->SetInfo("mistakes", static_cast<double>(mistakes));
  model->SetInfo("num_train", static_cast<double>(train_idx.size()));
  return model;
}

}  // namespace ml
}  // namespace helix
