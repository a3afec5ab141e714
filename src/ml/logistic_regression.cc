#include "ml/logistic_regression.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "dataflow/simd.h"

namespace helix {
namespace ml {

namespace simd = dataflow::simd;

namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

Result<std::shared_ptr<dataflow::ModelData>> TrainLogisticRegression(
    const dataflow::ExamplesData& data,
    const LogisticRegressionOptions& opts) {
  std::vector<size_t> train_idx;
  size_t dim = static_cast<size_t>(data.num_features());
  for (int64_t i = 0; i < data.num_examples(); ++i) {
    if (!data.is_test(i)) {
      train_idx.push_back(static_cast<size_t>(i));
      // MaxIndex is -1 for an empty row, which wraps to 0 here.
      dim = std::max(dim, static_cast<size_t>(data.features(i).MaxIndex()) + 1);
    }
  }
  if (train_idx.empty()) {
    return Status::InvalidArgument("no training examples (all is_test)");
  }
  if (opts.epochs <= 0 || opts.learning_rate <= 0 ||
      !std::isfinite(opts.learning_rate)) {
    return Status::InvalidArgument(
        "epochs and learning_rate must be positive (learning_rate finite)");
  }
  // A negative reg_param would make the shrink grow the weights.
  if (opts.reg_param < 0 || !std::isfinite(opts.reg_param) ||
      !std::isfinite(opts.lr_decay)) {
    return Status::InvalidArgument(
        "reg_param must be finite and non-negative, lr_decay finite");
  }

  const int64_t* offsets = data.offsets();
  const int32_t* indices = data.indices();
  const double* values = data.values();
  const double* labels = data.labels();
  // Rows may carry indices past the dictionary. The weight vector starts
  // at dictionary size and grows to cover a row the first time that row
  // updates it; `live` is that grown size. Storage for every index is
  // allocated up front (zero-filled, as growth would fill it), so the dot
  // product, the shrink and the update touch exactly the elements, in the
  // order, that a growing vector would.
  std::vector<double> weights(dim, 0.0);
  size_t live = static_cast<size_t>(data.num_features());
  double* w = weights.data();
  double bias = 0.0;
  Rng rng(opts.seed);
  double final_loss = 0.0;
  const simd::ScaleFn scale = simd::ResolveScale();
  const size_t n = train_idx.size();
  const size_t* order = train_idx.data();

  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.Shuffle(&train_idx);
    double lr = opts.learning_rate / (1.0 + opts.lr_decay * epoch);
    double loss = 0.0;
    // Per-example L2 shrink scaled by 1/n keeps regularization strength
    // independent of dataset size.
    double shrink =
        1.0 - lr * opts.reg_param / static_cast<double>(train_idx.size());
    if (shrink < 0.0) {
      shrink = 0.0;
    }
    for (size_t pos = 0; pos < n; ++pos) {
      // The shuffled order starts each visit with dependent cache misses:
      // the offset, then the row's slice, plus the label. Request the
      // offset and label two visits ahead, and the first and last entries
      // of the next visit's slice, whose offset is already on its way (a
      // census row's five values straddle two cache lines half the time).
      // Prefetches change no value. They stay inline: GCC 12 deletes calls
      // to a function that only prefetches, as free of side effects.
      if (pos + 2 < n) {
        __builtin_prefetch(offsets + order[pos + 2]);
        __builtin_prefetch(labels + order[pos + 2]);
      }
      if (pos + 1 < n) {
        const size_t next = order[pos + 1];
        const int64_t next_begin = offsets[next];
        const int64_t next_end = offsets[next + 1];
        // Skipping empty rows also keeps pointer arithmetic off the null
        // index/value arrays of a set with no stored entries.
        if (next_end > next_begin) {
          __builtin_prefetch(indices + next_begin);
          __builtin_prefetch(values + next_begin);
          __builtin_prefetch(indices + next_end - 1);
          __builtin_prefetch(values + next_end - 1);
        }
      }
      const size_t i = order[pos];
      const int64_t begin = offsets[i];
      const int64_t end = offsets[i + 1];
      // Indices are increasing, so the entries inside the live weights
      // form a prefix of the row.
      int64_t in_live = end;
      while (in_live > begin &&
             static_cast<size_t>(indices[in_live - 1]) >= live) {
        --in_live;
      }
      double dot = 0.0;
      for (int64_t k = begin; k < in_live; ++k) {
        dot += w[indices[k]] * values[k];
      }
      double p = Sigmoid(dot + bias);
      double err = p - labels[i];  // gradient of log-loss wrt score
      if (shrink != 1.0) {
        scale(w, static_cast<int64_t>(live), shrink);
      }
      if (end > begin) {
        live = std::max(live, static_cast<size_t>(indices[end - 1]) + 1);
        double step = -lr * err;
        for (int64_t k = begin; k < end; ++k) {
          w[indices[k]] += step * values[k];
        }
      }
      bias -= lr * err;
      double clamped = std::min(std::max(p, 1e-12), 1.0 - 1e-12);
      loss += labels[i] > 0.5 ? -std::log(clamped) : -std::log(1.0 - clamped);
    }
    final_loss = loss / static_cast<double>(train_idx.size());
  }

  // Clamp back to dictionary size for a canonical representation.
  weights.resize(static_cast<size_t>(data.num_features()), 0.0);
  auto model = std::make_shared<dataflow::ModelData>(
      "logistic_regression", std::move(weights), bias);
  model->SetInfo("train_loss", final_loss);
  model->SetInfo("epochs", opts.epochs);
  model->SetInfo("reg_param", opts.reg_param);
  model->SetInfo("num_train", static_cast<double>(train_idx.size()));
  return model;
}

double PredictScore(const dataflow::ModelData& model,
                    const dataflow::SparseRow& features) {
  return features.Dot(model.weights()) + model.bias();
}

double PredictProbability(const dataflow::ModelData& model,
                          const dataflow::SparseRow& features) {
  return Sigmoid(PredictScore(model, features));
}

}  // namespace ml
}  // namespace helix
