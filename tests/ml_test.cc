// Tests for src/ml: trainers (logistic regression, naive Bayes, averaged
// perceptron) and evaluation metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ml/evaluation.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/perceptron.h"

namespace helix {
namespace ml {
namespace {

using dataflow::ExamplesData;
using dataflow::SparseRow;
using dataflow::SparseVector;

// Planted linearly separable problem: label = [w* . x > 0], features in
// {0,1}^dim. Returns data with an 80/20 train/test split.
std::shared_ptr<ExamplesData> MakePlantedData(int n, int dim, uint64_t seed,
                                              double flip_noise = 0.0) {
  Rng rng(seed);
  std::vector<double> w_star;
  for (int j = 0; j < dim; ++j) {
    w_star.push_back(rng.NextGaussian());
  }
  auto data = std::make_shared<ExamplesData>();
  for (int j = 0; j < dim; ++j) {
    data->mutable_dict()->Intern("f" + std::to_string(j));
  }
  for (int i = 0; i < n; ++i) {
    SparseVector row;
    double score = 0;
    for (int j = 0; j < dim; ++j) {
      if (rng.NextBool(0.4)) {
        row.Set(j, 1.0);
        score += w_star[static_cast<size_t>(j)];
      }
    }
    double label = score > 0 ? 1.0 : 0.0;
    if (flip_noise > 0 && rng.NextBool(flip_noise)) {
      label = 1.0 - label;
    }
    data->AddRow(row.view(), label, i, /*is_test=*/i >= n * 8 / 10);
  }
  return data;
}

double TestAccuracy(const dataflow::ModelData& model,
                    const ExamplesData& data) {
  int correct = 0;
  int total = 0;
  for (int64_t i = 0; i < data.num_examples(); ++i) {
    if (!data.is_test(i)) {
      continue;
    }
    double p = PredictProbability(model, data.features(i));
    if ((p >= 0.5) == (data.label(i) > 0.5)) {
      ++correct;
    }
    ++total;
  }
  return total > 0 ? static_cast<double>(correct) / total : 0.0;
}

// --- Logistic regression -----------------------------------------------------

TEST(LogisticRegressionTest, LearnsSeparableData) {
  auto data = MakePlantedData(2000, 12, 1);
  LogisticRegressionOptions opts;
  opts.epochs = 30;
  auto model = TrainLogisticRegression(*data, opts);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(TestAccuracy(*model.value(), *data), 0.9);
}

TEST(LogisticRegressionTest, DeterministicGivenSeed) {
  auto data = MakePlantedData(500, 8, 2);
  LogisticRegressionOptions opts;
  auto a = TrainLogisticRegression(*data, opts);
  auto b = TrainLogisticRegression(*data, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()->Fingerprint(), b.value()->Fingerprint());
}

TEST(LogisticRegressionTest, SeedChangesModel) {
  auto data = MakePlantedData(500, 8, 2);
  LogisticRegressionOptions opts;
  auto a = TrainLogisticRegression(*data, opts);
  opts.seed = 777;
  auto b = TrainLogisticRegression(*data, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value()->Fingerprint(), b.value()->Fingerprint());
}

TEST(LogisticRegressionTest, StrongRegularizationShrinksWeights) {
  auto data = MakePlantedData(500, 8, 3);
  LogisticRegressionOptions weak;
  weak.reg_param = 0.0;
  LogisticRegressionOptions strong;
  strong.reg_param = 200.0;
  auto weak_model = TrainLogisticRegression(*data, weak);
  auto strong_model = TrainLogisticRegression(*data, strong);
  ASSERT_TRUE(weak_model.ok());
  ASSERT_TRUE(strong_model.ok());
  auto norm = [](const std::vector<double>& w) {
    double s = 0;
    for (double x : w) {
      s += x * x;
    }
    return s;
  };
  EXPECT_LT(norm(strong_model.value()->weights()),
            norm(weak_model.value()->weights()));
}

TEST(LogisticRegressionTest, RejectsAllTestData) {
  auto data = std::make_shared<ExamplesData>();
  data->AddRow(SparseRow(), 0.0, 0, /*is_test=*/true);
  EXPECT_FALSE(TrainLogisticRegression(*data, {}).ok());
}

TEST(LogisticRegressionTest, RejectsBadHyperparameters) {
  auto data = MakePlantedData(50, 4, 4);
  LogisticRegressionOptions opts;
  opts.epochs = 0;
  EXPECT_FALSE(TrainLogisticRegression(*data, opts).ok());
  opts.epochs = 5;
  opts.learning_rate = -1;
  EXPECT_FALSE(TrainLogisticRegression(*data, opts).ok());
}

// A remote workflow spec can carry "nan" or "inf" (strtod accepts them):
// each must be rejected, not trained into a NaN model. A negative
// reg_param would make the per-visit shrink grow the weights.
TEST(LogisticRegressionTest, RejectsNonFiniteOrNegativeRegularization) {
  auto data = MakePlantedData(50, 4, 4);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (double lr : {nan, inf, -inf, 0.0}) {
    LogisticRegressionOptions opts;
    opts.learning_rate = lr;
    EXPECT_TRUE(
        TrainLogisticRegression(*data, opts).status().IsInvalidArgument())
        << "learning_rate " << lr;
  }
  for (double reg : {nan, inf, -inf, -0.1}) {
    LogisticRegressionOptions opts;
    opts.reg_param = reg;
    EXPECT_TRUE(
        TrainLogisticRegression(*data, opts).status().IsInvalidArgument())
        << "reg_param " << reg;
  }
  LogisticRegressionOptions decay;
  decay.lr_decay = nan;
  EXPECT_TRUE(
      TrainLogisticRegression(*data, decay).status().IsInvalidArgument());
  // Zero regularization is the no-shrink path, and stays valid.
  LogisticRegressionOptions zero;
  zero.reg_param = 0.0;
  EXPECT_TRUE(TrainLogisticRegression(*data, zero).ok());
}

TEST(LogisticRegressionTest, ProbabilityIsCalibratedShape) {
  dataflow::ModelData model("lr", {2.0}, -1.0);
  dataflow::SparseVector on;
  on.Set(0, 1.0);
  dataflow::SparseVector off;
  // score(on) = 1, score(off) = -1.
  EXPECT_NEAR(PredictProbability(model, on.view()),
              1.0 / (1.0 + std::exp(-1.0)), 1e-12);
  EXPECT_NEAR(PredictProbability(model, off.view()),
              1.0 / (1.0 + std::exp(1.0)), 1e-12);
  EXPECT_DOUBLE_EQ(PredictScore(model, on.view()), 1.0);
}

// --- Naive Bayes ----------------------------------------------------------------

TEST(NaiveBayesTest, LearnsSeparableData) {
  auto data = MakePlantedData(2000, 12, 5);
  auto model = TrainNaiveBayes(*data, {});
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(TestAccuracy(*model.value(), *data), 0.8);
}

TEST(NaiveBayesTest, RequiresBothClasses) {
  auto data = std::make_shared<ExamplesData>();
  data->mutable_dict()->Intern("f");
  for (int i = 0; i < 5; ++i) {
    data->AddRow(SparseRow(), 1.0, i, /*is_test=*/false);
  }
  EXPECT_FALSE(TrainNaiveBayes(*data, {}).ok());
}

TEST(NaiveBayesTest, RejectsNonPositiveSmoothing) {
  auto data = MakePlantedData(100, 4, 6);
  NaiveBayesOptions opts;
  opts.smoothing = 0;
  EXPECT_FALSE(TrainNaiveBayes(*data, opts).ok());
  opts.smoothing = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(TrainNaiveBayes(*data, opts).ok());
  opts.smoothing = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(TrainNaiveBayes(*data, opts).ok());
}

TEST(NaiveBayesTest, DeterministicAndExportedAsLinear) {
  auto data = MakePlantedData(300, 6, 7);
  auto a = TrainNaiveBayes(*data, {});
  auto b = TrainNaiveBayes(*data, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()->Fingerprint(), b.value()->Fingerprint());
  EXPECT_EQ(a.value()->model_type(), "naive_bayes");
  EXPECT_EQ(a.value()->weights().size(), 6u);
}

// --- Averaged perceptron -----------------------------------------------------------

TEST(PerceptronTest, LearnsSeparableData) {
  auto data = MakePlantedData(2000, 12, 8);
  PerceptronOptions opts;
  opts.epochs = 15;
  auto model = TrainAveragedPerceptron(*data, opts);
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_GT(TestAccuracy(*model.value(), *data), 0.88);
}

TEST(PerceptronTest, Deterministic) {
  auto data = MakePlantedData(400, 8, 9);
  PerceptronOptions opts;
  auto a = TrainAveragedPerceptron(*data, opts);
  auto b = TrainAveragedPerceptron(*data, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value()->Fingerprint(), b.value()->Fingerprint());
}

TEST(PerceptronTest, RejectsNonFiniteMargin) {
  auto data = MakePlantedData(50, 4, 4);
  for (double margin : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()}) {
    PerceptronOptions opts;
    opts.margin = margin;
    EXPECT_TRUE(
        TrainAveragedPerceptron(*data, opts).status().IsInvalidArgument())
        << "margin " << margin;
  }
}

TEST(PerceptronTest, TracksMistakes) {
  auto data = MakePlantedData(400, 8, 10, /*flip_noise=*/0.1);
  auto model = TrainAveragedPerceptron(*data, {});
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model.value()->InfoOr("mistakes", 0), 0);
}

// --- Bit-identity ------------------------------------------------------------
//
// The trainers must produce bit-identical models whatever the example
// layout: stored models, planner decisions and recorded benchmark
// digests all hash them. Two guards: model fingerprints recorded before
// examples were stored as CSR, and a differential against a copy of the
// per-example trainers that predate it.

struct PlainRow {
  std::vector<std::pair<int32_t, double>> features;  // increasing index
  double label = 0.0;
  int64_t id = 0;
  bool is_test = false;
};

std::shared_ptr<ExamplesData> ToExamples(const std::vector<PlainRow>& rows,
                                         int num_features) {
  auto data = std::make_shared<ExamplesData>();
  for (int j = 0; j < num_features; ++j) {
    data->mutable_dict()->Intern("f" + std::to_string(j));
  }
  for (const PlainRow& r : rows) {
    SparseVector row;
    for (const auto& [index, value] : r.features) {
      row.Set(index, value);
    }
    data->AddRow(row.view(), r.label, r.id, r.is_test);
  }
  return data;
}

// 240 rows over 16 dictionary features plus indices 16 and 17 past it;
// values in {1, -1, -0.0, gaussian}; every fifth row held out.
std::vector<PlainRow> GoldenRows() {
  Rng rng(2024);
  std::vector<PlainRow> rows;
  for (int i = 0; i < 240; ++i) {
    PlainRow r;
    for (int32_t j = 0; j < 18; ++j) {
      if (!rng.NextBool(0.3)) {
        continue;
      }
      double v;
      switch (rng.NextBelow(4)) {
        case 0:
          v = 1.0;
          break;
        case 1:
          v = -1.0;
          break;
        case 2:
          v = rng.NextGaussian();
          break;
        default:
          v = -0.0;
          break;
      }
      r.features.emplace_back(j, v);
    }
    r.label = rng.NextBool(0.45) ? 1.0 : 0.0;
    r.id = i;
    r.is_test = i % 5 == 4;
    rows.push_back(r);
  }
  return rows;
}

TEST(BitIdentityTest, ModelFingerprintsMatchThePerExampleLayout) {
  auto data = ToExamples(GoldenRows(), 16);
  EXPECT_EQ(data->Fingerprint(), 0x0680a4f6216ba689ULL);
  EXPECT_EQ(data->SizeBytes(), 29158);
  auto fp = [](const Result<std::shared_ptr<dataflow::ModelData>>& m) {
    EXPECT_TRUE(m.ok()) << m.status().ToString();
    return m.ok() ? m.value()->Fingerprint() : 0;
  };
  LogisticRegressionOptions lr;
  EXPECT_EQ(fp(TrainLogisticRegression(*data, lr)), 0xdb1dfd628ce98a4eULL);
  lr.reg_param = 0.0;
  EXPECT_EQ(fp(TrainLogisticRegression(*data, lr)), 0xb008cb7aaac9a565ULL);
  lr.reg_param = 50.0;
  lr.epochs = 5;
  lr.seed = 9;
  EXPECT_EQ(fp(TrainLogisticRegression(*data, lr)), 0xab212873b9d7790dULL);
  PerceptronOptions perceptron;
  EXPECT_EQ(fp(TrainAveragedPerceptron(*data, perceptron)),
            0x5ddd15059d2fbe83ULL);
  perceptron.margin = 0.5;
  perceptron.epochs = 4;
  EXPECT_EQ(fp(TrainAveragedPerceptron(*data, perceptron)),
            0xf8ab91c000501720ULL);
  EXPECT_EQ(fp(TrainNaiveBayes(*data, {})), 0x62fef6762b663816ULL);
}

// The per-example trainers as they were before the CSR layout: each row
// its own sorted pair vector, scored and updated through the old
// SparseVector Dot/AddTo (AddTo grows the dense vector for indices past
// the dictionary). Kept verbatim, hyperparameter checks aside.
namespace per_example {

double Dot(const PlainRow& e, const std::vector<double>& dense) {
  double sum = 0.0;
  for (const auto& [idx, val] : e.features) {
    if (static_cast<size_t>(idx) < dense.size()) {
      sum += dense[static_cast<size_t>(idx)] * val;
    }
  }
  return sum;
}

void AddTo(const PlainRow& e, std::vector<double>* dense, double scale) {
  if (e.features.empty()) {
    return;
  }
  size_t needed = static_cast<size_t>(e.features.back().first) + 1;
  if (dense->size() < needed) {
    dense->resize(needed, 0.0);
  }
  for (const auto& [idx, val] : e.features) {
    (*dense)[static_cast<size_t>(idx)] += scale * val;
  }
}

double Sigmoid(double z) {
  if (z >= 0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

std::shared_ptr<dataflow::ModelData> TrainLogisticRegression(
    const std::vector<PlainRow>& data, int num_features,
    const LogisticRegressionOptions& opts) {
  std::vector<size_t> train_idx;
  for (size_t i = 0; i < data.size(); ++i) {
    if (!data[i].is_test) {
      train_idx.push_back(i);
    }
  }
  if (train_idx.empty()) {
    return nullptr;
  }
  std::vector<double> weights(static_cast<size_t>(num_features), 0.0);
  double bias = 0.0;
  Rng rng(opts.seed);
  double final_loss = 0.0;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.Shuffle(&train_idx);
    double lr = opts.learning_rate / (1.0 + opts.lr_decay * epoch);
    double loss = 0.0;
    double shrink =
        1.0 - lr * opts.reg_param / static_cast<double>(train_idx.size());
    if (shrink < 0.0) {
      shrink = 0.0;
    }
    for (size_t i : train_idx) {
      const PlainRow& e = data[i];
      double p = Sigmoid(Dot(e, weights) + bias);
      double err = p - e.label;
      if (shrink != 1.0) {
        for (double& w : weights) {
          w *= shrink;
        }
      }
      AddTo(e, &weights, -lr * err);
      bias -= lr * err;
      double clamped = std::min(std::max(p, 1e-12), 1.0 - 1e-12);
      loss += e.label > 0.5 ? -std::log(clamped) : -std::log(1.0 - clamped);
    }
    final_loss = loss / static_cast<double>(train_idx.size());
  }
  weights.resize(static_cast<size_t>(num_features), 0.0);
  auto model = std::make_shared<dataflow::ModelData>(
      "logistic_regression", std::move(weights), bias);
  model->SetInfo("train_loss", final_loss);
  model->SetInfo("epochs", opts.epochs);
  model->SetInfo("reg_param", opts.reg_param);
  model->SetInfo("num_train", static_cast<double>(train_idx.size()));
  return model;
}

std::shared_ptr<dataflow::ModelData> TrainAveragedPerceptron(
    const std::vector<PlainRow>& data, int num_features,
    const PerceptronOptions& opts) {
  std::vector<size_t> train_idx;
  for (size_t i = 0; i < data.size(); ++i) {
    if (!data[i].is_test) {
      train_idx.push_back(i);
    }
  }
  if (train_idx.empty()) {
    return nullptr;
  }
  const size_t dim = static_cast<size_t>(num_features);
  std::vector<double> weights(dim, 0.0);
  std::vector<double> acc(dim, 0.0);
  double bias = 0.0;
  double bias_acc = 0.0;
  double step = 1.0;
  int64_t mistakes = 0;
  Rng rng(opts.seed);
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    rng.Shuffle(&train_idx);
    for (size_t i : train_idx) {
      const PlainRow& e = data[i];
      double y = e.label > 0.5 ? 1.0 : -1.0;
      double score = Dot(e, weights) + bias;
      if (y * score <= opts.margin) {
        AddTo(e, &weights, y);
        bias += y;
        AddTo(e, &acc, y * step);
        bias_acc += y * step;
        ++mistakes;
        if (weights.size() > dim) {
          weights.resize(dim);
        }
        if (acc.size() > dim) {
          acc.resize(dim);
        }
      }
      step += 1.0;
    }
  }
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

std::shared_ptr<dataflow::ModelData> TrainNaiveBayes(
    const std::vector<PlainRow>& data, int num_features,
    const NaiveBayesOptions& opts) {
  const size_t dim = static_cast<size_t>(num_features);
  std::vector<double> count_pos(dim, 0.0);
  std::vector<double> count_neg(dim, 0.0);
  double n_pos = 0;
  double n_neg = 0;
  for (const PlainRow& e : data) {
    if (e.is_test) {
      continue;
    }
    bool positive = e.label > 0.5;
    (positive ? n_pos : n_neg) += 1.0;
    std::vector<double>& counts = positive ? count_pos : count_neg;
    for (const auto& [idx, val] : e.features) {
      if (val != 0.0 && static_cast<size_t>(idx) < dim) {
        counts[static_cast<size_t>(idx)] += 1.0;
      }
    }
  }
  if (n_pos == 0 || n_neg == 0) {
    return nullptr;
  }
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

}  // namespace per_example

// Random rows with the layout's edge cases: empty rows, indices up to 6
// past the dictionary (including an empty dictionary), negative, zero and
// -0.0 values, and the split mode picked by the seed: mixed, all-train or
// all-test.
std::vector<PlainRow> DifferentialRows(uint64_t seed, int num_features) {
  Rng rng(seed);
  int n = static_cast<int>(rng.NextInt(1, 80));
  int split_mode = static_cast<int>(seed % 4);  // 0,3 mixed; 1 train; 2 test
  int max_index = num_features + 6;
  std::vector<PlainRow> rows;
  for (int i = 0; i < n; ++i) {
    PlainRow r;
    if (!rng.NextBool(0.15)) {
      for (int32_t j = 0; j < max_index; ++j) {
        if (!rng.NextBool(0.25)) {
          continue;
        }
        const double choices[] = {1.0, -1.0, 0.0, -0.0, 2.5, -3.75};
        double v = rng.NextBool(0.3) ? rng.NextGaussian()
                                     : choices[rng.NextBelow(6)];
        r.features.emplace_back(j, v);
      }
    }
    r.label = rng.NextBool(0.5) ? 1.0 : 0.0;
    r.id = i;
    r.is_test = split_mode == 1   ? false
                : split_mode == 2 ? true
                                  : rng.NextBool(0.25);
    rows.push_back(r);
  }
  return rows;
}

void ExpectSameModel(const std::shared_ptr<dataflow::ModelData>& want,
                     const Result<std::shared_ptr<dataflow::ModelData>>& got,
                     const std::string& what) {
  if (want == nullptr) {
    EXPECT_FALSE(got.ok()) << what;
    return;
  }
  ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  EXPECT_EQ(got.value()->Fingerprint(), want->Fingerprint()) << what;
}

// Hand-built inputs for the edges of logistic regression's row
// lookahead: one to three training rows (no more than the lookahead
// distance), empty rows, a set with no stored entries at all (null
// index/value arrays), and the longest row last in the CSR, past the
// dictionary.
std::vector<std::pair<std::string, std::vector<PlainRow>>> LookaheadEdgeRows(
    int num_features) {
  auto row = [](std::vector<std::pair<int32_t, double>> features,
                double label, int64_t id, bool is_test) {
    return PlainRow{std::move(features), label, id, is_test};
  };
  std::vector<std::pair<std::string, std::vector<PlainRow>>> cases;
  cases.push_back({"one row", {row({{0, 1.0}, {2, -0.5}}, 1.0, 0, false)}});
  cases.push_back({"two rows",
                   {row({{1, 2.5}}, 0.0, 0, false),
                    row({{0, -1.0}, {3, 1.0}}, 1.0, 1, false)}});
  // Three training rows among test rows: the lookahead walks the
  // training order, not the CSR.
  cases.push_back({"three of five rows",
                   {row({{0, 1.0}}, 1.0, 0, true),
                    row({{1, -0.0}, {2, 3.75}}, 0.0, 1, false),
                    row({}, 1.0, 2, false),
                    row({{0, 2.0}, {5, -1.0}}, 1.0, 3, true),
                    row({{2, 1.0}, {3, -2.5}}, 0.0, 4, false)}});
  cases.push_back({"all rows empty",
                   {row({}, 1.0, 0, false), row({}, 0.0, 1, false),
                    row({}, 1.0, 2, true), row({}, 0.0, 3, false)}});
  cases.push_back({"one empty row", {row({}, 1.0, 0, false)}});
  std::vector<PlainRow> sparse;
  for (int i = 0; i < 9; ++i) {
    std::vector<std::pair<int32_t, double>> f;
    if (i % 3 == 1) {
      f = {{i % 4, i % 2 == 0 ? 1.0 : -1.5}};
    }
    sparse.push_back(row(std::move(f), i % 2 == 0 ? 1.0 : 0.0, i, false));
  }
  cases.push_back({"mostly empty rows, empty last", sparse});
  std::vector<PlainRow> longest_last;
  for (int i = 0; i < 6; ++i) {
    longest_last.push_back(
        row({{i % 3, 1.0}}, i % 2 == 0 ? 1.0 : 0.0, i, i == 2));
  }
  std::vector<std::pair<int32_t, double>> longest;
  for (int32_t j = 0; j < num_features + 6; ++j) {
    longest.emplace_back(j, j % 2 == 0 ? 0.5 : -2.0);
  }
  longest_last.push_back(row(std::move(longest), 1.0, 6, false));
  cases.push_back({"longest row last", longest_last});
  return cases;
}

TEST(BitIdentityTest, CsrTrainersMatchPerExampleTrainersAcrossSeeds) {
  auto check = [](const std::vector<PlainRow>& rows, int num_features,
                  int epochs, uint64_t seed, const std::string& tag) {
    auto data = ToExamples(rows, num_features);
    LogisticRegressionOptions lr;
    lr.epochs = epochs;
    lr.seed = seed;
    for (double reg : {0.0, 0.1, 25.0}) {
      lr.reg_param = reg;
      ExpectSameModel(
          per_example::TrainLogisticRegression(rows, num_features, lr),
          TrainLogisticRegression(*data, lr),
          tag + " lr reg " + std::to_string(reg));
    }
    PerceptronOptions perceptron;
    perceptron.epochs = epochs;
    perceptron.seed = seed;
    for (double margin : {0.0, 0.75, -0.5}) {
      perceptron.margin = margin;
      ExpectSameModel(
          per_example::TrainAveragedPerceptron(rows, num_features,
                                               perceptron),
          TrainAveragedPerceptron(*data, perceptron),
          tag + " perceptron margin " + std::to_string(margin));
    }
    NaiveBayesOptions nb;
    nb.smoothing = 0.5;
    ExpectSameModel(per_example::TrainNaiveBayes(rows, num_features, nb),
                    TrainNaiveBayes(*data, nb), tag + " nb");
  };
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed * 7919);
    int num_features = static_cast<int>(rng.NextInt(0, 24));
    std::vector<PlainRow> rows = DifferentialRows(seed, num_features);
    int epochs = static_cast<int>(rng.NextInt(1, 6));
    check(rows, num_features, epochs, seed, "seed " + std::to_string(seed));
  }
  for (int num_features : {0, 4}) {
    for (const auto& [name, rows] : LookaheadEdgeRows(num_features)) {
      for (uint64_t seed : {1, 2, 3}) {
        check(rows, num_features, 3, seed,
              name + " features " + std::to_string(num_features) +
                  " seed " + std::to_string(seed));
      }
    }
  }
}

// With finite values, a weight the per-example trainer had not grown yet
// and a grown zero weight are indistinguishable (w * x is +-0). An
// infinite value tells them apart: index 5 lies past the 2-name
// dictionary and appears once, as +inf, in a row visited once. The
// per-example trainer skipped it when scoring that row (the weights did
// not reach it yet), and only the row's own update grew them, so the
// model stays finite. Scoring 0 * inf there instead would give NaN.
TEST(BitIdentityTest, WeightsGrowOnlyWhenAnUpdateReachesThem) {
  std::vector<PlainRow> rows;
  for (int i = 0; i < 12; ++i) {
    rows.push_back({{{0, i % 2 == 1 ? 1.0 : -1.0}, {1, 0.5}},
                    i % 2 == 1 ? 1.0 : 0.0,
                    i,
                    false});
  }
  rows.push_back(
      {{{0, 1.0}, {5, std::numeric_limits<double>::infinity()}}, 1.0, 12,
       false});
  auto data = ToExamples(rows, 2);
  LogisticRegressionOptions opts;
  opts.epochs = 1;
  auto model = TrainLogisticRegression(*data, opts);
  ExpectSameModel(per_example::TrainLogisticRegression(rows, 2, opts), model,
                  "lr");
  ASSERT_TRUE(model.ok());
  for (double w : model.value()->weights()) {
    EXPECT_TRUE(std::isfinite(w));
  }
  EXPECT_TRUE(std::isfinite(model.value()->bias()));
}

// --- Binary metrics -------------------------------------------------------------------

TEST(MetricsTest, PerfectClassifier) {
  std::vector<ScoredLabel> rows = {{1, 0.9}, {0, 0.1}, {1, 0.8}, {0, 0.2}};
  BinaryMetricsOptions opts;
  opts.auc = true;
  auto m = ComputeBinaryMetrics(rows, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m.value().at("accuracy"), 1.0);
  EXPECT_DOUBLE_EQ(m.value().at("precision"), 1.0);
  EXPECT_DOUBLE_EQ(m.value().at("recall"), 1.0);
  EXPECT_DOUBLE_EQ(m.value().at("f1"), 1.0);
  EXPECT_DOUBLE_EQ(m.value().at("auc"), 1.0);
}

TEST(MetricsTest, KnownConfusionCounts) {
  // preds at 0.5: TP=1 (0.7), FP=1 (0.6), TN=1 (0.3), FN=1 (0.4).
  std::vector<ScoredLabel> rows = {{1, 0.7}, {0, 0.6}, {0, 0.3}, {1, 0.4}};
  BinaryMetricsOptions opts;
  opts.confusion_counts = true;
  auto m = ComputeBinaryMetrics(rows, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m.value().at("tp"), 1);
  EXPECT_DOUBLE_EQ(m.value().at("fp"), 1);
  EXPECT_DOUBLE_EQ(m.value().at("tn"), 1);
  EXPECT_DOUBLE_EQ(m.value().at("fn"), 1);
  EXPECT_DOUBLE_EQ(m.value().at("accuracy"), 0.5);
  EXPECT_DOUBLE_EQ(m.value().at("precision"), 0.5);
  EXPECT_DOUBLE_EQ(m.value().at("recall"), 0.5);
}

TEST(MetricsTest, ThresholdMatters) {
  std::vector<ScoredLabel> rows = {{1, 0.55}, {0, 0.45}};
  BinaryMetricsOptions opts;
  opts.threshold = 0.6;
  auto m = ComputeBinaryMetrics(rows, opts);
  ASSERT_TRUE(m.ok());
  // The positive (0.55) now falls below the threshold.
  EXPECT_DOUBLE_EQ(m.value().at("recall"), 0.0);
  EXPECT_DOUBLE_EQ(m.value().at("accuracy"), 0.5);
}

TEST(MetricsTest, AucHandlesTiesByMidrank) {
  // All scores equal: AUC should be exactly 0.5.
  std::vector<ScoredLabel> rows = {{1, 0.5}, {0, 0.5}, {1, 0.5}, {0, 0.5}};
  BinaryMetricsOptions opts;
  opts.auc = true;
  auto m = ComputeBinaryMetrics(rows, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m.value().at("auc"), 0.5);
}

TEST(MetricsTest, LogLossMatchesHandComputation) {
  std::vector<ScoredLabel> rows = {{1, 0.8}, {0, 0.2}};
  BinaryMetricsOptions opts;
  opts.log_loss = true;
  auto m = ComputeBinaryMetrics(rows, opts);
  ASSERT_TRUE(m.ok());
  EXPECT_NEAR(m.value().at("log_loss"), -std::log(0.8), 1e-12);
}

TEST(MetricsTest, EmptyInputRejected) {
  EXPECT_FALSE(ComputeBinaryMetrics({}, {}).ok());
}

TEST(MetricsTest, DegeneratePrecisionRecallAreZero) {
  // No predicted positives and no actual positives.
  std::vector<ScoredLabel> rows = {{0, 0.1}, {0, 0.2}};
  auto m = ComputeBinaryMetrics(rows, {});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m.value().at("precision"), 0.0);
  EXPECT_DOUBLE_EQ(m.value().at("recall"), 0.0);
  EXPECT_DOUBLE_EQ(m.value().at("f1"), 0.0);
}

// --- Span metrics -------------------------------------------------------------------------

TEST(SpanMetricsTest, ExactMatchCounting) {
  std::vector<dataflow::Span> gold = {{0, 5, "PERSON"}, {10, 15, "PERSON"}};
  std::vector<dataflow::Span> pred = {{0, 5, "PERSON"}, {20, 25, "PERSON"}};
  auto m = ComputeSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_tp"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_fp"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_fn"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_precision"), 0.5);
  EXPECT_DOUBLE_EQ(m.at("span_recall"), 0.5);
  EXPECT_DOUBLE_EQ(m.at("span_f1"), 0.5);
}

TEST(SpanMetricsTest, LabelMustMatch) {
  std::vector<dataflow::Span> gold = {{0, 5, "PERSON"}};
  std::vector<dataflow::Span> pred = {{0, 5, "ORG"}};
  auto m = ComputeSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_tp"), 0);
}

TEST(SpanMetricsTest, PartialOverlapDoesNotCount) {
  std::vector<dataflow::Span> gold = {{0, 5, "PERSON"}};
  std::vector<dataflow::Span> pred = {{0, 4, "PERSON"}};
  auto m = ComputeSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_tp"), 0);
  EXPECT_DOUBLE_EQ(m.at("span_fp"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_fn"), 1);
}

TEST(SpanMetricsTest, DuplicateGoldMatchedOncePerPrediction) {
  std::vector<dataflow::Span> gold = {{0, 5, "P"}, {0, 5, "P"}};
  std::vector<dataflow::Span> pred = {{0, 5, "P"}};
  auto m = ComputeSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_tp"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_fn"), 1);
}

TEST(SpanMetricsTest, CorpusAggregationMicroAverages) {
  std::vector<std::vector<dataflow::Span>> gold = {{{0, 3, "P"}},
                                                   {{5, 9, "P"}}};
  std::vector<std::vector<dataflow::Span>> pred = {{{0, 3, "P"}}, {}};
  auto m = ComputeCorpusSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_tp"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_fn"), 1);
  EXPECT_DOUBLE_EQ(m.at("span_recall"), 0.5);
}

TEST(SpanMetricsTest, MismatchedDocCountsCounted) {
  std::vector<std::vector<dataflow::Span>> gold = {{{0, 3, "P"}},
                                                   {{5, 9, "P"}}};
  std::vector<std::vector<dataflow::Span>> pred = {{{0, 3, "P"}}};
  auto m = ComputeCorpusSpanMetrics(gold, pred);
  EXPECT_DOUBLE_EQ(m.at("span_fn"), 1);  // the unmatched doc's gold span
}

}  // namespace
}  // namespace ml
}  // namespace helix
