// The standard operator library: C++ constructors for the operators the
// HELIX DSL exposes (paper Figure 1a) plus the IE-specific operators of
// the information-extraction application (paper Section 3) and a synthetic
// operator for optimizer tests/benchmarks.
//
// Each factory returns a fully configured core::Operator whose params
// string canonically encodes the configuration, so any configuration edit
// changes the operator signature and is picked up by the change tracker.
#ifndef HELIX_CORE_STD_OPS_H_
#define HELIX_CORE_STD_OPS_H_

#include <string>
#include <vector>

#include "core/operator.h"
#include "ml/evaluation.h"
#include "nlp/mention_decoder.h"
#include "nlp/token_features.h"

namespace helix {
namespace core {
namespace ops {

/// Name of the split marker column threaded through pre-processing tables
/// ("train" / "test").
extern const char kSplitColumn[];

// ---------------------------------------------------------------------------
// Census-style tabular operators (paper Figure 1a)
// ---------------------------------------------------------------------------

/// `data refers_to new FileSource(train=..., test=...)`: reads both files
/// and produces a table (__split, content) with one row per file, holding
/// the whole file as one string.
Operator FileSource(const std::string& name, const std::string& train_path,
                    const std::string& test_path);

/// `data is_read_into rows using CSVScanner(columns)`: splits each
/// `content` blob into lines and parses every non-blank line (one that is
/// not empty after trimming whitespace, "\r" included) as CSV into
/// (__split, columns...), tagging it with its file's split value.
Operator CsvScanner(const std::string& name,
                    const std::vector<std::string>& columns);

/// `age refers_to FieldExtractor("age")`: projects (__split, field).
Operator FieldExtractor(const std::string& name, const std::string& field);

/// `ageBucket refers_to Bucketizer(age, bins=10)`: equal-width bins over
/// the numeric values of its single input feature column; output column is
/// named after the operator.
Operator Bucketizer(const std::string& name, int bins);

/// `eduXocc refers_to InteractionFeature(Array(edu, occ))`: cross-product
/// feature, values joined with '&'.
Operator InteractionFeature(const std::string& name);

/// `income results_from rows with_labels target`: assembles ML examples
/// from N feature tables plus (last input) the label table. Columns whose
/// non-empty values all parse as numbers become standardized numeric
/// features; everything else is one-hot encoded "col=value". Labels equal
/// to `positive_label` map to 1.
Operator AssembleExamples(const std::string& name,
                          const std::string& positive_label);

/// Hyperparameters for the Learner operator.
struct LearnerConfig {
  std::string model_type = "lr";  // "lr" | "nb" | "perceptron"
  double reg_param = 0.1;
  double learning_rate = 0.1;
  int epochs = 20;
  uint64_t seed = 42;

  std::string Canonical() const;
};

/// `incPred refers_to new Learner(modelType, regParam=0.1)`.
Operator Learner(const std::string& name, const LearnerConfig& config);

/// `predictions results_from incPred on income`: inputs (model, examples),
/// output table (id, split, gold, prob) over all examples.
Operator Predictor(const std::string& name);

/// Evaluation operator over a predictions table (test rows only) — the
/// paper's `checkResults` Reducer. Metric families are toggleable (green
/// iterations).
Operator Evaluator(const std::string& name,
                   const ml::BinaryMetricsOptions& options);

/// Fully generic UDF operator (the DSL's inline-Scala escape hatch).
/// `udf_version` participates in the signature: bump it when the UDF body
/// changes (source-diff change detection).
Operator Reducer(const std::string& name, Phase phase, int udf_version,
                 OperatorFn fn);

// ---------------------------------------------------------------------------
// Information-extraction operators (paper Section 3, application 2)
// ---------------------------------------------------------------------------

/// Reads a serialized TextData corpus (DataCollection envelope file).
Operator CorpusSource(const std::string& name, const std::string& path);

/// Tokenizes every document: output table (doc, tok, text, begin, end,
/// gold) where gold is 1 for tokens inside a gold PERSON span.
Operator SentenceTokenizer(const std::string& name);

/// Extracts per-token features: input token table, output ExamplesData.
/// Documents with index >= train_frac * num_docs become test examples.
Operator TokenFeaturizer(const std::string& name,
                         const nlp::TokenFeatureOptions& options,
                         double train_frac);

/// Decodes token predictions into mention spans: inputs (token table,
/// predictions table), output TextData of predicted spans per document.
Operator MentionDecoder(const std::string& name,
                        const nlp::MentionDecoderOptions& options);

/// Span-level P/R/F1: inputs (gold corpus, decoded mentions); evaluates
/// test documents only (same train_frac convention as TokenFeaturizer).
Operator SpanEvaluator(const std::string& name, double train_frac);

// ---------------------------------------------------------------------------
// Synthetic operator (tests & optimizer benchmarks)
// ---------------------------------------------------------------------------

/// Produces a small deterministic table derived from `tag` and its inputs'
/// fingerprints; declared costs drive virtual-clock simulations.
/// `payload_bytes` pads the output to approximately that serialized size,
/// so storage budgets bind realistically in simulations.
Operator Synthetic(const std::string& name, Phase phase, int64_t tag,
                   SyntheticCosts costs, int64_t payload_bytes = 0);

}  // namespace ops
}  // namespace core
}  // namespace helix

#endif  // HELIX_CORE_STD_OPS_H_
