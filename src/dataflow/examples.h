// ML-ready example matrix payload: sparse feature vectors + labels plus the
// feature dictionary mapping indices back to human-readable names.
//
// Rows are stored as CSR (compressed sparse row): one offsets array and
// contiguous index/value arrays, with labels, ids and the split flag as
// parallel arrays. Learners walk the raw arrays; everything else reads a
// row through a borrowed SparseRow view. Fingerprint and SizeBytes are
// defined per row exactly as they were for the one-heap-vector-per-row
// representation, so fingerprints and planner inputs do not depend on
// the layout. Serialize writes the arrays as blocks (envelope v3).
#ifndef HELIX_DATAFLOW_EXAMPLES_H_
#define HELIX_DATAFLOW_EXAMPLES_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataflow/features.h"
#include "dataflow/payload.h"

namespace helix {
namespace dataflow {

/// A dataset of supervised examples sharing one feature dictionary.
///
/// A single ExamplesData node holds both splits (the paper's `income`
/// node); `is_test` selects evaluation rows so learner and evaluator can
/// share one upstream intermediate.
class ExamplesData final : public DataPayload {
 public:
  ExamplesData() : ExamplesData(std::make_shared<FeatureDict>()) {}
  explicit ExamplesData(std::shared_ptr<FeatureDict> dict)
      : dict_(std::move(dict)), offsets_{0} {}

  const FeatureDict& dict() const { return *dict_; }
  const std::shared_ptr<FeatureDict>& shared_dict() const { return dict_; }
  FeatureDict* mutable_dict() { return dict_.get(); }

  int64_t num_examples() const { return static_cast<int64_t>(labels_.size()); }
  /// Stored (index, value) entries over all rows.
  int64_t num_nonzeros() const { return static_cast<int64_t>(indices_.size()); }

  /// Row i's features, borrowed from the CSR arrays.
  SparseRow features(int64_t i) const {
    size_t b = static_cast<size_t>(offsets_[static_cast<size_t>(i)]);
    size_t e = static_cast<size_t>(offsets_[static_cast<size_t>(i) + 1]);
    return SparseRow(indices_.data() + b, values_.data() + b,
                     static_cast<int32_t>(e - b));
  }
  /// Binary tasks use {0, 1}.
  double label(int64_t i) const { return labels_[static_cast<size_t>(i)]; }
  /// Stable row identity (e.g. source row index) for joining predictions
  /// back to inputs.
  int64_t id(int64_t i) const { return ids_[static_cast<size_t>(i)]; }
  /// True for held-out evaluation rows.
  bool is_test(int64_t i) const {
    return is_test_[static_cast<size_t>(i)] != 0;
  }

  /// Raw CSR arrays for learner inner loops: row i's entries are
  /// [offsets()[i], offsets()[i + 1]) of indices() / values().
  const int64_t* offsets() const { return offsets_.data(); }
  const int32_t* indices() const { return indices_.data(); }
  const double* values() const { return values_.data(); }
  const double* labels() const { return labels_.data(); }

  /// Appends one row; `features` is copied into the CSR arrays.
  void AddRow(const SparseRow& features, double label, int64_t id,
              bool is_test);
  void Reserve(int64_t rows, int64_t nonzeros);

  /// Number of distinct feature dimensions (dictionary size).
  int32_t num_features() const { return dict_->size(); }

  PayloadKind kind() const override { return PayloadKind::kExamples; }
  int64_t SizeBytes() const override;
  uint64_t Fingerprint() const override;
  void Serialize(ByteWriter* w) const override;
  /// Same bytes as Serialize; the CSR blocks are borrowed, not copied.
  void SerializeToSpans(SpanWriter* s) const override;
  std::string DebugString() const override;

  /// Parses a Serialize body (one block per array). Corruption on
  /// malformed bytes or broken CSR invariants.
  static Result<std::shared_ptr<ExamplesData>> Deserialize(ByteReader* r);

 private:
  Status DeserializeBlocks(ByteReader* r);

  /// Closes the row whose entries were appended since the last row.
  void EndRow(double label, int64_t id, bool is_test);

  std::shared_ptr<FeatureDict> dict_;
  std::vector<int64_t> offsets_;  // num_examples() + 1 entries
  std::vector<int32_t> indices_;
  std::vector<double> values_;
  std::vector<double> labels_;
  std::vector<int64_t> ids_;
  std::vector<uint8_t> is_test_;
};

}  // namespace dataflow
}  // namespace helix

#endif  // HELIX_DATAFLOW_EXAMPLES_H_
