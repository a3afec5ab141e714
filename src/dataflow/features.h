// Sparse feature representation.
//
// HELIX maintains features in human-readable form during pre-processing and
// converts them automatically into an ML-compatible format (paper Section
// 2.1). FeatureDict is the bridge: it interns human-readable feature names
// ("edu=Bachelors x occ=Sales") into dense indices used by SparseVector.
#ifndef HELIX_DATAFLOW_FEATURES_H_
#define HELIX_DATAFLOW_FEATURES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"

namespace helix {
namespace dataflow {

/// Bidirectional feature-name <-> index dictionary.
class FeatureDict {
 public:
  FeatureDict() = default;

  /// Returns the index for `name`, interning it if new.
  int32_t Intern(const std::string& name);

  /// Index of `name` or -1 if never interned.
  int32_t Lookup(const std::string& name) const;

  /// Name of feature `index`; requires a valid index.
  const std::string& NameOf(int32_t index) const {
    return names_[static_cast<size_t>(index)];
  }

  int32_t size() const { return static_cast<int32_t>(names_.size()); }

  uint64_t Fingerprint() const;
  int64_t SizeBytes() const;

  void Serialize(ByteWriter* w) const;
  static Result<FeatureDict> Deserialize(ByteReader* r);

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, int32_t> index_;
};

/// Borrowed, non-owning view of one sparse row: `num_entries()`
/// (feature index, value) pairs with strictly increasing, non-negative
/// indices. Valid only while the owner (an ExamplesData's CSR arrays or
/// a SparseVector) is alive and unmodified.
class SparseRow {
 public:
  SparseRow() = default;
  SparseRow(const int32_t* indices, const double* values, int32_t size)
      : indices_(indices), values_(values), size_(size) {}

  int32_t num_entries() const { return size_; }
  const int32_t* indices() const { return indices_; }
  const double* values() const { return values_; }
  int32_t index(int32_t k) const { return indices_[k]; }
  double value(int32_t k) const { return values_[k]; }

  /// Largest feature index present, or -1 if empty.
  int32_t MaxIndex() const { return size_ == 0 ? -1 : indices_[size_ - 1]; }

  /// Value of feature `index`, 0 if absent.
  double Get(int32_t index) const;

  /// Dot product with a dense weight vector; indices beyond the vector's
  /// size contribute 0.
  double Dot(const std::vector<double>& dense) const;

  uint64_t Fingerprint() const;

 private:
  const int32_t* indices_ = nullptr;
  const double* values_ = nullptr;
  int32_t size_ = 0;
};

/// Owning builder for one sparse row, kept sorted by index. Featurizers
/// fill one (reusing it across rows via Clear) and append its view() to
/// an ExamplesData.
class SparseVector {
 public:
  SparseVector() = default;

  /// Sets feature `index` (>= 0) to `value` (overwrites existing;
  /// dropping a feature is Set(i, 0) — zeros are kept explicit for
  /// determinism).
  void Set(int32_t index, double value);

  /// Adds `delta` to feature `index` (inserting if absent).
  void Add(int32_t index, double delta);

  void Clear() {
    indices_.clear();
    values_.clear();
  }

  double Get(int32_t index) const { return view().Get(index); }
  int32_t num_entries() const { return static_cast<int32_t>(indices_.size()); }
  int32_t MaxIndex() const { return view().MaxIndex(); }

  SparseRow view() const {
    return SparseRow(indices_.data(), values_.data(), num_entries());
  }

 private:
  /// Position of `index` in indices_, or where it would be inserted.
  size_t LowerBound(int32_t index) const;

  std::vector<int32_t> indices_;
  std::vector<double> values_;
};

}  // namespace dataflow
}  // namespace helix

#endif  // HELIX_DATAFLOW_FEATURES_H_
