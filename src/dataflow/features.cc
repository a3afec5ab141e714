#include "dataflow/features.h"

#include <algorithm>

#include "common/hash.h"

namespace helix {
namespace dataflow {

int32_t FeatureDict::Intern(const std::string& name) {
  auto it = index_.find(name);
  if (it != index_.end()) {
    return it->second;
  }
  int32_t id = static_cast<int32_t>(names_.size());
  names_.push_back(name);
  index_.emplace(name, id);
  return id;
}

int32_t FeatureDict::Lookup(const std::string& name) const {
  auto it = index_.find(name);
  return it == index_.end() ? -1 : it->second;
}

uint64_t FeatureDict::Fingerprint() const {
  Hasher h;
  h.AddU64(names_.size());
  for (const std::string& n : names_) {
    h.Add(n);
  }
  return h.Digest();
}

int64_t FeatureDict::SizeBytes() const {
  int64_t bytes = 64;
  for (const std::string& n : names_) {
    bytes += 48 + static_cast<int64_t>(n.size());
  }
  return bytes;
}

void FeatureDict::Serialize(ByteWriter* w) const {
  w->PutU64(names_.size());
  for (const std::string& n : names_) {
    w->PutString(n);
  }
}

Result<FeatureDict> FeatureDict::Deserialize(ByteReader* r) {
  HELIX_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (n > (1ULL << 28)) {
    return Status::Corruption("implausible feature dict size");
  }
  FeatureDict dict;
  for (uint64_t i = 0; i < n; ++i) {
    HELIX_ASSIGN_OR_RETURN(std::string name, r->GetString());
    dict.Intern(name);
  }
  if (dict.size() != static_cast<int32_t>(n)) {
    return Status::Corruption("duplicate names in serialized feature dict");
  }
  return dict;
}

double SparseRow::Get(int32_t index) const {
  const int32_t* end = indices_ + size_;
  const int32_t* it = std::lower_bound(indices_, end, index);
  return it != end && *it == index ? values_[it - indices_] : 0.0;
}

double SparseRow::Dot(const std::vector<double>& dense) const {
  double sum = 0.0;
  for (int32_t k = 0; k < size_; ++k) {
    if (static_cast<size_t>(indices_[k]) < dense.size()) {
      sum += dense[static_cast<size_t>(indices_[k])] * values_[k];
    }
  }
  return sum;
}

uint64_t SparseRow::Fingerprint() const {
  Hasher h;
  h.AddU64(static_cast<uint64_t>(size_));
  for (int32_t k = 0; k < size_; ++k) {
    h.AddI64(indices_[k]).AddDouble(values_[k]);
  }
  return h.Digest();
}

size_t SparseVector::LowerBound(int32_t index) const {
  return static_cast<size_t>(
      std::lower_bound(indices_.begin(), indices_.end(), index) -
      indices_.begin());
}

void SparseVector::Set(int32_t index, double value) {
  size_t pos = LowerBound(index);
  if (pos < indices_.size() && indices_[pos] == index) {
    values_[pos] = value;
  } else {
    indices_.insert(indices_.begin() + static_cast<ptrdiff_t>(pos), index);
    values_.insert(values_.begin() + static_cast<ptrdiff_t>(pos), value);
  }
}

void SparseVector::Add(int32_t index, double delta) {
  size_t pos = LowerBound(index);
  if (pos < indices_.size() && indices_[pos] == index) {
    values_[pos] += delta;
  } else {
    indices_.insert(indices_.begin() + static_cast<ptrdiff_t>(pos), index);
    values_.insert(values_.begin() + static_cast<ptrdiff_t>(pos), delta);
  }
}

}  // namespace dataflow
}  // namespace helix
