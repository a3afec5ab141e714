#include "dataflow/examples.h"

#include "common/hash.h"
#include "common/strings.h"

namespace helix {
namespace dataflow {

namespace {
// Block form: per row an i64 offset, a double label, an i64 id and a u8
// split flag; per entry an i32 index and a double value.
constexpr size_t kBlockRowBytes = 8 + 8 + 8 + 1;
constexpr size_t kBlockEntryBytes = 4 + 8;
}  // namespace

void ExamplesData::AddRow(const SparseRow& features, double label,
                          int64_t id, bool is_test) {
  indices_.insert(indices_.end(), features.indices(),
                  features.indices() + features.num_entries());
  values_.insert(values_.end(), features.values(),
                 features.values() + features.num_entries());
  EndRow(label, id, is_test);
}

void ExamplesData::EndRow(double label, int64_t id, bool is_test) {
  offsets_.push_back(static_cast<int64_t>(indices_.size()));
  labels_.push_back(label);
  ids_.push_back(id);
  is_test_.push_back(is_test ? 1 : 0);
}

void ExamplesData::Reserve(int64_t rows, int64_t nonzeros) {
  size_t r = static_cast<size_t>(rows);
  offsets_.reserve(r + 1);
  labels_.reserve(r);
  ids_.reserve(r);
  is_test_.reserve(r);
  indices_.reserve(static_cast<size_t>(nonzeros));
  values_.reserve(static_cast<size_t>(nonzeros));
}

int64_t ExamplesData::SizeBytes() const {
  // The per-row formula of the one-heap-vector-per-row layout (32 bytes
  // per example plus 16 per entry), kept so planner inputs and budgets
  // do not move with the in-memory layout.
  return 64 + dict_->SizeBytes() + 32 * num_examples() + 16 * num_nonzeros();
}

uint64_t ExamplesData::Fingerprint() const {
  Hasher h;
  h.AddU64(dict_->Fingerprint());
  h.AddU64(static_cast<uint64_t>(num_examples()));
  for (int64_t i = 0; i < num_examples(); ++i) {
    h.AddU64(features(i).Fingerprint())
        .AddDouble(label(i))
        .AddI64(id(i))
        .AddBool(is_test(i));
  }
  return h.Digest();
}

void ExamplesData::Serialize(ByteWriter* w) const {
  // One block per CSR array: n, offsets[n + 1], indices and values
  // [nnz], then labels, ids and split flags [n].
  size_t n = labels_.size();
  size_t nnz = indices_.size();
  dict_->Serialize(w);
  w->PutU64(n);
  w->PutU64Array(reinterpret_cast<const uint64_t*>(offsets_.data()), n + 1);
  w->PutU32Array(reinterpret_cast<const uint32_t*>(indices_.data()), nnz);
  w->PutU64Array(reinterpret_cast<const uint64_t*>(values_.data()), nnz);
  w->PutU64Array(reinterpret_cast<const uint64_t*>(labels_.data()), n);
  w->PutU64Array(reinterpret_cast<const uint64_t*>(ids_.data()), n);
  w->PutRaw(is_test_.data(), n);
}

void ExamplesData::SerializeToSpans(SpanWriter* s) const {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  // The blocks are the in-memory arrays byte for byte: borrow them.
  size_t n = labels_.size();
  size_t nnz = indices_.size();
  dict_->Serialize(s->writer());
  s->writer()->PutU64(n);
  s->Borrow(offsets_.data(), (n + 1) * sizeof(int64_t));
  s->Borrow(indices_.data(), nnz * sizeof(int32_t));
  s->Borrow(values_.data(), nnz * sizeof(double));
  s->Borrow(labels_.data(), n * sizeof(double));
  s->Borrow(ids_.data(), n * sizeof(int64_t));
  s->Borrow(is_test_.data(), n);
#else
  Serialize(s->writer());
#endif
}

std::string ExamplesData::DebugString() const {
  return StrFormat("examples(%lld rows, %d features)",
                   static_cast<long long>(num_examples()), num_features());
}

Result<std::shared_ptr<ExamplesData>> ExamplesData::Deserialize(
    ByteReader* r) {
  HELIX_ASSIGN_OR_RETURN(FeatureDict dict, FeatureDict::Deserialize(r));
  auto data =
      std::make_shared<ExamplesData>(std::make_shared<FeatureDict>(dict));
  HELIX_RETURN_IF_ERROR(data->DeserializeBlocks(r));
  return data;
}

Status ExamplesData::DeserializeBlocks(ByteReader* r) {
  // Every size is bounded by the bytes actually present before anything
  // is allocated, and the CSR invariants the learners index by are
  // checked before the arrays are trusted.
  HELIX_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (r->remaining() < sizeof(int64_t) ||
      n > (r->remaining() - sizeof(int64_t)) / kBlockRowBytes) {
    return Status::Corruption("example count exceeds payload");
  }
  offsets_.resize(n + 1);
  HELIX_RETURN_IF_ERROR(
      r->GetU64Array(reinterpret_cast<uint64_t*>(offsets_.data()), n + 1));
  if (offsets_[0] != 0) {
    return Status::Corruption("example offsets do not start at 0");
  }
  for (uint64_t i = 0; i < n; ++i) {
    if (offsets_[i + 1] < offsets_[i]) {
      return Status::Corruption("example offsets decrease");
    }
  }
  // After the offsets at least 17 bytes per row remain (the count check
  // above), so the subtraction cannot wrap.
  uint64_t nnz = static_cast<uint64_t>(offsets_[n]);
  if (nnz > (r->remaining() - n * (kBlockRowBytes - 8)) / kBlockEntryBytes) {
    return Status::Corruption("example entry count exceeds payload");
  }
  indices_.resize(nnz);
  HELIX_RETURN_IF_ERROR(
      r->GetU32Array(reinterpret_cast<uint32_t*>(indices_.data()), nnz));
  for (uint64_t i = 0; i < n; ++i) {
    int64_t b = offsets_[i];
    int64_t e = offsets_[i + 1];
    if (b < e && indices_[static_cast<size_t>(b)] < 0) {
      return Status::Corruption("negative sparse vector index");
    }
    for (int64_t k = b + 1; k < e; ++k) {
      if (indices_[static_cast<size_t>(k)] <=
          indices_[static_cast<size_t>(k - 1)]) {
        return Status::Corruption("sparse vector indices not increasing");
      }
    }
  }
  values_.resize(nnz);
  HELIX_RETURN_IF_ERROR(
      r->GetU64Array(reinterpret_cast<uint64_t*>(values_.data()), nnz));
  labels_.resize(n);
  HELIX_RETURN_IF_ERROR(
      r->GetU64Array(reinterpret_cast<uint64_t*>(labels_.data()), n));
  ids_.resize(n);
  HELIX_RETURN_IF_ERROR(
      r->GetU64Array(reinterpret_cast<uint64_t*>(ids_.data()), n));
  HELIX_ASSIGN_OR_RETURN(std::string_view flags, r->GetRawView(n));
  is_test_.assign(flags.begin(), flags.end());
  for (uint8_t flag : is_test_) {
    if (flag > 1) {
      return Status::Corruption("example split flag out of range");
    }
  }
  return Status::OK();
}

}  // namespace dataflow
}  // namespace helix
