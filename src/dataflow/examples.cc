#include "dataflow/examples.h"

#include "common/hash.h"
#include "common/strings.h"

namespace helix {
namespace dataflow {

namespace {
// Wire form of one example: u64 entry count, then per entry an i64 index
// and a double value, then the double label, i64 id and bool split flag.
constexpr size_t kMinExampleBytes = 8 + 8 + 8 + 1;
constexpr size_t kEntryBytes = 8 + 8;
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
  dict_->Serialize(w);
  w->PutU64(static_cast<uint64_t>(num_examples()));
  for (int64_t i = 0; i < num_examples(); ++i) {
    SparseRow row = features(i);
    w->PutU64(static_cast<uint64_t>(row.num_entries()));
    for (int32_t k = 0; k < row.num_entries(); ++k) {
      w->PutI64(row.index(k));
      w->PutDouble(row.value(k));
    }
    w->PutDouble(label(i));
    w->PutI64(id(i));
    w->PutBool(is_test(i));
  }
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
  HELIX_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  // A count the remaining bytes cannot hold is corrupt; rejecting it here
  // bounds every reservation below by the buffer actually present.
  if (n > r->remaining() / kMinExampleBytes) {
    return Status::Corruption("example count exceeds payload");
  }
  data->Reserve(static_cast<int64_t>(n),
                static_cast<int64_t>((r->remaining() - n * kMinExampleBytes) /
                                     kEntryBytes));
  for (uint64_t i = 0; i < n; ++i) {
    HELIX_ASSIGN_OR_RETURN(uint64_t entries, r->GetU64());
    if (entries > (1ULL << 30) || entries > r->remaining() / kEntryBytes) {
      return Status::Corruption("implausible sparse vector size");
    }
    int64_t prev = -1;
    for (uint64_t k = 0; k < entries; ++k) {
      HELIX_ASSIGN_OR_RETURN(int64_t idx, r->GetI64());
      HELIX_ASSIGN_OR_RETURN(double val, r->GetDouble());
      if (idx <= prev || idx > INT32_MAX) {
        return Status::Corruption("sparse vector indices not increasing");
      }
      prev = idx;
      data->indices_.push_back(static_cast<int32_t>(idx));
      data->values_.push_back(val);
    }
    HELIX_ASSIGN_OR_RETURN(double label, r->GetDouble());
    HELIX_ASSIGN_OR_RETURN(int64_t id, r->GetI64());
    HELIX_ASSIGN_OR_RETURN(bool is_test, r->GetBool());
    data->EndRow(label, id, is_test);
  }
  return data;
}

}  // namespace dataflow
}  // namespace helix
