#include "dataflow/column.h"

#include <algorithm>
#include <cassert>

#include "common/hash.h"
#include "common/strings.h"
#include "dataflow/simd.h"

namespace helix {
namespace dataflow {

namespace {

// Per-cell hashes, kept bit-identical to Value::Hash() so columnar tables
// fingerprint exactly like the pre-columnar row store did.
inline uint64_t NullCellHash() {
  return Hasher().AddU64(static_cast<uint64_t>(ValueType::kNull)).Digest();
}
inline uint64_t IntCellHash(int64_t v) {
  return Hasher()
      .AddU64(static_cast<uint64_t>(ValueType::kInt))
      .AddI64(v)
      .Digest();
}
inline uint64_t DoubleCellHash(double v) {
  return Hasher()
      .AddU64(static_cast<uint64_t>(ValueType::kDouble))
      .AddDouble(v)
      .Digest();
}
inline uint64_t BoolCellHash(bool v) {
  return Hasher()
      .AddU64(static_cast<uint64_t>(ValueType::kBool))
      .AddBool(v)
      .Digest();
}
inline uint64_t StringCellHash(std::string_view v) {
  return Hasher()
      .AddU64(static_cast<uint64_t>(ValueType::kString))
      .Add(v)
      .Digest();
}

std::vector<uint8_t> GatherValidity(const std::vector<uint8_t>& validity,
                                    const SelectionVector& sel,
                                    int64_t* null_count_out) {
  *null_count_out = 0;
  if (validity.empty()) {
    return {};
  }
  std::vector<uint8_t> out((sel.size() + 7) / 8, 0xFF);
  for (size_t i = 0; i < sel.size(); ++i) {
    size_t src = static_cast<size_t>(sel[i]);
    if ((validity[src >> 3] & (1u << (src & 7))) == 0) {
      out[i >> 3] = static_cast<uint8_t>(out[i >> 3] & ~(1u << (i & 7)));
      ++*null_count_out;
    }
  }
  if (*null_count_out == 0) {
    return {};
  }
  // Clear padding bits past the last cell for deterministic bytes.
  if (!sel.empty() && (sel.size() & 7) != 0) {
    out.back() =
        static_cast<uint8_t>(out.back() & ((1u << (sel.size() & 7)) - 1));
  }
  return out;
}

}  // namespace

void Column::CellHashes(int64_t begin, int64_t end, uint64_t* out) const {
  for (int64_t i = begin; i < end; ++i) {
    out[i - begin] = CellHash(i);
  }
}

void Column::Serialize(ByteWriter* w) const {
  w->PutU8(static_cast<uint8_t>(storage()));
  bool has_validity = !validity_.empty();
  w->PutU8(has_validity ? 1 : 0);
  if (has_validity) {
    w->PutRaw(validity_.data(), validity_.size());
  }
  SerializeBody(w);
}

void Column::SerializeToSpans(SpanWriter* s) const {
  ByteWriter* w = s->writer();
  w->PutU8(static_cast<uint8_t>(storage()));
  bool has_validity = !validity_.empty();
  w->PutU8(has_validity ? 1 : 0);
  if (has_validity) {
    s->Borrow(validity_.data(), validity_.size());
  }
  SerializeBodyToSpans(s);
}

// --- Int64Column -------------------------------------------------------------

Value Int64Column::GetValue(int64_t i) const {
  return IsNull(i) ? Value::Null() : Value(value(i));
}

uint64_t Int64Column::CellHash(int64_t i) const {
  return IsNull(i) ? NullCellHash() : IntCellHash(value(i));
}

int64_t Int64Column::SizeBytes() const {
  return 32 + static_cast<int64_t>(values_.size() * sizeof(int64_t) +
                                   validity_.size());
}

std::shared_ptr<const Column> Int64Column::Gather(
    const SelectionVector& sel) const {
  std::vector<int64_t> out(sel.size());
  simd::GatherI64(values_.data(), sel.data(),
                  static_cast<int64_t>(sel.size()), out.data());
  int64_t nulls = 0;
  std::vector<uint8_t> validity = GatherValidity(validity_, sel, &nulls);
  return std::make_shared<Int64Column>(std::move(out), std::move(validity),
                                       nulls);
}

void Int64Column::SerializeBody(ByteWriter* w) const {
  w->PutU64Array(reinterpret_cast<const uint64_t*>(values_.data()),
                 values_.size());
}

void Int64Column::SerializeBodyToSpans(SpanWriter* s) const {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  s->Borrow(values_.data(), values_.size() * sizeof(int64_t));
#else
  SerializeBody(s->writer());  // big-endian hosts byte-swap per element
#endif
}

// --- DoubleColumn ------------------------------------------------------------

Value DoubleColumn::GetValue(int64_t i) const {
  return IsNull(i) ? Value::Null() : Value(value(i));
}

uint64_t DoubleColumn::CellHash(int64_t i) const {
  return IsNull(i) ? NullCellHash() : DoubleCellHash(value(i));
}

int64_t DoubleColumn::SizeBytes() const {
  return 32 + static_cast<int64_t>(values_.size() * sizeof(double) +
                                   validity_.size());
}

std::shared_ptr<const Column> DoubleColumn::Gather(
    const SelectionVector& sel) const {
  std::vector<double> out(sel.size());
  simd::GatherF64(values_.data(), sel.data(),
                  static_cast<int64_t>(sel.size()), out.data());
  int64_t nulls = 0;
  std::vector<uint8_t> validity = GatherValidity(validity_, sel, &nulls);
  return std::make_shared<DoubleColumn>(std::move(out), std::move(validity),
                                        nulls);
}

void DoubleColumn::SerializeBody(ByteWriter* w) const {
  static_assert(sizeof(double) == sizeof(uint64_t), "IEEE-754 doubles");
  w->PutU64Array(reinterpret_cast<const uint64_t*>(values_.data()),
                 values_.size());
}

void DoubleColumn::SerializeBodyToSpans(SpanWriter* s) const {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  s->Borrow(values_.data(), values_.size() * sizeof(double));
#else
  SerializeBody(s->writer());
#endif
}

// --- BoolColumn --------------------------------------------------------------

Value BoolColumn::GetValue(int64_t i) const {
  return IsNull(i) ? Value::Null() : Value(value(i));
}

uint64_t BoolColumn::CellHash(int64_t i) const {
  return IsNull(i) ? NullCellHash() : BoolCellHash(value(i));
}

int64_t BoolColumn::SizeBytes() const {
  return 32 + static_cast<int64_t>(values_.size() + validity_.size());
}

std::shared_ptr<const Column> BoolColumn::Gather(
    const SelectionVector& sel) const {
  std::vector<uint8_t> out(sel.size());
  simd::GatherU8(values_.data(), sel.data(),
                 static_cast<int64_t>(sel.size()), out.data());
  int64_t nulls = 0;
  std::vector<uint8_t> validity = GatherValidity(validity_, sel, &nulls);
  return std::make_shared<BoolColumn>(std::move(out), std::move(validity),
                                      nulls);
}

void BoolColumn::SerializeBody(ByteWriter* w) const {
  w->PutRaw(values_.data(), values_.size());
}

void BoolColumn::SerializeBodyToSpans(SpanWriter* s) const {
  s->Borrow(values_.data(), values_.size());
}

// --- StringColumn ------------------------------------------------------------

Value StringColumn::GetValue(int64_t i) const {
  return IsNull(i) ? Value::Null() : Value(std::string(view(i)));
}

uint64_t StringColumn::CellHash(int64_t i) const {
  return IsNull(i) ? NullCellHash() : StringCellHash(view(i));
}

int64_t StringColumn::SizeBytes() const {
  return 32 + static_cast<int64_t>(arena_.size() +
                                   offsets_.size() * sizeof(uint64_t) +
                                   validity_.size());
}

std::shared_ptr<const Column> StringColumn::Gather(
    const SelectionVector& sel) const {
  std::string arena;
  std::vector<uint64_t> offsets;
  offsets.reserve(sel.size() + 1);
  offsets.push_back(0);
  for (int64_t i : sel) {
    arena.append(view(i));
    offsets.push_back(arena.size());
  }
  int64_t nulls = 0;
  std::vector<uint8_t> validity = GatherValidity(validity_, sel, &nulls);
  return std::make_shared<StringColumn>(std::move(arena), std::move(offsets),
                                        std::move(validity), nulls);
}

void StringColumn::SerializeBody(ByteWriter* w) const {
  w->PutU64(arena_.size());
  w->PutRaw(arena_.data(), arena_.size());
  w->PutU64Array(offsets_.data(), offsets_.size());
}

void StringColumn::SerializeBodyToSpans(SpanWriter* s) const {
  s->writer()->PutU64(arena_.size());
  s->Borrow(arena_.data(), arena_.size());
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  s->Borrow(offsets_.data(), offsets_.size() * sizeof(uint64_t));
#else
  s->writer()->PutU64Array(offsets_.data(), offsets_.size());
#endif
}

// --- DictionaryColumn --------------------------------------------------------

Value DictionaryColumn::GetValue(int64_t i) const {
  return IsNull(i) ? Value::Null() : Value(std::string(view(i)));
}

uint64_t DictionaryColumn::CellHash(int64_t i) const {
  // The dictionary caches each entry's string cell hash, so a repeated
  // categorical fingerprints with one array lookup per row.
  return IsNull(i) ? NullCellHash()
                   : dict_->hashes[codes_[static_cast<size_t>(i)]];
}

void DictionaryColumn::CellHashes(int64_t begin, int64_t end,
                                  uint64_t* out) const {
  const uint64_t* hashes = dict_->hashes.data();
  if (validity_.empty()) {
    for (int64_t i = begin; i < end; ++i) {
      out[i - begin] = hashes[codes_[static_cast<size_t>(i)]];
    }
    return;
  }
  const uint64_t null_hash = NullCellHash();
  for (int64_t i = begin; i < end; ++i) {
    out[i - begin] = IsNull(i)
                         ? null_hash
                         : hashes[codes_[static_cast<size_t>(i)]];
  }
}

int64_t DictionaryColumn::SizeBytes() const {
  return 32 + static_cast<int64_t>(
                  codes_.size() * sizeof(uint32_t) + dict_->arena.size() +
                  dict_->offsets.size() * sizeof(uint64_t) +
                  dict_->hashes.size() * sizeof(uint64_t) + validity_.size());
}

std::shared_ptr<const Column> DictionaryColumn::Gather(
    const SelectionVector& sel) const {
  std::vector<uint32_t> out(sel.size());
  simd::GatherU32(codes_.data(), sel.data(),
                  static_cast<int64_t>(sel.size()), out.data());
  int64_t nulls = 0;
  std::vector<uint8_t> validity = GatherValidity(validity_, sel, &nulls);
  // The dictionary is shared, not trimmed: a filter's output keeps every
  // entry (possibly some now-unreferenced) so the gather never touches
  // string bytes.
  return std::make_shared<DictionaryColumn>(dict_, std::move(out),
                                            std::move(validity), nulls);
}

void DictionaryColumn::SerializeBody(ByteWriter* w) const {
  w->PutU64(static_cast<uint64_t>(dict_->num_entries()));
  w->PutU64(dict_->arena.size());
  w->PutRaw(dict_->arena.data(), dict_->arena.size());
  w->PutU64Array(dict_->offsets.data(), dict_->offsets.size());
  w->PutU32Array(codes_.data(), codes_.size());
}

void DictionaryColumn::SerializeBodyToSpans(SpanWriter* s) const {
  s->writer()->PutU64(static_cast<uint64_t>(dict_->num_entries()));
  s->writer()->PutU64(dict_->arena.size());
  s->Borrow(dict_->arena.data(), dict_->arena.size());
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  s->Borrow(dict_->offsets.data(), dict_->offsets.size() * sizeof(uint64_t));
  s->Borrow(codes_.data(), codes_.size() * sizeof(uint32_t));
#else
  s->writer()->PutU64Array(dict_->offsets.data(), dict_->offsets.size());
  s->writer()->PutU32Array(codes_.data(), codes_.size());
#endif
}

// --- Deserialization ---------------------------------------------------------

Result<std::shared_ptr<const Column>> Column::Deserialize(ByteReader* r,
                                                          int64_t num_rows) {
  HELIX_ASSIGN_OR_RETURN(uint8_t tag, r->GetU8());
  HELIX_ASSIGN_OR_RETURN(uint8_t has_validity, r->GetU8());
  if (has_validity > 1) {
    return Status::Corruption("bad column validity flag");
  }
  size_t n = static_cast<size_t>(num_rows);
  std::vector<uint8_t> validity;
  int64_t null_count = 0;
  if (has_validity == 1) {
    HELIX_ASSIGN_OR_RETURN(std::string_view bits, r->GetRawView((n + 7) / 8));
    validity.assign(bits.begin(), bits.end());
    null_count = simd::PopcountZeros(validity.data(),
                                     static_cast<int64_t>(n));
  }
  // Fixed-width bodies are sized from the row count before they are
  // read; a count the remaining bytes cannot hold is corrupt, and must
  // fail before it becomes an allocation.
  auto check_body = [&](size_t width) -> Status {
    if (n > r->remaining() / width) {
      return Status::Corruption("column body exceeds buffer");
    }
    return Status::OK();
  };
  switch (static_cast<Storage>(tag)) {
    case Storage::kInt64: {
      HELIX_RETURN_IF_ERROR(check_body(sizeof(int64_t)));
      std::vector<int64_t> values(n);
      HELIX_RETURN_IF_ERROR(
          r->GetU64Array(reinterpret_cast<uint64_t*>(values.data()), n));
      return std::shared_ptr<const Column>(std::make_shared<Int64Column>(
          std::move(values), std::move(validity), null_count));
    }
    case Storage::kDouble: {
      HELIX_RETURN_IF_ERROR(check_body(sizeof(double)));
      std::vector<double> values(n);
      HELIX_RETURN_IF_ERROR(
          r->GetU64Array(reinterpret_cast<uint64_t*>(values.data()), n));
      return std::shared_ptr<const Column>(std::make_shared<DoubleColumn>(
          std::move(values), std::move(validity), null_count));
    }
    case Storage::kBool: {
      HELIX_ASSIGN_OR_RETURN(std::string_view bytes, r->GetRawView(n));
      std::vector<uint8_t> values(bytes.begin(), bytes.end());
      for (uint8_t b : values) {
        if (b > 1) {
          return Status::Corruption("bool cell byte out of range");
        }
      }
      return std::shared_ptr<const Column>(std::make_shared<BoolColumn>(
          std::move(values), std::move(validity), null_count));
    }
    case Storage::kString: {
      HELIX_ASSIGN_OR_RETURN(uint64_t arena_size, r->GetU64());
      if (arena_size > r->remaining()) {
        return Status::Corruption("string arena exceeds buffer");
      }
      HELIX_ASSIGN_OR_RETURN(std::string_view arena_view,
                             r->GetRawView(static_cast<size_t>(arena_size)));
      std::string arena(arena_view);
      HELIX_RETURN_IF_ERROR(check_body(sizeof(uint64_t)));
      std::vector<uint64_t> offsets(n + 1);
      HELIX_RETURN_IF_ERROR(r->GetU64Array(offsets.data(), n + 1));
      if (offsets[0] != 0 || offsets[n] != arena_size) {
        return Status::Corruption("string offsets disagree with arena");
      }
      for (size_t i = 0; i < n; ++i) {
        if (offsets[i] > offsets[i + 1]) {
          return Status::Corruption("string offsets not ascending");
        }
      }
      return std::shared_ptr<const Column>(std::make_shared<StringColumn>(
          std::move(arena), std::move(offsets), std::move(validity),
          null_count));
    }
    case Storage::kDictString: {
      HELIX_ASSIGN_OR_RETURN(uint64_t num_entries, r->GetU64());
      // D+1 offsets must fit in what's left before anything is allocated.
      if (num_entries >= r->remaining() / sizeof(uint64_t)) {
        return Status::Corruption("dictionary entry count exceeds buffer");
      }
      if (n > 0 && num_entries == 0) {
        return Status::Corruption("dictionary column with empty dictionary");
      }
      size_t d = static_cast<size_t>(num_entries);
      HELIX_ASSIGN_OR_RETURN(uint64_t arena_size, r->GetU64());
      if (arena_size > r->remaining()) {
        return Status::Corruption("dictionary arena exceeds buffer");
      }
      auto dict = std::make_shared<StringDict>();
      HELIX_ASSIGN_OR_RETURN(std::string_view arena_view,
                             r->GetRawView(static_cast<size_t>(arena_size)));
      dict->arena.assign(arena_view);
      dict->offsets.resize(d + 1);
      HELIX_RETURN_IF_ERROR(r->GetU64Array(dict->offsets.data(), d + 1));
      if (dict->offsets[0] != 0 || dict->offsets[d] != arena_size) {
        return Status::Corruption("dictionary offsets disagree with arena");
      }
      for (size_t i = 0; i < d; ++i) {
        if (dict->offsets[i] > dict->offsets[i + 1]) {
          return Status::Corruption("dictionary offsets not ascending");
        }
      }
      HELIX_RETURN_IF_ERROR(check_body(sizeof(uint32_t)));
      std::vector<uint32_t> codes(n);
      HELIX_RETURN_IF_ERROR(r->GetU32Array(codes.data(), n));
      for (uint32_t c : codes) {
        if (c >= num_entries) {
          return Status::Corruption("dictionary code out of range");
        }
      }
      dict->hashes.reserve(d);
      for (size_t i = 0; i < d; ++i) {
        dict->hashes.push_back(
            StringCellHash(dict->entry(static_cast<uint32_t>(i))));
      }
      return std::shared_ptr<const Column>(
          std::make_shared<DictionaryColumn>(std::move(dict),
                                             std::move(codes),
                                             std::move(validity),
                                             null_count));
    }
  }
  return Status::Corruption(StrFormat("bad column storage tag %u", tag));
}

// --- ColumnBuilder -----------------------------------------------------------

namespace {

Column::Storage StorageForDeclared(ValueType t) {
  switch (t) {
    case ValueType::kInt:
      return Column::Storage::kInt64;
    case ValueType::kDouble:
      return Column::Storage::kDouble;
    case ValueType::kBool:
      return Column::Storage::kBool;
    case ValueType::kString:
      return Column::Storage::kString;
    case ValueType::kNull:
      break;
  }
  assert(false && "a kNull field has no column layout");
  return Column::Storage::kString;
}

}  // namespace

ColumnBuilder::ColumnBuilder(ValueType declared_type)
    : declared_type_(declared_type),
      storage_(StorageForDeclared(declared_type)) {
  if (storage_ == Column::Storage::kString) {
    offsets_.push_back(0);
    // String builders start in dictionary mode: arena_/offsets_ hold the
    // distinct entries, codes_ the per-row codes. Whether Finish() emits
    // a DictionaryColumn or a plain StringColumn is a deterministic
    // function of the appended cell sequence (see Finish), so row-built
    // and column-built tables still serialize byte-identically.
    dict_mode_ = true;
  }
}

void ColumnBuilder::Reserve(int64_t n) {
  size_t sn = static_cast<size_t>(n);
  switch (storage_) {
    case Column::Storage::kInt64:
      ints_.reserve(sn);
      break;
    case Column::Storage::kDouble:
      doubles_.reserve(sn);
      break;
    case Column::Storage::kBool:
      bools_.reserve(sn);
      break;
    case Column::Storage::kString:
      if (dict_mode_) {
        codes_.reserve(sn);
      } else {
        offsets_.reserve(sn + 1);
      }
      break;
    case Column::Storage::kDictString:
      break;  // builders never sit on this storage; Finish() selects it
  }
}

void ColumnBuilder::MarkValid() {
  if (!validity_.empty()) {
    size_t i = static_cast<size_t>(length_);
    if ((i >> 3) >= validity_.size()) {
      validity_.push_back(0);
    }
    validity_[i >> 3] = static_cast<uint8_t>(validity_[i >> 3] |
                                             (1u << (i & 7)));
  }
  ++length_;
}

void ColumnBuilder::MarkNull() {
  if (validity_.empty()) {
    // First null: backfill "valid" bits for every cell appended so far.
    size_t cells = static_cast<size_t>(length_);
    validity_.assign((cells + 8) / 8 + 1, 0);
    for (size_t i = 0; i < cells; ++i) {
      validity_[i >> 3] = static_cast<uint8_t>(validity_[i >> 3] |
                                               (1u << (i & 7)));
    }
  }
  size_t i = static_cast<size_t>(length_);
  if ((i >> 3) >= validity_.size()) {
    validity_.push_back(0);
  }
  // Bit already zero == null.
  ++null_count_;
  ++length_;
}

// --- dictionary-mode string interning ---------------------------------------

bool ColumnBuilder::TryInternDictEntry(std::string_view v, uint32_t* code) {
  // Open addressing with linear probing over slots_ (entry code + 1;
  // 0 == empty), comparing against the entry bytes in arena_. Rebuilding
  // on growth rehashes codes only — entry bytes never move.
  if (slots_.empty()) {
    slots_.assign(64, 0);
  }
  size_t mask = slots_.size() - 1;
  uint64_t h = FnvHash64(v);
  size_t idx = static_cast<size_t>(h) & mask;
  while (slots_[idx] != 0) {
    uint32_t existing = slots_[idx] - 1;
    size_t b = static_cast<size_t>(offsets_[existing]);
    size_t e = static_cast<size_t>(offsets_[existing + 1]);
    if (std::string_view(arena_).substr(b, e - b) == v) {
      *code = existing;
      return true;
    }
    idx = (idx + 1) & mask;
  }
  int64_t num_entries = static_cast<int64_t>(offsets_.size()) - 1;
  if (num_entries >= kMaxDictDistinct) {
    // Too many distinct values to pay for a dictionary — expand what we
    // have into a plain arena and stay plain for the rest of the build.
    AbandonDict();
    return false;
  }
  uint32_t fresh = static_cast<uint32_t>(num_entries);
  arena_.append(v);
  offsets_.push_back(arena_.size());
  slots_[idx] = fresh + 1;
  if (static_cast<size_t>(num_entries + 1) * 2 > slots_.size()) {
    std::vector<uint32_t> grown(slots_.size() * 2, 0);
    size_t grown_mask = grown.size() - 1;
    for (uint32_t slot : slots_) {
      if (slot == 0) {
        continue;
      }
      uint32_t c = slot - 1;
      size_t b = static_cast<size_t>(offsets_[c]);
      size_t e = static_cast<size_t>(offsets_[c + 1]);
      size_t j = static_cast<size_t>(FnvHash64(
                     std::string_view(arena_).substr(b, e - b))) &
                 grown_mask;
      while (grown[j] != 0) {
        j = (j + 1) & grown_mask;
      }
      grown[j] = slot;
    }
    slots_ = std::move(grown);
  }
  *code = fresh;
  return true;
}

void ColumnBuilder::AbandonDict() {
  std::string plain;
  std::vector<uint64_t> plain_offsets;
  plain_offsets.reserve(codes_.size() + 1);
  plain_offsets.push_back(0);
  size_t total = 0;
  for (uint32_t c : codes_) {
    total += static_cast<size_t>(offsets_[c + 1] - offsets_[c]);
  }
  plain.reserve(total);
  for (uint32_t c : codes_) {
    plain.append(arena_, static_cast<size_t>(offsets_[c]),
                 static_cast<size_t>(offsets_[c + 1] - offsets_[c]));
    plain_offsets.push_back(plain.size());
  }
  arena_ = std::move(plain);
  offsets_ = std::move(plain_offsets);
  codes_.clear();
  codes_.shrink_to_fit();
  slots_.clear();
  dict_mode_ = false;
}

void ColumnBuilder::AppendStringCell(std::string_view v) {
  if (dict_mode_) {
    uint32_t code = 0;
    if (TryInternDictEntry(v, &code)) {
      codes_.push_back(code);
      return;
    }
    // Fell off dictionary mode; append this cell plainly below.
  }
  arena_.append(v);
  offsets_.push_back(arena_.size());
}

void ColumnBuilder::AppendNull() {
  switch (storage_) {
    case Column::Storage::kInt64:
      ints_.push_back(0);
      break;
    case Column::Storage::kDouble:
      doubles_.push_back(0);
      break;
    case Column::Storage::kBool:
      bools_.push_back(0);
      break;
    case Column::Storage::kString:
      // Null cells carry the empty string (dict mode interns it), so
      // view(i) == "" for nulls on both storages.
      AppendStringCell(std::string_view());
      break;
    case Column::Storage::kDictString:
      break;
  }
  MarkNull();
}

void ColumnBuilder::AppendInt(int64_t v) {
  assert(storage_ == Column::Storage::kInt64);
  ints_.push_back(v);
  MarkValid();
}

void ColumnBuilder::AppendDouble(double v) {
  assert(storage_ == Column::Storage::kDouble);
  doubles_.push_back(v);
  MarkValid();
}

void ColumnBuilder::AppendBool(bool v) {
  assert(storage_ == Column::Storage::kBool);
  bools_.push_back(v ? 1 : 0);
  MarkValid();
}

void ColumnBuilder::AppendString(std::string_view v) {
  assert(storage_ == Column::Storage::kString);
  AppendStringCell(v);
  MarkValid();
}

std::shared_ptr<const Column> ColumnBuilder::Finish() {
  // Trim the lazily-grown validity bitmap to exactly (length+7)/8 bytes
  // with padding bits cleared, so sealed bytes are deterministic.
  std::vector<uint8_t> validity;
  if (null_count_ > 0) {
    size_t want = (static_cast<size_t>(length_) + 7) / 8;
    validity.assign(validity_.begin(),
                    validity_.begin() + static_cast<long>(want));
    if ((length_ & 7) != 0) {
      validity.back() = static_cast<uint8_t>(
          validity.back() & ((1u << (length_ & 7)) - 1));
    }
  }
  std::shared_ptr<const Column> out;
  switch (storage_) {
    case Column::Storage::kInt64:
      out = std::make_shared<Int64Column>(std::move(ints_),
                                          std::move(validity), null_count_);
      break;
    case Column::Storage::kDouble:
      out = std::make_shared<DoubleColumn>(std::move(doubles_),
                                           std::move(validity), null_count_);
      break;
    case Column::Storage::kBool:
      out = std::make_shared<BoolColumn>(std::move(bools_),
                                         std::move(validity), null_count_);
      break;
    case Column::Storage::kString:
      if (dict_mode_) {
        int64_t distinct = static_cast<int64_t>(offsets_.size()) - 1;
        // Emit a DictionaryColumn only when the codes pay for the
        // dictionary: enough rows, and at least 4x repetition. Both the
        // row count and the distinct count are functions of the cell
        // sequence alone, so the choice is deterministic.
        if (length_ >= kMinDictRows && distinct * 4 <= length_) {
          auto dict = std::make_shared<StringDict>();
          dict->arena = std::move(arena_);
          dict->offsets = std::move(offsets_);
          dict->hashes.reserve(static_cast<size_t>(distinct));
          for (int64_t c = 0; c < distinct; ++c) {
            dict->hashes.push_back(
                StringCellHash(dict->entry(static_cast<uint32_t>(c))));
          }
          simd::RecordInvocation(simd::Kernel::kDictEncode,
                                 simd::Isa::kScalar);
          out = std::make_shared<DictionaryColumn>(
              std::move(dict), std::move(codes_), std::move(validity),
              null_count_);
          break;
        }
        AbandonDict();  // materialize the plain arena from the codes
      }
      out = std::make_shared<StringColumn>(std::move(arena_),
                                           std::move(offsets_),
                                           std::move(validity), null_count_);
      break;
    case Column::Storage::kDictString:
      break;  // unreachable: builders never sit on this storage
  }
  *this = ColumnBuilder(declared_type_);
  return out;
}

}  // namespace dataflow
}  // namespace helix
