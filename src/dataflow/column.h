// Typed columnar storage for relational tables.
//
// A Column is an immutable, sealed vector of same-typed cells with an
// optional validity bitmap (absent bitmap == no nulls). Tables hold columns
// behind shared_ptr<const Column>, so operators that pass a column through
// unchanged (projection, rename, derive-one-column) share it zero-copy
// instead of deep-copying rows. Filters produce a SelectionVector of row
// indices and Gather() the surviving rows per column.
//
// Five layouts cover the four cell types: Int64Column, DoubleColumn,
// BoolColumn, and for strings either StringColumn (offsets into a
// contiguous arena) or DictionaryColumn (codes into a shared dictionary).
// Every cell of a column has the column's one type or is null; a
// ColumnBuilder refuses a cell of any other type.
#ifndef HELIX_DATAFLOW_COLUMN_H_
#define HELIX_DATAFLOW_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/spans.h"
#include "dataflow/value.h"

namespace helix {
namespace dataflow {

/// Row indices selected by a filter kernel, ascending, in [0, num_rows).
using SelectionVector = std::vector<int64_t>;

/// Immutable same-typed cell vector with optional validity bitmap.
///
/// Thread safety: a Column is immutable after construction and safe to
/// read concurrently. Ownership: columns are shared between tables via
/// shared_ptr<const Column>; nothing ever mutates a published column.
class Column {
 public:
  /// Physical layout discriminator; doubles as the envelope storage tag.
  enum class Storage : uint8_t {
    kInt64 = 1,
    kDouble = 2,
    kBool = 3,
    kString = 4,
    // Tag 5 was a tagged-Value layout for cells that disagreed with the
    // declared type; it is retired and decodes as Corruption.
    /// Dictionary-encoded strings: per-row u32 codes into a shared
    /// distinct-entry dictionary (repeated categoricals).
    kDictString = 6,
  };

  virtual ~Column() = default;

  virtual Storage storage() const = 0;
  int64_t length() const { return length_; }
  int64_t null_count() const { return null_count_; }

  /// True if cell `i` is null (answered from the validity bitmap).
  bool IsNull(int64_t i) const {
    return !validity_.empty() &&
           (validity_[static_cast<size_t>(i) >> 3] &
            (1u << (static_cast<size_t>(i) & 7))) == 0;
  }

  /// Materializes cell `i` as a Value (a per-cell copy; typed readers
  /// should downcast and read spans instead).
  virtual Value GetValue(int64_t i) const = 0;

  /// Stable per-cell hash, identical to Value::Hash() of GetValue(i).
  /// Table fingerprints combine these row-major, which keeps fingerprints
  /// byte-compatible with the pre-columnar row store's.
  virtual uint64_t CellHash(int64_t i) const = 0;

  /// Bulk CellHash over [begin, end) into `out` (fingerprint fast path).
  virtual void CellHashes(int64_t begin, int64_t end, uint64_t* out) const;

  /// Approximate in-memory footprint.
  virtual int64_t SizeBytes() const = 0;

  /// New column holding rows `sel` of this one, in order.
  virtual std::shared_ptr<const Column> Gather(
      const SelectionVector& sel) const = 0;

  /// Envelope wire form: storage tag, validity flag (+bitmap), packed
  /// body. Row count comes from the enclosing table header.
  void Serialize(ByteWriter* w) const;

  /// Same byte stream as Serialize, emitted as spans: header fields go
  /// through the scratch writer, large bodies are borrowed zero-copy.
  /// The column must outlive the span list.
  void SerializeToSpans(SpanWriter* s) const;

  /// Parses one envelope column of `num_rows` cells.
  static Result<std::shared_ptr<const Column>> Deserialize(ByteReader* r,
                                                           int64_t num_rows);

 protected:
  Column(int64_t length, std::vector<uint8_t> validity, int64_t null_count)
      : length_(length),
        validity_(std::move(validity)),
        null_count_(null_count) {}

  /// Packed cell body (everything after tag + validity).
  virtual void SerializeBody(ByteWriter* w) const = 0;

  /// Span form of SerializeBody; the default copies through the scratch
  /// writer, contiguous-body columns override to borrow.
  virtual void SerializeBodyToSpans(SpanWriter* s) const {
    SerializeBody(s->writer());
  }

  int64_t length_ = 0;
  /// Bit i set == cell i valid; empty == all valid. (length+7)/8 bytes.
  std::vector<uint8_t> validity_;
  int64_t null_count_ = 0;
};

/// int64 cells.
class Int64Column final : public Column {
 public:
  Int64Column(std::vector<int64_t> values, std::vector<uint8_t> validity,
              int64_t null_count)
      : Column(static_cast<int64_t>(values.size()), std::move(validity),
               null_count),
        values_(std::move(values)) {}

  Storage storage() const override { return Storage::kInt64; }
  const int64_t* data() const { return values_.data(); }
  int64_t value(int64_t i) const { return values_[static_cast<size_t>(i)]; }

  Value GetValue(int64_t i) const override;
  uint64_t CellHash(int64_t i) const override;
  int64_t SizeBytes() const override;
  std::shared_ptr<const Column> Gather(
      const SelectionVector& sel) const override;

 protected:
  void SerializeBody(ByteWriter* w) const override;
  void SerializeBodyToSpans(SpanWriter* s) const override;

 private:
  std::vector<int64_t> values_;
};

/// double cells.
class DoubleColumn final : public Column {
 public:
  DoubleColumn(std::vector<double> values, std::vector<uint8_t> validity,
               int64_t null_count)
      : Column(static_cast<int64_t>(values.size()), std::move(validity),
               null_count),
        values_(std::move(values)) {}

  Storage storage() const override { return Storage::kDouble; }
  const double* data() const { return values_.data(); }
  double value(int64_t i) const { return values_[static_cast<size_t>(i)]; }

  Value GetValue(int64_t i) const override;
  uint64_t CellHash(int64_t i) const override;
  int64_t SizeBytes() const override;
  std::shared_ptr<const Column> Gather(
      const SelectionVector& sel) const override;

 protected:
  void SerializeBody(ByteWriter* w) const override;
  void SerializeBodyToSpans(SpanWriter* s) const override;

 private:
  std::vector<double> values_;
};

/// bool cells (one byte per cell).
class BoolColumn final : public Column {
 public:
  BoolColumn(std::vector<uint8_t> values, std::vector<uint8_t> validity,
             int64_t null_count)
      : Column(static_cast<int64_t>(values.size()), std::move(validity),
               null_count),
        values_(std::move(values)) {}

  Storage storage() const override { return Storage::kBool; }
  bool value(int64_t i) const { return values_[static_cast<size_t>(i)] != 0; }

  Value GetValue(int64_t i) const override;
  uint64_t CellHash(int64_t i) const override;
  int64_t SizeBytes() const override;
  std::shared_ptr<const Column> Gather(
      const SelectionVector& sel) const override;

 protected:
  void SerializeBody(ByteWriter* w) const override;
  void SerializeBodyToSpans(SpanWriter* s) const override;

 private:
  std::vector<uint8_t> values_;
};

/// String cells: one contiguous arena plus length+1 offsets into it.
class StringColumn final : public Column {
 public:
  StringColumn(std::string arena, std::vector<uint64_t> offsets,
               std::vector<uint8_t> validity, int64_t null_count)
      : Column(static_cast<int64_t>(offsets.empty() ? 0 : offsets.size() - 1),
               std::move(validity), null_count),
        arena_(std::move(arena)),
        offsets_(std::move(offsets)) {}

  Storage storage() const override { return Storage::kString; }
  std::string_view view(int64_t i) const {
    size_t b = static_cast<size_t>(offsets_[static_cast<size_t>(i)]);
    size_t e = static_cast<size_t>(offsets_[static_cast<size_t>(i) + 1]);
    return std::string_view(arena_).substr(b, e - b);
  }
  Value GetValue(int64_t i) const override;
  uint64_t CellHash(int64_t i) const override;
  int64_t SizeBytes() const override;
  std::shared_ptr<const Column> Gather(
      const SelectionVector& sel) const override;

 protected:
  void SerializeBody(ByteWriter* w) const override;
  void SerializeBodyToSpans(SpanWriter* s) const override;

 private:
  std::string arena_;
  std::vector<uint64_t> offsets_;  // length()+1, ascending, last == arena size
};

/// The shared distinct-entry table behind one or more DictionaryColumns:
/// D entries in first-occurrence order (arena + D+1 offsets), plus each
/// entry's cached cell hash so fingerprints cost one array lookup per
/// row instead of one string hash. Immutable once published; gathered
/// columns share it zero-copy.
struct StringDict {
  std::string arena;
  std::vector<uint64_t> offsets;  // D+1, ascending, last == arena size
  std::vector<uint64_t> hashes;   // D cached string cell hashes

  int64_t num_entries() const {
    return offsets.empty() ? 0 : static_cast<int64_t>(offsets.size()) - 1;
  }
  std::string_view entry(uint32_t code) const {
    size_t b = static_cast<size_t>(offsets[code]);
    size_t e = static_cast<size_t>(offsets[code + 1]);
    return std::string_view(arena).substr(b, e - b);
  }
};

/// Dictionary-encoded string cells: per-row u32 codes into a shared
/// StringDict. Value-identical to the StringColumn holding the same
/// cells — GetValue, CellHash, and the table fingerprint are
/// bit-compatible — only the storage (and the envelope tag) differ.
/// Null cells carry the code of the empty-string entry, so view(i)
/// returns "" for nulls exactly like StringColumn does.
class DictionaryColumn final : public Column {
 public:
  DictionaryColumn(std::shared_ptr<const StringDict> dict,
                   std::vector<uint32_t> codes,
                   std::vector<uint8_t> validity, int64_t null_count)
      : Column(static_cast<int64_t>(codes.size()), std::move(validity),
               null_count),
        dict_(std::move(dict)),
        codes_(std::move(codes)) {}

  Storage storage() const override { return Storage::kDictString; }
  const StringDict& dict() const { return *dict_; }
  const std::shared_ptr<const StringDict>& shared_dict() const {
    return dict_;
  }
  const uint32_t* codes() const { return codes_.data(); }
  uint32_t code(int64_t i) const { return codes_[static_cast<size_t>(i)]; }
  std::string_view view(int64_t i) const {
    return dict_->entry(codes_[static_cast<size_t>(i)]);
  }

  Value GetValue(int64_t i) const override;
  uint64_t CellHash(int64_t i) const override;
  void CellHashes(int64_t begin, int64_t end, uint64_t* out) const override;
  int64_t SizeBytes() const override;
  std::shared_ptr<const Column> Gather(
      const SelectionVector& sel) const override;

 protected:
  void SerializeBody(ByteWriter* w) const override;
  void SerializeBodyToSpans(SpanWriter* s) const override;

 private:
  std::shared_ptr<const StringDict> dict_;
  std::vector<uint32_t> codes_;
};

/// Accumulates cells of one declared type (kInt, kDouble, kBool or
/// kString; kNull has no layout), then seals them into an immutable
/// Column.
///
/// Not thread-safe; builders are single-owner by construction.
class ColumnBuilder {
 public:
  explicit ColumnBuilder(ValueType declared_type);

  int64_t length() const { return length_; }
  void Reserve(int64_t n);

  void AppendNull();

  /// Typed appends; each requires a builder declared with that type
  /// (asserted).
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendBool(bool v);
  void AppendString(std::string_view v);

  /// Seals accumulated cells into a column and resets the builder.
  std::shared_ptr<const Column> Finish();

  /// Dictionary auto-encoding policy (deterministic functions of the
  /// cell sequence, so a column's bytes do not depend on which append
  /// path built it): a string builder interns incrementally and
  /// abandons encoding past kMaxDictDistinct distinct entries; Finish
  /// emits a DictionaryColumn only when the table is long enough and
  /// repetitive enough for codes to pay for the dictionary.
  static constexpr int64_t kMaxDictDistinct = 4096;
  static constexpr int64_t kMinDictRows = 16;

 private:
  void MarkValid();
  void MarkNull();

  /// Interns `v` into the distinct-entry arena and stores its code in
  /// `*code`. Returns false (after AbandonDict expands the codes into a
  /// plain arena) when a NEW entry would pass kMaxDictDistinct.
  bool TryInternDictEntry(std::string_view v, uint32_t* code);
  void AbandonDict();
  /// The one string-cell append path (null cells intern ""), shared by
  /// AppendString / Append / AppendNull.
  void AppendStringCell(std::string_view v);

  ValueType declared_type_;
  Column::Storage storage_;
  int64_t length_ = 0;
  int64_t null_count_ = 0;
  std::vector<uint8_t> validity_;  // built lazily on first null

  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<uint8_t> bools_;
  std::string arena_;
  std::vector<uint64_t> offsets_;

  /// Dictionary mode (string builders start here): arena_/offsets_ hold
  /// the DISTINCT entries in first-occurrence order, codes_ holds one
  /// code per appended cell, slots_ is the open-addressing intern table
  /// (entry code + 1; 0 == empty slot).
  bool dict_mode_ = false;
  std::vector<uint32_t> codes_;
  std::vector<uint32_t> slots_;
};

}  // namespace dataflow
}  // namespace helix

#endif  // HELIX_DATAFLOW_COLUMN_H_
