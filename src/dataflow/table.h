// Relational table payload: the human-readable pre-processing format.
//
// A table is immutable: a schema, a row count and one Column per field
// (dataflow/column.h), shared between tables via shared_ptr<const Column>
// so projection-style operators are zero-copy. Tables are built only from
// sealed columns (ColumnBuilder -> TableData::FromColumns) or decoded
// (Deserialize), and both check that every column's layout matches its
// field's type, so a typed reader can trust the schema. Nothing changes
// after construction, so a table is safe to share across threads.
#ifndef HELIX_DATAFLOW_TABLE_H_
#define HELIX_DATAFLOW_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "dataflow/column.h"
#include "dataflow/payload.h"
#include "dataflow/schema.h"

namespace helix {
namespace dataflow {

/// An immutable schema'd columnar table.
class TableData final : public DataPayload {
 public:
  /// Builds a table from sealed columns. InvalidArgument unless the
  /// column count equals the schema's, every column has the same length,
  /// and each column's layout matches its field type (kInt: Int64,
  /// kDouble: Double, kBool: Bool, kString: String or Dictionary; a kNull
  /// field has no layout). Columns may be shared with other tables
  /// (zero-copy).
  static Result<std::shared_ptr<TableData>> FromColumns(
      Schema schema, std::vector<std::shared_ptr<const Column>> columns);

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }

  /// Shared handle to the column at index `c`. Never deep-copies.
  std::shared_ptr<const class Column> column(int c) const {
    return columns_[static_cast<size_t>(c)];
  }

  /// Shared handle to the column named `name`, or NotFound.
  Result<std::shared_ptr<const class Column>> Column(
      const std::string& name) const;

  /// New table holding rows `sel` (ascending indices into this table),
  /// gathering every column.
  std::shared_ptr<TableData> Filter(const SelectionVector& sel) const;

  PayloadKind kind() const override { return PayloadKind::kTable; }
  int64_t SizeBytes() const override;
  /// Row-major per-cell hash, bit-identical to the pre-columnar row
  /// store's, so every pinned table fingerprint holds across layouts.
  uint64_t Fingerprint() const override;
  /// Envelope body: schema, row count, then column-contiguous payloads.
  void Serialize(ByteWriter* w) const override;
  /// Same bytes as Serialize, but column bodies (value arrays, string
  /// arenas, dictionary codes) are borrowed into the span list instead of
  /// copied — the zero-copy reply path. The table must outlive the spans.
  void SerializeToSpans(SpanWriter* s) const override;
  std::string DebugString() const override;

  /// Parses a Serialize body. Corruption on malformed bytes, including a
  /// column whose layout disagrees with its field type.
  static Result<std::shared_ptr<TableData>> Deserialize(ByteReader* r);

 private:
  TableData(Schema schema, int64_t num_rows,
            std::vector<std::shared_ptr<const class Column>> columns)
      : schema_(std::move(schema)),
        num_rows_(num_rows),
        columns_(std::move(columns)) {}

  /// FromColumns with the row count given, which zero-field tables carry
  /// only in the serialized header.
  static Result<std::shared_ptr<TableData>> Make(
      Schema schema, int64_t num_rows,
      std::vector<std::shared_ptr<const class Column>> columns);

  Schema schema_;
  int64_t num_rows_ = 0;
  std::vector<std::shared_ptr<const class Column>> columns_;
};

}  // namespace dataflow
}  // namespace helix

#endif  // HELIX_DATAFLOW_TABLE_H_
