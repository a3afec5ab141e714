#include "dataflow/table.h"

#include <algorithm>

#include "common/hash.h"
#include "common/strings.h"

namespace helix {
namespace dataflow {

const char* PayloadKindToString(PayloadKind k) {
  switch (k) {
    case PayloadKind::kTable:
      return "table";
    case PayloadKind::kText:
      return "text";
    case PayloadKind::kExamples:
      return "examples";
    case PayloadKind::kModel:
      return "model";
    case PayloadKind::kMetrics:
      return "metrics";
  }
  return "?";
}

TableData::TableData(Schema schema) : schema_(std::move(schema)) {
  builders_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (int c = 0; c < schema_.num_fields(); ++c) {
    builders_.push_back(
        std::make_unique<ColumnBuilder>(schema_.field(c).type));
  }
}

TableData::TableData(Schema schema, std::vector<Row> rows)
    : TableData(std::move(schema)) {
  for (Row& row : rows) {
    // Arity matches by the caller's contract; mismatches are dropped the
    // same way the row store's (void)AppendRow call sites did.
    (void)AppendRow(std::move(row));
  }
}

Result<std::shared_ptr<TableData>> TableData::FromColumns(
    Schema schema, std::vector<std::shared_ptr<const class Column>> columns) {
  if (static_cast<int>(columns.size()) != schema.num_fields()) {
    return Status::InvalidArgument(
        StrFormat("%zu columns do not match schema arity %d", columns.size(),
                  schema.num_fields()));
  }
  int64_t rows = columns.empty() ? 0 : columns[0]->length();
  for (const auto& col : columns) {
    if (col == nullptr) {
      return Status::InvalidArgument("null column handle");
    }
    if (col->length() != rows) {
      return Status::InvalidArgument(
          "columns disagree on row count");
    }
  }
  auto table = std::make_shared<TableData>();
  table->schema_ = std::move(schema);
  table->num_rows_ = rows;
  table->builders_.clear();
  table->columns_ = std::move(columns);
  return table;
}

void TableData::Seal() const {
  if (builders_.empty()) {
    return;  // already sealed (or zero-field table)
  }
  columns_.reserve(builders_.size());
  for (const auto& builder : builders_) {
    columns_.push_back(builder->Finish());
  }
  builders_.clear();
}

void TableData::Unseal() {
  if (columns_.empty()) {
    return;
  }
  builders_.reserve(columns_.size());
  for (const auto& col : columns_) {
    builders_.push_back(ColumnBuilder::FromColumn(*col));
  }
  columns_.clear();
}

Status TableData::AppendRow(Row row) {
  if (static_cast<int>(row.size()) != schema_.num_fields()) {
    return Status::InvalidArgument(
        StrFormat("row arity %zu does not match schema arity %d", row.size(),
                  schema_.num_fields()));
  }
  if (!columns_.empty()) {
    Unseal();
  }
  for (size_t c = 0; c < row.size(); ++c) {
    builders_[c]->Append(row[c]);
  }
  ++num_rows_;
  return Status::OK();
}

void TableData::Reserve(int64_t n) {
  for (const auto& builder : builders_) {
    builder->Reserve(n);
  }
}

Value TableData::at(int64_t r, int c) const {
  if (!builders_.empty()) {
    return builders_[static_cast<size_t>(c)]->ValueAt(r);
  }
  return columns_[static_cast<size_t>(c)]->GetValue(r);
}

std::shared_ptr<const Column> TableData::column(int c) const {
  Seal();
  return columns_[static_cast<size_t>(c)];
}

Result<std::shared_ptr<const Column>> TableData::Column(
    const std::string& name) const {
  int idx = schema_.IndexOf(name);
  if (idx < 0) {
    return Status::NotFound("no column named " + name);
  }
  return column(idx);
}

std::shared_ptr<TableData> TableData::Filter(
    const SelectionVector& sel) const {
  Seal();
  std::vector<std::shared_ptr<const class Column>> gathered;
  gathered.reserve(columns_.size());
  for (const auto& col : columns_) {
    gathered.push_back(col->Gather(sel));
  }
  auto out = FromColumns(schema_, std::move(gathered));
  // Gather preserves per-column lengths, so FromColumns cannot fail.
  return std::move(out).value();
}

int64_t TableData::SizeBytes() const {
  Seal();
  int64_t bytes = 64 + schema_.num_fields() * 24;
  for (const auto& col : columns_) {
    bytes += col->SizeBytes();
  }
  return bytes;
}

uint64_t TableData::Fingerprint() const {
  Seal();
  Hasher h;
  h.AddU64(schema_.Hash());
  h.AddU64(static_cast<uint64_t>(num_rows_));
  size_t cols = columns_.size();
  if (cols == 0 || num_rows_ == 0) {
    return h.Digest();
  }
  // Row-major combination of per-cell hashes (the v1 row store's exact
  // order), computed column-at-a-time in blocks so typed columns avoid
  // per-cell virtual dispatch into Value.
  constexpr int64_t kBlock = 1024;
  std::vector<std::vector<uint64_t>> block(cols);
  for (auto& b : block) {
    b.resize(static_cast<size_t>(std::min<int64_t>(kBlock, num_rows_)));
  }
  for (int64_t begin = 0; begin < num_rows_; begin += kBlock) {
    int64_t end = std::min(begin + kBlock, num_rows_);
    for (size_t c = 0; c < cols; ++c) {
      columns_[c]->CellHashes(begin, end, block[c].data());
    }
    for (int64_t r = 0; r < end - begin; ++r) {
      for (size_t c = 0; c < cols; ++c) {
        h.AddU64(block[c][static_cast<size_t>(r)]);
      }
    }
  }
  return h.Digest();
}

void TableData::Serialize(ByteWriter* w) const {
  Seal();
  schema_.Serialize(w);
  w->PutU64(static_cast<uint64_t>(num_rows_));
  for (const auto& col : columns_) {
    col->Serialize(w);
  }
}

void TableData::SerializeToSpans(SpanWriter* s) const {
  Seal();
  schema_.Serialize(s->writer());
  s->writer()->PutU64(static_cast<uint64_t>(num_rows_));
  for (const auto& col : columns_) {
    col->SerializeToSpans(s);
  }
}

std::string TableData::DebugString() const {
  return StrFormat("table(%lld rows x %d cols)",
                   static_cast<long long>(num_rows()), schema_.num_fields());
}

Result<std::shared_ptr<TableData>> TableData::Deserialize(
    ByteReader* r, uint32_t format_version) {
  HELIX_ASSIGN_OR_RETURN(Schema schema, Schema::Deserialize(r));
  HELIX_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (n > (1ULL << 32)) {
    return Status::Corruption("implausible table row count");
  }
  int arity = schema.num_fields();
  if (format_version == 1) {
    // v1: row-major tagged cells, exactly the retired row store's wire
    // form. Parsed through builders so old disk stores load as columns.
    auto table = std::make_shared<TableData>(schema);
    // Every cell carries at least its one-byte type tag, so the bytes
    // left bound the rows worth reserving for.
    size_t min_row_bytes = static_cast<size_t>(std::max(arity, 1));
    table->Reserve(static_cast<int64_t>(
        std::min<uint64_t>(n, r->remaining() / min_row_bytes)));
    for (uint64_t i = 0; i < n; ++i) {
      Row row;
      row.reserve(static_cast<size_t>(arity));
      for (int c = 0; c < arity; ++c) {
        HELIX_ASSIGN_OR_RETURN(Value v, Value::Deserialize(r));
        row.push_back(std::move(v));
      }
      HELIX_RETURN_IF_ERROR(table->AppendRow(std::move(row)));
    }
    table->Seal();
    return table;
  }
  // v2: column-contiguous payloads.
  std::vector<std::shared_ptr<const class Column>> columns;
  columns.reserve(static_cast<size_t>(arity));
  for (int c = 0; c < arity; ++c) {
    HELIX_ASSIGN_OR_RETURN(
        std::shared_ptr<const class Column> col,
        helix::dataflow::Column::Deserialize(r, static_cast<int64_t>(n)));
    columns.push_back(std::move(col));
  }
  HELIX_ASSIGN_OR_RETURN(auto table,
                         FromColumns(std::move(schema), std::move(columns)));
  // Zero-field tables carry their row count only in the header.
  table->num_rows_ = static_cast<int64_t>(n);
  return table;
}

}  // namespace dataflow
}  // namespace helix
