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

namespace {

// The schema <-> layout invariant: a typed reader of a kInt field may
// downcast to Int64Column, and so on. kNull fields have no layout.
bool LayoutMatches(ValueType type, Column::Storage storage) {
  switch (type) {
    case ValueType::kInt:
      return storage == Column::Storage::kInt64;
    case ValueType::kDouble:
      return storage == Column::Storage::kDouble;
    case ValueType::kBool:
      return storage == Column::Storage::kBool;
    case ValueType::kString:
      return storage == Column::Storage::kString ||
             storage == Column::Storage::kDictString;
    case ValueType::kNull:
      break;
  }
  return false;
}

}  // namespace

Result<std::shared_ptr<TableData>> TableData::FromColumns(
    Schema schema, std::vector<std::shared_ptr<const class Column>> columns) {
  int64_t rows =
      columns.empty() || columns[0] == nullptr ? 0 : columns[0]->length();
  return Make(std::move(schema), rows, std::move(columns));
}

Result<std::shared_ptr<TableData>> TableData::Make(
    Schema schema, int64_t num_rows,
    std::vector<std::shared_ptr<const class Column>> columns) {
  if (static_cast<int>(columns.size()) != schema.num_fields()) {
    return Status::InvalidArgument(
        StrFormat("%zu columns do not match schema arity %d", columns.size(),
                  schema.num_fields()));
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    const auto& col = columns[c];
    if (col == nullptr) {
      return Status::InvalidArgument("null column handle");
    }
    if (col->length() != num_rows) {
      return Status::InvalidArgument("columns disagree on row count");
    }
    const Field& field = schema.field(static_cast<int>(c));
    if (!LayoutMatches(field.type, col->storage())) {
      return Status::InvalidArgument(StrFormat(
          "field '%s' (%s) over a column of storage tag %u",
          field.name.c_str(), ValueTypeToString(field.type),
          static_cast<unsigned>(col->storage())));
    }
  }
  return std::shared_ptr<TableData>(
      new TableData(std::move(schema), num_rows, std::move(columns)));
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
  std::vector<std::shared_ptr<const class Column>> gathered;
  gathered.reserve(columns_.size());
  for (const auto& col : columns_) {
    gathered.push_back(col->Gather(sel));
  }
  auto out = Make(schema_, static_cast<int64_t>(sel.size()),
                  std::move(gathered));
  // Gather preserves lengths and layouts, so Make cannot fail.
  return std::move(out).value();
}

int64_t TableData::SizeBytes() const {
  int64_t bytes = 64 + schema_.num_fields() * 24;
  for (const auto& col : columns_) {
    bytes += col->SizeBytes();
  }
  return bytes;
}

uint64_t TableData::Fingerprint() const {
  Hasher h;
  h.AddU64(schema_.Hash());
  h.AddU64(static_cast<uint64_t>(num_rows_));
  size_t cols = columns_.size();
  if (cols == 0 || num_rows_ == 0) {
    return h.Digest();
  }
  // Row-major combination of per-cell hashes (the retired row store's
  // exact order), computed column-at-a-time in blocks so typed columns
  // avoid per-cell virtual dispatch into Value.
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
  schema_.Serialize(w);
  w->PutU64(static_cast<uint64_t>(num_rows_));
  for (const auto& col : columns_) {
    col->Serialize(w);
  }
}

void TableData::SerializeToSpans(SpanWriter* s) const {
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

Result<std::shared_ptr<TableData>> TableData::Deserialize(ByteReader* r) {
  HELIX_ASSIGN_OR_RETURN(Schema schema, Schema::Deserialize(r));
  HELIX_ASSIGN_OR_RETURN(uint64_t n, r->GetU64());
  if (n > (1ULL << 32)) {
    return Status::Corruption("implausible table row count");
  }
  int arity = schema.num_fields();
  std::vector<std::shared_ptr<const class Column>> columns;
  columns.reserve(static_cast<size_t>(arity));
  for (int c = 0; c < arity; ++c) {
    HELIX_ASSIGN_OR_RETURN(
        std::shared_ptr<const class Column> col,
        helix::dataflow::Column::Deserialize(r, static_cast<int64_t>(n)));
    columns.push_back(std::move(col));
  }
  auto table =
      Make(std::move(schema), static_cast<int64_t>(n), std::move(columns));
  if (!table.ok()) {
    return Status::Corruption("table body: " + table.status().message());
  }
  return table;
}

}  // namespace dataflow
}  // namespace helix
