// Test helper: row-at-a-time construction of immutable tables.
//
// Tables are built from sealed columns (dataflow/table.h). MakeTable routes
// each row's cells through one ColumnBuilder per field with the typed
// appends the operators use; a row of the wrong arity or a cell whose type
// differs from its field fails the calling test instead of building a
// table.
#ifndef HELIX_TESTS_TABLE_UTIL_H_
#define HELIX_TESTS_TABLE_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dataflow/table.h"

namespace helix {
namespace dataflow {

using Row = std::vector<Value>;

/// A table of `rows` under `schema`. On a malformed row it records a test
/// failure and returns a zero-field, zero-row table.
inline std::shared_ptr<TableData> MakeTable(const Schema& schema,
                                            const std::vector<Row>& rows) {
  auto fail = [](const std::string& why) {
    ADD_FAILURE() << "MakeTable: " << why;
    return TableData::FromColumns(Schema(std::vector<Field>{}), {}).value();
  };
  std::vector<ColumnBuilder> builders;
  for (const Field& field : schema.fields()) {
    builders.emplace_back(field.type);
  }
  for (const Row& row : rows) {
    if (row.size() != builders.size()) {
      return fail("row arity differs from the schema's");
    }
    for (size_t c = 0; c < row.size(); ++c) {
      const Value& v = row[c];
      ColumnBuilder& builder = builders[c];
      if (v.is_null()) {
        builder.AppendNull();
        continue;
      }
      const ValueType declared = schema.field(static_cast<int>(c)).type;
      if (v.type() != declared) {
        return fail(std::string(ValueTypeToString(v.type())) + " cell in a " +
                    ValueTypeToString(declared) + " column");
      }
      switch (v.type()) {
        case ValueType::kInt:
          builder.AppendInt(v.AsInt());
          break;
        case ValueType::kDouble:
          builder.AppendDouble(v.AsDouble());
          break;
        case ValueType::kBool:
          builder.AppendBool(v.AsBool());
          break;
        case ValueType::kString:
          builder.AppendString(v.AsString());
          break;
        case ValueType::kNull:
          break;  // handled above
      }
    }
  }
  std::vector<std::shared_ptr<const Column>> columns;
  for (ColumnBuilder& builder : builders) {
    columns.push_back(builder.Finish());
  }
  auto table = TableData::FromColumns(schema, std::move(columns));
  if (!table.ok()) {
    return fail(table.status().ToString());
  }
  return table.value();
}

/// Cell (r, c) as a Value.
inline Value Cell(const TableData& table, int64_t r, int c) {
  return table.column(c)->GetValue(r);
}

}  // namespace dataflow
}  // namespace helix

#endif  // HELIX_TESTS_TABLE_UTIL_H_
