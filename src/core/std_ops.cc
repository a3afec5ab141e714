#include "core/std_ops.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/csv.h"
#include "common/file_util.h"
#include "common/strings.h"
#include "dataflow/simd.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/perceptron.h"
#include "nlp/tokenizer.h"

namespace helix {
namespace core {
namespace ops {

const char kSplitColumn[] = "__split";

namespace {

using dataflow::Column;
using dataflow::ColumnBuilder;
using dataflow::DataCollection;
using dataflow::DictionaryColumn;
using dataflow::DoubleColumn;
using dataflow::ExamplesData;
using dataflow::Int64Column;
using dataflow::MetricsData;
using dataflow::ModelData;
using dataflow::Schema;
using dataflow::StringColumn;
using dataflow::TableData;
using dataflow::TextData;
using dataflow::Value;
using dataflow::ValueType;

Result<const TableData*> InputTable(
    const std::vector<const DataCollection*>& inputs, size_t i) {
  if (i >= inputs.size()) {
    return Status::InvalidArgument(
        StrFormat("missing input #%zu (have %zu)", i, inputs.size()));
  }
  return inputs[i]->AsTable();
}

// --- Typed cell readers ------------------------------------------------------
// One input column's cells read as T (int64_t, double or string_view), its
// field type checked once per operator call; TableData guarantees that the
// layout matches the field type. A field of another type, or a null cell,
// is an InvalidArgument naming the column.

template <typename T>
class Cells {
 public:
  static Result<Cells> Of(const TableData& table, int c) {
    const dataflow::Field& field = table.schema().field(c);
    if (field.type != kType) {
      return Status::InvalidArgument(StrFormat(
          "column '%s' holds %s cells, not %s", field.name.c_str(),
          dataflow::ValueTypeToString(field.type),
          dataflow::ValueTypeToString(kType)));
    }
    return Cells(field.name, table.column(c).get());
  }

  Result<T> At(int64_t r) const {
    if (col_->IsNull(r)) {
      return Status::InvalidArgument(
          StrFormat("column '%s' is null at row %lld", name_.c_str(),
                    static_cast<long long>(r)));
    }
    return Get(r);
  }

 private:
  static constexpr ValueType kType =
      std::is_same_v<T, int64_t>  ? ValueType::kInt
      : std::is_same_v<T, double> ? ValueType::kDouble
                                  : ValueType::kString;

  Cells(std::string name, const Column* col)
      : name_(std::move(name)), col_(col) {}

  T Get(int64_t r) const;

  std::string name_;
  const Column* col_;  // owned by the input table
};

template <>
int64_t Cells<int64_t>::Get(int64_t r) const {
  return static_cast<const Int64Column*>(col_)->value(r);
}

template <>
double Cells<double>::Get(int64_t r) const {
  return static_cast<const DoubleColumn*>(col_)->value(r);
}

template <>
std::string_view Cells<std::string_view>::Get(int64_t r) const {
  if (col_->storage() == Column::Storage::kDictString) {
    return static_cast<const DictionaryColumn*>(col_)->view(r);
  }
  return static_cast<const StringColumn*>(col_)->view(r);
}

using IntCells = Cells<int64_t>;
using DoubleCells = Cells<double>;
using StringCells = Cells<std::string_view>;

// Renders cells like Value::ToDisplayString (null -> "<null>") without
// materializing Values on the string fast path.
class DisplayReader {
 public:
  explicit DisplayReader(const Column& col)
      : col_(&col),
        str_(dynamic_cast<const StringColumn*>(&col)),
        dict_(dynamic_cast<const DictionaryColumn*>(&col)) {}

  void AppendTo(int64_t r, std::string* out) const {
    if (!col_->IsNull(r)) {
      if (str_ != nullptr) {
        out->append(str_->view(r));
        return;
      }
      if (dict_ != nullptr) {
        out->append(dict_->view(r));
        return;
      }
    }
    out->append(col_->GetValue(r).ToDisplayString());
  }

  std::string_view View(int64_t r, std::string* scratch) const {
    if (!col_->IsNull(r)) {
      if (str_ != nullptr) {
        return str_->view(r);
      }
      if (dict_ != nullptr) {
        return dict_->view(r);
      }
    }
    *scratch = col_->GetValue(r).ToDisplayString();
    return *scratch;
  }

 private:
  const Column* col_;
  const StringColumn* str_;
  const DictionaryColumn* dict_;
};

// Numeric feature detection for the featurization scan: every cell's
// display form must parse as a double (so any null or bool cell rules a
// column out, exactly as the row-wise scan did). On success `out` holds
// the parsed values.
bool TryParseNumericColumn(const Column& col, std::vector<double>* out) {
  int64_t n = col.length();
  if (col.null_count() > 0) {
    return false;  // "<null>" never parses
  }
  if (col.storage() == Column::Storage::kBool) {
    return n == 0;  // "true"/"false" never parse
  }
  out->resize(static_cast<size_t>(n));
  switch (col.storage()) {
    case Column::Storage::kInt64: {
      const auto& c = static_cast<const Int64Column&>(col);
      for (int64_t r = 0; r < n; ++r) {
        (*out)[static_cast<size_t>(r)] = static_cast<double>(c.value(r));
      }
      return true;
    }
    case Column::Storage::kDouble: {
      // The row-wise scan parsed ToDisplayString()'s "%g" rendering, which
      // rounds; reproduce that exactly so standardized features (and thus
      // fingerprints) match across the row/columnar boundary.
      const auto& c = static_cast<const DoubleColumn&>(col);
      for (int64_t r = 0; r < n; ++r) {
        double x;
        if (!ParseDouble(StrFormat("%g", c.value(r)), &x)) {
          return false;
        }
        (*out)[static_cast<size_t>(r)] = x;
      }
      return true;
    }
    case Column::Storage::kBool:
      break;  // handled above
    case Column::Storage::kString: {
      const auto& c = static_cast<const StringColumn&>(col);
      for (int64_t r = 0; r < n; ++r) {
        if (!ParseDouble(c.view(r), &(*out)[static_cast<size_t>(r)])) {
          return false;
        }
      }
      return true;
    }
    case Column::Storage::kDictString: {
      // Parse each referenced dictionary entry once, then broadcast the
      // per-entry doubles to rows. Unreferenced entries (a gathered
      // column shares its source's dictionary untrimmed) must not veto
      // the column: the row-wise scan never saw them.
      const auto& c = static_cast<const DictionaryColumn&>(col);
      size_t d = static_cast<size_t>(c.dict().num_entries());
      const uint32_t* codes = c.codes();
      std::vector<uint8_t> used(d, 0);
      for (int64_t r = 0; r < n; ++r) {
        used[codes[r]] = 1;
      }
      std::vector<double> per_code(d, 0.0);
      for (size_t i = 0; i < d; ++i) {
        if (used[i] != 0 &&
            !ParseDouble(c.dict().entry(static_cast<uint32_t>(i)),
                         &per_code[i])) {
          return false;
        }
      }
      if (n > 0) {
        dataflow::simd::ExpandCodes(codes, n, per_code.data(), out->data());
      }
      return true;
    }
  }
  return false;
}

Result<const TextData*> InputText(
    const std::vector<const DataCollection*>& inputs, size_t i) {
  if (i >= inputs.size()) {
    return Status::InvalidArgument(
        StrFormat("missing input #%zu (have %zu)", i, inputs.size()));
  }
  return inputs[i]->AsText();
}

// A "feature table" is (__split, value) — the shape produced by
// FieldExtractor, Bucketizer, and InteractionFeature.
Status CheckFeatureTable(const TableData& t, const std::string& who) {
  if (t.schema().num_fields() != 2 ||
      t.schema().field(0).name != kSplitColumn) {
    return Status::InvalidArgument(
        who + ": expected feature table (__split, value), got " +
        t.schema().ToString());
  }
  return Status::OK();
}

}  // namespace

Operator FileSource(const std::string& name, const std::string& train_path,
                    const std::string& test_path) {
  std::string params =
      StrFormat("train=%s,test=%s", train_path.c_str(), test_path.c_str());
  OperatorFn fn = [train_path, test_path](
                      const std::vector<const DataCollection*>&)
      -> Result<DataCollection> {
    // One row per input file, each holding the whole file as a single
    // contiguous blob. The raw source is the largest node in a typical
    // pipeline, and the retired line-per-row layout taxed it with a
    // per-row offset plus a redundant split tag per line; the scanner
    // splits lines in place instead. Both files are read into one arena
    // behind a plain StringColumn: the bytes a string ColumnBuilder emits
    // for two rows (fewer than kMinDictRows), without hashing or copying
    // the file contents again.
    const std::string* paths[] = {&train_path, &test_path};
    int64_t total = 0;
    for (const std::string* path : paths) {
      Result<int64_t> size = FileSize(*path);
      total += size.ok() ? size.value() : 0;  // a read below reports it
    }
    std::string arena;
    arena.reserve(static_cast<size_t>(total));
    std::vector<uint64_t> offsets = {0};
    for (const std::string* path : paths) {
      HELIX_RETURN_IF_ERROR(AppendFileToString(*path, &arena));
      offsets.push_back(arena.size());
    }
    ColumnBuilder split_b(dataflow::ValueType::kString);
    split_b.AppendString("train");
    split_b.AppendString("test");
    auto content = std::make_shared<StringColumn>(
        std::move(arena), std::move(offsets), std::vector<uint8_t>(), 0);
    HELIX_ASSIGN_OR_RETURN(
        auto table,
        TableData::FromColumns(Schema::AllStrings({kSplitColumn, "content"}),
                               {split_b.Finish(), std::move(content)}));
    return DataCollection::FromTable(std::move(table));
  };
  return Operator(name, "FileSource", params, Phase::kDataPreprocessing,
                  std::move(fn));
}

Operator CsvScanner(const std::string& name,
                    const std::vector<std::string>& columns) {
  std::string params = "cols=" + Join(columns, "|");
  OperatorFn fn = [columns](const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    HELIX_ASSIGN_OR_RETURN(const TableData* in, InputTable(inputs, 0));
    int content_col = in->schema().IndexOf("content");
    int split_col = in->schema().IndexOf(kSplitColumn);
    if (content_col < 0 || split_col < 0) {
      return Status::InvalidArgument(
          "CSVScanner expects (__split, content) input");
    }
    std::vector<std::string> out_columns = {kSplitColumn};
    out_columns.insert(out_columns.end(), columns.begin(), columns.end());
    // One typed builder per parsed column.
    std::vector<ColumnBuilder> builders(
        columns.size(), ColumnBuilder(dataflow::ValueType::kString));
    // One row per source file: split lines in place off the contiguous
    // content, tagging each parsed row with its file's split value. Blank
    // lines are skipped. Fields are views into the line (or, when quoted,
    // into `scratch`) appended straight into the builders; `fields` and
    // `scratch` are reused across lines, so no string is allocated per
    // line or field.
    ColumnBuilder split_out_b(dataflow::ValueType::kString);
    HELIX_ASSIGN_OR_RETURN(StringCells content,
                           StringCells::Of(*in, content_col));
    HELIX_ASSIGN_OR_RETURN(StringCells split_in,
                           StringCells::Of(*in, split_col));
    std::vector<std::string_view> fields;
    std::string scratch;
    int64_t row_id = 0;
    for (int64_t r = 0; r < in->num_rows(); ++r) {
      HELIX_ASSIGN_OR_RETURN(std::string_view blob, content.At(r));
      HELIX_ASSIGN_OR_RETURN(std::string_view split_view, split_in.At(r));
      size_t pos = 0;
      while (pos <= blob.size()) {
        size_t eol = blob.find('\n', pos);
        std::string_view line =
            blob.substr(pos, eol == std::string_view::npos ? blob.size() - pos
                                                           : eol - pos);
        pos = eol == std::string_view::npos ? blob.size() + 1 : eol + 1;
        // A blank line — "\r" in a CRLF file, or only spaces — is skipped.
        if (TrimView(line).empty()) {
          continue;
        }
        Status parsed = SplitCsvLine(line, ',', &fields, &scratch);
        if (!parsed.ok()) {
          return parsed.WithContext(StrFormat(
              "CSV parse error at row %lld", static_cast<long long>(row_id)));
        }
        if (fields.size() != columns.size()) {
          return Status::InvalidArgument(StrFormat(
              "row %lld has %zu fields, expected %zu",
              static_cast<long long>(row_id), fields.size(), columns.size()));
        }
        for (size_t c = 0; c < columns.size(); ++c) {
          builders[c].AppendString(TrimView(fields[c]));
        }
        split_out_b.AppendString(split_view);
        ++row_id;
      }
    }
    std::vector<std::shared_ptr<const Column>> out_cols;
    out_cols.reserve(columns.size() + 1);
    out_cols.push_back(split_out_b.Finish());
    for (ColumnBuilder& b : builders) {
      out_cols.push_back(b.Finish());
    }
    HELIX_ASSIGN_OR_RETURN(
        auto table, TableData::FromColumns(Schema::AllStrings(out_columns),
                                           std::move(out_cols)));
    return DataCollection::FromTable(std::move(table));
  };
  return Operator(name, "CSVScanner", params, Phase::kDataPreprocessing,
                  std::move(fn));
}

Operator FieldExtractor(const std::string& name, const std::string& field) {
  std::string params = "field=" + field;
  OperatorFn fn = [field](const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    HELIX_ASSIGN_OR_RETURN(const TableData* in, InputTable(inputs, 0));
    int col = in->schema().IndexOf(field);
    int split_col = in->schema().IndexOf(kSplitColumn);
    if (col < 0 || split_col < 0) {
      return Status::InvalidArgument("no column named " + field);
    }
    // Pure projection: both output columns are shared with the input,
    // zero-copy, and keep their field types.
    HELIX_ASSIGN_OR_RETURN(
        auto table,
        TableData::FromColumns(
            Schema({in->schema().field(split_col),
                    {field, in->schema().field(col).type}}),
            {in->column(split_col), in->column(col)}));
    return DataCollection::FromTable(std::move(table));
  };
  return Operator(name, "FieldExtractor", params, Phase::kDataPreprocessing,
                  std::move(fn));
}

Operator Bucketizer(const std::string& name, int bins) {
  std::string params = StrFormat("bins=%d", bins);
  std::string out_col = name;
  OperatorFn fn = [bins, out_col](
                      const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    if (bins <= 0) {
      return Status::InvalidArgument("bins must be positive");
    }
    HELIX_ASSIGN_OR_RETURN(const TableData* in, InputTable(inputs, 0));
    HELIX_RETURN_IF_ERROR(CheckFeatureTable(*in, "Bucketizer"));
    // Pass 1 (column-wise): parse the value column numerically and find
    // its range. String cells parse; other cells widen via ToNumeric.
    std::shared_ptr<const Column> values = in->column(1);
    int64_t n = in->num_rows();
    std::vector<double> parsed(static_cast<size_t>(n), 0.0);
    const auto* dict = dynamic_cast<const DictionaryColumn*>(values.get());
    if (dict != nullptr && dict->null_count() == 0 && n > 0) {
      // Dictionary fast path: parse each referenced entry once, then
      // broadcast. Errors must still name the first offending ROW (the
      // row-wise scan's contract), so on failure re-scan the codes.
      size_t d = static_cast<size_t>(dict->dict().num_entries());
      const uint32_t* codes = dict->codes();
      std::vector<uint8_t> used(d, 0);
      for (int64_t r = 0; r < n; ++r) {
        used[codes[r]] = 1;
      }
      std::vector<double> per_code(d, 0.0);
      std::vector<uint8_t> failed(d, 0);
      bool any_failed = false;
      for (size_t i = 0; i < d; ++i) {
        if (used[i] != 0 &&
            !ParseDouble(dict->dict().entry(static_cast<uint32_t>(i)),
                         &per_code[i])) {
          failed[i] = 1;
          any_failed = true;
        }
      }
      if (any_failed) {
        for (int64_t r = 0; r < n; ++r) {
          if (failed[codes[r]] != 0) {
            return Status::InvalidArgument(StrFormat(
                "Bucketizer: non-numeric value '%s' at row %lld",
                std::string(dict->view(r)).c_str(),
                static_cast<long long>(r)));
          }
        }
      }
      dataflow::simd::ExpandCodes(codes, n, per_code.data(), parsed.data());
    } else {
      const auto* str = dynamic_cast<const StringColumn*>(values.get());
      for (int64_t r = 0; r < n; ++r) {
        double x = 0;
        if (str != nullptr && !str->IsNull(r)) {
          if (!ParseDouble(str->view(r), &x)) {
            return Status::InvalidArgument(StrFormat(
                "Bucketizer: non-numeric value '%s' at row %lld",
                std::string(str->view(r)).c_str(), static_cast<long long>(r)));
          }
        } else {
          Value v = values->GetValue(r);
          if (v.type() == dataflow::ValueType::kString) {
            if (!ParseDouble(v.AsString(), &x)) {
              return Status::InvalidArgument(StrFormat(
                  "Bucketizer: non-numeric value '%s' at row %lld",
                  v.AsString().c_str(), static_cast<long long>(r)));
            }
          } else {
            HELIX_ASSIGN_OR_RETURN(x, v.ToNumeric());
          }
        }
        parsed[static_cast<size_t>(r)] = x;
      }
    }
    double lo = 0;
    double hi = 0;
    bool any = false;
    for (double x : parsed) {
      lo = any ? std::min(lo, x) : x;
      hi = any ? std::max(hi, x) : x;
      any = true;
    }
    double width = (hi - lo) / static_cast<double>(bins);
    if (width <= 0) {
      width = 1;
    }
    // Pass 2: emit bucket labels from a precomputed label table; the
    // split column passes through zero-copy.
    std::vector<std::string> labels;
    labels.reserve(static_cast<size_t>(bins));
    for (int b = 0; b < bins; ++b) {
      labels.push_back(StrFormat("b%d", b));
    }
    ColumnBuilder bucket_b(dataflow::ValueType::kString);
    bucket_b.Reserve(n);
    for (int64_t r = 0; r < n; ++r) {
      int bucket = static_cast<int>(
          (parsed[static_cast<size_t>(r)] - lo) / width);
      bucket = std::clamp(bucket, 0, bins - 1);
      bucket_b.AppendString(labels[static_cast<size_t>(bucket)]);
    }
    HELIX_ASSIGN_OR_RETURN(
        auto table,
        TableData::FromColumns(Schema::AllStrings({kSplitColumn, out_col}),
                               {in->column(0), bucket_b.Finish()}));
    return DataCollection::FromTable(std::move(table));
  };
  return Operator(name, "Bucketizer", params, Phase::kDataPreprocessing,
                  std::move(fn));
}

Operator InteractionFeature(const std::string& name) {
  std::string out_col = name;
  OperatorFn fn = [out_col](const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    if (inputs.size() < 2) {
      return Status::InvalidArgument(
          "InteractionFeature needs at least two inputs");
    }
    std::vector<const TableData*> tables;
    for (size_t i = 0; i < inputs.size(); ++i) {
      HELIX_ASSIGN_OR_RETURN(const TableData* t, InputTable(inputs, i));
      HELIX_RETURN_IF_ERROR(CheckFeatureTable(*t, "InteractionFeature"));
      if (!tables.empty() && t->num_rows() != tables[0]->num_rows()) {
        return Status::InvalidArgument(
            "InteractionFeature inputs disagree on row count");
      }
      tables.push_back(t);
    }
    std::vector<DisplayReader> readers;
    readers.reserve(tables.size());
    for (const TableData* t : tables) {
      readers.emplace_back(*t->column(1));
    }
    ColumnBuilder joined_b(dataflow::ValueType::kString);
    int64_t n = tables[0]->num_rows();
    joined_b.Reserve(n);
    std::string joined;
    for (int64_t r = 0; r < n; ++r) {
      joined.clear();
      for (size_t i = 0; i < readers.size(); ++i) {
        if (i > 0) {
          joined += "&";
        }
        readers[i].AppendTo(r, &joined);
      }
      joined_b.AppendString(joined);
    }
    HELIX_ASSIGN_OR_RETURN(
        auto table,
        TableData::FromColumns(Schema::AllStrings({kSplitColumn, out_col}),
                               {tables[0]->column(0), joined_b.Finish()}));
    return DataCollection::FromTable(std::move(table));
  };
  return Operator(name, "InteractionFeature", "", Phase::kDataPreprocessing,
                  std::move(fn));
}

Operator AssembleExamples(const std::string& name,
                          const std::string& positive_label) {
  std::string params = "pos=" + positive_label;
  OperatorFn fn = [positive_label](
                      const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    if (inputs.size() < 2) {
      return Status::InvalidArgument(
          "AssembleExamples needs >=1 feature input plus the label input");
    }
    std::vector<const TableData*> features;
    for (size_t i = 0; i + 1 < inputs.size(); ++i) {
      HELIX_ASSIGN_OR_RETURN(const TableData* t, InputTable(inputs, i));
      HELIX_RETURN_IF_ERROR(CheckFeatureTable(*t, "AssembleExamples"));
      features.push_back(t);
    }
    HELIX_ASSIGN_OR_RETURN(const TableData* target,
                           InputTable(inputs, inputs.size() - 1));
    HELIX_RETURN_IF_ERROR(CheckFeatureTable(*target, "AssembleExamples"));
    int64_t rows = target->num_rows();
    for (const TableData* t : features) {
      if (t->num_rows() != rows) {
        return Status::InvalidArgument(
            "AssembleExamples inputs disagree on row count");
      }
    }

    auto data = std::make_shared<ExamplesData>();
    // One entry per feature table per row (a repeated feature index
    // overwrites, so this is an upper bound).
    data->Reserve(rows, rows * static_cast<int64_t>(features.size()));
    dataflow::FeatureDict* dict = data->mutable_dict();

    // Per feature column (the featurization scan, now column-at-a-time):
    // numeric if every cell's display form parses as a double; then
    // standardize from a single parsed array. Otherwise one-hot.
    struct ColumnPlan {
      bool numeric = false;
      double mean = 0;
      double stddev = 1;
      int32_t numeric_index = -1;
      std::vector<double> parsed;  // filled when numeric
    };
    std::vector<ColumnPlan> plans(features.size());
    for (size_t f = 0; f < features.size(); ++f) {
      const TableData& t = *features[f];
      const std::string& col = t.schema().field(1).name;
      ColumnPlan& plan = plans[f];
      plan.numeric = rows > 0 && TryParseNumericColumn(*t.column(1),
                                                       &plan.parsed);
      if (plan.numeric) {
        double sum = 0;
        double sum_sq = 0;
        dataflow::simd::SumAndSumSq(plan.parsed.data(),
                                    static_cast<int64_t>(plan.parsed.size()),
                                    &sum, &sum_sq);
        plan.mean = sum / static_cast<double>(rows);
        double variance =
            sum_sq / static_cast<double>(rows) - plan.mean * plan.mean;
        plan.stddev = variance > 1e-12 ? std::sqrt(variance) : 1.0;
        plan.numeric_index = dict->Intern(col);
        // Standardize once, in place; the row loop below then reads
        // finished feature values straight out of the array.
        dataflow::simd::Standardize(plan.parsed.data(),
                                    static_cast<int64_t>(plan.parsed.size()),
                                    plan.mean, plan.stddev,
                                    plan.parsed.data());
      }
    }

    // Dictionary fast paths: when a string column arrives
    // dictionary-encoded with no nulls, the per-row work collapses to a
    // code lookup (split membership, label match, one-hot feature id).
    // Null-bearing or plain columns keep the per-row readers: a null split
    // cell is an InvalidArgument, a null label or feature displays as
    // "<null>".
    std::shared_ptr<const Column> split = target->column(0);
    HELIX_ASSIGN_OR_RETURN(StringCells split_cells,
                           StringCells::Of(*target, 0));
    const auto* split_dict = dynamic_cast<const DictionaryColumn*>(split.get());
    const uint32_t* split_codes = nullptr;
    uint32_t test_code = UINT32_MAX;
    if (split_dict != nullptr && split_dict->null_count() == 0) {
      split_codes = split_dict->codes();
      size_t entries = static_cast<size_t>(split_dict->dict().num_entries());
      for (size_t c = 0; c < entries; ++c) {
        if (split_dict->dict().entry(static_cast<uint32_t>(c)) == "test") {
          test_code = static_cast<uint32_t>(c);
          break;
        }
      }
    }
    DisplayReader label_reader(*target->column(1));
    const auto* label_dict =
        dynamic_cast<const DictionaryColumn*>(target->column(1).get());
    const uint32_t* label_codes = nullptr;
    std::vector<uint8_t> label_pos;
    if (label_dict != nullptr && label_dict->null_count() == 0) {
      label_codes = label_dict->codes();
      label_pos.resize(static_cast<size_t>(label_dict->dict().num_entries()));
      for (size_t c = 0; c < label_pos.size(); ++c) {
        label_pos[c] = label_dict->dict().entry(static_cast<uint32_t>(c)) ==
                               positive_label
                           ? 1
                           : 0;
      }
    }
    struct OneHotPlan {
      const DictionaryColumn* dict = nullptr;  // set when fast path applies
      const uint32_t* codes = nullptr;
      std::vector<int32_t> interned;  // per code; -1 = not yet interned
    };
    std::vector<OneHotPlan> onehots(features.size());
    std::vector<DisplayReader> onehot_readers;
    onehot_readers.reserve(features.size());
    for (size_t f = 0; f < features.size(); ++f) {
      onehot_readers.emplace_back(*features[f]->column(1));
      if (plans[f].numeric) {
        continue;
      }
      const auto* d =
          dynamic_cast<const DictionaryColumn*>(features[f]->column(1).get());
      if (d != nullptr && d->null_count() == 0) {
        onehots[f].dict = d;
        onehots[f].codes = d->codes();
        onehots[f].interned.assign(
            static_cast<size_t>(d->dict().num_entries()), -1);
      }
    }
    std::string scratch;
    std::string feature_name;
    dataflow::SparseVector row;
    for (int64_t r = 0; r < rows; ++r) {
      bool is_test = split_codes != nullptr && split_codes[r] == test_code;
      if (split_codes == nullptr) {
        HELIX_ASSIGN_OR_RETURN(std::string_view tag, split_cells.At(r));
        is_test = tag == "test";
      }
      double label =
          label_codes != nullptr
              ? (label_pos[label_codes[r]] != 0 ? 1.0 : 0.0)
              : (label_reader.View(r, &scratch) == positive_label ? 1.0
                                                                  : 0.0);
      row.Clear();
      for (size_t f = 0; f < features.size(); ++f) {
        const ColumnPlan& plan = plans[f];
        if (plan.numeric) {
          row.Set(plan.numeric_index, plan.parsed[static_cast<size_t>(r)]);
        } else if (onehots[f].dict != nullptr) {
          OneHotPlan& oh = onehots[f];
          uint32_t c = oh.codes[r];
          if (oh.interned[c] < 0) {
            // Intern on first occurrence in row order (not in a pre-pass
            // over dictionary entries) so FeatureDict ids stay identical
            // to the per-row scan's.
            const std::string& col = features[f]->schema().field(1).name;
            feature_name.assign(col);
            feature_name += '=';
            feature_name.append(oh.dict->dict().entry(c));
            oh.interned[c] = dict->Intern(feature_name);
          }
          row.Set(oh.interned[c], 1.0);
        } else {
          const std::string& col = features[f]->schema().field(1).name;
          feature_name.assign(col);
          feature_name += '=';
          onehot_readers[f].AppendTo(r, &feature_name);
          row.Set(dict->Intern(feature_name), 1.0);
        }
      }
      data->AddRow(row.view(), label, r, is_test);
    }
    return DataCollection::FromExamples(std::move(data));
  };
  return Operator(name, "AssembleExamples", params,
                  Phase::kDataPreprocessing, std::move(fn));
}

std::string LearnerConfig::Canonical() const {
  return StrFormat("model=%s,reg=%g,lr=%g,epochs=%d,seed=%llu",
                   model_type.c_str(), reg_param, learning_rate, epochs,
                   static_cast<unsigned long long>(seed));
}

Operator Learner(const std::string& name, const LearnerConfig& config) {
  OperatorFn fn = [config](const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    if (inputs.empty()) {
      return Status::InvalidArgument("Learner needs an examples input");
    }
    HELIX_ASSIGN_OR_RETURN(const ExamplesData* examples,
                           inputs[0]->AsExamples());
    std::shared_ptr<ModelData> model;
    if (config.model_type == "lr") {
      ml::LogisticRegressionOptions opts;
      opts.reg_param = config.reg_param;
      opts.learning_rate = config.learning_rate;
      opts.epochs = config.epochs;
      opts.seed = config.seed;
      HELIX_ASSIGN_OR_RETURN(model,
                             ml::TrainLogisticRegression(*examples, opts));
    } else if (config.model_type == "nb") {
      // Remote specs parse doubles with strtod, which accepts "nan" and
      // "inf"; mapped to the default smoothing below, they would train
      // silently.
      if (!std::isfinite(config.reg_param)) {
        return Status::InvalidArgument("nb reg_param must be finite");
      }
      ml::NaiveBayesOptions opts;
      // reg_param doubles as the smoothing pseudo-count for NB.
      opts.smoothing = config.reg_param > 0 ? config.reg_param : 1.0;
      HELIX_ASSIGN_OR_RETURN(model, ml::TrainNaiveBayes(*examples, opts));
    } else if (config.model_type == "perceptron") {
      ml::PerceptronOptions opts;
      opts.epochs = config.epochs;
      opts.seed = config.seed;
      opts.margin = config.reg_param;
      HELIX_ASSIGN_OR_RETURN(model,
                             ml::TrainAveragedPerceptron(*examples, opts));
    } else {
      return Status::InvalidArgument("unknown model type: " +
                                     config.model_type);
    }
    return DataCollection::FromModel(std::move(model));
  };
  return Operator(name, "Learner", config.Canonical(),
                  Phase::kMachineLearning, std::move(fn));
}

Operator Predictor(const std::string& name) {
  OperatorFn fn = [](const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    if (inputs.size() < 2) {
      return Status::InvalidArgument("Predictor needs (model, examples)");
    }
    HELIX_ASSIGN_OR_RETURN(const ModelData* model, inputs[0]->AsModel());
    HELIX_ASSIGN_OR_RETURN(const ExamplesData* examples,
                           inputs[1]->AsExamples());
    ColumnBuilder id_b(dataflow::ValueType::kInt);
    ColumnBuilder split_b(dataflow::ValueType::kString);
    ColumnBuilder gold_b(dataflow::ValueType::kDouble);
    ColumnBuilder prob_b(dataflow::ValueType::kDouble);
    int64_t n = examples->num_examples();
    id_b.Reserve(n);
    split_b.Reserve(n);
    gold_b.Reserve(n);
    prob_b.Reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      id_b.AppendInt(examples->id(i));
      split_b.AppendString(examples->is_test(i) ? "test" : "train");
      gold_b.AppendDouble(examples->label(i));
      prob_b.AppendDouble(
          ml::PredictProbability(*model, examples->features(i)));
    }
    HELIX_ASSIGN_OR_RETURN(
        auto table,
        TableData::FromColumns(
            Schema({
                {"id", dataflow::ValueType::kInt},
                {kSplitColumn, dataflow::ValueType::kString},
                {"gold", dataflow::ValueType::kDouble},
                {"prob", dataflow::ValueType::kDouble},
            }),
            {id_b.Finish(), split_b.Finish(), gold_b.Finish(),
             prob_b.Finish()}));
    return DataCollection::FromTable(std::move(table));
  };
  return Operator(name, "Predictor", "", Phase::kMachineLearning,
                  std::move(fn));
}

Operator Evaluator(const std::string& name,
                   const ml::BinaryMetricsOptions& options) {
  std::string params = StrFormat(
      "thr=%g,acc=%d,prf=%d,auc=%d,ll=%d,cc=%d", options.threshold,
      options.accuracy, options.precision_recall_f1, options.auc,
      options.log_loss, options.confusion_counts);
  OperatorFn fn = [options](const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    HELIX_ASSIGN_OR_RETURN(const TableData* preds, InputTable(inputs, 0));
    int split_col = preds->schema().IndexOf(kSplitColumn);
    int gold_col = preds->schema().IndexOf("gold");
    int prob_col = preds->schema().IndexOf("prob");
    if (split_col < 0 || gold_col < 0 || prob_col < 0) {
      return Status::InvalidArgument(
          "Evaluator expects (id, __split, gold, prob) predictions");
    }
    // Selection + gather, column-wise: pick test rows off the split
    // column, then read gold/prob through typed columns. Dictionary
    // split columns select by comparing codes against the interned
    // "test" entry — no per-row string compare.
    std::shared_ptr<const Column> split = preds->column(split_col);
    std::shared_ptr<const Column> gold = preds->column(gold_col);
    std::shared_ptr<const Column> prob = preds->column(prob_col);
    HELIX_ASSIGN_OR_RETURN(StringCells split_cells,
                           StringCells::Of(*preds, split_col));
    HELIX_ASSIGN_OR_RETURN(DoubleCells gold_cells,
                           DoubleCells::Of(*preds, gold_col));
    HELIX_ASSIGN_OR_RETURN(DoubleCells prob_cells,
                           DoubleCells::Of(*preds, prob_col));
    int64_t num_rows = preds->num_rows();
    dataflow::SelectionVector sel;
    const auto* split_dict = dynamic_cast<const DictionaryColumn*>(split.get());
    if (split_dict != nullptr && split_dict->null_count() == 0 &&
        num_rows > 0) {
      uint32_t test_code = UINT32_MAX;
      size_t entries = static_cast<size_t>(split_dict->dict().num_entries());
      for (size_t c = 0; c < entries; ++c) {
        if (split_dict->dict().entry(static_cast<uint32_t>(c)) == "test") {
          test_code = static_cast<uint32_t>(c);
          break;
        }
      }
      if (test_code != UINT32_MAX) {
        dataflow::simd::SelectCodesEqual(split_dict->codes(), num_rows,
                                         test_code, &sel);
      }
    } else {
      for (int64_t r = 0; r < num_rows; ++r) {
        HELIX_ASSIGN_OR_RETURN(std::string_view tag, split_cells.At(r));
        if (tag == "test") {
          sel.push_back(r);
        }
      }
    }
    std::vector<ml::ScoredLabel> rows;
    rows.resize(sel.size());
    const auto* gold_d = dynamic_cast<const DoubleColumn*>(gold.get());
    const auto* prob_d = dynamic_cast<const DoubleColumn*>(prob.get());
    if (gold_d != nullptr && gold_d->null_count() == 0 && prob_d != nullptr &&
        prob_d->null_count() == 0 && !sel.empty()) {
      std::vector<double> gold_v(sel.size());
      std::vector<double> prob_v(sel.size());
      dataflow::simd::GatherF64(gold_d->data(), sel.data(),
                                static_cast<int64_t>(sel.size()),
                                gold_v.data());
      dataflow::simd::GatherF64(prob_d->data(), sel.data(),
                                static_cast<int64_t>(sel.size()),
                                prob_v.data());
      for (size_t i = 0; i < sel.size(); ++i) {
        rows[i] = ml::ScoredLabel{gold_v[i], prob_v[i]};
      }
    } else {
      for (size_t i = 0; i < sel.size(); ++i) {
        HELIX_ASSIGN_OR_RETURN(rows[i].gold, gold_cells.At(sel[i]));
        HELIX_ASSIGN_OR_RETURN(rows[i].prob, prob_cells.At(sel[i]));
      }
    }
    HELIX_ASSIGN_OR_RETURN(auto metrics,
                           ml::ComputeBinaryMetrics(rows, options));
    return DataCollection::FromMetrics(
        std::make_shared<MetricsData>(std::move(metrics)));
  };
  return Operator(name, "Evaluator", params, Phase::kPostprocessing,
                  std::move(fn));
}

Operator Reducer(const std::string& name, Phase phase, int udf_version,
                 OperatorFn fn) {
  Operator op(name, "Reducer", "udf", phase, std::move(fn));
  op.SetUdfVersion(udf_version);
  return op;
}

Operator CorpusSource(const std::string& name, const std::string& path) {
  OperatorFn fn = [path](const std::vector<const DataCollection*>&)
      -> Result<DataCollection> {
    HELIX_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
    HELIX_ASSIGN_OR_RETURN(DataCollection collection,
                           DataCollection::DeserializeFromString(data));
    if (collection.kind() != dataflow::PayloadKind::kText) {
      return Status::InvalidArgument("corpus file is not a text collection");
    }
    return collection;
  };
  return Operator(name, "CorpusSource", "path=" + path,
                  Phase::kDataPreprocessing, std::move(fn));
}

Operator SentenceTokenizer(const std::string& name) {
  OperatorFn fn = [](const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    HELIX_ASSIGN_OR_RETURN(const TextData* corpus, InputText(inputs, 0));
    ColumnBuilder doc_b(dataflow::ValueType::kInt);
    ColumnBuilder tok_b(dataflow::ValueType::kInt);
    ColumnBuilder text_b(dataflow::ValueType::kString);
    ColumnBuilder begin_b(dataflow::ValueType::kInt);
    ColumnBuilder end_b(dataflow::ValueType::kInt);
    ColumnBuilder gold_b(dataflow::ValueType::kInt);
    for (int64_t d = 0; d < corpus->num_docs(); ++d) {
      const dataflow::Document& doc = corpus->doc(d);
      std::vector<nlp::Token> tokens = nlp::Tokenize(doc.text);
      std::vector<bool> labels =
          nlp::TokenLabelsFromSpans(tokens, doc.spans);
      for (size_t t = 0; t < tokens.size(); ++t) {
        doc_b.AppendInt(d);
        tok_b.AppendInt(static_cast<int64_t>(t));
        text_b.AppendString(tokens[t].text);
        begin_b.AppendInt(int64_t{tokens[t].begin});
        end_b.AppendInt(int64_t{tokens[t].end});
        gold_b.AppendInt(int64_t{labels[t] ? 1 : 0});
      }
    }
    HELIX_ASSIGN_OR_RETURN(
        auto table,
        TableData::FromColumns(Schema({
                                   {"doc", dataflow::ValueType::kInt},
                                   {"tok", dataflow::ValueType::kInt},
                                   {"text", dataflow::ValueType::kString},
                                   {"begin", dataflow::ValueType::kInt},
                                   {"end", dataflow::ValueType::kInt},
                                   {"gold", dataflow::ValueType::kInt},
                               }),
                               {doc_b.Finish(), tok_b.Finish(),
                                text_b.Finish(), begin_b.Finish(),
                                end_b.Finish(), gold_b.Finish()}));
    return DataCollection::FromTable(std::move(table));
  };
  return Operator(name, "SentenceTokenizer", "", Phase::kDataPreprocessing,
                  std::move(fn));
}

namespace {

// Reconstructs per-document token vectors (plus gold labels and global row
// ids) from a token table.
struct DocTokens {
  std::vector<nlp::Token> tokens;
  std::vector<bool> gold;
  std::vector<int64_t> row_ids;
};

Result<std::vector<DocTokens>> GroupTokensByDoc(const TableData& table) {
  int doc_col = table.schema().IndexOf("doc");
  int text_col = table.schema().IndexOf("text");
  int begin_col = table.schema().IndexOf("begin");
  int end_col = table.schema().IndexOf("end");
  int gold_col = table.schema().IndexOf("gold");
  if (doc_col < 0 || text_col < 0 || begin_col < 0 || end_col < 0 ||
      gold_col < 0) {
    return Status::InvalidArgument("not a token table: " +
                                   table.schema().ToString());
  }
  HELIX_ASSIGN_OR_RETURN(IntCells doc_c, IntCells::Of(table, doc_col));
  HELIX_ASSIGN_OR_RETURN(StringCells text_c, StringCells::Of(table, text_col));
  HELIX_ASSIGN_OR_RETURN(IntCells begin_c, IntCells::Of(table, begin_col));
  HELIX_ASSIGN_OR_RETURN(IntCells end_c, IntCells::Of(table, end_col));
  HELIX_ASSIGN_OR_RETURN(IntCells gold_c, IntCells::Of(table, gold_col));
  std::vector<DocTokens> docs;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    HELIX_ASSIGN_OR_RETURN(int64_t d, doc_c.At(r));
    HELIX_ASSIGN_OR_RETURN(std::string_view text, text_c.At(r));
    HELIX_ASSIGN_OR_RETURN(int64_t begin, begin_c.At(r));
    HELIX_ASSIGN_OR_RETURN(int64_t end, end_c.At(r));
    HELIX_ASSIGN_OR_RETURN(int64_t gold, gold_c.At(r));
    if (d < 0) {
      return Status::InvalidArgument("negative doc index");
    }
    if (static_cast<size_t>(d) >= docs.size()) {
      docs.resize(static_cast<size_t>(d) + 1);
    }
    DocTokens& doc = docs[static_cast<size_t>(d)];
    doc.tokens.push_back(nlp::Token{std::string(text),
                                    static_cast<int32_t>(begin),
                                    static_cast<int32_t>(end)});
    doc.gold.push_back(gold != 0);
    doc.row_ids.push_back(r);
  }
  return docs;
}

}  // namespace

Operator TokenFeaturizer(const std::string& name,
                         const nlp::TokenFeatureOptions& options,
                         double train_frac) {
  std::string params = StrFormat("feat=%s,train=%g",
                                 options.Canonical().c_str(), train_frac);
  OperatorFn fn = [options, train_frac](
                      const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    HELIX_ASSIGN_OR_RETURN(const TableData* table, InputTable(inputs, 0));
    HELIX_ASSIGN_OR_RETURN(std::vector<DocTokens> docs,
                           GroupTokensByDoc(*table));
    int64_t split_point = static_cast<int64_t>(
        static_cast<double>(docs.size()) * train_frac);
    auto data = std::make_shared<ExamplesData>();
    data->Reserve(table->num_rows(), 0);
    dataflow::SparseVector row;
    for (size_t d = 0; d < docs.size(); ++d) {
      const DocTokens& doc = docs[d];
      bool is_test = static_cast<int64_t>(d) >= split_point;
      for (size_t t = 0; t < doc.tokens.size(); ++t) {
        row.Clear();
        nlp::ExtractTokenFeatures(doc.tokens, t, options,
                                  data->mutable_dict(), &row);
        data->AddRow(row.view(), doc.gold[t] ? 1.0 : 0.0, doc.row_ids[t],
                     is_test);
      }
    }
    return DataCollection::FromExamples(std::move(data));
  };
  return Operator(name, "TokenFeaturizer", params,
                  Phase::kDataPreprocessing, std::move(fn));
}

Operator MentionDecoder(const std::string& name,
                        const nlp::MentionDecoderOptions& options) {
  std::string params =
      StrFormat("thr=%g,label=%s,min=%d,max=%d", options.threshold,
                options.label.c_str(), options.min_tokens,
                options.max_tokens);
  OperatorFn fn = [options](const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    HELIX_ASSIGN_OR_RETURN(const TableData* tokens, InputTable(inputs, 0));
    HELIX_ASSIGN_OR_RETURN(const TableData* preds, InputTable(inputs, 1));
    HELIX_ASSIGN_OR_RETURN(std::vector<DocTokens> docs,
                           GroupTokensByDoc(*tokens));
    int id_col = preds->schema().IndexOf("id");
    int prob_col = preds->schema().IndexOf("prob");
    if (id_col < 0 || prob_col < 0) {
      return Status::InvalidArgument(
          "MentionDecoder expects a predictions table with (id, prob)");
    }
    // prob per global token-row id.
    HELIX_ASSIGN_OR_RETURN(IntCells ids, IntCells::Of(*preds, id_col));
    HELIX_ASSIGN_OR_RETURN(DoubleCells pred_probs,
                           DoubleCells::Of(*preds, prob_col));
    std::vector<double> probs(static_cast<size_t>(tokens->num_rows()), 0.0);
    for (int64_t r = 0; r < preds->num_rows(); ++r) {
      HELIX_ASSIGN_OR_RETURN(int64_t id, ids.At(r));
      if (id < 0 || id >= tokens->num_rows()) {
        return Status::InvalidArgument("prediction id out of range");
      }
      HELIX_ASSIGN_OR_RETURN(probs[static_cast<size_t>(id)],
                             pred_probs.At(r));
    }
    auto decoded = std::make_shared<TextData>();
    for (size_t d = 0; d < docs.size(); ++d) {
      const DocTokens& doc = docs[d];
      std::vector<double> doc_probs;
      doc_probs.reserve(doc.tokens.size());
      for (int64_t row : doc.row_ids) {
        doc_probs.push_back(probs[static_cast<size_t>(row)]);
      }
      dataflow::Document out;
      out.id = StrFormat("doc-%05zu", d);
      out.spans = nlp::DecodeMentions(doc.tokens, doc_probs, options);
      decoded->AddDoc(std::move(out));
    }
    return DataCollection::FromText(std::move(decoded));
  };
  return Operator(name, "MentionDecoder", params, Phase::kPostprocessing,
                  std::move(fn));
}

Operator SpanEvaluator(const std::string& name, double train_frac) {
  std::string params = StrFormat("train=%g", train_frac);
  OperatorFn fn = [train_frac](
                      const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    HELIX_ASSIGN_OR_RETURN(const TextData* corpus, InputText(inputs, 0));
    HELIX_ASSIGN_OR_RETURN(const TextData* decoded, InputText(inputs, 1));
    if (decoded->num_docs() != corpus->num_docs()) {
      return Status::InvalidArgument(
          "decoded mentions disagree with corpus on document count");
    }
    int64_t split_point = static_cast<int64_t>(
        static_cast<double>(corpus->num_docs()) * train_frac);
    std::vector<std::vector<dataflow::Span>> gold;
    std::vector<std::vector<dataflow::Span>> pred;
    for (int64_t d = split_point; d < corpus->num_docs(); ++d) {
      gold.push_back(corpus->doc(d).spans);
      pred.push_back(decoded->doc(d).spans);
    }
    auto metrics = std::make_shared<MetricsData>(
        ml::ComputeCorpusSpanMetrics(gold, pred));
    return DataCollection::FromMetrics(std::move(metrics));
  };
  return Operator(name, "SpanEvaluator", params, Phase::kPostprocessing,
                  std::move(fn));
}

Operator Synthetic(const std::string& name, Phase phase, int64_t tag,
                   SyntheticCosts costs, int64_t payload_bytes) {
  OperatorFn fn = [tag, payload_bytes](
                      const std::vector<const DataCollection*>& inputs)
      -> Result<DataCollection> {
    // Output depends on the tag and on all inputs, so upstream edits
    // change this node's fingerprint (needed by plan-invariance tests).
    ColumnBuilder v_b(dataflow::ValueType::kInt);
    v_b.AppendInt(tag);
    for (const DataCollection* in : inputs) {
      v_b.AppendInt(static_cast<int64_t>(in->Fingerprint()));
    }
    HELIX_ASSIGN_OR_RETURN(
        auto table,
        TableData::FromColumns(Schema({{"v", dataflow::ValueType::kInt}}),
                               {v_b.Finish()}));
    if (payload_bytes > 0) {
      // Pad with deterministic filler rows (~1 KiB each) so the serialized
      // size approximates the declared payload.
      int64_t rows = payload_bytes / 1024;
      ColumnBuilder padded_v_b(dataflow::ValueType::kInt);
      ColumnBuilder pad_b(dataflow::ValueType::kString);
      padded_v_b.Reserve(rows + 1);
      pad_b.Reserve(rows + 1);
      uint64_t fingerprint = table->Fingerprint();
      padded_v_b.AppendInt(fingerprint != 0
                               ? static_cast<int64_t>(fingerprint)
                               : tag);
      pad_b.AppendString("");
      const std::string filler(1024, 'p');
      for (int64_t i = 0; i < rows; ++i) {
        padded_v_b.AppendInt(i);
        pad_b.AppendString(filler);
      }
      HELIX_ASSIGN_OR_RETURN(
          auto padded,
          TableData::FromColumns(
              Schema({{"v", dataflow::ValueType::kInt},
                      {"pad", dataflow::ValueType::kString}}),
              {padded_v_b.Finish(), pad_b.Finish()}));
      return DataCollection::FromTable(std::move(padded));
    }
    return DataCollection::FromTable(std::move(table));
  };
  // Declared costs are part of a synthetic operator's identity: two
  // synthetic nodes simulating different work must not be CSE-merged even
  // when their outputs coincide.
  Operator op(name, "Synthetic",
              StrFormat("tag=%lld,bytes=%lld,c=%lld,l=%lld,w=%lld",
                        static_cast<long long>(tag),
                        static_cast<long long>(payload_bytes),
                        static_cast<long long>(costs.compute_micros),
                        static_cast<long long>(costs.load_micros),
                        static_cast<long long>(costs.write_micros)),
              phase, std::move(fn));
  op.SetSyntheticCosts(costs);
  return op;
}

}  // namespace ops
}  // namespace core
}  // namespace helix
