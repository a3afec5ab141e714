// Benchmark: row-loop vs columnar dataflow kernels.
//
// Workload: a synthetic census table (all-string columns, the CSV
// ingestion shape) at 10k / 100k / 1M rows. Three kernels, each written
// twice with identical semantics:
//
//   filter    — keep rows with hours_per_week > 40;
//   derive    — bucketize age into 10 labeled bins (the Bucketizer scan);
//   featurize — numeric-detect + standardize age/hours, one-hot
//               education/occupation into sparse vectors (the
//               AssembleExamples featurization scan).
//
// The "row" variant is a reference loop that materializes one Value per
// cell (Column::GetValue) and appends output cells through the generic
// ColumnBuilder::Append — what the retired row store's operators paid per
// cell, plus nothing the columnar engine can skip for them. The "col"
// variant reads typed columns the way the operators now do:
// dictionary-encoded string columns are processed per distinct entry and
// broadcast per row through the simd.h kernels; plain string columns fall
// back to arena views. Outputs are cross-checked between the two
// variants, then per-kernel and whole-pipeline timings are reported as
// aligned rows and machine-readable JSON lines (grep '^json,'), same
// convention as the other self-driving benches.
//
// A second section times the kernels themselves (gather,
// featurize/standardize, dict-encode) and reports rows/sec under the
// runtime-selected ISA.
//
// A third section times the learner: logistic regression at 20 epochs
// over the featurize kernel's census rows at 10k and 100k rows, reported
// as example visits/sec. The learner is the floor of every ML-edit
// iteration, so a regression in it shows up here.
//
// A fourth section times CSV ingest: CsvScanner over FileSource's output
// for census files at 60k rows (the census_edit shape), reported as MB/s
// of scanned file bytes and rows/sec. The file read itself (FileSource)
// is outside the timed region, as in perfbench's csv_scan probe.
//
// Run: ./bench_dataflow [--rows=10000,100000,1000000]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/json.h"
#include "common/strings.h"
#include "core/std_ops.h"
#include "dataflow/data_collection.h"
#include "dataflow/features.h"
#include "dataflow/simd.h"
#include "datagen/census_gen.h"
#include "ml/logistic_regression.h"

namespace helix {
namespace bench {
namespace {

using dataflow::Column;
using dataflow::ColumnBuilder;
using dataflow::DictionaryColumn;
using dataflow::FeatureDict;
using dataflow::SelectionVector;
using dataflow::SparseVector;
using dataflow::StringColumn;
using dataflow::TableData;
using dataflow::Value;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const Column& Col(const TableData& t, const char* name) {
  auto col = t.Column(name);
  CheckOk(col.status(), "column lookup");
  return *col.value();
}

// String cell `r` of a kString column, in either of its two layouts.
std::string_view StringCell(const Column& col, int64_t r) {
  if (col.storage() == Column::Storage::kDictString) {
    return static_cast<const DictionaryColumn&>(col).view(r);
  }
  return static_cast<const StringColumn&>(col).view(r);
}

// --- filter: hours_per_week > 40 ---------------------------------------------

int64_t FilterRowLoop(const TableData& t, int hours_col) {
  // Reference path: materialize each cell, parse, and copy survivors cell
  // by cell — how every operator in the row store moved data.
  int cols = t.schema().num_fields();
  std::vector<const Column*> in;
  std::vector<ColumnBuilder> out;
  for (int c = 0; c < cols; ++c) {
    in.push_back(t.column(c).get());
    out.emplace_back(t.schema().field(c).type);
  }
  const Column& hours_in = *in[static_cast<size_t>(hours_col)];
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    double hours = 0;
    if (!ParseDouble(hours_in.GetValue(r).AsString(), &hours) ||
        hours <= 40) {
      continue;
    }
    for (int c = 0; c < cols; ++c) {
      CheckOk(out[static_cast<size_t>(c)].Append(
                  in[static_cast<size_t>(c)]->GetValue(r)),
              "filter append");
    }
  }
  std::vector<std::shared_ptr<const Column>> sealed;
  for (ColumnBuilder& b : out) {
    sealed.push_back(b.Finish());
  }
  auto table = TableData::FromColumns(t.schema(), std::move(sealed));
  CheckOk(table.status(), "filter table");
  return table.value()->num_rows();
}

int64_t FilterColumnar(const TableData& t, const Column& hours) {
  SelectionVector sel;
  const auto* dict = dynamic_cast<const DictionaryColumn*>(&hours);
  if (dict != nullptr && dict->null_count() == 0 && t.num_rows() > 0) {
    // Parse each distinct entry once, then select rows by code — per-row
    // work is one table lookup.
    size_t d = static_cast<size_t>(dict->dict().num_entries());
    std::vector<uint8_t> keep(d, 0);
    for (size_t c = 0; c < d; ++c) {
      double h = 0;
      if (ParseDouble(dict->dict().entry(static_cast<uint32_t>(c)), &h) &&
          h > 40) {
        keep[c] = 1;
      }
    }
    const uint32_t* codes = dict->codes();
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      if (keep[codes[r]] != 0) {
        sel.push_back(r);
      }
    }
  } else {
    const auto* s = dynamic_cast<const StringColumn*>(&hours);
    if (s == nullptr) {
      std::fprintf(stderr, "FATAL: filter column is not string-typed\n");
      std::abort();
    }
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      double h = 0;
      if (ParseDouble(s->view(r), &h) && h > 40) {
        sel.push_back(r);
      }
    }
  }
  return t.Filter(sel)->num_rows();
}

// --- derive: bucketize age into 10 bins --------------------------------------

constexpr int kBins = 10;

uint64_t DeriveRowLoop(const TableData& t, int age_col) {
  std::vector<double> parsed(static_cast<size_t>(t.num_rows()));
  const Column& age = *t.column(age_col);
  double lo = 0;
  double hi = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    double x = 0;
    ParseDouble(age.GetValue(r).AsString(), &x);
    parsed[static_cast<size_t>(r)] = x;
    lo = r == 0 ? x : std::min(lo, x);
    hi = r == 0 ? x : std::max(hi, x);
  }
  double width = std::max((hi - lo) / kBins, 1e-9);
  ColumnBuilder bucket(dataflow::ValueType::kString);
  bucket.Reserve(t.num_rows());
  uint64_t check = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    int b = std::clamp(
        static_cast<int>((parsed[static_cast<size_t>(r)] - lo) / width), 0,
        kBins - 1);
    CheckOk(bucket.Append(Value(StrFormat("b%d", b))), "derive append");
    check += static_cast<uint64_t>(b);
  }
  bucket.Finish();
  return check;
}

uint64_t DeriveColumnar(const TableData& t, const Column& age) {
  int64_t n = t.num_rows();
  std::vector<double> parsed(static_cast<size_t>(n));
  const auto* dict = dynamic_cast<const DictionaryColumn*>(&age);
  const uint32_t* codes = nullptr;
  std::vector<double> per_code;
  if (dict != nullptr && dict->null_count() == 0 && n > 0) {
    codes = dict->codes();
    size_t d = static_cast<size_t>(dict->dict().num_entries());
    per_code.assign(d, 0.0);
    for (size_t c = 0; c < d; ++c) {
      ParseDouble(dict->dict().entry(static_cast<uint32_t>(c)), &per_code[c]);
    }
    dataflow::simd::ExpandCodes(codes, n, per_code.data(), parsed.data());
  } else {
    const auto* s = dynamic_cast<const StringColumn*>(&age);
    if (s == nullptr) {
      std::fprintf(stderr, "FATAL: derive column is not string-typed\n");
      std::abort();
    }
    for (int64_t r = 0; r < n; ++r) {
      double x = 0;
      ParseDouble(s->view(r), &x);
      parsed[static_cast<size_t>(r)] = x;
    }
  }
  double lo = 0;
  double hi = 0;
  for (int64_t r = 0; r < n; ++r) {
    double x = parsed[static_cast<size_t>(r)];
    lo = r == 0 ? x : std::min(lo, x);
    hi = r == 0 ? x : std::max(hi, x);
  }
  double width = std::max((hi - lo) / kBins, 1e-9);
  std::vector<std::string> labels;
  for (int b = 0; b < kBins; ++b) {
    labels.push_back(StrFormat("b%d", b));
  }
  ColumnBuilder bucket(dataflow::ValueType::kString);
  bucket.Reserve(n);
  uint64_t check = 0;
  if (codes != nullptr) {
    // Bucketize per distinct entry, broadcast per row through the codes.
    std::vector<int> bucket_of(per_code.size(), 0);
    for (size_t c = 0; c < per_code.size(); ++c) {
      bucket_of[c] =
          std::clamp(static_cast<int>((per_code[c] - lo) / width), 0,
                     kBins - 1);
    }
    for (int64_t r = 0; r < n; ++r) {
      int b = bucket_of[codes[r]];
      bucket.AppendString(labels[static_cast<size_t>(b)]);
      check += static_cast<uint64_t>(b);
    }
  } else {
    for (int64_t r = 0; r < n; ++r) {
      int b = std::clamp(
          static_cast<int>((parsed[static_cast<size_t>(r)] - lo) / width), 0,
          kBins - 1);
      bucket.AppendString(labels[static_cast<size_t>(b)]);
      check += static_cast<uint64_t>(b);
    }
  }
  auto out = TableData::FromColumns(dataflow::Schema::AllStrings({"bucket"}),
                                    {bucket.Finish()});
  CheckOk(out.status(), "derive table");
  return check;
}

// --- featurize: standardize numerics, one-hot categoricals -------------------

const char* const kNumericCols[] = {"age", "hours_per_week"};
const char* const kOneHotCols[] = {"education", "occupation"};

double FeaturizeRowLoop(const TableData& t,
                        const std::vector<int>& numeric_idx,
                        const std::vector<int>& onehot_idx) {
  FeatureDict dict;
  std::vector<const Column*> numeric;
  for (int c : numeric_idx) {
    numeric.push_back(t.column(c).get());
  }
  std::vector<const Column*> onehot;
  for (int c : onehot_idx) {
    onehot.push_back(t.column(c).get());
  }
  // Pass 1: means/stddevs off display strings, like the row-wise scan.
  std::vector<double> mean(numeric_idx.size(), 0);
  std::vector<double> stddev(numeric_idx.size(), 1);
  std::vector<int32_t> index(numeric_idx.size(), 0);
  for (size_t f = 0; f < numeric_idx.size(); ++f) {
    double sum = 0;
    double sum_sq = 0;
    for (int64_t r = 0; r < t.num_rows(); ++r) {
      double x = 0;
      ParseDouble(numeric[f]->GetValue(r).ToDisplayString(), &x);
      sum += x;
      sum_sq += x * x;
    }
    mean[f] = sum / static_cast<double>(t.num_rows());
    double variance =
        sum_sq / static_cast<double>(t.num_rows()) - mean[f] * mean[f];
    stddev[f] = variance > 1e-12 ? std::sqrt(variance) : 1.0;
    index[f] = dict.Intern(t.schema().field(numeric_idx[f]).name);
  }
  double check = 0;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    SparseVector features;
    for (size_t f = 0; f < numeric_idx.size(); ++f) {
      double x = 0;
      ParseDouble(numeric[f]->GetValue(r).ToDisplayString(), &x);
      features.Set(index[f], (x - mean[f]) / stddev[f]);
    }
    for (size_t f = 0; f < onehot_idx.size(); ++f) {
      features.Set(
          dict.Intern(t.schema().field(onehot_idx[f]).name + "=" +
                      onehot[f]->GetValue(r).ToDisplayString()),
          1.0);
    }
    check += features.Get(index[0]);
  }
  return check;
}

// With `out` set, each row also gets the education x occupation cross
// and is appended there as a learner example: label from `target`, every
// fifth row held out.
double FeaturizeColumnar(const TableData& t,
                         const std::vector<int>& numeric_idx,
                         const std::vector<int>& onehot_idx,
                         dataflow::ExamplesData* out = nullptr) {
  FeatureDict local_dict;
  FeatureDict& dict = out != nullptr ? *out->mutable_dict() : local_dict;
  int64_t n = t.num_rows();
  // Numerics: parse per distinct entry when dictionary-encoded, broadcast
  // with ExpandCodes, then standardize the whole array in place.
  std::vector<std::vector<double>> parsed(numeric_idx.size());
  std::vector<int32_t> index(numeric_idx.size(), 0);
  for (size_t f = 0; f < numeric_idx.size(); ++f) {
    parsed[f].resize(static_cast<size_t>(n));
    const Column& col = *t.column(numeric_idx[f]);
    const auto* dcol = dynamic_cast<const DictionaryColumn*>(&col);
    if (dcol != nullptr && dcol->null_count() == 0 && n > 0) {
      size_t d = static_cast<size_t>(dcol->dict().num_entries());
      std::vector<double> per_code(d, 0.0);
      for (size_t c = 0; c < d; ++c) {
        ParseDouble(dcol->dict().entry(static_cast<uint32_t>(c)),
                    &per_code[c]);
      }
      dataflow::simd::ExpandCodes(dcol->codes(), n, per_code.data(),
                                  parsed[f].data());
    } else {
      const auto* s = dynamic_cast<const StringColumn*>(&col);
      if (s == nullptr) {
        std::fprintf(stderr, "FATAL: numeric column is not string-typed\n");
        std::abort();
      }
      for (int64_t r = 0; r < n; ++r) {
        double x = 0;
        ParseDouble(s->view(r), &x);
        parsed[f][static_cast<size_t>(r)] = x;
      }
    }
    double sum = 0;
    double sum_sq = 0;
    dataflow::simd::SumAndSumSq(parsed[f].data(), n, &sum, &sum_sq);
    double mean = sum / static_cast<double>(n);
    double variance = sum_sq / static_cast<double>(n) - mean * mean;
    double stddev = variance > 1e-12 ? std::sqrt(variance) : 1.0;
    index[f] = dict.Intern(t.schema().field(numeric_idx[f]).name);
    dataflow::simd::Standardize(parsed[f].data(), n, mean, stddev,
                                parsed[f].data());
  }
  // One-hots: dictionary columns intern one feature id per distinct
  // entry, lazily on first occurrence so FeatureDict ids match the
  // row-wise scan.
  struct OneHot {
    const DictionaryColumn* dict = nullptr;
    const uint32_t* codes = nullptr;
    const StringColumn* str = nullptr;
    std::vector<int32_t> interned;
  };
  std::vector<OneHot> onehots(onehot_idx.size());
  for (size_t f = 0; f < onehot_idx.size(); ++f) {
    const Column& col = *t.column(onehot_idx[f]);
    const auto* dcol = dynamic_cast<const DictionaryColumn*>(&col);
    if (dcol != nullptr && dcol->null_count() == 0) {
      onehots[f].dict = dcol;
      onehots[f].codes = dcol->codes();
      onehots[f].interned.assign(
          static_cast<size_t>(dcol->dict().num_entries()), -1);
    } else {
      onehots[f].str = dynamic_cast<const StringColumn*>(&col);
      if (onehots[f].str == nullptr) {
        std::fprintf(stderr, "FATAL: one-hot column is not string-typed\n");
        std::abort();
      }
    }
  }
  const Column& edu = *t.column(onehot_idx[0]);
  const Column& occ = *t.column(onehot_idx[1]);
  const Column& target = Col(t, "target");
  double check = 0;
  std::string feature_name;
  for (int64_t r = 0; r < n; ++r) {
    SparseVector features;
    for (size_t f = 0; f < numeric_idx.size(); ++f) {
      features.Set(index[f], parsed[f][static_cast<size_t>(r)]);
    }
    for (size_t f = 0; f < onehots.size(); ++f) {
      OneHot& oh = onehots[f];
      if (oh.dict != nullptr) {
        uint32_t c = oh.codes[r];
        if (oh.interned[c] < 0) {
          feature_name.assign(t.schema().field(onehot_idx[f]).name);
          feature_name += '=';
          feature_name.append(oh.dict->dict().entry(c));
          oh.interned[c] = dict.Intern(feature_name);
        }
        features.Set(oh.interned[c], 1.0);
      } else {
        feature_name.assign(t.schema().field(onehot_idx[f]).name);
        feature_name += '=';
        feature_name.append(oh.str->view(r));
        features.Set(dict.Intern(feature_name), 1.0);
      }
    }
    check += features.Get(index[0]);
    if (out != nullptr) {
      // The census app's income examples also carry the eduXocc cross,
      // which brings the weight vector to a few hundred features.
      feature_name.assign("eduXocc=");
      feature_name += StringCell(edu, r);
      feature_name += " x ";
      feature_name += StringCell(occ, r);
      features.Set(dict.Intern(feature_name), 1.0);
      bool over_50k = StringCell(target, r) == ">50K";
      out->AddRow(features.view(), over_50k ? 1.0 : 0.0, r,
                  /*is_test=*/r % 5 == 4);
    }
  }
  return check;
}

// --- harness -----------------------------------------------------------------

template <typename Fn>
double BestOfMs(int reps, Fn&& fn) {
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    double t0 = NowMs();
    fn();
    best = std::min(best, NowMs() - t0);
  }
  return best;
}

void ReportKernel(const char* kernel, int64_t rows, double row_ms,
                  double col_ms) {
  double speedup = col_ms > 0 ? row_ms / col_ms : 0;
  std::printf("%-10s %9lld rows   row %9.2f ms   col %9.2f ms   %5.2fx\n",
              kernel, static_cast<long long>(rows), row_ms, col_ms, speedup);
  JsonWriter json;
  json.BeginObject()
      .KV("bench", "dataflow")
      .KV("kernel", kernel)
      .KV("rows", rows)
      .KV("row_ms", row_ms)
      .KV("col_ms", col_ms)
      .KV("speedup", speedup)
      .EndObject();
  PrintJsonLine(json);
}

void RunAt(int64_t rows) {
  datagen::CensusGenOptions opts;
  opts.num_rows = rows;
  auto table = datagen::GenerateCensusTable(opts);
  int hours_col = table->schema().IndexOf("hours_per_week");
  int age_col = table->schema().IndexOf("age");
  std::vector<int> numeric_idx;
  std::vector<int> onehot_idx;
  for (const char* c : kNumericCols) {
    numeric_idx.push_back(table->schema().IndexOf(c));
  }
  for (const char* c : kOneHotCols) {
    onehot_idx.push_back(table->schema().IndexOf(c));
  }
  const Column& hours = Col(*table, "hours_per_week");
  const Column& age = Col(*table, "age");
  const int reps = rows >= 1000000 ? 2 : 3;

  // Cross-check semantics once before timing.
  int64_t kept_row = FilterRowLoop(*table, hours_col);
  int64_t kept_col = FilterColumnar(*table, hours);
  uint64_t derive_row = DeriveRowLoop(*table, age_col);
  uint64_t derive_col = DeriveColumnar(*table, age);
  double feat_row = FeaturizeRowLoop(*table, numeric_idx, onehot_idx);
  double feat_col = FeaturizeColumnar(*table, numeric_idx, onehot_idx);
  if (kept_row != kept_col || derive_row != derive_col ||
      feat_row != feat_col) {
    std::fprintf(stderr, "FATAL: row/columnar kernels disagree\n");
    std::abort();
  }

  double filter_row_ms =
      BestOfMs(reps, [&] { FilterRowLoop(*table, hours_col); });
  double filter_col_ms = BestOfMs(reps, [&] { FilterColumnar(*table, hours); });
  ReportKernel("filter", rows, filter_row_ms, filter_col_ms);

  double derive_row_ms = BestOfMs(reps, [&] { DeriveRowLoop(*table, age_col); });
  double derive_col_ms = BestOfMs(reps, [&] { DeriveColumnar(*table, age); });
  ReportKernel("derive", rows, derive_row_ms, derive_col_ms);

  double feat_row_ms = BestOfMs(
      reps, [&] { FeaturizeRowLoop(*table, numeric_idx, onehot_idx); });
  double feat_col_ms = BestOfMs(
      reps, [&] { FeaturizeColumnar(*table, numeric_idx, onehot_idx); });
  ReportKernel("featurize", rows, feat_row_ms, feat_col_ms);

  ReportKernel("pipeline", rows, filter_row_ms + derive_row_ms + feat_row_ms,
               filter_col_ms + derive_col_ms + feat_col_ms);
}

// --- kernel micro-benchmarks -------------------------------------------------

// `isa` is the path the timed kernel ran on: only GatherF64 has a vector
// body here, so the other rows always run scalar.
void ReportMicro(const char* kernel, int64_t rows, double ms,
                 const char* isa) {
  double rps = ms > 0 ? static_cast<double>(rows) * 1000.0 / ms : 0;
  std::printf("kernel/%-12s %9lld rows  %9.3f ms  %14.0f rows/s  [%s]\n",
              kernel, static_cast<long long>(rows), ms, rps, isa);
  JsonWriter json;
  json.BeginObject()
      .KV("bench", "dataflow")
      .KV("kernel", kernel)
      .KV("rows", rows)
      .KV("ms", ms)
      .KV("rows_per_sec", rps)
      .KV("isa", isa)
      .EndObject();
  PrintJsonLine(json);
}

void RunMicroKernels(int64_t rows) {
  const int reps = 5;
  size_t un = static_cast<size_t>(rows);
  // Deterministic synthetic inputs (splitmix-style LCG).
  std::vector<double> vals(un);
  std::vector<uint32_t> codes(un);
  uint64_t state = 42;
  for (size_t i = 0; i < un; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    vals[i] = static_cast<double>(state >> 11) *
              (1.0 / 9007199254740992.0);  // [0,1)
    codes[i] = static_cast<uint32_t>(state >> 32) & 63u;
  }

  SelectionVector sel;
  for (int64_t i = 0; i < rows; ++i) {
    if (vals[static_cast<size_t>(i)] > 0.5) {
      sel.push_back(i);
    }
  }
  std::vector<double> gathered(sel.size());
  double gather_ms = BestOfMs(reps, [&] {
    dataflow::simd::GatherF64(vals.data(), sel.data(),
                              static_cast<int64_t>(sel.size()),
                              gathered.data());
  });
  ReportMicro("simd_gather", static_cast<int64_t>(sel.size()), gather_ms,
              dataflow::simd::ActiveIsaName());

  std::vector<double> standardized(un);
  double feat_ms = BestOfMs(reps, [&] {
    dataflow::simd::Standardize(vals.data(), rows, 0.5, 0.2,
                                standardized.data());
  });
  ReportMicro("simd_featurize", rows, feat_ms, "scalar");

  // Dict-encode: intern 1M cells drawn from 64 distinct entries through
  // the ColumnBuilder's incremental dictionary.
  std::vector<std::string> cats;
  for (int c = 0; c < 64; ++c) {
    cats.push_back(StrFormat("category_%02d", c));
  }
  int64_t encoded_size = 0;
  double dict_ms = BestOfMs(reps, [&] {
    ColumnBuilder b(dataflow::ValueType::kString);
    b.Reserve(rows);
    for (size_t i = 0; i < un; ++i) {
      b.AppendString(cats[codes[i]]);
    }
    encoded_size += b.Finish()->SizeBytes();
  });
  (void)encoded_size;
  ReportMicro("dict_encode", rows, dict_ms, "scalar");
}

// --- learner throughput ------------------------------------------------------

void RunLearn(int64_t rows) {
  datagen::CensusGenOptions opts;
  opts.num_rows = rows;
  auto table = datagen::GenerateCensusTable(opts);
  std::vector<int> numeric_idx;
  std::vector<int> onehot_idx;
  for (const char* c : kNumericCols) {
    numeric_idx.push_back(table->schema().IndexOf(c));
  }
  for (const char* c : kOneHotCols) {
    onehot_idx.push_back(table->schema().IndexOf(c));
  }
  auto examples = std::make_shared<dataflow::ExamplesData>();
  FeaturizeColumnar(*table, numeric_idx, onehot_idx, examples.get());
  ml::LogisticRegressionOptions lr;  // the census Learner: LR, 20 epochs
  int64_t train = 0;
  for (int64_t i = 0; i < examples->num_examples(); ++i) {
    train += examples->is_test(i) ? 0 : 1;
  }
  // A memory-bound loop on a shared host: neighbours' cache and memory
  // traffic slow single runs by up to 3x, so take the best of 7.
  double ms = BestOfMs(7, [&] {
    CheckOk(ml::TrainLogisticRegression(*examples, lr).status(), "train");
  });
  double visits = static_cast<double>(train) * lr.epochs;
  double vps = ms > 0 ? visits * 1000.0 / ms : 0;
  std::printf(
      "learn      %9lld rows   %d features  %9.2f ms  %14.0f visits/s  "
      "[%s]\n",
      static_cast<long long>(rows), examples->num_features(), ms, vps,
      dataflow::simd::ActiveIsaName());
  JsonWriter json;
  json.BeginObject()
      .KV("bench", "dataflow")
      .KV("kernel", "learn")
      .KV("rows", rows)
      .KV("features", static_cast<int64_t>(examples->num_features()))
      .KV("nonzeros", examples->num_nonzeros())
      .KV("epochs", static_cast<int64_t>(lr.epochs))
      .KV("ms", ms)
      .KV("example_visits_per_sec", vps)
      .KV("isa", dataflow::simd::ActiveIsaName())
      .EndObject();
  PrintJsonLine(json);
}

// --- CSV ingest --------------------------------------------------------------

void RunCsvScan(int64_t rows) {
  TempWorkspace ws("helix-bench-csv");
  datagen::CensusGenOptions opts;
  opts.num_rows = rows;
  std::string train = ws.Path("train.csv");
  std::string test = ws.Path("test.csv");
  CheckOk(datagen::WriteCensusFiles(opts, train, test), "write census");
  dataflow::DataCollection data = ValueOrDie(
      core::ops::FileSource("data", train, test).Invoke({}), "source");
  core::Operator scanner =
      core::ops::CsvScanner("rows", datagen::CensusColumns());
  int64_t scanned_rows = 0;
  double ms = BestOfMs(7, [&] {
    dataflow::DataCollection out =
        ValueOrDie(scanner.Invoke({&data}), "scan");
    scanned_rows = ValueOrDie(out.AsTable(), "table")->num_rows();
  });
  if (scanned_rows != rows) {
    std::fprintf(stderr, "FATAL: csv_scan returned %lld of %lld rows\n",
                 static_cast<long long>(scanned_rows),
                 static_cast<long long>(rows));
    std::abort();
  }
  double mb = static_cast<double>(data.SizeBytes()) / 1e6;
  double mb_per_s = ms > 0 ? mb * 1000.0 / ms : 0;
  double rows_per_s = ms > 0 ? static_cast<double>(rows) * 1000.0 / ms : 0;
  std::printf("csv_scan   %9lld rows   %6.2f MB  %9.2f ms  %8.1f MB/s  "
              "%12.0f rows/s\n",
              static_cast<long long>(rows), mb, ms, mb_per_s, rows_per_s);
  JsonWriter json;
  json.BeginObject()
      .KV("bench", "dataflow")
      .KV("kernel", "csv_scan")
      .KV("rows", rows)
      .KV("mb", mb)
      .KV("ms", ms)
      .KV("mb_per_s", mb_per_s)
      .KV("rows_per_s", rows_per_s)
      .EndObject();
  PrintJsonLine(json);
}

}  // namespace
}  // namespace bench
}  // namespace helix

int main(int argc, char** argv) {
  std::vector<long long> row_counts = {10000, 100000, 1000000};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--rows=", 7) == 0) {
      row_counts.clear();
      for (const std::string& part :
           helix::Split(std::string(argv[i] + 7), ',')) {
        if (!part.empty()) {
          row_counts.push_back(std::atoll(part.c_str()));
        }
      }
    }
  }
  std::printf("bench_dataflow: row-loop vs columnar kernels [isa=%s]\n",
              helix::dataflow::simd::ActiveIsaName());
  for (long long rows : row_counts) {
    helix::bench::RunAt(rows);
  }
  helix::bench::RunMicroKernels(row_counts.empty() ? 1000000
                                                   : row_counts.back());
  // 30k rows is the service's census shape, 60k the census_edit shape.
  for (int64_t rows : {10000, 30000, 60000, 100000}) {
    helix::bench::RunLearn(rows);
  }
  helix::bench::RunCsvScan(60000);
  helix::bench::WriteBenchSummary("dataflow");
  return 0;
}
