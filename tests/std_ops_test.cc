// Direct unit tests for the standard operator library (core/std_ops):
// each DSL operator's semantics, parameter canonicalization, and error
// paths, exercised outside the executor.
#include <gtest/gtest.h>

#include <limits>
#include <random>

#include "common/csv.h"
#include "common/file_util.h"
#include "common/strings.h"
#include "core/std_ops.h"
#include "datagen/census_gen.h"
#include "table_util.h"

namespace helix {
namespace core {
namespace {

namespace ops = core::ops;
using dataflow::Cell;
using dataflow::DataCollection;
using dataflow::Schema;
using dataflow::TableData;
using dataflow::Value;

Result<DataCollection> Invoke(const Operator& op,
                              std::vector<DataCollection> inputs) {
  std::vector<const DataCollection*> ptrs;
  ptrs.reserve(inputs.size());
  for (const DataCollection& in : inputs) {
    ptrs.push_back(&in);
  }
  return op.Invoke(ptrs);
}

DataCollection FeatureTable(const std::string& column,
                            std::vector<std::pair<std::string, std::string>>
                                split_and_value) {
  std::vector<dataflow::Row> rows;
  for (auto& [split, value] : split_and_value) {
    rows.push_back({Value(split), Value(value)});
  }
  return DataCollection::FromTable(dataflow::MakeTable(
      Schema::AllStrings({ops::kSplitColumn, column}), rows));
}

// --- FileSource / CSVScanner --------------------------------------------------

class StdOpsFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-stdops");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }
  std::string dir_;
};

TEST_F(StdOpsFileTest, FileSourceTagsSplits) {
  std::string train = JoinPath(dir_, "train.csv");
  std::string test = JoinPath(dir_, "test.csv");
  ASSERT_TRUE(WriteStringToFile(train, "a,1\nb,2\n").ok());
  ASSERT_TRUE(WriteStringToFile(test, "c,3\n").ok());
  auto out = Invoke(ops::FileSource("data", train, test), {});
  ASSERT_TRUE(out.ok());
  // One blob row per source file, tagged with its split.
  const TableData* t = out.value().AsTable().value();
  ASSERT_EQ(t->num_rows(), 2);
  EXPECT_EQ(Cell(*t, 0, 0).AsString(), "train");
  EXPECT_EQ(Cell(*t, 0, 1).AsString(), "a,1\nb,2\n");
  EXPECT_EQ(Cell(*t, 1, 0).AsString(), "test");
  EXPECT_EQ(Cell(*t, 1, 1).AsString(), "c,3\n");
}

TEST_F(StdOpsFileTest, CsvScannerSplitsBlobIntoTaggedRows) {
  std::string train = JoinPath(dir_, "train.csv");
  std::string test = JoinPath(dir_, "test.csv");
  ASSERT_TRUE(WriteStringToFile(train, "a,1\n\nb,2\n").ok());
  ASSERT_TRUE(WriteStringToFile(test, "c,3").ok());  // no trailing newline
  auto data = Invoke(ops::FileSource("d", train, test), {});
  ASSERT_TRUE(data.ok());
  auto rows = Invoke(ops::CsvScanner("rows", {"k", "v"}), {data.value()});
  ASSERT_TRUE(rows.ok());
  const TableData* t = rows.value().AsTable().value();
  ASSERT_EQ(t->num_rows(), 3);  // empty line skipped
  EXPECT_EQ(Cell(*t, 0, 0).AsString(), "train");
  EXPECT_EQ(Cell(*t, 1, 1).AsString(), "b");
  EXPECT_EQ(Cell(*t, 2, 0).AsString(), "test");
  EXPECT_EQ(Cell(*t, 2, 2).AsString(), "3");
}

TEST_F(StdOpsFileTest, FileSourceMissingFileFails) {
  auto out = Invoke(
      ops::FileSource("data", JoinPath(dir_, "nope"), JoinPath(dir_, "no2")),
      {});
  EXPECT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("data"), std::string::npos);
}

TEST_F(StdOpsFileTest, CsvScannerParsesAndTrims) {
  std::string train = JoinPath(dir_, "t.csv");
  ASSERT_TRUE(WriteStringToFile(train, " 39 , Private\n50, Self-emp\n").ok());
  ASSERT_TRUE(WriteStringToFile(JoinPath(dir_, "e.csv"), "").ok());
  auto data = Invoke(
      ops::FileSource("d", train, JoinPath(dir_, "e.csv")), {});
  ASSERT_TRUE(data.ok());
  auto rows = Invoke(ops::CsvScanner("rows", {"age", "workclass"}),
                     {data.value()});
  ASSERT_TRUE(rows.ok());
  const TableData* t = rows.value().AsTable().value();
  EXPECT_EQ(Cell(*t, 0, 1).AsString(), "39");
  EXPECT_EQ(Cell(*t, 0, 2).AsString(), "Private");
}

TEST_F(StdOpsFileTest, CsvScannerArityMismatchFails) {
  std::string train = JoinPath(dir_, "t.csv");
  ASSERT_TRUE(WriteStringToFile(train, "only-one-field\n").ok());
  ASSERT_TRUE(WriteStringToFile(JoinPath(dir_, "e.csv"), "").ok());
  auto data = Invoke(
      ops::FileSource("d", train, JoinPath(dir_, "e.csv")), {});
  ASSERT_TRUE(data.ok());
  auto rows = Invoke(ops::CsvScanner("rows", {"a", "b"}), {data.value()});
  ASSERT_FALSE(rows.ok());
  EXPECT_NE(rows.status().message().find("expected 2"), std::string::npos);
}

TEST(StdOpsTest, CsvScannerNullOrMistypedContentIsInvalidArgument) {
  // A null content cell, or a content field of another type, is reported
  // with the column (and row) as an operator error, never thrown.
  auto scan = [](std::shared_ptr<TableData> table) {
    Result<DataCollection> rows = Status::Internal("not run");
    EXPECT_NO_THROW(rows = Invoke(ops::CsvScanner("rows", {"k", "v"}),
                                  {DataCollection::FromTable(table)}));
    return rows.status();
  };
  Status null_cell = scan(dataflow::MakeTable(
      Schema::AllStrings({ops::kSplitColumn, "content"}),
      {{Value("train"), Value("a,1\n")}, {Value("test"), Value::Null()}}));
  EXPECT_TRUE(null_cell.IsInvalidArgument()) << null_cell.ToString();
  EXPECT_NE(null_cell.message().find("'content' is null at row 1"),
            std::string::npos)
      << null_cell.ToString();
  Status mistyped = scan(dataflow::MakeTable(
      Schema({{ops::kSplitColumn, dataflow::ValueType::kString},
              {"content", dataflow::ValueType::kInt}}),
      {{Value("train"), Value(int64_t{7})}}));
  EXPECT_TRUE(mistyped.IsInvalidArgument()) << mistyped.ToString();
  EXPECT_NE(mistyped.message().find("'content' holds int cells"),
            std::string::npos)
      << mistyped.ToString();
}

// CsvScanner against its spec: seeded random records are rendered with
// FormatCsvLine (quoting fields that hold separators, quotes or \r) and
// scanned back; every cell must be TrimView of the field that was written.
// Lines end in \n or \r\n at random and empty lines are interleaved; both
// are invisible in the output.
TEST_F(StdOpsFileTest, CsvScannerDifferentialAgainstFormatCsvLine) {
  std::mt19937_64 rng(20260421);
  const std::string alphabet = "ab7 ,\"\r";
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  for (int trial = 0; trial < 20; ++trial) {
    size_t num_cols = 2 + pick(4);
    std::vector<std::string> names;
    for (size_t c = 0; c < num_cols; ++c) {
      names.push_back("c" + std::to_string(c));
    }
    std::vector<std::vector<std::string>> rows;
    std::string blobs[2];
    for (std::string& blob : blobs) {
      size_t num_rows = pick(30);
      for (size_t r = 0; r < num_rows; ++r) {
        std::vector<std::string> fields(num_cols);
        for (std::string& f : fields) {
          size_t len = pick(4) == 0 ? 0 : pick(7);
          for (size_t i = 0; i < len; ++i) {
            f.push_back(alphabet[pick(alphabet.size())]);
          }
        }
        blob += FormatCsvLine(fields);
        blob += pick(3) == 0 ? "\r\n" : "\n";
        if (pick(5) == 0) {
          blob += "\n";
        }
        rows.push_back(std::move(fields));
      }
    }
    std::string train = JoinPath(dir_, "train.csv");
    std::string test = JoinPath(dir_, "test.csv");
    ASSERT_TRUE(WriteStringToFile(train, blobs[0]).ok());
    ASSERT_TRUE(WriteStringToFile(test, blobs[1]).ok());
    auto data = Invoke(ops::FileSource("d", train, test), {});
    ASSERT_TRUE(data.ok());
    auto scanned = Invoke(ops::CsvScanner("rows", names), {data.value()});
    ASSERT_TRUE(scanned.ok()) << scanned.status().ToString();
    const TableData* t = scanned.value().AsTable().value();
    ASSERT_EQ(t->num_rows(), static_cast<int64_t>(rows.size()));
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < num_cols; ++c) {
        EXPECT_EQ(Cell(*t, static_cast<int64_t>(r), static_cast<int>(c) + 1)
                      .AsString(),
                  TrimView(rows[r][c]))
            << "trial " << trial << " row " << r << " col " << c;
      }
    }
  }
}

// Malformed lines fail closed with a fixed status: the InvalidArgument
// code, the operator, the scanner's row number (counted over parsed rows,
// continuing from the train blob into the test blob) and the parser's
// reason. The train blob holds two CRLF rows around blank lines (CRLF,
// LF and spaces-only), which are skipped; the test blob one good row, so
// the bad line is row 3.
TEST_F(StdOpsFileTest, CsvScannerMalformedLinesFailClosed) {
  const std::pair<const char*, const char*> cases[] = {
      {"x,y\"z\n",
       "CSV parse error at row 3: CSV: quote in the middle of an unquoted "
       "field"},
      {"\"x\"y\",z\n",
       "CSV parse error at row 3: CSV: quote in the middle of an unquoted "
       "field"},
      {"\"\"y\",z\n",
       "CSV parse error at row 3: CSV: quote in the middle of an unquoted "
       "field"},
      {"x,\"yz\n", "CSV parse error at row 3: CSV: unterminated quoted field"},
      {"x,\"y\"\"\r\n",
       "CSV parse error at row 3: CSV: unterminated quoted field"},
      {"x,y,z\n", "row 3 has 3 fields, expected 2"},
      {"\"x,y\"\n", "row 3 has 1 fields, expected 2"},
  };
  std::string train = JoinPath(dir_, "train.csv");
  std::string test = JoinPath(dir_, "test.csv");
  // Blank lines of every kind are skipped, a CRLF one ("\r") included.
  ASSERT_TRUE(WriteStringToFile(train, "a,1\r\n\r\n\n  \nb,2\r\n").ok());
  for (const auto& [bad_line, reason] : cases) {
    ASSERT_TRUE(
        WriteStringToFile(test, std::string("c,3\n") + bad_line + "d,4\n")
            .ok());
    auto data = Invoke(ops::FileSource("d", train, test), {});
    ASSERT_TRUE(data.ok());
    auto rows = Invoke(ops::CsvScanner("rows", {"k", "v"}), {data.value()});
    EXPECT_EQ(rows.status(),
              Status::InvalidArgument(std::string("operator 'rows': ") +
                                      reason))
        << "line: " << bad_line;
  }
  ASSERT_TRUE(WriteStringToFile(test, "c,3\n\r\nd,4\n").ok());
  auto data = Invoke(ops::FileSource("d", train, test), {});
  ASSERT_TRUE(data.ok());
  auto rows = Invoke(ops::CsvScanner("rows", {"k", "v"}), {data.value()});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows.value().AsTable().value()->num_rows(), 4);
}

// Output fingerprints of FileSource and CsvScanner on a fixed census
// sample (3200 train / 800 test rows, seed 7) and on a small quoted CRLF
// file. The values were recorded before the scanner moved onto the
// allocation-free splitter; any byte drift in either operator fails here.
TEST_F(StdOpsFileTest, CsvIngestFingerprintsArePinned) {
  std::string train = JoinPath(dir_, "train.csv");
  std::string test = JoinPath(dir_, "test.csv");
  datagen::CensusGenOptions opts;
  opts.num_rows = 4000;
  opts.seed = 7;
  ASSERT_TRUE(datagen::WriteCensusFiles(opts, train, test).ok());
  auto data = Invoke(ops::FileSource("d", train, test), {});
  ASSERT_TRUE(data.ok());
  auto rows = Invoke(ops::CsvScanner("rows", datagen::CensusColumns()),
                     {data.value()});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows.value().AsTable().value()->num_rows(), 4000);
  EXPECT_EQ(data.value().Fingerprint(), 17526750360451155044ull);
  EXPECT_EQ(rows.value().Fingerprint(), 10365702628877110125ull);

  ASSERT_TRUE(WriteStringToFile(train,
                                "\"a, \"\"b\"\"\" ,1\r\n\"\",\" 2 \"\r\n")
                  .ok());
  ASSERT_TRUE(WriteStringToFile(test, "c,\"3\r\"\n").ok());
  data = Invoke(ops::FileSource("d", train, test), {});
  ASSERT_TRUE(data.ok());
  rows = Invoke(ops::CsvScanner("rows", {"k", "v"}), {data.value()});
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(data.value().Fingerprint(), 17245536156313851999ull);
  EXPECT_EQ(rows.value().Fingerprint(), 4618435558436395723ull);
}

// --- FieldExtractor / Bucketizer / InteractionFeature ----------------------------

TEST(StdOpsTest, FieldExtractorProjects) {
  auto table =
      dataflow::MakeTable(Schema::AllStrings({ops::kSplitColumn, "age", "edu"}),
                          {{Value("train"), Value("39"), Value("BS")}});
  auto out = Invoke(ops::FieldExtractor("age", "age"),
                    {DataCollection::FromTable(table)});
  ASSERT_TRUE(out.ok());
  const TableData* t = out.value().AsTable().value();
  EXPECT_EQ(t->schema().num_fields(), 2);
  EXPECT_EQ(Cell(*t, 0, 1).AsString(), "39");
}

TEST(StdOpsTest, FieldExtractorKeepsFieldTypes) {
  // A projection shares the input's columns, so it keeps their field
  // types: a table pairs each column with its own type.
  auto table = dataflow::MakeTable(
      Schema({{ops::kSplitColumn, dataflow::ValueType::kString},
              {"age", dataflow::ValueType::kInt}}),
      {{Value("train"), Value(int64_t{39})}});
  auto out = Invoke(ops::FieldExtractor("age", "age"),
                    {DataCollection::FromTable(table)});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const TableData* t = out.value().AsTable().value();
  EXPECT_EQ(t->schema().field(1).type, dataflow::ValueType::kInt);
  EXPECT_EQ(Cell(*t, 0, 1).AsInt(), 39);
}

TEST(StdOpsTest, FieldExtractorUnknownColumnFails) {
  auto out = Invoke(ops::FieldExtractor("x", "ghost"),
                    {FeatureTable("age", {{"train", "39"}})});
  EXPECT_FALSE(out.ok());
}

TEST(StdOpsTest, BucketizerEqualWidthBinsAndClamping) {
  auto out = Invoke(ops::Bucketizer("ageBucket", 4),
                    {FeatureTable("age", {{"train", "0"},
                                          {"train", "25"},
                                          {"train", "50"},
                                          {"train", "100"}})});
  ASSERT_TRUE(out.ok());
  const TableData* t = out.value().AsTable().value();
  EXPECT_EQ(Cell(*t, 0, 1).AsString(), "b0");
  EXPECT_EQ(Cell(*t, 1, 1).AsString(), "b1");
  EXPECT_EQ(Cell(*t, 2, 1).AsString(), "b2");
  EXPECT_EQ(Cell(*t, 3, 1).AsString(), "b3");  // max value lands in last bin
}

TEST(StdOpsTest, BucketizerConstantColumnSingleBin) {
  auto out = Invoke(ops::Bucketizer("b", 5),
                    {FeatureTable("x", {{"train", "7"}, {"test", "7"}})});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Cell(*out.value().AsTable().value(), 0, 1).AsString(),
            "b0");
}

TEST(StdOpsTest, BucketizerNonNumericFails) {
  auto out = Invoke(ops::Bucketizer("b", 3),
                    {FeatureTable("x", {{"train", "not-a-number"}})});
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST(StdOpsTest, InteractionFeatureJoinsValues) {
  auto out = Invoke(
      ops::InteractionFeature("eduXocc"),
      {FeatureTable("edu", {{"train", "BS"}}),
       FeatureTable("occ", {{"train", "Sales"}})});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(Cell(*out.value().AsTable().value(), 0, 1).AsString(),
            "BS&Sales");
}

TEST(StdOpsTest, InteractionFeatureRowMismatchFails) {
  auto out = Invoke(
      ops::InteractionFeature("x"),
      {FeatureTable("a", {{"train", "1"}}),
       FeatureTable("b", {{"train", "1"}, {"train", "2"}})});
  EXPECT_FALSE(out.ok());
}

TEST(StdOpsTest, InteractionFeatureNeedsTwoInputs) {
  auto out = Invoke(ops::InteractionFeature("x"),
                    {FeatureTable("a", {{"train", "1"}})});
  EXPECT_FALSE(out.ok());
}

// --- AssembleExamples ------------------------------------------------------------

TEST(StdOpsTest, AssembleExamplesOneHotAndNumeric) {
  auto out = Invoke(
      ops::AssembleExamples("income", ">50K"),
      {FeatureTable("edu", {{"train", "BS"}, {"test", "HS"}}),
       FeatureTable("age", {{"train", "30"}, {"test", "50"}}),  // numeric
       FeatureTable("target", {{"train", ">50K"}, {"test", "<=50K"}})});
  ASSERT_TRUE(out.ok());
  const dataflow::ExamplesData* e = out.value().AsExamples().value();
  ASSERT_EQ(e->num_examples(), 2);
  // Labels and splits.
  EXPECT_DOUBLE_EQ(e->label(0), 1.0);
  EXPECT_FALSE(e->is_test(0));
  EXPECT_DOUBLE_EQ(e->label(1), 0.0);
  EXPECT_TRUE(e->is_test(1));
  // One-hot for categorical edu; single standardized feature for age.
  EXPECT_GE(e->dict().Lookup("edu=BS"), 0);
  EXPECT_GE(e->dict().Lookup("edu=HS"), 0);
  EXPECT_GE(e->dict().Lookup("age"), 0);
  EXPECT_LT(e->dict().Lookup("age=30"), 0);
  // Standardization: mean 40, values +-1 stddev.
  int32_t age_idx = e->dict().Lookup("age");
  EXPECT_NEAR(e->features(0).Get(age_idx), -1.0, 1e-9);
  EXPECT_NEAR(e->features(1).Get(age_idx), 1.0, 1e-9);
}

TEST(StdOpsTest, AssembleExamplesNeedsLabelInput) {
  auto out = Invoke(ops::AssembleExamples("income", "y"),
                    {FeatureTable("a", {{"train", "1"}})});
  EXPECT_FALSE(out.ok());
}

// --- Learner / Predictor / Evaluator ---------------------------------------------

DataCollection TinyExamples() {
  auto data = std::make_shared<dataflow::ExamplesData>();
  int32_t f = data->mutable_dict()->Intern("f");
  for (int i = 0; i < 40; ++i) {
    dataflow::SparseVector row;
    bool positive = i % 2 == 0;
    row.Set(f, positive ? 1.0 : 0.0);
    data->AddRow(row.view(), positive ? 1.0 : 0.0, i, /*is_test=*/i >= 30);
  }
  return DataCollection::FromExamples(data);
}

TEST(StdOpsTest, LearnerTrainsEachModelType) {
  for (const char* model_type : {"lr", "nb", "perceptron"}) {
    ops::LearnerConfig config;
    config.model_type = model_type;
    config.epochs = 5;
    config.reg_param = model_type == std::string("nb") ? 1.0 : 0.01;
    auto out = Invoke(ops::Learner("m", config), {TinyExamples()});
    ASSERT_TRUE(out.ok()) << model_type << ": " << out.status().ToString();
    EXPECT_EQ(out.value().kind(), dataflow::PayloadKind::kModel);
  }
}

TEST(StdOpsTest, LearnerRejectsNonFiniteHyperparameters) {
  for (const char* model_type : {"lr", "nb", "perceptron"}) {
    for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
      ops::LearnerConfig config;
      config.model_type = model_type;
      config.reg_param = bad;
      auto out = Invoke(ops::Learner("m", config), {TinyExamples()});
      EXPECT_TRUE(out.status().IsInvalidArgument()) << model_type;
    }
  }
  // Only LR reads learning_rate.
  ops::LearnerConfig config;
  config.model_type = "lr";
  config.learning_rate = std::numeric_limits<double>::quiet_NaN();
  auto out = Invoke(ops::Learner("m", config), {TinyExamples()});
  EXPECT_TRUE(out.status().IsInvalidArgument());
}

TEST(StdOpsTest, LearnerUnknownModelFails) {
  ops::LearnerConfig config;
  config.model_type = "quantum";
  auto out = Invoke(ops::Learner("m", config), {TinyExamples()});
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("quantum"), std::string::npos);
}

TEST(StdOpsTest, LearnerConfigCanonicalDistinguishes) {
  ops::LearnerConfig a;
  ops::LearnerConfig b;
  b.reg_param = 0.2;
  EXPECT_NE(a.Canonical(), b.Canonical());
  EXPECT_NE(ops::Learner("m", a).Signature(),
            ops::Learner("m", b).Signature());
}

TEST(StdOpsTest, PredictorEmitsAllRowsWithSplits) {
  ops::LearnerConfig config;
  config.epochs = 10;
  auto model = Invoke(ops::Learner("m", config), {TinyExamples()});
  ASSERT_TRUE(model.ok());
  auto preds = Invoke(ops::Predictor("p"), {model.value(), TinyExamples()});
  ASSERT_TRUE(preds.ok());
  const TableData* t = preds.value().AsTable().value();
  EXPECT_EQ(t->num_rows(), 40);
  int split_col = t->schema().IndexOf(ops::kSplitColumn);
  int prob_col = t->schema().IndexOf("prob");
  ASSERT_GE(split_col, 0);
  ASSERT_GE(prob_col, 0);
  EXPECT_EQ(Cell(*t, 39, split_col).AsString(), "test");
  // Separable toy problem: positives score above negatives.
  EXPECT_GT(Cell(*t, 0, prob_col).AsDouble(),
            Cell(*t, 1, prob_col).AsDouble());
}

TEST(StdOpsTest, EvaluatorUsesTestRowsOnly) {
  ops::LearnerConfig config;
  config.epochs = 20;
  auto model = Invoke(ops::Learner("m", config), {TinyExamples()});
  ASSERT_TRUE(model.ok());
  auto preds = Invoke(ops::Predictor("p"), {model.value(), TinyExamples()});
  ASSERT_TRUE(preds.ok());
  ml::BinaryMetricsOptions options;
  options.confusion_counts = true;
  auto metrics = Invoke(ops::Evaluator("e", options), {preds.value()});
  ASSERT_TRUE(metrics.ok());
  const dataflow::MetricsData* m = metrics.value().AsMetrics().value();
  // 10 test rows total = tp+fp+tn+fn.
  EXPECT_DOUBLE_EQ(m->GetOr("tp", 0) + m->GetOr("fp", 0) +
                       m->GetOr("tn", 0) + m->GetOr("fn", 0),
                   10.0);
  EXPECT_DOUBLE_EQ(m->GetOr("accuracy", 0), 1.0);
}

TEST(StdOpsTest, EvaluatorWrongSchemaFails) {
  auto out = Invoke(ops::Evaluator("e", {}),
                    {FeatureTable("x", {{"test", "1"}})});
  EXPECT_FALSE(out.ok());
}

// --- IE operators ------------------------------------------------------------------

DataCollection TinyCorpus() {
  auto text = std::make_shared<dataflow::TextData>();
  text->AddDoc({"d0", "Alice Smith met Bob.",
                {{0, 11, "PERSON"}, {16, 19, "PERSON"}}});
  text->AddDoc({"d1", "Acme Industries fired Carol Jones.",
                {{22, 33, "PERSON"}}});
  return DataCollection::FromText(text);
}

TEST(StdOpsTest, SentenceTokenizerEmitsGoldLabels) {
  auto out = Invoke(ops::SentenceTokenizer("tokens"), {TinyCorpus()});
  ASSERT_TRUE(out.ok());
  const TableData* t = out.value().AsTable().value();
  int text_col = t->schema().IndexOf("text");
  int gold_col = t->schema().IndexOf("gold");
  int positives = 0;
  bool alice_positive = false;
  for (int64_t r = 0; r < t->num_rows(); ++r) {
    if (Cell(*t, r, gold_col).AsInt() == 1) {
      ++positives;
      if (Cell(*t, r, text_col).AsString() == "Alice") {
        alice_positive = true;
      }
    }
  }
  EXPECT_EQ(positives, 5);  // Alice, Smith, Bob, Carol, Jones
  EXPECT_TRUE(alice_positive);
}

TEST(StdOpsTest, TokenFeaturizerSplitsByDocument) {
  auto tokens = Invoke(ops::SentenceTokenizer("tokens"), {TinyCorpus()});
  ASSERT_TRUE(tokens.ok());
  nlp::TokenFeatureOptions features;
  auto out = Invoke(ops::TokenFeaturizer("feats", features, 0.5),
                    {tokens.value()});
  ASSERT_TRUE(out.ok());
  const dataflow::ExamplesData* e = out.value().AsExamples().value();
  // Doc 0 train, doc 1 test.
  bool saw_train = false;
  bool saw_test = false;
  for (int64_t i = 0; i < e->num_examples(); ++i) {
    (e->is_test(i) ? saw_test : saw_train) = true;
  }
  EXPECT_TRUE(saw_train);
  EXPECT_TRUE(saw_test);
}

TEST(StdOpsTest, MentionDecoderRoundTripsGoldProbabilities) {
  auto tokens = Invoke(ops::SentenceTokenizer("tokens"), {TinyCorpus()});
  ASSERT_TRUE(tokens.ok());
  // Predictions table that echoes the gold labels as probabilities.
  const TableData* tok = tokens.value().AsTable().value();
  int gold_col = tok->schema().IndexOf("gold");
  std::vector<dataflow::Row> rows;
  for (int64_t r = 0; r < tok->num_rows(); ++r) {
    rows.push_back(
        {Value(r), Value(Cell(*tok, r, gold_col).AsInt() == 1 ? 0.9 : 0.1)});
  }
  auto preds = dataflow::MakeTable(Schema({
                                       {"id", dataflow::ValueType::kInt},
                                       {"prob", dataflow::ValueType::kDouble},
                                   }),
                                   rows);
  auto mentions = Invoke(ops::MentionDecoder("m", {}),
                         {tokens.value(),
                          DataCollection::FromTable(preds)});
  ASSERT_TRUE(mentions.ok());
  const dataflow::TextData* decoded = mentions.value().AsText().value();
  ASSERT_EQ(decoded->num_docs(), 2);
  // Perfect probabilities decode exactly the gold spans.
  EXPECT_EQ(decoded->doc(0).spans.size(), 2u);
  EXPECT_EQ(decoded->doc(0).spans[0].begin, 0);
  EXPECT_EQ(decoded->doc(0).spans[0].end, 11);
  ASSERT_EQ(decoded->doc(1).spans.size(), 1u);
  EXPECT_EQ(decoded->doc(1).spans[0].begin, 22);

  // And the SpanEvaluator scores them perfectly (both docs in the test
  // split with train_frac=0).
  auto metrics = Invoke(ops::SpanEvaluator("eval", 0.0),
                        {TinyCorpus(), mentions.value()});
  ASSERT_TRUE(metrics.ok());
  EXPECT_DOUBLE_EQ(
      metrics.value().AsMetrics().value()->GetOr("span_f1", 0), 1.0);
}

TEST(StdOpsTest, SpanEvaluatorDocCountMismatchFails) {
  auto decoded = std::make_shared<dataflow::TextData>();
  decoded->AddDoc({"only-one", "", {}});
  auto out = Invoke(ops::SpanEvaluator("e", 0.0),
                    {TinyCorpus(), DataCollection::FromText(decoded)});
  EXPECT_FALSE(out.ok());
}

// --- Phases and signatures ----------------------------------------------------------

TEST(StdOpsTest, OperatorsCarryExpectedPhases) {
  EXPECT_EQ(ops::FieldExtractor("x", "f").phase(),
            Phase::kDataPreprocessing);
  EXPECT_EQ(ops::Learner("m", {}).phase(), Phase::kMachineLearning);
  EXPECT_EQ(ops::Predictor("p").phase(), Phase::kMachineLearning);
  EXPECT_EQ(ops::Evaluator("e", {}).phase(), Phase::kPostprocessing);
  EXPECT_EQ(ops::MentionDecoder("d", {}).phase(), Phase::kPostprocessing);
}

TEST(StdOpsTest, ParameterEditsChangeSignatures) {
  EXPECT_NE(ops::Bucketizer("b", 10).Signature(),
            ops::Bucketizer("b", 8).Signature());
  ml::BinaryMetricsOptions a;
  ml::BinaryMetricsOptions b;
  b.auc = true;
  EXPECT_NE(ops::Evaluator("e", a).Signature(),
            ops::Evaluator("e", b).Signature());
  nlp::TokenFeatureOptions fa;
  nlp::TokenFeatureOptions fb;
  fb.gazetteer = true;
  EXPECT_NE(ops::TokenFeaturizer("f", fa, 0.7).Signature(),
            ops::TokenFeaturizer("f", fb, 0.7).Signature());
  EXPECT_NE(ops::TokenFeaturizer("f", fa, 0.7).Signature(),
            ops::TokenFeaturizer("f", fa, 0.8).Signature());
}

}  // namespace
}  // namespace core
}  // namespace helix
