// Unit tests for src/dataflow: values, schemas, payload types, and the
// DataCollection serialization envelope (including corruption handling).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "dataflow/data_collection.h"
#include "table_util.h"

namespace helix {
namespace dataflow {
namespace {

// --- Value -------------------------------------------------------------------

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value(int64_t{7}).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value(2.5).AsDouble(), 2.5);
  EXPECT_TRUE(Value(true).AsBool());
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(ValueTest, ToNumericWidens) {
  EXPECT_DOUBLE_EQ(Value(int64_t{3}).ToNumeric().value(), 3.0);
  EXPECT_DOUBLE_EQ(Value(true).ToNumeric().value(), 1.0);
  EXPECT_FALSE(Value("x").ToNumeric().ok());
  EXPECT_FALSE(Value::Null().ToNumeric().ok());
}

TEST(ValueTest, OrderingByTypeThenValue) {
  EXPECT_LT(Value::Null(), Value(int64_t{0}));
  EXPECT_LT(Value(int64_t{1}), Value(int64_t{2}));
  EXPECT_LT(Value("a"), Value("b"));
  EXPECT_FALSE(Value("a") < Value("a"));
}

TEST(ValueTest, HashDistinguishesTypesAndValues) {
  EXPECT_NE(Value(int64_t{1}).Hash(), Value(1.0).Hash());
  EXPECT_NE(Value("1").Hash(), Value(int64_t{1}).Hash());
  EXPECT_EQ(Value("x").Hash(), Value("x").Hash());
}

// --- Schema ------------------------------------------------------------------

TEST(SchemaTest, LookupByName) {
  Schema schema({{"a", ValueType::kInt}, {"b", ValueType::kString}});
  EXPECT_EQ(schema.num_fields(), 2);
  EXPECT_EQ(schema.IndexOf("a"), 0);
  EXPECT_EQ(schema.IndexOf("b"), 1);
  EXPECT_EQ(schema.IndexOf("c"), -1);
  EXPECT_TRUE(schema.Contains("a"));
}

TEST(SchemaTest, WithFieldRejectsDuplicates) {
  Schema schema({{"a", ValueType::kInt}});
  EXPECT_TRUE(schema.WithField({"b", ValueType::kBool}).ok());
  EXPECT_TRUE(
      schema.WithField({"a", ValueType::kBool}).status().IsAlreadyExists());
}

TEST(SchemaTest, HashSensitiveToNameAndType) {
  Schema a({{"x", ValueType::kInt}});
  Schema b({{"x", ValueType::kDouble}});
  Schema c({{"y", ValueType::kInt}});
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_NE(a.Hash(), c.Hash());
  EXPECT_EQ(a.Hash(), Schema({{"x", ValueType::kInt}}).Hash());
}

TEST(SchemaTest, SerializationRoundTrip) {
  Schema schema({{"a", ValueType::kInt}, {"b", ValueType::kString}});
  ByteWriter w;
  schema.Serialize(&w);
  ByteReader r(w.data());
  auto got = Schema::Deserialize(&r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), schema);
}

// --- TableData ------------------------------------------------------------------

TEST(TableTest, BuildAndAccess) {
  auto table = MakeTable(Schema::AllStrings({"x", "y"}),
                         {{Value("1"), Value("2")}});
  EXPECT_EQ(table->num_rows(), 1);
  EXPECT_EQ(Cell(*table, 0, 1).AsString(), "2");
}

TEST(TableTest, ArityMismatchRejected) {
  ColumnBuilder x(ValueType::kString);
  x.AppendString("1");
  EXPECT_TRUE(TableData::FromColumns(Schema::AllStrings({"x", "y"}),
                                     {x.Finish()})
                  .status()
                  .IsInvalidArgument());
}

TEST(TableTest, ColumnExtraction) {
  auto table = MakeTable(Schema::AllStrings({"x", "y"}),
                         {{Value("a"), Value("b")}, {Value("c"), Value("d")}});
  auto col = table->Column("y");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ(col.value()->length(), 2);
  EXPECT_EQ(col.value()->GetValue(1).AsString(), "d");
  EXPECT_TRUE(table->Column("z").status().IsNotFound());
}

TEST(TableTest, ColumnHandleIsSharedNotCopied) {
  auto table = MakeTable(Schema::AllStrings({"x", "y"}),
                         {{Value("a"), Value("b")}});
  // The same handle comes back on every call — no deep copy per request.
  EXPECT_EQ(table->Column("y").value().get(),
            table->Column("y").value().get());
  EXPECT_EQ(table->Column("y").value().get(), table->column(1).get());
}

TEST(TableTest, FingerprintSensitiveToContent) {
  auto a = MakeTable(Schema::AllStrings({"x"}), {{Value("1")}});
  auto b = MakeTable(Schema::AllStrings({"x"}), {{Value("2")}});
  EXPECT_NE(a->Fingerprint(), b->Fingerprint());
}

TEST(TableTest, SizeGrowsWithRows) {
  auto empty = MakeTable(Schema::AllStrings({"x"}), {});
  auto one = MakeTable(Schema::AllStrings({"x"}), {{Value("payload string")}});
  EXPECT_GT(one->SizeBytes(), empty->SizeBytes());
}

TEST(TableTest, ColumnLayoutMustMatchFieldType) {
  ColumnBuilder ints(ValueType::kInt);
  ints.AppendInt(1);
  std::shared_ptr<const Column> col = ints.Finish();
  EXPECT_TRUE(
      TableData::FromColumns(Schema({{"i", ValueType::kInt}}), {col}).ok());
  for (ValueType wrong : {ValueType::kDouble, ValueType::kBool,
                          ValueType::kString, ValueType::kNull}) {
    EXPECT_TRUE(TableData::FromColumns(Schema({{"i", wrong}}), {col})
                    .status()
                    .IsInvalidArgument())
        << ValueTypeToString(wrong);
  }
  // Both string layouts serve a kString field.
  ColumnBuilder strings(ValueType::kString);
  for (int r = 0; r < 32; ++r) {
    strings.AppendString(r % 2 == 0 ? "even" : "odd");
  }
  std::shared_ptr<const Column> dict = strings.Finish();
  ASSERT_EQ(dict->storage(), Column::Storage::kDictString);
  EXPECT_TRUE(TableData::FromColumns(Schema::AllStrings({"s"}), {dict}).ok());
}

// --- FeatureDict / SparseVector ----------------------------------------------------

TEST(FeatureDictTest, InternIsIdempotent) {
  FeatureDict dict;
  int32_t a = dict.Intern("f1");
  int32_t b = dict.Intern("f2");
  EXPECT_EQ(dict.Intern("f1"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.size(), 2);
  EXPECT_EQ(dict.NameOf(a), "f1");
  EXPECT_EQ(dict.Lookup("f2"), b);
  EXPECT_EQ(dict.Lookup("nope"), -1);
}

TEST(FeatureDictTest, SerializationPreservesOrder) {
  FeatureDict dict;
  dict.Intern("z");
  dict.Intern("a");
  ByteWriter w;
  dict.Serialize(&w);
  ByteReader r(w.data());
  auto got = FeatureDict::Deserialize(&r);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().NameOf(0), "z");
  EXPECT_EQ(got.value().NameOf(1), "a");
  EXPECT_EQ(got.value().Fingerprint(), dict.Fingerprint());
}

TEST(SparseVectorTest, SetGetAndSortedEntries) {
  SparseVector v;
  v.Set(5, 1.0);
  v.Set(1, 2.0);
  v.Set(5, 3.0);  // overwrite
  EXPECT_EQ(v.num_entries(), 2);
  EXPECT_DOUBLE_EQ(v.Get(5), 3.0);
  EXPECT_DOUBLE_EQ(v.Get(1), 2.0);
  EXPECT_DOUBLE_EQ(v.Get(99), 0.0);
  EXPECT_EQ(v.view().index(0), 1);
  EXPECT_EQ(v.view().index(1), 5);
  EXPECT_EQ(v.MaxIndex(), 5);
  v.Clear();
  EXPECT_EQ(v.num_entries(), 0);
  EXPECT_EQ(v.MaxIndex(), -1);
}

TEST(SparseVectorTest, AddAccumulates) {
  SparseVector v;
  v.Add(3, 1.5);
  v.Add(3, 0.5);
  EXPECT_DOUBLE_EQ(v.Get(3), 2.0);
}

TEST(SparseVectorTest, DotIgnoresOutOfRange) {
  SparseVector v;
  v.Set(0, 2.0);
  v.Set(10, 100.0);
  std::vector<double> dense = {3.0};
  EXPECT_DOUBLE_EQ(v.view().Dot(dense), 6.0);
}

TEST(ExamplesDataTest, CsrRowsReadBackThroughViews) {
  ExamplesData data;
  SparseVector row;
  row.Set(3, 2.0);
  row.Set(1, -1.0);
  data.AddRow(row.view(), 1.0, 10, /*is_test=*/false);
  data.AddRow(SparseRow(), 0.0, 11, /*is_test=*/true);
  row.Clear();
  row.Set(0, 0.5);
  data.AddRow(row.view(), 0.0, 12, /*is_test=*/false);
  ASSERT_EQ(data.num_examples(), 3);
  EXPECT_EQ(data.num_nonzeros(), 3);
  // Rows own copies: rebuilding the builder did not touch row 0.
  EXPECT_EQ(data.features(0).index(0), 1);
  EXPECT_DOUBLE_EQ(data.features(0).value(1), 2.0);
  EXPECT_EQ(data.features(1).num_entries(), 0);
  EXPECT_DOUBLE_EQ(data.features(2).Get(0), 0.5);
  EXPECT_EQ(data.id(1), 11);
  EXPECT_TRUE(data.is_test(1));
  EXPECT_DOUBLE_EQ(data.label(0), 1.0);
  const int64_t expected_offsets[] = {0, 2, 2, 3};
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(data.offsets()[i], expected_offsets[i]);
  }
}

TEST(ExamplesDataTest, DeserializeRejectsUnsortedIndices) {
  // One example with two entries, in the block form.
  auto encode = [](uint32_t first, uint32_t second) {
    ByteWriter w;
    FeatureDict().Serialize(&w);
    w.PutU64(1);  // one example
    w.PutI64(0);  // offsets
    w.PutI64(2);
    w.PutU32(first);  // indices
    w.PutU32(second);
    w.PutDouble(1.0);  // values
    w.PutDouble(1.0);
    w.PutDouble(0.0);  // label
    w.PutI64(0);       // id
    w.PutU8(0);        // split flag
    return std::string(w.data());
  };
  std::string sorted = encode(3, 5);
  ByteReader ok(sorted);
  EXPECT_TRUE(ExamplesData::Deserialize(&ok).ok());
  std::string unsorted = encode(5, 3);
  ByteReader bad(unsorted);
  EXPECT_TRUE(ExamplesData::Deserialize(&bad).status().IsCorruption());
}

// --- Payload round trips through the envelope ----------------------------------------

TEST(DataCollectionTest, TableRoundTrip) {
  auto table = MakeTable(Schema::AllStrings({"a", "b"}),
                         {{Value("x"), Value("y")}});
  DataCollection original = DataCollection::FromTable(table);

  auto restored =
      DataCollection::DeserializeFromString(original.SerializeToString());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value().kind(), PayloadKind::kTable);
  EXPECT_EQ(restored.value().Fingerprint(), original.Fingerprint());
}

TEST(DataCollectionTest, TextRoundTrip) {
  auto text = std::make_shared<TextData>();
  text->AddDoc({"d1", "Alice met Bob.", {{0, 5, "PERSON"}}});
  DataCollection original = DataCollection::FromText(text);
  auto restored =
      DataCollection::DeserializeFromString(original.SerializeToString());
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE(restored.value().AsText().ok());
  const TextData* t = restored.value().AsText().value();
  EXPECT_EQ(t->doc(0).spans[0].label, "PERSON");
  EXPECT_EQ(restored.value().Fingerprint(), original.Fingerprint());
}

TEST(DataCollectionTest, ExamplesRoundTrip) {
  auto examples = std::make_shared<ExamplesData>();
  examples->mutable_dict()->Intern("f0");
  SparseVector row;
  row.Set(0, 1.0);
  examples->AddRow(row.view(), 1.0, 42, /*is_test=*/true);
  DataCollection original = DataCollection::FromExamples(examples);
  auto restored =
      DataCollection::DeserializeFromString(original.SerializeToString());
  ASSERT_TRUE(restored.ok());
  const ExamplesData* got = restored.value().AsExamples().value();
  EXPECT_EQ(got->num_examples(), 1);
  EXPECT_TRUE(got->is_test(0));
  EXPECT_EQ(restored.value().Fingerprint(), original.Fingerprint());
}

TEST(DataCollectionTest, ModelRoundTrip) {
  auto model =
      std::make_shared<ModelData>("logistic_regression",
                                  std::vector<double>{0.5, -1.5}, 0.25);
  model->SetInfo("epochs", 20);
  DataCollection original = DataCollection::FromModel(model);
  auto restored =
      DataCollection::DeserializeFromString(original.SerializeToString());
  ASSERT_TRUE(restored.ok());
  const ModelData* got = restored.value().AsModel().value();
  EXPECT_EQ(got->model_type(), "logistic_regression");
  EXPECT_DOUBLE_EQ(got->bias(), 0.25);
  EXPECT_DOUBLE_EQ(got->InfoOr("epochs", 0), 20);
  EXPECT_EQ(restored.value().Fingerprint(), original.Fingerprint());
}

TEST(DataCollectionTest, MetricsRoundTrip) {
  auto metrics = std::make_shared<MetricsData>();
  metrics->Set("accuracy", 0.91);
  DataCollection original = DataCollection::FromMetrics(metrics);
  auto restored =
      DataCollection::DeserializeFromString(original.SerializeToString());
  ASSERT_TRUE(restored.ok());
  EXPECT_DOUBLE_EQ(
      restored.value().AsMetrics().value()->GetOr("accuracy", 0), 0.91);
}

TEST(DataCollectionTest, WrongKindAccessorFails) {
  auto metrics = std::make_shared<MetricsData>();
  DataCollection c = DataCollection::FromMetrics(metrics);
  EXPECT_FALSE(c.AsTable().ok());
  EXPECT_FALSE(c.AsModel().ok());
  EXPECT_TRUE(c.AsMetrics().ok());
}

TEST(DataCollectionTest, BitFlipDetected) {
  auto table = MakeTable(Schema::AllStrings({"a"}), {{Value("payload")}});
  std::string bytes = DataCollection::FromTable(table).SerializeToString();
  // Flip one bit in the middle of the payload.
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  EXPECT_TRUE(
      DataCollection::DeserializeFromString(bytes).status().IsCorruption());
}

TEST(DataCollectionTest, TruncationDetected) {
  auto table = MakeTable(Schema::AllStrings({"a"}), {{Value("payload")}});
  std::string bytes = DataCollection::FromTable(table).SerializeToString();
  for (size_t keep : {size_t{0}, size_t{5}, bytes.size() - 1}) {
    EXPECT_TRUE(DataCollection::DeserializeFromString(bytes.substr(0, keep))
                    .status()
                    .IsCorruption())
        << "kept " << keep;
  }
}

TEST(DataCollectionTest, GarbageRejected) {
  std::string garbage(64, 'q');
  EXPECT_FALSE(DataCollection::DeserializeFromString(garbage).ok());
}

class DataCollectionFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DataCollectionFuzzTest, RandomCorruptionNeverCrashes) {
  Rng rng(GetParam());
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.push_back(
        {Value(StrFormat("r%d", i)), Value(static_cast<int64_t>(i))});
  }
  auto table = MakeTable(
      Schema({{"a", ValueType::kString}, {"b", ValueType::kInt}}), rows);
  std::string bytes = DataCollection::FromTable(table).SerializeToString();
  // Corrupt a few random bytes; deserialization must fail cleanly (or, if
  // the corruption cancels out, succeed) — never crash.
  for (int k = 0; k < 4; ++k) {
    size_t pos = rng.NextBelow(bytes.size());
    bytes[pos] = static_cast<char>(rng.NextU64());
  }
  auto result = DataCollection::DeserializeFromString(bytes);
  (void)result;
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Fuzz, DataCollectionFuzzTest,
                         ::testing::Range<uint64_t>(0, 50));

}  // namespace
}  // namespace dataflow
}  // namespace helix
