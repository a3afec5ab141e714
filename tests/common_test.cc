// Unit tests for src/common: status/result, hashing, strings, CSV, JSON,
// byte codec, RNG, clocks, file utilities.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <set>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/csv.h"
#include "common/file_util.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"

namespace helix {
namespace {

// --- Status / Result --------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  Status s = Status::NotFound("missing thing");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, WithContextPrepends) {
  Status s = Status::IOError("disk on fire").WithContext("loading store");
  EXPECT_EQ(s.ToString(), "IOError: loading store: disk on fire");
  EXPECT_TRUE(Status::OK().WithContext("x").ok());
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_NE(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_NE(Status::NotFound("a"), Status::IOError("a"));
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 10; ++c) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValueWorks) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(7);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

Result<int> HelperParsePositive(int x) {
  if (x <= 0) {
    return Status::OutOfRange("not positive");
  }
  return x * 2;
}

Result<int> HelperUsesAssignOrReturn(int x) {
  HELIX_ASSIGN_OR_RETURN(int doubled, HelperParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(HelperUsesAssignOrReturn(3).value(), 7);
  EXPECT_TRUE(HelperUsesAssignOrReturn(-3).status().IsOutOfRange());
}

// --- Hashing -----------------------------------------------------------------

TEST(HashTest, FnvMatchesKnownVector) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(FnvHash64("", 0), kFnvOffsetBasis);
  // Deterministic and sensitive to content.
  EXPECT_EQ(FnvHash64("helix"), FnvHash64("helix"));
  EXPECT_NE(FnvHash64("helix"), FnvHash64("helix2"));
}

TEST(HashTest, HasherOrderMatters) {
  uint64_t ab = Hasher().Add("a").Add("b").Digest();
  uint64_t ba = Hasher().Add("b").Add("a").Digest();
  EXPECT_NE(ab, ba);
}

TEST(HashTest, HasherLengthPrefixPreventsConcatCollision) {
  uint64_t split1 = Hasher().Add("ab").Add("c").Digest();
  uint64_t split2 = Hasher().Add("a").Add("bc").Digest();
  EXPECT_NE(split1, split2);
}

TEST(HashTest, TypedFieldsAffectDigest) {
  EXPECT_NE(Hasher().AddI64(1).Digest(), Hasher().AddI64(2).Digest());
  EXPECT_NE(Hasher().AddDouble(1.0).Digest(),
            Hasher().AddDouble(1.5).Digest());
  EXPECT_NE(Hasher().AddBool(true).Digest(),
            Hasher().AddBool(false).Digest());
}

TEST(HashTest, HexRoundTrip) {
  for (uint64_t h : {0ULL, 1ULL, 0xDEADBEEFCAFEBABEULL, ~0ULL}) {
    uint64_t parsed = 0;
    ASSERT_TRUE(HexToHash(HashToHex(h), &parsed));
    EXPECT_EQ(parsed, h);
  }
}

TEST(HashTest, HexRejectsMalformed) {
  uint64_t out;
  EXPECT_FALSE(HexToHash("123", &out));
  EXPECT_FALSE(HexToHash("zzzzzzzzzzzzzzzz", &out));
  EXPECT_FALSE(HexToHash("0123456789abcde", &out));   // 15 chars
  EXPECT_FALSE(HexToHash("0123456789abcdef0", &out)); // 17 chars
}

// --- Strings -----------------------------------------------------------------

TEST(StringsTest, SplitPreservesEmptyFields) {
  EXPECT_EQ(Split(",a,", ','),
            (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("a", ','), (std::vector<std::string>{"a"}));
}

TEST(StringsTest, SplitAndTrimDropsEmpties) {
  EXPECT_EQ(SplitAndTrim(" a , , b ", ','),
            (std::vector<std::string>{"a", "b"}));
}

TEST(StringsTest, JoinInverseOfSplit) {
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("workflow", "work"));
  EXPECT_FALSE(StartsWith("work", "workflow"));
  EXPECT_TRUE(EndsWith("census.csv", ".csv"));
  EXPECT_FALSE(EndsWith(".csv", "census.csv"));
}

TEST(StringsTest, CaseConversion) {
  EXPECT_EQ(ToLower("HeLiX"), "helix");
  EXPECT_EQ(ToUpper("HeLiX"), "HELIX");
}

TEST(StringsTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.239), "1.24");
}

TEST(StringsTest, ParseInt64Strict) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-123", &v));
  EXPECT_EQ(v, -123);
  EXPECT_FALSE(ParseInt64("12x", &v));
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("1.5", &v));
}

TEST(StringsTest, ParseDoubleStrict) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("-1.5e3", &v));
  EXPECT_DOUBLE_EQ(v, -1500.0);
  EXPECT_FALSE(ParseDouble("abc", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
}

TEST(StringsTest, HumanReadable) {
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KiB");
  EXPECT_EQ(HumanMicros(50), "50 us");
  EXPECT_EQ(HumanMicros(2500), "2.50 ms");
  EXPECT_EQ(HumanMicros(1500000), "1.50 s");
}

// --- CSV ---------------------------------------------------------------------

// Splits one line through SplitCsvLine and copies the fields out.
Result<std::vector<std::string>> SplitLine(std::string_view line) {
  std::vector<std::string_view> fields;
  std::string scratch;
  HELIX_RETURN_IF_ERROR(SplitCsvLine(line, ',', &fields, &scratch));
  return std::vector<std::string>(fields.begin(), fields.end());
}

TEST(CsvTest, SimpleLine) {
  auto fields = SplitLine("a,b,c");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(CsvTest, QuotedFieldWithSeparator) {
  auto fields = SplitLine("a,\"b,c\",d");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"a", "b,c", "d"}));
}

TEST(CsvTest, EscapedQuotes) {
  auto fields = SplitLine("\"say \"\"hi\"\"\",x");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(),
            (std::vector<std::string>{"say \"hi\"", "x"}));
}

TEST(CsvTest, EmptyFields) {
  auto fields = SplitLine(",,");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"", "", ""}));
  fields = SplitLine("");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{""}));
}

TEST(CsvTest, QuotedSectionThenUnquotedTail) {
  auto fields = SplitLine("\"ab\"c,\"\"d,\"e\" ,\"f\"\r");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(),
            (std::vector<std::string>{"abc", "d", "e ", "f\r"}));
}

TEST(CsvTest, CarriageReturnIsContent) {
  auto fields = SplitLine("a\r,b\r");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"a\r", "b\r"}));
}

TEST(CsvTest, MalformedLinesFail) {
  const std::pair<const char*, const char*> cases[] = {
      {"\"abc", "CSV: unterminated quoted field"},
      {"a,\"b\"\"", "CSV: unterminated quoted field"},
      {"ab\"c", "CSV: quote in the middle of an unquoted field"},
      {"\"a\"b\",c", "CSV: quote in the middle of an unquoted field"},
      {"a\nb", "CSV: newline in single-line mode"},
      {"a,b\r\n", "CSV: newline in single-line mode"},
  };
  for (const auto& [line, message] : cases) {
    auto fields = SplitLine(line);
    EXPECT_EQ(fields.status(), Status::InvalidArgument(message)) << line;
  }
  // A newline inside quotes is content.
  auto fields = SplitLine("c,\"d\ne\"");
  ASSERT_TRUE(fields.ok());
  EXPECT_EQ(fields.value(), (std::vector<std::string>{"c", "d\ne"}));
}

TEST(CsvTest, UnquotedFieldsAreViewsIntoTheLine) {
  std::vector<std::string_view> fields;
  std::string scratch;
  auto inside = [](std::string_view field, std::string_view buffer) {
    return field.data() >= buffer.data() &&
           field.data() + field.size() <= buffer.data() + buffer.size();
  };
  std::string line = " 39, Private ,,x";
  ASSERT_TRUE(SplitCsvLine(line, ',', &fields, &scratch).ok());
  ASSERT_EQ(fields.size(), 4u);
  for (std::string_view f : fields) {
    EXPECT_TRUE(inside(f, line)) << f;
  }
  EXPECT_TRUE(scratch.empty());
  // A quoted field is unescaped into scratch; the reused vector and
  // scratch hold only the latest line, and the views stay valid because
  // scratch was reserved to the line's size up front.
  line = "a,\"b\"\"c\",\"d\",e";
  ASSERT_TRUE(SplitCsvLine(line, ',', &fields, &scratch).ok());
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_TRUE(inside(fields[0], line));
  EXPECT_EQ(fields[1], "b\"c");
  EXPECT_TRUE(inside(fields[1], scratch));
  EXPECT_EQ(fields[2], "d");
  EXPECT_TRUE(inside(fields[2], scratch));
  EXPECT_TRUE(inside(fields[3], line));
  EXPECT_GE(scratch.capacity(), line.size());
}

TEST(CsvTest, FormatQuotesWhenNeeded) {
  EXPECT_EQ(FormatCsvLine({"a", "b,c", "d\"e"}), "a,\"b,c\",\"d\"\"e\"");
}

TEST(CsvTest, FormatParseRoundTrip) {
  std::vector<std::string> fields = {"plain", "com,ma", "qu\"ote", "",
                                     "new\nline"};
  auto parsed = SplitLine(FormatCsvLine(fields));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value(), fields);
}

// Seeded random records over an alphabet of separators, quotes, spaces,
// \r and \n round-trip exactly through FormatCsvLine and SplitCsvLine,
// with one fields vector and scratch buffer reused across all lines.
TEST(CsvTest, FormatSplitRoundTripRandom) {
  std::mt19937_64 rng(41);
  const std::string alphabet = "xy ,;\"\r\n";
  std::vector<std::string_view> views;
  std::string scratch;
  for (int trial = 0; trial < 2000; ++trial) {
    for (char sep : {',', ';'}) {
      std::vector<std::string> fields(1 + rng() % 6);
      for (std::string& f : fields) {
        size_t len = rng() % 3 == 0 ? 0 : rng() % 8;
        for (size_t i = 0; i < len; ++i) {
          f.push_back(alphabet[rng() % alphabet.size()]);
        }
      }
      std::string line = FormatCsvLine(fields, sep);
      ASSERT_TRUE(SplitCsvLine(line, sep, &views, &scratch).ok()) << line;
      EXPECT_EQ(std::vector<std::string>(views.begin(), views.end()), fields)
          << line;
    }
  }
}

// --- JSON --------------------------------------------------------------------

TEST(JsonTest, QuoteEscapes) {
  EXPECT_EQ(JsonQuote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
}

TEST(JsonTest, ObjectWithValues) {
  JsonWriter w;
  w.BeginObject().KV("a", int64_t{1}).KV("b", "x").KV("c", true).EndObject();
  EXPECT_EQ(w.str(), "{\"a\":1,\"b\":\"x\",\"c\":true}");
}

TEST(JsonTest, NestedStructures) {
  JsonWriter w;
  w.BeginObject()
      .Key("list")
      .BeginArray()
      .Int(1)
      .Int(2)
      .EndArray()
      .Key("obj")
      .BeginObject()
      .KV("k", "v")
      .EndObject()
      .EndObject();
  EXPECT_EQ(w.str(), "{\"list\":[1,2],\"obj\":{\"k\":\"v\"}}");
}

TEST(JsonTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray().Double(NAN).Double(INFINITY).EndArray();
  EXPECT_EQ(w.str(), "[null,null]");
}

// --- Byte codec ---------------------------------------------------------------

TEST(BytesTest, RoundTripAllTypes) {
  ByteWriter w;
  w.PutU8(7);
  w.PutU32(0xCAFE);
  w.PutU64(1ULL << 60);
  w.PutI64(-42);
  w.PutDouble(3.25);
  w.PutBool(true);
  w.PutString("hello");

  ByteReader r(w.data());
  EXPECT_EQ(r.GetU8().value(), 7);
  EXPECT_EQ(r.GetU32().value(), 0xCAFEu);
  EXPECT_EQ(r.GetU64().value(), 1ULL << 60);
  EXPECT_EQ(r.GetI64().value(), -42);
  EXPECT_DOUBLE_EQ(r.GetDouble().value(), 3.25);
  EXPECT_TRUE(r.GetBool().value());
  EXPECT_EQ(r.GetString().value(), "hello");
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncatedReadsAreCorruption) {
  ByteWriter w;
  w.PutU64(1);
  ByteReader r(std::string_view(w.data().data(), 4));
  EXPECT_TRUE(r.GetU64().status().IsCorruption());
}

TEST(BytesTest, StringLengthBeyondBufferIsCorruption) {
  ByteWriter w;
  w.PutU64(1000);  // declared length far beyond actual bytes
  w.PutRaw("ab", 2);
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetString().status().IsCorruption());
}

TEST(BytesTest, BadBoolIsCorruption) {
  ByteWriter w;
  w.PutU8(2);
  ByteReader r(w.data());
  EXPECT_TRUE(r.GetBool().status().IsCorruption());
}

// --- RNG ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRangeAndCoversValues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBelow(5);
    EXPECT_LT(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveBounds) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0;
  double sum_sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  double mean = sum / n;
  double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RngTest, WeightedChoiceRespectsWeights) {
  Rng rng(17);
  std::vector<double> weights = {0.0, 9.0, 1.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 5000; ++i) {
    ++counts[rng.WeightedChoice(weights)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[1], counts[2] * 5);
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(&v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

// --- Clocks ---------------------------------------------------------------------

TEST(ClockTest, SystemClockMonotonic) {
  SystemClock* clock = SystemClock::Default();
  int64_t a = clock->NowMicros();
  int64_t b = clock->NowMicros();
  EXPECT_LE(a, b);
  EXPECT_FALSE(clock->is_virtual());
}

TEST(ClockTest, SystemClockAdvanceIsNoOp) {
  SystemClock* clock = SystemClock::Default();
  int64_t before = clock->NowMicros();
  clock->AdvanceMicros(1000000000);
  EXPECT_LT(clock->NowMicros() - before, 1000000);
}

TEST(ClockTest, VirtualClockAdvances) {
  VirtualClock clock(100);
  EXPECT_TRUE(clock.is_virtual());
  EXPECT_EQ(clock.NowMicros(), 100);
  clock.AdvanceMicros(50);
  EXPECT_EQ(clock.NowMicros(), 150);
  clock.AdvanceMicros(-10);  // negative advances ignored
  EXPECT_EQ(clock.NowMicros(), 150);
}

TEST(ClockTest, ScopedTimerOnVirtualClock) {
  VirtualClock clock;
  ScopedTimer timer(&clock);
  clock.AdvanceMicros(42);
  EXPECT_EQ(timer.ElapsedMicros(), 42);
}

// --- File utilities ---------------------------------------------------------------

class FileUtilTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dir = MakeTempDir("helix-file-test");
    ASSERT_TRUE(dir.ok());
    dir_ = dir.value();
  }
  void TearDown() override { (void)RemoveDirRecursively(dir_); }

  std::string dir_;
};

TEST_F(FileUtilTest, WriteReadRoundTrip) {
  std::string path = JoinPath(dir_, "f.bin");
  std::string payload("binary\0data", 11);
  ASSERT_TRUE(WriteStringToFile(path, payload).ok());
  auto read = ReadFileToString(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), payload);
  EXPECT_EQ(FileSize(path).value(), 11);
}

TEST_F(FileUtilTest, ReadMissingIsNotFound) {
  EXPECT_TRUE(ReadFileToString(JoinPath(dir_, "nope")).status().IsNotFound());
}

TEST_F(FileUtilTest, WriteIsAtomicNoTempLeftBehind) {
  std::string path = JoinPath(dir_, "g.txt");
  ASSERT_TRUE(WriteStringToFile(path, "x").ok());
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(FileUtilTest, MakeDirsIdempotent) {
  std::string nested = JoinPath(dir_, "a/b/c");
  EXPECT_TRUE(MakeDirs(nested).ok());
  EXPECT_TRUE(MakeDirs(nested).ok());
}

TEST_F(FileUtilTest, ListFilesSeesRegularFiles) {
  ASSERT_TRUE(WriteStringToFile(JoinPath(dir_, "a.txt"), "1").ok());
  ASSERT_TRUE(WriteStringToFile(JoinPath(dir_, "b.txt"), "2").ok());
  ASSERT_TRUE(MakeDirs(JoinPath(dir_, "subdir")).ok());
  auto files = ListFiles(dir_);
  ASSERT_TRUE(files.ok());
  std::set<std::string> names(files.value().begin(), files.value().end());
  EXPECT_TRUE(names.count("a.txt"));
  EXPECT_TRUE(names.count("b.txt"));
  EXPECT_FALSE(names.count("subdir"));
}

TEST_F(FileUtilTest, RemoveFileIfExistsTolerantOfMissing) {
  EXPECT_TRUE(RemoveFileIfExists(JoinPath(dir_, "ghost")).ok());
}

TEST_F(FileUtilTest, JoinPathHandlesSlashes) {
  EXPECT_EQ(JoinPath("a", "b"), "a/b");
  EXPECT_EQ(JoinPath("a/", "b"), "a/b");
  EXPECT_EQ(JoinPath("a", "/b"), "a/b");
  EXPECT_EQ(JoinPath("a/", "/b"), "a/b");
  EXPECT_EQ(JoinPath("", "b"), "b");
  EXPECT_EQ(JoinPath("a", ""), "a");
}

// --- Logging ----------------------------------------------------------------

TEST(LoggingTest, ParseLogLevelAcceptsNamesCaseInsensitively) {
  LogLevel level = LogLevel::kOff;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("INFO", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
  EXPECT_TRUE(ParseLogLevel("Warning", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("error", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("OFF", &level));
  EXPECT_EQ(level, LogLevel::kOff);
}

TEST(LoggingTest, ParseLogLevelRejectsGarbageWithoutClobbering) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_FALSE(ParseLogLevel("2", &level));
  EXPECT_EQ(level, LogLevel::kInfo);
}

}  // namespace
}  // namespace helix
