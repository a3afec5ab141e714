// Tests for src/nlp and src/datagen: tokenizer, gazetteers, token
// features, mention decoding, and the synthetic data generators.
#include <gtest/gtest.h>

#include <cctype>
#include <set>

#include "common/file_util.h"
#include "dataflow/data_collection.h"
#include "datagen/census_gen.h"
#include "datagen/news_gen.h"
#include "nlp/gazetteer.h"
#include "nlp/mention_decoder.h"
#include "nlp/token_features.h"
#include "nlp/tokenizer.h"
#include "table_util.h"

namespace helix {
namespace {

using nlp::Token;

// --- Tokenizer ------------------------------------------------------------------

TEST(TokenizerTest, SplitsWordsAndPunctuation) {
  auto tokens = nlp::Tokenize("Alice met Bob.");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].text, "Alice");
  EXPECT_EQ(tokens[1].text, "met");
  EXPECT_EQ(tokens[2].text, "Bob");
  EXPECT_EQ(tokens[3].text, ".");
}

TEST(TokenizerTest, OffsetsSliceOriginalText) {
  std::string text = "  Hello,  world! ";
  for (const Token& t : nlp::Tokenize(text)) {
    EXPECT_EQ(text.substr(static_cast<size_t>(t.begin),
                          static_cast<size_t>(t.end - t.begin)),
              t.text);
  }
}

TEST(TokenizerTest, KeepsInternalApostropheAndHyphen) {
  auto tokens = nlp::Tokenize("O'Brien is vice-president");
  EXPECT_EQ(tokens[0].text, "O'Brien");
  EXPECT_EQ(tokens[2].text, "vice-president");
}

TEST(TokenizerTest, TrailingApostropheNotAbsorbed) {
  auto tokens = nlp::Tokenize("the dogs' bowls");
  EXPECT_EQ(tokens[1].text, "dogs");
  EXPECT_EQ(tokens[2].text, "'");
}

TEST(TokenizerTest, InitialsKeepPeriod) {
  auto tokens = nlp::Tokenize("J. Smith arrived.");
  EXPECT_EQ(tokens[0].text, "J.");
  EXPECT_EQ(tokens[1].text, "Smith");
}

TEST(TokenizerTest, HonorificsKeepPeriod) {
  auto tokens = nlp::Tokenize("Mr. Smith met Dr. Jones");
  EXPECT_EQ(tokens[0].text, "Mr.");
  EXPECT_EQ(tokens[2].text, "met");
  EXPECT_EQ(tokens[3].text, "Dr.");
}

TEST(TokenizerTest, RegularWordDoesNotAbsorbPeriod) {
  auto tokens = nlp::Tokenize("He left.");
  EXPECT_EQ(tokens[1].text, "left");
  EXPECT_EQ(tokens[2].text, ".");
}

TEST(TokenizerTest, EmptyAndWhitespaceOnly) {
  EXPECT_TRUE(nlp::Tokenize("").empty());
  EXPECT_TRUE(nlp::Tokenize("   \t\n").empty());
}

TEST(TokenizerTest, IsHonorificList) {
  EXPECT_TRUE(nlp::IsHonorific("Mr."));
  EXPECT_TRUE(nlp::IsHonorific("Dr."));
  EXPECT_FALSE(nlp::IsHonorific("Mr"));
  EXPECT_FALSE(nlp::IsHonorific("mr."));
}

// --- Word shape -----------------------------------------------------------------

TEST(WordShapeTest, CollapsesRuns) {
  EXPECT_EQ(nlp::WordShape("Alice"), "Xx");
  EXPECT_EQ(nlp::WordShape("USA"), "X");
  EXPECT_EQ(nlp::WordShape("hello"), "x");
  EXPECT_EQ(nlp::WordShape("A1-b2"), "Xd-xd");
  EXPECT_EQ(nlp::WordShape("McDonald"), "XxXx");
  EXPECT_EQ(nlp::WordShape(""), "");
}

// --- Gazetteer -------------------------------------------------------------------

TEST(GazetteerTest, BuiltinsContainExpectedNames) {
  EXPECT_TRUE(nlp::FirstNameGazetteer().Contains("James"));
  EXPECT_TRUE(nlp::LastNameGazetteer().Contains("Smith"));
  EXPECT_FALSE(nlp::FirstNameGazetteer().Contains("james"));  // case matters
  EXPECT_FALSE(nlp::FirstNameGazetteer().Contains("Zoran"));  // OOV pool
}

TEST(GazetteerTest, OovPoolsDisjointFromGazetteer) {
  for (const std::string& name : nlp::OutOfGazetteerFirstNames()) {
    EXPECT_FALSE(nlp::FirstNameGazetteer().Contains(name)) << name;
  }
  for (const std::string& name : nlp::OutOfGazetteerLastNames()) {
    EXPECT_FALSE(nlp::LastNameGazetteer().Contains(name)) << name;
  }
}

// --- Token features ---------------------------------------------------------------

TEST(TokenFeaturesTest, IdentityAndShapeFamilies) {
  dataflow::FeatureDict dict;
  dataflow::SparseVector out;
  auto tokens = nlp::Tokenize("Alice met");
  nlp::TokenFeatureOptions opts;  // identity + shape on by default
  nlp::ExtractTokenFeatures(tokens, 0, opts, &dict, &out);
  EXPECT_GE(dict.Lookup("w=alice"), 0);
  EXPECT_GE(dict.Lookup("shape=Xx"), 0);
  EXPECT_GE(dict.Lookup("cap"), 0);
}

TEST(TokenFeaturesTest, GazetteerFamilyToggle) {
  auto tokens = nlp::Tokenize("James Smith spoke");
  nlp::TokenFeatureOptions without;
  without.gazetteer = false;
  dataflow::FeatureDict dict_a;
  dataflow::SparseVector out_a;
  nlp::ExtractTokenFeatures(tokens, 0, without, &dict_a, &out_a);
  EXPECT_LT(dict_a.Lookup("gaz_first"), 0);

  nlp::TokenFeatureOptions with;
  with.gazetteer = true;
  dataflow::FeatureDict dict_b;
  dataflow::SparseVector out_b;
  nlp::ExtractTokenFeatures(tokens, 0, with, &dict_b, &out_b);
  EXPECT_GE(dict_b.Lookup("gaz_first"), 0);
  EXPECT_DOUBLE_EQ(out_b.Get(dict_b.Lookup("gaz_first")), 1.0);
}

TEST(TokenFeaturesTest, ContextWindowEmitsNeighborsAndBoundaries) {
  auto tokens = nlp::Tokenize("Alice met Bob");
  nlp::TokenFeatureOptions opts;
  opts.context = true;
  opts.context_window = 1;
  dataflow::FeatureDict dict;
  dataflow::SparseVector out;
  nlp::ExtractTokenFeatures(tokens, 0, opts, &dict, &out);
  EXPECT_GE(dict.Lookup("L1:<bos>"), 0);
  EXPECT_GE(dict.Lookup("R1:w=met"), 0);

  dataflow::SparseVector out_last;
  nlp::ExtractTokenFeatures(tokens, 2, opts, &dict, &out_last);
  EXPECT_GE(dict.Lookup("R1:<eos>"), 0);
  EXPECT_GE(dict.Lookup("L1:w=met"), 0);
}

TEST(TokenFeaturesTest, HonorificCue) {
  auto tokens = nlp::Tokenize("Mr. Smith spoke");
  nlp::TokenFeatureOptions opts;
  opts.honorific = true;
  dataflow::FeatureDict dict;
  dataflow::SparseVector out;
  nlp::ExtractTokenFeatures(tokens, 1, opts, &dict, &out);
  EXPECT_GE(dict.Lookup("after_title"), 0);
  dataflow::SparseVector title_out;
  nlp::ExtractTokenFeatures(tokens, 0, opts, &dict, &title_out);
  EXPECT_DOUBLE_EQ(title_out.Get(dict.Lookup("is_title")), 1.0);
}

TEST(TokenFeaturesTest, PositionCueAtSentenceStart) {
  auto tokens = nlp::Tokenize("Hello . World");
  nlp::TokenFeatureOptions opts;
  opts.position = true;
  dataflow::FeatureDict dict;
  dataflow::SparseVector first;
  nlp::ExtractTokenFeatures(tokens, 0, opts, &dict, &first);
  EXPECT_DOUBLE_EQ(first.Get(dict.Lookup("sent_start")), 1.0);
  dataflow::SparseVector after_period;
  nlp::ExtractTokenFeatures(tokens, 2, opts, &dict, &after_period);
  EXPECT_DOUBLE_EQ(after_period.Get(dict.Lookup("sent_start")), 1.0);
}

TEST(TokenFeaturesTest, PrefixSuffixFamilies) {
  auto tokens = nlp::Tokenize("Johnson");
  nlp::TokenFeatureOptions opts;
  opts.prefix_suffix = true;
  dataflow::FeatureDict dict;
  dataflow::SparseVector out;
  nlp::ExtractTokenFeatures(tokens, 0, opts, &dict, &out);
  EXPECT_GE(dict.Lookup("p2=jo"), 0);
  EXPECT_GE(dict.Lookup("s3=son"), 0);
}

TEST(TokenFeaturesTest, CanonicalEncodingDistinguishesConfigs) {
  nlp::TokenFeatureOptions a;
  nlp::TokenFeatureOptions b;
  b.gazetteer = true;
  EXPECT_NE(a.Canonical(), b.Canonical());
  nlp::TokenFeatureOptions c;
  c.context = true;
  c.context_window = 2;
  nlp::TokenFeatureOptions d;
  d.context = true;
  d.context_window = 1;
  EXPECT_NE(c.Canonical(), d.Canonical());
}

// --- Mention decoding ---------------------------------------------------------------

TEST(MentionDecoderTest, MergesConsecutivePositives) {
  auto tokens = nlp::Tokenize("Alice Smith met Bob");
  std::vector<double> probs = {0.9, 0.8, 0.1, 0.95};
  auto spans = nlp::DecodeMentions(tokens, probs, {});
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].begin, tokens[0].begin);
  EXPECT_EQ(spans[0].end, tokens[1].end);
  EXPECT_EQ(spans[1].begin, tokens[3].begin);
  EXPECT_EQ(spans[0].label, "PERSON");
}

TEST(MentionDecoderTest, ThresholdApplied) {
  auto tokens = nlp::Tokenize("a b");
  std::vector<double> probs = {0.45, 0.55};
  nlp::MentionDecoderOptions opts;
  opts.threshold = 0.5;
  auto spans = nlp::DecodeMentions(tokens, probs, opts);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].begin, tokens[1].begin);
}

TEST(MentionDecoderTest, LengthFiltering) {
  auto tokens = nlp::Tokenize("a b c d e");
  std::vector<double> probs(5, 0.9);
  nlp::MentionDecoderOptions opts;
  opts.max_tokens = 3;
  EXPECT_TRUE(nlp::DecodeMentions(tokens, probs, opts).empty());
  opts.max_tokens = 6;
  opts.min_tokens = 6;
  EXPECT_TRUE(nlp::DecodeMentions(tokens, probs, opts).empty());
  opts.min_tokens = 5;
  EXPECT_EQ(nlp::DecodeMentions(tokens, probs, opts).size(), 1u);
}

TEST(MentionDecoderTest, TokenLabelsFromSpansExactContainment) {
  auto tokens = nlp::Tokenize("Alice Smith met Bob");
  std::vector<dataflow::Span> gold = {
      {tokens[0].begin, tokens[1].end, "PERSON"}};
  auto labels = nlp::TokenLabelsFromSpans(tokens, gold);
  EXPECT_TRUE(labels[0]);
  EXPECT_TRUE(labels[1]);
  EXPECT_FALSE(labels[2]);
  EXPECT_FALSE(labels[3]);
}

// --- Census generator -------------------------------------------------------------------

TEST(CensusGenTest, DeterministicForSeed) {
  datagen::CensusGenOptions opts;
  opts.num_rows = 100;
  auto a = datagen::GenerateCensusTable(opts);
  auto b = datagen::GenerateCensusTable(opts);
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
  opts.seed += 1;
  auto c = datagen::GenerateCensusTable(opts);
  EXPECT_NE(a->Fingerprint(), c->Fingerprint());
}

TEST(CensusGenTest, SchemaMatchesColumns) {
  datagen::CensusGenOptions opts;
  opts.num_rows = 10;
  auto table = datagen::GenerateCensusTable(opts);
  ASSERT_EQ(static_cast<size_t>(table->schema().num_fields()),
            datagen::CensusColumns().size());
  EXPECT_EQ(table->num_rows(), 10);
  EXPECT_EQ(table->schema().field(0).name, "age");
  EXPECT_EQ(table->schema().field(13).name, "target");
}

TEST(CensusGenTest, LabelsAreBothClassesAndCorrelated) {
  datagen::CensusGenOptions opts;
  opts.num_rows = 5000;
  auto table = datagen::GenerateCensusTable(opts);
  int target_col = table->schema().IndexOf("target");
  int edu_col = table->schema().IndexOf("education");
  int positives = 0;
  int doctorate_pos = 0;
  int doctorate_total = 0;
  int preschool_pos = 0;
  int preschool_total = 0;
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    bool over = dataflow::Cell(*table, r, target_col).AsString() == ">50K";
    positives += over;
    // Cell() materializes a Value; copy rather than bind a reference into
    // the temporary.
    const std::string edu = dataflow::Cell(*table, r, edu_col).AsString();
    if (edu == "Doctorate" || edu == "Prof-school") {
      ++doctorate_total;
      doctorate_pos += over;
    }
    if (edu == "Preschool" || edu == "1st-4th") {
      ++preschool_total;
      preschool_pos += over;
    }
  }
  // Both classes present, minority class substantial.
  EXPECT_GT(positives, 500);
  EXPECT_LT(positives, 4500);
  // Education correlates with income (planted signal).
  ASSERT_GT(doctorate_total, 0);
  ASSERT_GT(preschool_total, 0);
  EXPECT_GT(static_cast<double>(doctorate_pos) / doctorate_total,
            static_cast<double>(preschool_pos) / preschool_total + 0.2);
}

TEST(CensusGenTest, CsvParsesBackToSameShape) {
  datagen::CensusGenOptions opts;
  opts.num_rows = 50;
  std::string csv = datagen::GenerateCensusCsv(opts);
  int lines = 0;
  for (char c : csv) {
    lines += c == '\n';
  }
  EXPECT_EQ(lines, 50);
}

// --- News generator --------------------------------------------------------------------

TEST(NewsGenTest, DeterministicForSeed) {
  datagen::NewsGenOptions opts;
  opts.num_docs = 20;
  auto a = datagen::GenerateNewsCorpus(opts);
  auto b = datagen::GenerateNewsCorpus(opts);
  EXPECT_EQ(a->Fingerprint(), b->Fingerprint());
}

TEST(NewsGenTest, GoldSpansSliceToNameText) {
  datagen::NewsGenOptions opts;
  opts.num_docs = 30;
  auto corpus = datagen::GenerateNewsCorpus(opts);
  int total_spans = 0;
  for (int64_t d = 0; d < corpus->num_docs(); ++d) {
    const dataflow::Document& doc = corpus->doc(d);
    for (const dataflow::Span& s : doc.spans) {
      ASSERT_GE(s.begin, 0);
      ASSERT_LE(static_cast<size_t>(s.end), doc.text.size());
      ASSERT_LT(s.begin, s.end);
      EXPECT_EQ(s.label, "PERSON");
      std::string mention = doc.text.substr(
          static_cast<size_t>(s.begin), static_cast<size_t>(s.end - s.begin));
      // A mention is 1-3 space-separated capitalized words / initials.
      EXPECT_FALSE(mention.empty());
      EXPECT_TRUE(std::isupper(static_cast<unsigned char>(mention[0])))
          << mention;
      ++total_spans;
    }
  }
  EXPECT_GT(total_spans, 30);
}

TEST(NewsGenTest, HonorificOutsideGoldSpan) {
  datagen::NewsGenOptions opts;
  opts.num_docs = 50;
  opts.honorific_rate = 1.0;  // force honorific mentions
  auto corpus = datagen::GenerateNewsCorpus(opts);
  for (int64_t d = 0; d < corpus->num_docs(); ++d) {
    const dataflow::Document& doc = corpus->doc(d);
    for (const dataflow::Span& s : doc.spans) {
      std::string mention = doc.text.substr(
          static_cast<size_t>(s.begin), static_cast<size_t>(s.end - s.begin));
      EXPECT_FALSE(nlp::IsHonorific(mention.substr(0, mention.find(' '))))
          << mention;
    }
  }
}

TEST(NewsGenTest, SerializedCorpusRoundTrips) {
  auto dir = MakeTempDir("helix-news-test");
  ASSERT_TRUE(dir.ok());
  std::string path = JoinPath(dir.value(), "corpus.dat");
  datagen::NewsGenOptions opts;
  opts.num_docs = 5;
  ASSERT_TRUE(datagen::WriteNewsCorpus(opts, path).ok());
  auto data = ReadFileToString(path);
  ASSERT_TRUE(data.ok());
  auto collection =
      dataflow::DataCollection::DeserializeFromString(data.value());
  ASSERT_TRUE(collection.ok());
  EXPECT_EQ(collection.value().AsText().value()->num_docs(), 5);
  (void)RemoveDirRecursively(dir.value());
}

}  // namespace
}  // namespace helix
