#include "datagen/census_gen.h"

#include <cmath>

#include "common/csv.h"
#include "common/file_util.h"
#include "common/rng.h"
#include "common/strings.h"

namespace helix {
namespace datagen {

namespace {

struct Category {
  const char* name;
  double weight;       // sampling weight
  double income_bump;  // contribution to the planted income score
};

const std::vector<Category>& Workclasses() {
  static const std::vector<Category> kValues = {
      {"Private", 0.70, 0.0},      {"Self-emp-not-inc", 0.08, 0.2},
      {"Self-emp-inc", 0.03, 0.8}, {"Federal-gov", 0.03, 0.4},
      {"Local-gov", 0.06, 0.2},    {"State-gov", 0.04, 0.2},
      {"Without-pay", 0.01, -1.5}, {"Never-worked", 0.01, -2.0},
  };
  return kValues;
}

const std::vector<Category>& Educations() {
  static const std::vector<Category> kValues = {
      {"Bachelors", 0.16, 0.9},   {"Some-college", 0.22, 0.1},
      {"11th", 0.04, -0.8},       {"HS-grad", 0.32, -0.2},
      {"Prof-school", 0.02, 1.6}, {"Assoc-acdm", 0.03, 0.3},
      {"Assoc-voc", 0.04, 0.3},   {"9th", 0.02, -1.0},
      {"7th-8th", 0.02, -1.2},    {"12th", 0.01, -0.7},
      {"Masters", 0.05, 1.3},     {"1st-4th", 0.01, -1.6},
      {"10th", 0.03, -0.9},       {"Doctorate", 0.01, 1.8},
      {"5th-6th", 0.01, -1.4},    {"Preschool", 0.01, -2.0},
  };
  return kValues;
}

const std::vector<Category>& MaritalStatuses() {
  static const std::vector<Category> kValues = {
      {"Married-civ-spouse", 0.46, 0.9},
      {"Divorced", 0.14, -0.3},
      {"Never-married", 0.33, -0.7},
      {"Separated", 0.03, -0.4},
      {"Widowed", 0.03, -0.3},
      {"Married-spouse-absent", 0.01, -0.2},
  };
  return kValues;
}

const std::vector<Category>& Occupations() {
  static const std::vector<Category> kValues = {
      {"Tech-support", 0.03, 0.3},    {"Craft-repair", 0.13, 0.0},
      {"Other-service", 0.10, -0.6},  {"Sales", 0.11, 0.2},
      {"Exec-managerial", 0.13, 0.9}, {"Prof-specialty", 0.13, 0.8},
      {"Handlers-cleaners", 0.04, -0.7}, {"Machine-op-inspct", 0.06, -0.4},
      {"Adm-clerical", 0.12, -0.2},   {"Farming-fishing", 0.03, -0.5},
      {"Transport-moving", 0.05, -0.1}, {"Priv-house-serv", 0.01, -1.0},
      {"Protective-serv", 0.02, 0.3}, {"Armed-Forces", 0.01, 0.1},
      {"Unknown", 0.03, -0.3},
  };
  return kValues;
}

const std::vector<Category>& Relationships() {
  static const std::vector<Category> kValues = {
      {"Wife", 0.05, 0.5},      {"Own-child", 0.16, -1.2},
      {"Husband", 0.40, 0.6},   {"Not-in-family", 0.26, -0.4},
      {"Other-relative", 0.03, -0.6}, {"Unmarried", 0.10, -0.5},
  };
  return kValues;
}

const std::vector<Category>& Races() {
  static const std::vector<Category> kValues = {
      {"White", 0.85, 0.0},  {"Asian-Pac-Islander", 0.03, 0.1},
      {"Amer-Indian-Eskimo", 0.01, -0.1}, {"Other", 0.01, -0.1},
      {"Black", 0.10, -0.1},
  };
  return kValues;
}

const std::vector<Category>& Sexes() {
  static const std::vector<Category> kValues = {
      {"Male", 0.67, 0.2},
      {"Female", 0.33, -0.2},
  };
  return kValues;
}

const std::vector<Category>& Countries() {
  static const std::vector<Category> kValues = {
      {"United-States", 0.90, 0.0}, {"Mexico", 0.02, -0.3},
      {"Philippines", 0.01, 0.0},   {"Germany", 0.01, 0.1},
      {"Canada", 0.01, 0.1},        {"India", 0.01, 0.2},
      {"England", 0.01, 0.1},       {"Cuba", 0.01, -0.1},
      {"China", 0.01, 0.0},         {"Other", 0.01, -0.1},
  };
  return kValues;
}

size_t SampleCategory(Rng* rng, const std::vector<Category>& categories) {
  std::vector<double> weights;
  weights.reserve(categories.size());
  for (const Category& c : categories) {
    weights.push_back(c.weight);
  }
  return rng->WeightedChoice(weights);
}

}  // namespace

const std::vector<std::string>& CensusColumns() {
  static const std::vector<std::string> kColumns = {
      "age",          "workclass",     "education",    "education_num",
      "marital_status", "occupation",  "relationship", "race",
      "sex",          "capital_gain",  "capital_loss", "hours_per_week",
      "native_country", "target",
  };
  return kColumns;
}

std::shared_ptr<dataflow::TableData> GenerateCensusTable(
    const CensusGenOptions& options) {
  Rng rng(options.seed);
  // One string builder per census column; sealed into a columnar table at
  // the end (the ingestion fast path — no per-cell Value churn).
  std::vector<dataflow::ColumnBuilder> builders(
      CensusColumns().size(),
      dataflow::ColumnBuilder(dataflow::ValueType::kString));
  for (dataflow::ColumnBuilder& b : builders) {
    b.Reserve(options.num_rows);
  }

  for (int64_t i = 0; i < options.num_rows; ++i) {
    int64_t age = 17 + static_cast<int64_t>(
                           std::min(73.0, std::abs(rng.NextGaussian()) * 14 +
                                              rng.NextInt(0, 25)));
    size_t workclass = SampleCategory(&rng, Workclasses());
    size_t education = SampleCategory(&rng, Educations());
    size_t marital = SampleCategory(&rng, MaritalStatuses());
    size_t occupation = SampleCategory(&rng, Occupations());
    size_t relationship = SampleCategory(&rng, Relationships());
    size_t race = SampleCategory(&rng, Races());
    size_t sex = SampleCategory(&rng, Sexes());
    size_t country = SampleCategory(&rng, Countries());

    int64_t education_num = static_cast<int64_t>(16 - education);
    if (education_num < 1) {
      education_num = 1;
    }
    int64_t capital_gain =
        rng.NextBool(0.08) ? rng.NextInt(1000, 99999) : 0;
    int64_t capital_loss = rng.NextBool(0.05) ? rng.NextInt(100, 4356) : 0;
    int64_t hours = std::max<int64_t>(
        1, std::min<int64_t>(
               99, 40 + static_cast<int64_t>(rng.NextGaussian() * 10)));

    // Planted income score: age effect saturates at ~50, plus categorical
    // bumps, capital flows, and hours.
    double score = -2.2;
    score += (std::min<int64_t>(age, 50) - 37) * 0.045;
    score += Workclasses()[workclass].income_bump * 0.5;
    score += Educations()[education].income_bump;
    score += MaritalStatuses()[marital].income_bump;
    score += Occupations()[occupation].income_bump;
    score += Relationships()[relationship].income_bump * 0.4;
    score += Races()[race].income_bump * 0.3;
    score += Sexes()[sex].income_bump;
    score += Countries()[country].income_bump * 0.3;
    score += capital_gain > 5000 ? 1.8 : 0.0;
    score += capital_loss > 1500 ? 0.6 : 0.0;
    score += (hours - 40) * 0.02;
    // Interaction planted so InteractionFeature(edu, occ) genuinely helps:
    // highly educated executives/professionals get an extra bump.
    if (Educations()[education].income_bump > 0.8 &&
        Occupations()[occupation].income_bump > 0.7) {
      score += 0.9;
    }

    double p = 1.0 / (1.0 + std::exp(-score));
    bool over_50k = rng.NextBool(p);
    if (rng.NextBool(options.label_noise)) {
      over_50k = !over_50k;
    }

    size_t c = 0;
    builders[c++].AppendString(StrFormat("%lld", static_cast<long long>(age)));
    builders[c++].AppendString(Workclasses()[workclass].name);
    builders[c++].AppendString(Educations()[education].name);
    builders[c++].AppendString(
        StrFormat("%lld", static_cast<long long>(education_num)));
    builders[c++].AppendString(MaritalStatuses()[marital].name);
    builders[c++].AppendString(Occupations()[occupation].name);
    builders[c++].AppendString(Relationships()[relationship].name);
    builders[c++].AppendString(Races()[race].name);
    builders[c++].AppendString(Sexes()[sex].name);
    builders[c++].AppendString(
        StrFormat("%lld", static_cast<long long>(capital_gain)));
    builders[c++].AppendString(
        StrFormat("%lld", static_cast<long long>(capital_loss)));
    builders[c++].AppendString(StrFormat("%lld", static_cast<long long>(hours)));
    builders[c++].AppendString(Countries()[country].name);
    builders[c++].AppendString(over_50k ? ">50K" : "<=50K");
    // Arity matches CensusColumns by construction.
  }
  std::vector<std::shared_ptr<const dataflow::Column>> columns;
  columns.reserve(builders.size());
  for (dataflow::ColumnBuilder& b : builders) {
    columns.push_back(b.Finish());
  }
  auto table = dataflow::TableData::FromColumns(
      dataflow::Schema::AllStrings(CensusColumns()), std::move(columns));
  // Column lengths match by construction.
  return std::move(table).value();
}

namespace {

// Appends rows [begin, end) of an all-string table as CSV lines. Each
// column's string layout is resolved once, outside the row loop, and
// cells are read as views into it.
void AppendCsvLines(const dataflow::TableData& table, int64_t begin,
                    int64_t end, std::string* out) {
  size_t cols = static_cast<size_t>(table.schema().num_fields());
  std::vector<const dataflow::StringColumn*> plain(cols, nullptr);
  std::vector<const dataflow::DictionaryColumn*> dict(cols, nullptr);
  for (size_t c = 0; c < cols; ++c) {
    const dataflow::Column* col = table.column(static_cast<int>(c)).get();
    if (col->storage() == dataflow::Column::Storage::kDictString) {
      dict[c] = static_cast<const dataflow::DictionaryColumn*>(col);
    } else {
      plain[c] = static_cast<const dataflow::StringColumn*>(col);
    }
  }
  std::vector<std::string> fields(cols);
  for (int64_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      fields[c].assign(plain[c] != nullptr ? plain[c]->view(r)
                                           : dict[c]->view(r));
    }
    *out += FormatCsvLine(fields);
    *out += '\n';
  }
}

}  // namespace

std::string GenerateCensusCsv(const CensusGenOptions& options) {
  auto table = GenerateCensusTable(options);
  std::string out;
  AppendCsvLines(*table, 0, table->num_rows(), &out);
  return out;
}

Status WriteCensusFiles(const CensusGenOptions& options,
                        const std::string& train_path,
                        const std::string& test_path) {
  auto table = GenerateCensusTable(options);
  int64_t train_rows = table->num_rows() * 8 / 10;
  std::string train;
  std::string test;
  AppendCsvLines(*table, 0, train_rows, &train);
  AppendCsvLines(*table, train_rows, table->num_rows(), &test);
  HELIX_RETURN_IF_ERROR(WriteStringToFile(train_path, train));
  return WriteStringToFile(test_path, test);
}

}  // namespace datagen
}  // namespace helix
