// Envelope format coverage: per-column round trips including nulls and
// empty tables; byte-exact v3 goldens for the current writer, with the
// golden tables of the retired formats rebuilt through ColumnBuilder
// keeping their pinned fingerprints; checked-in golden bytes of every
// retired format (v1 envelope, v1 and v2 disk-store segments, v2 plain
// table, v2 per-row examples) failing closed as store misses; tables
// whose columns disagree with their schema failing closed; and a fault
// sweep (every truncation, every byte flip) through both envelope
// decoders.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/file_util.h"
#include "common/hash.h"
#include "common/strings.h"
#include "dataflow/data_collection.h"
#include "dataflow/simd.h"
#include "storage/disk_backend.h"
#include "storage/store.h"
#include "backend_util.h"
#include "table_util.h"

namespace helix {
namespace dataflow {
namespace {

std::string FromHex(std::string_view hex) {
  std::string out;
  out.reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1])));
  }
  return out;
}

// Seals `body` (magic, version, kind, payload) into an envelope with a
// valid trailer of `version`'s era (FNV-64 before v3, CRC32C from v3), so
// only the version and payload checks can reject it.
std::string SealEnvelope(const ByteWriter& body, uint32_t version) {
  ByteWriter checksum;
  if (version >= 3) {
    checksum.PutU32(simd::Crc32c(body.data().data(), body.data().size()));
  } else {
    checksum.PutU64(FnvHash64(body.data().data(), body.data().size()));
  }
  return body.data() + checksum.data();
}

// An envelope header (magic, version, kind) for a table body.
ByteWriter TableEnvelopeHeader(uint32_t version) {
  ByteWriter body;
  body.PutU32(0x44584C48);  // "HLXD"
  body.PutU32(version);
  body.PutU8(static_cast<uint8_t>(PayloadKind::kTable));
  return body;
}

// --- v1 golden: envelope bytes written by the pre-columnar row store ---------

// A 4-row (int, double, bool, string) table with one all-null row,
// serialized by the retired v1 (row-major tagged cells, FNV-64 trailer)
// writer. No reader accepts it any more; FutureVersionRejected pins that.
constexpr char kV1GoldenEnvelopeHex[] =
    "484c5844010000000104000000000000000200000000000000696401050000000000"
    "000073636f7265020400000000000000666c61670304000000000000006e616d6504"
    "0400000000000000012a00000000000000020000000000000440030104050000000000"
    "0000616c70686101f9ffffffffffffff02000000000000c0bf03000410000000000000"
    "00626574612c207769746820636f6d6d6100000000010100000000000000026e861bf0"
    "f92109400301040000000000000000dc804ea68c55a681";
constexpr uint64_t kV1GoldenFingerprint = 0xf7275f00f384218eULL;

TEST(FormatV2Test, V1GoldenTableKeepsItsFingerprint) {
  // The v1 golden's table, rebuilt through ColumnBuilder, hashes exactly
  // as the row store did, and keeps that fingerprint through a v3 round
  // trip.
  auto table = MakeTable(
      Schema({
          {"id", ValueType::kInt},
          {"score", ValueType::kDouble},
          {"flag", ValueType::kBool},
          {"name", ValueType::kString},
      }),
      {{Value(int64_t{42}), Value(2.5), Value(true), Value("alpha")},
       {Value(int64_t{-7}), Value(-0.125), Value(false),
        Value("beta, with comma")},
       {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
       {Value(int64_t{1}), Value(3.14159), Value(true), Value("")}});
  DataCollection rebuilt = DataCollection::FromTable(table);
  EXPECT_EQ(rebuilt.Fingerprint(), kV1GoldenFingerprint);
  auto again = DataCollection::DeserializeFromString(
      rebuilt.SerializeToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().Fingerprint(), kV1GoldenFingerprint);
}

// --- v1 golden: a whole disk-store segment -----------------------------------

// A seg-000001.log written by the pre-columnar build's DiskBackend (no
// file header, FNV-64 record trailers): one entry, signature
// 0xDEADBEEF12345678, holding a v1 envelope of the 2-row table below.
constexpr char kV1GoldenSegmentHex[] =
    "b70000000178563412efbeadde0b00000000000000676f6c64656e5f6e6f64656300"
    "0000000000000000000000000000ffffffffffffffffffffffffffffffff03000000"
    "000000002e801f945c14e2406300000000000000484c584401000000010200000000"
    "000000020000000000000069640104000000000000006e616d650402000000000000"
    "000101000000000000000403000000000000006f6e65010200000000000000040300"
    "00000000000074776fa795c5e403efc0135d0f89269142eeba";
constexpr uint64_t kV1GoldenSignature = 0xDEADBEEF12345678ULL;
constexpr uint64_t kV1GoldenStoreFingerprint = 0x40e2145c941f802eULL;

std::shared_ptr<TableData> V1GoldenStoreTable() {
  return MakeTable(
      Schema({{"id", ValueType::kInt}, {"name", ValueType::kString}}),
      {{Value(int64_t{1}), Value("one")}, {Value(int64_t{2}), Value("two")}});
}

// A segment of the v2 build's DiskBackend (header "HLXS" version 2,
// CRC32C record trailers, the payload's semantic fingerprint in the
// footer slot that now holds the envelope CRC): one entry, signature
// 0xC0FFEE0012345678, holding a v3 envelope of the same 2-row table.
constexpr char kV2GoldenSegmentHex[] =
    "484c585302000000bf000000484c5844030000000102000000000000000200000000"
    "00000069640104000000000000006e616d6504020000000000000001000100000000"
    "0000000200000000000000040006000000000000006f6e6574776f00000000000000"
    "0003000000000000000600000000000000411372d9676f6c64656e5f6e6f64657856"
    "341200eeffc06f000000000000000000000000000000ffffffffffffffffffffffff"
    "ffffffff00000000000000002e801f945c14e2406f000000000000000b000000010c"
    "607397";
constexpr uint64_t kV2GoldenSignature = 0xC0FFEE0012345678ULL;

// A retired segment file replays no records: its entry is a store miss,
// not an error, and the file is sealed. The next write of the recomputed
// result lands in a new segment, and compaction deletes the retired file
// like any other old segment.
void ExpectRetiredSegmentSealedThenCompacted(const std::string& segment,
                                             uint64_t signature) {
  auto dir = MakeTempDir("helix-retired-segment");
  ASSERT_TRUE(dir.ok());
  const std::string legacy = JoinPath(dir.value(), "seg-000001.log");
  ASSERT_TRUE(WriteStringToFile(legacy, segment).ok());
  {
    auto store = storage::IntermediateStore::Open(dir.value(),
                                                  storage::StoreOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ(store.value()->NumEntries(), 0u);
    EXPECT_TRUE(store.value()->Get(signature).status().IsNotFound());
  }

  auto backend = storage::DiskBackend::Open(dir.value(),
                                            storage::DiskBackendOptions());
  ASSERT_TRUE(backend.ok());
  ASSERT_TRUE(backend.value()->Recover().ok());
  EXPECT_EQ(backend.value()->NumIndexed(), 0u);
  EXPECT_GT(backend.value()->DeadBytes(), 0);
  // The next write lands in a new segment; the legacy file is untouched.
  DataCollection recomputed = DataCollection::FromTable(V1GoldenStoreTable());
  std::string payload = recomputed.SerializeToString();
  storage::StoreEntry meta;
  meta.signature = signature;
  meta.node_name = "golden_node";
  meta.size_bytes = static_cast<int64_t>(payload.size());
  meta.envelope_crc = DataCollection::VerifyEnvelopeCrc(payload).value();
  ASSERT_TRUE(storage::WriteBytes(backend.value().get(), meta, payload).ok());
  EXPECT_EQ(backend.value()->NumSegments(), 2u);
  auto legacy_bytes = ReadFileToString(legacy);
  ASSERT_TRUE(legacy_bytes.ok());
  EXPECT_EQ(legacy_bytes.value(), segment);

  ASSERT_TRUE(backend.value()->Compact().ok());
  backend.value().reset();
  auto files = ListFiles(dir.value());
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files.value().size(), 1u);
  EXPECT_NE(files.value()[0], "seg-000001.log");
  auto compacted = ReadFileToString(JoinPath(dir.value(), files.value()[0]));
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(compacted.value().substr(0, 8), std::string("HLXS\x03\0\0\0", 8));

  // The recomputed table carries the fingerprint the retired entry held,
  // and its entry the CRC of the envelope now stored.
  auto store = storage::IntermediateStore::Open(dir.value(),
                                                storage::StoreOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(store.value()->NumEntries(), 1u);
  auto loaded = store.value()->Get(signature, /*paranoid=*/true);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().Fingerprint(), kV1GoldenStoreFingerprint);
  auto entry = store.value()->GetEntry(signature);
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->node_name, "golden_node");
  EXPECT_EQ(entry->envelope_crc, meta.envelope_crc);
  (void)RemoveDirRecursively(dir.value());
}

TEST(FormatV2Test, V1SegmentIsSealedThenDeletedByCompaction) {
  ExpectRetiredSegmentSealedThenCompacted(FromHex(kV1GoldenSegmentHex),
                                          kV1GoldenSignature);
}

TEST(FormatV2Test, V2SegmentIsSealedThenDeletedByCompaction) {
  // The v2 segment is intact under its own format: its record checksum
  // holds and its envelope is the current v3, so only the segment
  // version retires it.
  std::string segment = FromHex(kV2GoldenSegmentHex);
  ASSERT_EQ(segment.substr(0, 8), std::string("HLXS\x02\0\0\0", 8));
  ExpectRetiredSegmentSealedThenCompacted(segment, kV2GoldenSignature);
}

// --- per-column round trips --------------------------------------------------

TEST(FormatV2Test, PerColumnRoundTripWithNulls) {
  auto table = MakeTable(
      Schema({
          {"i", ValueType::kInt},
          {"d", ValueType::kDouble},
          {"b", ValueType::kBool},
          {"s", ValueType::kString},
      }),
      {{Value(int64_t{7}), Value(1.5), Value(true), Value("seven")},
       {Value::Null(), Value::Null(), Value::Null(), Value::Null()},
       {Value(int64_t{-3}), Value(-0.5), Value(false), Value("")}});
  DataCollection original = DataCollection::FromTable(table);
  auto restored =
      DataCollection::DeserializeFromString(original.SerializeToString());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const TableData* t = restored.value().AsTable().value();
  ASSERT_EQ(t->num_rows(), 3);
  for (int64_t r = 0; r < 3; ++r) {
    for (int c = 0; c < 4; ++c) {
      EXPECT_EQ(Cell(*t, r, c), Cell(*table, r, c)) << r << "," << c;
    }
  }
  // Null cells survive per column.
  for (int c = 0; c < 4; ++c) {
    EXPECT_TRUE(Cell(*t, 1, c).is_null());
    EXPECT_EQ(t->column(c)->null_count(), 1);
  }
  EXPECT_EQ(restored.value().Fingerprint(), original.Fingerprint());
}

TEST(FormatV2Test, EmptyTableRoundTrip) {
  auto table =
      MakeTable(Schema({{"a", ValueType::kInt}, {"b", ValueType::kString}}),
                {});
  DataCollection original = DataCollection::FromTable(table);
  auto restored =
      DataCollection::DeserializeFromString(original.SerializeToString());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const TableData* t = restored.value().AsTable().value();
  EXPECT_EQ(t->num_rows(), 0);
  EXPECT_EQ(t->schema().num_fields(), 2);
  EXPECT_EQ(restored.value().Fingerprint(), original.Fingerprint());
}

TEST(FormatV2Test, ZeroFieldTableKeepsRowCount) {
  // Columns cannot carry the row count of a table without fields; the
  // header does.
  ByteWriter body = TableEnvelopeHeader(3);
  Schema(std::vector<Field>{}).Serialize(&body);
  body.PutU64(2);
  std::string bytes = SealEnvelope(body, 3);
  auto restored = DataCollection::DeserializeFromString(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const TableData* t = restored.value().AsTable().value();
  EXPECT_EQ(t->num_rows(), 2);
  EXPECT_EQ(restored.value().SerializeToString(), bytes);
  EXPECT_EQ(t->Filter({1})->num_rows(), 1);
}

TEST(FormatV2Test, RetiredMixedColumnTagIsCorruption) {
  // Storage tag 5 held tagged-Value cells that disagreed with the
  // declared type. No writer emits it; a column carrying it is corrupt.
  ByteWriter body = TableEnvelopeHeader(3);
  Schema::AllStrings({"a"}).Serialize(&body);
  body.PutU64(1);
  body.PutU8(5);  // the retired storage tag
  body.PutU8(0);  // no validity bitmap
  body.PutU8(static_cast<uint8_t>(ValueType::kString));  // one tagged cell
  body.PutString("text");
  std::string bytes = SealEnvelope(body, 3);
  auto got = DataCollection::DeserializeFromString(bytes);
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  EXPECT_NE(got.status().ToString().find("storage tag 5"), std::string::npos)
      << got.status().ToString();
  EXPECT_TRUE(DataCollection::DeserializeVerified(bytes).status()
                  .IsCorruption());
}

TEST(FormatV2Test, ColumnThatDisagreesWithItsFieldIsCorruption) {
  // A well-formed v3 double column under a field declared bool.
  ByteWriter body = TableEnvelopeHeader(3);
  Schema({{"d", ValueType::kBool}}).Serialize(&body);
  body.PutU64(1);
  body.PutU8(static_cast<uint8_t>(Column::Storage::kDouble));
  body.PutU8(0);
  body.PutDouble(0.25);
  std::string bytes = SealEnvelope(body, 3);
  auto got = DataCollection::DeserializeFromString(bytes);
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
  EXPECT_TRUE(DataCollection::DeserializeVerified(bytes).status()
                  .IsCorruption());
}

// Replaces a v3 envelope's 4-byte CRC32C trailer with the checksum of
// its (edited) body, so only the decoder's structural checks can object.
std::string ResealV3(const std::string& bytes) {
  ByteWriter fixed;
  fixed.PutRaw(bytes.data(), bytes.size() - 4);
  fixed.PutU32(simd::Crc32c(fixed.data().data(), fixed.data().size()));
  return fixed.data();
}

// --- selection vectors / zero-copy sharing -----------------------------------

TEST(FormatV2Test, FilterGathersEveryColumnAndValidity) {
  std::vector<Row> rows;
  for (int64_t r = 0; r < 10; ++r) {
    if (r == 4) {
      rows.push_back({Value::Null(), Value::Null()});
    } else {
      rows.push_back(
          {Value(r), Value(StrFormat("r%lld", static_cast<long long>(r)))});
    }
  }
  auto table = MakeTable(
      Schema({{"i", ValueType::kInt}, {"s", ValueType::kString}}), rows);
  SelectionVector sel = {1, 4, 9};
  std::shared_ptr<TableData> filtered = table->Filter(sel);
  ASSERT_EQ(filtered->num_rows(), 3);
  EXPECT_EQ(Cell(*filtered, 0, 0).AsInt(), 1);
  EXPECT_TRUE(Cell(*filtered, 1, 0).is_null());
  EXPECT_TRUE(Cell(*filtered, 1, 1).is_null());
  EXPECT_EQ(Cell(*filtered, 2, 1).AsString(), "r9");
  EXPECT_EQ(filtered->column(0)->null_count(), 1);
}

TEST(FormatV2Test, FromColumnsSharesHandlesZeroCopy) {
  auto table =
      MakeTable(Schema::AllStrings({"a", "b"}), {{Value("x"), Value("y")}});
  auto projected = TableData::FromColumns(Schema::AllStrings({"b"}),
                                          {table->column(1)});
  ASSERT_TRUE(projected.ok());
  EXPECT_EQ(projected.value()->column(0).get(), table->column(1).get());
}

// --- v2 golden: plain (non-dictionary) envelope ------------------------------

// A 5-row (int, double, bool, string) table with one null row, serialized
// by the retired v2 writer (FNV-64 trailer) before dictionary encoding
// existed. No reader accepts it any more; FutureVersionRejected pins that.
constexpr char kV2GoldenPlainHex[] =
    "484c58440200000001040000000000000002000000000000006964010500000000"
    "00000073636f7265020400000000000000666c61670304000000000000006e616d"
    "65040500000000000000010117feffffffffffffff05000000000000000c000000"
    "0000000000000000000000001a000000000000000200000000000000f0bf000000"
    "000000e0bf0000000000000000000000000000e03f000000000000f03f03011b01"
    "0000000104010f0e00000000000000616c70686162657461616c70686100000000"
    "00000000050000000000000009000000000000000e000000000000000e00000000"
    "0000000e00000000000000c6db2588346654c2";
constexpr uint64_t kV2GoldenPlainFingerprint = 0x132f14db53fe3c81ULL;

// The same table as the current (v3) writer emits it: the v2 body under
// version 3 and a 4-byte CRC32C trailer.
constexpr char kV3GoldenPlainHex[] =
    "484c58440300000001040000000000000002000000000000006964010500000000"
    "00000073636f7265020400000000000000666c61670304000000000000006e616d"
    "65040500000000000000010117feffffffffffffff05000000000000000c000000"
    "0000000000000000000000001a000000000000000200000000000000f0bf000000"
    "000000e0bf0000000000000000000000000000e03f000000000000f03f03011b01"
    "0000000104010f0e00000000000000616c70686162657461616c70686100000000"
    "00000000050000000000000009000000000000000e000000000000000e00000000"
    "0000000e000000000000005ad9789a";

TEST(FormatV2Test, V3PlainGoldenLoadsAndReserializes) {
  // 5 rows is below ColumnBuilder::kMinDictRows, so the rebuilt table's
  // string column stays plain: the dictionary feature must not disturb
  // small tables' wire format or fingerprints.
  auto table = MakeTable(
      Schema({
          {"id", ValueType::kInt},
          {"score", ValueType::kDouble},
          {"flag", ValueType::kBool},
          {"name", ValueType::kString},
      }),
      {{Value(int64_t{-2}), Value(-1.0), Value(true), Value("alpha")},
       {Value(int64_t{5}), Value(-0.5), Value(false), Value("beta")},
       {Value(int64_t{12}), Value(0.0), Value::Null(), Value("alpha")},
       {Value::Null(), Value(0.5), Value(false), Value("")},
       {Value(int64_t{26}), Value(1.0), Value(true), Value::Null()}});
  DataCollection rebuilt = DataCollection::FromTable(table);
  EXPECT_EQ(rebuilt.Fingerprint(), kV2GoldenPlainFingerprint);
  EXPECT_EQ(table->column(3)->storage(), Column::Storage::kString);
  std::string v3 = FromHex(kV3GoldenPlainHex);
  EXPECT_EQ(rebuilt.SerializeToString(), v3);

  auto restored = DataCollection::DeserializeFromString(v3);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().Fingerprint(), kV2GoldenPlainFingerprint);
  const TableData* t = restored.value().AsTable().value();
  ASSERT_EQ(t->num_rows(), 5);
  ASSERT_EQ(t->schema().num_fields(), 4);
  EXPECT_EQ(Cell(*t, 0, 3).AsString(), "alpha");
  EXPECT_EQ(t->column(3)->storage(), Column::Storage::kString);
  EXPECT_EQ(restored.value().SerializeToString(), v3);
}

// --- dictionary-encoded string columns ---------------------------------------

// 40 rows of 3 distinct strings (plus nulls): past kMinDictRows and well
// under the distinct-ratio cutoff, so ColumnBuilder must emit dictionary
// storage.
std::shared_ptr<TableData> MakeDictTable() {
  const char* colors[] = {"red", "green", "blue"};
  std::vector<Row> rows;
  for (int64_t r = 0; r < 40; ++r) {
    rows.push_back({r % 13 == 7 ? Value::Null() : Value(colors[r % 3])});
  }
  return MakeTable(Schema::AllStrings({"color"}), rows);
}

TEST(FormatV2Test, DictionaryColumnRoundTripsThroughV2) {
  auto table = MakeDictTable();
  DataCollection original = DataCollection::FromTable(table);
  ASSERT_NE(dynamic_cast<const DictionaryColumn*>(table->column(0).get()),
            nullptr)
      << "repetitive string column should dictionary-encode";
  std::string bytes = original.SerializeToString();
  auto restored = DataCollection::DeserializeFromString(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const TableData* t = restored.value().AsTable().value();
  ASSERT_EQ(t->num_rows(), 40);
  const auto* dict_col =
      dynamic_cast<const DictionaryColumn*>(t->column(0).get());
  ASSERT_NE(dict_col, nullptr) << "dict storage must survive the wire";
  for (int64_t r = 0; r < 40; ++r) {
    EXPECT_EQ(Cell(*t, r, 0), Cell(*table, r, 0)) << "row " << r;
  }
  EXPECT_EQ(t->column(0)->null_count(), table->column(0)->null_count());
  // The fingerprint is a function of the values, not the storage, and
  // must survive the round trip unchanged.
  EXPECT_EQ(restored.value().Fingerprint(), original.Fingerprint());
  // Re-serializing the restored collection reproduces the same bytes.
  EXPECT_EQ(restored.value().SerializeToString(), bytes);
}

TEST(FormatV2Test, DictionaryFingerprintMatchesPlainStorage) {
  // The same logical values stored dict-encoded and plain must
  // fingerprint identically: fingerprints are content hashes, and a
  // storage-dependent digest would break cross-build cache hits.
  const char* colors[] = {"red", "green", "blue"};
  ColumnBuilder builder(ValueType::kString);
  std::string arena;
  std::vector<uint64_t> offsets = {0};
  for (int64_t r = 0; r < 40; ++r) {
    const char* v = colors[r % 3];
    builder.AppendString(v);
    arena += v;
    offsets.push_back(arena.size());
  }
  std::shared_ptr<const Column> dict_col = builder.Finish();
  ASSERT_NE(dynamic_cast<const DictionaryColumn*>(dict_col.get()), nullptr);
  auto plain_col = std::make_shared<StringColumn>(
      std::move(arena), std::move(offsets), std::vector<uint8_t>{}, 0);
  auto dict_table =
      TableData::FromColumns(Schema::AllStrings({"color"}), {dict_col});
  auto plain_table =
      TableData::FromColumns(Schema::AllStrings({"color"}), {plain_col});
  ASSERT_TRUE(dict_table.ok());
  ASSERT_TRUE(plain_table.ok());
  EXPECT_EQ(DataCollection::FromTable(dict_table.value()).Fingerprint(),
            DataCollection::FromTable(plain_table.value()).Fingerprint());
}

TEST(FormatV2Test, DictionaryCodeOutOfRangeRejected) {
  DataCollection original = DataCollection::FromTable(MakeDictTable());
  std::string bytes = original.SerializeToString();
  // The dict column's row codes are the last body bytes before the
  // 4-byte envelope checksum; stamp the final code with an impossible
  // value and re-fix the checksum so only the code validation can
  // object.
  size_t last_code = bytes.size() - 4 - sizeof(uint32_t);
  for (size_t i = 0; i < sizeof(uint32_t); ++i) {
    bytes[last_code + i] = static_cast<char>(0xFF);
  }
  auto result = DataCollection::DeserializeFromString(ResealV3(bytes));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
  EXPECT_NE(result.status().ToString().find("code out of range"),
            std::string::npos)
      << result.status().ToString();
}

TEST(FormatV2Test, DictionaryEnvelopeCorruptionCaughtByChecksum) {
  DataCollection original = DataCollection::FromTable(MakeDictTable());
  std::string bytes = original.SerializeToString();
  bytes[bytes.size() / 2] ^= 0x40;  // flip one bit mid-envelope
  auto result = DataCollection::DeserializeFromString(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCorruption());
}

// --- zero-copy span serialization --------------------------------------------

TEST(FormatV2Test, SerializeToSpansIsByteIdenticalToString) {
  // Both a dict-heavy table and a plain mixed-type table: the span path
  // must flatten to the exact SerializeToString bytes (same envelope,
  // same checksum) — the zero-copy FetchOutput reply relies on this
  // identity.
  std::vector<DataCollection> cases;
  cases.push_back(DataCollection::FromTable(MakeDictTable()));
  auto plain = MakeTable(
      Schema({
          {"i", ValueType::kInt},
          {"d", ValueType::kDouble},
          {"b", ValueType::kBool},
          {"s", ValueType::kString},
      }),
      {{Value(int64_t{1}), Value(0.5), Value(true), Value("one")},
       {Value::Null(), Value::Null(), Value::Null(), Value::Null()}});
  cases.push_back(DataCollection::FromTable(plain));
  for (const DataCollection& dc : cases) {
    std::string flat = dc.SerializeToString();
    SpanWriter spans;
    dc.SerializeToSpans(&spans);
    EXPECT_EQ(spans.TotalBytes(), flat.size());
    EXPECT_EQ(spans.Flatten(), flat);
    // With a caller prefix already in the scratch writer (the reply
    // status in the wire path), the envelope bytes — and its checksum,
    // which must exclude the prefix — are unchanged.
    SpanWriter prefixed;
    prefixed.writer()->PutU32(0xfeedfaceu);
    dc.SerializeToSpans(&prefixed);
    EXPECT_EQ(prefixed.Flatten().substr(4), flat);
  }
}

// --- examples golden: envelope bytes written by the per-row layout ----------

// Four examples over a 3-name dictionary, serialized by the retired v2
// writer (one tagged record per row, FNV-64 trailer) before examples were
// stored as CSR arrays: an empty row, a -0.0 value, an index past the
// dictionary with a subnormal value, a negative id, and both splits. No
// reader accepts it any more; FutureVersionRejected pins that.
constexpr char kExamplesGoldenHex[] =
    "484c58440200000003030000000000000002000000000000006630020000000000"
    "000066310200000000000000663204000000000000000000000000000000000000"
    "000000000000000000000000000002000000000000000000000000000000000000"
    "000000f83f02000000000000000000000000000080000000000000f03f07000000"
    "00000000010200000000000000010000000000000000000000000002c005000000"
    "00000000069b0f78335a0000000000000000f03ffdffffffffffffff0001000000"
    "000000000000000000000000000000000000000000000000000000002a00000000"
    "000000018c6c735e6301fd30";
constexpr uint64_t kExamplesGoldenFingerprint = 0x87fa8bc623eeb37eULL;
constexpr int64_t kExamplesGoldenSizeBytes = 486;

// The same four examples as the v3 writer emits them: one block per CSR
// array (offsets, i32 indices, values, labels, ids, split flags) and a
// CRC32C trailer — 295 bytes against the per-row form's 340.
constexpr char kExamplesV3GoldenHex[] =
    "484c58440300000003030000000000000002000000000000006630020000000000"
    "000066310200000000000000663204000000000000000000000000000000000000"
    "000000000002000000000000000400000000000000050000000000000000000000"
    "02000000010000000500000000000000000000000000f83f000000000000008000"
    "000000000002c0069b0f78335a0000000000000000000000000000000000000000"
    "00000000f03f000000000000f03f00000000000000000000000000000000070000"
    "0000000000fdffffffffffffff2a0000000000000000010001bdd018bd";

TEST(FormatV2Test, ExamplesV3GoldenLoadsAndReserializes) {
  std::string v3 = FromHex(kExamplesV3GoldenHex);
  auto restored = DataCollection::DeserializeFromString(v3);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored.value().Fingerprint(), kExamplesGoldenFingerprint);
  EXPECT_EQ(restored.value().SizeBytes(), kExamplesGoldenSizeBytes);
  EXPECT_EQ(restored.value().SerializeToString(), v3);
  // The span path borrows the CSR blocks and flattens to the same bytes.
  SpanWriter spans;
  restored.value().SerializeToSpans(&spans);
  EXPECT_EQ(spans.Flatten(), v3);
  const ExamplesData* e = restored.value().AsExamples().value();
  ASSERT_EQ(e->num_examples(), 4);
  EXPECT_EQ(e->features(0).num_entries(), 0);
  EXPECT_TRUE(std::signbit(e->features(1).Get(2)));
  EXPECT_EQ(e->features(2).MaxIndex(), 5);
  EXPECT_EQ(e->id(2), -3);
  EXPECT_TRUE(e->is_test(3));

  // Rebuilt through the row builder, the same rows give the same bytes,
  // fingerprint and SizeBytes.
  ExamplesData rebuilt;
  for (const char* name : {"f0", "f1", "f2"}) {
    rebuilt.mutable_dict()->Intern(name);
  }
  for (int64_t i = 0; i < e->num_examples(); ++i) {
    SparseVector row;
    SparseRow view = e->features(i);
    for (int32_t k = 0; k < view.num_entries(); ++k) {
      row.Set(view.index(k), view.value(k));
    }
    rebuilt.AddRow(row.view(), e->label(i), e->id(i), e->is_test(i));
  }
  auto shared = std::make_shared<ExamplesData>(rebuilt);
  DataCollection rebuilt_dc = DataCollection::FromExamples(shared);
  EXPECT_EQ(rebuilt_dc.SerializeToString(), v3);
  EXPECT_EQ(rebuilt_dc.Fingerprint(), kExamplesGoldenFingerprint);
  EXPECT_EQ(rebuilt_dc.SizeBytes(), kExamplesGoldenSizeBytes);
}

// --- retired and unknown versions --------------------------------------------

TEST(FormatV2Test, FutureVersionRejected) {
  // Only the current version (3) is read. Every other one is Corruption
  // through both decoders, each carrying a valid trailer of its era so
  // that only the version check can reject it: the retired v1 and v2
  // goldens as their writers emitted them, a version 0, and the next,
  // unreleased version.
  auto table = MakeTable(Schema::AllStrings({"a"}), {{Value("x")}});
  std::string v4 = DataCollection::FromTable(table).SerializeToString();
  v4[4] = 4;  // the version field: bytes 4..7, little-endian
  v4 = ResealV3(v4);
  std::string v1 = FromHex(kV1GoldenEnvelopeHex);
  ByteWriter v0_body;
  v0_body.PutRaw(v1.data(), 4);  // magic
  v0_body.PutU32(0);
  v0_body.PutRaw(v1.data() + 8, v1.size() - 8 - 8);  // all but the trailer
  std::string v0 = SealEnvelope(v0_body, 0);
  const std::vector<std::pair<uint32_t, std::string>> cases = {
      {0, v0},
      {1, v1},
      {2, FromHex(kV2GoldenPlainHex)},
      {2, FromHex(kExamplesGoldenHex)},
      {4, v4},
  };
  for (const auto& [version, bytes] : cases) {
    ASSERT_EQ(ByteReader(std::string_view(bytes).substr(4)).GetU32().value(),
              version);
    for (bool verified : {false, true}) {
      auto result = verified ? DataCollection::DeserializeVerified(bytes)
                             : DataCollection::DeserializeFromString(bytes);
      EXPECT_TRUE(result.status().IsCorruption())
          << "v" << version << ": " << result.status().ToString();
      EXPECT_NE(result.status().ToString().find("unsupported format version"),
                std::string::npos)
          << "v" << version << ": " << result.status().ToString();
    }
  }

  // In a store, each is a well-formed record of the current segment
  // format whose envelope no longer decodes: Get is Corruption and evicts
  // the entry, so the caller recomputes.
  auto dir = MakeTempDir("helix-retired-envelopes");
  ASSERT_TRUE(dir.ok());
  {
    auto backend = storage::DiskBackend::Open(dir.value(),
                                              storage::DiskBackendOptions());
    ASSERT_TRUE(backend.ok());
    ASSERT_TRUE(backend.value()->Recover().ok());
    for (size_t i = 0; i < cases.size(); ++i) {
      storage::StoreEntry meta;
      meta.signature = 100 + i;
      meta.node_name = "retired";
      meta.size_bytes = static_cast<int64_t>(cases[i].second.size());
      ASSERT_TRUE(storage::WriteBytes(backend.value().get(), meta,
                                      cases[i].second)
                      .ok());
    }
  }
  auto store = storage::IntermediateStore::Open(dir.value(),
                                                storage::StoreOptions());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_EQ(store.value()->NumEntries(), cases.size());
  for (size_t i = 0; i < cases.size(); ++i) {
    auto got = store.value()->Get(100 + i);
    EXPECT_TRUE(got.status().IsCorruption())
        << "v" << cases[i].first << ": " << got.status().ToString();
    EXPECT_FALSE(store.value()->Has(100 + i)) << "v" << cases[i].first;
  }
  EXPECT_EQ(store.value()->NumEntries(), 0u);
  store.value().reset();
  (void)RemoveDirRecursively(dir.value());
}

TEST(FormatV2Test, ImplausibleExampleCountIsCorruptionNotBadAlloc) {
  ByteWriter body;
  body.PutU32(0x44584C48);  // "HLXD"
  body.PutU32(3);
  body.PutU8(static_cast<uint8_t>(PayloadKind::kExamples));
  FeatureDict().Serialize(&body);
  body.PutU64(1ULL << 32);
  auto got = DataCollection::DeserializeFromString(SealEnvelope(body, 3));
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
}

TEST(FormatV2Test, ImplausibleTableRowCountIsCorruptionNotBadAlloc) {
  for (ValueType type : {ValueType::kInt, ValueType::kString}) {
    ByteWriter body = TableEnvelopeHeader(3);
    Schema({{"a", type}}).Serialize(&body);
    body.PutU64(1ULL << 32);
    // A plain column header (storage tag, no validity), so the decoder
    // reaches the body allocation.
    body.PutU8(static_cast<uint8_t>(type == ValueType::kInt
                                        ? Column::Storage::kInt64
                                        : Column::Storage::kString));
    body.PutU8(0);
    body.PutU64(0);  // empty string arena
    auto got = DataCollection::DeserializeFromString(SealEnvelope(body, 3));
    EXPECT_TRUE(got.status().IsCorruption())
        << ValueTypeToString(type) << ": " << got.status().ToString();
  }
}

// --- examples v3: block decoder validation ----------------------------------

// A v3 examples envelope over an empty dictionary with the given blocks,
// sealed with a valid CRC so only the block checks can object.
struct ExamplesBlocks {
  std::vector<int64_t> offsets = {0, 2, 3};
  std::vector<int32_t> indices = {1, 4, 0};
  std::vector<double> values = {0.5, -1.0, 2.0};
  std::vector<double> labels = {1.0, 0.0};
  std::vector<int64_t> ids = {10, 11};
  std::vector<uint8_t> is_test = {0, 1};
  std::string extra;  // bytes appended after the payload

  std::string Seal() const {
    ByteWriter body;
    body.PutU32(0x44584C48);
    body.PutU32(3);
    body.PutU8(static_cast<uint8_t>(PayloadKind::kExamples));
    FeatureDict().Serialize(&body);
    body.PutU64(labels.size());
    for (int64_t o : offsets) body.PutI64(o);
    for (int32_t i : indices) body.PutU32(static_cast<uint32_t>(i));
    for (double v : values) body.PutDouble(v);
    for (double l : labels) body.PutDouble(l);
    for (int64_t id : ids) body.PutI64(id);
    for (uint8_t t : is_test) body.PutU8(t);
    body.PutRaw(extra.data(), extra.size());
    return SealEnvelope(body, 3);
  }
};

TEST(FormatV3Test, ExamplesBlocksRoundTripHandBuiltBytes) {
  auto got = DataCollection::DeserializeFromString(ExamplesBlocks().Seal());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  const ExamplesData* e = got.value().AsExamples().value();
  ASSERT_EQ(e->num_examples(), 2);
  EXPECT_EQ(e->num_nonzeros(), 3);
  EXPECT_DOUBLE_EQ(e->features(0).Get(4), -1.0);
  EXPECT_EQ(e->id(1), 11);
  EXPECT_TRUE(e->is_test(1));
}

TEST(FormatV3Test, ExamplesBlockInvariantsAreChecked) {
  std::vector<std::pair<const char*, ExamplesBlocks>> cases;
  ExamplesBlocks b;
  b.offsets = {1, 2, 3};
  cases.emplace_back("offsets start past 0", b);
  b = ExamplesBlocks();
  b.offsets = {0, 4, 3};  // row 0 would run past the 3 entries
  b.indices = {0, 1, 2};
  cases.emplace_back("offsets decrease", b);
  b = ExamplesBlocks();
  b.offsets = {0, 2, 1000};
  cases.emplace_back("offsets end past the entries present", b);
  b = ExamplesBlocks();
  b.indices = {4, 1, 0};
  cases.emplace_back("indices decrease within a row", b);
  b = ExamplesBlocks();
  b.indices = {4, 4, 0};
  cases.emplace_back("duplicate index within a row", b);
  b = ExamplesBlocks();
  b.indices = {1, 4, -7};
  cases.emplace_back("negative index", b);
  b = ExamplesBlocks();
  b.is_test = {0, 2};
  cases.emplace_back("split flag out of range", b);
  b = ExamplesBlocks();
  b.extra = "x";
  cases.emplace_back("bytes after the payload", b);
  for (const auto& [what, blocks] : cases) {
    auto got = DataCollection::DeserializeFromString(blocks.Seal());
    EXPECT_TRUE(got.status().IsCorruption())
        << what << ": " << got.status().ToString();
    // The container-verified decoder runs the same structural checks.
    EXPECT_TRUE(
        DataCollection::DeserializeVerified(blocks.Seal()).status()
            .IsCorruption())
        << what;
  }
  // An index row boundary is not an ordering constraint: row 1 may
  // start below row 0's last index (the baseline case does).
  EXPECT_TRUE(DataCollection::DeserializeFromString(ExamplesBlocks().Seal())
                  .ok());
}

// --- fault sweep: every truncation and byte flip ------------------------------

std::vector<std::pair<const char*, std::string>> SweepEnvelopes() {
  std::vector<Row> rows;
  for (int64_t r = 0; r < 6; ++r) {
    rows.push_back({r == 3 ? Value::Null() : Value(r),
                    Value(0.25 * static_cast<double>(r)),
                    Value(StrFormat("row%lld", static_cast<long long>(r)))});
  }
  auto table = MakeTable(Schema({
                             {"i", ValueType::kInt},
                             {"d", ValueType::kDouble},
                             {"s", ValueType::kString},
                         }),
                         rows);
  return {
      {"table", DataCollection::FromTable(table).SerializeToString()},
      {"examples", FromHex(kExamplesV3GoldenHex)},
  };
}

TEST(FormatV3Test, EveryTruncationFailsVerificationAndNeverCrashes) {
  for (const auto& [what, bytes] : SweepEnvelopes()) {
    ASSERT_TRUE(DataCollection::DeserializeFromString(bytes).ok()) << what;
    for (size_t len = 0; len < bytes.size(); ++len) {
      std::string_view cut = std::string_view(bytes).substr(0, len);
      auto verified = DataCollection::DeserializeFromString(cut);
      EXPECT_TRUE(verified.status().IsCorruption())
          << what << " truncated to " << len << ": "
          << verified.status().ToString();
      // No checksum to fall back on: the structural checks alone must
      // fail closed (the sanitizer lanes check for over-reads and
      // allocations the bytes cannot back).
      auto trusted = DataCollection::DeserializeVerified(cut);
      EXPECT_FALSE(trusted.ok()) << what << " truncated to " << len;
    }
  }
}

// The schema <-> layout invariant, restated independently of the decoder.
bool LayoutMatchesField(ValueType type, Column::Storage storage) {
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
      return false;
  }
  return false;
}

TEST(FormatV3Test, EverySingleByteFlipFailsVerificationAndNeverCrashes) {
  for (const auto& [what, bytes] : SweepEnvelopes()) {
    for (size_t i = 0; i < bytes.size(); ++i) {
      for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
        std::string flipped = bytes;
        flipped[i] = static_cast<char>(flipped[i] ^ mask);
        // CRC32C detects every error confined to one byte.
        auto verified = DataCollection::DeserializeFromString(flipped);
        EXPECT_TRUE(verified.status().IsCorruption())
            << what << " byte " << i << " ^ " << static_cast<int>(mask);
        // Without the hash, a flip in a value may decode to another valid
        // payload; it must never crash or over-allocate, and a table that
        // decodes must keep every column's layout matching its field.
        auto trusted = DataCollection::DeserializeVerified(flipped);
        if (trusted.ok() && trusted.value().kind() == PayloadKind::kTable) {
          const TableData* t = trusted.value().AsTable().value();
          for (int c = 0; c < t->schema().num_fields(); ++c) {
            EXPECT_TRUE(LayoutMatchesField(t->schema().field(c).type,
                                           t->column(c)->storage()))
                << what << " byte " << i << " ^ " << static_cast<int>(mask)
                << ": field " << c;
          }
        }
      }
    }
  }
}


// --- gathered store writes ----------------------------------------------------

// One payload of every kind, and a table holding every column layout with
// and without a validity bitmap.
std::vector<DataCollection> GatheredPutPayloads() {
  std::vector<Row> rows;
  const char* colors[] = {"red", "green", "blue"};
  for (int64_t r = 0; r < 40; ++r) {
    bool null = r % 7 == 3;
    rows.push_back({
        Value(r),
        null ? Value::Null() : Value(r * 3),
        Value(0.5 * static_cast<double>(r)),
        null ? Value::Null() : Value(-0.25 * static_cast<double>(r)),
        Value(r % 2 == 0),
        null ? Value::Null() : Value(r % 3 == 0),
        Value(StrFormat("plain-%lld", static_cast<long long>(r))),
        null ? Value::Null()
             : Value(StrFormat("nullable-%lld", static_cast<long long>(r))),
        Value(colors[r % 3]),
        null ? Value::Null() : Value(colors[(r + 1) % 3]),
    });
  }
  auto table = MakeTable(Schema({
                             {"i", ValueType::kInt},
                             {"i_null", ValueType::kInt},
                             {"d", ValueType::kDouble},
                             {"d_null", ValueType::kDouble},
                             {"b", ValueType::kBool},
                             {"b_null", ValueType::kBool},
                             {"s", ValueType::kString},
                             {"s_null", ValueType::kString},
                             {"dict", ValueType::kString},
                             {"dict_null", ValueType::kString},
                         }),
                         rows);
  const Column::Storage layouts[] = {
      Column::Storage::kInt64,  Column::Storage::kInt64,
      Column::Storage::kDouble, Column::Storage::kDouble,
      Column::Storage::kBool,   Column::Storage::kBool,
      Column::Storage::kString, Column::Storage::kString,
      Column::Storage::kDictString, Column::Storage::kDictString};
  for (int c = 0; c < table->schema().num_fields(); ++c) {
    EXPECT_EQ(table->column(c)->storage(), layouts[c]) << "column " << c;
    EXPECT_EQ(table->column(c)->null_count() > 0, c % 2 == 1)
        << "column " << c;
  }

  Document doc;
  doc.id = "doc-1";
  doc.text = "Helix reuses intermediates";
  auto model =
      std::make_shared<ModelData>("logreg", std::vector<double>{0.5, -1.25},
                                  0.125);
  return {
      DataCollection::FromTable(table),
      DataCollection::DeserializeFromString(FromHex(kExamplesV3GoldenHex))
          .value(),
      DataCollection::FromModel(model),
      DataCollection::FromText(
          std::make_shared<TextData>(std::vector<Document>{doc})),
      DataCollection::FromMetrics(std::make_shared<MetricsData>(
          std::map<std::string, double>{{"accuracy", 0.75}, {"f1", 0.5}})),
  };
}

// The store's Put hands the backend the envelope as SerializeToSpans emits
// it — header fields interleaved with borrowed column bodies — and the
// disk backend gathers the spans into one record. The segment it writes
// must be byte-identical to one written from the contiguous
// SerializeToString buffer, and every payload reloads intact.
TEST(FormatV3Test, GatheredPutWritesTheSameSegmentAsAContiguousBuffer) {
  auto gathered_dir = MakeTempDir("helix-gathered-put");
  auto flat_dir = MakeTempDir("helix-flat-put");
  ASSERT_TRUE(gathered_dir.ok() && flat_dir.ok());
  std::vector<DataCollection> payloads = GatheredPutPayloads();
  {
    auto store = storage::IntermediateStore::Open(gathered_dir.value(),
                                                  storage::StoreOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < payloads.size(); ++i) {
      ASSERT_TRUE(store.value()
                      ->Put(100 + i, "payload", payloads[i], 1)
                      .ok())
          << i;
    }
  }
  // The metadata exactly as the store recorded it, written again through
  // single-span writes of the contiguous envelopes, in the same order.
  auto recorded = storage::DiskBackend::Open(gathered_dir.value(),
                                             storage::DiskBackendOptions());
  ASSERT_TRUE(recorded.ok());
  auto entries = recorded.value()->Recover();
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries.value().size(), payloads.size());
  auto flat = storage::DiskBackend::Open(flat_dir.value(),
                                         storage::DiskBackendOptions());
  ASSERT_TRUE(flat.ok());
  ASSERT_TRUE(flat.value()->Recover().ok());
  for (size_t i = 0; i < payloads.size(); ++i) {
    const storage::StoreEntry& meta = entries.value()[i];
    ASSERT_EQ(meta.signature, 100 + i);
    EXPECT_EQ(meta.envelope_crc,
              DataCollection::VerifyEnvelopeCrc(
                  payloads[i].SerializeToString())
                  .value())
        << i;
    ASSERT_TRUE(storage::WriteBytes(flat.value().get(), meta,
                                    payloads[i].SerializeToString())
                    .ok());
  }
  auto gathered_bytes =
      ReadFileToString(JoinPath(gathered_dir.value(), "seg-000001.log"));
  auto flat_bytes =
      ReadFileToString(JoinPath(flat_dir.value(), "seg-000001.log"));
  ASSERT_TRUE(gathered_bytes.ok() && flat_bytes.ok());
  EXPECT_EQ(gathered_bytes.value(), flat_bytes.value());

  auto reopened = storage::IntermediateStore::Open(gathered_dir.value(),
                                                   storage::StoreOptions());
  ASSERT_TRUE(reopened.ok());
  for (size_t i = 0; i < payloads.size(); ++i) {
    auto got = reopened.value()->Get(100 + i);
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().ToString();
    EXPECT_EQ(got.value().kind(), payloads[i].kind()) << i;
    EXPECT_EQ(got.value().Fingerprint(), payloads[i].Fingerprint()) << i;
  }
  (void)RemoveDirRecursively(gathered_dir.value());
  (void)RemoveDirRecursively(flat_dir.value());
}

}  // namespace
}  // namespace dataflow
}  // namespace helix
