// Differential coverage for the vectorized columnar kernels
// (src/dataflow/simd.h): for every kernel, the dispatched implementation
// (AVX2/NEON where the host supports it, scalar otherwise, always scalar
// under -DHELIX_FORCE_SCALAR=ON) must agree byte-for-byte with the
// portable scalar reference across seeds, lengths that are not multiples
// of any vector width, empty inputs, and null-bearing bitmaps. A
// mismatch here means a fingerprint can silently depend on the host CPU
// — the exact failure mode format v2's determinism contract forbids.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dataflow/simd.h"

namespace helix {
namespace dataflow {
namespace simd {
namespace {

// Seeds 1..30; lengths chosen to straddle the 4-lane (AVX2 double/i64)
// and 8-lane (AVX2 u32) widths plus the scalar tail: primes, one-off-
// from-lane-multiple values, empty, and a single element.
constexpr int kNumSeeds = 30;
constexpr int64_t kLengths[] = {0, 1, 3, 4, 5, 7, 8, 15, 16, 17,
                                31, 63, 64, 65, 257, 1021, 4096, 4099};

// Bit-for-bit equality of two double buffers. Empty buffers are equal
// without a memcmp: an empty vector's data() may be null, and memcmp's
// pointers must be valid even for a zero length.
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

TEST(SimdTest, ActiveIsaIsConsistent) {
  Isa isa = ActiveIsa();
  EXPECT_EQ(isa, ActiveIsa()) << "ISA probe must be stable";
  EXPECT_NE(IsaName(isa), nullptr);
#ifdef HELIX_FORCE_SCALAR
  EXPECT_EQ(isa, Isa::kScalar);
#endif
}

TEST(SimdTest, SelectGreaterThanMatchesScalar) {
  for (int seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    for (int64_t n : kLengths) {
      std::vector<double> values(static_cast<size_t>(n));
      for (double& v : values) {
        v = rng.NextDouble() * 100.0 - 50.0;
      }
      double threshold = rng.NextDouble() * 100.0 - 50.0;
      std::vector<int64_t> got, want;
      SelectGreaterThan(values.data(), n, threshold, &got);
      scalar::SelectGreaterThan(values.data(), n, threshold, &want);
      ASSERT_EQ(got, want) << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(SimdTest, SelectCodesEqualMatchesScalar) {
  for (int seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    for (int64_t n : kLengths) {
      std::vector<uint32_t> codes(static_cast<size_t>(n));
      for (uint32_t& c : codes) {
        c = static_cast<uint32_t>(rng.NextBelow(8));
      }
      uint32_t target = static_cast<uint32_t>(rng.NextBelow(10));  // may miss
      std::vector<int64_t> got, want;
      SelectCodesEqual(codes.data(), n, target, &got);
      scalar::SelectCodesEqual(codes.data(), n, target, &want);
      ASSERT_EQ(got, want) << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(SimdTest, SelectCodesInSetMatchesScalar) {
  for (int seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    for (int64_t n : kLengths) {
      constexpr uint32_t kNumCodes = 13;
      std::vector<uint32_t> codes(static_cast<size_t>(n));
      for (uint32_t& c : codes) {
        c = static_cast<uint32_t>(rng.NextBelow(kNumCodes));
      }
      std::vector<uint32_t> keep(kNumCodes);
      for (uint32_t& k : keep) {
        k = rng.NextBelow(2) != 0 ? 1 : 0;
      }
      std::vector<int64_t> got, want;
      SelectCodesInSet(codes.data(), n, keep.data(), &got);
      scalar::SelectCodesInSet(codes.data(), n, keep.data(), &want);
      ASSERT_EQ(got, want) << "seed=" << seed << " n=" << n;
    }
  }
}

// Builds a random selection into [0, src_n) of random length.
std::vector<int64_t> RandomSelection(Rng* rng, int64_t src_n) {
  if (src_n == 0) {
    return {};
  }
  std::vector<int64_t> sel(
      static_cast<size_t>(rng->NextBelow(static_cast<uint64_t>(src_n) + 1)));
  for (int64_t& s : sel) {
    s = rng->NextInt(0, src_n - 1);
  }
  return sel;
}

TEST(SimdTest, GathersMatchScalar) {
  for (int seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    for (int64_t n : kLengths) {
      std::vector<int64_t> src_i64(static_cast<size_t>(n));
      std::vector<double> src_f64(static_cast<size_t>(n));
      std::vector<uint32_t> src_u32(static_cast<size_t>(n));
      std::vector<uint8_t> src_u8(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
        src_i64[static_cast<size_t>(i)] =
            static_cast<int64_t>(rng.NextU64());
        src_f64[static_cast<size_t>(i)] = rng.NextDouble();
        src_u32[static_cast<size_t>(i)] =
            static_cast<uint32_t>(rng.NextU64());
        src_u8[static_cast<size_t>(i)] = static_cast<uint8_t>(rng.NextU64());
      }
      std::vector<int64_t> sel = RandomSelection(&rng, n);
      int64_t m = static_cast<int64_t>(sel.size());

      std::vector<int64_t> got_i64(sel.size()), want_i64(sel.size());
      GatherI64(src_i64.data(), sel.data(), m, got_i64.data());
      scalar::GatherI64(src_i64.data(), sel.data(), m, want_i64.data());
      ASSERT_EQ(got_i64, want_i64) << "seed=" << seed << " n=" << n;

      std::vector<double> got_f64(sel.size()), want_f64(sel.size());
      GatherF64(src_f64.data(), sel.data(), m, got_f64.data());
      scalar::GatherF64(src_f64.data(), sel.data(), m, want_f64.data());
      ASSERT_TRUE(SameBits(got_f64, want_f64))
          << "seed=" << seed << " n=" << n;

      std::vector<uint32_t> got_u32(sel.size()), want_u32(sel.size());
      GatherU32(src_u32.data(), sel.data(), m, got_u32.data());
      scalar::GatherU32(src_u32.data(), sel.data(), m, want_u32.data());
      ASSERT_EQ(got_u32, want_u32) << "seed=" << seed << " n=" << n;

      std::vector<uint8_t> got_u8(sel.size()), want_u8(sel.size());
      GatherU8(src_u8.data(), sel.data(), m, got_u8.data());
      scalar::GatherU8(src_u8.data(), sel.data(), m, want_u8.data());
      ASSERT_EQ(got_u8, want_u8) << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(SimdTest, BitmapAndMatchesScalar) {
  for (int seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    for (int64_t n : kLengths) {
      size_t num_bytes = static_cast<size_t>(n);
      std::vector<uint8_t> a(num_bytes), b(num_bytes);
      for (size_t i = 0; i < num_bytes; ++i) {
        a[i] = static_cast<uint8_t>(rng.NextU64());
        b[i] = static_cast<uint8_t>(rng.NextU64());
      }
      std::vector<uint8_t> got(num_bytes), want(num_bytes);
      BitmapAnd(a.data(), b.data(), num_bytes, got.data());
      scalar::BitmapAnd(a.data(), b.data(), num_bytes, want.data());
      ASSERT_EQ(got, want) << "seed=" << seed << " n=" << n;

      // Aliasing form (out == a) — documented as legal.
      std::vector<uint8_t> aliased = a;
      BitmapAnd(aliased.data(), b.data(), num_bytes, aliased.data());
      ASSERT_EQ(aliased, want) << "aliased, seed=" << seed << " n=" << n;
    }
  }
}

TEST(SimdTest, PopcountZerosMatchesScalar) {
  for (int seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    for (int64_t num_bits : kLengths) {
      size_t num_bytes = static_cast<size_t>((num_bits + 7) / 8);
      std::vector<uint8_t> bits(num_bytes);
      for (uint8_t& byte : bits) {
        byte = static_cast<uint8_t>(rng.NextU64());
      }
      ASSERT_EQ(PopcountZeros(bits.data(), num_bits),
                scalar::PopcountZeros(bits.data(), num_bits))
          << "seed=" << seed << " num_bits=" << num_bits;
      // Trailing garbage past num_bits must not leak into the count.
      if (!bits.empty()) {
        bits.back() |= 0xFF << (num_bits % 8 == 0 ? 8 : num_bits % 8);
        ASSERT_EQ(PopcountZeros(bits.data(), num_bits),
                  scalar::PopcountZeros(bits.data(), num_bits))
            << "trailing bits, seed=" << seed << " num_bits=" << num_bits;
      }
    }
  }
}

TEST(SimdTest, ExpandCodesMatchesScalar) {
  for (int seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    for (int64_t n : kLengths) {
      constexpr uint32_t kNumCodes = 9;
      std::vector<uint32_t> codes(static_cast<size_t>(n));
      for (uint32_t& c : codes) {
        c = static_cast<uint32_t>(rng.NextBelow(kNumCodes));
      }
      std::vector<double> per_code(kNumCodes);
      for (double& v : per_code) {
        v = rng.NextDouble() * 1000.0;
      }
      std::vector<double> got(static_cast<size_t>(n)),
          want(static_cast<size_t>(n));
      ExpandCodes(codes.data(), n, per_code.data(), got.data());
      scalar::ExpandCodes(codes.data(), n, per_code.data(), want.data());
      ASSERT_TRUE(SameBits(got, want))
          << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(SimdTest, StandardizeMatchesScalarBitForBit) {
  for (int seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    for (int64_t n : kLengths) {
      std::vector<double> src(static_cast<size_t>(n));
      for (double& v : src) {
        v = rng.NextDouble() * 200.0 - 100.0;
      }
      double mean = rng.NextDouble() * 10.0;
      double stddev = rng.NextDouble() * 5.0 + 0.1;
      std::vector<double> got(static_cast<size_t>(n)),
          want(static_cast<size_t>(n));
      Standardize(src.data(), n, mean, stddev, got.data());
      scalar::Standardize(src.data(), n, mean, stddev, want.data());
      ASSERT_TRUE(SameBits(got, want))
          << "seed=" << seed << " n=" << n;
      // In-place form (out == src), used by AssembleExamples.
      std::vector<double> in_place = src;
      Standardize(in_place.data(), n, mean, stddev, in_place.data());
      ASSERT_TRUE(SameBits(in_place, want))
          << "in-place, seed=" << seed << " n=" << n;
    }
  }
}

TEST(SimdTest, SumAndSumSqIsSequentialOnEveryPath) {
  for (int seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    for (int64_t n : kLengths) {
      std::vector<double> values(static_cast<size_t>(n));
      for (double& v : values) {
        v = rng.NextDouble() * 2.0 - 1.0;
      }
      double got_sum = 0, got_sq = 0, want_sum = 0, want_sq = 0;
      SumAndSumSq(values.data(), n, &got_sum, &got_sq);
      scalar::SumAndSumSq(values.data(), n, &want_sum, &want_sq);
      // Bit-exact, not approximately equal: the dispatcher must never
      // hand this reduction to a reassociating vector loop.
      ASSERT_EQ(0, std::memcmp(&got_sum, &want_sum, sizeof(double)))
          << "seed=" << seed << " n=" << n;
      ASSERT_EQ(0, std::memcmp(&got_sq, &want_sq, sizeof(double)))
          << "seed=" << seed << " n=" << n;
    }
  }
}

TEST(SimdTest, ScaleMatchesScalarBitForBitAtEveryLength) {
  // Special values the L2 shrink must carry through unchanged in kind:
  // NaN (with a payload), +-inf, +-0, subnormals and the extremes.
  const double specials[] = {
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      0.0,
      -0.0,
      std::numeric_limits<double>::denorm_min(),
      -4.9e-310,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
  };
  // NaN-free factors: the trainer only scales by a finite shrink in
  // [0, 1], but the kernel must still agree on 0 * inf and friends.
  const double factors[] = {0.999, 0.5, 1.0, 0.0, -0.0, -2.0, 1e-300,
                            std::numeric_limits<double>::infinity()};
  for (int seed = 1; seed <= kNumSeeds; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    for (int64_t n = 0; n <= 67; ++n) {
      // One spare slot in front so odd seeds run on a misaligned base.
      std::vector<double> src(static_cast<size_t>(n) + 1);
      for (double& v : src) {
        v = rng.NextBool(0.3) ? specials[rng.NextBelow(10)]
                              : rng.NextGaussian() * 1e3;
      }
      double s = rng.NextBool(0.5) ? rng.NextDouble()
                                   : factors[rng.NextBelow(8)];
      size_t offset = static_cast<size_t>(seed % 2);
      std::vector<double> got = src;
      std::vector<double> want = src;
      ResolveScale()(got.data() + offset, n, s);
      scalar::Scale(want.data() + offset, n, s);
      ASSERT_TRUE(SameBits(got, want))
          << "seed=" << seed << " n=" << n << " s=" << s;
    }
  }
}

TEST(SimdTest, ResolveScaleCountsOncePerResolution) {
  Isa isa = ActiveIsa();
  uint64_t before = InvocationCount(Kernel::kScale, isa);
  ScaleFn scale = ResolveScale();
  std::vector<double> x(9, 2.0);
  for (int i = 0; i < 100; ++i) {
    scale(x.data(), 9, 0.5);
  }
  EXPECT_EQ(InvocationCount(Kernel::kScale, isa), before + 1);
  EXPECT_EQ(x[8], std::ldexp(2.0, -100));
}

TEST(SimdTest, InvocationCountersAdvance) {
  Isa isa = ActiveIsa();
  uint64_t before = InvocationCount(Kernel::kSelectGreaterThan, isa);
  std::vector<double> values(100, 1.0);
  std::vector<int64_t> sel;
  SelectGreaterThan(values.data(), 100, 0.5, &sel);
  EXPECT_EQ(InvocationCount(Kernel::kSelectGreaterThan, isa), before + 1);
  EXPECT_EQ(sel.size(), 100u);
}

// --- CRC32C -------------------------------------------------------------------

TEST(SimdTest, Crc32cIsaIsConsistent) {
  Isa isa = Crc32cIsa();
  EXPECT_EQ(isa, Crc32cIsa()) << "CRC probe must be stable";
  EXPECT_TRUE(isa == Isa::kScalar || isa == Isa::kSse42) << IsaName(isa);
#ifdef HELIX_FORCE_SCALAR
  EXPECT_EQ(isa, Isa::kScalar);
#endif
}

// RFC 3720 appendix B.4 test vectors plus the standard check value.
TEST(SimdTest, Crc32cMatchesPublishedVectors) {
  const std::string check = "123456789";
  const std::vector<uint8_t> zeros(32, 0x00);
  const std::vector<uint8_t> ones(32, 0xFF);
  std::vector<uint8_t> ascending(32);
  for (size_t i = 0; i < ascending.size(); ++i) {
    ascending[i] = static_cast<uint8_t>(i);
  }
  for (bool dispatched : {true, false}) {
    auto crc = [&](const void* data, size_t len) {
      return dispatched ? Crc32c(data, len) : scalar::Crc32c(data, len);
    };
    EXPECT_EQ(crc(check.data(), check.size()), 0xE3069283u) << dispatched;
    EXPECT_EQ(crc(zeros.data(), zeros.size()), 0x8A9136AAu) << dispatched;
    EXPECT_EQ(crc(ones.data(), ones.size()), 0x62A8AB43u) << dispatched;
    EXPECT_EQ(crc(ascending.data(), ascending.size()), 0x46DD794Eu)
        << dispatched;
    EXPECT_EQ(crc(nullptr, 0), 0u) << dispatched;
  }
}

TEST(SimdTest, Crc32cMatchesScalarAtEveryLengthAndAlignment) {
  Rng rng(7);
  std::vector<uint8_t> buf(67 + 16);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (size_t start = 0; start < 16; ++start) {
    for (size_t len = 0; len <= 67; ++len) {
      const uint8_t* p = buf.data() + start;
      ASSERT_EQ(Crc32c(p, len), scalar::Crc32c(p, len))
          << "start=" << start << " len=" << len;
      ASSERT_EQ(Crc32c(p, len, 0xDEADBEEFu),
                scalar::Crc32c(p, len, 0xDEADBEEFu))
          << "start=" << start << " len=" << len << " (continued)";
    }
  }
  // One long buffer through the 8-byte main loops of every path.
  std::vector<uint8_t> big(1 << 16);
  for (uint8_t& b : big) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  EXPECT_EQ(Crc32c(big.data(), big.size()),
            scalar::Crc32c(big.data(), big.size()));
}

TEST(SimdTest, Crc32cContinuesAcrossSplitsAndSpans) {
  Rng rng(11);
  std::vector<uint8_t> buf(300);
  for (uint8_t& b : buf) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  const uint32_t whole = scalar::Crc32c(buf.data(), buf.size());
  for (size_t split = 0; split <= buf.size(); split += 7) {
    uint32_t a = Crc32c(buf.data(), split);
    EXPECT_EQ(Crc32c(buf.data() + split, buf.size() - split, a), whole)
        << "split=" << split;
    EXPECT_EQ(scalar::Crc32c(buf.data() + split, buf.size() - split,
                             scalar::Crc32c(buf.data(), split)),
              whole)
        << "split=" << split;
    const char* p = reinterpret_cast<const char*>(buf.data());
    ByteSpan spans[] = {{p, split}, {p + split, 0}, {p + split,
                                                      buf.size() - split}};
    EXPECT_EQ(Crc32c(spans, 3), whole) << "split=" << split;
  }
}

TEST(SimdTest, Crc32cCountsOneInvocationPerChecksum) {
  Isa isa = Crc32cIsa();
  std::string data(100, 'x');
  uint64_t before = InvocationCount(Kernel::kCrc32c, isa);
  (void)Crc32c(data.data(), data.size());
  EXPECT_EQ(InvocationCount(Kernel::kCrc32c, isa), before + 1);
  ByteSpan spans[] = {{data.data(), 40}, {data.data() + 40, 60}};
  (void)Crc32c(spans, 2);
  EXPECT_EQ(InvocationCount(Kernel::kCrc32c, isa), before + 2);
  // The scalar reference is uncounted.
  (void)scalar::Crc32c(data.data(), data.size());
  EXPECT_EQ(InvocationCount(Kernel::kCrc32c, isa), before + 2);
}

}  // namespace
}  // namespace simd
}  // namespace dataflow
}  // namespace helix
