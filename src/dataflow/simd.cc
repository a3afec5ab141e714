#include "dataflow/simd.h"

#include <atomic>
#include <cstring>
#include <string>

#include "obs/metrics.h"

// Vector paths are compiled only where they can run and are wanted:
// HELIX_FORCE_SCALAR strips them entirely so the scalar CI lane tests
// the binary it will actually ship, not a dead-code variant.
#if !defined(HELIX_FORCE_SCALAR) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define HELIX_SIMD_AVX2 1
#include <immintrin.h>
#endif
// SSE4.2 is an optional x86-64 extension, so the CRC path is compiled
// with a per-function target attribute and chosen by a CPUID probe.
// Other architectures run the slicing-by-8 scalar CRC, and every other
// kernel its scalar loop.
#if defined(HELIX_SIMD_AVX2)
#define HELIX_CRC_SSE42 1
#include <nmmintrin.h>
#endif

namespace helix {
namespace dataflow {
namespace simd {

namespace {

const char* const kKernelNames[] = {
    "select_code_eq", "gather_i64",  "gather_f64",   "gather_u32",
    "gather_u8",      "popcount",    "expand_codes", "standardize",
    "sum_sumsq",      "dict_encode", "scale",        "crc32c",
};
static_assert(sizeof(kKernelNames) / sizeof(kKernelNames[0]) ==
                  static_cast<size_t>(Kernel::kNumKernels),
              "kernel name table out of sync");

constexpr int kNumIsas = 3;

// Process-wide invocation totals, independent of any registry: benches
// and tests read them directly, FoldCountersInto publishes deltas.
std::atomic<uint64_t> g_invocations[static_cast<size_t>(
    Kernel::kNumKernels)][kNumIsas];

Isa ProbeIsa() {
#if defined(HELIX_SIMD_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    return Isa::kAvx2;
  }
#endif
  return Isa::kScalar;
}

Isa ProbeCrcIsa() {
#if defined(HELIX_CRC_SSE42)
  if (__builtin_cpu_supports("sse4.2")) {
    return Isa::kSse42;
  }
#endif
  return Isa::kScalar;
}

// CRC32C lookup tables for the slicing-by-8 scalar path: kCrcTables[0]
// is the classic byte-at-a-time table of the reflected Castagnoli
// polynomial; table k advances a byte through k further zero bytes.
struct CrcTables {
  uint32_t t[8][256];
};

constexpr CrcTables MakeCrcTables() {
  CrcTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ ((c & 1u) != 0 ? 0x82F63B78u : 0u);
    }
    tables.t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 8; ++k) {
      uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = (prev >> 8) ^ tables.t[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = MakeCrcTables();

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

// The un-finalized CRC state (complemented) advanced over `len` bytes.
uint32_t ScalarCrcUpdate(uint32_t c, const uint8_t* p, size_t len) {
  const auto& t = kCrcTables.t;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = LoadLe32(p) ^ c;
    uint32_t hi = LoadLe32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    c = (c >> 8) ^ t[0][(c ^ *p) & 0xFFu];
  }
  return c;
}

}  // namespace

Isa ActiveIsa() {
  static const Isa isa = ProbeIsa();
  return isa;
}

Isa Crc32cIsa() {
  static const Isa isa = ProbeCrcIsa();
  return isa;
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kSse42:
      return "sse42";
  }
  return "scalar";
}

void RecordInvocation(Kernel kernel, Isa isa) {
  g_invocations[static_cast<size_t>(kernel)][static_cast<int>(isa)]
      .fetch_add(1, std::memory_order_relaxed);
}

uint64_t InvocationCount(Kernel kernel, Isa isa) {
  return g_invocations[static_cast<size_t>(kernel)][static_cast<int>(isa)]
      .load(std::memory_order_relaxed);
}

void FoldCountersInto(obs::MetricsRegistry* registry) {
  for (size_t k = 0; k < static_cast<size_t>(Kernel::kNumKernels); ++k) {
    for (int i = 0; i < kNumIsas; ++i) {
      uint64_t total =
          g_invocations[k][i].load(std::memory_order_relaxed);
      if (total == 0) {
        continue;
      }
      std::string name = std::string("simd.") + kKernelNames[k] + "." +
                         IsaName(static_cast<Isa>(i));
      obs::Counter* counter = registry->GetCounter(name);
      // The registry counter mirrors the process-wide total: add only
      // what this registry has not seen yet, so folding is idempotent
      // across repeated snapshots (concurrent Adds land in a later
      // fold — the usual racy-exact counter contract).
      int64_t delta = static_cast<int64_t>(total) - counter->Value();
      if (delta > 0) {
        counter->Add(delta);
      }
    }
  }
}

// --- scalar reference implementations ---------------------------------------

namespace scalar {

void SelectCodesEqual(const uint32_t* codes, int64_t n, uint32_t target,
                      std::vector<int64_t>* sel) {
  for (int64_t i = 0; i < n; ++i) {
    if (codes[i] == target) {
      sel->push_back(i);
    }
  }
}

void GatherI64(const int64_t* src, const int64_t* sel, int64_t n,
               int64_t* dst) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = src[sel[i]];
  }
}

void GatherF64(const double* src, const int64_t* sel, int64_t n,
               double* dst) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = src[sel[i]];
  }
}

void GatherU32(const uint32_t* src, const int64_t* sel, int64_t n,
               uint32_t* dst) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = src[sel[i]];
  }
}

void GatherU8(const uint8_t* src, const int64_t* sel, int64_t n,
              uint8_t* dst) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = src[sel[i]];
  }
}

int64_t PopcountZeros(const uint8_t* bits, int64_t num_bits) {
  int64_t set = 0;
  int64_t full_bytes = num_bits / 8;
  int64_t i = 0;
  for (; i + 8 <= full_bytes; i += 8) {
    uint64_t chunk;
    std::memcpy(&chunk, bits + i, sizeof(chunk));
    set += __builtin_popcountll(chunk);
  }
  for (; i < full_bytes; ++i) {
    set += __builtin_popcount(bits[i]);
  }
  int tail_bits = static_cast<int>(num_bits % 8);
  if (tail_bits > 0) {
    uint8_t mask = static_cast<uint8_t>((1u << tail_bits) - 1u);
    set += __builtin_popcount(bits[full_bytes] & mask);
  }
  return num_bits - set;
}

void ExpandCodes(const uint32_t* codes, int64_t n, const double* per_code,
                 double* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = per_code[codes[i]];
  }
}

void Standardize(const double* src, int64_t n, double mean, double stddev,
                 double* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = (src[i] - mean) / stddev;
  }
}

void SumAndSumSq(const double* values, int64_t n, double* sum,
                 double* sum_sq) {
  double s = 0.0;
  double sq = 0.0;
  for (int64_t i = 0; i < n; ++i) {
    s += values[i];
    sq += values[i] * values[i];
  }
  *sum = s;
  *sum_sq = sq;
}

void Scale(double* x, int64_t n, double s) {
  for (int64_t i = 0; i < n; ++i) {
    x[i] *= s;
  }
}

uint32_t Crc32c(const void* data, size_t len, uint32_t crc) {
  return ~ScalarCrcUpdate(~crc, static_cast<const uint8_t*>(data), len);
}

}  // namespace scalar

// --- AVX2 implementations ---------------------------------------------------

#if defined(HELIX_SIMD_AVX2)
namespace avx2 {

__attribute__((target("avx2"))) void SelectCodesEqual(
    const uint32_t* codes, int64_t n, uint32_t target,
    std::vector<int64_t>* sel) {
  const __m256i t = _mm256_set1_epi32(static_cast<int>(target));
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(codes + i));
    int mask = _mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(v, t)));
    while (mask != 0) {
      int bit = __builtin_ctz(static_cast<unsigned>(mask));
      sel->push_back(i + bit);
      mask &= mask - 1;
    }
  }
  for (; i < n; ++i) {
    if (codes[i] == target) {
      sel->push_back(i);
    }
  }
}

__attribute__((target("avx2"))) void GatherF64(const double* src,
                                               const int64_t* sel, int64_t n,
                                               double* dst) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i idx = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(sel + i));
    __m256d v = _mm256_i64gather_pd(src, idx, 8);
    _mm256_storeu_pd(dst + i, v);
  }
  for (; i < n; ++i) {
    dst[i] = src[sel[i]];
  }
}

__attribute__((target("avx2"))) void ExpandCodes(const uint32_t* codes,
                                                 int64_t n,
                                                 const double* per_code,
                                                 double* out) {
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m128i c = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(codes + i));
    __m256d v = _mm256_i32gather_pd(per_code, c, 8);
    _mm256_storeu_pd(out + i, v);
  }
  for (; i < n; ++i) {
    out[i] = per_code[codes[i]];
  }
}

__attribute__((target("avx2"))) void Scale(double* x, int64_t n, double s) {
  const __m256d f = _mm256_set1_pd(s);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d a = _mm256_loadu_pd(x + i);
    __m256d b = _mm256_loadu_pd(x + i + 4);
    _mm256_storeu_pd(x + i, _mm256_mul_pd(a, f));
    _mm256_storeu_pd(x + i + 4, _mm256_mul_pd(b, f));
  }
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), f));
  }
  for (; i < n; ++i) {
    x[i] *= s;
  }
}

}  // namespace avx2
#endif  // HELIX_SIMD_AVX2

#if defined(HELIX_CRC_SSE42)
namespace sse42 {

// One dependency chain of 8-byte `crc32` steps (several GB/s on current
// x86-64 cores). Interleaving independent streams and merging them would
// be faster still; loads are not checksum-bound at this rate.
__attribute__((target("sse4.2"))) uint32_t CrcUpdate(uint32_t c,
                                                     const uint8_t* p,
                                                     size_t len) {
  uint64_t state = c;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
  }
  c = static_cast<uint32_t>(state);
  for (; len > 0; ++p, --len) {
    c = _mm_crc32_u8(c, *p);
  }
  return c;
}

}  // namespace sse42
#endif  // HELIX_CRC_SSE42

// --- dispatchers ------------------------------------------------------------
// Each kernel runs the best implementation the active ISA provides and
// records the invocation under the ISA actually executed, so the
// "simd.*" counters never overstate vector coverage.

void SelectCodesEqual(const uint32_t* codes, int64_t n, uint32_t target,
                      std::vector<int64_t>* sel) {
#if defined(HELIX_SIMD_AVX2)
  if (ActiveIsa() == Isa::kAvx2) {
    RecordInvocation(Kernel::kSelectCodesEqual, Isa::kAvx2);
    avx2::SelectCodesEqual(codes, n, target, sel);
    return;
  }
#endif
  RecordInvocation(Kernel::kSelectCodesEqual, Isa::kScalar);
  scalar::SelectCodesEqual(codes, n, target, sel);
}

void GatherI64(const int64_t* src, const int64_t* sel, int64_t n,
               int64_t* dst) {
  RecordInvocation(Kernel::kGatherI64, Isa::kScalar);
  scalar::GatherI64(src, sel, n, dst);
}

void GatherF64(const double* src, const int64_t* sel, int64_t n,
               double* dst) {
#if defined(HELIX_SIMD_AVX2)
  if (ActiveIsa() == Isa::kAvx2) {
    RecordInvocation(Kernel::kGatherF64, Isa::kAvx2);
    avx2::GatherF64(src, sel, n, dst);
    return;
  }
#endif
  RecordInvocation(Kernel::kGatherF64, Isa::kScalar);
  scalar::GatherF64(src, sel, n, dst);
}

void GatherU32(const uint32_t* src, const int64_t* sel, int64_t n,
               uint32_t* dst) {
  RecordInvocation(Kernel::kGatherU32, Isa::kScalar);
  scalar::GatherU32(src, sel, n, dst);
}

void GatherU8(const uint8_t* src, const int64_t* sel, int64_t n,
              uint8_t* dst) {
  RecordInvocation(Kernel::kGatherU8, Isa::kScalar);
  scalar::GatherU8(src, sel, n, dst);
}

int64_t PopcountZeros(const uint8_t* bits, int64_t num_bits) {
  RecordInvocation(Kernel::kPopcountZeros, Isa::kScalar);
  return scalar::PopcountZeros(bits, num_bits);
}

void ExpandCodes(const uint32_t* codes, int64_t n, const double* per_code,
                 double* out) {
#if defined(HELIX_SIMD_AVX2)
  if (ActiveIsa() == Isa::kAvx2) {
    RecordInvocation(Kernel::kExpandCodes, Isa::kAvx2);
    avx2::ExpandCodes(codes, n, per_code, out);
    return;
  }
#endif
  RecordInvocation(Kernel::kExpandCodes, Isa::kScalar);
  scalar::ExpandCodes(codes, n, per_code, out);
}

void Standardize(const double* src, int64_t n, double mean, double stddev,
                 double* out) {
  RecordInvocation(Kernel::kStandardize, Isa::kScalar);
  scalar::Standardize(src, n, mean, stddev, out);
}

void SumAndSumSq(const double* values, int64_t n, double* sum,
                 double* sum_sq) {
  // Deliberately scalar on every path — see the header.
  RecordInvocation(Kernel::kSumAndSumSq, Isa::kScalar);
  scalar::SumAndSumSq(values, n, sum, sum_sq);
}

ScaleFn ResolveScale() {
#if defined(HELIX_SIMD_AVX2)
  if (ActiveIsa() == Isa::kAvx2) {
    RecordInvocation(Kernel::kScale, Isa::kAvx2);
    return &avx2::Scale;
  }
#endif
  RecordInvocation(Kernel::kScale, Isa::kScalar);
  return &scalar::Scale;
}

namespace {

using CrcUpdateFn = uint32_t (*)(uint32_t, const uint8_t*, size_t);

CrcUpdateFn ResolveCrcUpdate() {
#if defined(HELIX_CRC_SSE42)
  if (Crc32cIsa() == Isa::kSse42) {
    return &sse42::CrcUpdate;
  }
#endif
  return &ScalarCrcUpdate;
}

}  // namespace

uint32_t Crc32c(const void* data, size_t len, uint32_t crc) {
  ByteSpan span{static_cast<const char*>(data), len};
  return Crc32c(&span, 1, crc);
}

uint32_t Crc32c(const ByteSpan* spans, size_t n, uint32_t crc) {
  static const CrcUpdateFn update = ResolveCrcUpdate();
  RecordInvocation(Kernel::kCrc32c, Crc32cIsa());
  uint32_t state = ~crc;
  for (size_t i = 0; i < n; ++i) {
    state = update(state, reinterpret_cast<const uint8_t*>(spans[i].data),
                   spans[i].len);
  }
  return ~state;
}

}  // namespace simd
}  // namespace dataflow
}  // namespace helix
