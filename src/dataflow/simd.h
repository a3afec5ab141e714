// Columnar kernels, a few of them with an AVX2 body selected at runtime.
//
// The hot per-element loops of the columnar engine (selection-vector
// builds, gathers, null counts, code expansion, feature standardization),
// the learner's weight scaling, and the CRC32C that guards every stored
// and transmitted byte funnel through the free functions in this header.
// A kernel keeps a vector body only where a benchmark workload runs it
// and it beats the scalar loop:
//
//   * AVX2 on x86-64 when the CPU reports it: SelectCodesEqual,
//     GatherF64, ExpandCodes and ResolveScale. The bodies are compiled
//     with the `target("avx2")` function attribute, so the rest of the
//     binary stays baseline and the same build runs on non-AVX2 machines.
//   * SSE4.2 `crc32` on x86-64 when the CPU reports it: Crc32c, probed
//     separately from the vector ISA.
//   * The portable scalar loop: always for GatherI64, GatherU32,
//     GatherU8, PopcountZeros, Standardize and SumAndSumSq, and for every
//     kernel on other architectures or under -DHELIX_FORCE_SCALAR=ON (the
//     CI lane that keeps the fallback honest).
//
// Two rules keep vectorization invisible to the rest of the system:
//
//   1. Bit-exactness. Every vector body is a per-element map (compare,
//      gather, multiply) that is IEEE-identical to the scalar form.
//      Floating-point *reductions* are the exception — reassociating a
//      sum changes the result — so SumAndSumSq is deliberately
//      sequential scalar on every path. Fingerprints, golden envelopes,
//      and replay summaries therefore never depend on the host's ISA.
//   2. Observability. Each call records one invocation under
//      "simd.<kernel>.<isa>" (the isa actually executed, not merely
//      probed); FoldCountersInto publishes the totals into an obs
//      MetricsRegistry so CI artifacts prove which path ran.
//
// The `scalar::` namespace exposes the reference implementations
// directly for differential tests (SIMD vs scalar byte-identity across
// seeds, nulls, and non-lane-multiple lengths).
#ifndef HELIX_DATAFLOW_SIMD_H_
#define HELIX_DATAFLOW_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/spans.h"

namespace helix {
namespace obs {
class MetricsRegistry;
}  // namespace obs

namespace dataflow {
namespace simd {

/// kSse42 names the CRC instruction set (Crc32c only).
enum class Isa { kScalar = 0, kAvx2 = 1, kSse42 = 2 };

/// The vector ISA the dispatcher selected for this process (probed once):
/// kAvx2 or kScalar. Kernels without an AVX2 body still run (and are
/// counted as) scalar.
Isa ActiveIsa();
/// The ISA Crc32c runs on in this process (probed once): kSse42 or
/// kScalar.
Isa Crc32cIsa();
const char* IsaName(Isa isa);
inline const char* ActiveIsaName() { return IsaName(ActiveIsa()); }

// --- selection-vector builds ------------------------------------------------

/// Appends to `sel` every row index i in [0, n) with codes[i] == target.
void SelectCodesEqual(const uint32_t* codes, int64_t n, uint32_t target,
                      std::vector<int64_t>* sel);

// --- gathers ----------------------------------------------------------------
// dst[i] = src[sel[i]] for i in [0, n); dst must hold n elements and must
// not alias src. Indices must be in range (callers gather with selection
// vectors already validated against the column length).

void GatherI64(const int64_t* src, const int64_t* sel, int64_t n,
               int64_t* dst);
void GatherF64(const double* src, const int64_t* sel, int64_t n, double* dst);
void GatherU32(const uint32_t* src, const int64_t* sel, int64_t n,
               uint32_t* dst);
void GatherU8(const uint8_t* src, const int64_t* sel, int64_t n,
              uint8_t* dst);

// --- validity bitmaps -------------------------------------------------------

/// Number of CLEAR bits among the first num_bits of `bits` (= null count
/// of a validity bitmap). Trailing bits past num_bits in the final byte
/// are ignored regardless of their value.
int64_t PopcountZeros(const uint8_t* bits, int64_t num_bits);

// --- dictionary-code expansion ----------------------------------------------

/// out[i] = per_code[codes[i]] for i in [0, n): broadcasts a per-code
/// value (e.g. the parsed numeric for each dictionary entry) to rows.
void ExpandCodes(const uint32_t* codes, int64_t n, const double* per_code,
                 double* out);

// --- featurization ----------------------------------------------------------

/// out[i] = (src[i] - mean) / stddev. Scalar on every path: the loop is
/// bound by the divide, so a vector body measured no faster.
void Standardize(const double* src, int64_t n, double mean, double stddev,
                 double* out);

/// Sequential sum and sum-of-squares. ALWAYS scalar, on every ISA path:
/// a reassociated float reduction would change means/stddevs and
/// therefore example fingerprints across machines. Do not vectorize.
void SumAndSumSq(const double* values, int64_t n, double* sum,
                 double* sum_sq);

// --- learner ----------------------------------------------------------------

/// In-place scale: x[i] *= s for i in [0, n). A per-element IEEE
/// multiply, so the vector form matches the scalar loop bit-for-bit (NaN,
/// +-inf, -0.0 and subnormals included).
using ScaleFn = void (*)(double* x, int64_t n, double s);

/// Returns the scale kernel for the active ISA and records one
/// invocation. Its caller, the logistic-regression L2 shrink, scales once
/// per example visit, so it resolves the kernel once per training run:
/// the per-visit call then pays no dispatch and touches no shared atomic.
ScaleFn ResolveScale();

// --- checksums --------------------------------------------------------------

/// CRC32C (Castagnoli polynomial, reflected, initial value and final xor
/// ~0: the iSCSI / RFC 3720 checksum) of `len` bytes at `data`,
/// continuing from `crc`: 0 starts a checksum, and
/// Crc32c(b, nb, Crc32c(a, na)) == CRC32C of a followed by b. Every ISA
/// path is bit-identical to scalar::Crc32c. Records one invocation.
uint32_t Crc32c(const void* data, size_t len, uint32_t crc = 0);

/// CRC32C of the concatenation of `n` spans, continuing from `crc` — one
/// checksum over a gathered byte stream (a header plus borrowed bodies),
/// so it records ONE invocation however many pieces it covers: the
/// counter counts checksums, not calls into the instruction loop.
uint32_t Crc32c(const ByteSpan* spans, size_t n, uint32_t crc = 0);

// --- counters ---------------------------------------------------------------

/// Kernel identifiers for the invocation counters. kDictEncode is
/// recorded by ColumnBuilder when it emits a DictionaryColumn (the
/// encode itself is a hash loop, counted as scalar).
enum class Kernel {
  kSelectCodesEqual = 0,
  kGatherI64,
  kGatherF64,
  kGatherU32,
  kGatherU8,
  kPopcountZeros,
  kExpandCodes,
  kStandardize,
  kSumAndSumSq,
  kDictEncode,
  kScale,
  kCrc32c,
  kNumKernels,
};

/// Records one invocation of `kernel` executed on `isa`. Called
/// internally by every kernel above; exposed for ColumnBuilder's
/// kDictEncode accounting.
void RecordInvocation(Kernel kernel, Isa isa);

/// Total invocations recorded for (kernel, isa) since process start.
uint64_t InvocationCount(Kernel kernel, Isa isa);

/// Publishes the process-wide invocation totals into `registry` as
/// "simd.<kernel>.<isa>" counters (adding only the delta since the last
/// fold into this registry, so repeated snapshots stay exact). Called at
/// snapshot sites (server GetMetrics, workload_driver --metrics-out).
void FoldCountersInto(obs::MetricsRegistry* registry);

// --- scalar reference implementations ---------------------------------------
// The portable loops the vector paths must match byte-for-byte. Used by
// the dispatchers as the fallback and by differential tests directly.
// These do NOT record invocation counters.
namespace scalar {

void SelectCodesEqual(const uint32_t* codes, int64_t n, uint32_t target,
                      std::vector<int64_t>* sel);
void GatherI64(const int64_t* src, const int64_t* sel, int64_t n,
               int64_t* dst);
void GatherF64(const double* src, const int64_t* sel, int64_t n, double* dst);
void GatherU32(const uint32_t* src, const int64_t* sel, int64_t n,
               uint32_t* dst);
void GatherU8(const uint8_t* src, const int64_t* sel, int64_t n,
              uint8_t* dst);
int64_t PopcountZeros(const uint8_t* bits, int64_t num_bits);
void ExpandCodes(const uint32_t* codes, int64_t n, const double* per_code,
                 double* out);
void Standardize(const double* src, int64_t n, double mean, double stddev,
                 double* out);
void SumAndSumSq(const double* values, int64_t n, double* sum,
                 double* sum_sq);
void Scale(double* x, int64_t n, double s);
uint32_t Crc32c(const void* data, size_t len, uint32_t crc = 0);

}  // namespace scalar

}  // namespace simd
}  // namespace dataflow
}  // namespace helix

#endif  // HELIX_DATAFLOW_SIMD_H_
