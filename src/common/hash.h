// 64-bit hashing utilities used for operator signatures and change
// detection. HELIX detects iterative changes to a workflow by hashing each
// operator's type, parameters, and UDF version tag, then combining hashes
// Merkle-style along DAG edges (see core/change_tracker.h).
#ifndef HELIX_COMMON_HASH_H_
#define HELIX_COMMON_HASH_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace helix {

/// FNV-1a offset basis; the seed for an empty hash.
inline constexpr uint64_t kFnvOffsetBasis = 14695981039346656037ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over a byte range, continuing from `seed`.
inline uint64_t FnvHash64(const void* data, size_t len,
                          uint64_t seed = kFnvOffsetBasis) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<uint64_t>(p[i]);
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a of a string.
inline uint64_t FnvHash64(std::string_view s,
                          uint64_t seed = kFnvOffsetBasis) {
  return FnvHash64(s.data(), s.size(), seed);
}

/// Strong 64-bit mix (splitmix64 finalizer); decorrelates combined hashes.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Incremental hasher with typed Add methods; produces a 64-bit digest.
/// Field order matters: Add("a").Add("b") != Add("b").Add("a").
class Hasher {
 public:
  Hasher() = default;

  Hasher& Add(std::string_view s) {
    // Length-prefix so that ("ab","c") and ("a","bc") hash differently.
    AddU64(s.size());
    state_ = FnvHash64(s, state_);
    return *this;
  }
  Hasher& AddU64(uint64_t v) {
    state_ = FnvHash64(&v, sizeof(v), state_);
    return *this;
  }
  Hasher& AddI64(int64_t v) { return AddU64(static_cast<uint64_t>(v)); }
  Hasher& AddDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return AddU64(bits);
  }
  Hasher& AddBool(bool v) { return AddU64(v ? 1 : 0); }

  /// Final mixed digest; can be called repeatedly as fields are added.
  uint64_t Digest() const { return Mix64(state_); }

 private:
  uint64_t state_ = kFnvOffsetBasis;
};

/// Formats a hash as 16 lowercase hex digits (stable across platforms).
std::string HashToHex(uint64_t h);

/// Parses a 16-digit hex hash; returns false on malformed input.
bool HexToHash(std::string_view hex, uint64_t* out);

}  // namespace helix

#endif  // HELIX_COMMON_HASH_H_
