// In-process payload backend: an unordered map of signature -> bytes.
//
// The refactored form of the original single-map store. Used by sessions
// that want intra-process reuse without touching disk (tests, ephemeral
// exploration).
#ifndef HELIX_STORAGE_MEMORY_BACKEND_H_
#define HELIX_STORAGE_MEMORY_BACKEND_H_

#include <shared_mutex>
#include <string>
#include <unordered_map>

#include "storage/backend.h"

namespace helix {
namespace storage {

/// Volatile map-backed StorageBackend.
///
/// Thread safety: all methods are safe to call concurrently; a
/// reader-writer lock lets concurrent Reads (the executor's warm path)
/// overlap while Writes are exclusive.
/// Ownership: payload strings are owned by the backend (Write flattens
/// the borrowed spans into one); Read returns a copy, so results stay
/// valid after concurrent mutation.
/// Failure modes: Read returns NotFound for unknown signatures. Write and
/// Delete cannot fail (no I/O). Recover always returns empty — nothing
/// survives construction.
class MemoryBackend final : public StorageBackend {
 public:
  MemoryBackend() = default;

  Result<std::vector<StoreEntry>> Recover() override {
    return std::vector<StoreEntry>{};
  }

  Status Write(const StoreEntry& meta, const ByteSpan* payload,
               size_t n) override {
    // Flatten outside the lock: the copy is the write's only real work.
    size_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += payload[i].len;
    }
    std::string bytes;
    bytes.reserve(total);
    for (size_t i = 0; i < n; ++i) {
      bytes.append(payload[i].data, payload[i].len);
    }
    std::unique_lock<std::shared_mutex> lock(mu_);
    payloads_[meta.signature] = std::move(bytes);
    return Status::OK();
  }

  Result<std::string> Read(uint64_t signature) override {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = payloads_.find(signature);
    if (it == payloads_.end()) {
      return Status::NotFound("no payload in memory backend");
    }
    return it->second;
  }

  Status Delete(uint64_t signature) override {
    std::unique_lock<std::shared_mutex> lock(mu_);
    payloads_.erase(signature);
    return Status::OK();
  }

 private:
  mutable std::shared_mutex mu_;
  std::unordered_map<uint64_t, std::string> payloads_;
};

}  // namespace storage
}  // namespace helix

#endif  // HELIX_STORAGE_MEMORY_BACKEND_H_
