// Test helper: one contiguous payload through the gathered
// StorageBackend::Write.
#ifndef HELIX_TESTS_BACKEND_UTIL_H_
#define HELIX_TESTS_BACKEND_UTIL_H_

#include <string_view>

#include "storage/backend.h"

namespace helix {
namespace storage {

/// Writes `payload` as a single span.
inline Status WriteBytes(StorageBackend* backend, const StoreEntry& meta,
                         std::string_view payload) {
  ByteSpan span{payload.data(), payload.size()};
  return backend->Write(meta, &span, 1);
}

}  // namespace storage
}  // namespace helix

#endif  // HELIX_TESTS_BACKEND_UTIL_H_
