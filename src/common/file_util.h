// Filesystem helpers used by the materialization store and version manager.
#ifndef HELIX_COMMON_FILE_UTIL_H_
#define HELIX_COMMON_FILE_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace helix {

/// Reads an entire file into a string. NotFound if missing, IOError on
/// read failure.
Result<std::string> ReadFileToString(const std::string& path);

/// Appends an entire file to `*out` (unchanged on failure); the same
/// errors as ReadFileToString.
Status AppendFileToString(const std::string& path, std::string* out);

/// Atomically writes `data` to `path` (write temp + rename).
Status WriteStringToFile(const std::string& path, std::string_view data);

/// Creates directory and parents; OK if it already exists.
Status MakeDirs(const std::string& path);

/// Removes a file; OK if it does not exist.
Status RemoveFileIfExists(const std::string& path);

/// Recursively removes a directory tree; OK if it does not exist.
Status RemoveDirRecursively(const std::string& path);

/// Lists regular files (names, not paths) directly under `dir`.
Result<std::vector<std::string>> ListFiles(const std::string& dir);

/// File size in bytes; NotFound if missing.
Result<int64_t> FileSize(const std::string& path);

bool FileExists(const std::string& path);

/// Joins two path fragments with exactly one '/'.
std::string JoinPath(const std::string& a, const std::string& b);

/// Creates a fresh unique temporary directory under the system temp root;
/// the caller owns cleanup.
Result<std::string> MakeTempDir(const std::string& prefix);

}  // namespace helix

#endif  // HELIX_COMMON_FILE_UTIL_H_
