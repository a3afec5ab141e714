#include "common/file_util.h"

#include <unistd.h>

#include <cerrno>
#include <functional>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <system_error>
#include <thread>

#include "common/strings.h"

namespace helix {

namespace fs = std::filesystem;

Status AppendFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound("cannot open file: " + path);
  }
  in.seekg(0, std::ios::end);
  std::streampos size = in.tellg();
  if (size < 0) {
    return Status::IOError("cannot stat file: " + path);
  }
  size_t old_size = out->size();
  out->resize(old_size + static_cast<size_t>(size));
  in.seekg(0, std::ios::beg);
  in.read(out->data() + old_size, static_cast<std::streamsize>(size));
  if (!in) {
    out->resize(old_size);
    return Status::IOError("short read on file: " + path);
  }
  return Status::OK();
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::string data;
  HELIX_RETURN_IF_ERROR(AppendFileToString(path, &data));
  return data;
}

Status WriteStringToFile(const std::string& path, std::string_view data) {
  // The temp name must be unique per concurrent writer: atomic writes to
  // the same destination (e.g. two sessions persisting one shared stats
  // registry) would otherwise interleave on a fixed ".tmp" and rename a
  // torn file into place. pid + thread id distinguishes every live
  // writer while staying *stable* per thread, so a crash mid-write
  // orphans at most one temp per writer — overwritten, not accumulated,
  // on the next write from the same identity.
  std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(std::hash<std::thread::id>{}(std::this_thread::get_id()));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IOError("cannot open for write: " + tmp);
    }
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());  // unique temps must not accumulate
      return Status::IOError("short write on file: " + tmp);
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IOError("rename failed: " + tmp + " -> " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Status MakeDirs(const std::string& path) {
  std::error_code ec;
  fs::create_directories(path, ec);
  if (ec) {
    return Status::IOError("mkdir failed: " + path + ": " + ec.message());
  }
  return Status::OK();
}

Status RemoveFileIfExists(const std::string& path) {
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) {
    return Status::IOError("remove failed: " + path + ": " + ec.message());
  }
  return Status::OK();
}

Status RemoveDirRecursively(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  if (ec) {
    return Status::IOError("remove_all failed: " + path + ": " +
                           ec.message());
  }
  return Status::OK();
}

Result<std::vector<std::string>> ListFiles(const std::string& dir) {
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  if (ec) {
    return Status::NotFound("cannot list dir: " + dir + ": " + ec.message());
  }
  std::vector<std::string> out;
  for (const auto& entry : it) {
    if (entry.is_regular_file(ec)) {
      out.push_back(entry.path().filename().string());
    }
  }
  return out;
}

Result<int64_t> FileSize(const std::string& path) {
  std::error_code ec;
  uintmax_t size = fs::file_size(path, ec);
  if (ec) {
    return Status::NotFound("cannot stat: " + path + ": " + ec.message());
  }
  return static_cast<int64_t>(size);
}

bool FileExists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

std::string JoinPath(const std::string& a, const std::string& b) {
  if (a.empty()) {
    return b;
  }
  if (b.empty()) {
    return a;
  }
  if (a.back() == '/') {
    return a + (b.front() == '/' ? b.substr(1) : b);
  }
  return a + (b.front() == '/' ? b : "/" + b);
}

Result<std::string> MakeTempDir(const std::string& prefix) {
  std::error_code ec;
  fs::path base = fs::temp_directory_path(ec);
  if (ec) {
    return Status::IOError("no temp dir: " + ec.message());
  }
  for (int attempt = 0; attempt < 100; ++attempt) {
    fs::path candidate =
        base / StrFormat("%s-%d-%d", prefix.c_str(),
                         static_cast<int>(::getpid()), attempt);
    if (fs::create_directory(candidate, ec)) {
      return candidate.string();
    }
  }
  return Status::IOError("could not create unique temp dir for " + prefix);
}

}  // namespace helix
