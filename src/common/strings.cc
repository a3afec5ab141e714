#include "common/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace helix {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitAndTrim(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (const std::string& part : Split(s, sep)) {
    std::string t = Trim(part);
    if (!t.empty()) {
      out.push_back(std::move(t));
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return std::string();
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  if (s.empty() || out == nullptr) {
    return false;
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return false;
  }
  *out = static_cast<int64_t>(v);
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  if (s.empty() || out == nullptr) {
    return false;
  }
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return false;
  }
  *out = v;
  return true;
}

std::string HumanBytes(int64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while ((v >= 1024.0 || v <= -1024.0) && u < 4) {
    v /= 1024.0;
    ++u;
  }
  if (u == 0) {
    return StrFormat("%lld B", static_cast<long long>(bytes));
  }
  return StrFormat("%.1f %s", v, units[u]);
}

std::string HumanMicros(int64_t micros) {
  if (micros < 1000) {
    return StrFormat("%lld us", static_cast<long long>(micros));
  }
  if (micros < 1000 * 1000) {
    return StrFormat("%.2f ms", static_cast<double>(micros) / 1e3);
  }
  return StrFormat("%.2f s", static_cast<double>(micros) / 1e6);
}

}  // namespace helix
