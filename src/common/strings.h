// Small string utilities (split/join/trim/format) shared across HELIX.
#ifndef HELIX_COMMON_STRINGS_H_
#define HELIX_COMMON_STRINGS_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace helix {

/// Splits `s` on `sep`. Empty fields are preserved: Split(",a,", ',') ->
/// {"", "a", ""}. Split("", ...) -> {""}.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits and drops empty fields after trimming whitespace from each part.
std::vector<std::string> SplitAndTrim(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading/trailing ASCII whitespace (space, \t, \n, \v, \f,
/// \r: std::isspace in the C locale). Inline: CsvScanner calls it per
/// field.
inline std::string_view TrimView(std::string_view s) {
  auto space = [](char c) { return c == ' ' || (c >= '\t' && c <= '\r'); };
  size_t b = 0;
  size_t e = s.size();
  while (b < e && space(s[b])) {
    ++b;
  }
  while (e > b && space(s[e - 1])) {
    --e;
  }
  return s.substr(b, e - b);
}
std::string Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses a signed 64-bit integer; the entire string must be consumed.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a double; the entire string must be consumed.
bool ParseDouble(std::string_view s, double* out);

/// Renders a byte count as a human-readable string, e.g. "1.5 MiB".
std::string HumanBytes(int64_t bytes);

/// Renders microseconds as a human-readable duration, e.g. "1.25 s".
std::string HumanMicros(int64_t micros);

}  // namespace helix

#endif  // HELIX_COMMON_STRINGS_H_
