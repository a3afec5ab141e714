#include "common/csv.h"

#include <algorithm>
#include <cstdint>
#include <cstring>

namespace helix {

namespace {

// Returns the first byte in [p, end) that is `sep`, a quote or a newline,
// or `end`. Eight bytes at a time on little-endian hosts: a byte of
// `w ^ broadcast(c)` is zero where `w` holds c, and the classic
// (x - 0x01..) & ~x & 0x80.. test flags the lowest zero byte exactly
// (borrows only corrupt the bytes above it).
const char* FindSpecial(const char* p, const char* end, char sep) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  constexpr uint64_t kHighs = 0x8080808080808080ull;
  const uint64_t seps = kOnes * static_cast<uint8_t>(sep);
  for (; end - p >= 8; p += 8) {
    uint64_t w;
    std::memcpy(&w, p, 8);
    uint64_t a = w ^ seps;
    uint64_t b = w ^ (kOnes * '"');
    uint64_t c = w ^ (kOnes * '\n');
    uint64_t hits = ((a - kOnes) & ~a) | ((b - kOnes) & ~b) |
                    ((c - kOnes) & ~c);
    hits &= kHighs;
    if (hits != 0) {
      return p + (__builtin_ctzll(hits) >> 3);
    }
  }
#endif
  while (p != end && *p != sep && *p != '"' && *p != '\n') {
    ++p;
  }
  return p;
}

// The error for a quote or newline that FindSpecial stopped at inside
// unquoted content (after a field's first byte or a closing quote).
Status UnquotedError(char c) {
  return c == '"' ? Status::InvalidArgument(
                        "CSV: quote in the middle of an unquoted field")
                  : Status::InvalidArgument("CSV: newline in single-line mode");
}

}  // namespace

Status SplitCsvLine(std::string_view line, char sep,
                    std::vector<std::string_view>* fields,
                    std::string* scratch) {
  fields->clear();
  scratch->clear();
  // Quoted fields unescape into scratch, never longer than the line, so
  // the views taken into it below survive every later append.
  scratch->reserve(line.size());
  const char* p = line.data();
  const char* const end = p + line.size();
  while (true) {
    if (p == end || *p != '"') {
      // Unquoted: a view into the line.
      const char* q = FindSpecial(p, end, sep);
      if (q != end && *q != sep) {
        return UnquotedError(*q);
      }
      fields->emplace_back(p, static_cast<size_t>(q - p));
      p = q;
    } else {
      // Quoted: the unescaped section, then any unquoted tail ("ab"c is
      // abc), appended to scratch.
      size_t b = scratch->size();
      ++p;
      while (true) {
        const char* q = std::find(p, end, '"');
        if (q == end) {
          return Status::InvalidArgument("CSV: unterminated quoted field");
        }
        scratch->append(p, static_cast<size_t>(q - p));
        if (q + 1 == end || q[1] != '"') {
          p = q + 1;
          break;
        }
        scratch->push_back('"');  // "" -> "
        p = q + 2;
      }
      const char* q = FindSpecial(p, end, sep);
      if (q != end && *q != sep) {
        return UnquotedError(*q);
      }
      scratch->append(p, static_cast<size_t>(q - p));
      fields->emplace_back(scratch->data() + b, scratch->size() - b);
      p = q;
    }
    if (p == end) {
      return Status::OK();
    }
    ++p;  // the separator
  }
}

std::string FormatCsvLine(const std::vector<std::string>& fields, char sep) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) {
      out.push_back(sep);
    }
    const std::string& f = fields[i];
    bool needs_quotes = false;
    for (char c : f) {
      if (c == sep || c == '"' || c == '\n' || c == '\r') {
        needs_quotes = true;
        break;
      }
    }
    if (!needs_quotes) {
      out += f;
      continue;
    }
    out.push_back('"');
    for (char c : f) {
      if (c == '"') {
        out += "\"\"";
      } else {
        out.push_back(c);
      }
    }
    out.push_back('"');
  }
  return out;
}

}  // namespace helix
