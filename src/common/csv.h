// Minimal RFC-4180-style CSV line splitter and writer.
//
// The Census application ingests its training data through CsvScanner,
// which cuts its input on '\n' and splits each line here. Quoted fields,
// embedded separators and escaped quotes ("") are supported; a record
// never spans lines, so a newline inside quotes cannot reach the
// splitter from the scanner (FormatCsvLine still quotes one, and
// SplitCsvLine keeps it when handed a whole quoted record).
#ifndef HELIX_COMMON_CSV_H_
#define HELIX_COMMON_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace helix {

/// Splits one CSV record into `*fields` (cleared first) without
/// allocating per field. Unquoted fields are views into `line`; quoted
/// fields are unescaped into `*scratch`, which is reserved to
/// line.size() before parsing (unescaped output is never longer than its
/// input), so every view stays valid until the next call with the same
/// scratch. Reuse `fields` and `scratch` across lines.
///
/// "" yields one empty field. A '\r' is kept as field content. Errors
/// (InvalidArgument): a quote after the start of an unquoted field, an
/// unterminated quoted field, a newline outside quotes.
Status SplitCsvLine(std::string_view line, char sep,
                    std::vector<std::string_view>* fields,
                    std::string* scratch);

/// Renders one record, quoting fields that contain sep/quote/newline.
std::string FormatCsvLine(const std::vector<std::string>& fields,
                          char sep = ',');

}  // namespace helix

#endif  // HELIX_COMMON_CSV_H_
