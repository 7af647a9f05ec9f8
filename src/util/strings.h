// Small string helpers shared across parsers and report printers.

#ifndef SIMJ_UTIL_STRINGS_H_
#define SIMJ_UTIL_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace simj {

// Splits `text` on `sep`, dropping empty pieces.
std::vector<std::string> SplitAndTrim(std::string_view text, char sep);

// Splits `text` on runs of whitespace.
std::vector<std::string> SplitWhitespace(std::string_view text);

// Joins `pieces` with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

// Removes leading/trailing whitespace.
std::string_view StripWhitespace(std::string_view text);

// ASCII lower-casing.
std::string ToLower(std::string_view text);

bool StartsWith(std::string_view text, std::string_view prefix);
bool EndsWith(std::string_view text, std::string_view suffix);

// `value` with exactly three decimals ("%.3f"), for deterministic JSON.
std::string FormatFixed3(double value);

// Escapes `text` for embedding inside a JSON string literal: quotes,
// backslashes, and control characters (\uXXXX for the ones without a short
// escape). Non-ASCII bytes pass through untouched (valid UTF-8 stays valid).
std::string JsonEscape(std::string_view text);

}  // namespace simj

#endif  // SIMJ_UTIL_STRINGS_H_
