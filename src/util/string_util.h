#ifndef KOKO_UTIL_STRING_UTIL_H_
#define KOKO_UTIL_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace koko {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view text, char sep);

/// Splits `text` on any run of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view text);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower-casing (locale independent).
std::string ToLower(std::string_view text);
char ToLowerChar(char c);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

bool EndsWith(std::string_view text, std::string_view suffix);

/// True when `needle` occurs in `haystack` (case sensitive).
bool Contains(std::string_view haystack, std::string_view needle);

bool EqualsIgnoreCase(std::string_view a, std::string_view b);

bool IsAsciiDigit(char c);
bool IsAsciiAlpha(char c);
bool IsAsciiAlnum(char c);
bool IsAsciiUpper(char c);
bool IsAsciiSpace(char c);

/// True when every character of `text` is an ASCII digit (and non-empty).
bool IsAllDigits(std::string_view text);

/// True when the first character is an ASCII capital letter.
bool IsCapitalized(std::string_view text);

/// `text` in double quotes with `\` and `"` escaped by a backslash, as the
/// KOKO query lexer reads a string literal back.
std::string Quote(std::string_view text);

/// Formats a double with `digits` decimal places (e.g. for report tables).
std::string FormatDouble(double value, int digits);

/// Renders a byte count as a human-readable string ("1.5 MB").
std::string HumanBytes(size_t bytes);

}  // namespace koko

#endif  // KOKO_UTIL_STRING_UTIL_H_
