// Small string helpers shared across modules.

#ifndef MYRAFT_UTIL_STRING_UTIL_H_
#define MYRAFT_UTIL_STRING_UTIL_H_

#include <charconv>
#include <concepts>
#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace myraft {

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Appends the decimal form of an integer (std::to_chars: no printf, no
/// locale).
template <std::integral T>
void AppendDecimal(std::string* dst, T value) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  dst->append(buf, static_cast<size_t>(end - buf));
}

/// Splits on a single character; empty tokens are preserved.
std::vector<std::string> SplitString(std::string_view input, char sep);

/// Joins with a separator.
std::string JoinStrings(const std::vector<std::string>& parts,
                        std::string_view sep);

bool HasPrefix(std::string_view s, std::string_view prefix);
bool HasSuffix(std::string_view s, std::string_view suffix);

/// Parses a non-negative decimal integer; returns false on any non-digit
/// or overflow.
bool ParseUint64(std::string_view s, uint64_t* value);

/// "1.5 GB"-style human-readable byte count.
std::string HumanReadableBytes(uint64_t bytes);

}  // namespace myraft

#endif  // MYRAFT_UTIL_STRING_UTIL_H_
