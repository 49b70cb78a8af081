// The one strict integer parser for command-line flags, positional
// arguments and environment knobs (examples/ and bench/ both use it).

#ifndef IMPLISTAT_UTIL_PARSE_UINT_H_
#define IMPLISTAT_UTIL_PARSE_UINT_H_

#include <charconv>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <string_view>

namespace implistat {

/// Parses `text` as a decimal integer in [min, max]. Only the digits 0-9
/// are accepted, so an empty value, a sign, an exponent, trailing text and
/// an out-of-range value all fail; the failure prints a message that
/// names `what` (the flag, argument or variable) and returns nullopt.
inline std::optional<uint64_t> ParseUint(
    std::string_view what, std::string_view text, uint64_t min,
    uint64_t max = std::numeric_limits<uint64_t>::max()) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc() && ptr == end && value >= min && value <= max) {
    return value;
  }
  std::cerr << what << ": invalid value '" << text
            << "' (expected an integer ";
  if (max == std::numeric_limits<uint64_t>::max()) {
    std::cerr << ">= " << min << ")\n";
  } else {
    std::cerr << "in [" << min << ", " << max << "])\n";
  }
  return std::nullopt;
}

}  // namespace implistat

#endif  // IMPLISTAT_UTIL_PARSE_UINT_H_
