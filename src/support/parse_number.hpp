// Locale-independent numeric parsing. std::stod / std::strtod honor
// LC_NUMERIC, so a process started under (or switched to) a locale
// with ',' as the decimal separator silently mis-parses "%.17g" text -
// a checkpoint journal, a wire frame or a --noise-sigma value would
// round-trip to *different bits* and break the bit-identity contract.
// Every number that crosses a serialization boundary must go through
// these helpers instead; they parse the C-locale grammar regardless of
// the global locale.
#pragma once

#include <cstdint>
#include <string_view>

namespace ft::support {

/// Parses a double at the start of `text` using the C-locale grammar
/// ('.' decimal point, optional exponent; no leading whitespace or
/// '+'). On success stores the value, sets `*consumed` (when non-null)
/// to the number of characters eaten, and returns true. Infinities and
/// NaNs parse (callers that forbid them check std::isfinite).
[[nodiscard]] bool parse_double_prefix(std::string_view text, double* out,
                                       std::size_t* consumed = nullptr);

/// parse_double_prefix requiring the whole of `text` to be the number.
[[nodiscard]] bool parse_double(std::string_view text, double* out);

/// Whole-string base-10 signed/unsigned integer parses (also
/// locale-proof, and stricter than strtoll: no whitespace, no "0x").
[[nodiscard]] bool parse_int64(std::string_view text, std::int64_t* out);
[[nodiscard]] bool parse_uint64(std::string_view text, std::uint64_t* out);

/// Byte sizes for CLI flags: a base-10 integer with an optional
/// K/M/G/T suffix (binary multiples, case-insensitive, optional
/// trailing B/iB as in "64MiB"). Throws std::invalid_argument naming
/// the text on anything else, overflow included, so it doubles as the
/// flag's validator (support::accepted_by).
[[nodiscard]] std::uint64_t parse_byte_size(std::string_view text);

}  // namespace ft::support
