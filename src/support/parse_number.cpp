#include "support/parse_number.hpp"

#include <charconv>
#include <stdexcept>
#include <string>

// Floating-point std::from_chars needs libstdc++ >= 11 / libc++ >= 20.
// The fallback parses through a stream imbued with the classic "C"
// locale, which is locale-independent too - just slower.
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
#define FT_HAVE_FP_FROM_CHARS 1
#else
#define FT_HAVE_FP_FROM_CHARS 0
#include <locale>
#include <sstream>
#include <string>
#endif

namespace ft::support {

bool parse_double_prefix(std::string_view text, double* out,
                         std::size_t* consumed) {
#if FT_HAVE_FP_FROM_CHARS
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  if (ec != std::errc() || ptr == text.data()) return false;
  if (consumed != nullptr) {
    *consumed = static_cast<std::size_t>(ptr - text.data());
  }
  return true;
#else
  std::istringstream stream{std::string(text)};
  stream.imbue(std::locale::classic());
  stream >> std::noskipws >> *out;
  if (stream.fail()) return false;
  const std::streampos at = stream.tellg();
  if (consumed != nullptr) {
    *consumed = stream.eof() ? text.size()
                             : static_cast<std::size_t>(at);
  }
  return true;
#endif
}

bool parse_double(std::string_view text, double* out) {
  std::size_t consumed = 0;
  return parse_double_prefix(text, out, &consumed) &&
         consumed == text.size() && !text.empty();
}

bool parse_int64(std::string_view text, std::int64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size() &&
         !text.empty();
}

bool parse_uint64(std::string_view text, std::uint64_t* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size() &&
         !text.empty();
}

std::uint64_t parse_byte_size(std::string_view text) {
  const auto refuse = [text] {
    return std::invalid_argument("not a byte size: '" + std::string(text) +
                                 "' (expected N with an optional K/M/G/T "
                                 "suffix)");
  };
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr == text.data()) throw refuse();
  std::string_view rest = text.substr(
      static_cast<std::size_t>(ptr - text.data()));
  unsigned shift = 0;
  if (!rest.empty()) {
    switch (rest.front()) {
      case 'k': case 'K': shift = 10; break;
      case 'm': case 'M': shift = 20; break;
      case 'g': case 'G': shift = 30; break;
      case 't': case 'T': shift = 40; break;
      default: throw refuse();
    }
    rest.remove_prefix(1);
    // Accept "64M", "64MB" and "64MiB" spellings alike.
    if (rest == "i" || rest == "I") throw refuse();
    if (rest.size() == 2 && (rest[0] == 'i' || rest[0] == 'I')) {
      rest.remove_prefix(1);
    }
    if (!rest.empty() && rest != "b" && rest != "B") throw refuse();
  }
  if (shift != 0 && value > (std::uint64_t{~0ULL} >> shift)) throw refuse();
  return value << shift;
}

}  // namespace ft::support
