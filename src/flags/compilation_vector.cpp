#include "flags/compilation_vector.hpp"

namespace ft::flags {

std::uint64_t CompilationVector::content_hash(
    const std::vector<std::uint8_t>& choices) noexcept {
  // FNV-1a over option bytes plus the length, so prefixes don't collide.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](std::uint8_t byte) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  };
  for (const std::uint8_t c : choices) mix(c);
  mix(static_cast<std::uint8_t>(choices.size()));
  return h;
}

std::size_t CompilationVector::distance(
    const CompilationVector& other) const noexcept {
  const std::size_t common =
      choices_.size() < other.choices_.size() ? choices_.size()
                                              : other.choices_.size();
  std::size_t diff =
      (choices_.size() > other.choices_.size() ? choices_.size()
                                               : other.choices_.size()) -
      common;
  for (std::size_t i = 0; i < common; ++i) {
    if (choices_[i] != other.choices_[i]) ++diff;
  }
  return diff;
}

}  // namespace ft::flags
