// A CompilationVector (CV) is one point in the compiler optimization
// space: the chosen option index for each flag of a FlagSpace
// (Section 2.1 of the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ft::flags {

class FlagSpace;

/// Option indices, one per flag, parallel to FlagSpace::specs().
/// Index 0 is always the flag's default option, so the all-zero CV is
/// the plain `-O3` baseline of its space.
///
/// The content hash is computed when the choices change (construction
/// and set()), never on read: one build reads it ~40 times (object
/// table, fingerprint, evaluation keys), and a copy carries it along.
class CompilationVector {
 public:
  CompilationVector() : hash_(content_hash({})) {}
  explicit CompilationVector(std::vector<std::uint8_t> choices)
      : choices_(std::move(choices)), hash_(content_hash(choices_)) {}

  [[nodiscard]] std::size_t size() const noexcept { return choices_.size(); }
  [[nodiscard]] bool empty() const noexcept { return choices_.empty(); }

  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept {
    return choices_[i];
  }
  void set(std::size_t i, std::uint8_t option) noexcept {
    choices_[i] = option;
    hash_ = content_hash(choices_);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& choices() const noexcept {
    return choices_;
  }

  /// Stable 64-bit content hash (used for compile caching and for
  /// keying deterministic measurement noise).
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

  /// Number of flags where the two vectors differ (Hamming distance).
  [[nodiscard]] std::size_t distance(const CompilationVector& other)
      const noexcept;

  friend bool operator==(const CompilationVector& a,
                         const CompilationVector& b) noexcept {
    return a.hash_ == b.hash_ && a.choices_ == b.choices_;
  }
  friend bool operator!=(const CompilationVector& a,
                         const CompilationVector& b) noexcept {
    return !(a == b);
  }

 private:
  [[nodiscard]] static std::uint64_t content_hash(
      const std::vector<std::uint8_t>& choices) noexcept;

  std::vector<std::uint8_t> choices_;
  std::uint64_t hash_;
};

}  // namespace ft::flags

template <>
struct std::hash<ft::flags::CompilationVector> {
  std::size_t operator()(const ft::flags::CompilationVector& cv)
      const noexcept {
    return static_cast<std::size_t>(cv.hash());
  }
};
