// Deterministic measurement-noise model. The paper reports runtimes of
// 3-36 s with standard deviations of 0.04-0.2 s over 10 runs (§4.1);
// we perturb each per-loop time with a relative Gaussian keyed on
// (seed, executable fingerprint, loop, input, architecture, repetition),
// so identical configurations always reproduce identical "measurements"
// while distinct runs decorrelate - noise is real for the search
// algorithms (winner's curse!) yet experiments stay bit-reproducible.
#pragma once

#include <cstdint>
#include <string_view>

namespace ft::machine {

class NoiseModel {
 public:
  /// sigma_rel: relative std-dev per loop measurement; floor_seconds:
  /// absolute noise floor (OS jitter) added in quadrature.
  explicit NoiseModel(std::uint64_t seed = 42, double sigma_rel = 0.01,
                      double floor_seconds = 0.002)
      : seed_(seed), sigma_rel_(sigma_rel), floor_seconds_(floor_seconds) {}

  /// Perturbed value of `seconds` for measurement context `key`.
  /// Deterministic in (seed, key). Never returns <= 0.
  [[nodiscard]] double perturb(double seconds, std::uint64_t key) const;

  /// Builds a measurement key from run context.
  [[nodiscard]] static std::uint64_t make_key(std::uint64_t fingerprint,
                                              std::string_view loop_name,
                                              std::string_view input_name,
                                              std::string_view arch_name,
                                              std::uint64_t repetition);

  /// The terms make_key XORs into the fingerprint, one per context
  /// field. A caller drawing many keys for one run hashes each name
  /// once and XORs the cached terms; the result is bit-equal to
  /// make_key because XOR is associative.
  [[nodiscard]] static std::uint64_t loop_term(std::string_view loop_name);
  [[nodiscard]] static std::uint64_t input_term(std::string_view input_name);
  [[nodiscard]] static std::uint64_t arch_term(std::string_view arch_name);
  [[nodiscard]] static std::uint64_t rep_term(std::uint64_t repetition);

  [[nodiscard]] double sigma_rel() const noexcept { return sigma_rel_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// A disabled model (exact measurements), for tests and G.Independent
  /// style oracle computations.
  [[nodiscard]] static NoiseModel none() { return NoiseModel(0, 0.0, 0.0); }

 private:
  std::uint64_t seed_;
  double sigma_rel_;
  double floor_seconds_;
};

}  // namespace ft::machine
