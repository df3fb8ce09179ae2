#include "machine/noise.hpp"

#include <algorithm>
#include <cmath>

#include "support/rng.hpp"

namespace ft::machine {

double NoiseModel::perturb(double seconds, std::uint64_t key) const {
  if (sigma_rel_ <= 0.0 && floor_seconds_ <= 0.0) return seconds;
  support::Rng rng(seed_ ^ key);
  const double sigma = std::sqrt(sigma_rel_ * sigma_rel_ * seconds * seconds +
                                 floor_seconds_ * floor_seconds_);
  const double perturbed = seconds + sigma * rng.normal();
  return std::max(perturbed, seconds * 0.5);
}

std::uint64_t NoiseModel::make_key(std::uint64_t fingerprint,
                                   std::string_view loop_name,
                                   std::string_view input_name,
                                   std::string_view arch_name,
                                   std::uint64_t repetition) {
  return fingerprint ^ loop_term(loop_name) ^ input_term(input_name) ^
         arch_term(arch_name) ^ rep_term(repetition);
}

std::uint64_t NoiseModel::loop_term(std::string_view loop_name) {
  return support::fnv1a64(loop_name) * 0x9e3779b97f4a7c15ULL;
}

std::uint64_t NoiseModel::input_term(std::string_view input_name) {
  return support::fnv1a64(input_name) * 0xc2b2ae3d27d4eb4fULL;
}

std::uint64_t NoiseModel::arch_term(std::string_view arch_name) {
  return support::fnv1a64(arch_name) * 0x165667b19e3779f9ULL;
}

std::uint64_t NoiseModel::rep_term(std::uint64_t repetition) {
  return (repetition + 1) * 0x27d4eb2f165667c5ULL;
}

}  // namespace ft::machine
