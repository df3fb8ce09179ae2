#include "ir/program.hpp"

#include <cmath>
#include <set>
#include <stdexcept>
#include <string_view>

namespace ft::ir {

Program::Program(std::string name, std::string language, double loc_k,
                 std::vector<LoopModule> loops, LoopModule nonloop,
                 std::vector<InputSpec> inputs)
    : name_(std::move(name)),
      language_(std::move(language)),
      loc_k_(loc_k),
      loops_(std::move(loops)),
      nonloop_(std::move(nonloop)),
      inputs_(std::move(inputs)) {
  if (loops_.empty()) {
    throw std::invalid_argument("program '" + name_ + "' has no loops");
  }
  double share = nonloop_.o3_ratio;
  // Names identify loops to Caliper regions and noise keys, so two
  // loops sharing one would silently merge their measurements.
  std::set<std::string_view> names;
  for (auto& loop : loops_) {
    loop.features.sanitize();
    loop.is_loop = true;
    share += loop.o3_ratio;
    if (loop.o3_ratio <= 0.0) {
      throw std::invalid_argument("loop '" + loop.name +
                                  "' has non-positive O3 share");
    }
    if (!names.insert(loop.name).second) {
      throw std::invalid_argument("program '" + name_ +
                                  "' has two loops named '" + loop.name +
                                  "'");
    }
  }
  nonloop_.is_loop = false;
  nonloop_.features.sanitize();
  if (std::fabs(share - 1.0) > 1e-6) {
    throw std::invalid_argument("program '" + name_ +
                                "' O3 shares must sum to 1, got " +
                                std::to_string(share));
  }
  bool has_tuning = false;
  for (const auto& spec : inputs_) has_tuning |= (spec.name == "tuning");
  if (!has_tuning) {
    throw std::invalid_argument("program '" + name_ +
                                "' is missing a 'tuning' input");
  }
}

std::vector<LoopModule> Program::all_modules() const {
  std::vector<LoopModule> modules = loops_;
  modules.push_back(nonloop_);
  return modules;
}

std::optional<InputSpec> Program::input(const std::string& name) const {
  for (const auto& spec : inputs_) {
    if (spec.name == name) return spec;
  }
  return std::nullopt;
}

const InputSpec& Program::tuning_input() const {
  for (const auto& spec : inputs_) {
    if (spec.name == "tuning") return spec;
  }
  throw std::logic_error("tuning input vanished");  // guarded in ctor
}

}  // namespace ft::ir
