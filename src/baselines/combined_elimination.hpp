// Combined Elimination (Pan & Eigenmann, PEAK [21]) - the per-program
// flag-pruning baseline of the paper's Fig 1. Starting from the
// all-optimizations-on configuration, CE measures each flag's Relative
// Improvement Percentage (RIP) when switched off, then greedily removes
// the flag with the most negative impact together with any other flag
// that still helps once it is gone, iterating to a fixed point. The
// paper observes CE stalls in local minima on these codes.
#pragma once

#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/search.hpp"
#include "flags/flag_space.hpp"

namespace ft::baselines {

struct CeResult {
  flags::CompilationVector best_cv;  ///< in the binarized space
  core::TuningResult tuning;         ///< algorithm = "CE"
  /// Names of flags CE left enabled (non-default).
  std::vector<std::string> enabled_flags;
};

/// Runs CE on the binarized view of `space` (CE reasons about on/off
/// decisions only). Evaluation is uniform per-program compilation.
[[nodiscard]] CeResult combined_elimination(core::Evaluator& evaluator,
                                            const flags::FlagSpace& space);

}  // namespace ft::baselines
