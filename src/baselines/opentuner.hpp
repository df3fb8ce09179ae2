// OpenTuner-style per-program ensemble search (Ansel et al., PACT'14):
// several search techniques (differential evolution, Torczon hill
// climbing, discrete Nelder-Mead-style simplex moves, uniform random)
// run under an AUC-bandit meta-technique that allocates each test
// iteration to the technique with the best recent record (§4.2.1 of the
// paper runs OpenTuner for 1000 test iterations on the same CV space).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/search.hpp"
#include "flags/flag_space.hpp"
#include "support/rng.hpp"

namespace ft::baselines {

/// One member of the ensemble. Techniques share the global best and
/// propose one configuration per turn.
class SearchTechnique {
 public:
  virtual ~SearchTechnique() = default;
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// Proposes the next CV to test.
  [[nodiscard]] virtual flags::CompilationVector propose(
      const flags::FlagSpace& space, support::Rng& rng,
      const flags::CompilationVector& global_best) = 0;
  /// Observes the measured result of its own proposal.
  virtual void feedback(const flags::CompilationVector& cv, double seconds,
                        bool improved_global) = 0;
};

struct OpenTunerOptions {
  std::size_t iterations = 1000;
  std::uint64_t seed = 42;
};

struct OpenTunerResult {
  core::TuningResult tuning;             ///< algorithm = "OpenTuner"
  std::vector<std::string> technique_names;
  std::vector<std::size_t> technique_uses;  ///< bandit allocation counts
};

/// Runs the ensemble for `options.iterations` evaluations.
[[nodiscard]] OpenTunerResult opentuner_search(core::Evaluator& evaluator,
                                               const flags::FlagSpace& space,
                                               const OpenTunerOptions& options);

}  // namespace ft::baselines
