// Evolutionary per-loop search: an extension beyond the paper.
//
// CFR (Algorithm 1) re-samples per-module CVs independently within the
// pruned top-X spaces. That ignores what realized measurements reveal
// about *combinations* - which modules' choices conflict through the
// link. This extension replaces the blind re-sampling with a steady-
// state genetic algorithm over module assignments:
//   * genome     = one pruned-space index per module,
//   * crossover  = exchange per-module choices between two parents
//                  (module boundaries are the natural crossover points),
//   * mutation   = re-draw one module's choice from its pruned space,
//   * selection  = tournament on measured end-to-end runtime.
// Population seeding uses CFR-style independent samples, so the first
// generation IS plain CFR - everything after is learning about
// interference. Evaluated by `bench/extension_evolution`.
#pragma once

#include "core/collector.hpp"
#include "core/evaluator.hpp"
#include "core/outline.hpp"
#include "core/search.hpp"

namespace ft::core {

struct EvolutionOptions {
  std::size_t top_x = 10;        ///< pruned space per module (as CFR)
  std::size_t evaluations = 1000;  ///< total measurement budget
  std::size_t population = 32;
  std::uint64_t seed = 42;
};

/// Runs the per-loop evolutionary search. Reports algorithm "EvoCFR".
[[nodiscard]] TuningResult evolutionary_search(Evaluator& evaluator,
                                               const Outline& outline,
                                               const Collection& collection,
                                               const EvolutionOptions& options);

}  // namespace ft::core
