#include "baselines/opentuner.hpp"

#include "baselines/opentuner_techniques.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

namespace ft::baselines {

OpenTunerResult opentuner_search(core::Evaluator& evaluator,
                                 const flags::FlagSpace& space,
                                 const OpenTunerOptions& options) {
  constexpr std::size_t kBanditWindow = 50;  // sliding window for AUC credit
  constexpr double kExploration = 1.4;       // UCB exploration constant
  support::Rng rng(options.seed);
  const std::size_t loop_count =
      evaluator.engine().program().loops().size();

  using namespace techniques;
  std::vector<std::unique_ptr<SearchTechnique>> techniques;
  techniques.push_back(std::make_unique<DifferentialEvolution>());
  techniques.push_back(std::make_unique<TorczonHillClimber>());
  techniques.push_back(std::make_unique<NelderMeadDiscrete>());
  techniques.push_back(std::make_unique<GeneticAlgorithm>());
  techniques.push_back(std::make_unique<SimulatedAnnealing>());
  techniques.push_back(std::make_unique<RandomTechnique>());

  // Sliding-window AUC credit per technique (1 when the proposal
  // improved the global best, weighted toward recent outcomes).
  std::vector<std::deque<int>> window(techniques.size());
  std::vector<std::size_t> uses(techniques.size(), 0);

  flags::CompilationVector best_cv = space.default_cv();
  double best_seconds = std::numeric_limits<double>::infinity();

  OpenTunerResult result;
  result.tuning.algorithm = "OpenTuner";
  result.tuning.history.reserve(options.iterations);

  for (std::size_t iteration = 0; iteration < options.iterations;
       ++iteration) {
    // AUC bandit: exploitation = weighted improvement rate in window.
    std::size_t chosen = 0;
    double best_score = -1.0;
    for (std::size_t t = 0; t < techniques.size(); ++t) {
      double auc = 0.0;
      double denom = 0.0;
      for (std::size_t w = 0; w < window[t].size(); ++w) {
        const double weight = static_cast<double>(w + 1);
        auc += weight * window[t][w];
        denom += weight;
      }
      const double exploitation = denom > 0.0 ? auc / denom : 0.0;
      const double exploration =
          kExploration *
          std::sqrt(2.0 * std::log(static_cast<double>(iteration + 1)) /
                    static_cast<double>(uses[t] + 1));
      const double score = exploitation + exploration;
      if (score > best_score) {
        best_score = score;
        chosen = t;
      }
    }

    const flags::CompilationVector cv =
        techniques[chosen]->propose(space, rng, best_cv);
    core::EvalRequest request;
    request.assignment = compiler::ModuleAssignment::uniform(cv, loop_count);
    request.rep_base = core::rep_streams::kOpenTuner;
    const double seconds = evaluator.evaluate(request).seconds();
    const bool improved = seconds < best_seconds;
    if (improved) {
      best_seconds = seconds;
      best_cv = cv;
    }
    techniques[chosen]->feedback(cv, seconds, improved);

    ++uses[chosen];
    window[chosen].push_back(improved ? 1 : 0);
    if (window[chosen].size() > kBanditWindow) {
      window[chosen].pop_front();
    }
    result.tuning.history.push_back(best_seconds);
  }

  result.tuning.best_assignment =
      compiler::ModuleAssignment::uniform(best_cv, loop_count);
  result.tuning.search_best_seconds = best_seconds;
  result.tuning.evaluations = options.iterations;
  evaluator.finish(result.tuning);
  for (const auto& technique : techniques) {
    result.technique_names.emplace_back(technique->name());
  }
  result.technique_uses = uses;
  return result;
}

}  // namespace ft::baselines
