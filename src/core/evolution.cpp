#include "core/evolution.hpp"

#include <algorithm>
#include <limits>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace ft::core {

namespace {

/// Probability a child is bred by crossover (else cloned from one
/// tournament winner).
constexpr double kCrossoverRate = 0.7;
/// Expected module choices re-drawn per child.
constexpr double kMutationRate = 0.25;

/// Genome: for each module, an index into collection.cvs (drawn from
/// that module's pruned candidate list).
struct Individual {
  std::vector<std::size_t> genome;
  double seconds = std::numeric_limits<double>::infinity();
};

}  // namespace

TuningResult evolutionary_search(Evaluator& evaluator,
                                 const Outline& outline,
                                 const Collection& collection,
                                 const EvolutionOptions& options) {
  TuningResult result;
  result.algorithm = "EvoCFR";

  const std::vector<std::vector<std::size_t>> pruned =
      prune_top_x(collection, options.top_x);
  const std::size_t module_count = outline.module_count();
  support::Rng rng(options.seed);

  auto make_assignment = [&](const std::vector<std::size_t>& genome) {
    std::vector<flags::CompilationVector> hot_cvs;
    hot_cvs.reserve(outline.hot.size());
    for (std::size_t i = 0; i < outline.hot.size(); ++i) {
      hot_cvs.push_back(collection.cvs[genome[i]]);
    }
    return outline.make_assignment(hot_cvs,
                                   collection.cvs[genome.back()]);
  };

  auto random_genome = [&]() {
    std::vector<std::size_t> genome(module_count);
    for (std::size_t m = 0; m < module_count; ++m) {
      genome[m] = pruned[m][rng.next_below(pruned[m].size())];
    }
    return genome;
  };

  auto record_history = [&](double seconds) {
    double best = result.history.empty()
                      ? std::numeric_limits<double>::infinity()
                      : result.history.back();
    result.history.push_back(std::min(best, seconds));
  };
  // The whole search shares one phase rep_base: noise is
  // content-addressed (executable fingerprint keyed), so re-evaluating
  // a genome the population already measured reproduces the identical
  // time - the redundancy the EvalCache elides.
  auto evaluate = [&](Individual& individual) {
    EvalRequest request;
    request.assignment = make_assignment(individual.genome);
    request.rep_base = rep_streams::kEvolution;
    individual.seconds = evaluator.evaluate(request).seconds();
    record_history(individual.seconds);
  };

  // --- generation 0: CFR-style independent samples ------------------------
  // Gen-0 individuals are independent, so they evaluate as one parallel
  // batch (same phase noise keys as the sequential order); history is
  // reconstructed in index order afterwards.
  const std::size_t population_size =
      std::min(options.population, options.evaluations);
  std::vector<Individual> population(population_size);
  for (Individual& individual : population) {
    individual.genome = random_genome();
  }
  std::vector<EvalRequest> gen0_requests(population_size);
  for (std::size_t i = 0; i < population_size; ++i) {
    gen0_requests[i].assignment = make_assignment(population[i].genome);
    gen0_requests[i].rep_base = rep_streams::kEvolution;
  }
  const std::vector<EvalResponse> gen0 = evaluator.evaluate_batch(
      gen0_requests, EvalTrace{.label = "evolution/gen0"});
  for (std::size_t i = 0; i < population_size; ++i) {
    population[i].seconds = gen0[i].seconds();
    record_history(population[i].seconds);
  }

  auto tournament = [&]() -> const Individual& {
    const Individual& a = population[rng.next_below(population.size())];
    const Individual& b = population[rng.next_below(population.size())];
    return a.seconds < b.seconds ? a : b;
  };

  // --- steady-state evolution ------------------------------------------------
  while (result.history.size() < options.evaluations) {
    Individual child;
    if (rng.bernoulli(kCrossoverRate)) {
      const Individual& mother = tournament();
      const Individual& father = tournament();
      child.genome.resize(module_count);
      for (std::size_t m = 0; m < module_count; ++m) {
        child.genome[m] =
            rng.bernoulli(0.5) ? mother.genome[m] : father.genome[m];
      }
    } else {
      child.genome = tournament().genome;
    }
    for (std::size_t m = 0; m < module_count; ++m) {
      if (rng.bernoulli(kMutationRate /
                        static_cast<double>(module_count))) {
        child.genome[m] = pruned[m][rng.next_below(pruned[m].size())];
      }
    }
    evaluate(child);

    // Replace the tournament loser.
    std::size_t worst = 0;
    for (std::size_t i = 1; i < population.size(); ++i) {
      if (population[i].seconds > population[worst].seconds) worst = i;
    }
    if (child.seconds < population[worst].seconds) {
      population[worst] = std::move(child);
    }
  }

  // --- winner ------------------------------------------------------------------
  std::size_t best = 0;
  for (std::size_t i = 1; i < population.size(); ++i) {
    if (population[i].seconds < population[best].seconds) best = i;
  }
  result.best_assignment = make_assignment(population[best].genome);
  result.search_best_seconds = population[best].seconds;
  result.evaluations = result.history.size();
  evaluator.finish(result);
  return result;
}

}  // namespace ft::core
