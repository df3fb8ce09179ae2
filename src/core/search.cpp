#include "core/search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "support/rng.hpp"
#include "support/stats.hpp"
#include "telemetry/telemetry.hpp"

namespace ft::core {

namespace {

/// True when at least one evaluation produced a real runtime. Failed
/// evaluations score kInvalidSeconds (+inf), so argmin naturally skips
/// them - but with every candidate invalid (pathological fault rates)
/// the argmin index is meaningless and callers fall back to the
/// compiler's default CV instead of crowning an un-runnable winner.
bool any_valid(const std::vector<double>& seconds) {
  return std::any_of(seconds.begin(), seconds.end(),
                     [](double s) { return std::isfinite(s); });
}

/// Scores (kInvalidSeconds for failures) from a batch of responses.
std::vector<double> seconds_of(const std::vector<EvalResponse>& responses) {
  std::vector<double> seconds;
  seconds.reserve(responses.size());
  for (const EvalResponse& response : responses) {
    seconds.push_back(response.seconds());
  }
  return seconds;
}

/// Materializes `count` generator-built assignments into requests on
/// one shared phase rep_base (content-addressed noise keeps distinct
/// variants decorrelated).
std::vector<EvalRequest> batch_requests(
    std::size_t count, std::uint64_t rep_base,
    const std::function<compiler::ModuleAssignment(std::size_t)>& make) {
  std::vector<EvalRequest> requests(count);
  for (std::size_t k = 0; k < count; ++k) {
    requests[k].assignment = make(k);
    requests[k].rep_base = rep_base;
  }
  return requests;
}

compiler::ModuleAssignment default_assignment(Evaluator& evaluator,
                                              std::size_t loop_count) {
  return compiler::ModuleAssignment::uniform(
      evaluator.engine().compiler().space().default_cv(), loop_count);
}

/// Best-so-far curve and winner from a vector of evaluation results.
void finish_from_history(TuningResult& result,
                         const std::vector<double>& seconds) {
  result.history.clear();
  result.history.reserve(seconds.size());
  double best = std::numeric_limits<double>::infinity();
  for (const double s : seconds) {
    best = std::min(best, s);
    result.history.push_back(best);
  }
  result.search_best_seconds = best;
  result.evaluations = seconds.size();
}

}  // namespace

TuningResult random_search(Evaluator& evaluator,
                           std::span<const flags::CompilationVector> cvs) {
  TuningResult result;
  result.algorithm = "Random";
  telemetry::Span span = telemetry::tracer().begin("search:Random");
  if (span) span.attr("samples", static_cast<std::uint64_t>(cvs.size()));
  const std::size_t loop_count =
      evaluator.engine().program().loops().size();

  EvalTrace trace;
  trace.label = "random/batch";
  const std::vector<double> seconds = seconds_of(evaluator.evaluate_batch(
      batch_requests(cvs.size(), rep_streams::kRandom,
                     [&](std::size_t k) {
                       return compiler::ModuleAssignment::uniform(cvs[k],
                                                                  loop_count);
                     }),
      trace));

  finish_from_history(result, seconds);
  if (any_valid(seconds)) {
    const std::size_t winner = support::argmin(seconds);
    result.best_assignment =
        compiler::ModuleAssignment::uniform(cvs[winner], loop_count);
  } else {
    result.best_assignment = default_assignment(evaluator, loop_count);
  }
  evaluator.finish(result);
  return result;
}

TuningResult function_random_search(
    Evaluator& evaluator, const Outline& outline,
    std::span<const flags::CompilationVector> presampled,
    std::size_t iterations, std::uint64_t seed) {
  TuningResult result;
  result.algorithm = "FR";
  telemetry::Span span = telemetry::tracer().begin("search:FR");
  if (span) {
    span.attr("iterations", static_cast<std::uint64_t>(iterations))
        .attr("seed", seed);
  }
  const std::size_t module_count = outline.module_count();

  // Pre-draw all module CV indices so evaluation order cannot perturb
  // the random stream (deterministic under parallel evaluation).
  support::Rng rng(seed);
  std::vector<std::vector<std::size_t>> picks(
      iterations, std::vector<std::size_t>(module_count));
  for (auto& row : picks) {
    for (auto& pick : row) pick = rng.next_below(presampled.size());
  }

  auto make = [&](std::size_t k) {
    std::vector<flags::CompilationVector> hot_cvs;
    hot_cvs.reserve(outline.hot.size());
    for (std::size_t i = 0; i < outline.hot.size(); ++i) {
      hot_cvs.push_back(presampled[picks[k][i]]);
    }
    return outline.make_assignment(hot_cvs,
                                   presampled[picks[k].back()]);
  };

  EvalTrace trace;
  trace.label = "fr/batch";
  const std::vector<double> seconds = seconds_of(evaluator.evaluate_batch(
      batch_requests(iterations, rep_streams::kFunctionRandom, make), trace));
  finish_from_history(result, seconds);
  result.best_assignment =
      any_valid(seconds)
          ? make(support::argmin(seconds))
          : default_assignment(evaluator,
                               evaluator.engine().program().loops().size());
  evaluator.finish(result);
  return result;
}

TuningResult greedy_combination(Evaluator& evaluator, const Outline& outline,
                                const Collection& collection) {
  if (collection.cvs.empty()) {
    throw std::invalid_argument("greedy combination needs a collection");
  }
  TuningResult result;
  result.algorithm = "G.realized";
  telemetry::Span span = telemetry::tracer().begin("search:Greedy");

  // Per-module winners: i = argmin_k T[j][k] (paper §2.2.3). Failed
  // collection rows hold +inf, so the argmin skips them; a module with
  // no valid row at all falls back to the compiler default CV.
  const flags::CompilationVector default_cv =
      evaluator.engine().compiler().space().default_cv();
  std::vector<flags::CompilationVector> hot_cvs;
  hot_cvs.reserve(outline.hot.size());
  double independent_sum = 0.0;
  for (std::size_t j = 0; j < outline.hot.size(); ++j) {
    const std::size_t winner = support::argmin(collection.loop_times[j]);
    const double best = collection.loop_times[j][winner];
    hot_cvs.push_back(std::isfinite(best) ? collection.cvs[winner]
                                          : default_cv);
    independent_sum += best;
  }
  const std::size_t rest_winner = support::argmin(collection.rest_times);
  independent_sum += collection.rest_times[rest_winner];

  result.best_assignment = outline.make_assignment(
      hot_cvs, std::isfinite(collection.rest_times[rest_winner])
                   ? collection.cvs[rest_winner]
                   : default_cv);
  result.evaluations = 1;
  evaluator.finish(result);
  result.search_best_seconds = result.tuned_seconds;
  result.history = {result.tuned_seconds};

  // G.Independent: the pairwise-independence hypothetical (§3.4) -
  // sums the best per-module times without assembling an executable.
  const double independent_speedup =
      result.baseline_seconds / independent_sum;
  result.extras.set(kExtraIndependentSeconds, independent_sum);
  result.extras.set(kExtraIndependentSpeedup, independent_speedup);
  if (span) {
    span.attr("independent_speedup", independent_speedup)
        .attr("realized_speedup", result.speedup);
  }
  return result;
}

std::vector<std::vector<std::size_t>> prune_top_x(
    const Collection& collection, std::size_t top_x) {
  // An empty candidate set would leave a module nothing to draw.
  if (top_x == 0 || collection.cvs.empty()) {
    throw std::invalid_argument("prune_top_x: top_x 0 or no collection");
  }
  // Failed evaluations (+inf rows) must never occupy top-X slots; they
  // only survive when a module has fewer than top_x valid rows, and
  // even then only as a last-resort non-empty candidate set.
  const auto prune = [top_x](const std::vector<double>& times) {
    std::vector<std::size_t> keep = support::smallest_k(times, top_x);
    std::vector<std::size_t> valid;
    valid.reserve(keep.size());
    for (const std::size_t index : keep) {
      if (std::isfinite(times[index])) valid.push_back(index);
    }
    return valid.empty() ? keep : valid;
  };
  std::vector<std::vector<std::size_t>> pruned;
  pruned.reserve(collection.loop_times.size() + 1);
  for (const std::vector<double>& times : collection.loop_times) {
    pruned.push_back(prune(times));
  }
  pruned.push_back(prune(collection.rest_times));
  return pruned;
}

TuningResult cfr_search(Evaluator& evaluator, const Outline& outline,
                        const Collection& collection,
                        const CfrOptions& options) {
  TuningResult result;
  result.algorithm = "CFR";
  telemetry::Span span = telemetry::tracer().begin("search:CFR");
  if (span) {
    span.attr("iterations", static_cast<std::uint64_t>(options.iterations))
        .attr("top_x", static_cast<std::uint64_t>(options.top_x))
        .attr("patience", static_cast<std::uint64_t>(options.patience))
        .attr("seed", options.seed);
  }

  // Step 2 of Algorithm 1: prune the pre-sampled space per module.
  const std::vector<std::vector<std::size_t>> pruned =
      prune_top_x(collection, options.top_x);
  const std::size_t module_count = outline.module_count();

  // Step 3: re-sample per-module CVs within the pruned spaces.
  support::Rng rng(options.seed);
  std::vector<std::vector<std::size_t>> picks(
      options.iterations, std::vector<std::size_t>(module_count));
  for (auto& row : picks) {
    for (std::size_t m = 0; m < module_count; ++m) {
      const auto& candidates = pruned[m];
      row[m] = candidates[rng.next_below(candidates.size())];
    }
  }

  auto make = [&](std::size_t k) {
    std::vector<flags::CompilationVector> hot_cvs;
    hot_cvs.reserve(outline.hot.size());
    for (std::size_t i = 0; i < outline.hot.size(); ++i) {
      hot_cvs.push_back(collection.cvs[picks[k][i]]);
    }
    return outline.make_assignment(hot_cvs,
                                   collection.cvs[picks[k].back()]);
  };

  std::vector<double> seconds;
  if (options.patience == 0) {
    EvalTrace trace;
    trace.label = "cfr/batch";
    seconds = seconds_of(evaluator.evaluate_batch(
        batch_requests(options.iterations, rep_streams::kCfr, make), trace));
  } else {
    // Sequential with convergence-based early stop: identical results
    // for the evaluations it does run (same phase rep_base, so the
    // same content-addressed noise keys as the batch path).
    seconds.reserve(options.iterations);
    double best = std::numeric_limits<double>::infinity();
    std::size_t since_improvement = 0;
    for (std::size_t k = 0; k < options.iterations; ++k) {
      EvalRequest request;
      request.assignment = make(k);
      request.rep_base = rep_streams::kCfr;
      EvalTrace trace;
      trace.leaf_spans = true;  // sequential: per-eval spans are safe
      trace.label = "cfr/eval";
      const double s = evaluator.evaluate(request, trace).seconds();
      seconds.push_back(s);
      if (s < best) {
        best = s;
        since_improvement = 0;
      } else if (++since_improvement >= options.patience) {
        break;
      }
    }
  }
  finish_from_history(result, seconds);
  result.best_assignment =
      any_valid(seconds)
          ? make(support::argmin(seconds))
          : default_assignment(evaluator,
                               evaluator.engine().program().loops().size());
  evaluator.finish(result);
  return result;
}

TuningResult retune_search(Evaluator& evaluator, const Outline& outline,
                           const Collection& collection,
                           const compiler::ModuleAssignment& seed_assignment,
                           const RetuneOptions& options) {
  TuningResult result;
  result.algorithm = "Retune";
  telemetry::Span span = telemetry::tracer().begin("search:Retune");
  if (span) {
    span.attr("iterations", static_cast<std::uint64_t>(options.iterations))
        .attr("top_x", static_cast<std::uint64_t>(options.top_x))
        .attr("seed", options.seed);
  }

  // Same pruning as CFR: the collection's top-X spaces stay a good
  // prior under drift (the modules did not change, the input did).
  const std::vector<std::vector<std::size_t>> pruned =
      prune_top_x(collection, options.top_x);
  const std::size_t module_count = outline.module_count();

  // Decompose the incumbent into the outlined view so mutations work
  // per module; make_assignment below re-expands cold loops from the
  // rest CV, exactly how the incumbent was originally assembled.
  std::vector<flags::CompilationVector> best_hot;
  best_hot.reserve(outline.hot.size());
  for (const std::size_t loop : outline.hot) {
    best_hot.push_back(seed_assignment.loop_cvs[loop]);
  }
  flags::CompilationVector best_rest = seed_assignment.nonloop_cv;

  support::Rng rng(options.seed);
  std::vector<double> seconds;
  seconds.reserve(options.iterations);
  double best_seconds = std::numeric_limits<double>::infinity();
  std::size_t since_improvement = 0;

  for (std::size_t k = 0; k < options.iterations; ++k) {
    std::vector<flags::CompilationVector> hot = best_hot;
    flags::CompilationVector rest = best_rest;
    if (k > 0) {
      // Redraw one or two modules from their pruned spaces - small
      // steps around the incumbent, not a from-scratch re-sample.
      const std::size_t mutations = 1 + rng.next_below(2);
      for (std::size_t m = 0; m < mutations; ++m) {
        const std::size_t module = rng.next_below(module_count);
        const auto& candidates = pruned[module];
        const flags::CompilationVector& cv =
            collection.cvs[candidates[rng.next_below(candidates.size())]];
        if (module + 1 == module_count) {
          rest = cv;
        } else {
          hot[module] = cv;
        }
      }
    }
    EvalRequest request;
    request.assignment = outline.make_assignment(hot, rest);
    request.rep_base = rep_streams::kRetune;
    EvalTrace trace;
    trace.leaf_spans = true;  // sequential: per-eval spans are safe
    trace.label = "retune/eval";
    const double s = evaluator.evaluate(request, trace).seconds();
    seconds.push_back(s);
    if (s < best_seconds) {
      best_seconds = s;
      best_hot = std::move(hot);
      best_rest = rest;
      since_improvement = 0;
    } else if (options.patience != 0 &&
               ++since_improvement >= options.patience) {
      break;
    }
  }

  finish_from_history(result, seconds);
  result.best_assignment =
      any_valid(seconds) ? outline.make_assignment(best_hot, best_rest)
                         : seed_assignment;
  evaluator.finish(result);
  return result;
}

}  // namespace ft::core
