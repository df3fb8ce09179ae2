// The four space-search algorithms of paper §2.2:
//   Random - classical per-program random search (prior work),
//   FR     - per-function random search (no runtime guidance),
//   G      - greedy combination of per-loop winners (prior work's
//            assembly rule), reported as realized AND independent
//            (the hypothetical upper bound of §3.4),
//   CFR    - Caliper-guided random search (Algorithm 1): prune each
//            loop's CV space to its top-X performers, then re-sample
//            heterogeneous assignments and measure realized runtimes.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/collector.hpp"
#include "core/evaluator.hpp"
#include "core/outline.hpp"

namespace ft::core {

/// Typed key/value extras a search algorithm attaches to its result
/// (greedy's §3.4 independence bound, for one). Replaces the bespoke
/// per-algorithm optional fields TuningResult used to grow one pair at
/// a time. Keys iterate in sorted order, so serialized extras are
/// deterministic.
class ResultExtras {
 public:
  void set(const std::string& key, double value) { values_[key] = value; }
  /// nullopt when the algorithm did not report `key`.
  [[nodiscard]] std::optional<double> get(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] double get_or(const std::string& key,
                              double fallback) const {
    return get(key).value_or(fallback);
  }
  [[nodiscard]] bool contains(const std::string& key) const {
    return values_.count(key) != 0;
  }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] const std::map<std::string, double>& items()
      const noexcept {
    return values_;
  }

 private:
  std::map<std::string, double> values_;
};

/// Well-known extras keys (greedy's §3.4 hypothetical bound).
inline constexpr const char* kExtraIndependentSeconds =
    "independent_seconds";
inline constexpr const char* kExtraIndependentSpeedup =
    "independent_speedup";

/// Result of one search algorithm on one (program, arch, input).
struct TuningResult {
  std::string algorithm;
  compiler::ModuleAssignment best_assignment;
  double search_best_seconds = 0.0;  ///< best runtime seen during search
  double tuned_seconds = 0.0;        ///< re-measured (10 reps, fresh noise)
  double baseline_seconds = 0.0;     ///< O3, same protocol
  double speedup = 0.0;              ///< baseline / tuned
  std::vector<double> history;       ///< best-so-far after each evaluation
  std::size_t evaluations = 0;
  /// Algorithm-specific extras; empty for searches that report none.
  ResultExtras extras;
};

/// Greedy combination reports two numbers (paper §3.4).
struct GreedyResult {
  TuningResult realized;       ///< actually assembled and measured
  double independent_seconds = 0.0;  ///< sum of per-module best times
  double independent_speedup = 0.0;  ///< the no-interference upper bound
};

/// Per-program random search over `cvs` (uniform compilation).
[[nodiscard]] TuningResult random_search(
    Evaluator& evaluator, std::span<const flags::CompilationVector> cvs,
    double baseline_seconds);

/// Per-function random search: per iteration, each module draws a CV
/// uniformly (with replacement) from the pre-sampled set.
[[nodiscard]] TuningResult function_random_search(
    Evaluator& evaluator, const Outline& outline,
    std::span<const flags::CompilationVector> presampled,
    std::size_t iterations, std::uint64_t seed, double baseline_seconds);

/// Greedy combination from collected per-loop runtimes.
[[nodiscard]] GreedyResult greedy_combination(Evaluator& evaluator,
                                              const Outline& outline,
                                              const Collection& collection,
                                              double baseline_seconds);

struct CfrOptions {
  std::size_t top_x = 10;        ///< pruned space size per module
  std::size_t iterations = 1000; ///< K of Algorithm 1
  std::uint64_t seed = 42;
  /// Convergence-based early stop (§4.3 suggests exploiting CFR's
  /// convergence trend to cut tuning overhead): abort the search when
  /// the best-so-far has not improved for this many consecutive
  /// evaluations. 0 disables early stopping (the paper's fixed-budget
  /// protocol). Early-stopped searches run sequentially.
  std::size_t patience = 0;
};

/// Caliper-guided random search (Algorithm 1).
[[nodiscard]] TuningResult cfr_search(Evaluator& evaluator,
                                      const Outline& outline,
                                      const Collection& collection,
                                      const CfrOptions& options,
                                      double baseline_seconds);

/// Pruned candidate indices per module (top-X smallest measured times;
/// exposed for tests of Algorithm 1's pruning step). The last entry is
/// the rest module.
[[nodiscard]] std::vector<std::vector<std::size_t>> prune_top_x(
    const Collection& collection, std::size_t top_x);

struct RetuneOptions {
  std::size_t iterations = 60;  ///< evaluations (the seed costs one)
  std::size_t top_x = 10;       ///< pruned candidate space per module
  std::uint64_t seed = 42;
  std::size_t patience = 0;     ///< early stop; 0 = fixed budget
};

/// Incremental re-tuning (the online drift response): hill-climbs from
/// `seed_assignment` by re-drawing one or two modules per step from the
/// collection's pruned top-X spaces, evaluating on `evaluator`'s input
/// (typically a drifted one, not the tuning input). The seed is
/// evaluated first, so the result can never score worse than the
/// incumbent on the search metric.
[[nodiscard]] TuningResult retune_search(
    Evaluator& evaluator, const Outline& outline,
    const Collection& collection,
    const compiler::ModuleAssignment& seed_assignment,
    const RetuneOptions& options, double baseline_seconds);

}  // namespace ft::core
