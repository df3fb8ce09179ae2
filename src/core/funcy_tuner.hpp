// FuncyTuner façade: owns the whole per-loop compilation stack for one
// (program, architecture) pair - flag space, compiler, execution
// engine, profiler, collection phase and the registry's searches -
// and exposes the introspection the paper's figures need (per-loop
// speedups for Fig 9, codegen decision summaries for Table 3, and
// cross-input evaluation for Figs 7 and 8).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/collector.hpp"
#include "core/evaluator.hpp"
#include "core/outline.hpp"
#include "core/search.hpp"
#include "core/search_registry.hpp"
#include "flags/spaces.hpp"
#include "machine/execution_engine.hpp"

namespace ft::core {

struct FuncyTunerOptions {
  /// K of Algorithm 1: the pre-sampled CVs (paper: 1000), and the
  /// budget of fr, cfr and retune unless their namespaced knob is set.
  std::size_t samples = 1000;
  std::uint64_t seed = 42;
  double hot_threshold = 0.01;  ///< outline loops >= 1% of runtime
  /// Repetitions of every final measurement: the O3 baseline, each
  /// tuned result and the cross-input runs (§4.1; Evaluator::finish).
  int final_reps = 10;
  double noise_sigma_rel = 0.008;
  /// Extra error on per-region Caliper readings (§3.3 noise-tolerance
  /// claim; see ExecutionEngine). The noise ablation sweeps this.
  double attribution_sigma = 0.03;
  /// Fault injection (off by default: rate 0 leaves every existing
  /// result bit-identical).
  machine::FaultConfig faults;
  /// Retry/quarantine/timeout policy for the resilient evaluation path.
  RetryPolicy retry;
  /// Memoize completed evaluations in a content-addressed EvalCache
  /// (bit-identical results, redundant modeled cost moved from
  /// "charged" to "saved"). Off by default.
  bool eval_cache = false;
  /// LRU bound for the cache; 0 = EvalCache::kDefaultMaxEntries.
  std::size_t eval_cache_entries = 0;
  /// Directory for the disk-backed second cache tier, shared across
  /// processes (core/persistent_cache.hpp). Empty = memory tier only.
  /// Setting a dir implies a memory tier even when eval_cache is
  /// false. Excluded from options_fingerprint: where entries live
  /// never changes what they contain.
  std::string eval_cache_dir;
  /// Size budget for the disk tier in bytes;
  /// 0 = PersistentCache::kDefaultMaxBytes.
  std::size_t eval_cache_disk_bytes = 0;
  /// Per-algorithm namespaced knobs: registry key → option tokens in
  /// `--knob=value` form, exactly as the user's `--<algo>:<knob>`
  /// flags were given (SearchAlgorithm::options() declares the
  /// schema), and the only place those knobs are set. Mixed into
  /// options_fingerprint.
  std::map<std::string, std::vector<std::string>> algorithm_options;
};

class FuncyTuner {
 public:
  FuncyTuner(ir::Program program, machine::Architecture arch,
             FuncyTunerOptions options = {},
             compiler::Personality personality = compiler::Personality::kIcc);

  // Non-movable: the internal engine/evaluator hold stable pointers.
  FuncyTuner(const FuncyTuner&) = delete;
  FuncyTuner& operator=(const FuncyTuner&) = delete;

  [[nodiscard]] const ir::Program& program() const noexcept {
    return program_;
  }
  [[nodiscard]] const flags::FlagSpace& space() const noexcept {
    return space_;
  }
  [[nodiscard]] Evaluator& evaluator() noexcept { return *evaluator_; }

  /// Attaches a (possibly cross-tuner shared) evaluation cache, salted
  /// with this tuner's options fingerprint so tuners with different
  /// noise/fault configs can never alias each other's entries.
  void set_eval_cache(std::shared_ptr<EvalCache> cache);
  [[nodiscard]] const std::shared_ptr<EvalCache>& eval_cache()
      const noexcept;
  [[nodiscard]] machine::ExecutionEngine& engine() noexcept {
    return *engine_;
  }
  [[nodiscard]] const FuncyTunerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] const ir::InputSpec& tuning_input() const noexcept {
    return tuning_input_;
  }

  /// The K pre-sampled CVs shared by all per-loop algorithms.
  [[nodiscard]] const std::vector<flags::CompilationVector>& presampled();

  /// Lazy phases (each runs at most once).
  [[nodiscard]] const Outline& outline();
  [[nodiscard]] const Collection& collection();
  /// O3 under the final protocol (memoized by the evaluator).
  [[nodiscard]] double baseline_seconds() {
    return evaluator_->baseline_seconds();
  }

  /// Lazy accessors over this tuner's phases, for SearchAlgorithm::run.
  [[nodiscard]] SearchContext search_context();

  /// Runs one registry algorithm ("random", "fr", "greedy", "cfr", or
  /// anything registered with SearchRegistry::global()). Throws
  /// std::invalid_argument for unknown names.
  [[nodiscard]] TuningResult run(const std::string& algorithm);

  // --- introspection ------------------------------------------------------

  /// Noise-free per-loop speedups vs. the O3 baseline (program loop
  /// order) of an assignment on the tuning input (Fig 9).
  [[nodiscard]] std::vector<double> per_loop_speedups(
      const compiler::ModuleAssignment& assignment);

  /// Table 3 style decision summaries per loop (program loop order).
  [[nodiscard]] std::vector<std::string> per_loop_decisions(
      const compiler::ModuleAssignment& assignment);

  /// End-to-end seconds of an assignment on an arbitrary input over
  /// final_reps runs (Figs 7/8 evaluate tuned executables on unseen
  /// inputs).
  [[nodiscard]] double seconds_on(const ir::InputSpec& input,
                                  const compiler::ModuleAssignment&);
  /// O3 seconds on an arbitrary input, same protocol.
  [[nodiscard]] double baseline_seconds_on(const ir::InputSpec& input);

 private:
  FuncyTunerOptions options_;
  ir::Program program_;
  flags::FlagSpace space_;
  compiler::Compiler compiler_;
  std::unique_ptr<machine::ExecutionEngine> engine_;
  ir::InputSpec tuning_input_;
  std::unique_ptr<Evaluator> evaluator_;

  std::vector<flags::CompilationVector> presampled_;
  std::optional<Outline> outline_;
  std::optional<Collection> collection_;
};

}  // namespace ft::core
