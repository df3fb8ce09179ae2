// Online drift detection and re-tuning (the "production" scenario on
// top of Fig 8's timestep scaling): a tuned assignment keeps running
// while the input profile drifts - per-time-step work and working-set
// size shift segment by segment - until its per-loop advantage over
// the O3 baseline erodes. A monitor watches per-loop runtime regression
// against a steady-state snapshot; past a threshold (debounced over
// consecutive observations) it triggers an incremental re-tune seeded
// from the current best assignment (the registry's unlisted "retune"
// algorithm), and hot-swaps the winner in when it actually beats the
// degraded incumbent on the drifted input.
//
// Resume contract: every measurement flows through per-segment
// Evaluators that share the campaign's EvalJournal and EvalCache, so a
// killed run restarted against the same journal replays every
// evaluation bit-identically - same observations, same monitor
// decisions, same swaps, same report. Swap events themselves are
// derived state and are deliberately NOT journaled (EvalJournal
// replay regenerates them; a foreign record kind would read as a torn
// tail on resume).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/funcy_tuner.hpp"

namespace ft::core {

/// How the input profile drifts away from the tuning input.
struct DriftScheduleOptions {
  int segments = 3;          ///< drifted segments after steady state
  /// Per-segment multiplicative drift of per-time-step work and of the
  /// working-set size (segment i runs at (1+drift)^i; negative values
  /// shrink). The interesting regime for re-tuning is a shrinking
  /// working set: streaming-store and prefetch choices that paid off
  /// when the data streamed past the LLC turn hostile once it re-fits
  /// in cache.
  double work_drift = 0.25;
  double ws_drift = -0.5;
  /// Time-steps per segment; 0 keeps the tuning input's count.
  int timesteps = 0;
};

/// The drifted inputs, in order: segment i is the tuning input with
/// work/ws scales compounded i+1 times (and the o3_seconds target kept
/// pinned - O3 is the contract runtime drift is judged against).
[[nodiscard]] std::vector<ir::InputSpec> make_drift_schedule(
    const ir::InputSpec& tuning, const DriftScheduleOptions& options);

/// One instrumented measurement of an assignment on the current input.
struct DriftObservation {
  double end_to_end = 0.0;
  std::vector<double> loop_seconds;
};

enum class DriftState : std::uint8_t {
  kSteady,    ///< within threshold of the baseline snapshot
  kSuspect,   ///< regressed, awaiting confirmation (debounce)
  kRetuning,  ///< confirmed regression; a re-tune is due
};

[[nodiscard]] std::string_view to_string(DriftState state) noexcept;

/// Regression detector over per-loop speedups. baseline() snapshots
/// the steady-state per-loop (and end-to-end) speedup of the incumbent
/// vs O3; each observe() recomputes them on the current input and
/// reports the worst relative drop. The state machine is
/// kSteady -> kSuspect -> kRetuning with `confirm` consecutive
/// regressed observations required to trip (a single noisy probe never
/// triggers a re-tune), and a clean observation resetting the count.
/// kRetuning is sticky until reset_after_swap().
class DriftMonitor {
 public:
  struct Options {
    /// Relative drop in any per-loop (or the end-to-end) speedup vs
    /// the steady snapshot considered a regression.
    double threshold = 0.10;
    int confirm = 2;  ///< consecutive regressed observations to trip
  };

  explicit DriftMonitor(Options options) : options_(options) {}

  /// Snapshots the steady-state reference (O3 and incumbent measured
  /// on the same input, same protocol).
  void baseline(const DriftObservation& o3, const DriftObservation& tuned);

  /// Feeds one (O3, incumbent) observation pair; returns the state
  /// after the transition.
  DriftState observe(const DriftObservation& o3,
                     const DriftObservation& tuned);

  /// Re-baselines on the post-swap measurement and returns to kSteady.
  void reset_after_swap(const DriftObservation& o3,
                        const DriftObservation& tuned);

  [[nodiscard]] DriftState state() const noexcept { return state_; }
  /// Worst relative speedup drop seen by the latest observe() (can be
  /// negative when the incumbent got faster).
  [[nodiscard]] double last_regression() const noexcept {
    return last_regression_;
  }
  [[nodiscard]] const Options& options() const noexcept { return options_; }

 private:
  [[nodiscard]] static std::vector<double> speedups(
      const DriftObservation& o3, const DriftObservation& tuned);

  Options options_;
  std::vector<double> reference_;  ///< per-loop + end-to-end speedups
  int strikes_ = 0;
  double last_regression_ = 0.0;
  DriftState state_ = DriftState::kSteady;
};

/// One drift segment's outcome in the report.
struct DriftSegmentReport {
  std::string input;           ///< drifted input name
  int timesteps = 0;
  double work_scale = 1.0;
  double ws_scale = 1.0;
  double o3_seconds = 0.0;       ///< O3 measured on this input
  double degraded_seconds = 0.0; ///< incumbent measured on this input
  double degraded_speedup = 0.0;
  double regression = 0.0;       ///< monitor's worst relative drop
  std::string state;             ///< monitor state after observation
  bool retuned = false;          ///< a re-tune ran
  bool swapped = false;          ///< ...and its winner was hot-swapped
  double retuned_seconds = 0.0;  ///< post-swap incumbent (if retuned)
  double retuned_speedup = 0.0;  ///< o3_seconds / retuned_seconds
  std::size_t retune_evaluations = 0;
};

struct OnlineReport {
  double steady_o3_seconds = 0.0;     ///< tuning input, O3
  double steady_tuned_seconds = 0.0;  ///< tuning input, initial tune
  double steady_speedup = 0.0;
  std::vector<DriftSegmentReport> segments;
};

struct OnlineTunerOptions {
  DriftScheduleOptions schedule;
  DriftMonitor::Options monitor;
  /// Evaluation budget per triggered re-tune (RetuneOptions iterations).
  std::size_t retune_samples = 60;
  /// Repetitions per monitor observation (more reps = less noise per
  /// probe, so the debounce can stay short).
  int observation_reps = 5;
};

/// Runs the online scenario over one FuncyTuner: monitors the given
/// initial assignment across the drift schedule, re-tunes on confirmed
/// regression and hot-swaps improvements. Deterministic for fixed
/// options; attach a journal to make a killed run resumable.
class OnlineTuner {
 public:
  OnlineTuner(FuncyTuner& tuner, OnlineTunerOptions options);

  /// The journal every per-segment evaluator records into (and, on
  /// resume, loads into its cache to replay). Optional.
  void set_journal(std::shared_ptr<EvalJournal> journal);

  [[nodiscard]] OnlineReport run(
      const compiler::ModuleAssignment& initial);

 private:
  [[nodiscard]] DriftObservation observe_assignment(
      Evaluator& evaluator, const compiler::ModuleAssignment& assignment,
      std::uint64_t rep_base);

  FuncyTuner* tuner_;
  OnlineTunerOptions options_;
  std::shared_ptr<EvalJournal> journal_;
};

}  // namespace ft::core
