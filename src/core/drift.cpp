#include "core/drift.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "core/checkpoint.hpp"

namespace ft::core {

std::vector<ir::InputSpec> make_drift_schedule(
    const ir::InputSpec& tuning, const DriftScheduleOptions& options) {
  std::vector<ir::InputSpec> schedule;
  schedule.reserve(static_cast<std::size_t>(std::max(options.segments, 0)));
  for (int i = 1; i <= options.segments; ++i) {
    ir::InputSpec input = tuning;
    // Distinct names drive distinct calibration, cache and journal
    // contexts (Evaluator folds input.name into every key).
    input.name = tuning.name + "-drift" + std::to_string(i);
    input.work_scale =
        tuning.work_scale * std::pow(1.0 + options.work_drift, i);
    input.ws_scale = tuning.ws_scale * std::pow(1.0 + options.ws_drift, i);
    if (options.timesteps > 0 && options.timesteps != tuning.timesteps) {
      // Same rescaling rule as programs::with_timesteps (fixed startup
      // share; replicated here so core stays below the programs layer).
      constexpr double kStartupSeconds = 0.5;
      const double per_step =
          (tuning.o3_seconds - kStartupSeconds) / tuning.timesteps;
      input.timesteps = options.timesteps;
      input.o3_seconds = kStartupSeconds + per_step * options.timesteps;
    }
    schedule.push_back(std::move(input));
  }
  return schedule;
}

std::string_view to_string(DriftState state) noexcept {
  switch (state) {
    case DriftState::kSteady:
      return "steady";
    case DriftState::kSuspect:
      return "suspect";
    case DriftState::kRetuning:
      return "retuning";
  }
  return "unknown";
}

std::vector<double> DriftMonitor::speedups(const DriftObservation& o3,
                                           const DriftObservation& tuned) {
  const std::size_t loops =
      std::min(o3.loop_seconds.size(), tuned.loop_seconds.size());
  std::vector<double> out;
  out.reserve(loops + 1);
  for (std::size_t j = 0; j < loops; ++j) {
    const double t = tuned.loop_seconds[j];
    out.push_back(t > 0.0 ? o3.loop_seconds[j] / t : 0.0);
  }
  out.push_back(tuned.end_to_end > 0.0 ? o3.end_to_end / tuned.end_to_end
                                       : 0.0);
  return out;
}

void DriftMonitor::baseline(const DriftObservation& o3,
                            const DriftObservation& tuned) {
  reference_ = speedups(o3, tuned);
  strikes_ = 0;
  last_regression_ = 0.0;
  state_ = DriftState::kSteady;
}

DriftState DriftMonitor::observe(const DriftObservation& o3,
                                 const DriftObservation& tuned) {
  const std::vector<double> current = speedups(o3, tuned);
  double worst = 0.0;
  const std::size_t n = std::min(current.size(), reference_.size());
  for (std::size_t j = 0; j < n; ++j) {
    if (reference_[j] <= 0.0) continue;
    worst = std::max(worst, 1.0 - current[j] / reference_[j]);
  }
  last_regression_ = worst;
  if (state_ == DriftState::kRetuning) return state_;  // sticky until swap
  if (worst > options_.threshold) {
    ++strikes_;
    state_ = strikes_ >= options_.confirm ? DriftState::kRetuning
                                          : DriftState::kSuspect;
  } else {
    strikes_ = 0;
    state_ = DriftState::kSteady;
  }
  return state_;
}

void DriftMonitor::reset_after_swap(const DriftObservation& o3,
                                    const DriftObservation& tuned) {
  baseline(o3, tuned);
}

OnlineTuner::OnlineTuner(FuncyTuner& tuner, OnlineTunerOptions options)
    : tuner_(&tuner), options_(std::move(options)) {}

void OnlineTuner::set_journal(std::shared_ptr<EvalJournal> journal) {
  journal_ = std::move(journal);
}

DriftObservation OnlineTuner::observe_assignment(
    Evaluator& evaluator, const compiler::ModuleAssignment& assignment,
    std::uint64_t rep_base) {
  EvalRequest request;
  request.assignment = assignment;
  request.rep_base = rep_base;
  request.repetitions = options_.observation_reps;
  request.instrumented = true;  // the monitor needs per-loop times
  const EvalResponse response =
      evaluator.evaluate(request, EvalTrace{.label = "drift/observe"});
  DriftObservation observation;
  if (response.ok()) {
    observation.end_to_end = response.outcome.result.end_to_end;
    observation.loop_seconds = response.outcome.result.loop_seconds;
  } else {
    observation.end_to_end = kInvalidSeconds;
  }
  return observation;
}

OnlineReport OnlineTuner::run(const compiler::ModuleAssignment& initial) {
  FuncyTuner& tuner = *tuner_;
  OnlineReport report;
  const std::size_t loops = tuner.program().loops().size();
  const compiler::ModuleAssignment o3 =
      compiler::ModuleAssignment::uniform(tuner.space().default_cv(), loops);

  // Per-observation offsets within the kDriftMonitor stream: segments
  // are 0x1000 apart, observations 0x10, the (O3, incumbent, post-swap)
  // probes of one observation 0x1..0x8 - disjoint by construction.
  constexpr std::uint64_t kSegmentStride = 0x1000;
  constexpr std::uint64_t kObservationStride = 0x10;

  // Steady state: snapshot the incumbent's advantage on the tuning
  // input. These run on the tuner's own evaluator (same journal/cache
  // wiring the initial tune used).
  const DriftObservation steady_o3 =
      observe_assignment(tuner.evaluator(), o3, rep_streams::kDriftMonitor);
  const DriftObservation steady_tuned = observe_assignment(
      tuner.evaluator(), initial, rep_streams::kDriftMonitor + 8);
  report.steady_o3_seconds = steady_o3.end_to_end;
  report.steady_tuned_seconds = steady_tuned.end_to_end;
  report.steady_speedup = steady_tuned.end_to_end > 0.0
                              ? steady_o3.end_to_end / steady_tuned.end_to_end
                              : 0.0;

  DriftMonitor monitor(options_.monitor);
  monitor.baseline(steady_o3, steady_tuned);

  compiler::ModuleAssignment current = initial;
  // Segment inputs must outlive their Evaluators (which hold the input
  // by pointer) - a deque never reallocates existing elements.
  std::deque<ir::InputSpec> inputs;
  const std::vector<ir::InputSpec> schedule =
      make_drift_schedule(tuner.tuning_input(), options_.schedule);

  for (std::size_t i = 0; i < schedule.size(); ++i) {
    inputs.push_back(schedule[i]);
    const ir::InputSpec& input = inputs.back();
    Evaluator evaluator(tuner.engine(), input);
    evaluator.set_retry_policy(tuner.options().retry);
    evaluator.set_final_reps(tuner.options().final_reps);
    if (tuner.eval_cache() != nullptr) {
      evaluator.set_eval_cache(tuner.eval_cache(),
                               options_fingerprint(tuner.options()));
    }
    if (journal_ != nullptr) evaluator.set_journal(journal_);

    const std::uint64_t segment_base =
        rep_streams::kDriftMonitor + (i + 1) * kSegmentStride;

    DriftSegmentReport segment;
    segment.input = input.name;
    segment.timesteps = input.timesteps;
    segment.work_scale = input.work_scale;
    segment.ws_scale = input.ws_scale;

    // Observe until the monitor either trips or the debounce window is
    // exhausted without confirmation.
    DriftObservation o3_obs;
    DriftObservation tuned_obs;
    DriftState state = monitor.state();
    const int window = std::max(monitor.options().confirm, 1);
    for (int o = 0; o < window && state != DriftState::kRetuning; ++o) {
      const std::uint64_t base = segment_base + o * kObservationStride;
      o3_obs = observe_assignment(evaluator, o3, base);
      tuned_obs = observe_assignment(evaluator, current, base + 8);
      state = monitor.observe(o3_obs, tuned_obs);
    }
    segment.o3_seconds = o3_obs.end_to_end;
    segment.degraded_seconds = tuned_obs.end_to_end;
    segment.degraded_speedup = tuned_obs.end_to_end > 0.0
                                   ? o3_obs.end_to_end / tuned_obs.end_to_end
                                   : 0.0;
    segment.regression = monitor.last_regression();

    if (state == DriftState::kRetuning) {
      // Incremental re-tune on the drifted input, seeded from the
      // degraded incumbent. Its speedup is against the O3 runtime just
      // observed here, not the retune's own final-protocol baseline.
      FuncyTunerOptions retune_options = tuner.options();
      retune_options.samples = options_.retune_samples;
      SearchContext context = tuner.search_context();
      context.provide_evaluator(&evaluator);
      context.provide_options(&retune_options);
      context.provide_seed_assignment(&current);
      const TuningResult result =
          SearchRegistry::global().create("retune")->run(context);

      segment.retuned = true;
      segment.retune_evaluations = result.evaluations;
      segment.retuned_seconds = result.tuned_seconds;
      segment.retuned_speedup = o3_obs.end_to_end / result.tuned_seconds;
      if (result.tuned_seconds < tuned_obs.end_to_end) {
        current = result.best_assignment;  // hot swap
        segment.swapped = true;
      }
      // Re-baseline on the post-decision incumbent so the monitor
      // tracks drift relative to what is actually deployed now.
      const DriftObservation post_o3 =
          observe_assignment(evaluator, o3, segment_base + 0x800);
      const DriftObservation post_tuned =
          observe_assignment(evaluator, current, segment_base + 0x808);
      monitor.reset_after_swap(post_o3, post_tuned);
    }
    segment.state = std::string(to_string(state));
    report.segments.push_back(std::move(segment));
  }
  return report;
}

}  // namespace ft::core
