#include "machine/execution_engine.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/stats.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ft::machine {

ExecutionEngine::ExecutionEngine(const ir::Program& program,
                                 compiler::Compiler& compiler,
                                 NoiseModel noise,
                                 double caliper_overhead_per_event,
                                 double attribution_sigma)
    : program_(&program),
      compiler_(&compiler),
      noise_(noise),
      attribution_noise_(noise.seed() ^ 0x5bd1e995u, attribution_sigma,
                         0.0),
      caliper_overhead_(caliper_overhead_per_event),
      baseline_(compiler.build_baseline(program)),
      outlier_key_term_(NoiseModel::loop_term("<outlier>")),
      arch_key_term_(NoiseModel::arch_term(compiler.arch().name)) {
  for (const ir::LoopModule& loop : program.loops()) {
    module_key_terms_.push_back(NoiseModel::loop_term(loop.name));
  }
  module_key_terms_.push_back(NoiseModel::loop_term(program.nonloop().name));
}

const std::vector<double>& ExecutionEngine::calibration(
    const ir::InputSpec& input) {
  std::lock_guard lock(calibration_mutex_);
  auto it = calibration_cache_.find(input.name);
  if (it != calibration_cache_.end()) return it->second;

  const std::vector<LoopCost> raw =
      program_raw_costs(*program_, baseline_, compiler_->arch(), input);
  std::vector<double> factors(raw.size(), 1.0);
  const std::size_t loop_count = program_->loops().size();
  for (std::size_t j = 0; j < loop_count; ++j) {
    const double target = input.o3_seconds * program_->loops()[j].o3_ratio;
    factors[j] = target / std::max(raw[j].total, 1e-12);
  }
  const double nonloop_target =
      input.o3_seconds * program_->nonloop().o3_ratio;
  factors[loop_count] = nonloop_target / std::max(raw[loop_count].total,
                                                  1e-12);
  auto [inserted, ok] =
      calibration_cache_.emplace(input.name, std::move(factors));
  (void)ok;
  return inserted->second;
}

std::vector<double> ExecutionEngine::true_module_seconds(
    const compiler::Executable& exe, const ir::InputSpec& input) {
  const std::vector<double>& factors = calibration(input);
  const std::vector<LoopCost> raw =
      program_raw_costs(*program_, exe, compiler_->arch(), input);
  std::vector<double> seconds(raw.size());
  for (std::size_t j = 0; j < raw.size(); ++j) {
    seconds[j] = raw[j].total * factors[j];
  }
  return seconds;
}

RunResult ExecutionEngine::run(const compiler::Executable& exe,
                               const ir::InputSpec& input,
                               const RunOptions& options) {
  const std::vector<double> truth = true_module_seconds(exe, input);
  const std::size_t loop_count = program_->loops().size();
  const int reps = std::max(options.repetitions, 1);
  const int steps = std::max(input.timesteps, 1);
  // The run-level part of every noise key; each draw XORs in its
  // module and repetition terms (== NoiseModel::make_key).
  const std::uint64_t run_key = exe.fingerprint ^
                                NoiseModel::input_term(input.name) ^
                                arch_key_term_;

  RunResult result;
  result.loop_seconds.assign(loop_count, 0.0);
  std::vector<double> end_samples;
  end_samples.reserve(static_cast<std::size_t>(reps));
  std::uint64_t outliers = 0;

  // Per-repetition buffers, allocated once per run: measured module
  // times and, when instrumented, each module's per-time-step slice and
  // each loop region's inclusive time.
  std::vector<double> measured(loop_count + 1);
  std::vector<double> step_seconds;
  std::vector<double> inclusive;
  if (options.instrumented) {
    step_seconds.resize(loop_count + 1);
    inclusive.resize(loop_count);
  }

  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t rep_index =
        options.rep_base + static_cast<std::uint64_t>(rep);
    const std::uint64_t rep_key = run_key ^ NoiseModel::rep_term(rep_index);

    // One machine-level spike multiplier per repetition (a contended
    // node inflates the whole run, not one loop); 1.0 when the fault
    // model is disabled or the rep is clean.
    const double spike =
        options.noise
            ? faults_.outlier_multiplier(rep_key ^ outlier_key_term_)
            : 1.0;
    if (spike != 1.0) ++outliers;

    // Measured per-module times for this repetition.
    for (std::size_t j = 0; j <= loop_count; ++j) {
      measured[j] = options.noise
                        ? noise_.perturb(truth[j],
                                         rep_key ^ module_key_terms_[j])
                        : truth[j];
      measured[j] *= spike;
    }

    double end_to_end;
    if (options.instrumented) {
      // Replay the annotated run on a virtual clock. Each loop region
      // charges the per-event overhead on begin and on end and reads
      // its elapsed time in between - the same additions, in the same
      // order, that Caliper makes over a VirtualClock, so every sum
      // rounds identically. No closed form: it would round differently.
      for (std::size_t j = 0; j <= loop_count; ++j) {
        step_seconds[j] = measured[j] / static_cast<double>(steps);
      }
      std::fill(inclusive.begin(), inclusive.end(), 0.0);
      const bool charge = caliper_overhead_ > 0.0;
      double now = 0.0;
      for (int step = 0; step < steps; ++step) {
        for (std::size_t j = 0; j < loop_count; ++j) {
          if (charge) now += caliper_overhead_;
          const double entry = now;
          now += step_seconds[j];
          if (charge) now += caliper_overhead_;
          inclusive[j] += now - entry;
        }
        // Non-loop code is scattered and unannotated: it advances the
        // clock without a region (paper §3.3).
        now += step_seconds[loop_count];
      }
      end_to_end = now;
      for (std::size_t j = 0; j < loop_count; ++j) {
        // Per-region readings carry attribution error on top of the
        // run's physical time (which stayed in end_to_end).
        double reading = inclusive[j];
        if (options.noise) {
          reading = attribution_noise_.perturb(
              reading, run_key ^ module_key_terms_[j] ^
                           NoiseModel::rep_term(rep_index ^ 0xa7c15ULL));
        }
        result.loop_seconds[j] += reading;
      }
    } else {
      end_to_end =
          std::accumulate(measured.begin(), measured.end(), 0.0);
      for (std::size_t j = 0; j < loop_count; ++j) {
        result.loop_seconds[j] += measured[j];
      }
    }
    end_samples.push_back(end_to_end);
  }

  for (double& loop_second : result.loop_seconds) {
    loop_second /= static_cast<double>(reps);
  }
  switch (options.aggregate) {
    case Aggregation::kMedian:
      result.end_to_end = support::median(end_samples);
      break;
    case Aggregation::kTrimmedMean:
      result.end_to_end = support::trimmed_mean(end_samples);
      break;
    case Aggregation::kMean:
      result.end_to_end = support::mean(end_samples);
      break;
  }
  result.stddev = support::stddev(end_samples);
  result.derived_nonloop_seconds =
      result.end_to_end -
      std::accumulate(result.loop_seconds.begin(), result.loop_seconds.end(),
                      0.0);
  if (telemetry::enabled()) {
    static telemetry::Counter& runs =
        telemetry::metrics().counter("engine.runs");
    static telemetry::Counter& rep_count =
        telemetry::metrics().counter("engine.reps");
    static telemetry::Counter& noise_draws =
        telemetry::metrics().counter("engine.noise_draws");
    static telemetry::Histogram& run_seconds =
        telemetry::metrics().histogram("engine.run_seconds");
    runs.add();
    rep_count.add(static_cast<std::uint64_t>(reps));
    if (options.noise) {
      // One end-to-end draw per module per rep, plus one attribution
      // draw per loop per rep when instrumented.
      std::uint64_t draws = static_cast<std::uint64_t>(reps) *
                            static_cast<std::uint64_t>(loop_count + 1);
      if (options.instrumented) {
        draws += static_cast<std::uint64_t>(reps) *
                 static_cast<std::uint64_t>(loop_count);
      }
      noise_draws.add(draws);
    }
    if (outliers > 0) {
      static telemetry::Counter& spiked =
          telemetry::metrics().counter("fault.outliers");
      spiked.add(outliers);
    }
    run_seconds.observe(result.end_to_end);
  }
  return result;
}

}  // namespace ft::machine
