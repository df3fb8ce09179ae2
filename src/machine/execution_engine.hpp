// ExecutionEngine: "runs" a linked executable on an input and reports
// end-to-end and per-loop times the way the paper's testbed would.
//
//  * Per-loop truth comes from the cost model, calibrated per
//    (program, architecture, input) so the O3 baseline reproduces the
//    published end-to-end runtime and per-loop shares; every other
//    variant is priced relative to it by the same physics.
//  * Instrumented runs replay the annotated time-step loop on a flat
//    virtual clock: every region begin/end carries the modeled
//    annotation overhead (<3%), and the reported per-loop times are
//    the accumulated region readings - the tuner never reads the
//    ground truth directly. The replay makes the same double additions,
//    in the same order, as driving ft_caliper over a VirtualClock
//    would; tests hold the two bit-equal with Caliper as the oracle.
//  * Non-loop time is NOT directly measurable (paper §3.3); RunResult
//    exposes the derived value (end-to-end minus loop sum).
//  * Measurement noise is deterministic per (executable, input, arch,
//    repetition); see NoiseModel.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "compiler/compiler.hpp"
#include "ir/program.hpp"
#include "machine/cost_model.hpp"
#include "machine/fault_model.hpp"
#include "machine/noise.hpp"

namespace ft::machine {

/// How multi-repetition end-to-end samples collapse to one number.
/// kMean is the paper's protocol; the robust variants ignore outlier
/// spikes (a single contaminated rep cannot flip a winner) and are used
/// for final-reps scoring when fault injection is active.
enum class Aggregation { kMean, kMedian, kTrimmedMean };

struct RunOptions {
  int repetitions = 1;        ///< runs to average over
  bool instrumented = false;  ///< Caliper annotations compiled in?
  bool noise = true;          ///< apply the measurement-noise model
  std::uint64_t rep_base = 0; ///< offset into the noise stream
  Aggregation aggregate = Aggregation::kMean;  ///< end-to-end reduction
};

struct RunResult {
  double end_to_end = 0.0;          ///< seconds, mean over repetitions
  std::vector<double> loop_seconds; ///< per hot loop (program order)
  double derived_nonloop_seconds = 0.0;  ///< end_to_end - sum(loops)
  double stddev = 0.0;              ///< of end_to_end across repetitions
};

class ExecutionEngine {
 public:
  /// The engine borrows program and compiler; both must outlive it.
  /// `attribution_sigma` models the extra error of *per-region*
  /// Caliper readings (timer granularity, attribution jitter) on top of
  /// the end-to-end run-to-run noise. It perturbs what the annotations
  /// report, not the actual runtime - precisely the error the paper's
  /// derived non-loop time absorbs (§3.3) and the reason top-1 greedy
  /// selection is brittle while CFR's top-X pruning tolerates it.
  ExecutionEngine(const ir::Program& program, compiler::Compiler& compiler,
                  NoiseModel noise = NoiseModel(),
                  double caliper_overhead_per_event = 2e-4,
                  double attribution_sigma = 0.03);

  [[nodiscard]] const ir::Program& program() const noexcept {
    return *program_;
  }
  [[nodiscard]] const machine::Architecture& arch() const noexcept {
    return compiler_->arch();
  }
  [[nodiscard]] compiler::Compiler& compiler() noexcept {
    return *compiler_;
  }

  /// The cached plain -O3 executable.
  [[nodiscard]] const compiler::Executable& baseline() const noexcept {
    return baseline_;
  }

  /// Runs an executable on an input.
  [[nodiscard]] RunResult run(const compiler::Executable& exe,
                              const ir::InputSpec& input,
                              const RunOptions& options = {});

  /// Noise-free truth per module (loops then non-loop); for tests and
  /// oracle computations.
  [[nodiscard]] std::vector<double> true_module_seconds(
      const compiler::Executable& exe, const ir::InputSpec& input);

  [[nodiscard]] const NoiseModel& noise_model() const noexcept {
    return noise_;
  }

  /// Fault injector consulted by this engine (outlier spikes) and by
  /// the resilient evaluation path (compile/run faults). Disabled by
  /// default. Set before the first run; not synchronized.
  void set_fault_model(FaultModel model) noexcept { faults_ = model; }
  [[nodiscard]] const FaultModel& fault_model() const noexcept {
    return faults_;
  }

 private:
  /// Per-loop calibration constants for an input (loops then nonloop):
  /// raw O3 cost * k == published O3 share * o3_seconds.
  const std::vector<double>& calibration(const ir::InputSpec& input);

  const ir::Program* program_;
  compiler::Compiler* compiler_;
  NoiseModel noise_;
  NoiseModel attribution_noise_;
  FaultModel faults_;
  double caliper_overhead_;
  compiler::Executable baseline_;
  // NoiseModel::make_key terms hashed once: one per module (loops then
  // non-loop), the outlier pseudo-module's, and the architecture's.
  std::vector<std::uint64_t> module_key_terms_;
  std::uint64_t outlier_key_term_;
  std::uint64_t arch_key_term_;
  std::map<std::string, std::vector<double>> calibration_cache_;
  std::mutex calibration_mutex_;
};

}  // namespace ft::machine
