// Oracle tests for ExecutionEngine::run. The engine replays annotated
// runs on a flat virtual clock instead of driving the Caliper library;
// these tests rebuild every run through caliper::Caliper over a
// VirtualClock, with NoiseModel::make_key drawing each noise key, and
// require the engine's numbers to be bit-equal (==, never NEAR) across
// programs, inputs, architectures, executables, time-step counts,
// annotation overheads and repetition counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "caliper/caliper.hpp"
#include "compiler/compiler.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "machine/execution_engine.hpp"
#include "machine/fault_model.hpp"
#include "machine/noise.hpp"
#include "programs/benchmarks.hpp"
#include "programs/corpus.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"

namespace ft::machine {
namespace {

constexpr double kAttributionSigma = 0.03;  // the engine's default

/// What ExecutionEngine::run reports for `options` (mean aggregation),
/// recomputed the reference way: one Caliper per repetition over a
/// virtual clock, every noise key built by NoiseModel::make_key.
/// `spiked`, when given, counts repetitions the fault model inflated.
RunResult caliper_oracle(ExecutionEngine& engine,
                         const compiler::Executable& exe,
                         const ir::InputSpec& input,
                         const RunOptions& options, double overhead,
                         int* spiked = nullptr) {
  const std::vector<double> truth = engine.true_module_seconds(exe, input);
  const ir::Program& program = engine.program();
  const std::string& arch = engine.arch().name;
  const std::size_t loop_count = program.loops().size();
  const NoiseModel attribution(engine.noise_model().seed() ^ 0x5bd1e995u,
                               kAttributionSigma, 0.0);
  const int reps = std::max(options.repetitions, 1);
  const int steps = std::max(input.timesteps, 1);

  RunResult result;
  result.loop_seconds.assign(loop_count, 0.0);
  std::vector<double> end_samples;
  for (int rep = 0; rep < reps; ++rep) {
    const std::uint64_t rep_index =
        options.rep_base + static_cast<std::uint64_t>(rep);
    const double spike =
        options.noise ? engine.fault_model().outlier_multiplier(
                            NoiseModel::make_key(exe.fingerprint, "<outlier>",
                                                 input.name, arch, rep_index))
                      : 1.0;
    if (spike != 1.0 && spiked != nullptr) ++*spiked;
    std::vector<double> measured(loop_count + 1);
    for (std::size_t j = 0; j <= loop_count; ++j) {
      const std::string& name = j < loop_count ? program.loops()[j].name
                                               : program.nonloop().name;
      measured[j] = options.noise
                        ? engine.noise_model().perturb(
                              truth[j],
                              NoiseModel::make_key(exe.fingerprint, name,
                                                   input.name, arch,
                                                   rep_index))
                        : truth[j];
      measured[j] *= spike;
    }

    if (!options.instrumented) {
      end_samples.push_back(
          std::accumulate(measured.begin(), measured.end(), 0.0));
      for (std::size_t j = 0; j < loop_count; ++j) {
        result.loop_seconds[j] += measured[j];
      }
      continue;
    }
    caliper::VirtualClock clock;
    caliper::Caliper caliper(&clock, overhead);
    for (int step = 0; step < steps; ++step) {
      for (std::size_t j = 0; j < loop_count; ++j) {
        caliper.begin(program.loops()[j].name);
        clock.advance(measured[j] / static_cast<double>(steps));
        caliper.end(program.loops()[j].name);
      }
      clock.advance(measured[loop_count] / static_cast<double>(steps));
    }
    end_samples.push_back(clock.now());
    for (std::size_t j = 0; j < loop_count; ++j) {
      const std::string& name = program.loops()[j].name;
      double reading = caliper.inclusive(name);
      if (options.noise) {
        reading = attribution.perturb(
            reading, NoiseModel::make_key(exe.fingerprint, name, input.name,
                                          arch, rep_index ^ 0xa7c15ULL));
      }
      result.loop_seconds[j] += reading;
    }
  }
  for (double& seconds : result.loop_seconds) {
    seconds /= static_cast<double>(reps);
  }
  result.end_to_end = support::mean(end_samples);
  result.stddev = support::stddev(end_samples);
  result.derived_nonloop_seconds =
      result.end_to_end - std::accumulate(result.loop_seconds.begin(),
                                          result.loop_seconds.end(), 0.0);
  return result;
}

void expect_bit_equal(const RunResult& engine, const RunResult& oracle,
                      const std::string& context) {
  EXPECT_EQ(engine.end_to_end, oracle.end_to_end) << context;
  EXPECT_EQ(engine.stddev, oracle.stddev) << context;
  EXPECT_EQ(engine.derived_nonloop_seconds, oracle.derived_nonloop_seconds)
      << context;
  ASSERT_EQ(engine.loop_seconds.size(), oracle.loop_seconds.size())
      << context;
  for (std::size_t j = 0; j < engine.loop_seconds.size(); ++j) {
    EXPECT_EQ(engine.loop_seconds[j], oracle.loop_seconds[j])
        << context << " loop " << j;
  }
}

/// The seven suite programs plus a small generated corpus.
std::vector<ir::Program> oracle_programs() {
  std::vector<ir::Program> programs = programs::suite();
  support::Rng rng(2019);
  for (ir::Program& program : programs::generate_corpus(rng, 6)) {
    programs.push_back(std::move(program));
  }
  return programs;
}

/// The O3 baseline plus `count` random per-loop assignments.
std::vector<compiler::Executable> oracle_executables(
    compiler::Compiler& compiler, const ir::Program& program,
    support::Rng& rng, int count) {
  std::vector<compiler::Executable> exes{compiler.build_baseline(program)};
  for (int i = 0; i < count; ++i) {
    compiler::ModuleAssignment assignment;
    for (std::size_t j = 0; j < program.loops().size(); ++j) {
      assignment.loop_cvs.push_back(compiler.space().sample(rng));
    }
    assignment.nonloop_cv = compiler.space().sample(rng);
    exes.push_back(compiler.build(program, assignment));
  }
  return exes;
}

TEST(EngineOracle, InstrumentedRunsAreBitEqualToCaliper) {
  const flags::FlagSpace space = flags::icc_space();
  support::Rng rng(7);
  int compared = 0;
  for (const ir::Program& program : oracle_programs()) {
    for (const Architecture& arch : all_architectures()) {
      compiler::Compiler compiler(space, arch);
      const std::vector<compiler::Executable> exes =
          oracle_executables(compiler, program, rng, 3);
      for (const double overhead : {2e-4, 0.0}) {
        ExecutionEngine engine(program, compiler, NoiseModel::none(),
                               overhead);
        for (const ir::InputSpec& base : program.inputs()) {
          for (const int timesteps : {1, 7, 600}) {
            const ir::InputSpec input =
                programs::with_timesteps(base, timesteps);
            for (std::size_t e = 0; e < exes.size(); ++e) {
              for (const int reps : {1, 3}) {
                RunOptions options;
                options.instrumented = true;
                options.noise = false;
                options.repetitions = reps;
                expect_bit_equal(
                    engine.run(exes[e], input, options),
                    caliper_oracle(engine, exes[e], input, options, overhead),
                    program.name() + "/" + arch.name + "/" +
                        input.name + " exe " + std::to_string(e) +
                        " overhead " + std::to_string(overhead) + " reps " +
                        std::to_string(reps));
                ++compared;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(compared, 1000);
}

// Noise on, with outlier spikes: a key the engine composed from its
// precomputed terms that differed from make_key for any module, for
// the outlier draw or for an attribution draw would move that draw.
TEST(EngineOracle, NoiseKeysMatchMakeKey) {
  const flags::FlagSpace space = flags::icc_space();
  support::Rng rng(11);
  FaultConfig faults;
  faults.outlier_rate = 0.3;
  int spiked = 0;
  for (const ir::Program& program : oracle_programs()) {
    for (const Architecture& arch : all_architectures()) {
      compiler::Compiler compiler(space, arch);
      ExecutionEngine engine(program, compiler);
      engine.set_fault_model(FaultModel(faults));
      for (const compiler::Executable& exe :
           oracle_executables(compiler, program, rng, 2)) {
        for (const ir::InputSpec& input : program.inputs()) {
          for (const bool instrumented : {false, true}) {
            for (const std::uint64_t rep_base : {0ULL, 977ULL}) {
              RunOptions options;
              options.instrumented = instrumented;
              options.repetitions = 3;
              options.rep_base = rep_base;
              expect_bit_equal(
                  engine.run(exe, input, options),
                  caliper_oracle(engine, exe, input, options, 2e-4, &spiked),
                  program.name() + "/" + arch.name + "/" +
                      input.name + (instrumented ? " instrumented" : "") +
                      " rep_base " + std::to_string(rep_base));
            }
          }
        }
      }
    }
  }
  EXPECT_GT(spiked, 0);  // the outlier key was exercised
}

}  // namespace
}  // namespace ft::machine
