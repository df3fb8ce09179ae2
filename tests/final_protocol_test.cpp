// The final-measurement protocol (§4.1): every algorithm's reported
// baseline_seconds and tuned_seconds are the same measurement - the O3
// build and the winner, each run final_reps times on the kFinal noise
// stream, reduced with the trimmed mean when faults are on - whatever
// the algorithm and whatever final_reps is. The protocol is restated
// here from scratch on the raw engine, not read back from the
// Evaluator, so a search that measures its result any other way fails.

#include <gtest/gtest.h>

#include <string>

#include "baselines/cobayn.hpp"
#include "baselines/combined_elimination.hpp"
#include "baselines/opentuner.hpp"
#include "baselines/pgo_driver.hpp"
#include "core/evolution.hpp"
#include "core/funcy_tuner.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"

namespace ft {
namespace {

struct Setting {
  int reps = 10;
  bool faults = false;
};

constexpr Setting kSettings[] = {{1, false}, {3, false}, {10, false},
                                 {1, true},  {3, true},  {10, true}};

std::string describe(const Setting& setting) {
  return "final_reps " + std::to_string(setting.reps) +
         (setting.faults ? ", faults on" : ", faults off");
}

core::FuncyTunerOptions options_for(const Setting& setting) {
  core::FuncyTunerOptions options;
  options.samples = 30;
  options.final_reps = setting.reps;
  if (setting.faults) options.faults.rate = 0.05;
  return options;
}

/// One final measurement of `exe`, restated: `reps` runs at kFinal,
/// the trimmed mean when faults are on, the plain mean otherwise.
double final_run(core::FuncyTuner& tuner, const compiler::Executable& exe,
                 const Setting& setting) {
  machine::RunOptions options;
  options.repetitions = setting.reps;
  options.rep_base = core::rep_streams::kFinal;
  if (setting.faults) {
    options.aggregate = machine::Aggregation::kTrimmedMean;
  }
  return tuner.engine().run(exe, tuner.tuning_input(), options).end_to_end;
}

/// baseline_seconds is O3's final run, tuned_seconds is `winner`'s.
void expect_protocol(core::FuncyTuner& tuner,
                     const core::TuningResult& result,
                     const compiler::Executable& winner,
                     const Setting& setting) {
  SCOPED_TRACE(result.algorithm + ", " + describe(setting));
  EXPECT_EQ(result.baseline_seconds,
            final_run(tuner, tuner.engine().baseline(), setting));
  EXPECT_EQ(result.tuned_seconds, final_run(tuner, winner, setting));
  EXPECT_EQ(result.speedup, result.baseline_seconds / result.tuned_seconds);
}

/// The same, with the winner built from result.best_assignment.
void expect_protocol(core::FuncyTuner& tuner,
                     const core::TuningResult& result,
                     const Setting& setting) {
  expect_protocol(tuner, result,
                  tuner.engine().compiler().build(tuner.program(),
                                                  result.best_assignment),
                  setting);
}

TEST(FinalProtocol, RegisteredAlgorithms) {
  for (const Setting& setting : kSettings) {
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           options_for(setting));
    for (const char* algorithm :
         {"random", "fr", "greedy", "cfr", "retune"}) {
      expect_protocol(tuner, tuner.run(algorithm), setting);
    }
  }
}

TEST(FinalProtocol, EvoCfr) {
  for (const Setting& setting : kSettings) {
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           options_for(setting));
    core::EvolutionOptions options;
    options.evaluations = 40;
    expect_protocol(tuner,
                    core::evolutionary_search(tuner.evaluator(),
                                              tuner.outline(),
                                              tuner.collection(), options),
                    setting);
  }
}

TEST(FinalProtocol, CombinedElimination) {
  for (const Setting& setting : kSettings) {
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           options_for(setting));
    expect_protocol(
        tuner,
        baselines::combined_elimination(tuner.evaluator(), tuner.space())
            .tuning,
        setting);
  }
}

TEST(FinalProtocol, OpenTuner) {
  for (const Setting& setting : kSettings) {
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           options_for(setting));
    baselines::OpenTunerOptions options;
    options.iterations = 40;
    expect_protocol(tuner,
                    baselines::opentuner_search(tuner.evaluator(),
                                                tuner.space(), options)
                        .tuning,
                    setting);
  }
}

TEST(FinalProtocol, Cobayn) {
  baselines::CobaynOptions options;
  options.corpus_size = 6;
  options.corpus_samples = 40;
  options.top_k = 10;
  options.inference_samples = 30;
  const flags::FlagSpace space = flags::icc_space();
  baselines::Cobayn cobayn(space, machine::broadwell(), options);
  cobayn.train();
  for (const Setting& setting : kSettings) {
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           options_for(setting));
    expect_protocol(
        tuner, cobayn.infer(tuner.evaluator(), baselines::CobaynModel::kStatic),
        setting);
  }
}

TEST(FinalProtocol, Pgo) {
  for (const Setting& setting : kSettings) {
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           options_for(setting));
    const baselines::PgoResult result = baselines::pgo_tune(tuner.evaluator());
    ASSERT_FALSE(result.instrumentation_failed);
    // The winner is the O3 build recompiled with the profile, which no
    // ModuleAssignment carries.
    compiler::PgoProfile profile;
    profile.valid = true;
    expect_protocol(tuner, result.tuning,
                    tuner.engine().compiler().build_uniform(
                        tuner.program(), tuner.space().default_cv(), &profile),
                    setting);
  }
}

TEST(FinalProtocol, PgoFallbackReportsTheBaseline) {
  for (const Setting& setting : kSettings) {
    core::FuncyTuner tuner(programs::lulesh(), machine::broadwell(),
                           options_for(setting));
    const baselines::PgoResult result = baselines::pgo_tune(tuner.evaluator());
    ASSERT_TRUE(result.instrumentation_failed);
    expect_protocol(tuner, result.tuning, tuner.engine().baseline(), setting);
  }
}

TEST(FinalProtocol, RepsReachEveryFinalMeasurement) {
  // The same search at different final_reps differs only in the final
  // measurements: the winner is the same, its reported time is not.
  core::FuncyTuner one(programs::cloverleaf(), machine::broadwell(),
                       options_for({1, false}));
  core::FuncyTuner ten(programs::cloverleaf(), machine::broadwell(),
                       options_for({10, false}));
  const core::TuningResult a = one.run("cfr");
  const core::TuningResult b = ten.run("cfr");
  EXPECT_EQ(a.best_assignment.loop_cvs, b.best_assignment.loop_cvs);
  EXPECT_EQ(a.best_assignment.nonloop_cv, b.best_assignment.nonloop_cv);
  EXPECT_EQ(a.history, b.history);
  EXPECT_NE(a.tuned_seconds, b.tuned_seconds);
  EXPECT_NE(a.baseline_seconds, b.baseline_seconds);
}

}  // namespace
}  // namespace ft
