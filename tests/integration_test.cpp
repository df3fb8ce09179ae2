// Integration tests: the paper's qualitative findings on a reduced
// budget - ordering of algorithms, cross-architecture behaviour,
// cross-input generalization, and the GCC personality (Fig 1 setup).
#include <gtest/gtest.h>

#include "baselines/combined_elimination.hpp"
#include "core/funcy_tuner.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/stats.hpp"

namespace ft {
namespace {

core::FuncyTunerOptions budget(std::size_t samples) {
  core::FuncyTunerOptions options;
  options.samples = samples;
  options.algorithm_options["cfr"] = {"--top-x=20"};
  options.final_reps = 5;
  return options;
}

TEST(Integration, CfrBeatsO3AcrossSuiteOnBroadwell) {
  // Fig 5c: CFR improves every benchmark (small budget here).
  std::vector<double> speedups;
  for (const auto& name : {"LULESH", "CL", "AMG"}) {
    core::FuncyTuner tuner(programs::by_name(name), machine::broadwell(),
                           budget(300));
    speedups.push_back(tuner.run("cfr").speedup);
  }
  for (const double s : speedups) EXPECT_GT(s, 1.0);
  EXPECT_GT(support::geomean(speedups), 1.05);
}

TEST(Integration, CfrWorksOnAllThreeArchitectures) {
  // Fig 5a/b/c: gains on Opteron, Sandy Bridge and Broadwell.
  for (const auto& arch : machine::all_architectures()) {
    core::FuncyTuner tuner(programs::cloverleaf(), arch, budget(300));
    EXPECT_GT(tuner.run("cfr").speedup, 1.0) << arch.name;
  }
}

TEST(Integration, AlgorithmOrderingOnCloverleaf) {
  // The paper's headline ordering on its case-study benchmark:
  // CFR > Random and CFR > FR; G.Independent dominates G.realized.
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         budget(600));
  const auto random = tuner.run("random");
  const auto fr = tuner.run("fr");
  const auto greedy = tuner.run("greedy");
  const auto cfr = tuner.run("cfr");
  const double independent =
      greedy.extras.get_or(core::kExtraIndependentSpeedup, 0);
  EXPECT_GT(cfr.speedup, random.speedup);
  EXPECT_GT(cfr.speedup, fr.speedup);
  EXPECT_GT(independent, greedy.speedup);
  EXPECT_GT(independent, cfr.speedup);
}

TEST(Integration, TunedCvGeneralizesToLargeInput) {
  // §4.3: benefits on the tuning input carry over to unseen inputs of
  // different working-set size.
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         budget(300));
  const auto cfr = tuner.run("cfr");
  const auto large = tuner.program().input("large");
  ASSERT_TRUE(large.has_value());
  const double tuned = tuner.seconds_on(*large, cfr.best_assignment);
  const double baseline = tuner.baseline_seconds_on(*large);
  EXPECT_GT(baseline / tuned, 1.0);
}

TEST(Integration, SwimTestInputIsTheException) {
  // §4.3: swim's tiny "test" input inverts the tuned CV's benefit
  // relative to its behaviour everywhere else (cache-resident working
  // sets make streaming-store style choices backfire).
  core::FuncyTuner tuner(programs::swim(), machine::broadwell(),
                         budget(300));
  const auto cfr = tuner.run("cfr");
  const auto small = tuner.program().input("small");
  const auto large = tuner.program().input("large");
  ASSERT_TRUE(small.has_value() && large.has_value());
  const double small_speedup =
      tuner.baseline_seconds_on(*small) /
      tuner.seconds_on(*small, cfr.best_assignment);
  const double large_speedup =
      tuner.baseline_seconds_on(*large) /
      tuner.seconds_on(*large, cfr.best_assignment);
  EXPECT_GT(large_speedup, small_speedup);
}

TEST(Integration, GccPersonalityEndToEnd) {
  // Fig 1 runs the pipeline with the GCC-like space/compiler.
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         budget(200), compiler::Personality::kGcc);
  EXPECT_EQ(tuner.space().compiler_name(), "gcc");
  const auto random = tuner.run("random");
  EXPECT_GT(random.speedup, 0.95);
}

TEST(Integration, CombinedEliminationNearO3BothCompilers) {
  // Fig 1: CE does not significantly beat O3 for either compiler.
  for (const auto personality :
       {compiler::Personality::kIcc, compiler::Personality::kGcc}) {
    core::FuncyTuner tuner(programs::lulesh(), machine::broadwell(),
                           budget(100), personality);
    const auto ce = baselines::combined_elimination(
        tuner.evaluator(), tuner.space());
    EXPECT_GT(ce.tuning.speedup, 0.9) << personality_name(personality);
    EXPECT_LT(ce.tuning.speedup, 1.12) << personality_name(personality);
  }
}

TEST(Integration, FixedSeedFullPipelineSnapshot) {
  // Guards against silent behaviour drift: the end-to-end result for a
  // fixed seed stays stable across refactorings of independent parts.
  core::FuncyTuner a(programs::cloverleaf(), machine::broadwell(),
                     budget(200));
  core::FuncyTuner b(programs::cloverleaf(), machine::broadwell(),
                     budget(200));
  for (const char* key : {"random", "fr", "greedy", "cfr"}) {
    EXPECT_DOUBLE_EQ(a.run(key).speedup, b.run(key).speedup) << key;
  }
}

TEST(Integration, TuningOverheadAccumulates) {
  // §4.3 reports multi-day tuning overheads; the evaluator's model
  // must grow with evaluations and be largest for the collection+CFR
  // pipeline.
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         budget(200));
  (void)tuner.run("cfr");
  const double after_cfr = tuner.evaluator().modeled_overhead_seconds();
  EXPECT_GT(after_cfr, 1000.0);  // hours of testbed time, modeled
}

}  // namespace
}  // namespace ft
