// Tests for the prior-work baselines: Combined Elimination, the
// OpenTuner-style ensemble, COBAYN, Intel-style PGO and the §4.4.1
// greedy flag-elimination procedure.
#include <gtest/gtest.h>

#include "baselines/cobayn.hpp"
#include "baselines/combined_elimination.hpp"
#include "baselines/flag_elimination.hpp"
#include "baselines/opentuner.hpp"
#include "baselines/pgo_driver.hpp"
#include "core/funcy_tuner.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"

namespace ft::baselines {
namespace {

core::FuncyTunerOptions fast_options() {
  core::FuncyTunerOptions options;
  options.samples = 100;
  options.final_reps = 5;
  return options;
}

// ------------------------------------------------- combined elimination ----

TEST(CombinedElimination, TerminatesNearO3) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options());
  const CeResult result =
      combined_elimination(tuner.evaluator(), tuner.space());
  EXPECT_GT(result.tuning.evaluations, tuner.space().flag_count());
  // Fig 1: CE hovers around the O3 baseline (local minimum).
  EXPECT_GT(result.tuning.speedup, 0.9);
  EXPECT_LT(result.tuning.speedup, 1.12);
}

TEST(CombinedElimination, EliminatesHarmfulFlags) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options());
  const CeResult result = combined_elimination(
      tuner.evaluator(), tuner.space());
  // -O2 (a pure slowdown vs the O3 baseline) must have been removed.
  for (const auto& name : result.enabled_flags) {
    EXPECT_NE(name, "-O");
  }
  // The final CV stays inside the binarized space.
  EXPECT_TRUE(tuner.space().binarized().contains(result.best_cv));
}

TEST(CombinedElimination, WorksOnGccPersonality) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options(), compiler::Personality::kGcc);
  const CeResult result = combined_elimination(
      tuner.evaluator(), tuner.space());
  EXPECT_GT(result.tuning.speedup, 0.9);
  EXPECT_LT(result.tuning.speedup, 1.12);
}

// --------------------------------------------------------- opentuner ----

TEST(OpenTuner, RunsRequestedIterations) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options());
  OpenTunerOptions options;
  options.iterations = 150;
  const OpenTunerResult result = opentuner_search(
      tuner.evaluator(), tuner.space(), options);
  EXPECT_EQ(result.tuning.evaluations, 150u);
  EXPECT_EQ(result.tuning.history.size(), 150u);
  std::size_t total_uses = 0;
  for (const std::size_t uses : result.technique_uses) total_uses += uses;
  EXPECT_EQ(total_uses, 150u);
}

TEST(OpenTuner, ImprovesOverO3) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options());
  OpenTunerOptions options;
  options.iterations = 400;
  const OpenTunerResult result = opentuner_search(
      tuner.evaluator(), tuner.space(), options);
  EXPECT_GT(result.tuning.speedup, 1.0);
}

TEST(OpenTuner, EveryTechniqueGetsExplored) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options());
  OpenTunerOptions options;
  options.iterations = 200;
  const OpenTunerResult result = opentuner_search(
      tuner.evaluator(), tuner.space(), options);
  ASSERT_EQ(result.technique_names.size(), 6u);
  for (const std::size_t uses : result.technique_uses) {
    EXPECT_GT(uses, 0u);  // UCB exploration touches everyone
  }
}

TEST(OpenTuner, DeterministicUnderSeed) {
  auto run = [] {
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           fast_options());
    OpenTunerOptions options;
    options.iterations = 100;
    return opentuner_search(tuner.evaluator(), tuner.space(), options)
        .tuning.speedup;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

// ------------------------------------------------------------- COBAYN ----

class CobaynTest : public ::testing::Test {
 protected:
  static Cobayn& shared_model() {
    static Cobayn* model = [] {
      CobaynOptions options;
      options.corpus_size = 10;
      options.corpus_samples = 120;
      options.top_k = 30;
      options.inference_samples = 150;
      static flags::FlagSpace space = flags::icc_space();
      auto* m = new Cobayn(space, machine::broadwell(), options);
      m->train();
      return m;
    }();
    return *model;
  }
};

TEST_F(CobaynTest, TrainsAndExposesClusters) {
  Cobayn& model = shared_model();
  EXPECT_TRUE(model.trained());
  for (const auto m : {CobaynModel::kStatic, CobaynModel::kDynamic,
                       CobaynModel::kHybrid}) {
    const auto& probs = model.cluster_probs(m);
    EXPECT_FALSE(probs.empty());
    for (const auto& cluster : probs) {
      EXPECT_EQ(cluster.size(), flags::icc_space().flag_count());
      for (const double p : cluster) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
      }
    }
  }
}

TEST_F(CobaynTest, FeatureExtractorsShapes) {
  const ir::Program cl = programs::cloverleaf();
  EXPECT_EQ(Cobayn::static_features(cl).size(), 10u);
  EXPECT_EQ(Cobayn::dynamic_features(cl).size(), 8u);
}

TEST_F(CobaynTest, StaticFeaturesAreRuntimeWeighted) {
  // Two programs with identical modules but different weights must
  // produce different static features (weighting matters)...
  const auto f_cl = Cobayn::static_features(programs::cloverleaf());
  const auto f_amg = Cobayn::static_features(programs::amg());
  EXPECT_NE(f_cl, f_amg);
}

TEST_F(CobaynTest, InferenceProducesValidResult) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options());
  const core::TuningResult result = shared_model().infer(
      tuner.evaluator(), CobaynModel::kStatic);
  EXPECT_EQ(result.algorithm, "static COBAYN");
  EXPECT_EQ(result.evaluations, 150u);
  EXPECT_GT(result.speedup, 0.85);
  EXPECT_TRUE(tuner.space().contains(result.best_assignment.nonloop_cv));
}

TEST_F(CobaynTest, InferenceIsDeterministic) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options());
  const auto a = shared_model().infer(tuner.evaluator(), CobaynModel::kStatic);
  const auto b = shared_model().infer(tuner.evaluator(), CobaynModel::kStatic);
  EXPECT_DOUBLE_EQ(a.tuned_seconds, b.tuned_seconds);
  EXPECT_EQ(a.best_assignment.nonloop_cv, b.best_assignment.nonloop_cv);
}

TEST_F(CobaynTest, FeatureViewsDiffer) {
  // The dynamic (MICA-like, serial-run) view must not coincide with
  // the runtime-share-weighted static view.
  const ir::Program cl = programs::cloverleaf();
  const auto s = Cobayn::static_features(cl);
  const auto d = Cobayn::dynamic_features(cl);
  EXPECT_NE(s.size(), d.size());
  const auto& probs_s = shared_model().cluster_probs(CobaynModel::kStatic);
  const auto& probs_d =
      shared_model().cluster_probs(CobaynModel::kDynamic);
  EXPECT_FALSE(probs_s.empty());
  EXPECT_FALSE(probs_d.empty());
}

// ---------------------------------------------------------------- PGO ----

TEST(Pgo, FailsForLuleshAndOptewe) {
  for (const char* name : {"LULESH", "Optewe"}) {
    core::FuncyTuner tuner(programs::by_name(name), machine::broadwell(),
                           fast_options());
    const PgoResult result =
        pgo_tune(tuner.evaluator());
    EXPECT_TRUE(result.instrumentation_failed) << name;
    EXPECT_DOUBLE_EQ(result.tuning.speedup, 1.0) << name;
  }
}

TEST(Pgo, ModestGainsElsewhere) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options());
  const PgoResult result =
      pgo_tune(tuner.evaluator());
  EXPECT_FALSE(result.instrumentation_failed);
  // §4.2.2: PGO shows little improvement (but no catastrophe).
  EXPECT_GT(result.tuning.speedup, 0.95);
  EXPECT_LT(result.tuning.speedup, 1.10);
}

// ------------------------------------------------- flag elimination ----

TEST(FlagElimination, ReducesToCriticalSubset) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options());
  const auto& space = tuner.space();
  // Start from a CV with several non-default flags on loop 0.
  auto cv = space.parse("-no-vec -unroll4 -qopt-prefetch=3 -pad");
  ASSERT_TRUE(cv.has_value());
  compiler::ModuleAssignment assignment =
      compiler::ModuleAssignment::uniform(space.default_cv(),
                                          tuner.program().loops().size());
  assignment.loop_cvs[0] = *cv;

  const CriticalFlags result = eliminate_noncritical_flags(
      tuner.evaluator(), space, assignment, 0);
  // Never grows the flag set; plenty of evaluations happened.
  std::size_t nondefault = 0;
  for (std::size_t i = 0; i < space.flag_count(); ++i) {
    if (result.reduced_cv[i] != 0) ++nondefault;
  }
  EXPECT_LE(nondefault, 4u);
  EXPECT_GT(result.evaluations, space.flag_count() / 8);
  EXPECT_EQ(result.critical.size(), nondefault);
}

TEST(FlagElimination, DefaultCvIsFixedPoint) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options());
  const compiler::ModuleAssignment o3 =
      compiler::ModuleAssignment::uniform(
          tuner.space().default_cv(), tuner.program().loops().size());
  const CriticalFlags result = eliminate_noncritical_flags(
      tuner.evaluator(), tuner.space(), o3, 0);
  EXPECT_TRUE(result.critical.empty());
}

TEST(FlagElimination, NonloopFocusSupported) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options());
  const auto& space = tuner.space();
  auto cv = space.parse("-qopt-prefetch=0");
  ASSERT_TRUE(cv.has_value());
  compiler::ModuleAssignment assignment =
      compiler::ModuleAssignment::uniform(space.default_cv(),
                                          tuner.program().loops().size());
  assignment.nonloop_cv = *cv;
  const CriticalFlags result = eliminate_noncritical_flags(
      tuner.evaluator(), space, assignment,
      std::numeric_limits<std::size_t>::max());
  EXPECT_LE(result.critical.size(), 1u);
}

}  // namespace
}  // namespace ft::baselines
