// Tests for the FuncyTuner core: profiling/outlining, the per-loop
// collection framework (Fig 4), Algorithm 1's pruning step, and the
// invariants of the four search algorithms.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "core/funcy_tuner.hpp"
#include "core/serialization.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/stats.hpp"

namespace ft::core {
namespace {

FuncyTunerOptions fast_options(std::size_t samples = 120) {
  FuncyTunerOptions options;
  options.samples = samples;
  options.top_x = 12;
  options.seed = 42;
  options.final_reps = 5;
  return options;
}

class CoreTest : public ::testing::Test {
 protected:
  CoreTest()
      : tuner_(programs::cloverleaf(), machine::broadwell(),
               fast_options()) {}
  FuncyTuner tuner_;
};

// -------------------------------------------------------------- outline ----

TEST_F(CoreTest, OutlineFindsHotLoops) {
  const Outline& outline = tuner_.outline();
  EXPECT_FALSE(outline.hot.empty());
  EXPECT_EQ(outline.module_count(), outline.hot.size() + 1);
  EXPECT_GT(outline.profile_seconds, 0.0);
}

TEST_F(CoreTest, OutlineRespectsThreshold) {
  const Outline& outline = tuner_.outline();
  for (const std::size_t j : outline.hot) {
    EXPECT_GE(outline.measured_share[j], outline.threshold);
  }
  // Shares of all loops were recorded.
  EXPECT_EQ(outline.measured_share.size(),
            tuner_.program().loops().size());
}

TEST_F(CoreTest, HighThresholdOutlinesFewerLoops) {
  FuncyTuner strict(programs::cloverleaf(), machine::broadwell(), [] {
    auto o = fast_options();
    o.hot_threshold = 0.05;
    return o;
  }());
  EXPECT_LT(strict.outline().hot.size(), tuner_.outline().hot.size());
  EXPECT_GE(strict.outline().hot.size(), 1u);
}

TEST_F(CoreTest, MakeAssignmentPlacesCvs) {
  const Outline& outline = tuner_.outline();
  const auto& space = tuner_.space();
  const flags::CompilationVector rest = space.default_cv();
  std::vector<flags::CompilationVector> hot_cvs(outline.hot.size(),
                                                rest);
  support::Rng rng(3);
  hot_cvs[0] = space.sample(rng);
  const compiler::ModuleAssignment assignment =
      outline.make_assignment(hot_cvs, rest);
  EXPECT_EQ(assignment.loop_cvs.size(),
            tuner_.program().loops().size());
  EXPECT_EQ(assignment.loop_cvs[outline.hot[0]], hot_cvs[0]);
  EXPECT_EQ(assignment.nonloop_cv, rest);
}

TEST_F(CoreTest, MakeAssignmentRejectsWrongArity) {
  const Outline& outline = tuner_.outline();
  const flags::CompilationVector rest = tuner_.space().default_cv();
  std::vector<flags::CompilationVector> too_few;
  EXPECT_THROW((void)outline.make_assignment(too_few, rest),
               std::invalid_argument);
}

// ------------------------------------------------------------ collection ----

TEST_F(CoreTest, CollectionShape) {
  const Collection& collection = tuner_.collection();
  const std::size_t k = tuner_.options().samples;
  EXPECT_EQ(collection.sample_count(), k);
  EXPECT_EQ(collection.loop_times.size(), tuner_.outline().hot.size());
  for (const auto& row : collection.loop_times) {
    EXPECT_EQ(row.size(), k);
    for (const double t : row) EXPECT_GT(t, 0.0);
  }
  EXPECT_EQ(collection.rest_times.size(), k);
  EXPECT_EQ(collection.end_to_end.size(), k);
}

TEST_F(CoreTest, CollectionRestIsDerived) {
  // §3.3: non-loop time is end-to-end minus the hot loop sum.
  const Collection& collection = tuner_.collection();
  for (std::size_t k = 0; k < collection.sample_count(); ++k) {
    double hot = 0.0;
    for (const auto& row : collection.loop_times) hot += row[k];
    EXPECT_NEAR(collection.rest_times[k],
                collection.end_to_end[k] - hot, 1e-9);
  }
}

TEST_F(CoreTest, CollectionDeterministic) {
  FuncyTuner other(programs::cloverleaf(), machine::broadwell(),
                   fast_options());
  const Collection& a = tuner_.collection();
  const Collection& b = other.collection();
  EXPECT_EQ(a.end_to_end, b.end_to_end);
  EXPECT_EQ(a.loop_times, b.loop_times);
}

// --------------------------------------------------------------- pruning ----

TEST_F(CoreTest, PruneTopXSizes) {
  const auto pruned = prune_top_x(tuner_.collection(), 12);
  EXPECT_EQ(pruned.size(), tuner_.outline().hot.size() + 1);
  for (const auto& candidates : pruned) {
    EXPECT_EQ(candidates.size(), 12u);
  }
}

TEST_F(CoreTest, PruneKeepsSmallestTimes) {
  const Collection& collection = tuner_.collection();
  const auto pruned = prune_top_x(collection, 12);
  for (std::size_t j = 0; j < collection.loop_times.size(); ++j) {
    const auto& times = collection.loop_times[j];
    const std::set<std::size_t> kept(pruned[j].begin(), pruned[j].end());
    double worst_kept = 0.0;
    for (const std::size_t k : kept) {
      worst_kept = std::max(worst_kept, times[k]);
    }
    // No excluded sample may beat the worst kept one.
    for (std::size_t k = 0; k < times.size(); ++k) {
      if (!kept.count(k)) {
        EXPECT_GE(times[k], worst_kept - 1e-12);
      }
    }
  }
}

TEST_F(CoreTest, PruneOrderedAscending) {
  const auto pruned = prune_top_x(tuner_.collection(), 8);
  const auto& times = tuner_.collection().loop_times[0];
  for (std::size_t i = 1; i < pruned[0].size(); ++i) {
    EXPECT_LE(times[pruned[0][i - 1]], times[pruned[0][i]]);
  }
}

// ------------------------------------------------------------ algorithms ----

TEST_F(CoreTest, RandomSearchInvariants) {
  const TuningResult result = tuner_.run_random();
  EXPECT_EQ(result.algorithm, "Random");
  EXPECT_EQ(result.evaluations, tuner_.options().samples);
  EXPECT_EQ(result.history.size(), result.evaluations);
  // Best-so-far curve is non-increasing.
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_LE(result.history[i], result.history[i - 1]);
  }
  EXPECT_GT(result.speedup, 0.9);  // random search should not disaster
  // Winner is a uniform assignment.
  for (const auto& cv : result.best_assignment.loop_cvs) {
    EXPECT_EQ(cv, result.best_assignment.nonloop_cv);
  }
}

TEST_F(CoreTest, FrUsesPresampledCvsOnly) {
  const TuningResult result = tuner_.run_fr();
  EXPECT_EQ(result.algorithm, "FR");
  const auto& presampled = tuner_.presampled();
  auto contains = [&](const flags::CompilationVector& cv) {
    for (const auto& p : presampled) {
      if (p == cv) return true;
    }
    return false;
  };
  for (const std::size_t j : tuner_.outline().hot) {
    EXPECT_TRUE(contains(result.best_assignment.loop_cvs[j]));
  }
  EXPECT_TRUE(contains(result.best_assignment.nonloop_cv));
}

TEST_F(CoreTest, GreedyPicksPerLoopWinners) {
  const GreedyResult greedy = tuner_.run_greedy();
  const Collection& collection = tuner_.collection();
  const Outline& outline = tuner_.outline();
  for (std::size_t i = 0; i < outline.hot.size(); ++i) {
    const auto& times = collection.loop_times[i];
    const std::size_t winner =
        support::argmin(std::span<const double>(times));
    EXPECT_EQ(greedy.realized.best_assignment.loop_cvs[outline.hot[i]],
              collection.cvs[winner]);
  }
}

TEST_F(CoreTest, GreedyIndependentIsSumOfMinima) {
  const GreedyResult greedy = tuner_.run_greedy();
  const Collection& collection = tuner_.collection();
  double expected = 0.0;
  for (const auto& times : collection.loop_times) {
    expected += *std::min_element(times.begin(), times.end());
  }
  expected += *std::min_element(collection.rest_times.begin(),
                                collection.rest_times.end());
  EXPECT_NEAR(greedy.independent_seconds, expected, 1e-9);
  EXPECT_NEAR(greedy.independent_speedup,
              greedy.realized.baseline_seconds / expected, 1e-9);
}

TEST_F(CoreTest, IndependentBeatsRealized) {
  // §3.4/§4.1: G.Independent is the (unrealizable) upper bound; with
  // interference and the winner's curse the realized assembly is
  // always worse on these workloads.
  const GreedyResult greedy = tuner_.run_greedy();
  EXPECT_GT(greedy.independent_speedup, greedy.realized.speedup);
}

TEST_F(CoreTest, CfrSamplesWithinPrunedSpaces) {
  const TuningResult result = tuner_.run_cfr();
  EXPECT_EQ(result.algorithm, "CFR");
  const auto pruned =
      prune_top_x(tuner_.collection(), tuner_.options().top_x);
  const Outline& outline = tuner_.outline();
  const Collection& collection = tuner_.collection();
  for (std::size_t i = 0; i < outline.hot.size(); ++i) {
    bool found = false;
    for (const std::size_t k : pruned[i]) {
      if (collection.cvs[k] ==
          result.best_assignment.loop_cvs[outline.hot[i]]) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "loop " << i << " CV outside its pruned space";
  }
}

TEST_F(CoreTest, CfrBeatsFrOnFixedSeed) {
  // The paper's central claim, on this seed and workload.
  const TuningResult cfr = tuner_.run_cfr();
  const TuningResult fr = tuner_.run_fr();
  EXPECT_GT(cfr.speedup, fr.speedup);
}

TEST_F(CoreTest, ResultsAreReproducible) {
  FuncyTuner other(programs::cloverleaf(), machine::broadwell(),
                   fast_options());
  EXPECT_DOUBLE_EQ(tuner_.run_cfr().speedup, other.run_cfr().speedup);
  EXPECT_DOUBLE_EQ(tuner_.run_random().speedup,
                   other.run_random().speedup);
}

// ------------------------------------------------------------ evaluator ----

TEST_F(CoreTest, EvaluatorCountsEvaluations) {
  Evaluator& evaluator = tuner_.evaluator();
  const std::size_t before = evaluator.evaluations();
  (void)evaluator.evaluate(compiler::ModuleAssignment::uniform(
      tuner_.space().default_cv(), tuner_.program().loops().size()));
  EXPECT_EQ(evaluator.evaluations(), before + 1);
  EXPECT_GT(evaluator.modeled_overhead_seconds(), 0.0);
}

TEST_F(CoreTest, EvaluatorBatchMatchesSequential) {
  Evaluator& evaluator = tuner_.evaluator();
  const auto& cvs = tuner_.presampled();
  const std::size_t loops = tuner_.program().loops().size();
  auto make = [&](std::size_t i) {
    return compiler::ModuleAssignment::uniform(cvs[i], loops);
  };
  const std::vector<double> batch = evaluator.evaluate_batch(16, make);
  // The whole batch shares one rep_base; per-variant noise is keyed by
  // the executable fingerprint, so a sequential re-evaluation under the
  // same rep_base reproduces each measurement exactly.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(batch[i], evaluator.evaluate(make(i), {}));
  }
}

TEST_F(CoreTest, BatchRepBaseOffsetsDecorrelatePhases) {
  Evaluator& evaluator = tuner_.evaluator();
  const auto& cvs = tuner_.presampled();
  const std::size_t loops = tuner_.program().loops().size();
  auto make = [&](std::size_t i) {
    return compiler::ModuleAssignment::uniform(cvs[i], loops);
  };
  // Same variants under two phase offsets: the noise streams must be
  // disjoint (different measurements index-for-index), yet each phase
  // stays deterministic under a fixed offset.
  const std::vector<double> sweep = evaluator.evaluate_batch(
      16, make, {.rep_base = rep_streams::kCollection});
  const std::vector<double> random_phase =
      evaluator.evaluate_batch(16, make, {.rep_base = rep_streams::kRandom});
  EXPECT_EQ(sweep, evaluator.evaluate_batch(
                       16, make, {.rep_base = rep_streams::kCollection}));
  EXPECT_EQ(random_phase,
            evaluator.evaluate_batch(16, make,
                                     {.rep_base = rep_streams::kRandom}));
  std::size_t identical = 0;
  for (std::size_t i = 0; i < 16; ++i) {
    identical += (sweep[i] == random_phase[i]);
  }
  EXPECT_LT(identical, 16u);  // noise no longer shared index-for-index
}

TEST_F(CoreTest, FinalSecondsUsesFreshNoise) {
  Evaluator& evaluator = tuner_.evaluator();
  const auto o3 = compiler::ModuleAssignment::uniform(
      tuner_.space().default_cv(), tuner_.program().loops().size());
  const double search_measure = evaluator.evaluate(o3);
  const double final_measure = evaluator.final_seconds(o3);
  EXPECT_NE(search_measure, final_measure);
  EXPECT_NEAR(search_measure, final_measure, 1.0);
}

// ----------------------------------------------------------- facade ----

TEST_F(CoreTest, PerLoopIntrospectionShapes) {
  const auto o3 = compiler::ModuleAssignment::uniform(
      tuner_.space().default_cv(), tuner_.program().loops().size());
  const auto speedups = tuner_.per_loop_speedups(o3);
  const auto decisions = tuner_.per_loop_decisions(o3);
  ASSERT_EQ(speedups.size(), tuner_.program().loops().size());
  ASSERT_EQ(decisions.size(), tuner_.program().loops().size());
  for (const double s : speedups) EXPECT_NEAR(s, 1.0, 1e-9);
  for (const auto& d : decisions) EXPECT_FALSE(d.empty());
}

TEST_F(CoreTest, CrossInputEvaluation) {
  const auto large = tuner_.program().input("large");
  ASSERT_TRUE(large.has_value());
  const auto o3 = compiler::ModuleAssignment::uniform(
      tuner_.space().default_cv(), tuner_.program().loops().size());
  const double tuned = tuner_.seconds_on(*large, o3, 5);
  const double baseline = tuner_.baseline_seconds_on(*large, 5);
  EXPECT_NEAR(tuned, baseline, 0.2);
  EXPECT_NEAR(baseline, large->o3_seconds, 0.5);
}

// -------------------------------------------------------- result extras ----

TEST(ResultExtras, RoundTripsThroughTuningResultJson) {
  FuncyTunerOptions options;
  options.samples = 16;
  FuncyTuner tuner(programs::swim(), machine::broadwell(), options);
  const TuningResult greedy = tuner.run("greedy");
  ASSERT_TRUE(greedy.extras.contains(kExtraIndependentSpeedup));

  const std::string json =
      tuning_result_json(greedy, tuner.space(), tuner.program());
  EXPECT_NE(json.find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(json.find("\"extras\":{"), std::string::npos);

  // The artifact prints numbers at the table precision (6 significant
  // digits), so the round trip is near, not bit-exact.
  const ResultExtras read = read_tuning_result_extras(json);
  ASSERT_EQ(read.items().size(), greedy.extras.items().size());
  for (const auto& [key, value] : greedy.extras.items()) {
    EXPECT_NEAR(read.get_or(key, -1.0), value,
                1e-4 * std::abs(value) + 1e-9)
        << key;
  }
  // Malformed JSON and future schemas are hard errors.
  EXPECT_THROW((void)read_tuning_result_extras("{\"schema"),
               std::runtime_error);
  EXPECT_THROW((void)read_tuning_result_extras("{\"schema_version\":99}"),
               std::runtime_error);
}

}  // namespace
}  // namespace ft::core
