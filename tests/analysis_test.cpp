// Tests for the analysis/tooling layer: flag-importance main effects,
// serialization of tuning artifacts, CFR early stopping, link-effect
// ablation switches and the extended Caliper statistics.
#include <gtest/gtest.h>

#include <sstream>

#include "caliper/caliper.hpp"
#include "core/flag_importance.hpp"
#include "core/funcy_tuner.hpp"
#include "core/campaign.hpp"
#include "core/evolution.hpp"
#include "core/serialization.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"

namespace ft {
namespace {

core::FuncyTunerOptions fast_options(std::size_t samples = 150) {
  core::FuncyTunerOptions options;
  options.samples = samples;
  options.final_reps = 5;
  return options;
}

// ------------------------------------------------------ flag importance ----

class ImportanceTest : public ::testing::Test {
 protected:
  ImportanceTest()
      : tuner_(programs::cloverleaf(), machine::broadwell(),
               fast_options(400)) {}
  core::FuncyTuner tuner_;
};

TEST_F(ImportanceTest, CoversAllModulesAndFlags) {
  const auto importance = core::analyze_flag_importance(
      tuner_.space(), tuner_.outline(), tuner_.collection());
  ASSERT_EQ(importance.size(), tuner_.outline().hot.size() + 1);
  EXPECT_EQ(importance.back().module_name, "rest");
  for (const auto& module : importance) {
    EXPECT_EQ(module.effects.size(), tuner_.space().flag_count());
  }
}

TEST_F(ImportanceTest, EffectsSortedBySpread) {
  const auto importance = core::analyze_flag_importance(
      tuner_.space(), tuner_.outline(), tuner_.collection());
  for (const auto& module : importance) {
    for (std::size_t i = 1; i < module.effects.size(); ++i) {
      EXPECT_GE(module.effects[i - 1].spread, module.effects[i].spread);
    }
  }
}

TEST_F(ImportanceTest, OptionMeansNormalizedAroundOne) {
  const auto importance = core::analyze_flag_importance(
      tuner_.space(), tuner_.outline(), tuner_.collection());
  for (const auto& module : importance) {
    for (const auto& effect : module.effects) {
      double weighted = 0.0;
      for (const double m : effect.option_means) {
        EXPECT_GT(m, 0.0);
        weighted += m;
      }
      // Option means hover around 1 (they are normalized by the
      // module's overall mean).
      EXPECT_GT(weighted / effect.option_means.size(), 0.5);
      EXPECT_LT(weighted / effect.option_means.size(), 1.5);
    }
  }
}

TEST_F(ImportanceTest, BestOptionIsTheMinimum) {
  const auto importance = core::analyze_flag_importance(
      tuner_.space(), tuner_.outline(), tuner_.collection());
  for (const auto& module : importance) {
    for (const auto& effect : module.effects) {
      for (const double m : effect.option_means) {
        EXPECT_LE(effect.option_means[effect.best_option], m + 1e-12);
      }
    }
  }
}

TEST_F(ImportanceTest, UnrollMattersForSpillProneLoop) {
  // CloverLeaf dt has register pressure 0.93: unroll choice must rank
  // among its most important flags.
  const auto importance = core::analyze_flag_importance(
      tuner_.space(), tuner_.outline(), tuner_.collection());
  const auto& dt = importance.front();  // dt is the first hot loop
  ASSERT_EQ(dt.module_name, "dt");
  const auto top = core::top_flags(dt, 3);
  bool unroll_in_top3 = false;
  for (const auto& effect : top) {
    unroll_in_top3 |= (effect.flag_name == "-unroll");
  }
  EXPECT_TRUE(unroll_in_top3);
}

TEST_F(ImportanceTest, TopFlagsClamps) {
  const auto importance = core::analyze_flag_importance(
      tuner_.space(), tuner_.outline(), tuner_.collection());
  EXPECT_EQ(core::top_flags(importance[0], 5).size(), 5u);
  EXPECT_EQ(core::top_flags(importance[0], 1000).size(),
            tuner_.space().flag_count());
}

// -------------------------------------------------------- serialization ----

TEST(Serialization, CollectionCsvShape) {
  core::FuncyTuner tuner(programs::swim(), machine::broadwell(),
                         fast_options(50));
  std::ostringstream oss;
  core::write_collection_csv(oss, tuner.outline(), tuner.collection());
  const std::string csv = oss.str();
  // Header + one row per sample.
  std::size_t lines = 0;
  for (const char c : csv) lines += (c == '\n');
  EXPECT_EQ(lines, 51u);
  EXPECT_NE(csv.find("cv_index,cv_hash,end_to_end,rest"),
            std::string::npos);
  EXPECT_NE(csv.find("calc1"), std::string::npos);
}

TEST(Serialization, HistoryCsv) {
  core::TuningResult result;
  result.history = {3.0, 2.5, 2.5};
  std::ostringstream oss;
  core::write_history_csv(oss, result);
  EXPECT_EQ(oss.str(),
            "evaluation,best_so_far_seconds\n1,3\n2,2.5\n3,2.5\n");
}

TEST(Serialization, TuningResultJson) {
  core::FuncyTuner tuner(programs::swim(), machine::broadwell(),
                         fast_options(50));
  core::TuningResult result;
  result.algorithm = "CFR";
  result.speedup = 1.1;
  result.best_assignment = compiler::ModuleAssignment::uniform(
      tuner.space().default_cv(), tuner.program().loops().size());
  const std::string json = core::tuning_result_json(
      result, tuner.space(), tuner.program());
  EXPECT_NE(json.find("\"algorithm\":\"CFR\""), std::string::npos);
  EXPECT_NE(json.find("\"calc1\":\"-O3\""), std::string::npos);
  EXPECT_NE(json.find("\"nonloop\":\"-O3\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
}

// ------------------------------------------------------ CFR early stop ----

TEST(CfrPatience, StopsEarlyAndMatchesPrefix) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options(300));

  core::CfrOptions full;
  full.iterations = 300;
  const auto reference = core::cfr_search(
      tuner.evaluator(), tuner.outline(), tuner.collection(), full);

  core::CfrOptions stopped = full;
  stopped.patience = 40;
  const auto early = core::cfr_search(tuner.evaluator(), tuner.outline(),
                                      tuner.collection(), stopped);
  EXPECT_LE(early.evaluations, reference.evaluations);
  // The evaluations it did run are identical to the full run's prefix.
  for (std::size_t i = 0; i < early.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(early.history[i], reference.history[i]);
  }
  EXPECT_GT(early.speedup, 1.0);
}

TEST(CfrPatience, ZeroPatienceDisablesEarlyStop) {
  core::FuncyTuner tuner(programs::swim(), machine::broadwell(),
                         fast_options(120));
  core::CfrOptions options;
  options.iterations = 120;
  options.patience = 0;
  const auto result = core::cfr_search(
      tuner.evaluator(), tuner.outline(), tuner.collection(), options);
  EXPECT_EQ(result.evaluations, 120u);
}

// ---------------------------------------------------------- LinkOptions ----

TEST(LinkAblation, DisablingEffectsLiftsGreedy) {
  core::FuncyTuner with_fx(programs::cloverleaf(), machine::broadwell(),
                           fast_options(300));
  core::FuncyTuner without_fx(programs::cloverleaf(),
                              machine::broadwell(), fast_options(300));
  without_fx.engine().compiler().set_link_options(
      compiler::LinkOptions::none());
  const auto greedy_on = with_fx.run("greedy");
  const auto greedy_off = without_fx.run("greedy");
  EXPECT_GT(greedy_off.speedup, greedy_on.speedup);
  // Without link effects the realized assembly approaches the
  // independence hypothetical.
  EXPECT_GT(greedy_off.speedup,
            0.9 * greedy_off.extras.get_or(core::kExtraIndependentSpeedup,
                                           0));
}

TEST(LinkAblation, NoneDisablesEverything) {
  const auto options = compiler::LinkOptions::none();
  EXPECT_FALSE(options.ipo_reoptimization);
  EXPECT_FALSE(options.layout_mismatch_penalties);
  EXPECT_FALSE(options.icache_pressure);
  const compiler::LinkOptions defaults;
  EXPECT_TRUE(defaults.ipo_reoptimization);
  EXPECT_TRUE(defaults.layout_mismatch_penalties);
  EXPECT_TRUE(defaults.icache_pressure);
}

// --------------------------------------------------- extended Caliper ----

TEST(CaliperStats, MinMaxPerRegion) {
  caliper::VirtualClock clock;
  caliper::Caliper cal(&clock);
  for (const double t : {1.0, 3.0, 2.0}) {
    cal.begin("r");
    clock.advance(t);
    cal.end("r");
  }
  const auto& stats = cal.stats().at("r");
  EXPECT_DOUBLE_EQ(stats.min_inclusive, 1.0);
  EXPECT_DOUBLE_EQ(stats.max_inclusive, 3.0);
  EXPECT_DOUBLE_EQ(stats.mean_inclusive(), 2.0);
}

TEST(CaliperStats, JsonExport) {
  caliper::VirtualClock clock;
  caliper::Caliper cal(&clock);
  cal.begin("a");
  clock.advance(1.5);
  cal.end("a");
  const std::string json = cal.to_json();
  EXPECT_NE(json.find("\"path\":\"a\""), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"inclusive\":1.5"), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
}

TEST(CaliperStats, EmptyJsonIsEmptyArray) {
  caliper::Caliper cal;
  EXPECT_EQ(cal.to_json(), "[]");
}

}  // namespace
}  // namespace ft

// --------------------------------------------------------- campaign ----

namespace ft {
namespace {

TEST(Campaign, RunsGridAndAnswersQueries) {
  core::CampaignOptions options;
  options.tuner = fast_options(80);
  std::size_t progress_calls = 0;
  options.progress = [&](const std::string&, const std::string&) {
    ++progress_calls;
  };
  core::Campaign campaign(
      {programs::swim(), programs::bwaves()},
      {machine::broadwell(), machine::sandy_bridge()}, options);
  EXPECT_FALSE(campaign.finished());
  campaign.run();
  EXPECT_TRUE(campaign.finished());
  EXPECT_EQ(campaign.cells().size(), 4u);
  EXPECT_EQ(progress_calls, 4u);

  const auto& cell = campaign.cell("swim", "Intel Broadwell");
  EXPECT_GT(cell.result("CFR").speedup, 0.9);
  EXPECT_GT(cell.baseline_seconds, 0.0);
  EXPECT_THROW((void)campaign.cell("nope", "Intel Broadwell"),
               std::invalid_argument);

  const double gm = campaign.geomean_speedup("CFR", "Intel Broadwell");
  EXPECT_GT(gm, 0.9);
  EXPECT_THROW((void)campaign.geomean_speedup("Bogus", "Intel Broadwell"),
               std::invalid_argument);
}

TEST(Campaign, ParallelCellsMatchSequentialGrid) {
  core::CampaignOptions options;
  options.tuner = fast_options(60);
  const std::vector<ir::Program> programs = {programs::swim(),
                                             programs::bwaves()};
  const std::vector<machine::Architecture> archs = {
      machine::broadwell(), machine::sandy_bridge()};

  core::Campaign sequential(programs, archs, options);
  sequential.run();

  options.parallel_cells = true;
  std::size_t progress_calls = 0;
  options.progress = [&](const std::string&, const std::string&) {
    ++progress_calls;
  };
  // Cells run inside pool workers and issue their own nested
  // parallel_for sweeps; results must be bit-identical to sequential.
  core::Campaign parallel(programs, archs, options);
  parallel.run();
  EXPECT_EQ(progress_calls, 4u);
  ASSERT_EQ(parallel.cells().size(), sequential.cells().size());
  for (const auto& cell : sequential.cells()) {
    const auto& other = parallel.cell(cell.program, cell.architecture);
    EXPECT_DOUBLE_EQ(other.baseline_seconds, cell.baseline_seconds);
    ASSERT_EQ(other.results.size(), cell.results.size());
    for (std::size_t i = 0; i < cell.results.size(); ++i) {
      EXPECT_EQ(other.results[i].algorithm, cell.results[i].algorithm);
      EXPECT_DOUBLE_EQ(other.results[i].speedup, cell.results[i].speedup);
    }
  }
}

TEST(Campaign, SaltedSeedsDifferPerArch) {
  core::CampaignOptions options;
  options.tuner = fast_options(60);
  core::Campaign campaign({programs::swim()},
                          {machine::broadwell(), machine::opteron()},
                          options);
  campaign.run();
  // Different salts -> different pre-samples -> (almost surely)
  // different winning CVs across architectures.
  const auto& a = campaign.cell("swim", "Intel Broadwell");
  const auto& b = campaign.cell("swim", "AMD Opteron");
  EXPECT_NE(a.result("cfr").tuned_seconds, b.result("cfr").tuned_seconds);
}

TEST(Campaign, RejectsEmptyInputs) {
  core::CampaignOptions options;
  EXPECT_THROW(core::Campaign({}, {machine::broadwell()}, options),
               std::invalid_argument);
}

}  // namespace
}  // namespace ft

// -------------------------------------------------------- evolution ----

namespace ft {
namespace {

TEST(Evolution, RespectsBudgetAndPrunedSpaces) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options(200));
  core::EvolutionOptions options;
  options.evaluations = 200;
  options.top_x = 10;
  const auto result = core::evolutionary_search(
      tuner.evaluator(), tuner.outline(), tuner.collection(), options);
  EXPECT_EQ(result.algorithm, "EvoCFR");
  EXPECT_EQ(result.evaluations, 200u);
  EXPECT_EQ(result.history.size(), 200u);
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    ASSERT_LE(result.history[i], result.history[i - 1]);
  }
  // Winner CVs come from the collection's pruned candidates.
  const auto pruned = core::prune_top_x(tuner.collection(), 10);
  const auto& outline = tuner.outline();
  for (std::size_t i = 0; i < outline.hot.size(); ++i) {
    bool found = false;
    for (const std::size_t k : pruned[i]) {
      found |= tuner.collection().cvs[k] ==
               result.best_assignment.loop_cvs[outline.hot[i]];
    }
    EXPECT_TRUE(found) << "module " << i;
  }
}

TEST(Evolution, DeterministicUnderSeed) {
  auto run = [] {
    core::FuncyTuner tuner(programs::swim(), machine::broadwell(),
                           fast_options(150));
    core::EvolutionOptions options;
    options.evaluations = 150;
    return core::evolutionary_search(tuner.evaluator(), tuner.outline(),
                                     tuner.collection(), options)
        .speedup;
  };
  EXPECT_DOUBLE_EQ(run(), run());
}

TEST(Evolution, CompetitiveWithCfr) {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         fast_options(400));
  const auto cfr = tuner.run("cfr");
  core::EvolutionOptions options;
  options.evaluations = 400;
  const auto evo = core::evolutionary_search(
      tuner.evaluator(), tuner.outline(), tuner.collection(), options);
  // Recombination must at least hold its own against blind re-sampling.
  EXPECT_GT(evo.speedup, cfr.speedup - 0.02);
  EXPECT_GT(evo.speedup, 1.0);
}

TEST(Evolution, TinyBudgetStillWorks) {
  core::FuncyTuner tuner(programs::swim(), machine::broadwell(),
                         fast_options(60));
  core::EvolutionOptions options;
  options.evaluations = 10;  // smaller than the population
  options.population = 32;
  const auto result = core::evolutionary_search(
      tuner.evaluator(), tuner.outline(), tuner.collection(), options);
  EXPECT_EQ(result.evaluations, 10u);
  EXPECT_GT(result.speedup, 0.8);
}

}  // namespace
}  // namespace ft
