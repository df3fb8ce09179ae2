// Tests for the online drift/re-tune layer: the drift schedule, the
// DriftMonitor state machine, the incremental retune_search, and the
// OnlineTuner end-to-end properties (determinism, hot-swap safety,
// journaled resume).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/drift.hpp"
#include "core/funcy_tuner.hpp"
#include "core/search_registry.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"

namespace ft::core {
namespace {

FuncyTunerOptions tiny_options() {
  FuncyTunerOptions options;
  options.samples = 40;
  options.algorithm_options["cfr"] = {"--top-x=2"};
  options.algorithm_options["retune"] = {"--top-x=2"};
  options.final_reps = 5;
  return options;
}

OnlineTunerOptions online_options() {
  OnlineTunerOptions options;
  options.schedule.segments = 3;
  options.schedule.work_drift = 0.25;
  options.schedule.ws_drift = -0.5;
  options.retune_samples = 24;
  return options;
}

DriftObservation obs(double end_to_end, std::vector<double> loops) {
  DriftObservation o;
  o.end_to_end = end_to_end;
  o.loop_seconds = std::move(loops);
  return o;
}

void expect_reports_equal(const OnlineReport& a, const OnlineReport& b) {
  EXPECT_EQ(a.steady_o3_seconds, b.steady_o3_seconds);
  EXPECT_EQ(a.steady_tuned_seconds, b.steady_tuned_seconds);
  EXPECT_EQ(a.steady_speedup, b.steady_speedup);
  ASSERT_EQ(a.segments.size(), b.segments.size());
  for (std::size_t i = 0; i < a.segments.size(); ++i) {
    const DriftSegmentReport& x = a.segments[i];
    const DriftSegmentReport& y = b.segments[i];
    EXPECT_EQ(x.input, y.input);
    EXPECT_EQ(x.o3_seconds, y.o3_seconds);
    EXPECT_EQ(x.degraded_seconds, y.degraded_seconds);
    EXPECT_EQ(x.degraded_speedup, y.degraded_speedup);
    EXPECT_EQ(x.regression, y.regression);
    EXPECT_EQ(x.state, y.state);
    EXPECT_EQ(x.retuned, y.retuned);
    EXPECT_EQ(x.swapped, y.swapped);
    EXPECT_EQ(x.retuned_seconds, y.retuned_seconds);
    EXPECT_EQ(x.retuned_speedup, y.retuned_speedup);
    EXPECT_EQ(x.retune_evaluations, y.retune_evaluations);
  }
}

// ---- schedule -------------------------------------------------------

TEST(DriftSchedule, CompoundsScalesAndKeepsNamesDistinct) {
  ir::InputSpec tuning;
  tuning.name = "tuning";
  tuning.timesteps = 10;
  tuning.work_scale = 2.0;
  tuning.ws_scale = 4.0;
  tuning.o3_seconds = 20.0;

  DriftScheduleOptions options;
  options.segments = 3;
  options.work_drift = 0.5;
  options.ws_drift = -0.5;
  const std::vector<ir::InputSpec> schedule =
      make_drift_schedule(tuning, options);
  ASSERT_EQ(schedule.size(), 3u);
  EXPECT_EQ(schedule[0].name, "tuning-drift1");
  EXPECT_EQ(schedule[1].name, "tuning-drift2");
  EXPECT_EQ(schedule[2].name, "tuning-drift3");
  EXPECT_DOUBLE_EQ(schedule[0].work_scale, 3.0);
  EXPECT_DOUBLE_EQ(schedule[1].work_scale, 4.5);
  EXPECT_DOUBLE_EQ(schedule[2].work_scale, 6.75);
  EXPECT_DOUBLE_EQ(schedule[0].ws_scale, 2.0);
  EXPECT_DOUBLE_EQ(schedule[1].ws_scale, 1.0);
  EXPECT_DOUBLE_EQ(schedule[2].ws_scale, 0.5);
  // o3_seconds stays pinned unless timesteps change.
  for (const ir::InputSpec& input : schedule) {
    EXPECT_DOUBLE_EQ(input.o3_seconds, 20.0);
    EXPECT_EQ(input.timesteps, 10);
  }
}

TEST(DriftSchedule, TimestepOverrideRescalesO3AroundStartup) {
  ir::InputSpec tuning;
  tuning.name = "tuning";
  tuning.timesteps = 10;
  tuning.o3_seconds = 20.5;  // 0.5 startup + 2.0 per step

  DriftScheduleOptions options;
  options.segments = 1;
  options.timesteps = 20;
  const std::vector<ir::InputSpec> schedule =
      make_drift_schedule(tuning, options);
  ASSERT_EQ(schedule.size(), 1u);
  EXPECT_EQ(schedule[0].timesteps, 20);
  EXPECT_NEAR(schedule[0].o3_seconds, 0.5 + 2.0 * 20, 1e-9);
}

TEST(DriftSchedule, ZeroSegmentsIsEmpty) {
  EXPECT_TRUE(make_drift_schedule(ir::InputSpec{}, {.segments = 0}).empty());
}

// ---- monitor state machine ------------------------------------------

TEST(DriftMonitor_, StaysSteadyWithinThreshold) {
  DriftMonitor monitor({.threshold = 0.10, .confirm = 2});
  monitor.baseline(obs(2.0, {1.0, 1.0}), obs(1.0, {0.5, 0.5}));
  // Identical observation: zero regression.
  EXPECT_EQ(monitor.observe(obs(2.0, {1.0, 1.0}), obs(1.0, {0.5, 0.5})),
            DriftState::kSteady);
  EXPECT_EQ(monitor.last_regression(), 0.0);
  // 5% per-loop slowdown: under threshold, still steady.
  EXPECT_EQ(
      monitor.observe(obs(2.0, {1.0, 1.0}), obs(1.03, {0.525, 0.5})),
      DriftState::kSteady);
}

TEST(DriftMonitor_, ConfirmDebouncesBeforeTripping) {
  DriftMonitor monitor({.threshold = 0.10, .confirm = 2});
  monitor.baseline(obs(2.0, {1.0, 1.0}), obs(1.0, {0.5, 0.5}));
  // Loop 0 degrades 30%: first strike is only a suspicion...
  const DriftObservation degraded = obs(1.15, {0.65, 0.5});
  EXPECT_EQ(monitor.observe(obs(2.0, {1.0, 1.0}), degraded),
            DriftState::kSuspect);
  EXPECT_NEAR(monitor.last_regression(), 1.0 - (1.0 / 0.65) / 2.0, 1e-9);
  // ...a clean probe clears it...
  EXPECT_EQ(monitor.observe(obs(2.0, {1.0, 1.0}), obs(1.0, {0.5, 0.5})),
            DriftState::kSteady);
  // ...and only two consecutive strikes trip the re-tune.
  EXPECT_EQ(monitor.observe(obs(2.0, {1.0, 1.0}), degraded),
            DriftState::kSuspect);
  EXPECT_EQ(monitor.observe(obs(2.0, {1.0, 1.0}), degraded),
            DriftState::kRetuning);
  // kRetuning is sticky until the swap re-baselines.
  EXPECT_EQ(monitor.observe(obs(2.0, {1.0, 1.0}), obs(1.0, {0.5, 0.5})),
            DriftState::kRetuning);
  monitor.reset_after_swap(obs(2.0, {1.0, 1.0}), obs(1.1, {0.55, 0.55}));
  EXPECT_EQ(monitor.state(), DriftState::kSteady);
  EXPECT_EQ(monitor.observe(obs(2.0, {1.0, 1.0}), obs(1.1, {0.55, 0.55})),
            DriftState::kSteady);
}

TEST(DriftMonitor_, EndToEndRegressionAloneTrips) {
  DriftMonitor monitor({.threshold = 0.10, .confirm = 1});
  monitor.baseline(obs(2.0, {1.0}), obs(1.0, {0.5}));
  // Per-loop flat, end-to-end 20% slower (non-loop share regressed).
  EXPECT_EQ(monitor.observe(obs(2.0, {1.0}), obs(1.25, {0.5})),
            DriftState::kRetuning);
}

TEST(DriftMonitor_, FasterIncumbentNeverRegresses) {
  DriftMonitor monitor({.threshold = 0.10, .confirm = 1});
  monitor.baseline(obs(2.0, {1.0}), obs(1.0, {0.5}));
  EXPECT_EQ(monitor.observe(obs(2.0, {1.0}), obs(0.8, {0.4})),
            DriftState::kSteady);
  EXPECT_LE(monitor.last_regression(), 0.0);
}

TEST(DriftMonitor_, StateNames) {
  EXPECT_EQ(to_string(DriftState::kSteady), "steady");
  EXPECT_EQ(to_string(DriftState::kSuspect), "suspect");
  EXPECT_EQ(to_string(DriftState::kRetuning), "retuning");
}

// ---- retune_search --------------------------------------------------

TEST(RetuneSearch, NeverScoresWorseThanItsSeed) {
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                   tiny_options());
  const TuningResult cfr = tuner.run("cfr");

  RetuneOptions options;
  options.iterations = 20;
  options.top_x = 2;
  const TuningResult retuned = retune_search(
      tuner.evaluator(), tuner.outline(), tuner.collection(),
      cfr.best_assignment, options);
  EXPECT_EQ(retuned.algorithm, "Retune");
  EXPECT_EQ(retuned.evaluations, options.iterations);
  ASSERT_EQ(retuned.history.size(), options.iterations);
  // The seed is evaluated first, so the search metric can only improve.
  EXPECT_LE(retuned.search_best_seconds, retuned.history.front());
  for (std::size_t i = 1; i < retuned.history.size(); ++i) {
    EXPECT_LE(retuned.history[i], retuned.history[i - 1]);
  }
}

TEST(RetuneSearch, RegistryResolvesItUnlisted) {
  SearchRegistry& registry = SearchRegistry::global();
  EXPECT_TRUE(registry.contains("retune"));
  EXPECT_NE(registry.create("retune"), nullptr);
  for (const std::string& name : registry.names()) {
    EXPECT_NE(name, "retune");  // hidden from --algorithm all
  }
}

TEST(RetuneSearch, RunsThroughSearchContextWithSeed) {
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                   tiny_options());
  const TuningResult cfr = tuner.run("cfr");
  FuncyTunerOptions retune_options = tuner.options();
  retune_options.samples = 16;
  SearchContext context = tuner.search_context();
  context.provide_options(&retune_options);
  context.provide_seed_assignment(&cfr.best_assignment);
  const TuningResult result =
      SearchRegistry::global().create("retune")->run(context);
  EXPECT_EQ(result.evaluations, 16u);
  EXPECT_GT(result.speedup, 0.0);
}

// ---- OnlineTuner ----------------------------------------------------

TEST(OnlineTuner_, IsDeterministicAndSwapsAreNeverRegressions) {
  OnlineReport first;
  {
    FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                     tiny_options());
    const TuningResult initial = tuner.run("cfr");
    OnlineTuner online(tuner, online_options());
    first = online.run(initial.best_assignment);
  }
  EXPECT_GT(first.steady_speedup, 1.0);
  ASSERT_EQ(first.segments.size(), 3u);
  std::size_t swapped = 0;
  for (const DriftSegmentReport& segment : first.segments) {
    if (!segment.swapped) continue;
    ++swapped;
    // The hot-swap contract: never deploy something slower than the
    // degraded incumbent it replaces.
    EXPECT_LT(segment.retuned_seconds, segment.degraded_seconds);
    EXPECT_GE(segment.retuned_speedup, segment.degraded_speedup);
  }
  EXPECT_GT(swapped, 0u);  // the default schedule exercises the swap

  // Bit-identical on re-run (fresh tuner, same options).
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                   tiny_options());
  const TuningResult initial = tuner.run("cfr");
  OnlineTuner online(tuner, online_options());
  const OnlineReport second = online.run(initial.best_assignment);
  expect_reports_equal(first, second);
}

TEST(OnlineTuner_, JournaledRunResumesBitIdentically) {
  const std::string path =
      std::string(::testing::TempDir()) + "drift_journal.ftj";
  std::remove(path.c_str());

  OnlineReport cold;
  {
    FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                     tiny_options());
    auto journal = EvalJournal::create(
        path, options_fingerprint(tuner.options()));
    tuner.evaluator().set_journal(journal);
    const TuningResult initial = tuner.run("cfr");
    OnlineTuner online(tuner, online_options());
    online.set_journal(journal);
    cold = online.run(initial.best_assignment);
  }

  // Truncate the journal to a prefix - the surviving records of a
  // SIGKILLed run - and resume: the replayed prefix plus re-measured
  // tail must reproduce the identical report.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                   tiny_options());
  auto journal =
      EvalJournal::resume(path, options_fingerprint(tuner.options()));
  EXPECT_GT(journal->loaded(), 0u);
  tuner.evaluator().set_journal(journal);
  const TuningResult initial = tuner.run("cfr");
  OnlineTuner online(tuner, online_options());
  online.set_journal(journal);
  const OnlineReport resumed = online.run(initial.best_assignment);
  expect_reports_equal(cold, resumed);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ft::core
