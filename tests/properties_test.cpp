// Property-based sweeps (parameterized gtest): invariants of the cost
// model across all three architectures, of the search algorithms across
// seeds and programs, and of the compiler pipeline across random CVs.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "core/funcy_tuner.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "machine/cost_model.hpp"
#include "programs/benchmarks.hpp"
#include "support/rng.hpp"

namespace ft {
namespace {

machine::Architecture arch_by_name(const std::string& name) {
  for (const auto& arch : machine::all_architectures()) {
    if (arch.name == name) return arch;
  }
  throw std::invalid_argument(name);
}

// ----------------------------------------- cost model x architectures ----

class CostModelOnArch : public ::testing::TestWithParam<std::string> {
 protected:
  machine::Architecture arch() const { return arch_by_name(GetParam()); }
};

TEST_P(CostModelOnArch, CostsPositiveForRandomLoops) {
  support::Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    ir::LoopFeatures f;
    f.flops_per_iter = rng.uniform(1, 80);
    f.memops_per_iter = rng.uniform(1, 20);
    f.trip_count = rng.uniform(100, 20000);
    f.working_set_mb = rng.uniform(0.5, 600);
    f.unit_stride_frac = rng.uniform();
    f.divergence = rng.uniform();
    f.dependence = rng.uniform();
    f.register_pressure = rng.uniform();
    f.parallel_frac = rng.uniform();
    f.store_frac = rng.uniform();
    f.sanitize();
    compiler::LinkedLoop linked;
    linked.codegen.vector_width = rng.bernoulli(0.5) ? 256 : 0;
    linked.codegen.unroll = 1 << rng.next_below(4);
    linked.codegen.prefetch = static_cast<int>(rng.next_below(5));
    const machine::LoopCost cost =
        machine::raw_loop_cost(f, linked, arch(), 10);
    ASSERT_GT(cost.total, 0.0);
    ASSERT_TRUE(std::isfinite(cost.total));
    ASSERT_GE(cost.total,
              std::max(cost.compute, cost.memory) - 1e-12);
  }
}

TEST_P(CostModelOnArch, WorkScalingIsMonotone) {
  ir::LoopFeatures f;
  f.flops_per_iter = 20;
  f.memops_per_iter = 8;
  f.trip_count = 5000;
  f.working_set_mb = 80;
  f.sanitize();
  compiler::LinkedLoop linked;
  double previous = 0.0;
  for (const double scale : {0.5, 1.0, 2.0, 4.0}) {
    const machine::LoopCost cost = machine::raw_loop_cost(
        f.scaled(scale, scale), linked, arch(), 10);
    EXPECT_GT(cost.total, previous);
    previous = cost.total;
  }
}

TEST_P(CostModelOnArch, BandwidthHierarchyRespected) {
  // A cache-resident sweep must never be slower than the same sweep
  // over a DRAM-sized working set.
  ir::LoopFeatures f;
  f.flops_per_iter = 2;
  f.memops_per_iter = 12;
  f.trip_count = 8000;
  f.sanitize();
  compiler::LinkedLoop linked;
  f.working_set_mb = 1.0;
  const double cached =
      machine::raw_loop_cost(f, linked, arch(), 10).total;
  f.working_set_mb = 500.0;
  const double dram =
      machine::raw_loop_cost(f, linked, arch(), 10).total;
  EXPECT_LT(cached, dram);
}

TEST_P(CostModelOnArch, BaselineCalibrationHoldsForAllPrograms) {
  for (const auto& program : programs::suite()) {
    const flags::FlagSpace space = flags::icc_space();
    compiler::Compiler compiler(space, arch());
    machine::ExecutionEngine engine(program, compiler);
    machine::RunOptions options;
    options.noise = false;
    const machine::RunResult result = engine.run(
        engine.baseline(), program.tuning_input(), options);
    EXPECT_NEAR(result.end_to_end, program.tuning_input().o3_seconds,
                1e-6)
        << program.name() << " on " << arch().name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, CostModelOnArch,
                         ::testing::Values("AMD Opteron",
                                           "Intel Sandy Bridge",
                                           "Intel Broadwell"));

// ------------------------------------------------ pipeline x random CVs ----

class PipelineProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineProperty, DecisionsWithinDomains) {
  const flags::FlagSpace space = flags::icc_space();
  support::Rng rng(GetParam());
  const ir::Program program = programs::cloverleaf();
  const machine::Architecture arch = machine::broadwell();
  for (int i = 0; i < 100; ++i) {
    const flags::CompilationVector cv = space.sample(rng);
    for (const auto& loop : program.loops()) {
      const compiler::CompiledModule object = compiler::compile_module(
          loop, cv, space.decode(cv), arch, compiler::Personality::kIcc);
      const auto& g = object.codegen;
      ASSERT_TRUE(g.vector_width == 0 || g.vector_width == 128 ||
                  g.vector_width == 256);
      ASSERT_GE(g.unroll, 1);
      ASSERT_LE(g.unroll, 16);
      ASSERT_GE(g.prefetch, 0);
      ASSERT_LE(g.prefetch, 4);
      ASSERT_GE(g.spill_severity, 0.0);
      ASSERT_GT(g.compute_mult, 0.5);
      ASSERT_LT(g.compute_mult, 2.0);
      ASSERT_GT(g.code_size, 0.0);
    }
  }
}

TEST_P(PipelineProperty, LinkedExecutableSane) {
  const flags::FlagSpace space = flags::icc_space();
  support::Rng rng(GetParam() ^ 0x9e37ULL);
  const ir::Program program = programs::lulesh();
  compiler::Compiler compiler(space, machine::broadwell());
  for (int i = 0; i < 30; ++i) {
    compiler::ModuleAssignment assignment;
    for (std::size_t j = 0; j < program.loops().size(); ++j) {
      assignment.loop_cvs.push_back(space.sample(rng));
    }
    assignment.nonloop_cv = space.sample(rng);
    const compiler::Executable exe = compiler.build(program, assignment);
    ASSERT_EQ(exe.loops.size(), program.loops().size());
    ASSERT_GE(exe.global_mult, 1.0);
    ASSERT_LE(exe.global_mult, 1.25);
    for (const auto& loop : exe.loops) {
      ASSERT_GE(loop.interference_mult, 1.0);
      ASSERT_LE(loop.interference_mult, 1.16);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ------------------------------------------------- search x programs ----

class SearchOnProgram : public ::testing::TestWithParam<std::string> {
 protected:
  core::FuncyTunerOptions options() const {
    core::FuncyTunerOptions o;
    o.samples = 200;
    o.final_reps = 5;
    return o;
  }
};

TEST_P(SearchOnProgram, CfrImprovesOverO3) {
  core::FuncyTuner tuner(programs::by_name(GetParam()),
                         machine::broadwell(), options());
  EXPECT_GT(tuner.run("cfr").speedup, 1.0);
}

TEST_P(SearchOnProgram, IndependentDominatesEverything) {
  core::FuncyTuner tuner(programs::by_name(GetParam()),
                         machine::broadwell(), options());
  const auto random = tuner.run("random");
  const auto fr = tuner.run("fr");
  const auto greedy = tuner.run("greedy");
  const auto cfr = tuner.run("cfr");
  const double independent =
      greedy.extras.get_or(core::kExtraIndependentSpeedup, 0);
  EXPECT_GT(independent, cfr.speedup);
  EXPECT_GT(independent, random.speedup);
  EXPECT_GT(independent, fr.speedup);
  EXPECT_GT(independent, greedy.speedup);
}

TEST_P(SearchOnProgram, HistoriesMonotone) {
  core::FuncyTuner tuner(programs::by_name(GetParam()),
                         machine::broadwell(), options());
  for (const auto& result : {tuner.run("random"), tuner.run("cfr")}) {
    for (std::size_t i = 1; i < result.history.size(); ++i) {
      ASSERT_LE(result.history[i], result.history[i - 1]);
    }
  }
}

TEST_P(SearchOnProgram, OutlineCoversMostRuntime) {
  core::FuncyTuner tuner(programs::by_name(GetParam()),
                         machine::broadwell(), options());
  const core::Outline& outline = tuner.outline();
  double covered = 0.0;
  for (const std::size_t j : outline.hot) {
    covered += outline.measured_share[j];
  }
  // Hot loops carry 35-65% of runtime in every workload model.
  EXPECT_GT(covered, 0.3);
  EXPECT_LT(covered, 0.7);
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, SearchOnProgram,
                         ::testing::Values("LULESH", "CL", "AMG",
                                           "Optewe", "bwaves", "fma3d",
                                           "swim"));

// ----------------------------------------------------- seeds x CFR ----

class CfrSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CfrSeedSweep, CfrRobustToSeedChoice) {
  core::FuncyTunerOptions options;
  options.samples = 250;
  options.seed = GetParam();
  options.final_reps = 5;
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         options);
  const auto cfr = tuner.run("cfr");
  // Whatever the seed, CFR finds a solidly improving configuration.
  EXPECT_GT(cfr.speedup, 1.04);
  EXPECT_LT(cfr.speedup, 1.25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CfrSeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace ft
