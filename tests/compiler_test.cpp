// Tests for the compiler simulator's pass pipeline: vectorizer
// legality/heuristics, unroller, spills, streaming stores, PGO-informed
// decisions, personalities, and the object table (checked against an
// uncached compile_module + link oracle, serially and concurrently).
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "compiler/compiler.hpp"
#include "compiler/pipeline.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/rng.hpp"

namespace ft::compiler {
namespace {

ir::LoopModule clean_loop() {
  ir::LoopModule m;
  m.name = "clean";
  m.features.flops_per_iter = 30;
  m.features.memops_per_iter = 6;
  m.features.body_size = 40;
  m.features.trip_count = 8000;
  m.features.unit_stride_frac = 0.98;
  m.features.divergence = 0.02;
  m.features.static_branchiness = 0.02;
  m.features.dependence = 0.02;
  m.features.alias_uncertainty = 0.1;
  m.features.register_pressure = 0.3;
  m.features.fp_intensity = 0.9;
  m.features.sanitize();
  return m;
}

CompiledModule compile_with(const ir::LoopModule& loop,
                            const std::string& flag_text,
                            const machine::Architecture& arch,
                            Personality personality = Personality::kIcc,
                            const PgoProfile* pgo = nullptr) {
  const flags::FlagSpace space =
      personality == Personality::kIcc ? flags::icc_space()
                                       : flags::gcc_space();
  const auto cv = space.parse(flag_text);
  EXPECT_TRUE(cv.has_value()) << flag_text;
  return compile_module(loop, *cv, space.decode(*cv), arch, personality,
                        pgo);
}

// ----------------------------------------------------------- vectorizer ----

TEST(Vectorizer, CleanLoopAutoVectorizesOnBroadwell) {
  const CompiledModule object =
      compile_with(clean_loop(), "", machine::broadwell());
  EXPECT_EQ(object.codegen.vector_width, 256);
}

TEST(Vectorizer, OpteronCapsAt128) {
  const CompiledModule object =
      compile_with(clean_loop(), "", machine::opteron());
  EXPECT_LE(object.codegen.vector_width, 128);
}

TEST(Vectorizer, NoVecForcesScalar) {
  const CompiledModule object =
      compile_with(clean_loop(), "-no-vec", machine::broadwell());
  EXPECT_EQ(object.codegen.vector_width, 0);
}

TEST(Vectorizer, ForcedWidthOverridesHeuristic) {
  ir::LoopModule branchy = clean_loop();
  branchy.features.static_branchiness = 0.9;  // heuristic declines...
  branchy.features.unit_stride_frac = 0.6;    // ...this branchy gather
  const CompiledModule declined =
      compile_with(branchy, "", machine::broadwell());
  EXPECT_EQ(declined.codegen.vector_width, 0);
  const CompiledModule forced = compile_with(
      branchy, "-qopt-simd-width=256", machine::broadwell());
  EXPECT_EQ(forced.codegen.vector_width, 256);
}

TEST(Vectorizer, ForcedWidthClampedByArchitecture) {
  const CompiledModule object = compile_with(
      clean_loop(), "-qopt-simd-width=256", machine::opteron());
  EXPECT_EQ(object.codegen.vector_width, 128);
}

TEST(Vectorizer, HardDependenceBlocksEvenForcedWidth) {
  ir::LoopModule dependent = clean_loop();
  dependent.features.dependence = 0.95;
  const CompiledModule object = compile_with(
      dependent, "-qopt-simd-width=256", machine::broadwell());
  EXPECT_EQ(object.codegen.vector_width, 0);
}

TEST(Vectorizer, AliasUncertaintyBlocksAutoVectorization) {
  ir::LoopModule aliased = clean_loop();
  aliased.features.alias_uncertainty = 0.8;
  const CompiledModule object =
      compile_with(aliased, "", machine::broadwell());
  EXPECT_EQ(object.codegen.vector_width, 0);
}

TEST(Vectorizer, MultiVersioningUnblocksAliasedLoop) {
  ir::LoopModule aliased = clean_loop();
  aliased.features.alias_uncertainty = 0.8;
  const CompiledModule object =
      compile_with(aliased, "-qopt-multi-version-aggressive",
                   machine::broadwell());
  EXPECT_GT(object.codegen.vector_width, 0);
  EXPECT_TRUE(object.codegen.multi_versioned);
}

TEST(Vectorizer, O1DisablesVectorization) {
  const CompiledModule object =
      compile_with(clean_loop(), "-O1", machine::broadwell());
  EXPECT_EQ(object.codegen.vector_width, 0);
  EXPECT_EQ(object.codegen.unroll, 1);
}

TEST(Vectorizer, GccMoreConservativeThanIcc) {
  // A borderline loop: ICC vectorizes, GCC declines.
  ir::LoopModule borderline = clean_loop();
  borderline.features.static_branchiness = 0.25;
  borderline.features.unit_stride_frac = 0.75;
  const CompiledModule icc =
      compile_with(borderline, "", machine::broadwell());
  const CompiledModule gcc = compile_with(
      borderline, "", machine::broadwell(), Personality::kGcc);
  EXPECT_GE(icc.codegen.vector_width, gcc.codegen.vector_width);
}

TEST(Vectorizer, EstimatePenalizesWiderVectorsOnDivergentLoops) {
  ir::LoopFeatures f = clean_loop().features;
  f.static_branchiness = 0.4;
  f.unit_stride_frac = 0.55;
  const double e128 = vectorizer_estimate(f, 128, machine::broadwell(),
                                          Personality::kIcc, false);
  const double e256 = vectorizer_estimate(f, 256, machine::broadwell(),
                                          Personality::kIcc, false);
  EXPECT_GT(e128, e256);  // the mom9 effect (Table 3: O3 picks 128)
}

// -------------------------------------------------------------- unroller ----

TEST(Unroller, HeuristicScalesWithBodySize) {
  ir::LoopModule tiny = clean_loop();
  tiny.features.body_size = 16;
  ir::LoopModule big = clean_loop();
  big.features.body_size = 120;
  EXPECT_GT(compile_with(tiny, "", machine::broadwell()).codegen.unroll,
            compile_with(big, "", machine::broadwell()).codegen.unroll);
}

TEST(Unroller, ExplicitFactorRespected) {
  EXPECT_EQ(
      compile_with(clean_loop(), "-unroll8", machine::broadwell())
          .codegen.unroll,
      8);
  EXPECT_EQ(
      compile_with(clean_loop(), "-unroll0", machine::broadwell())
          .codegen.unroll,
      1);
}

TEST(Unroller, Unroll16NeedsOverrideLimits) {
  EXPECT_EQ(
      compile_with(clean_loop(), "-unroll16", machine::broadwell())
          .codegen.unroll,
      8);  // capped without -qoverride-limits
  EXPECT_EQ(compile_with(clean_loop(), "-unroll16 -qoverride-limits",
                         machine::broadwell())
                .codegen.unroll,
            16);
}

TEST(Unroller, PressureCausesSpills) {
  ir::LoopModule hungry = clean_loop();
  hungry.features.register_pressure = 0.9;
  const CompiledModule object =
      compile_with(hungry, "-unroll8", machine::broadwell());
  EXPECT_TRUE(object.codegen.spills());
  const CompiledModule relaxed =
      compile_with(hungry, "-unroll0 -no-vec", machine::broadwell());
  EXPECT_FALSE(relaxed.codegen.spills());
}

TEST(Unroller, SpillSeverityGrowsWithUnrollAndWidth) {
  ir::LoopFeatures f = clean_loop().features;
  f.register_pressure = 0.8;
  const double mild =
      spill_severity_for(f, 2, 0, 0, Personality::kIcc);
  const double severe =
      spill_severity_for(f, 8, 256, 0, Personality::kIcc);
  EXPECT_LT(mild, severe);
}

// ------------------------------------------------------ streaming stores ----

TEST(StreamingStores, AlwaysAndNever) {
  EXPECT_TRUE(compile_with(clean_loop(),
                           "-qopt-streaming-stores=always",
                           machine::broadwell())
                  .codegen.streaming_stores);
  EXPECT_FALSE(compile_with(clean_loop(),
                            "-qopt-streaming-stores=never",
                            machine::broadwell())
                   .codegen.streaming_stores);
}

TEST(StreamingStores, AutoHeuristicIsStatic) {
  // Store-heavy but short statically visible trip count: the static
  // heuristic misses the streaming opportunity (tuning headroom).
  ir::LoopModule stores = clean_loop();
  stores.features.store_frac = 0.6;
  stores.features.trip_count = 2000;
  stores.features.working_set_mb = 200;
  EXPECT_FALSE(compile_with(stores, "", machine::broadwell())
                   .codegen.streaming_stores);
  stores.features.trip_count = 8000;
  EXPECT_TRUE(compile_with(stores, "", machine::broadwell())
                  .codegen.streaming_stores);
}

TEST(StreamingStores, PgoUsesTrueWorkingSet) {
  ir::LoopModule stores = clean_loop();
  stores.features.store_frac = 0.6;
  stores.features.trip_count = 2000;  // static heuristic says no
  stores.features.working_set_mb = 200;
  PgoProfile profile;
  profile.valid = true;
  EXPECT_TRUE(compile_with(stores, "", machine::broadwell(),
                           Personality::kIcc, &profile)
                  .codegen.streaming_stores);
}

// ------------------------------------------------------------------ PGO ----

TEST(Pgo, SkipsVectorizingShortLoops) {
  ir::LoopModule shorty = clean_loop();
  shorty.features.trip_count = 20;
  PgoProfile profile;
  profile.valid = true;
  const CompiledModule with_pgo = compile_with(
      shorty, "", machine::broadwell(), Personality::kIcc, &profile);
  EXPECT_EQ(with_pgo.codegen.vector_width, 0);
  const CompiledModule without =
      compile_with(shorty, "", machine::broadwell());
  EXPECT_GT(without.codegen.vector_width, 0);
}

TEST(Pgo, UsesDynamicDivergence) {
  // Statically branchy but dynamically coherent: PGO vectorizes.
  ir::LoopModule loop = clean_loop();
  loop.features.static_branchiness = 0.9;
  loop.features.unit_stride_frac = 0.75;
  loop.features.divergence = 0.05;
  PgoProfile profile;
  profile.valid = true;
  EXPECT_EQ(compile_with(loop, "", machine::broadwell()).codegen
                .vector_width,
            0);
  EXPECT_GT(compile_with(loop, "", machine::broadwell(),
                         Personality::kIcc, &profile)
                .codegen.vector_width,
            0);
}

// ------------------------------------------------------------- decisions ----

TEST(Codegen, SummaryVocabulary) {
  LoopCodeGen g;
  EXPECT_EQ(g.summary(), "S");
  g.vector_width = 256;
  g.unroll = 2;
  g.aggressive_isel = true;
  EXPECT_EQ(g.summary(), "256, unroll2, IS");
  g.sched_reordered = true;
  g.spill_severity = 0.2;
  EXPECT_EQ(g.summary(), "256, unroll2, IS, IO, RS");
}

TEST(Codegen, HashReflectsDecisions) {
  LoopCodeGen a, b;
  b.unroll = 4;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(Pipeline, DeterministicOutput) {
  const flags::FlagSpace space = flags::icc_space();
  support::Rng rng(3);
  const ir::LoopModule loop = clean_loop();
  for (int i = 0; i < 50; ++i) {
    const flags::CompilationVector cv = space.sample(rng);
    const CompiledModule a =
        compile_module(loop, cv, space.decode(cv), machine::broadwell(),
                       Personality::kIcc);
    const CompiledModule b =
        compile_module(loop, cv, space.decode(cv), machine::broadwell(),
                       Personality::kIcc);
    EXPECT_EQ(a.codegen.hash(), b.codegen.hash());
  }
}

TEST(Pipeline, CodeSizeGrowsWithUnroll) {
  const CompiledModule u1 =
      compile_with(clean_loop(), "-unroll0", machine::broadwell());
  const CompiledModule u8 =
      compile_with(clean_loop(), "-unroll8", machine::broadwell());
  EXPECT_GT(u8.codegen.code_size, u1.codegen.code_size);
}

TEST(Pipeline, FmaOnlyWhereSupported) {
  EXPECT_TRUE(compile_with(clean_loop(), "", machine::broadwell())
                  .codegen.fma);
  EXPECT_FALSE(compile_with(clean_loop(), "", machine::sandy_bridge())
                   .codegen.fma);
  EXPECT_FALSE(compile_with(clean_loop(), "-no-fma",
                            machine::broadwell())
                   .codegen.fma);
}

// ------------------------------------------------------- compiler facade ----

TEST(Compiler, CacheHitsOnRepeatedCompile) {
  const flags::FlagSpace space = flags::icc_space();
  Compiler compiler(space, machine::broadwell());
  const ir::LoopModule loop = clean_loop();
  const flags::CompilationVector cv = space.default_cv();
  (void)compiler.compile(loop, cv);
  EXPECT_EQ(compiler.cache_misses(), 1u);
  (void)compiler.compile(loop, cv);
  EXPECT_EQ(compiler.cache_hits(), 1u);
  compiler.clear_cache();
  EXPECT_EQ(compiler.cache_hits(), 0u);
}

TEST(Compiler, CacheKeyIncludesPgo) {
  const flags::FlagSpace space = flags::icc_space();
  Compiler compiler(space, machine::broadwell());
  const ir::LoopModule loop = clean_loop();
  const flags::CompilationVector cv = space.default_cv();
  (void)compiler.compile(loop, cv);
  PgoProfile profile;
  profile.valid = true;
  (void)compiler.compile(loop, cv, &profile);
  EXPECT_EQ(compiler.cache_misses(), 2u);
}

TEST(Compiler, BuildRejectsWrongAssignmentSize) {
  const flags::FlagSpace space = flags::icc_space();
  Compiler compiler(space, machine::broadwell());
  ir::LoopModule nl = clean_loop();
  nl.is_loop = false;
  nl.o3_ratio = 0.4;
  ir::LoopModule lp = clean_loop();
  lp.o3_ratio = 0.6;
  ir::InputSpec tuning;
  tuning.name = "tuning";
  ir::Program program("p", "C", 1, {lp}, nl, {tuning});
  compiler::ModuleAssignment assignment;  // empty: wrong size
  assignment.nonloop_cv = space.default_cv();
  EXPECT_THROW((void)compiler.build(program, assignment),
               std::invalid_argument);
}

TEST(Compiler, ClearCacheEmptiesTheTable) {
  const flags::FlagSpace space = flags::icc_space();
  Compiler compiler(space, machine::broadwell());
  const ir::Program program = programs::cloverleaf();
  const Executable before = compiler.build_baseline(program);
  compiler.clear_cache();
  std::size_t compiled = 0;
  const Executable after =
      compiler.build(program,
                     ModuleAssignment::uniform(space.default_cv(),
                                               program.loops().size()),
                     nullptr, &compiled);
  EXPECT_EQ(compiled, program.loops().size() + 1);
  EXPECT_EQ(after.fingerprint, before.fingerprint);
}

// ------------------------------------------------- object table vs oracle ----

void expect_same_codegen(const LoopCodeGen& a, const LoopCodeGen& b,
                         const std::string& where) {
  EXPECT_EQ(a.vector_width, b.vector_width) << where;
  EXPECT_EQ(a.unroll, b.unroll) << where;
  EXPECT_EQ(a.aggressive_isel, b.aggressive_isel) << where;
  EXPECT_EQ(a.sched_reordered, b.sched_reordered) << where;
  EXPECT_EQ(a.spill_severity, b.spill_severity) << where;
  EXPECT_EQ(a.streaming_stores, b.streaming_stores) << where;
  EXPECT_EQ(a.prefetch, b.prefetch) << where;
  EXPECT_EQ(a.tile, b.tile) << where;
  EXPECT_EQ(a.fma, b.fma) << where;
  EXPECT_EQ(a.sw_pipelined, b.sw_pipelined) << where;
  EXPECT_EQ(a.multi_versioned, b.multi_versioned) << where;
  EXPECT_EQ(a.opt_level, b.opt_level) << where;
  EXPECT_EQ(a.compute_mult, b.compute_mult) << where;
  EXPECT_EQ(a.mem_mult, b.mem_mult) << where;
  EXPECT_EQ(a.overhead_mult, b.overhead_mult) << where;
  EXPECT_EQ(a.code_size, b.code_size) << where;
  EXPECT_EQ(a.inline_growth, b.inline_growth) << where;
}

void expect_same_linked(const LinkedLoop& a, const LinkedLoop& b,
                        const std::string& where) {
  EXPECT_EQ(a.name, b.name) << where;
  expect_same_codegen(a.codegen, b.codegen, where + " " + a.name);
  EXPECT_EQ(a.settings.values, b.settings.values) << where << " " << a.name;
  EXPECT_EQ(a.interference_mult, b.interference_mult) << where << " " << a.name;
  EXPECT_EQ(a.ipo_reoptimized, b.ipo_reoptimized) << where << " " << a.name;
}

void expect_same_executable(const Executable& a, const Executable& b,
                            const std::string& where) {
  ASSERT_EQ(a.loops.size(), b.loops.size()) << where;
  for (std::size_t j = 0; j < a.loops.size(); ++j) {
    expect_same_linked(a.loops[j], b.loops[j], where);
  }
  expect_same_linked(a.nonloop, b.nonloop, where);
  EXPECT_EQ(a.global_mult, b.global_mult) << where;
  EXPECT_EQ(a.uniform, b.uniform) << where;
  EXPECT_EQ(a.fingerprint, b.fingerprint) << where;
}

/// The uncached reference: every module through compile_module with a
/// fresh decode, then link over the owned objects (which re-runs the
/// pipeline for every IPO re-optimization).
Executable oracle_build(const flags::FlagSpace& space,
                        const ir::Program& program,
                        const ModuleAssignment& assignment,
                        const machine::Architecture& arch,
                        Personality personality, const PgoProfile* pgo) {
  std::vector<CompiledModule> loops;
  for (std::size_t j = 0; j < program.loops().size(); ++j) {
    const flags::CompilationVector& cv = assignment.loop_cvs[j];
    loops.push_back(compile_module(program.loops()[j], cv, space.decode(cv),
                                   arch, personality, pgo));
  }
  const CompiledModule nonloop =
      compile_module(program.nonloop(), assignment.nonloop_cv,
                     space.decode(assignment.nonloop_cv), arch, personality,
                     pgo);
  return link(program, loops, nonloop, arch, personality, pgo);
}

/// One build request of the property tests: which program, and a
/// uniform or mixed assignment drawn from a small CV pool, so CVs and
/// whole objects repeat across builds and (loop, driver CV) objects are
/// sometimes in the table and sometimes not.
struct BuildCase {
  std::size_t program = 0;
  ModuleAssignment assignment;
};

std::vector<BuildCase> build_cases(const flags::FlagSpace& space,
                                   const std::vector<ir::Program>& programs,
                                   std::uint64_t seed, std::size_t count) {
  support::Rng rng(seed);
  std::vector<flags::CompilationVector> pool;
  for (int i = 0; i < 6; ++i) pool.push_back(space.sample(rng));
  const auto pick = [&]() -> const flags::CompilationVector& {
    return pool[rng.next_below(pool.size())];
  };
  std::vector<BuildCase> cases;
  for (std::size_t i = 0; i < count; ++i) {
    BuildCase c;
    c.program = rng.next_below(programs.size());
    const std::size_t loops = programs[c.program].loops().size();
    if (rng.next_below(3) == 0) {
      c.assignment = ModuleAssignment::uniform(pick(), loops);
    } else {
      for (std::size_t j = 0; j < loops; ++j) {
        c.assignment.loop_cvs.push_back(pick());
      }
      c.assignment.nonloop_cv = pick();
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

/// Distinct (program module, CV) pairs the cases compile.
std::size_t distinct_objects(const std::vector<ir::Program>& programs,
                             const std::vector<BuildCase>& cases) {
  std::set<std::tuple<std::size_t, std::size_t, std::vector<std::uint8_t>>>
      objects;
  for (const BuildCase& c : cases) {
    const std::size_t loops = programs[c.program].loops().size();
    for (std::size_t j = 0; j < loops; ++j) {
      objects.emplace(c.program, j, c.assignment.loop_cvs[j].choices());
    }
    objects.emplace(c.program, loops, c.assignment.nonloop_cv.choices());
  }
  return objects.size();
}

struct OracleParam {
  Personality personality;
  bool pgo;
  friend void PrintTo(const OracleParam& param, std::ostream* os) {
    *os << personality_name(param.personality)
        << (param.pgo ? " with PGO" : " without PGO");
  }
};

class ObjectTableOracle : public ::testing::TestWithParam<OracleParam> {
 protected:
  ObjectTableOracle()
      : space_(GetParam().personality == Personality::kIcc
                   ? flags::icc_space()
                   : flags::gcc_space()),
        // Two programs on one compiler: every program names its
        // non-loop module "nonloop", so the table must key modules by
        // more than their name.
        programs_{programs::cloverleaf(), programs::lulesh()} {
    profile_.valid = true;
  }

  const PgoProfile* pgo() const { return GetParam().pgo ? &profile_ : nullptr; }

  flags::FlagSpace space_;
  std::vector<ir::Program> programs_;
  machine::Architecture arch_ = machine::broadwell();
  PgoProfile profile_;
};

TEST_P(ObjectTableOracle, BuildEqualsUncachedCompileAndLink) {
  Compiler compiler(space_, arch_, GetParam().personality);
  const std::vector<BuildCase> cases = build_cases(space_, programs_, 17, 120);
  std::size_t reoptimized = 0;
  std::size_t compiled_total = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ir::Program& program = programs_[cases[i].program];
    std::size_t compiled = 0;
    const Executable exe =
        compiler.build(program, cases[i].assignment, pgo(), &compiled);
    compiled_total += compiled;
    expect_same_executable(
        exe,
        oracle_build(space_, program, cases[i].assignment, arch_,
                     GetParam().personality, pgo()),
        "build " + std::to_string(i) + " of " + program.name());
    for (const LinkedLoop& loop : exe.loops) {
      reoptimized += loop.ipo_reoptimized ? 1 : 0;
    }
  }
  // The IPO re-optimization path was exercised, and every distinct
  // object was compiled exactly once.
  EXPECT_GT(reoptimized, 0u);
  EXPECT_EQ(compiler.cache_misses(), distinct_objects(programs_, cases));
  EXPECT_EQ(compiled_total, compiler.cache_misses());
  std::size_t modules = 0;
  for (const BuildCase& c : cases) {
    modules += programs_[c.program].loops().size() + 1;
  }
  EXPECT_EQ(compiler.cache_hits() + compiler.cache_misses(), modules);
}

TEST_P(ObjectTableOracle, ConcurrentBuildsAreBitIdenticalToSerial) {
  const std::vector<BuildCase> cases = build_cases(space_, programs_, 29, 160);
  Compiler serial_compiler(space_, arch_, GetParam().personality);
  std::vector<Executable> serial;
  for (const BuildCase& c : cases) {
    serial.push_back(
        serial_compiler.build(programs_[c.program], c.assignment, pgo()));
  }

  // Four threads over overlapping halves of the cases, two forward and
  // two backward, racing on shared objects.
  Compiler compiler(space_, arch_, GetParam().personality);
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::pair<std::size_t, Executable>>> built(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t n = cases.size();
      for (std::size_t step = 0; step < n / 2; ++step) {
        const std::size_t i =
            t % 2 == 0 ? (t * n / 4 + step) % n : (n + t * n / 4 - step) % n;
        built[t].emplace_back(
            i, compiler.build(programs_[cases[i].program],
                              cases[i].assignment, pgo()));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Threads 0 and 2 between them build every case.
  for (const auto& results : built) {
    for (const auto& [i, exe] : results) {
      expect_same_executable(exe, serial[i], "case " + std::to_string(i));
    }
  }
  const std::size_t distinct = distinct_objects(programs_, cases);
  EXPECT_EQ(serial_compiler.cache_misses(), distinct);
  EXPECT_EQ(compiler.cache_misses(), distinct);
}

INSTANTIATE_TEST_SUITE_P(
    PersonalitiesAndPgo, ObjectTableOracle,
    ::testing::Values(OracleParam{Personality::kIcc, false},
                      OracleParam{Personality::kIcc, true},
                      OracleParam{Personality::kGcc, false},
                      OracleParam{Personality::kGcc, true}),
    [](const ::testing::TestParamInfo<OracleParam>& info) {
      return std::string(personality_name(info.param.personality)) +
             (info.param.pgo ? "_Pgo" : "_NoPgo");
    });

}  // namespace
}  // namespace ft::compiler
