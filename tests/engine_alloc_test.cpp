// Allocation gates: counts heap allocations by replacing the global
// operator new, and requires
//  * the allocations an instrumented run makes beyond a plain one to be
//    a constant - not growing with the time-step count or the
//    repetition count;
//  * a build whose objects are all in the compiler's object table to
//    allocate no more than its Executable does, whatever the number of
//    modules it links.
// Gates on a deterministic counter instead of wall time, so they cannot
// flake.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "compiler/compiler.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "machine/execution_engine.hpp"
#include "programs/benchmarks.hpp"
#include "support/rng.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Kept out of line: once inlined, GCC pairs malloc() with operator
// delete, or a new-expression with free(), and warns about a mismatch
// (-Wmismatched-new-delete) that the replacement makes harmless.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ft::machine {
namespace {

class EngineAllocations : public ::testing::Test {
 protected:
  EngineAllocations()
      : space_(flags::icc_space()),
        program_(programs::cloverleaf()),
        compiler_(space_, broadwell()),
        engine_(program_, compiler_),
        short_(programs::with_timesteps(program_.tuning_input(), 10)),
        long_(programs::with_timesteps(program_.tuning_input(), 600)) {}

  std::size_t allocations(const ir::InputSpec& input,
                          const RunOptions& options) {
    const std::size_t before = g_allocations.load();
    const RunResult result = engine_.run(engine_.baseline(), input, options);
    const std::size_t count = g_allocations.load() - before;
    EXPECT_GT(result.end_to_end, 0.0);
    return count;
  }

  /// Allocations of an instrumented run minus those of the same plain
  /// run. Runs both once first, so per-input calibration and
  /// first-use statics are not counted.
  std::size_t instrumentation_allocations(const ir::InputSpec& input,
                                          int reps) {
    RunOptions plain;
    plain.repetitions = reps;
    RunOptions instrumented = plain;
    instrumented.instrumented = true;
    allocations(input, plain);
    allocations(input, instrumented);
    const std::size_t with = allocations(input, instrumented);
    const std::size_t without = allocations(input, plain);
    EXPECT_GE(with, without);
    return with - without;
  }

  flags::FlagSpace space_;
  ir::Program program_;
  compiler::Compiler compiler_;
  ExecutionEngine engine_;
  ir::InputSpec short_;
  ir::InputSpec long_;
};

TEST_F(EngineAllocations, InstrumentationCostIsConstantInTimesteps) {
  EXPECT_EQ(instrumentation_allocations(short_, 1),
            instrumentation_allocations(long_, 1));
}

TEST_F(EngineAllocations, InstrumentationCostIsConstantInRepetitions) {
  EXPECT_EQ(instrumentation_allocations(short_, 1),
            instrumentation_allocations(short_, 10));
}

}  // namespace
}  // namespace ft::machine

namespace ft::compiler {
namespace {

class CompilerAllocations : public ::testing::Test {
 protected:
  CompilerAllocations()
      : space_(flags::icc_space()), compiler_(space_, machine::broadwell()) {
    support::Rng rng(11);
    for (int i = 0; i < 8; ++i) pool_.push_back(space_.sample(rng));
  }

  /// A mixed assignment over the CV pool, every module with its own
  /// pick, after building the pool uniformly: every object, and every
  /// (loop, driver CV) object IPO re-optimization reads, is in the table.
  ModuleAssignment warm_mixed(const ir::Program& program, std::uint64_t seed) {
    for (const flags::CompilationVector& cv : pool_) {
      (void)compiler_.build_uniform(program, cv);
    }
    support::Rng rng(seed);
    ModuleAssignment assignment;
    for (std::size_t j = 0; j < program.loops().size(); ++j) {
      assignment.loop_cvs.push_back(pool_[rng.next_below(pool_.size())]);
    }
    assignment.nonloop_cv = pool_[rng.next_below(pool_.size())];
    (void)compiler_.build(program, assignment);  // per-thread scratch
    return assignment;
  }

  /// Allocations of one all-hit build, required to be no more than
  /// those of copying the Executable it returns.
  std::size_t build_allocations(const ir::Program& program,
                                const ModuleAssignment& assignment) {
    const std::size_t misses = compiler_.cache_misses();
    const std::size_t before = g_allocations.load();
    const Executable exe = compiler_.build(program, assignment);
    const std::size_t build = g_allocations.load() - before;
    EXPECT_EQ(compiler_.cache_misses(), misses) << "not an all-hit build";
    const std::size_t before_copy = g_allocations.load();
    const Executable copy = exe;
    const std::size_t own = g_allocations.load() - before_copy;
    EXPECT_EQ(copy.fingerprint, exe.fingerprint);
    EXPECT_LE(build, own) << program.name();
    return build;
  }

  flags::FlagSpace space_;
  Compiler compiler_;
  std::vector<flags::CompilationVector> pool_;
};

TEST_F(CompilerAllocations, AllHitMixedBuildAllocatesOnlyItsExecutable) {
  const ir::Program program = programs::cloverleaf();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    (void)build_allocations(program, warm_mixed(program, seed));
  }
}

TEST_F(CompilerAllocations, AllHitBuildCostIsConstantInModules) {
  // 5, 12 and 16 loops (all names fit the small-string buffer, so each
  // Executable is one allocation), on one compiler.
  const ir::Program swim = programs::swim();
  const ir::Program cl = programs::cloverleaf();
  const ir::Program amg = programs::amg();
  const ModuleAssignment small = warm_mixed(swim, 7);
  const ModuleAssignment medium = warm_mixed(cl, 7);
  const ModuleAssignment large = warm_mixed(amg, 7);
  const std::size_t swim_count = build_allocations(swim, small);
  EXPECT_EQ(build_allocations(cl, medium), swim_count);
  EXPECT_EQ(build_allocations(amg, large), swim_count);
}

}  // namespace
}  // namespace ft::compiler
