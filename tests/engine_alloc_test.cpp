// Allocation gate for the instrumented run: counts heap allocations by
// replacing the global operator new, and requires the allocations an
// instrumented run makes beyond a plain one to be a constant - not
// growing with the time-step count or the repetition count. A gate on
// a deterministic counter instead of wall time, so it cannot flake.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "compiler/compiler.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "machine/execution_engine.hpp"
#include "programs/benchmarks.hpp"

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
