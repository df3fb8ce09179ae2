// ThreadSanitizer harness for the compiler's object table: four threads
// build overlapping CFR-style assignments of two programs on one
// Compiler, racing to compile and publish the same objects while other
// builds read objects by reference outside the table's lock. Every
// build must be bit-identical to a serial build, and every distinct
// object must be compiled exactly once.
//
// Built outside the CMake tree (no gtest dependency) so the sanitizer
// run instruments every frame:
//   g++ -std=c++20 -fsanitize=thread -g -O1 -Isrc \
//     tests/tsan/compiler_tsan.cpp src/compiler/*.cpp src/flags/*.cpp \
//     src/ir/*.cpp src/machine/architecture.cpp src/programs/benchmarks.cpp \
//     src/telemetry/*.cpp src/support/*.cpp src/caliper/clock.cpp \
//     -o compiler_tsan -lpthread && ./compiler_tsan
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "compiler/compiler.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/rng.hpp"

using namespace ft;

namespace {

void require(bool condition, const char* what) {
  if (!condition) {
    std::fprintf(stderr, "compiler_tsan: %s\n", what);
    std::exit(1);
  }
}

struct Case {
  std::size_t program = 0;
  compiler::ModuleAssignment assignment;
};

}  // namespace

int main() {
  const flags::FlagSpace space = flags::icc_space();
  const std::vector<ir::Program> programs = {programs::cloverleaf(),
                                             programs::lulesh()};
  // A collection phase (uniform builds of a CV pool) interleaved with
  // assembled variants over the same pool, as CFR does.
  support::Rng rng(5);
  std::vector<flags::CompilationVector> pool;
  for (int i = 0; i < 12; ++i) pool.push_back(space.sample(rng));
  std::vector<Case> cases;
  std::set<std::tuple<std::size_t, std::size_t, std::vector<std::uint8_t>>>
      objects;
  for (int i = 0; i < 240; ++i) {
    Case c;
    c.program = rng.next_below(programs.size());
    const std::size_t loops = programs[c.program].loops().size();
    if (i % 3 == 0) {
      c.assignment = compiler::ModuleAssignment::uniform(
          pool[rng.next_below(pool.size())], loops);
    } else {
      for (std::size_t j = 0; j < loops; ++j) {
        c.assignment.loop_cvs.push_back(pool[rng.next_below(pool.size())]);
      }
      c.assignment.nonloop_cv = pool[rng.next_below(pool.size())];
    }
    for (std::size_t j = 0; j < loops; ++j) {
      objects.emplace(c.program, j, c.assignment.loop_cvs[j].choices());
    }
    objects.emplace(c.program, loops, c.assignment.nonloop_cv.choices());
    cases.push_back(std::move(c));
  }

  compiler::Compiler serial_compiler(space, machine::broadwell());
  std::vector<std::uint64_t> serial;
  for (const Case& c : cases) {
    serial.push_back(
        serial_compiler.build(programs[c.program], c.assignment).fingerprint);
  }

  for (int round = 0; round < 4; ++round) {
    compiler::Compiler compiler(space, machine::broadwell());
    constexpr std::size_t kThreads = 4;
    std::vector<std::vector<std::uint64_t>> built(
        kThreads, std::vector<std::uint64_t>(cases.size(), 0));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Even threads walk forward, odd ones backward, from staggered
        // starts: every case is built by at least two threads.
        const std::size_t n = cases.size();
        for (std::size_t step = 0; step < n / 2 + n / 4; ++step) {
          const std::size_t i = t % 2 == 0 ? (t * n / 4 + step) % n
                                           : (n + t * n / 4 - step) % n;
          built[t][i] =
              compiler.build(programs[cases[i].program], cases[i].assignment)
                  .fingerprint;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    for (const auto& fingerprints : built) {
      for (std::size_t i = 0; i < cases.size(); ++i) {
        require(fingerprints[i] == 0 || fingerprints[i] == serial[i],
                "a concurrent build differs from the serial one");
      }
    }
    require(compiler.cache_misses() == objects.size(),
            "an object was compiled more or less than once");
  }
  require(serial_compiler.cache_misses() == objects.size(),
          "serial miss count is not the number of distinct objects");
  std::printf("compiler_tsan: ok (%zu builds, %zu objects)\n", cases.size(),
              objects.size());
  return 0;
}
