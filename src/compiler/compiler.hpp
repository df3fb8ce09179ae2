// Compiler façade: "icc"/"gcc" driver plus "xild"-style linking, with a
// thread-safe object cache (the tuner compiles the same module with the
// same CV thousands of times across search iterations).
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "compiler/linker.hpp"
#include "compiler/pipeline.hpp"
#include "flags/flag_space.hpp"

namespace ft::compiler {

/// Per-module CV assignment for a program: one CV per hot loop (program
/// loop order) plus one for the merged non-loop module.
struct ModuleAssignment {
  std::vector<flags::CompilationVector> loop_cvs;
  flags::CompilationVector nonloop_cv;

  /// Uniform assignment: every module gets `cv` (traditional model).
  [[nodiscard]] static ModuleAssignment uniform(
      const flags::CompilationVector& cv, std::size_t loop_count);
};

class Compiler {
 public:
  /// The compiler borrows the flag space (decoding CVs) and the
  /// architecture; both must outlive it.
  Compiler(const flags::FlagSpace& space, machine::Architecture arch,
           Personality personality = Personality::kIcc);

  [[nodiscard]] const machine::Architecture& arch() const noexcept {
    return arch_;
  }
  [[nodiscard]] Personality personality() const noexcept {
    return personality_;
  }
  [[nodiscard]] const flags::FlagSpace& space() const noexcept {
    return *space_;
  }

  /// Compiles one module (cached by module name + CV + PGO validity).
  [[nodiscard]] CompiledModule compile(const ir::LoopModule& module,
                                       const flags::CompilationVector& cv,
                                       const PgoProfile* pgo = nullptr);

  /// Compiles all modules of `program` per the assignment and links.
  /// `modules_compiled`, when given, receives how many of this build's
  /// modules were cache misses: an exact per-call count, unlike a
  /// cache_misses() delta, which concurrent builds inflate.
  [[nodiscard]] Executable build(const ir::Program& program,
                                 const ModuleAssignment& assignment,
                                 const PgoProfile* pgo = nullptr,
                                 std::size_t* modules_compiled = nullptr);

  /// Convenience: traditional per-program compilation with a single CV.
  [[nodiscard]] Executable build_uniform(const ir::Program& program,
                                         const flags::CompilationVector& cv,
                                         const PgoProfile* pgo = nullptr);

  /// The plain -O3 baseline build (default CV everywhere).
  [[nodiscard]] Executable build_baseline(const ir::Program& program);

  /// Link-effect switches (interference ablation; default all on).
  void set_link_options(const LinkOptions& options) noexcept {
    link_options_ = options;
  }
  [[nodiscard]] const LinkOptions& link_options() const noexcept {
    return link_options_;
  }

  /// Number of pipeline executions that were served from the cache.
  [[nodiscard]] std::size_t cache_hits() const noexcept {
    return cache_hits_;
  }
  [[nodiscard]] std::size_t cache_misses() const noexcept {
    return cache_misses_;
  }
  void clear_cache();

 private:
  /// compile() that also reports whether this call put the object in
  /// the cache (a miss).
  [[nodiscard]] CompiledModule compile(const ir::LoopModule& module,
                                       const flags::CompilationVector& cv,
                                       const PgoProfile* pgo, bool& compiled);

  const flags::FlagSpace* space_;
  machine::Architecture arch_;
  Personality personality_;
  LinkOptions link_options_;

  mutable std::mutex cache_mutex_;
  std::unordered_map<std::uint64_t, CompiledModule> cache_;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
};

}  // namespace ft::compiler
