// Compiler façade: "icc"/"gcc" driver plus "xild"-style linking over one
// immutable object table per compiler. The tuner compiles the same
// module with the same CV thousands of times across search iterations
// (CFR's collection phase builds the object pool; every search variant
// then only links it), so an object is compiled once, kept for the
// compiler's lifetime and linked by reference (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <memory>
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
  ~Compiler();

  [[nodiscard]] const machine::Architecture& arch() const noexcept {
    return arch_;
  }
  [[nodiscard]] Personality personality() const noexcept {
    return personality_;
  }
  [[nodiscard]] const flags::FlagSpace& space() const noexcept {
    return *space_;
  }

  /// Compiles one module through the object table (keyed by the
  /// module's name, kind and features, the full CV and PGO validity).
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

  /// Module lookups (compile() calls and each build's own modules)
  /// served from the object table / that put an object in it. IPO
  /// re-optimization reads in link are neither.
  [[nodiscard]] std::size_t cache_hits() const noexcept;
  [[nodiscard]] std::size_t cache_misses() const noexcept;

  /// Empties the object table. Builds read objects by reference after
  /// releasing the table's lock, so this must not run concurrently with
  /// compile() or build().
  void clear_cache();

 private:
  class ObjectTable;

  const flags::FlagSpace* space_;
  machine::Architecture arch_;
  Personality personality_;
  LinkOptions link_options_;
  std::unique_ptr<ObjectTable> table_;
};

}  // namespace ft::compiler
