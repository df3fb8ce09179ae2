// The optimizing pass pipeline of the simulated compiler.
//
// compile_module() maps (loop features, decoded flag settings,
// architecture, optional PGO profile) to the optimization decisions in a
// LoopCodeGen, the way a production compiler's heuristics would - using
// only *statically visible* features unless a PGO profile supplies
// dynamic truth. The deliberate gap between static heuristics and the
// machine model's true cost is the tuning headroom the paper's search
// exploits (DESIGN.md §4).
#pragma once

#include <string>

#include "compiler/codegen.hpp"
#include "flags/compilation_vector.hpp"
#include "flags/semantics.hpp"
#include "ir/program.hpp"
#include "machine/architecture.hpp"

namespace ft::compiler {

/// Compiler personality: ICC-like (aggressive, processor-specific
/// flags) vs GCC-like (more conservative vectorizer). Fig 1 needs both.
enum class Personality { kIcc, kGcc };

[[nodiscard]] inline const char* personality_name(Personality p) noexcept {
  return p == Personality::kIcc ? "ICC" : "GCC";
}

/// Profile-guided-optimization data gathered by an instrumentation run.
/// When valid, heuristics see dynamic features (true divergence, trip
/// counts, working sets) instead of static approximations.
struct PgoProfile {
  bool valid = false;
};

/// One compiled object file: the module's flag settings and the
/// resulting codegen decisions.
struct CompiledModule {
  std::string module_name;
  flags::CompilationVector cv;
  flags::SemanticSettings settings;
  LoopCodeGen codegen;
  bool is_loop = true;
};

/// Runs the full pass pipeline on one module.
[[nodiscard]] CompiledModule compile_module(
    const ir::LoopModule& module, const flags::CompilationVector& cv,
    const flags::SemanticSettings& settings,
    const machine::Architecture& arch, Personality personality,
    const PgoProfile* pgo = nullptr);

/// The pipeline's decisions alone: compile_module()'s codegen, without
/// copying the module name, CV and settings into an object. It depends
/// only on the module's features and kind, the settings, the
/// architecture, the personality and PGO validity.
[[nodiscard]] LoopCodeGen generate_code(const ir::LoopModule& module,
                                        const flags::SemanticSettings& settings,
                                        const machine::Architecture& arch,
                                        Personality personality,
                                        const PgoProfile* pgo = nullptr);

/// Register-spill severity for a (features, unroll, width) combination
/// under a register-allocation strategy; used by the pipeline and by
/// the linker when IPO re-transforms already-transformed code.
[[nodiscard]] double spill_severity_for(const ir::LoopFeatures& features,
                                        int unroll, int vector_width,
                                        int ra_strategy,
                                        Personality personality);

/// The vectorizer's profitability estimate for a given width, exposed
/// for tests and the case-study bench (Table 3 explanations).
[[nodiscard]] double vectorizer_estimate(const ir::LoopFeatures& features,
                                         int width_bits,
                                         const machine::Architecture& arch,
                                         Personality personality,
                                         bool dynamic_info);

}  // namespace ft::compiler
