// Link step: combines per-module objects into an executable and applies
// the cross-module effects that make per-module compilation NOT
// independent (the paper's central observation, §1 and §4.4.2):
//
//  * IPO re-optimization - outlined loop functions inlined into their
//    caller are re-optimized under the *caller's* flag settings,
//    overriding tuned per-module decisions (Table 3: G.realized
//    re-vectorizes mom9 although its module CV chose scalar).
//  * shared-data layout/alias mismatches between modules compiled with
//    conflicting -pad / -ansi-alias settings cost marshalling checks.
//  * aggregate code growth overflowing the instruction cache penalizes
//    the whole program.
//
// A uniform link (all modules compiled with the same CV, as in the
// FuncyTuner collection phase, Fig 4) produces none of the mismatch
// penalties - which is exactly why greedily combining per-loop winners
// measured under uniform compilation misleads (G.realized vs
// G.Independent).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compiler/pipeline.hpp"

namespace ft::compiler {

/// One loop in the final executable: post-link codegen plus link-level
/// penalty factors consumed by the machine cost model.
struct LinkedLoop {
  std::string name;
  LoopCodeGen codegen;
  flags::SemanticSettings settings;
  double interference_mult = 1.0;  ///< static link-mismatch penalties
  bool ipo_reoptimized = false;    ///< codegen replaced by caller's CV
};

/// A fully linked program image.
struct Executable {
  std::vector<LinkedLoop> loops;  ///< in program (time-step) order
  LinkedLoop nonloop;
  double global_mult = 1.0;    ///< icache-pressure penalty, all modules
  std::uint64_t fingerprint = 0;  ///< content hash, keys measurement noise
  bool uniform = true;  ///< all modules were compiled with the same CV
};

/// Body size below which a loop function is inlinable by IPO (scaled by
/// the caller's inline factor).
inline constexpr double kIpoInlinableBodySize = 64.0;

/// Switches for the cross-module link effects; disabling them creates
/// the counterfactual "modules really are independent" world used by
/// the interference ablation (and by tests of the causal claim that
/// greedy combination fails BECAUSE of these effects).
struct LinkOptions {
  bool ipo_reoptimization = true;       ///< caller-driven re-transforms
  bool layout_mismatch_penalties = true;  ///< -pad / -ansi-alias pairs
  bool icache_pressure = true;
  [[nodiscard]] static LinkOptions none() noexcept {
    return {false, false, false};
  }
};

/// One module's object as link() reads it: borrowed references into
/// the compiler's object table (or into a caller's CompiledModule),
/// never copies. The module's name comes from the Program.
struct ObjectView {
  const flags::CompilationVector* cv = nullptr;
  const flags::SemanticSettings* settings = nullptr;
  const LoopCodeGen* codegen = nullptr;
  /// Loops only: the same loop compiled under the driver's (non-loop)
  /// CV, when the caller holds that object. IPO re-optimization of a
  /// loop whose CV differs from the driver's reads it instead of
  /// re-running the pipeline; null means link() runs it.
  const LoopCodeGen* under_driver_cv = nullptr;
};

/// Links loop objects (program loop order) plus the non-loop object.
/// Every object must have been compiled with `pgo`: a loop whose CV
/// equals the driver's is re-optimized by reusing its own codegen,
/// which is then exactly what re-running the pipeline would produce.
[[nodiscard]] Executable link(const ir::Program& program,
                              std::span<const ObjectView> loop_objects,
                              const ObjectView& nonloop_object,
                              const machine::Architecture& arch,
                              Personality personality,
                              const PgoProfile* pgo = nullptr,
                              const LinkOptions& options = {});

/// link() over owned objects, e.g. from compile_module(): the uncached
/// reference path the object table is tested against.
[[nodiscard]] Executable link(const ir::Program& program,
                              const std::vector<CompiledModule>& loop_objects,
                              const CompiledModule& nonloop_object,
                              const machine::Architecture& arch,
                              Personality personality,
                              const PgoProfile* pgo = nullptr,
                              const LinkOptions& options = {});

}  // namespace ft::compiler
