#include "compiler/pipeline.hpp"

#include <algorithm>
#include <cmath>

namespace ft::compiler {

using flags::SemanticFlag;

namespace {

/// Register-pressure model: scalar pressure inflated by unrolling and
/// wide vectors; the register-allocation strategy shifts it slightly.
double pressure_after(const ir::LoopFeatures& f, int unroll, int width,
                      int ra_strategy, Personality personality) {
  double pressure = f.register_pressure;
  pressure *= 1.0 + 0.16 * static_cast<double>(unroll - 1);
  if (width >= 256) {
    pressure *= 1.18;
  } else if (width > 0) {
    pressure *= 1.08;
  }
  if (personality == Personality::kGcc) pressure *= 1.05;
  switch (ra_strategy) {
    case 1:  // block
      pressure *= 0.95;
      break;
    case 2:  // trace
      pressure *= 1.05;
      break;
    case 3:  // region
      pressure *= 0.90;
      break;
    default:
      break;
  }
  return pressure;
}

int heuristic_unroll(const ir::LoopFeatures& f) {
  if (f.body_size <= 20) return 4;
  if (f.body_size <= 32) return 3;
  if (f.body_size <= 48) return 2;
  return 1;
}

}  // namespace

double spill_severity_for(const ir::LoopFeatures& features, int unroll,
                          int vector_width, int ra_strategy,
                          Personality personality) {
  const double pressure = pressure_after(features, unroll, vector_width,
                                         ra_strategy, personality);
  return std::max(0.0, pressure - 0.95);
}

double vectorizer_estimate(const ir::LoopFeatures& f, int width_bits,
                           const machine::Architecture& arch,
                           Personality personality, bool dynamic_info) {
  const double lanes = static_cast<double>(width_bits) / 64.0;  // FP64
  // Static heuristics see branch structure, not taken rates; PGO
  // substitutes the dynamic divergence. Penalties scale with the number
  // of extra lanes, which is why wider is not always estimated better
  // (e.g. ICC's 128-bit choice for CloverLeaf's mom9 on Broadwell).
  const double divergence =
      dynamic_info ? f.divergence : f.static_branchiness;
  const double extra_lanes = lanes - 1.0;
  const double div_penalty = 1.0 + divergence * 0.8 * extra_lanes;
  const double stride_penalty =
      1.0 + (1.0 - f.unit_stride_frac) * 0.7 * extra_lanes;
  double estimate =
      lanes / (div_penalty * stride_penalty * (1.0 + f.dependence * 2.5));
  if (personality == Personality::kGcc) estimate *= 0.85;
  if (arch.split_256 && width_bits == 256) estimate *= 0.8;
  return estimate;
}

CompiledModule compile_module(const ir::LoopModule& module,
                              const flags::CompilationVector& cv,
                              const flags::SemanticSettings& settings,
                              const machine::Architecture& arch,
                              Personality personality,
                              const PgoProfile* pgo) {
  CompiledModule object;
  object.module_name = module.name;
  object.cv = cv;
  object.settings = settings;
  object.codegen = generate_code(module, settings, arch, personality, pgo);
  object.is_loop = module.is_loop;
  return object;
}

LoopCodeGen generate_code(const ir::LoopModule& module,
                          const flags::SemanticSettings& settings,
                          const machine::Architecture& arch,
                          Personality personality, const PgoProfile* pgo) {
  const ir::LoopFeatures& f = module.features;
  const bool dynamic_info = pgo != nullptr && pgo->valid;

  LoopCodeGen g;
  g.opt_level = settings.get(SemanticFlag::kOptLevel);

  // ---- optimization level -------------------------------------------------
  const bool loop_opts_enabled = g.opt_level >= 2;
  if (g.opt_level == 2) {
    g.compute_mult *= 1.04;
    g.mem_mult *= 1.03;
  } else if (g.opt_level <= 1) {
    g.compute_mult *= 1.18;
    g.mem_mult *= 1.10;
  }

  // ---- vectorizer ----------------------------------------------------------
  // Legality: provable absence of loop-carried dependences. Unprovable
  // pointer aliasing blocks auto-vectorization unless the compiler can
  // multi-version with runtime checks; an explicit width request acts
  // like a `#pragma simd` assertion and overrides the alias doubt.
  g.multi_versioned = settings.get(SemanticFlag::kMultiVersion) == 1;
  const bool dep_legal = f.dependence < 0.85 && loop_opts_enabled &&
                         settings.get(SemanticFlag::kVectorize) == 1;
  const bool alias_clear = f.alias_uncertainty < 0.6 || g.multi_versioned;
  const int simd_pref = settings.get(SemanticFlag::kSimdWidthPref);
  if (dep_legal) {
    if (simd_pref > 0) {
      // Explicit width request: the tuner forcing its will.
      g.vector_width = std::min(simd_pref, arch.max_simd_bits);
    } else if (alias_clear) {
      // Auto: profitability estimate from (mostly static) features.
      double threshold = personality == Personality::kIcc ? 1.10 : 1.30;
      if (g.multi_versioned) threshold *= 0.85;
      double best_estimate = 0.0;
      int best_width = 0;
      for (const int width : {128, 256}) {
        if (width > arch.max_simd_bits) continue;
        const double estimate =
            vectorizer_estimate(f, width, arch, personality, dynamic_info);
        if (estimate > threshold && estimate > best_estimate + 1e-9) {
          best_estimate = estimate;
          best_width = width;
        }
      }
      g.vector_width = best_width;
      // PGO knows real trip counts: skip vectorizing short loops.
      if (dynamic_info && f.trip_count < 64.0) g.vector_width = 0;
    }
  }

  // ---- unroller -------------------------------------------------------------
  int unroll = 1;
  if (loop_opts_enabled) {
    const int requested = settings.get(SemanticFlag::kUnroll);
    if (requested < 0) {
      unroll = heuristic_unroll(f);
      // The auto-unroller consults its own (lenient) register-pressure
      // estimate, made before vectorization - it prevents the worst
      // blow-ups but still over-unrolls borderline loops (dt keeps its
      // spilling unroll2, Table 3).
      while (unroll > 1 &&
             pressure_after(f, unroll, /*width=*/0, /*ra=*/0,
                            personality) > 1.1) {
        unroll /= 2;
      }
      if (settings.get(SemanticFlag::kUnrollAggressive) == 1) unroll *= 2;
    } else {
      unroll = std::max(requested, 1);
    }
    const int cap =
        settings.get(SemanticFlag::kOverrideLimits) == 1 ? 16 : 8;
    unroll = std::clamp(unroll, 1, cap);
    if (dynamic_info) {
      // PGO trip counts: never unroll beyond a fraction of the trips.
      while (unroll > 1 &&
             static_cast<double>(unroll) * 8.0 > f.trip_count) {
        unroll /= 2;
      }
      unroll = std::max(unroll, 1);
    }
  }
  g.unroll = unroll;

  // Aggressive multi-versioning is not free: every versioned loop pays
  // runtime alias/dispatch checks on top of the code growth.
  if (g.multi_versioned) {
    g.compute_mult *= 1.025;
    g.overhead_mult *= 1.04;
  }

  // ---- register allocation / spilling ---------------------------------------
  const int ra_strategy = settings.get(SemanticFlag::kRegAllocStrategy);
  const double pressure =
      pressure_after(f, g.unroll, g.vector_width, ra_strategy, personality);
  g.spill_severity = std::max(0.0, pressure - 0.95);
  if (ra_strategy == 2) g.compute_mult *= 0.99;  // trace: better ILP
  if (ra_strategy == 3) g.compute_mult *= 1.01;  // region: compile cost

  // ---- streaming stores ------------------------------------------------------
  switch (settings.get(SemanticFlag::kStreamingStores)) {
    case 1:
      g.streaming_stores = true;
      break;
    case 2:
      g.streaming_stores = false;
      break;
    default:
      // Auto: static heuristic keys on store share and (with PGO) the
      // true working set vs. LLC; statically it only sees trip counts.
      if (dynamic_info) {
        g.streaming_stores =
            f.store_frac >= 0.45 && f.working_set_mb > arch.total_llc_mb();
      } else {
        g.streaming_stores = f.store_frac >= 0.45 && f.trip_count >= 4096;
      }
      break;
  }

  // ---- prefetching -------------------------------------------------------------
  g.prefetch = settings.get(SemanticFlag::kPrefetch);

  // ---- cache blocking -----------------------------------------------------------
  const int block = settings.get(SemanticFlag::kBlockFactor);
  if (block > 0 && loop_opts_enabled && f.unit_stride_frac > 0.5) {
    g.tile = block;
  }

  // ---- FMA contraction -------------------------------------------------------------
  g.fma = settings.get(SemanticFlag::kFma) == 1 && arch.has_fma &&
          f.fp_intensity > 0.0;

  // ---- instruction scheduling (IO) ---------------------------------------------------
  switch (settings.get(SemanticFlag::kScheduling)) {
    case 1:  // list: wins on big straight-line bodies only
      g.sched_reordered = true;
      g.compute_mult *=
          (f.body_size > 50.0 && f.divergence < 0.2) ? 0.97 : 1.02;
      break;
    case 2:  // trace: wins only when branches actually diverge
      g.sched_reordered = true;
      g.compute_mult *=
          (f.static_branchiness > 0.5 && f.divergence > 0.35) ? 0.96
                                                              : 1.025;
      break;
    case 3:  // aggressive: needs dependence-free bodies
      g.sched_reordered = true;
      g.compute_mult *= f.dependence < 0.05 ? 0.96 : 1.03;
      break;
    default:
      break;
  }

  // ---- instruction selection (IS) -----------------------------------------------------
  if (settings.get(SemanticFlag::kInstrSelection) == 1) {
    g.aggressive_isel = true;
    g.compute_mult *= f.fp_intensity > 0.85 ? 0.985 : 1.015;
  }

  // ---- software pipelining ---------------------------------------------------------------
  g.sw_pipelined =
      settings.get(SemanticFlag::kSwPipelining) == 1 && loop_opts_enabled;
  if (g.sw_pipelined) {
    g.compute_mult *= f.dependence < 0.3 ? 0.985 : 1.005;
  }

  // ---- the long tail of minor flags -------------------------------------------------------
  if (settings.get(SemanticFlag::kScalarRep) == 0) g.compute_mult *= 1.02;
  if (settings.get(SemanticFlag::kLoopFusion) == 0 && f.shared_data > 0.3) {
    g.mem_mult *= 1.02;
  }
  if (settings.get(SemanticFlag::kLoopInterchange) == 0 &&
      f.unit_stride_frac < 0.5) {
    g.mem_mult *= 1.06;  // interchange was fixing the stride
  }
  if (settings.get(SemanticFlag::kLoopDistribution) == 1) {
    g.compute_mult *= f.body_size > 60.0 ? 0.98 : 1.01;
  }
  if (settings.get(SemanticFlag::kRerolling) == 0) g.compute_mult *= 1.005;
  if (settings.get(SemanticFlag::kOmitFramePointer) == 0) {
    g.compute_mult *= 1.012;
  }
  if (settings.get(SemanticFlag::kAlignLoops) == 0) g.overhead_mult *= 1.03;
  if (settings.get(SemanticFlag::kDynamicAlign) == 0) {
    g.compute_mult *= g.vectorized() ? 1.02 : 0.998;
  }
  if (settings.get(SemanticFlag::kAlignFunctions) == 32) {
    g.overhead_mult *= 0.997;
  }
  if (settings.get(SemanticFlag::kJumpTables) == 0) {
    g.compute_mult *= f.static_branchiness > 0.3 ? 1.02 : 0.999;
  }
  if (settings.get(SemanticFlag::kMatMul) == 1) g.overhead_mult *= 1.002;
  if (settings.get(SemanticFlag::kSafePadding) == 1) {
    g.compute_mult *= g.vectorized() ? 0.988 : 1.004;
  }
  switch (settings.get(SemanticFlag::kMemLayoutTrans)) {
    case 0:
      g.mem_mult *= 1.02;
      break;
    case 2:
      g.mem_mult *= f.shared_data > 0.45 ? 0.99 : 1.005;
      break;
    case 3:
      g.mem_mult *= f.shared_data > 0.6 ? 0.98 : 1.02;
      break;
    default:
      break;
  }
  if (settings.get(SemanticFlag::kOptCalloc) == 1) {
    g.overhead_mult *= module.is_loop ? 1.001 : 0.995;
  }

  // Strict aliasing: with heavily shared data the strict model forces
  // runtime disambiguation checks; -no-ansi-alias removes them at the
  // price of weaker optimization on private-data code. (This is why the
  // paper's best CVs retain -no-ansi-alias, §4.4.2.)
  if (settings.get(SemanticFlag::kAnsiAlias) == 1) {
    if (f.shared_data > 0.5) g.overhead_mult *= 1.015;
  } else {
    if (f.shared_data < 0.2) g.compute_mult *= 1.02;
  }

  // ---- inlining within the module -------------------------------------------------------
  const double inline_factor =
      static_cast<double>(settings.get(SemanticFlag::kInlineFactor));
  g.inline_growth =
      1.0 + f.call_density * std::min(inline_factor / 100.0, 4.0) * 0.15;
  if (inline_factor < 100.0) {
    g.overhead_mult *=
        1.0 + f.call_density * 0.3 * (1.0 - inline_factor / 100.0);
  } else if (inline_factor > 100.0) {
    g.overhead_mult *=
        1.0 -
        f.call_density * 0.04 * std::min(2.0, inline_factor / 100.0 - 1.0);
  }

  // ---- code size ---------------------------------------------------------------------------
  const double unroll_growth = 1.0 + 0.35 * static_cast<double>(g.unroll - 1);
  const double vec_growth = g.vectorized() ? 1.25 : 1.0;
  const double mv_growth = g.multi_versioned ? 1.15 : 1.0;
  g.code_size =
      f.body_size * unroll_growth * vec_growth * mv_growth * g.inline_growth;

  return g;
}

}  // namespace ft::compiler
