#include "compiler/linker.hpp"

#include <algorithm>
#include <stdexcept>

namespace ft::compiler {

using flags::SemanticFlag;

namespace {

std::uint64_t mix_hash(std::uint64_t h, std::uint64_t v) noexcept {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

bool same_cv(const ObjectView& a, const ObjectView& b) noexcept {
  return a.cv == b.cv || *a.cv == *b.cv;
}

}  // namespace

Executable link(const ir::Program& program,
                std::span<const ObjectView> loop_objects,
                const ObjectView& nonloop_object,
                const machine::Architecture& arch, Personality personality,
                const PgoProfile* pgo, const LinkOptions& options) {
  if (loop_objects.size() != program.loops().size()) {
    throw std::invalid_argument("link: object count != program loop count");
  }

  Executable exe;
  exe.loops.reserve(loop_objects.size());

  // Uniform iff every module was compiled with the same CV.
  exe.uniform = std::all_of(
      loop_objects.begin(), loop_objects.end(),
      [&](const ObjectView& object) { return same_cv(object, nonloop_object); });

  // ---- IPO: caller-driven re-optimization --------------------------------
  // The outlined loop functions are called from the non-loop driver code.
  // When both the driver and a loop object participate in IPO (-ipo on
  // each), small loop bodies are inlined into the driver and re-optimized
  // under the DRIVER's settings.
  const flags::SemanticSettings& driver = *nonloop_object.settings;
  const bool driver_ipo = driver.get(SemanticFlag::kIpo) == 1;
  const double driver_inline_factor =
      static_cast<double>(driver.get(SemanticFlag::kInlineFactor));
  const double inline_limit =
      kIpoInlinableBodySize * std::max(driver_inline_factor, 1.0) / 100.0;

  for (std::size_t j = 0; j < loop_objects.size(); ++j) {
    const ObjectView& object = loop_objects[j];
    const ir::LoopModule& loop = program.loops()[j];
    LinkedLoop& linked = exe.loops.emplace_back();
    linked.name = loop.name;
    linked.codegen = *object.codegen;
    linked.settings = *object.settings;

    const bool participates = options.ipo_reoptimization &&
                              object.settings->get(SemanticFlag::kIpo) == 1 &&
                              driver_ipo;
    if (participates && loop.features.body_size <= inline_limit) {
      // Re-run the pipeline under the caller's settings. With matching
      // CVs this reproduces the loop's own decisions (so its object is
      // reused) and only adds the call-elision benefit. With MISMATCHED
      // CVs the link-time optimizer re-transforms code that was already
      // transformed when the object was compiled: it may re-vectorize a
      // loop tuned scalar and unroll an already-unrolled body again -
      // exactly the behaviour the paper observes for CloverLeaf's mom9
      // under G.realized (§4.4.2, Table 3) - exploding register
      // pressure.
      const bool cv_mismatch = !same_cv(object, nonloop_object);
      if (cv_mismatch) {
        LoopCodeGen& cg = linked.codegen;
        cg = object.under_driver_cv != nullptr
                 ? *object.under_driver_cv
                 : generate_code(loop, driver, arch, personality, pgo);
        cg.unroll = std::min(16, cg.unroll * object.codegen->unroll);
        cg.vector_width =
            std::max(cg.vector_width, object.codegen->vector_width);
        cg.spill_severity = spill_severity_for(
            loop.features, cg.unroll, cg.vector_width,
            driver.get(SemanticFlag::kRegAllocStrategy), personality);
        cg.code_size = loop.features.body_size *
                       (1.0 + 0.35 * static_cast<double>(cg.unroll - 1)) *
                       (cg.vectorized() ? 1.25 : 1.0) * cg.inline_growth;
      }
      linked.settings = driver;
      linked.ipo_reoptimized = cv_mismatch;
      // Inlining into the caller elides the call and enables
      // cross-module constant propagation / scheduling: a genuine gain
      // (which is exactly what makes -ipo attractive to per-loop greedy
      // selection - and arms the mixed-CV override trap).
      linked.codegen.compute_mult *= 0.98;
      linked.codegen.overhead_mult *=
          0.97 - 0.25 * loop.features.call_density;
    } else if (participates) {
      // Large bodies are not inlined; IPO still elides some call glue.
      linked.codegen.overhead_mult *=
          1.0 - 0.10 * loop.features.call_density;
    }
  }

  exe.nonloop.name = program.nonloop().name;
  exe.nonloop.codegen = *nonloop_object.codegen;
  exe.nonloop.settings = driver;
  if (driver_ipo && options.ipo_reoptimization) {
    // The driver benefits from seeing the loop callees it inlined and
    // from whole-program analysis of its own scattered call graph: a
    // genuine few-percent win, which is why the rest module's measured
    // winner almost always carries -ipo - and why greedy assembly walks
    // into the re-optimization trap above.
    double avg_call_benefit = 0.0;
    for (const ObjectView& object : loop_objects) {
      if (object.settings->get(SemanticFlag::kIpo) == 1)
        avg_call_benefit += 1.0;
    }
    avg_call_benefit /= static_cast<double>(
        std::max<std::size_t>(loop_objects.size(), 1));
    exe.nonloop.codegen.compute_mult *= 0.985;
    exe.nonloop.codegen.overhead_mult *= 1.0 - 0.03 * avg_call_benefit;
  }

  // ---- shared-data layout / alias mismatches ------------------------------
  // Modules touching the same shared structures must agree on padding
  // and aliasing assumptions; every disagreeing pair costs both sides.
  if (!exe.uniform && options.layout_mismatch_penalties) {
    auto module_shared = [&](std::size_t idx) -> double {
      return idx < program.loops().size()
                 ? program.loops()[idx].features.shared_data
                 : program.nonloop().features.shared_data;
    };
    auto module = [&](std::size_t idx) -> LinkedLoop& {
      return idx < exe.loops.size() ? exe.loops[idx] : exe.nonloop;
    };
    // Each module's penalty accumulates in its interference_mult (still
    // 1.0 here) and is capped once every pair is counted.
    const std::size_t module_count = exe.loops.size() + 1;
    for (std::size_t a = 0; a < module_count; ++a) {
      if (module_shared(a) < 0.25) continue;
      for (std::size_t b = a + 1; b < module_count; ++b) {
        if (module_shared(b) < 0.25) continue;
        const auto& sa = module(a).settings;
        const auto& sb = module(b).settings;
        const double coupling = module_shared(a) * module_shared(b);
        double pair_penalty = 1.0;
        if (sa.get(SemanticFlag::kStructPad) !=
            sb.get(SemanticFlag::kStructPad)) {
          pair_penalty *= 1.0 + 0.02 * coupling;
        }
        if (sa.get(SemanticFlag::kAnsiAlias) !=
            sb.get(SemanticFlag::kAnsiAlias)) {
          pair_penalty *= 1.0 + 0.012 * coupling;
        }
        module(a).interference_mult *= pair_penalty;
        module(b).interference_mult *= pair_penalty;
      }
    }
    for (std::size_t idx = 0; idx < module_count; ++idx) {
      double& mult = module(idx).interference_mult;
      mult = std::min(mult, 1.15);
    }
  }

  // ---- instruction-cache pressure -----------------------------------------
  double total_code = exe.nonloop.codegen.code_size;
  for (const LinkedLoop& linked : exe.loops) {
    total_code += linked.codegen.code_size;
  }
  const double icache_limit = arch.icache_kb * 24.0;  // abstract-op budget
  if (total_code > icache_limit && options.icache_pressure) {
    exe.global_mult =
        std::min(1.25, 1.0 + 0.06 * (total_code / icache_limit - 1.0));
  }

  // ---- fingerprint -----------------------------------------------------------
  std::uint64_t h = 0x51ed270b8d5c3f4bULL;
  for (const ObjectView& object : loop_objects) {
    h = mix_hash(h, object.cv->hash());
  }
  h = mix_hash(h, nonloop_object.cv->hash());
  for (const LinkedLoop& linked : exe.loops) {
    h = mix_hash(h, linked.codegen.hash());
  }
  h = mix_hash(h, exe.nonloop.codegen.hash());
  exe.fingerprint = h;

  return exe;
}

Executable link(const ir::Program& program,
                const std::vector<CompiledModule>& loop_objects,
                const CompiledModule& nonloop_object,
                const machine::Architecture& arch, Personality personality,
                const PgoProfile* pgo, const LinkOptions& options) {
  const auto view = [](const CompiledModule& object) {
    return ObjectView{&object.cv, &object.settings, &object.codegen};
  };
  std::vector<ObjectView> views;
  views.reserve(loop_objects.size());
  for (const CompiledModule& object : loop_objects) {
    views.push_back(view(object));
  }
  return link(program, views, view(nonloop_object), arch, personality, pgo,
              options);
}

}  // namespace ft::compiler
