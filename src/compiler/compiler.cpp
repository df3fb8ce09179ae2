#include "compiler/compiler.hpp"

#include <stdexcept>

#include "support/rng.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ft::compiler {

namespace {

/// Deterministic per-build decision counts: counted from the objects a
/// build() returns (cached or not), so the totals depend only on what
/// was built, never on which thread compiled first.
void count_decisions(const std::vector<CompiledModule>& loop_objects) {
  telemetry::MetricsRegistry& registry = telemetry::metrics();
  static telemetry::Counter& vectorized =
      registry.counter("compiler.decisions.vectorized");
  static telemetry::Counter& unrolled =
      registry.counter("compiler.decisions.unrolled");
  static telemetry::Counter& isel =
      registry.counter("compiler.decisions.aggressive_isel");
  static telemetry::Counter& reordered =
      registry.counter("compiler.decisions.sched_reordered");
  static telemetry::Counter& spilled =
      registry.counter("compiler.decisions.spilled");
  static telemetry::Counter& streaming =
      registry.counter("compiler.decisions.streaming_stores");
  for (const CompiledModule& object : loop_objects) {
    const LoopCodeGen& cg = object.codegen;
    if (cg.vectorized()) vectorized.add();
    if (cg.unroll > 1) unrolled.add();
    if (cg.aggressive_isel) isel.add();
    if (cg.sched_reordered) reordered.add();
    if (cg.spills()) spilled.add();
    if (cg.streaming_stores) streaming.add();
  }
}

}  // namespace

ModuleAssignment ModuleAssignment::uniform(const flags::CompilationVector& cv,
                                           std::size_t loop_count) {
  ModuleAssignment assignment;
  assignment.loop_cvs.assign(loop_count, cv);
  assignment.nonloop_cv = cv;
  return assignment;
}

Compiler::Compiler(const flags::FlagSpace& space, machine::Architecture arch,
                   Personality personality)
    : space_(&space), arch_(std::move(arch)), personality_(personality) {}

CompiledModule Compiler::compile(const ir::LoopModule& module,
                                 const flags::CompilationVector& cv,
                                 const PgoProfile* pgo) {
  bool compiled = false;
  return compile(module, cv, pgo, compiled);
}

CompiledModule Compiler::compile(const ir::LoopModule& module,
                                 const flags::CompilationVector& cv,
                                 const PgoProfile* pgo, bool& compiled) {
  compiled = false;
  const bool pgo_valid = pgo != nullptr && pgo->valid;
  std::uint64_t key = cv.hash();
  key ^= support::fnv1a64(module.name);
  if (pgo_valid) key ^= 0xa5a5a5a5a5a5a5a5ULL;

  {
    std::lock_guard lock(cache_mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++cache_hits_;
      if (telemetry::enabled()) {
        // Hit/miss split races under parallel batches (two threads can
        // both miss the same key), so these are snapshot-only metrics.
        static telemetry::Counter& hits = telemetry::metrics().counter(
            "compiler.cache_hits", /*deterministic=*/false);
        hits.add();
      }
      return it->second;
    }
  }

  CompiledModule object = compile_module(module, cv, space_->decode(cv),
                                         arch_, personality_, pgo);
  {
    // Two threads can both miss the same key and compile it; only the
    // one whose object lands in the cache counts the miss, so the miss
    // total is the number of distinct objects whatever the schedule.
    std::lock_guard lock(cache_mutex_);
    compiled = cache_.emplace(key, object).second;
    if (compiled) {
      ++cache_misses_;
    } else {
      ++cache_hits_;
    }
  }
  if (compiled && telemetry::enabled()) {
    static telemetry::Counter& misses = telemetry::metrics().counter(
        "compiler.cache_misses", /*deterministic=*/false);
    misses.add();
  }
  return object;
}

Executable Compiler::build(const ir::Program& program,
                           const ModuleAssignment& assignment,
                           const PgoProfile* pgo,
                           std::size_t* modules_compiled) {
  if (assignment.loop_cvs.size() != program.loops().size()) {
    throw std::invalid_argument(
        "build: assignment has " + std::to_string(assignment.loop_cvs.size()) +
        " loop CVs but program has " +
        std::to_string(program.loops().size()) + " loops");
  }
  std::size_t misses = 0;
  bool compiled = false;
  std::vector<CompiledModule> loop_objects;
  loop_objects.reserve(program.loops().size());
  for (std::size_t j = 0; j < program.loops().size(); ++j) {
    loop_objects.push_back(
        compile(program.loops()[j], assignment.loop_cvs[j], pgo, compiled));
    misses += compiled ? 1 : 0;
  }
  const CompiledModule nonloop_object =
      compile(program.nonloop(), assignment.nonloop_cv, pgo, compiled);
  misses += compiled ? 1 : 0;
  if (modules_compiled != nullptr) *modules_compiled = misses;
  if (telemetry::enabled()) {
    static telemetry::Counter& builds =
        telemetry::metrics().counter("compiler.builds");
    static telemetry::Counter& links =
        telemetry::metrics().counter("compiler.links");
    builds.add();
    links.add();
    count_decisions(loop_objects);
  }
  return link(program, loop_objects, nonloop_object, arch_, personality_,
              pgo, link_options_);
}

Executable Compiler::build_uniform(const ir::Program& program,
                                   const flags::CompilationVector& cv,
                                   const PgoProfile* pgo) {
  return build(program,
               ModuleAssignment::uniform(cv, program.loops().size()), pgo);
}

Executable Compiler::build_baseline(const ir::Program& program) {
  return build_uniform(program, space_->default_cv());
}

void Compiler::clear_cache() {
  std::lock_guard lock(cache_mutex_);
  cache_.clear();
  cache_hits_ = 0;
  cache_misses_ = 0;
}

}  // namespace ft::compiler
