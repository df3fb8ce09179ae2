#include "compiler/compiler.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace ft::compiler {

namespace {

/// Deterministic per-build decision counts: counted from the objects a
/// build() links (cached or not), so the totals depend only on what
/// was built, never on which thread compiled first.
void count_decisions(std::span<const ObjectView> loop_objects) {
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
  // Summed first: one atomic add per counter and build.
  std::uint64_t counts[6] = {};
  for (const ObjectView& object : loop_objects) {
    const LoopCodeGen& cg = *object.codegen;
    counts[0] += cg.vectorized() ? 1 : 0;
    counts[1] += cg.unroll > 1 ? 1 : 0;
    counts[2] += cg.aggressive_isel ? 1 : 0;
    counts[3] += cg.sched_reordered ? 1 : 0;
    counts[4] += cg.spills() ? 1 : 0;
    counts[5] += cg.streaming_stores ? 1 : 0;
  }
  telemetry::Counter* counters[6] = {&vectorized, &unrolled, &isel,
                                     &reordered,  &spilled,  &streaming};
  for (int i = 0; i < 6; ++i) {
    if (counts[i] > 0) counters[i]->add(counts[i]);
  }
}

/// Hit/miss split races under parallel batches (two threads can both
/// miss the same key), so these are snapshot-only metrics.
void count_lookups(std::size_t hits, std::size_t misses) {
  static telemetry::Counter& hit_counter = telemetry::metrics().counter(
      "compiler.cache_hits", /*deterministic=*/false);
  static telemetry::Counter& miss_counter = telemetry::metrics().counter(
      "compiler.cache_misses", /*deterministic=*/false);
  if (hits > 0) hit_counter.add(hits);
  if (misses > 0) miss_counter.add(misses);
}

/// Append-only rows whose addresses never change, so a reference taken
/// under the table's lock stays valid after it is released, while
/// other builds append.
template <class T>
class StableRows {
 public:
  [[nodiscard]] T& operator[](std::uint32_t i) noexcept {
    return chunks_[i / kChunk][i % kChunk];
  }
  /// Appends `value` and returns its index. A chunk is reserved whole
  /// and never grows past it, so its elements never move.
  std::uint32_t push_back(T value) {
    if (size_ % kChunk == 0) chunks_.emplace_back().reserve(kChunk);
    chunks_.back().push_back(std::move(value));
    return size_++;
  }
  void clear() noexcept {
    chunks_.clear();
    size_ = 0;
  }

 private:
  static constexpr std::uint32_t kChunk = 256;
  std::vector<std::vector<T>> chunks_;
  std::uint32_t size_ = 0;
};

}  // namespace

/// The object table. Every member is guarded by `mutex`, except that
/// module, CV-row and codegen contents never change once added, so a
/// build may read them through pointers after releasing the lock.
class Compiler::ObjectTable {
 public:
  /// A module as objects are keyed by: generate_code() reads its kind
  /// and features; the name keeps distinct loops (and their compile
  /// counts) apart, as the program names them.
  struct Module {
    std::string name;
    bool is_loop = true;
    ir::LoopFeatures features;
  };

  /// One distinct CV, stored, hashed and decoded once.
  /// objects[2 * module + pgo_valid] is the index + 1 of the codegen of
  /// that module compiled with this CV, 0 while there is none.
  struct CvRow {
    flags::CompilationVector cv;
    flags::SemanticSettings settings;
    std::vector<std::uint32_t> objects;
  };

  /// One module of a compile() or build() in flight.
  struct Slot {
    const flags::CompilationVector* cv = nullptr;
    const ir::LoopModule* module = nullptr;
    std::uint32_t module_row = 0;
    CvRow* row = nullptr;                // null until the CV is in the table
    const LoopCodeGen* codegen = nullptr;  // null until the object is
    // A miss: its settings (the row's, or decoded once per distinct new
    // CV of the build), the earlier slot of the build with the same new
    // CV if any, and its freshly generated code.
    const flags::SemanticSettings* settings = nullptr;
    flags::SemanticSettings decoded;
    const Slot* twin = nullptr;
    LoopCodeGen fresh;
  };

  std::mutex mutex;
  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> misses{0};

  /// The table's module indices of `program`'s loops, then its non-loop
  /// module. A program is re-verified against its modules' identities on
  /// every call, so a new program at a dead one's address is re-bound.
  const std::uint32_t* bind(const ir::Program& program) {
    const std::size_t count = program.loops().size() + 1;
    Binding* binding = nullptr;
    for (Binding& candidate : bindings_) {
      if (candidate.program == &program) {
        binding = &candidate;
        break;
      }
    }
    if (binding != nullptr && binding->modules.size() == count) {
      bool same = true;
      for (std::size_t k = 0; k < count && same; ++k) {
        same = matches(module_of(program, k), modules_[binding->modules[k]]);
      }
      if (same) return binding->modules.data();
    }
    if (binding == nullptr) binding = &bindings_.emplace_back();
    binding->program = &program;
    binding->modules.clear();
    for (std::size_t k = 0; k < count; ++k) {
      binding->modules.push_back(intern(module_of(program, k)));
    }
    return binding->modules.data();
  }

  /// The index of `module`, added on first sight.
  std::uint32_t intern(const ir::LoopModule& module) {
    for (std::uint32_t i = 0; i < modules_.size(); ++i) {
      if (matches(module, modules_[i])) return i;
    }
    modules_.push_back({module.name, module.is_loop, module.features});
    return static_cast<std::uint32_t>(modules_.size() - 1);
  }

  /// Fills `slot.row` and `slot.codegen` from the table; true on a hit.
  /// `previous` is the build's previous slot, whose row is reused when
  /// its CV is the same (uniform builds look their CV up once).
  bool lookup(Slot& slot, std::uint32_t module_row, bool pgo_valid,
              const Slot* previous) {
    slot.module_row = module_row;
    slot.row = previous != nullptr && *previous->cv == *slot.cv
                   ? previous->row
                   : find(*slot.cv);
    slot.codegen = slot.row != nullptr
                       ? object(*slot.row, module_row, pgo_valid)
                       : nullptr;
    return slot.codegen != nullptr;
  }

  /// Adds a missed slot's fresh object, and its CV row if that is new
  /// too. False when another build (or an earlier slot of this one)
  /// added the same object first: the slot then reads that one.
  bool publish(Slot& slot, bool pgo_valid) {
    if (slot.row == nullptr && slot.twin != nullptr) slot.row = slot.twin->row;
    if (slot.row == nullptr) slot.row = find(*slot.cv);
    if (slot.row == nullptr) slot.row = &insert(*slot.cv, *slot.settings);
    const std::size_t index = 2 * std::size_t{slot.module_row} + pgo_valid;
    std::vector<std::uint32_t>& objects = slot.row->objects;
    if (objects.size() <= index) objects.resize(index + 1, 0);
    const bool landed = objects[index] == 0;
    if (landed) objects[index] = codegens_.push_back(slot.fresh) + 1;
    slot.codegen = &codegens_[objects[index] - 1];
    return landed;
  }

  /// The codegen of `module_row` compiled with `row`'s CV, or null.
  const LoopCodeGen* object(const CvRow& row, std::uint32_t module_row,
                            bool pgo_valid) {
    const std::size_t index = 2 * std::size_t{module_row} + pgo_valid;
    if (index >= row.objects.size() || row.objects[index] == 0) return nullptr;
    return &codegens_[row.objects[index] - 1];
  }

  void clear() {
    modules_.clear();
    bindings_.clear();
    cv_rows_.clear();
    cv_index_.clear();
    codegens_.clear();
    hits.store(0, std::memory_order_relaxed);
    misses.store(0, std::memory_order_relaxed);
  }

 private:
  struct Binding {
    const ir::Program* program = nullptr;
    std::vector<std::uint32_t> modules;
  };

  static const ir::LoopModule& module_of(const ir::Program& program,
                                         std::size_t k) {
    return k < program.loops().size() ? program.loops()[k]
                                      : program.nonloop();
  }

  static bool matches(const ir::LoopModule& module, const Module& row) {
    // LoopFeatures is all doubles: bitwise-equal features are the same
    // pipeline input.
    static_assert(std::is_trivially_copyable_v<ir::LoopFeatures> &&
                  sizeof(ir::LoopFeatures) % sizeof(double) == 0);
    return module.is_loop == row.is_loop && module.name == row.name &&
           std::memcmp(&module.features, &row.features,
                       sizeof(ir::LoopFeatures)) == 0;
  }

  /// Open-addressed probe of the CV index; every candidate is verified
  /// against the full CV, so a 64-bit hash collision is only a longer
  /// probe.
  CvRow* find(const flags::CompilationVector& cv) {
    if (cv_index_.empty()) return nullptr;
    const std::size_t mask = cv_index_.size() - 1;
    for (std::size_t i = cv.hash() & mask;; i = (i + 1) & mask) {
      const std::uint32_t entry = cv_index_[i];
      if (entry == 0) return nullptr;
      CvRow& row = cv_rows_[entry - 1];
      if (row.cv == cv) return &row;
    }
  }

  CvRow& insert(const flags::CompilationVector& cv,
                const flags::SemanticSettings& settings) {
    CvRow row{cv, settings, {}};
    row.objects.reserve(2 * modules_.size());
    const std::uint32_t index = cv_rows_.push_back(std::move(row));
    if (2 * (std::size_t{index} + 1) > cv_index_.size()) {
      // Keep the load at most 1/2: rebuild at twice the size.
      cv_index_.assign(std::max<std::size_t>(64, 2 * cv_index_.size()), 0);
      for (std::uint32_t r = 0; r < index; ++r) place(r);
    }
    place(index);
    return cv_rows_[index];
  }

  void place(std::uint32_t row) {
    const std::size_t mask = cv_index_.size() - 1;
    std::size_t i = cv_rows_[row].cv.hash() & mask;
    while (cv_index_[i] != 0) i = (i + 1) & mask;
    cv_index_[i] = row + 1;
  }

  std::vector<Module> modules_;
  std::vector<Binding> bindings_;
  StableRows<CvRow> cv_rows_;
  std::vector<std::uint32_t> cv_index_;  // row index + 1, 0 = empty
  StableRows<LoopCodeGen> codegens_;
};

ModuleAssignment ModuleAssignment::uniform(const flags::CompilationVector& cv,
                                           std::size_t loop_count) {
  ModuleAssignment assignment;
  assignment.loop_cvs.assign(loop_count, cv);
  assignment.nonloop_cv = cv;
  return assignment;
}

Compiler::Compiler(const flags::FlagSpace& space, machine::Architecture arch,
                   Personality personality)
    : space_(&space),
      arch_(std::move(arch)),
      personality_(personality),
      table_(std::make_unique<ObjectTable>()) {}

Compiler::~Compiler() = default;

std::size_t Compiler::cache_hits() const noexcept {
  return table_->hits.load(std::memory_order_relaxed);
}

std::size_t Compiler::cache_misses() const noexcept {
  return table_->misses.load(std::memory_order_relaxed);
}

CompiledModule Compiler::compile(const ir::LoopModule& module,
                                 const flags::CompilationVector& cv,
                                 const PgoProfile* pgo) {
  const bool pgo_valid = pgo != nullptr && pgo->valid;
  ObjectTable& table = *table_;
  ObjectTable::Slot slot;
  slot.cv = &cv;
  slot.module = &module;
  bool hit = false;
  {
    std::lock_guard lock(table.mutex);
    hit = table.lookup(slot, table.intern(module), pgo_valid, nullptr);
  }
  bool landed = false;
  if (!hit) {
    if (slot.row == nullptr) slot.decoded = space_->decode(cv);
    slot.settings = slot.row != nullptr ? &slot.row->settings : &slot.decoded;
    slot.fresh =
        generate_code(module, *slot.settings, arch_, personality_, pgo);
    std::lock_guard lock(table.mutex);
    landed = table.publish(slot, pgo_valid);
  }
  // Only the lookup whose object lands in the table counts the miss, so
  // the miss total is the number of distinct objects whatever the
  // schedule.
  (landed ? table.misses : table.hits).fetch_add(1, std::memory_order_relaxed);
  if (telemetry::enabled()) count_lookups(landed ? 0 : 1, landed ? 1 : 0);
  return {module.name, slot.row->cv, slot.row->settings, *slot.codegen,
          module.is_loop};
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
  const std::size_t loop_count = program.loops().size();
  const std::size_t count = loop_count + 1;  // the loops, then the driver
  const bool pgo_valid = pgo != nullptr && pgo->valid;
  // Per-thread scratch, reused across builds: an all-hit build allocates
  // nothing beyond its Executable.
  thread_local std::vector<ObjectTable::Slot> slots;
  thread_local std::vector<ObjectView> views;
  slots.resize(count);
  views.resize(count);
  for (std::size_t k = 0; k < loop_count; ++k) {
    slots[k].cv = &assignment.loop_cvs[k];
    slots[k].module = &program.loops()[k];
  }
  slots[loop_count].cv = &assignment.nonloop_cv;
  slots[loop_count].module = &program.nonloop();

  ObjectTable& table = *table_;
  // The views link() reads; resolved under the lock, since a loop's
  // (loop, driver CV) object is looked up in the driver's row.
  const auto resolve_views = [&] {
    const ObjectTable::CvRow& driver = *slots[loop_count].row;
    for (std::size_t k = 0; k < count; ++k) {
      const ObjectTable::Slot& slot = slots[k];
      views[k] = {&slot.row->cv, &slot.row->settings, slot.codegen,
                  k < loop_count && slot.row != &driver
                      ? table.object(driver, slot.module_row, pgo_valid)
                      : nullptr};
    }
  };

  std::size_t missing = 0;
  {
    std::lock_guard lock(table.mutex);
    const std::uint32_t* modules = table.bind(program);
    for (std::size_t k = 0; k < count; ++k) {
      if (!table.lookup(slots[k], modules[k], pgo_valid,
                        k > 0 ? &slots[k - 1] : nullptr)) {
        ++missing;
      }
    }
    if (missing == 0) resolve_views();
  }

  std::size_t compiled = 0;
  if (missing > 0) {
    // Compile the misses outside the lock, decoding each new CV once.
    for (std::size_t k = 0; k < count; ++k) {
      ObjectTable::Slot& slot = slots[k];
      if (slot.codegen != nullptr) continue;
      slot.twin = nullptr;
      for (std::size_t i = 0; i < k && slot.row == nullptr; ++i) {
        if (slots[i].row == nullptr && *slots[i].cv == *slot.cv) {
          slot.twin = &slots[i];
          break;
        }
      }
      if (slot.row != nullptr) {
        slot.settings = &slot.row->settings;
      } else if (slot.twin != nullptr) {
        slot.settings = slot.twin->settings;
      } else {
        slot.decoded = space_->decode(*slot.cv);
        slot.settings = &slot.decoded;
      }
      slot.fresh =
          generate_code(*slot.module, *slot.settings, arch_, personality_, pgo);
    }
    std::lock_guard lock(table.mutex);
    for (std::size_t k = 0; k < count; ++k) {
      if (slots[k].codegen == nullptr && table.publish(slots[k], pgo_valid)) {
        ++compiled;
      }
    }
    resolve_views();
  }
  table.hits.fetch_add(count - compiled, std::memory_order_relaxed);
  table.misses.fetch_add(compiled, std::memory_order_relaxed);
  if (modules_compiled != nullptr) *modules_compiled = compiled;

  const std::span<const ObjectView> loop_views(views.data(), loop_count);
  if (telemetry::enabled()) {
    static telemetry::Counter& builds =
        telemetry::metrics().counter("compiler.builds");
    static telemetry::Counter& links =
        telemetry::metrics().counter("compiler.links");
    builds.add();
    links.add();
    count_decisions(loop_views);
    count_lookups(count - compiled, compiled);
  }
  return link(program, loop_views, views[loop_count], arch_, personality_,
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
  std::lock_guard lock(table_->mutex);
  table_->clear();
}

}  // namespace ft::compiler
