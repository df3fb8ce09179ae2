#include "core/campaign.hpp"

#include <mutex>
#include <stdexcept>

#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "core/persistent_cache.hpp"
#include "support/log.hpp"
#include "support/stats.hpp"
#include "support/thread_pool.hpp"

namespace ft::core {

namespace {

/// Case-insensitive ASCII comparison (registry keys are lowercase,
/// display names mixed-case).
bool iequals(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char ca = a[i] >= 'A' && a[i] <= 'Z' ? a[i] + 32 : a[i];
    const char cb = b[i] >= 'A' && b[i] <= 'Z' ? b[i] + 32 : b[i];
    if (ca != cb) return false;
  }
  return true;
}

}  // namespace

const TuningResult& CampaignCell::result(
    const std::string& algorithm) const {
  for (const TuningResult& r : results) {
    if (r.algorithm == algorithm || iequals(r.algorithm, algorithm)) {
      return r;
    }
  }
  // Fall back to registry keys ("greedy" → display "G.realized").
  if (SearchRegistry::global().contains(algorithm)) {
    const std::string display =
        SearchRegistry::global().create(algorithm)->display_name();
    for (const TuningResult& r : results) {
      if (r.algorithm == display) return r;
    }
  }
  throw std::invalid_argument("unknown algorithm: " + algorithm);
}

Campaign::Campaign(std::vector<ir::Program> programs,
                   std::vector<machine::Architecture> architectures,
                   CampaignOptions options)
    : programs_(std::move(programs)),
      architectures_(std::move(architectures)),
      options_(std::move(options)) {
  if (programs_.empty() || architectures_.empty()) {
    throw std::invalid_argument("campaign needs >=1 program and arch");
  }
}

void Campaign::run() {
  const std::size_t cell_count = programs_.size() * architectures_.size();
  cells_.assign(cell_count, CampaignCell{});
  const std::vector<std::string> algorithms =
      options_.algorithms.empty() ? SearchRegistry::global().names()
                                  : options_.algorithms;

  telemetry::SinkScope sink_scope(options_.trace_sink
                                      ? options_.trace_sink
                                      : telemetry::sink());
  bool parallel_cells = options_.parallel_cells;
  if (parallel_cells && telemetry::enabled()) {
    support::log_warn()
        << "campaign: telemetry attached, running cells sequentially "
           "(concurrent cells would interleave trace span ids)";
    parallel_cells = false;
  }
  telemetry::Span campaign_span = telemetry::tracer().begin("campaign");
  if (campaign_span) {
    campaign_span.attr("cells", static_cast<std::uint64_t>(cell_count));
  }

  std::shared_ptr<EvalJournal> journal;
  if (!options_.checkpoint_path.empty()) {
    const std::uint64_t fingerprint = options_fingerprint(options_.tuner);
    journal = options_.resume
                  ? EvalJournal::resume(options_.checkpoint_path, fingerprint)
                  : EvalJournal::create(options_.checkpoint_path, fingerprint);
  }

  // One cache for the whole grid: assignment keys fold in a
  // program/input/arch context hash and each cell salts with its own
  // options fingerprint, so cross-cell entries can never alias. A
  // resume always builds it: it serves every journaled evaluation.
  std::shared_ptr<EvalCache> cache;
  if (options_.tuner.eval_cache || !options_.tuner.eval_cache_dir.empty() ||
      (journal && options_.resume)) {
    cache = std::make_shared<EvalCache>(
        options_.tuner.eval_cache_entries != 0
            ? options_.tuner.eval_cache_entries
            : EvalCache::kDefaultMaxEntries);
    if (!options_.tuner.eval_cache_dir.empty()) {
      cache->attach_disk(std::make_shared<PersistentCache>(
          PersistentCache::Options{
              .dir = options_.tuner.eval_cache_dir,
              .max_bytes = options_.tuner.eval_cache_disk_bytes}));
    }
  }

  std::mutex progress_mutex;
  // Cell index c = a * |programs| + p, matching the sequential
  // (arch-major) emission order so lookups and serialization see the
  // same grid regardless of parallel_cells.
  auto run_cell = [&](std::size_t c) {
    const std::size_t a = c / programs_.size();
    const std::size_t p = c % programs_.size();
    FuncyTunerOptions tuner_options = options_.tuner;
    if (options_.salt_seed_per_arch) tuner_options.seed += a;
    // The shared cache (and its shared disk tier) replaces the
    // per-tuner one the flags would build.
    tuner_options.eval_cache = false;
    tuner_options.eval_cache_dir.clear();
    const ir::Program& program = programs_[p];
    telemetry::Span cell_span =
        campaign_span
            ? telemetry::tracer().begin_under(campaign_span.id(),
                                              "campaign.cell")
            : telemetry::Span();
    if (cell_span) {
      cell_span.attr("program", program.name())
          .attr("architecture", architectures_[a].name);
    }
    FuncyTuner tuner(program, architectures_[a], tuner_options);
    if (options_.backend_factory) {
      tuner.evaluator().set_backend(options_.backend_factory(
          program, architectures_[a], tuner_options));
    }
    // Attached before the journal, which on resume loads into it.
    // Records from other cells load under this cell's salt too - those
    // entries are simply never looked up (wrong context hash) and age
    // out of the LRU.
    if (cache) tuner.set_eval_cache(cache);
    if (journal) tuner.evaluator().set_journal(journal);
    CampaignCell& cell = cells_[c];
    cell.program = program.name();
    cell.architecture = architectures_[a].name;
    cell.baseline_seconds = tuner.baseline_seconds();
    cell.results.reserve(algorithms.size());
    for (const std::string& algorithm : algorithms) {
      cell.results.push_back(tuner.run(algorithm));
    }
    cell_span.end();
    if (options_.progress) {
      std::lock_guard lock(progress_mutex);
      options_.progress(program.name(), architectures_[a].name);
    }
  };

  if (parallel_cells) {
    // Cells nest their own parallel_for sweeps inside pool workers;
    // safe because waiting callers help execute queued tasks.
    support::parallel_for(cell_count, run_cell);
  } else {
    for (std::size_t c = 0; c < cell_count; ++c) run_cell(c);
  }
  finished_ = true;
}

const CampaignCell& Campaign::cell(const std::string& program,
                                   const std::string& arch) const {
  for (const CampaignCell& c : cells_) {
    if (c.program == program && c.architecture == arch) return c;
  }
  throw std::invalid_argument("unknown campaign cell: " + program + " / " +
                              arch);
}

double Campaign::geomean_speedup(const std::string& algorithm,
                                 const std::string& arch) const {
  std::vector<double> speedups;
  for (const CampaignCell& c : cells_) {
    if (c.architecture != arch) continue;
    if (algorithm == "G.Independent") {
      bool found = false;
      for (const TuningResult& r : c.results) {
        const std::optional<double> independent =
            r.extras.get(kExtraIndependentSpeedup);
        if (independent) {
          speedups.push_back(*independent);
          found = true;
          break;
        }
      }
      if (!found) {
        throw std::invalid_argument(
            "G.Independent: no result carries independent_speedup");
      }
    } else {
      speedups.push_back(c.result(algorithm).speedup);
    }
  }
  return support::geomean(speedups);
}

}  // namespace ft::core
