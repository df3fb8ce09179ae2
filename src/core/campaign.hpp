// Campaign driver: the (benchmarks x architectures x algorithms)
// experiment grid of the paper's Fig 5, as a reusable API. A facility
// running FuncyTuner tunes a whole application catalog per machine
// generation; this module structures that sweep, parallelizes it and
// returns a queryable result grid.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/funcy_tuner.hpp"
#include "ir/program.hpp"
#include "machine/architecture.hpp"
#include "telemetry/telemetry.hpp"

namespace ft::core {

/// One cell of the campaign grid: every registry algorithm's result, in
/// registration order (the paper's Random, FR, G, CFR column order).
struct CampaignCell {
  std::string program;
  std::string architecture;
  double baseline_seconds = 0.0;
  std::vector<TuningResult> results;

  /// Lookup by display name ("Random", "G.realized", ...) or registry
  /// key ("random", "greedy", ...); throws std::invalid_argument on
  /// unknown names.
  [[nodiscard]] const TuningResult& result(
      const std::string& algorithm) const;
};

struct CampaignOptions {
  /// Per-cell tuner options. When tuner.eval_cache is set, or on
  /// resume, the campaign builds ONE shared EvalCache for the whole
  /// grid instead of one per cell (context hashes + per-cell salts keep
  /// entries disjoint); a resume loads the checkpoint journal into it.
  FuncyTunerOptions tuner;
  /// Salt added to the seed per architecture index, so different
  /// platforms draw different pre-samples (the paper tunes each
  /// machine independently).
  bool salt_seed_per_arch = true;
  /// Run the grid cells concurrently on the shared pool. Each cell is
  /// a self-contained tuner (own engine, seed-derived noise), so the
  /// result grid is bit-identical to a sequential run; only the
  /// progress callback order varies. Cells issue their own
  /// parallel_for sweeps from inside pool workers, which the
  /// task-group runtime supports (waiters help execute queued tasks).
  bool parallel_cells = false;
  /// Optional progress callback: (program, architecture) just
  /// finished. Invoked serially (under a lock when parallel_cells).
  std::function<void(const std::string&, const std::string&)> progress;
  /// Algorithms to run per cell (registry keys); empty = every
  /// algorithm registered with SearchRegistry::global().
  std::vector<std::string> algorithms;
  /// Telemetry sink installed (via SinkScope) for the duration of
  /// run(). Forces sequential cells: concurrent cells would interleave
  /// span ids and break trace determinism.
  std::shared_ptr<telemetry::Sink> trace_sink;
  /// Binary evaluation journal shared by every cell (records are keyed
  /// by a program/input/arch context hash, so one file serves the whole
  /// grid). Empty disables checkpointing.
  std::string checkpoint_path;
  /// Resume from an existing journal at checkpoint_path instead of
  /// truncating it: already-journaled evaluations replay instead of
  /// re-running, which continues a killed campaign bit-identically.
  bool resume = false;
  /// Optional raw-measurement backend factory, called once per cell
  /// with that cell's program, architecture and *effective* tuner
  /// options (per-arch seed salt applied). The returned backend is
  /// attached to the cell's Evaluator - this is how a campaign targets
  /// a remote `ftuned` daemon. Results stay bit-identical: only the
  /// raw compile+link+run moves; all resilience bookkeeping remains in
  /// the cell's own Evaluator. Null return = evaluate in-process.
  std::function<std::shared_ptr<EvalBackend>(
      const ir::Program&, const machine::Architecture&,
      const FuncyTunerOptions&)>
      backend_factory;
};

class Campaign {
 public:
  Campaign(std::vector<ir::Program> programs,
           std::vector<machine::Architecture> architectures,
           CampaignOptions options = {});

  /// Runs every cell (concurrently when options.parallel_cells; each
  /// cell also parallelizes its own 1000-variant evaluations
  /// internally). The result grid is identical either way.
  void run();
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  [[nodiscard]] const std::vector<CampaignCell>& cells() const noexcept {
    return cells_;
  }
  /// Lookup by (program, architecture) names; throws on unknown cell.
  [[nodiscard]] const CampaignCell& cell(const std::string& program,
                                         const std::string& arch) const;

  /// Geometric mean of one algorithm's speedups on one architecture.
  /// `algorithm` is a display name or registry key of a per-cell
  /// result, or "G.Independent" (greedy's §3.4 hypothetical, read from
  /// the optional TuningResult fields).
  [[nodiscard]] double geomean_speedup(const std::string& algorithm,
                                       const std::string& arch) const;

 private:
  std::vector<ir::Program> programs_;
  std::vector<machine::Architecture> architectures_;
  CampaignOptions options_;
  std::vector<CampaignCell> cells_;
  bool finished_ = false;
};

}  // namespace ft::core
