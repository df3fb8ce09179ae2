// drift_retune - the online re-tuning scenario (extends Fig 8's
// time-step scaling): tune once, then keep the tuned assignment
// running while the input profile drifts - per-time-step work and
// working-set size compound segment by segment. A DriftMonitor watches
// per-loop runtime regression against the steady-state snapshot; past
// --threshold (debounced over --confirm observations) it triggers an
// incremental re-tune seeded from the degraded incumbent (the
// registry's "retune" hill-climb over the collection's pruned top-X
// spaces) and hot-swaps the winner.
//
// The gate this binary enforces (and CI runs with --smoke): every
// hot-swapped segment's recovered speedup must be at least the
// degraded incumbent's - re-tuning never ships a regression.
//
// Machine-readable results are written only with --json FILE (the
// committed record is `--json BENCH_drift_retune.json`).
// --checkpoint/--resume journal every evaluation - initial tune,
// monitor probes and re-tunes alike - so a SIGKILLed run resumed
// against the same journal replays bit-identically (the crash soak in
// tests/persistent_cache_test drives this through the library).

#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>

#include "bench/common.hpp"
#include "core/checkpoint.hpp"
#include "core/drift.hpp"
#include "support/parse_number.hpp"

namespace {

void append_segment_json(std::ostringstream& out,
                         const ft::core::DriftSegmentReport& s) {
  out << "    {\n"
      << "      \"input\": \"" << s.input << "\",\n"
      << "      \"timesteps\": " << s.timesteps << ",\n"
      << "      \"work_scale\": " << s.work_scale << ",\n"
      << "      \"ws_scale\": " << s.ws_scale << ",\n"
      << "      \"o3_seconds\": " << s.o3_seconds << ",\n"
      << "      \"degraded_seconds\": " << s.degraded_seconds << ",\n"
      << "      \"degraded_speedup\": " << s.degraded_speedup << ",\n"
      << "      \"regression\": " << s.regression << ",\n"
      << "      \"state\": \"" << s.state << "\",\n"
      << "      \"retuned\": " << (s.retuned ? "true" : "false") << ",\n"
      << "      \"swapped\": " << (s.swapped ? "true" : "false") << ",\n"
      << "      \"retuned_seconds\": " << s.retuned_seconds << ",\n"
      << "      \"retuned_speedup\": " << s.retuned_speedup << ",\n"
      << "      \"retune_evaluations\": " << s.retune_evaluations << "\n"
      << "    }";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ft;

  support::OptionSet set = bench::BenchConfig::option_set();
  set.text("program", "CL", "benchmark to tune (paper name)")
      .text("algorithm", "cfr", "initial tuning algorithm")
      .integer("segments", 4, "drifted segments after steady state")
      .real("work-drift", 0.25, "per-segment per-time-step work drift")
      .real("ws-drift", -0.5,
            "per-segment working-set drift (negative shrinks)")
      .real("threshold", 0.1,
            "relative per-loop regression that counts as a strike")
      .integer("confirm", 2, "consecutive strikes that trigger a re-tune")
      .integer("retune-samples", 60, "evaluation budget per re-tune")
      .integer("reps", 5, "repetitions per monitor observation")
      .flag("smoke", false, "reduced budget for CI smoke runs")
      .text("json", "", "write machine-readable results to FILE")
      .text("checkpoint", "",
            "journal completed evaluations to FILE (binary, CRC-checked)")
      .text("resume", "", "continue a killed run from its journal")
      .text("eval-cache-dir", "",
            "disk-backed eval-cache tier shared across processes")
      .text("eval-cache-disk-size", "",
            "size budget for the disk tier (e.g. 64M)");
  const support::OptionSet::Parsed args =
      set.parse_or_exit(argc - 1, argv + 1, argv[0]);
  bench::BenchConfig config = bench::BenchConfig::from(args);

  core::OnlineTunerOptions online_options;
  online_options.schedule.segments = static_cast<int>(args.integer("segments"));
  online_options.schedule.work_drift = args.real("work-drift");
  online_options.schedule.ws_drift = args.real("ws-drift");
  online_options.monitor.threshold = args.real("threshold");
  online_options.monitor.confirm = static_cast<int>(args.integer("confirm"));
  online_options.retune_samples =
      static_cast<std::size_t>(args.integer("retune-samples"));
  online_options.observation_reps = static_cast<int>(args.integer("reps"));
  if (args.flag("smoke")) {
    config.samples = 40;
    online_options.schedule.segments = 3;
    online_options.retune_samples = 24;
  }

  core::FuncyTunerOptions tuner_options = config.tuner_options();
  tuner_options.eval_cache_dir = args.text("eval-cache-dir");
  if (!args.text("eval-cache-disk-size").empty()) {
    std::uint64_t bytes = 0;
    if (!support::parse_byte_size(args.text("eval-cache-disk-size"),
                                  &bytes)) {
      std::cerr << argv[0] << ": invalid --eval-cache-disk-size '"
                << args.text("eval-cache-disk-size") << "'\n";
      return 1;
    }
    tuner_options.eval_cache_disk_bytes = static_cast<std::size_t>(bytes);
  }

  core::FuncyTuner tuner(programs::by_name(args.text("program")),
                         machine::broadwell(), tuner_options);

  std::shared_ptr<core::EvalJournal> journal;
  const std::uint64_t fingerprint =
      core::options_fingerprint(tuner.options());
  if (!args.text("resume").empty()) {
    journal = core::EvalJournal::resume(args.text("resume"), fingerprint);
    std::cout << "resuming from " << journal->path() << " ("
              << journal->loaded() << " evaluations journaled)\n";
  } else if (!args.text("checkpoint").empty()) {
    journal = core::EvalJournal::create(args.text("checkpoint"), fingerprint);
  }
  if (journal) tuner.evaluator().set_journal(journal);

  const core::TuningResult initial = tuner.run(args.text("algorithm"));

  core::OnlineTuner online(tuner, online_options);
  if (journal) online.set_journal(journal);
  const core::OnlineReport report = online.run(initial.best_assignment);

  support::Table table("Online drift + re-tune (" + args.text("program") +
                       ", " + args.text("algorithm") + " seed)");
  table.set_header({"Segment", "ws x", "State", "Regress", "Degraded",
                    "Retuned", "Swap", "Evals"});
  table.add_row({"steady", "1.00", "steady", "-", "-",
                 support::Table::num(report.steady_speedup), "-", "-"});
  for (const core::DriftSegmentReport& s : report.segments) {
    table.add_row({s.input, support::Table::num(s.ws_scale), s.state,
                   support::Table::num(s.regression),
                   support::Table::num(s.degraded_speedup),
                   s.retuned ? support::Table::num(s.retuned_speedup) : "-",
                   s.swapped ? "yes" : "-",
                   s.retuned ? std::to_string(s.retune_evaluations) : "-"});
  }
  bench::print_table(table, config);

  // The gate: a hot swap must never ship a regression, and the default
  // schedule must actually exercise the re-tune path end to end.
  bool ok = true;
  std::size_t retuned = 0;
  std::size_t swapped = 0;
  for (const core::DriftSegmentReport& s : report.segments) {
    if (s.retuned) ++retuned;
    if (!s.swapped) continue;
    ++swapped;
    if (s.retuned_speedup + 1e-9 < s.degraded_speedup) {
      std::cerr << "GATE: segment " << s.input << " swapped a slower "
                << "assignment in (" << s.retuned_speedup << " < "
                << s.degraded_speedup << ")\n";
      ok = false;
    }
  }
  if (retuned == 0) {
    std::cerr << "GATE: drift schedule never tripped the monitor - no "
                 "re-tune was exercised\n";
    ok = false;
  }
  std::cout << "\n"
            << retuned << " of " << report.segments.size()
            << " segments re-tuned, " << swapped << " hot-swapped; "
            << (ok ? "recovery gate passed" : "RECOVERY GATE FAILED")
            << "\n";

  if (!args.text("json").empty()) {
    std::ostringstream json;
    json << std::setprecision(12);
    json << "{\n  \"bench\": \"drift_retune\",\n"
         << "  \"description\": \"Tuned assignment monitored across a "
            "drifting input schedule; confirmed per-loop regressions "
            "trigger an incremental re-tune seeded from the incumbent, "
            "hot-swapped only when faster. Reproduce with: "
            "bench/drift_retune --seed "
         << config.seed << "\",\n"
         << "  \"program\": \"" << args.text("program") << "\",\n"
         << "  \"algorithm\": \"" << args.text("algorithm") << "\",\n"
         << "  \"seed\": " << config.seed << ",\n"
         << "  \"samples\": " << config.samples << ",\n"
         << "  \"segments\": " << online_options.schedule.segments << ",\n"
         << "  \"work_drift\": " << online_options.schedule.work_drift
         << ",\n"
         << "  \"ws_drift\": " << online_options.schedule.ws_drift << ",\n"
         << "  \"threshold\": " << online_options.monitor.threshold << ",\n"
         << "  \"confirm\": " << online_options.monitor.confirm << ",\n"
         << "  \"retune_samples\": " << online_options.retune_samples
         << ",\n"
         << "  \"steady_o3_seconds\": " << report.steady_o3_seconds << ",\n"
         << "  \"steady_tuned_seconds\": " << report.steady_tuned_seconds
         << ",\n"
         << "  \"steady_speedup\": " << report.steady_speedup << ",\n"
         << "  \"segments_retuned\": " << retuned << ",\n"
         << "  \"segments_swapped\": " << swapped << ",\n"
         << "  \"gate_passed\": " << (ok ? "true" : "false") << ",\n"
         << "  \"segment_reports\": [\n";
    bool first = true;
    for (const core::DriftSegmentReport& s : report.segments) {
      if (!first) json << ",\n";
      first = false;
      append_segment_json(json, s);
    }
    json << "\n  ]\n}\n";
    std::ofstream out(args.text("json"));
    out << json.str();
    std::cout << "wrote " << args.text("json") << "\n";
  }
  return ok ? 0 : 1;
}
