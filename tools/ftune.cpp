// ftune - the FuncyTuner command-line front end.
//
// Subcommands:
//   ftune list                         benchmarks, architectures, searches
//   ftune spaces [--compiler icc|gcc]  print the optimization space
//   ftune profile --program P [--arch A]
//                                      Caliper profile of the O3 build
//   ftune tune --program P [--arch A] [--algorithm NAME|all] ...
//                                      run a tuning campaign cell
//   ftune campaign [--programs P,..] [--archs A,..]
//                                      run a programs x archs grid
//   ftune importance --program P [--arch A] [--top K]
//                                      per-module flag main effects
//
// Every subcommand declares its flags through support::OptionSet, so
// unknown flags and malformed or unknown values (a program name, a
// framing, a chaos spec) are refused before any work starts, and
// `ftune <cmd> --help` prints that subcommand's generated option
// table; tune and campaign also list every algorithm's namespaced
// knobs (`--cfr:top-x`). With --remote ADDR[,ADDR...] the evaluating
// subcommands (profile, tune, campaign, importance) execute their raw
// measurements on running `ftuned` daemons - one address or a
// comma-separated list, always a fleet with health probes and failover
// (and, with --fallback-local, the in-process engine as its last
// rung); results are bit-identical to in-process runs either way.
// Exit status: 0 on success, 1 on usage errors.

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/flag_importance.hpp"
#include "core/funcy_tuner.hpp"
#include "core/persistent_cache.hpp"
#include "core/search_registry.hpp"
#include "core/serialization.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "service/fleet.hpp"
#include "support/options.hpp"
#include "support/parse_number.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sinks.hpp"
#include "telemetry/telemetry.hpp"

namespace {

using namespace ft;

/// Validator for a comma-separated list whose every non-empty field
/// `decode` accepts.
template <typename Decode>
support::OptionSet::Validator each_accepted_by(Decode decode) {
  return support::accepted_by([decode](const std::string& list) {
    for (const std::string& field : support::split(list, ',')) {
      if (!field.empty()) (void)decode(field);
    }
  });
}

/// Validator accepting `all` or whatever `other` accepts.
support::OptionSet::Validator all_or(support::OptionSet::Validator other) {
  return [other](const std::string& raw) {
    return raw == "all" ? std::string() : other(raw);
  };
}

/// A registry key, listed or not ("retune").
void check_algorithm(const std::string& key) {
  (void)core::SearchRegistry::global().create(key);
}

/// The flag table every evaluating subcommand (profile, tune,
/// importance, campaign) shares. Subcommands chain their extra flags
/// onto the returned set before parsing. `--program` and `--arch` name
/// the one cell profile, tune and importance work on; campaign names
/// its grid with --programs/--archs and so declares neither.
support::OptionSet common_options(bool one_cell = true) {
  const core::FuncyTunerOptions defaults;
  support::OptionSet set;
  if (one_cell) {
    set.text("program", "CL", "benchmark name (see `ftune list`)",
             support::accepted_by(programs::by_name))
        .text("arch", "broadwell", "opteron|sandybridge|broadwell",
              support::accepted_by(machine::architecture_by_name));
  }
  set.integer("samples", 1000,
              "K: pre-sampled CVs, and the fr/cfr budget unless "
              "--fr:samples / --cfr:samples is given",
              support::at_least(1))
      .integer("seed", 42, "master seed")
      .real("hot-threshold", defaults.hot_threshold,
            "outline loops >= this runtime share")
      .integer("final-reps", defaults.final_reps,
               "reps of every final measurement (O3 baseline, tuned "
               "result, cross-input runs)",
               support::at_least(1))
      .real("noise-sigma", defaults.noise_sigma_rel,
            "relative run-to-run noise sigma")
      .real("attribution-sigma", defaults.attribution_sigma,
            "extra per-region Caliper error")
      .integer("threads", 0,
               "evaluation pool size (sets FT_THREADS; 0 = auto)",
               support::at_least(0))
      .real("fault-rate", 0.0,
            "injected fault probability per evaluation")
      .integer("fault-seed",
               static_cast<std::int64_t>(defaults.faults.seed),
               "fault-injection RNG seed")
      .integer("max-retries", defaults.retry.max_retries,
               "retries for transient run faults")
      .real("eval-timeout", defaults.retry.eval_timeout_seconds,
            "per-evaluation runtime budget in seconds (0 = off)")
      .flag("eval-cache", false,
            "memoize completed evaluations (bit-identical results, "
            "redundant modeled cost reported as saved)")
      .integer("eval-cache-size", 0,
               "LRU entry bound for --eval-cache (default 1M)")
      .text("eval-cache-dir", "",
            "directory for the persistent disk cache tier, shared "
            "across processes (implies a memory tier)")
      .text("eval-cache-disk-size", "",
            "size budget for --eval-cache-dir, bytes with optional "
            "K/M/G suffix (default 256M)",
            support::accepted_by(support::parse_byte_size))
      .text("remote", "",
            "evaluate via running ftuned daemon(s): comma-separated "
            "unix:PATH / tcp:host:port endpoints, served as one fleet "
            "with failover")
      .real("io-timeout", 30.0,
            "remote per-frame send/recv deadline in seconds (0 = wait "
            "forever)")
      .text("framing", "binary",
            "preferred wire framing for --remote sessions: binary or "
            "binary-crc32 (negotiated per endpoint; daemons that lack "
            "binary-crc32 fall back to binary)",
            support::accepted_by(service::parse_framings))
      .integer("chaos-seed", 0,
               "seeded transport fault injection on --remote sessions "
               "(0 = off); equivalent to FT_CHAOS_SEED")
      .text("chaos", "",
            "chaos spec `torn-write=P,reset=P,...` (empty = the "
            "default profile; see FT_CHAOS)",
            support::accepted_by([](const std::string& spec) {
              return service::chaos::ChaosConfig::parse(0, spec);
            }))
      .flag("fallback-local", false,
            "degrade to in-process evaluation when the remote backend "
            "is unavailable (bit-identical results)")
      .flag("help", false, "print this help");
  return set;
}

core::FuncyTunerOptions parse_options(
    const support::OptionSet::Parsed& args) {
  core::FuncyTunerOptions options;
  options.samples = static_cast<std::size_t>(args.integer("samples"));
  options.seed = static_cast<std::uint64_t>(args.integer("seed"));
  options.hot_threshold = args.real("hot-threshold");
  options.final_reps = static_cast<int>(args.integer("final-reps"));
  options.noise_sigma_rel = args.real("noise-sigma");
  options.attribution_sigma = args.real("attribution-sigma");
  options.faults.rate = args.real("fault-rate");
  options.faults.seed =
      static_cast<std::uint64_t>(args.integer("fault-seed"));
  options.retry.max_retries =
      static_cast<int>(args.integer("max-retries"));
  options.retry.eval_timeout_seconds = args.real("eval-timeout");
  options.eval_cache = args.flag("eval-cache");
  options.eval_cache_entries =
      static_cast<std::size_t>(args.integer("eval-cache-size"));
  options.eval_cache_dir = args.text("eval-cache-dir");
  if (const std::string& size = args.text("eval-cache-disk-size");
      !size.empty()) {
    options.eval_cache_disk_bytes =
        static_cast<std::size_t>(support::parse_byte_size(size));
  }
  return options;
}

/// Applies --threads (declared by common_options() only). Must run
/// before the first global_pool() use; the pool reads FT_THREADS once,
/// at construction.
void apply_threads(const support::OptionSet::Parsed& args) {
  if (args.given("threads")) {
    setenv("FT_THREADS", std::to_string(args.integer("threads")).c_str(),
           /*overwrite=*/1);
  }
}

/// The backend factory --remote asks for, or null without --remote.
/// One address or many, every list is a FleetBackend per cell; the
/// daemons only execute compile+link+run, while retries, fault
/// handling, caching and journaling stay local, so the results are
/// bit-identical to the in-process path. With --fallback-local the
/// fleet's last rung is the in-process engine.
service::FleetFactory remote_factory(
    const support::OptionSet::Parsed& args) {
  std::vector<std::string> endpoints =
      service::parse_address_list(args.text("remote"));
  if (endpoints.empty()) return nullptr;
  service::ConnectOptions connect;
  // connect() appends the binary baseline itself, so "--framing
  // binary-crc32" means "the CRC trailer where possible".
  connect.framings = service::parse_framings(args.text("framing"));
  if (connect.framings.empty()) {
    connect.framings.push_back(service::Framing::kBinary);
  }
  connect.transport.io_timeout_seconds = args.real("io-timeout");
  if (args.given("chaos-seed") || args.given("chaos")) {
    connect.transport.chaos = service::chaos::ChaosConfig::parse(
        static_cast<std::uint64_t>(args.integer("chaos-seed")),
        args.text("chaos"));
  }
  service::FleetOptions fleet;
  fleet.fallback_local = args.flag("fallback-local");
  return service::make_fleet_backend_factory(std::move(endpoints),
                                             std::move(connect), fleet);
}

/// Routes the tuner's raw measurements through ftuned when --remote
/// was given.
void attach_remote(core::FuncyTuner& tuner,
                   const support::OptionSet::Parsed& args,
                   const core::FuncyTunerOptions& options) {
  if (const service::FleetFactory factory = remote_factory(args)) {
    tuner.evaluator().set_backend(
        factory(tuner.program(), tuner.engine().arch(), options));
  }
}

/// "out.csv" + "cfr" -> "out.cfr.csv" (suffix appended when the path
/// has no extension). Used when --algorithm all writes per-algorithm
/// files.
std::string suffixed_path(const std::string& path, const std::string& key) {
  const std::size_t dot = path.find_last_of('.');
  const std::size_t slash = path.find_last_of('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return path + "." + key;
  }
  return path.substr(0, dot) + "." + key + path.substr(dot);
}

int cmd_list(int argc, char** argv) {
  support::OptionSet set;
  set.flag("help", false, "print this help");
  (void)set.parse_or_exit(argc, argv, "ftune list");
  support::Table programs_table("Benchmarks (Table 1)");
  programs_table.set_header({"Name", "Language", "kLOC", "Hot loops"});
  for (const auto& program : programs::suite()) {
    programs_table.add_row({program.name(), program.language(),
                            support::Table::num(program.loc_k(), 1),
                            std::to_string(program.loops().size())});
  }
  programs_table.print(std::cout);

  support::Table archs_table("Architectures (Table 2)");
  archs_table.set_header(
      {"Name", "Processor", "SIMD", "FMA", "Threads", "Flag"});
  for (const auto& arch : machine::all_architectures()) {
    archs_table.add_row({arch.name, arch.processor,
                         std::to_string(arch.max_simd_bits) + "-bit",
                         arch.has_fma ? "yes" : "no",
                         std::to_string(arch.omp_threads),
                         arch.proc_flag.empty() ? "-" : arch.proc_flag});
  }
  archs_table.print(std::cout);

  const core::SearchRegistry& registry = core::SearchRegistry::global();
  support::Table algorithms_table("Search algorithms (--algorithm)");
  algorithms_table.set_header({"Key", "Label"});
  for (const std::string& name : registry.names()) {
    algorithms_table.add_row({name, registry.create(name)->display_name()});
  }
  algorithms_table.print(std::cout);
  return 0;
}

int cmd_spaces(int argc, char** argv) {
  support::OptionSet set;
  set.text("compiler", "icc", "icc|gcc", [](const std::string& raw) {
       return raw == "icc" || raw == "gcc" ? "" : "expected icc or gcc";
     })
      .flag("help", false, "print this help");
  const support::OptionSet::Parsed args =
      set.parse_or_exit(argc, argv, "ftune spaces");
  const flags::FlagSpace space = args.text("compiler") == "gcc"
                                     ? flags::gcc_space()
                                     : flags::icc_space();
  support::Table table("Optimization space '" + space.compiler_name() +
                       "' (" + std::to_string(space.flag_count()) +
                       " flags, |COS| = " +
                       std::to_string(static_cast<double>(space.size())) +
                       ")");
  table.set_header({"Flag", "Options"});
  for (const auto& spec : space.specs()) {
    std::string options;
    for (std::size_t i = 0; i < spec.options.size(); ++i) {
      if (i) options += " | ";
      options +=
          spec.options[i].text.empty() ? "(default)" : spec.options[i].text;
    }
    table.add_row({spec.name, options});
  }
  table.print(std::cout);
  return 0;
}

int cmd_profile(int argc, char** argv) {
  const support::OptionSet::Parsed args =
      common_options().parse_or_exit(argc, argv, "ftune profile");
  apply_threads(args);
  const core::FuncyTunerOptions options = parse_options(args);
  core::FuncyTuner tuner(programs::by_name(args.text("program")),
                         machine::architecture_by_name(args.text("arch")),
                         options);
  attach_remote(tuner, args, options);
  const core::Outline& outline = tuner.outline();
  support::Table table("O3 Caliper profile of " + tuner.program().name() +
                       " on " + tuner.engine().arch().name + " (" +
                       support::Table::num(outline.profile_seconds, 2) +
                       " s instrumented)");
  table.set_header({"Loop", "Share", "Outlined (>= 1%)"});
  for (std::size_t j = 0; j < tuner.program().loops().size(); ++j) {
    const bool hot = std::find(outline.hot.begin(), outline.hot.end(),
                               j) != outline.hot.end();
    table.add_row(
        {tuner.program().loops()[j].name,
         support::Table::num(outline.measured_share[j] * 100, 1) + "%",
         hot ? "yes" : "no"});
  }
  table.print(std::cout);
  return 0;
}

int cmd_tune(int argc, char** argv) {
  support::OptionSet set = common_options();
  set.text("algorithm", "cfr", "registry key or `all`",
           all_or(support::accepted_by(check_algorithm)))
      .text("json", "",
            "result JSON (array when tuning several algorithms)")
      .text("history", "",
            "best-so-far CSV (per-algorithm suffixes for `all`)")
      .text("collection", "", "per-loop collection matrix CSV")
      .text("trace", "", "JSONL span/metric event trace")
      .text("metrics", "", "metrics snapshot JSON + summary table")
      .flag("pool-stats", false, "print thread-pool counters")
      .text("checkpoint", "",
            "journal completed evaluations to FILE (binary, CRC-checked)")
      .text("resume", "", "continue a killed run from its journal");
  core::SearchRegistry::global().declare_knobs(set);
  const support::OptionSet::Parsed args =
      set.parse_or_exit(argc, argv, "ftune tune");
  apply_threads(args);

  const std::string algorithm = args.text("algorithm");
  const std::vector<std::string> keys =
      algorithm == "all" ? core::SearchRegistry::global().names()
                         : std::vector<std::string>{algorithm};

  // Telemetry: a JSONL trace sink and/or a metrics snapshot, both
  // off (and zero-cost) by default.
  std::shared_ptr<telemetry::JsonlSink> trace;
  if (!args.text("trace").empty()) {
    trace = telemetry::JsonlSink::open(args.text("trace"));
    telemetry::set_sink(trace);
  }
  const bool want_metrics = !args.text("metrics").empty();
  if (want_metrics) telemetry::enable_metrics(true);

  core::FuncyTunerOptions options = parse_options(args);
  options.algorithm_options = args.namespaced();
  core::FuncyTuner tuner(programs::by_name(args.text("program")),
                         machine::architecture_by_name(args.text("arch")),
                         options);
  attach_remote(tuner, args, options);

  // Checkpoint journal: --checkpoint starts fresh, --resume replays a
  // previous (possibly killed) run's evaluations and appends the rest.
  std::shared_ptr<core::EvalJournal> journal;
  if (!args.text("resume").empty()) {
    journal = core::EvalJournal::resume(args.text("resume"),
                                        core::options_fingerprint(options));
    std::cout << "resuming from " << journal->path() << " ("
              << journal->loaded() << " evaluations journaled)\n";
  } else if (!args.text("checkpoint").empty()) {
    journal = core::EvalJournal::create(args.text("checkpoint"),
                                        core::options_fingerprint(options));
  }
  // A resumed journal loads into the memory tier, which replays it.
  if (journal) tuner.evaluator().set_journal(journal);

  std::vector<core::TuningResult> results;
  {
    telemetry::Span root = telemetry::tracer().begin("tune");
    if (root) {
      root.attr("program", tuner.program().name())
          .attr("architecture", tuner.engine().arch().name)
          .attr("seed", options.seed)
          .attr("samples", static_cast<std::uint64_t>(options.samples));
    }
    for (const std::string& key : keys) {
      results.push_back(tuner.run(key));
      if (const std::optional<double> independent =
              results.back().extras.get(core::kExtraIndependentSpeedup)) {
        std::cout << "G.Independent (hypothetical): "
                  << support::Table::num(*independent) << "\n";
      }
    }
  }

  support::Table table("Tuning " + tuner.program().name() + " on " +
                       tuner.engine().arch().name);
  table.set_header({"Algorithm", "Speedup", "Runtime [s]", "Evals"});
  for (const auto& result : results) {
    table.add_row({result.algorithm, support::Table::num(result.speedup),
                   support::Table::num(result.tuned_seconds, 2),
                   std::to_string(result.evaluations)});
  }
  table.print(std::cout);

  // A resume replays through a memory tier even without --eval-cache.
  const bool caching = tuner.eval_cache() != nullptr;
  if (options.faults.rate > 0 || journal || caching ||
      options.retry.eval_timeout_seconds > 0) {
    const core::ResilienceStats stats = tuner.evaluator().resilience_stats();
    support::Table resilience("Resilience");
    resilience.set_header({"Fault", "Count"});
    resilience.add_row({"compile ICE", std::to_string(stats.compile_failures)});
    resilience.add_row({"run crash", std::to_string(stats.run_crashes)});
    resilience.add_row({"run timeout", std::to_string(stats.run_timeouts)});
    resilience.add_row({"retries", std::to_string(stats.retries)});
    resilience.add_row(
        {"failed evaluations", std::to_string(stats.failed_evaluations)});
    resilience.add_row(
        {"quarantine skips", std::to_string(stats.quarantine_hits)});
    resilience.add_row({"quarantined", std::to_string(stats.quarantined)});
    if (journal) {
      resilience.add_row(
          {"journal loaded", std::to_string(journal->loaded())});
      resilience.add_row(
          {"journal appended", std::to_string(journal->appended())});
    }
    if (caching) {
      const double total =
          static_cast<double>(stats.cache_hits + stats.cache_misses);
      resilience.add_row({"cache hits", std::to_string(stats.cache_hits)});
      resilience.add_row(
          {"cache misses", std::to_string(stats.cache_misses)});
      resilience.add_row(
          {"cache hit rate",
           total == 0 ? "-"
                      : support::Table::num(
                            100.0 * static_cast<double>(stats.cache_hits) /
                                total,
                            1) + "%"});
      if (const core::PersistentCache* disk =
              tuner.eval_cache() ? tuner.eval_cache()->disk() : nullptr) {
        const core::PersistentCacheStats dstats = disk->stats();
        resilience.add_row({"disk hits", std::to_string(dstats.hits)});
        resilience.add_row({"disk misses", std::to_string(dstats.misses)});
        resilience.add_row(
            {"disk insertions", std::to_string(dstats.insertions)});
        resilience.add_row(
            {"disk rejected", std::to_string(dstats.rejected)});
        resilience.add_row(
            {"disk evictions", std::to_string(dstats.evictions)});
      }
    }
    resilience.print(std::cout);
  }

  if (caching) {
    // §4.3 honesty: what was actually charged vs. what hits avoided.
    const double charged = tuner.evaluator().modeled_overhead_seconds();
    const double saved = tuner.evaluator().saved_overhead_seconds();
    support::Table overhead("Modeled tuning overhead");
    overhead.set_header({"Charged [s]", "Saved by cache [s]",
                         "Cache-off total [s]"});
    overhead.add_row({support::Table::num(charged, 1),
                      support::Table::num(saved, 1),
                      support::Table::num(charged + saved, 1)});
    overhead.print(std::cout);
  }

  if (!args.text("json").empty()) {
    // One entry per algorithm: a bare object for a single algorithm
    // (backwards compatible), a JSON array for --algorithm all.
    std::ofstream out(args.text("json"));
    if (results.size() == 1) {
      out << core::tuning_result_json(results.front(), tuner.space(),
                                      tuner.program())
          << '\n';
    } else {
      out << "[\n";
      for (std::size_t i = 0; i < results.size(); ++i) {
        out << core::tuning_result_json(results[i], tuner.space(),
                                        tuner.program());
        if (i + 1 < results.size()) out << ',';
        out << '\n';
      }
      out << "]\n";
    }
    std::cout << "wrote " << args.text("json") << '\n';
  }
  if (!args.text("history").empty()) {
    // Per-algorithm files ("conv.cfr.csv") when tuning more than one.
    for (std::size_t i = 0; i < results.size(); ++i) {
      const std::string path =
          results.size() == 1
              ? args.text("history")
              : suffixed_path(args.text("history"), keys[i]);
      std::ofstream out(path);
      core::write_history_csv(out, results[i]);
      std::cout << "wrote " << path << '\n';
    }
  }
  if (!args.text("collection").empty()) {
    std::ofstream out(args.text("collection"));
    core::write_collection_csv(out, tuner.outline(), tuner.collection());
    std::cout << "wrote " << args.text("collection") << '\n';
  }
  if (args.flag("pool-stats")) {
    const support::ThreadPool::Stats stats =
        support::global_pool().stats();
    support::Table pool_table(
        "Evaluation pool (" + std::to_string(stats.threads) + " workers)");
    pool_table.set_header(
        {"Submitted", "Completed", "Stolen", "Queue max", "Busy [s]"});
    pool_table.add_row({std::to_string(stats.tasks_submitted),
                        std::to_string(stats.tasks_completed),
                        std::to_string(stats.tasks_stolen),
                        std::to_string(stats.queue_high_water),
                        support::Table::num(stats.worker_busy_seconds, 3)});
    pool_table.print(std::cout);
  }

  if (want_metrics || trace) {
    telemetry::bridge_pool_stats(support::global_pool().stats());
    // Appends the deterministic metric samples to the trace.
    telemetry::flush_metrics();
  }
  if (want_metrics) {
    const std::vector<telemetry::MetricSample> snapshot =
        telemetry::metrics().snapshot();
    std::ofstream out(args.text("metrics"));
    telemetry::write_metrics_json(out, snapshot);
    std::cout << "wrote " << args.text("metrics") << '\n';
    telemetry::metrics_summary_table(snapshot).print(std::cout);
  }
  if (trace) {
    telemetry::set_sink(nullptr);
    std::cout << "wrote " << args.text("trace") << " (" << trace->lines()
              << " events)\n";
  }
  return 0;
}

int cmd_campaign(int argc, char** argv) {
  support::OptionSet set = common_options(/*one_cell=*/false);
  set.text("programs", "",
           "comma-separated benchmark names (default: the full suite)",
           each_accepted_by(programs::by_name))
      .text("archs", "",
            "comma-separated architectures (default: all three)",
            each_accepted_by(machine::architecture_by_name))
      .text("algorithms", "cfr",
            "comma-separated registry keys, or `all`",
            all_or(each_accepted_by(check_algorithm)))
      .flag("parallel-cells", false, "run grid cells concurrently")
      .text("json", "", "write the campaign result grid JSON to FILE");
  core::SearchRegistry::global().declare_knobs(set);
  const support::OptionSet::Parsed args =
      set.parse_or_exit(argc, argv, "ftune campaign");
  apply_threads(args);

  std::vector<ir::Program> programs;
  if (args.text("programs").empty()) {
    programs = programs::suite();
  } else {
    for (const std::string& name :
         support::split(args.text("programs"), ',')) {
      if (!name.empty()) programs.push_back(programs::by_name(name));
    }
  }
  std::vector<machine::Architecture> architectures;
  if (args.text("archs").empty()) {
    architectures = machine::all_architectures();
  } else {
    for (const std::string& name :
         support::split(args.text("archs"), ',')) {
      if (!name.empty()) {
        architectures.push_back(machine::architecture_by_name(name));
      }
    }
  }

  core::CampaignOptions options;
  options.tuner = parse_options(args);
  options.tuner.algorithm_options = args.namespaced();
  options.parallel_cells = args.flag("parallel-cells");
  if (args.text("algorithms") != "all") {
    for (const std::string& key :
         support::split(args.text("algorithms"), ',')) {
      if (!key.empty()) options.algorithms.push_back(key);
    }
  }
  options.progress = [](const std::string& program,
                        const std::string& arch) {
    std::cout << "finished " << program << " on " << arch << '\n';
  };
  // Per cell, a heterogeneous fleet keeps only the daemons serving
  // that cell's architecture.
  if (service::FleetFactory factory = remote_factory(args)) {
    options.backend_factory = std::move(factory);
  }

  core::Campaign campaign(programs, architectures, options);
  campaign.run();

  support::Table table("Campaign geomean speedups");
  std::vector<std::string> header{"Architecture"};
  const std::vector<std::string> algorithms =
      options.algorithms.empty() ? core::SearchRegistry::global().names()
                                 : options.algorithms;
  for (const std::string& key : algorithms) header.push_back(key);
  table.set_header(header);
  for (const auto& arch : architectures) {
    std::vector<std::string> row{arch.name};
    for (const std::string& key : algorithms) {
      row.push_back(
          support::Table::num(campaign.geomean_speedup(key, arch.name)));
    }
    table.add_row(row);
  }
  table.print(std::cout);

  if (!args.text("json").empty()) {
    std::ofstream out(args.text("json"));
    out << core::campaign_json(campaign) << '\n';
    std::cout << "wrote " << args.text("json") << '\n';
  }
  return 0;
}

int cmd_importance(int argc, char** argv) {
  support::OptionSet set = common_options();
  set.integer("top", 3, "flags shown per module");
  const support::OptionSet::Parsed args =
      set.parse_or_exit(argc, argv, "ftune importance");
  apply_threads(args);
  const core::FuncyTunerOptions options = parse_options(args);
  core::FuncyTuner tuner(programs::by_name(args.text("program")),
                         machine::architecture_by_name(args.text("arch")),
                         options);
  attach_remote(tuner, args, options);
  const std::size_t top_k = static_cast<std::size_t>(args.integer("top"));
  const auto importance = core::analyze_flag_importance(
      tuner.space(), tuner.outline(), tuner.collection());
  support::Table table("Flag main effects for " + tuner.program().name());
  table.set_header({"Module", "Flag", "Spread", "Best option"});
  for (const auto& module : importance) {
    for (const auto& effect : core::top_flags(module, top_k)) {
      const auto& spec = tuner.space().specs()[effect.flag_index];
      const std::string& text = spec.options[effect.best_option].text;
      table.add_row({module.module_name, effect.flag_name,
                     support::Table::num(effect.spread * 100, 1) + "%",
                     text.empty() ? "(default)" : text});
    }
  }
  table.print(std::cout);
  return 0;
}

void usage(std::ostream& out) {
  out << "usage: ftune <list|spaces|profile|tune|campaign|importance> "
         "[options]\n"
         "\n"
         "  list        benchmarks, architectures and searches\n"
         "  spaces      print the optimization space\n"
         "  profile     Caliper profile of the O3 build\n"
         "  tune        run a tuning campaign cell\n"
         "  campaign    run a programs x architectures grid\n"
         "  importance  per-module flag main effects\n"
         "\n"
         "`ftune <cmd> --help` prints that subcommand's option table.\n"
         "--remote ADDR[,ADDR...] evaluates on running ftuned daemons\n"
         "(a comma-separated list forms a fleet with failover).\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage(std::cerr);
    return 1;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "help") {
    usage(std::cout);
    return 0;
  }
  try {
    if (command == "list") return cmd_list(argc - 2, argv + 2);
    if (command == "spaces") return cmd_spaces(argc - 2, argv + 2);
    if (command == "profile") return cmd_profile(argc - 2, argv + 2);
    if (command == "tune") return cmd_tune(argc - 2, argv + 2);
    if (command == "campaign") return cmd_campaign(argc - 2, argv + 2);
    if (command == "importance") return cmd_importance(argc - 2, argv + 2);
    std::cerr << "ftune: unknown subcommand '" << command << "'\n";
    usage(std::cerr);
    return 1;
  } catch (const std::exception& error) {
    std::cerr << "ftune: " << error.what() << '\n';
    return 1;
  }
}
