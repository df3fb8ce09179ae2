// Shared helpers for the figure/table reproduction binaries. Every
// binary declares its command line through support::OptionSet, so
// unknown flags and malformed values are hard errors (exit 1) and
// --help prints the generated option table. The common flags:
//   --samples N    pre-sampled CV count / search iterations (default 1000)
//   --seed S       top-level seed (default 42)
//   --csv          additionally emit CSV rows for plotting
//   --pool-stats   append thread-pool counters (submitted/completed/
//                  stolen tasks, queue high-water, busy seconds)
//   --eval-cache   memoize completed evaluations (bit-identical
//                  results; redundant modeled cost reported as saved)
// Binaries with extra flags chain them onto BenchConfig::option_set(),
// parse with OptionSet::parse_or_exit and feed the Parsed result to
// BenchConfig::from (see fig5_overall.cpp for the pattern).
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "core/funcy_tuner.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/cli.hpp"
#include "support/options.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace ft::bench {

struct BenchConfig {
  std::size_t samples = 1000;
  std::uint64_t seed = 42;
  bool csv = false;
  bool pool_stats = false;
  bool eval_cache = false;

  /// The flag table every bench binary shares. Chain binary-specific
  /// options onto the returned set before parsing.
  [[nodiscard]] static support::OptionSet option_set() {
    support::OptionSet set;
    set.integer("samples", 1000,
                "pre-sampled CV count / search iterations",
                [](const std::string& raw) {
                  return raw.empty() || raw[0] == '-'
                             ? "must be positive"
                             : "";
                })
        .integer("seed", 42, "top-level seed")
        .flag("csv", false, "additionally emit CSV rows for plotting")
        .flag("pool-stats", false, "append thread-pool counters")
        .flag("eval-cache", false,
              "memoize completed evaluations (bit-identical)")
        .flag("help", false, "print this help");
    return set;
  }

  [[nodiscard]] static BenchConfig from(
      const support::OptionSet::Parsed& parsed) {
    BenchConfig config;
    config.samples = static_cast<std::size_t>(parsed.integer("samples"));
    config.seed = static_cast<std::uint64_t>(parsed.integer("seed"));
    config.csv = parsed.flag("csv");
    config.pool_stats = parsed.flag("pool-stats");
    config.eval_cache = parsed.flag("eval-cache");
    return config;
  }

  /// Strict parse of the common table: exits 1 on any unknown flag or
  /// malformed value, 0 on --help.
  [[nodiscard]] static BenchConfig parse(int argc, char** argv) {
    return from(option_set().parse_or_exit(argc - 1, argv + 1, argv[0]));
  }

  [[nodiscard]] core::FuncyTunerOptions tuner_options(
      std::uint64_t salt = 0) const {
    core::FuncyTunerOptions options;
    options.samples = samples;
    options.seed = seed + salt;
    options.eval_cache = eval_cache;
    return options;
  }
};

/// The paper's benchmark order (Fig 5/6/7 x-axis).
inline const std::vector<std::string>& benchmark_names() {
  static const std::vector<std::string> names = {
      "LULESH", "CL", "AMG", "Optewe", "bwaves", "fma3d", "swim"};
  return names;
}

/// Appends the geometric-mean column the paper's figures end with.
inline void add_gm_row(support::Table& table, const std::string& label,
                       const std::vector<double>& speedups) {
  std::vector<std::string> row = {label};
  for (const double s : speedups) row.push_back(support::Table::num(s));
  row.push_back(support::Table::num(support::geomean(speedups)));
  table.add_row(row);
}

/// Cumulative counters of the shared evaluation pool, for spotting
/// queue pressure or imbalance in long reproduction runs.
inline void print_pool_stats(std::ostream& out) {
  const support::ThreadPool::Stats s = support::global_pool().stats();
  support::Table table("Thread pool (" + std::to_string(s.threads) +
                       " workers)");
  table.set_header({"Submitted", "Completed", "Stolen", "Queue max",
                    "Busy [s]"});
  table.add_row({std::to_string(s.tasks_submitted),
                 std::to_string(s.tasks_completed),
                 std::to_string(s.tasks_stolen),
                 std::to_string(s.queue_high_water),
                 support::Table::num(s.worker_busy_seconds, 3)});
  table.print(out);
}

inline void print_table(const support::Table& table,
                        const BenchConfig& config) {
  table.print(std::cout);
  if (config.csv) table.print_csv(std::cout);
  if (config.pool_stats) print_pool_stats(std::cout);
}

}  // namespace ft::bench
