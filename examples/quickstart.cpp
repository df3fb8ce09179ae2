// Quickstart: tune one benchmark on one architecture with FuncyTuner.
//
// Demonstrates the whole public API surface:
//   1. pick a workload model and an architecture,
//   2. construct a FuncyTuner (flag space + compiler + engine),
//   3. profile & outline hot loops, collect per-loop runtimes,
//   4. run the four search algorithms and compare speedups.
//
// Usage: quickstart [--program CL] [--arch broadwell] [--samples 300]
//                   [--top-x 30] [--seed 42]

#include <iostream>

#include "core/funcy_tuner.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  ft::support::OptionSet set;
  set.text("program", "CL", "benchmark to tune",
           ft::support::accepted_by(ft::programs::by_name))
      .text("arch", "broadwell", "opteron|sandybridge|broadwell",
            ft::support::accepted_by(ft::machine::architecture_by_name))
      .integer("samples", 300, "pre-sampled CV count")
      .integer("top-x", 30, "CFR's pruned space per loop")
      .integer("seed", 42, "top-level seed")
      .flag("help", false, "print this help");
  const ft::support::OptionSet::Parsed args =
      set.parse_or_exit(argc - 1, argv + 1, argv[0]);

  ft::core::FuncyTunerOptions options;
  options.samples = static_cast<std::size_t>(args.integer("samples"));
  const std::string top_x = std::to_string(args.integer("top-x"));
  options.algorithm_options["cfr"] = {"--top-x=" + top_x};
  options.seed = static_cast<std::uint64_t>(args.integer("seed"));

  const std::string program_name = args.text("program");

  ft::core::FuncyTuner tuner(
      ft::programs::by_name(program_name),
      ft::machine::architecture_by_name(args.text("arch")), options);

  std::cout << "Tuning " << program_name << " on "
            << tuner.engine().arch().name << " (" << options.samples
            << " samples, top-X=" << top_x << ")\n\n";

  // Phase 1: profile & outline.
  const ft::core::Outline& outline = tuner.outline();
  std::cout << "Hot loops outlined (>= "
            << outline.threshold * 100 << "% of runtime): "
            << outline.hot.size() << " of "
            << tuner.program().loops().size() << ", profile run "
            << ft::support::Table::num(outline.profile_seconds, 2)
            << " s\n";

  // Phase 2-3: collection + the four algorithms.
  const double baseline_seconds = tuner.baseline_seconds();
  const ft::core::TuningResult random = tuner.run("random");
  const ft::core::TuningResult fr = tuner.run("fr");
  const ft::core::TuningResult greedy = tuner.run("greedy");
  const ft::core::TuningResult cfr = tuner.run("cfr");

  ft::support::Table table("Speedup vs -O3 baseline (" +
                           ft::support::Table::num(baseline_seconds, 2) +
                           " s)");
  table.set_header({"Algorithm", "Speedup", "Runtime [s]", "Evals"});
  auto row = [&](const ft::core::TuningResult& r) {
    table.add_row({r.algorithm, ft::support::Table::num(r.speedup),
                   ft::support::Table::num(r.tuned_seconds, 2),
                   std::to_string(r.evaluations)});
  };
  row(random);
  row(greedy);
  row(fr);
  row(cfr);
  table.add_row(
      {"G.Independent",
       ft::support::Table::num(
           greedy.extras.get_or(ft::core::kExtraIndependentSpeedup, 0)),
       ft::support::Table::num(
           greedy.extras.get_or(ft::core::kExtraIndependentSeconds, 0), 2),
       "-"});
  table.print(std::cout);

  // Per-loop view of the CFR winner (what Table 3 reports).
  const std::vector<double> speedups =
      tuner.per_loop_speedups(cfr.best_assignment);
  const std::vector<std::string> decisions =
      tuner.per_loop_decisions(cfr.best_assignment);
  const std::vector<std::string> baseline_decisions = tuner.per_loop_decisions(
      ft::compiler::ModuleAssignment::uniform(
          tuner.space().default_cv(), tuner.program().loops().size()));

  ft::support::Table loops("Per-loop CFR result");
  loops.set_header({"Loop", "O3 codegen", "CFR codegen", "Speedup"});
  for (std::size_t j = 0; j < speedups.size(); ++j) {
    loops.add_row({tuner.program().loops()[j].name, baseline_decisions[j],
                   decisions[j], ft::support::Table::num(speedups[j])});
  }
  loops.print(std::cout);
  return 0;
}
