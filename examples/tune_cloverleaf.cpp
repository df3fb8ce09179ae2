// Deep-dive example: the paper's §4.4 Cloverleaf case study as a
// library workflow. Profiles and tunes CloverLeaf on Intel Broadwell,
// then drills into the five case-study kernels: per-loop runtimes,
// codegen decisions of every algorithm, and greedy flag elimination to
// find the performance-critical flags of the CFR winner.
//
// Usage: tune_cloverleaf [--samples 1000] [--seed 42] [--arch broadwell]

#include <iostream>

#include "baselines/flag_elimination.hpp"
#include "core/funcy_tuner.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/options.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace ft;
  support::OptionSet set;
  set.integer("samples", 1000, "pre-sampled CV count")
      .integer("seed", 42, "top-level seed")
      .text("arch", "broadwell", "opteron|sandybridge|broadwell")
      .flag("help", false, "print this help");
  const support::OptionSet::Parsed args =
      set.parse_or_exit(argc - 1, argv + 1, argv[0]);

  core::FuncyTunerOptions options;
  options.samples = static_cast<std::size_t>(args.integer("samples"));
  options.seed = static_cast<std::uint64_t>(args.integer("seed"));
  const machine::Architecture arch =
      machine::architecture_by_name(args.text("arch"));

  core::FuncyTuner tuner(programs::cloverleaf(), arch, options);
  std::cout << "=== CloverLeaf deep dive on " << arch.name << " ===\n\n";

  // 1. Profile: per-loop shares from the Caliper-instrumented O3 run.
  const core::Outline& outline = tuner.outline();
  support::Table profile("Caliper profile of the O3 baseline");
  profile.set_header({"Loop", "Runtime share", "Outlined?"});
  for (std::size_t j = 0; j < tuner.program().loops().size(); ++j) {
    const bool hot = std::find(outline.hot.begin(), outline.hot.end(),
                               j) != outline.hot.end();
    profile.add_row({tuner.program().loops()[j].name,
                     support::Table::num(
                         outline.measured_share[j] * 100.0, 1) +
                         "%",
                     hot ? "yes" : "no"});
  }
  profile.print(std::cout);

  // 2. Tune with all four algorithms.
  const core::TuningResult random = tuner.run("random");
  const core::TuningResult fr = tuner.run("fr");
  const core::TuningResult greedy = tuner.run("greedy");
  const core::TuningResult cfr = tuner.run("cfr");
  support::Table summary("End-to-end speedups vs O3");
  summary.set_header({"Algorithm", "Speedup"});
  summary.add_row({"Random", support::Table::num(random.speedup)});
  summary.add_row({"G.realized", support::Table::num(greedy.speedup)});
  summary.add_row({"FR", support::Table::num(fr.speedup)});
  summary.add_row({"CFR", support::Table::num(cfr.speedup)});
  summary.add_row({"G.Independent",
                   support::Table::num(greedy.extras.get_or(
                       core::kExtraIndependentSpeedup, 0))});
  summary.print(std::cout);

  // 3. The five case-study kernels, per algorithm.
  const std::vector<std::string> kernels = {"dt", "cell3", "cell7",
                                            "mom9", "acc"};
  auto index_of = [&](const std::string& name) {
    for (std::size_t j = 0; j < tuner.program().loops().size(); ++j) {
      if (tuner.program().loops()[j].name == name) return j;
    }
    return std::size_t{0};
  };
  support::Table decisions("Codegen decisions for the top-5 kernels");
  decisions.set_header(
      {"Algorithm", "dt", "cell3", "cell7", "mom9", "acc"});
  auto decision_row = [&](const std::string& label,
                          const compiler::ModuleAssignment& assignment) {
    const auto all_decisions = tuner.per_loop_decisions(assignment);
    std::vector<std::string> row = {label};
    for (const auto& kernel : kernels) {
      row.push_back(all_decisions[index_of(kernel)]);
    }
    decisions.add_row(row);
  };
  decision_row("O3",
               compiler::ModuleAssignment::uniform(
                   tuner.space().default_cv(),
                   tuner.program().loops().size()));
  decision_row("Random", random.best_assignment);
  decision_row("G.realized", greedy.best_assignment);
  decision_row("CFR", cfr.best_assignment);
  decisions.print(std::cout);

  // 4. Which flags actually matter? Greedy elimination per kernel.
  std::cout << "\nPerformance-critical flags of the CFR winner:\n";
  for (const auto& kernel : kernels) {
    const auto critical = baselines::eliminate_noncritical_flags(
        tuner.evaluator(), tuner.space(), cfr.best_assignment,
        index_of(kernel));
    std::cout << "  " << kernel << ": "
              << (critical.critical.empty()
                      ? std::string("(no special flags)")
                      : support::join(critical.critical, " "))
              << '\n';
  }
  return 0;
}
