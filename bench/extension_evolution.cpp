// Extension bench: evolutionary per-loop search vs CFR on the same
// budget. CFR re-samples per-module CVs blindly within the pruned
// spaces; the evolutionary variant recombines measured-good assignments
// (module-boundary crossover), learning which per-module choices
// COMBINE well through the link. Both use the same collection, pruned
// spaces and measurement budget, so any gap is pure search quality.

#include "bench/common.hpp"
#include "core/evolution.hpp"

int main(int argc, char** argv) {
  using namespace ft;
  const bench::BenchConfig config = bench::BenchConfig::parse(argc, argv);

  support::Table table(
      "Extension: evolutionary per-loop search vs CFR "
      "(Intel Broadwell, equal budgets)");
  std::vector<std::string> header = {"Algorithm"};
  for (const auto& name : bench::benchmark_names()) header.push_back(name);
  header.push_back("GM");
  table.set_header(header);

  std::vector<double> cfr_speedups, evo_speedups;
  for (const auto& name : bench::benchmark_names()) {
    core::FuncyTuner tuner(programs::by_name(name), machine::broadwell(),
                           config.tuner_options());
    cfr_speedups.push_back(tuner.run("cfr").speedup);

    core::EvolutionOptions evolution;
    evolution.evaluations = config.samples;
    evolution.seed = config.seed;
    evo_speedups.push_back(
        core::evolutionary_search(tuner.evaluator(), tuner.outline(),
                                  tuner.collection(), evolution)
            .speedup);
  }
  bench::add_gm_row(table, "CFR", cfr_speedups);
  bench::add_gm_row(table, "EvoCFR", evo_speedups);
  bench::print_table(table, config);
  std::cout << "\nReading: recombination of measured-good assignments "
               "can squeeze a little more than blind re-sampling from "
               "the same pruned spaces - the framework's next step "
               "beyond the paper.\n";
  return 0;
}
