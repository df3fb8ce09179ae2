// Ablation: the causal role of cross-module interference. The paper's
// central negative result is that greedily assembling per-loop winners
// degrades performance BECAUSE modules are not independent (link-time
// IPO re-optimization, shared-data layout/alias coupling, aggregate
// code growth). This bench re-runs greedy combination and CFR in a
// counterfactual world with those link effects disabled: greedy's
// realized result should then close most of its gap to G.Independent
// (the remaining gap is the winner's curse of picking noisy per-loop
// minima, plus runtime-context effects such as streaming-store
// eviction chains that no linker switch can remove).

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace ft;
  const bench::BenchConfig config = bench::BenchConfig::parse(argc, argv);

  support::Table table(
      "Ablation: greedy combination with link effects on/off "
      "(Intel Broadwell)");
  table.set_header({"Program", "G.realized", "G.realized (no link fx)",
                    "G.Independent", "CFR", "CFR (no link fx)"});

  for (const auto& name : bench::benchmark_names()) {
    // Default world.
    core::FuncyTuner tuner(programs::by_name(name), machine::broadwell(),
                           config.tuner_options());
    const auto greedy = tuner.run("greedy");
    const auto cfr = tuner.run("cfr");

    // Counterfactual world: independent modules.
    core::FuncyTuner independent(programs::by_name(name),
                                 machine::broadwell(),
                                 config.tuner_options());
    independent.engine().compiler().set_link_options(
        compiler::LinkOptions::none());
    const auto greedy_off = independent.run("greedy");
    const auto cfr_off = independent.run("cfr");

    table.add_row({name, support::Table::num(greedy.speedup),
                   support::Table::num(greedy_off.speedup),
                   support::Table::num(greedy.extras.get_or(
                       core::kExtraIndependentSpeedup, 0)),
                   support::Table::num(cfr.speedup),
                   support::Table::num(cfr_off.speedup)});
  }
  bench::print_table(table, config);
  std::cout << "\nReading: disabling the link effects moves G.realized "
               "toward G.Independent and closes part of the CFR gap - "
               "the interference the paper blames is causal in this "
               "model, not incidental.\n";
  return 0;
}
