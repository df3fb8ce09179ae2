// Ablation: measurement-noise robustness. The paper claims (§3.3) that
// Caliper's per-loop runtimes "are sufficiently informative to
// FuncyTuner so that measurement noise is tolerated with its search
// algorithms", while greedy top-1 selection is noise-brittle. Sweeping
// the per-region attribution error makes that claim quantitative:
//  * G.Independent inflates with noise (min of noisier samples - the
//    winner's curse the paper's huge G.Independent bars exhibit);
//  * G.realized degrades (top-1 picks become arbitrary);
//  * CFR's top-X pruning keeps working until the noise approaches the
//    real per-loop spread.

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace ft;
  const bench::BenchConfig config = bench::BenchConfig::parse(argc, argv);

  support::Table table(
      "Ablation: Cloverleaf/Broadwell speedups vs per-region "
      "attribution noise");
  table.set_header({"sigma_attr", "G.realized", "G.Independent", "CFR",
                    "Random"});

  for (const double sigma : {0.0, 0.01, 0.03, 0.06, 0.12}) {
    core::FuncyTunerOptions options = config.tuner_options();
    options.attribution_sigma = sigma;
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           options);
    const auto greedy = tuner.run("greedy");
    const auto cfr = tuner.run("cfr");
    const auto random = tuner.run("random");
    table.add_row({support::Table::num(sigma * 100, 0) + "%",
                   support::Table::num(greedy.speedup),
                   support::Table::num(greedy.extras.get_or(
                       core::kExtraIndependentSpeedup, 0)),
                   support::Table::num(cfr.speedup),
                   support::Table::num(random.speedup)});
  }
  bench::print_table(table, config);
  std::cout << "\nReading: the G.Independent column inflates with noise "
               "(winner's curse over 1000 samples) while G.realized "
               "does not follow - their growing gap is an artifact of "
               "top-1 selection, not real speedup. CFR and Random are "
               "nearly flat: end-to-end measurements and top-X pruning "
               "absorb per-region error (paper §3.3).\n";
  return 0;
}
