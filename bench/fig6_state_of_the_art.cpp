// Fig 6 reproduction: FuncyTuner CFR vs the state of the art on Intel
// Broadwell - COBAYN (static / dynamic / hybrid Bayesian-network
// models trained on a cBench-like corpus), Intel-style PGO, and the
// OpenTuner ensemble (1000 test iterations), all vs the O3 baseline.
//
// Expected shape (paper): CFR 9.4% GM; OpenTuner ~4.9%; COBAYN static
// ~4.6%, hybrid ~2.1%, dynamic below 1.0; PGO marginal with failed
// instrumentation runs for LULESH and Optewe.

#include "baselines/cobayn.hpp"
#include "baselines/opentuner.hpp"
#include "baselines/pgo_driver.hpp"
#include "bench/common.hpp"
#include "flags/spaces.hpp"

int main(int argc, char** argv) {
  using namespace ft;
  const bench::BenchConfig config = bench::BenchConfig::parse(argc, argv);
  const std::vector<std::string>& names = bench::benchmark_names();

  // Train COBAYN once on the synthetic serial corpus (paper §4.2.1).
  const flags::FlagSpace icc = flags::icc_space();
  baselines::CobaynOptions cobayn_options;
  cobayn_options.seed = config.seed;
  cobayn_options.inference_samples = config.samples;
  baselines::Cobayn cobayn(icc, machine::broadwell(), cobayn_options);
  std::cout << "Training COBAYN on " << cobayn_options.corpus_size
            << " cBench-like serial kernels...\n";
  cobayn.train();

  support::Table table("Fig 6: speedup over O3 on Intel Broadwell");
  std::vector<std::string> header = {"Algorithm"};
  for (const auto& name : names) header.push_back(name);
  header.push_back("GM");
  table.set_header(header);

  std::vector<double> cobayn_static, cobayn_dynamic, cobayn_hybrid, pgo,
      opentuner, cfr;
  std::vector<std::string> pgo_notes;

  for (const auto& name : names) {
    core::FuncyTuner tuner(programs::by_name(name), machine::broadwell(),
                           config.tuner_options());
    const double baseline = tuner.baseline_seconds();

    cobayn_static.push_back(
        cobayn.infer(tuner.evaluator(), baselines::CobaynModel::kStatic,
                     baseline)
            .speedup);
    cobayn_dynamic.push_back(
        cobayn.infer(tuner.evaluator(), baselines::CobaynModel::kDynamic,
                     baseline)
            .speedup);
    cobayn_hybrid.push_back(
        cobayn.infer(tuner.evaluator(), baselines::CobaynModel::kHybrid,
                     baseline)
            .speedup);

    const baselines::PgoResult pgo_result =
        baselines::pgo_tune(tuner.evaluator(), baseline);
    pgo.push_back(pgo_result.tuning.speedup);
    if (pgo_result.instrumentation_failed) {
      pgo_notes.push_back(name);
    }

    baselines::OpenTunerOptions ot_options;
    ot_options.iterations = config.samples;
    ot_options.seed = config.seed;
    opentuner.push_back(
        baselines::opentuner_search(tuner.evaluator(), tuner.space(),
                                    ot_options, baseline)
            .tuning.speedup);

    cfr.push_back(tuner.run_cfr().speedup);
  }

  bench::add_gm_row(table, "static COBAYN", cobayn_static);
  bench::add_gm_row(table, "dynamic COBAYN", cobayn_dynamic);
  bench::add_gm_row(table, "hybrid COBAYN", cobayn_hybrid);
  bench::add_gm_row(table, "PGO", pgo);
  bench::add_gm_row(table, "OpenTuner", opentuner);
  bench::add_gm_row(table, "CFR", cfr);
  bench::print_table(table, config);

  if (!pgo_notes.empty()) {
    std::cout << "\nPGO instrumentation runs FAILED for: ";
    for (const auto& name : pgo_notes) std::cout << name << ' ';
    std::cout << "(paper §4.2.2: LULESH and Optewe) - O3 binary used.\n";
  }
  std::cout << "Paper reference GMs: CFR 1.094, OpenTuner 1.049, "
               "static COBAYN 1.046, hybrid 1.021, dynamic < 1.0, PGO "
               "marginal.\n";
  return 0;
}
