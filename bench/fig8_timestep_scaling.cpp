// Fig 8 reproduction: Cloverleaf on Intel Broadwell while scaling the
// number of simulation time-steps from 100 to 800. Every approach
// tunes once on the tuning input; the tuned executables then run the
// longer simulations.
//
// Expected shape (paper): FuncyTuner CFR's benefit is stable across
// time-step counts (performance on the tuning input generalizes to
// longer production runs), with a GM around its tuning-input speedup.

#include "baselines/cobayn.hpp"
#include "baselines/opentuner.hpp"
#include "baselines/pgo_driver.hpp"
#include "bench/common.hpp"
#include "flags/spaces.hpp"

int main(int argc, char** argv) {
  using namespace ft;
  const bench::BenchConfig config = bench::BenchConfig::parse(argc, argv);

  const flags::FlagSpace icc = flags::icc_space();
  baselines::CobaynOptions cobayn_options;
  cobayn_options.seed = config.seed;
  cobayn_options.inference_samples = config.samples;
  baselines::Cobayn cobayn(icc, machine::broadwell(), cobayn_options);
  cobayn.train();

  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         config.tuner_options());

  struct Row {
    std::string algorithm;
    const compiler::ModuleAssignment* assignment;
  };
  const auto random = tuner.run("random");
  const auto greedy = tuner.run("greedy");
  const auto cobayn_result =
      cobayn.infer(tuner.evaluator(), baselines::CobaynModel::kStatic);
  const auto pgo_result = baselines::pgo_tune(tuner.evaluator());
  baselines::OpenTunerOptions ot_options;
  ot_options.iterations = config.samples;
  ot_options.seed = config.seed;
  const auto opentuner_result = baselines::opentuner_search(
      tuner.evaluator(), tuner.space(), ot_options);
  const auto cfr = tuner.run("cfr");

  const std::vector<Row> rows = {
      {"Random", &random.best_assignment},
      {"G.realized", &greedy.best_assignment},
      {"COBAYN", &cobayn_result.best_assignment},
      {"PGO", nullptr},  // PGO keeps its own binary
      {"OpenTuner", &opentuner_result.tuning.best_assignment},
      {"CFR", &cfr.best_assignment},
  };

  const std::vector<int> steps = {100, 200, 400, 800};
  support::Table table(
      "Fig 8: Cloverleaf on Broadwell, speedup over O3 vs time-steps");
  std::vector<std::string> header = {"Algorithm"};
  for (const int s : steps) header.push_back(std::to_string(s));
  header.push_back("GM");
  table.set_header(header);

  for (const Row& row : rows) {
    std::vector<double> speedups;
    for (const int s : steps) {
      const ir::InputSpec input =
          programs::with_timesteps(tuner.program().tuning_input(), s);
      if (row.assignment == nullptr) {
        speedups.push_back(pgo_result.tuning.speedup);
        continue;
      }
      speedups.push_back(tuner.baseline_seconds_on(input) /
                         tuner.seconds_on(input, *row.assignment));
    }
    bench::add_gm_row(table, row.algorithm, speedups);
  }
  bench::print_table(table, config);
  std::cout << "\nPaper reference: CFR holds a stable ~1.13 benefit "
               "from 100 through 800 time-steps, ahead of all other "
               "approaches.\n";
  return 0;
}
