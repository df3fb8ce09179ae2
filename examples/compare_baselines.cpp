// "Which tuner should I use?" - runs FuncyTuner CFR against every
// baseline the paper compares with (Combined Elimination, OpenTuner,
// the three COBAYN models, PGO) on one benchmark, printing speedups,
// evaluation counts and modeled tuning cost side by side.
//
// Usage: compare_baselines [--program AMG] [--samples 500] [--seed 42]

#include <iostream>

#include "baselines/cobayn.hpp"
#include "baselines/combined_elimination.hpp"
#include "baselines/opentuner.hpp"
#include "baselines/pgo_driver.hpp"
#include "core/funcy_tuner.hpp"
#include "flags/spaces.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace ft;
  support::OptionSet set;
  set.text("program", "AMG", "benchmark to tune")
      .integer("samples", 500, "pre-sampled CV count / search iterations")
      .integer("seed", 42, "top-level seed")
      .flag("help", false, "print this help");
  const support::OptionSet::Parsed args =
      set.parse_or_exit(argc - 1, argv + 1, argv[0]);

  core::FuncyTunerOptions options;
  options.samples = static_cast<std::size_t>(args.integer("samples"));
  options.seed = static_cast<std::uint64_t>(args.integer("seed"));
  const std::string program_name = args.text("program");

  support::Table table("Tuning " + program_name +
                       " on Intel Broadwell: all approaches");
  table.set_header({"Approach", "Speedup vs O3", "Evaluations",
                    "Modeled cost [d]"});

  auto cost_days = [](core::Evaluator& evaluator) {
    return support::Table::num(
        evaluator.modeled_overhead_seconds() / 86400.0, 2);
  };

  // Combined Elimination.
  {
    core::FuncyTuner tuner(programs::by_name(program_name),
                           machine::broadwell(), options);
    const auto ce = baselines::combined_elimination(
        tuner.evaluator(), tuner.space(), tuner.baseline_seconds(),
        options.seed);
    table.add_row({"Combined Elimination",
                   support::Table::num(ce.speedup),
                   std::to_string(ce.evaluations),
                   cost_days(tuner.evaluator())});
  }
  // OpenTuner ensemble.
  {
    core::FuncyTuner tuner(programs::by_name(program_name),
                           machine::broadwell(), options);
    baselines::OpenTunerOptions ot;
    ot.iterations = options.samples;
    ot.seed = options.seed;
    const auto result = baselines::opentuner_search(
        tuner.evaluator(), tuner.space(), ot, tuner.baseline_seconds());
    table.add_row({"OpenTuner",
                   support::Table::num(result.tuning.speedup),
                   std::to_string(result.tuning.evaluations),
                   cost_days(tuner.evaluator())});
  }
  // COBAYN (three feature models, one training pass).
  {
    const flags::FlagSpace icc = flags::icc_space();
    baselines::CobaynOptions cobayn_options;
    cobayn_options.seed = options.seed;
    cobayn_options.inference_samples = options.samples;
    baselines::Cobayn cobayn(icc, machine::broadwell(), cobayn_options);
    std::cout << "(training COBAYN on its synthetic corpus...)\n";
    cobayn.train();
    for (const auto model :
         {baselines::CobaynModel::kStatic,
          baselines::CobaynModel::kDynamic,
          baselines::CobaynModel::kHybrid}) {
      core::FuncyTuner tuner(programs::by_name(program_name),
                             machine::broadwell(), options);
      const auto result = cobayn.infer(tuner.evaluator(), model,
                                       tuner.baseline_seconds());
      table.add_row({result.algorithm,
                     support::Table::num(result.speedup),
                     std::to_string(result.evaluations),
                     cost_days(tuner.evaluator()) + " (+training)"});
    }
  }
  // Intel-style PGO.
  {
    core::FuncyTuner tuner(programs::by_name(program_name),
                           machine::broadwell(), options);
    const auto result =
        baselines::pgo_tune(tuner.evaluator(), tuner.baseline_seconds());
    table.add_row({result.instrumentation_failed ? "PGO (instr. FAILED)"
                                                 : "PGO",
                   support::Table::num(result.tuning.speedup),
                   std::to_string(result.tuning.evaluations),
                   cost_days(tuner.evaluator())});
  }
  // FuncyTuner CFR.
  {
    core::FuncyTuner tuner(programs::by_name(program_name),
                           machine::broadwell(), options);
    const auto result = tuner.run("cfr");
    table.add_row({"FuncyTuner CFR", support::Table::num(result.speedup),
                   std::to_string(tuner.evaluator().evaluations()),
                   cost_days(tuner.evaluator())});
  }

  table.print(std::cout);
  return 0;
}
