// Cross-architecture portability study: tune on one machine, deploy on
// another. The paper tunes per architecture (Fig 5 shows all three);
// this example asks the follow-up question a facility operator would:
// how much of a Broadwell-tuned configuration survives on Sandy Bridge
// or Opteron, compared to tuning natively?
//
// Usage: cross_architecture [--program CL] [--samples 600]

#include <iostream>

#include "core/funcy_tuner.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/options.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace ft;
  support::OptionSet set;
  set.text("program", "CL", "benchmark to tune")
      .integer("samples", 600, "pre-sampled CV count")
      .integer("seed", 42, "top-level seed")
      .flag("help", false, "print this help");
  const support::OptionSet::Parsed args =
      set.parse_or_exit(argc - 1, argv + 1, argv[0]);

  core::FuncyTunerOptions options;
  options.samples = static_cast<std::size_t>(args.integer("samples"));
  options.seed = static_cast<std::uint64_t>(args.integer("seed"));
  const std::string program_name = args.text("program");

  // Tune natively on every architecture first.
  struct PerArch {
    machine::Architecture arch;
    std::unique_ptr<core::FuncyTuner> tuner;
    core::TuningResult cfr;
  };
  std::vector<PerArch> machines;
  for (const machine::Architecture& arch :
       machine::all_architectures()) {
    PerArch entry{arch, nullptr, {}};
    entry.tuner = std::make_unique<core::FuncyTuner>(
        programs::by_name(program_name), arch, options);
    entry.cfr = entry.tuner->run("cfr");
    machines.push_back(std::move(entry));
  }

  // Deploy each tuned assignment on each machine. CVs are portable
  // (same flag space); the hardware response is not.
  support::Table table("CFR CVs for " + program_name +
                       ": tuned-on (rows) vs run-on (columns), "
                       "speedup over the target's O3");
  table.set_header({"Tuned on \\ run on", "AMD Opteron",
                    "Intel Sandy Bridge", "Intel Broadwell"});
  for (const PerArch& source : machines) {
    std::vector<std::string> row = {source.arch.name};
    for (PerArch& target : machines) {
      const double baseline = target.tuner->baseline_seconds_on(
          target.tuner->tuning_input());
      const double tuned = target.tuner->seconds_on(
          target.tuner->tuning_input(), source.cfr.best_assignment);
      row.push_back(support::Table::num(baseline / tuned));
    }
    table.add_row(row);
  }
  table.print(std::cout);
  std::cout << "\nDiagonal = native tuning; off-diagonal = ported CVs. "
               "Most of the benefit ports between the Intel parts; "
               "Opteron-tuned vector/streaming choices travel worst.\n";
  return 0;
}
