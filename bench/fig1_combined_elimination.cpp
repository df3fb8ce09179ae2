// Fig 1 reproduction: Combined Elimination does not improve performance
// significantly over -O3 for either the GCC-like or the ICC-like
// compiler on LULESH, Cloverleaf and AMG (Intel Broadwell).
//
// Expected shape (paper): every bar hovers around 1.0; CE stalls in a
// local minimum near the O3 configuration.

#include "baselines/combined_elimination.hpp"
#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace ft;
  const bench::BenchConfig config = bench::BenchConfig::parse(argc, argv);

  support::Table table(
      "Fig 1: Combined Elimination speedup over O3 (Intel Broadwell)");
  table.set_header({"Compiler", "LULESH", "Cloverleaf", "AMG"});

  for (const auto personality :
       {compiler::Personality::kGcc, compiler::Personality::kIcc}) {
    std::vector<std::string> row = {
        compiler::personality_name(personality)};
    for (const std::string name : {"LULESH", "CL", "AMG"}) {
      core::FuncyTuner tuner(programs::by_name(name),
                             machine::broadwell(),
                             config.tuner_options(), personality);
      const baselines::CeResult ce =
          baselines::combined_elimination(tuner.evaluator(), tuner.space());
      row.push_back(support::Table::num(ce.tuning.speedup));
    }
    table.add_row(row);
  }

  bench::print_table(table, config);
  std::cout << "\nPaper reference: all CE bars lie between ~0.95 and "
               "~1.05 for both compilers (Fig 1).\n";
  return 0;
}
