// Ablation: the pruned-space size X of Algorithm 1. The paper frames
// the three per-loop algorithms as one family (§2.2.4): greedy
// combination is "top-1", FR is "top-1000" (no pruning), and CFR picks
// top-X with 1 < X << 1000. Sweeping X maps out that continuum:
//  * X = 1: every sample is the greedy assembly - interference and the
//    winner's curse dominate;
//  * X too large: the pruned space is barely focused and the search
//    degenerates toward FR;
//  * the sweet spot sits at a few tens, where the paper's X lives.

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace ft;
  const bench::BenchConfig config = bench::BenchConfig::parse(argc, argv);

  support::Table table(
      "Ablation: CFR speedup vs pruned-space size X (Intel Broadwell)");
  std::vector<std::string> header = {"Program"};
  const std::vector<std::size_t> xs = {1, 3, 10, 30, 100, 300, 1000};
  for (const std::size_t x : xs) header.push_back("X=" + std::to_string(x));
  table.set_header(header);

  for (const std::string name : {"CL", "AMG", "LULESH"}) {
    core::FuncyTuner tuner(programs::by_name(name), machine::broadwell(),
                           config.tuner_options());
    std::vector<std::string> row = {name};
    for (const std::size_t x : xs) {
      core::CfrOptions cfr_options;
      cfr_options.top_x = std::min(x, config.samples);
      cfr_options.iterations = config.samples;
      cfr_options.seed = config.seed + x;
      const core::TuningResult result =
          cfr_search(tuner.evaluator(), tuner.outline(),
                     tuner.collection(), cfr_options);
      row.push_back(support::Table::num(result.speedup));
    }
    table.add_row(row);
  }
  bench::print_table(table, config);
  std::cout << "\nReading: X=1 reproduces greedy combination's fragile "
               "assembly; very large X approaches unguided per-function "
               "random search (FR); the focused middle is where CFR "
               "lives (paper §2.2.4).\n";
  return 0;
}
