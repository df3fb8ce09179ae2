// Fig 5 reproduction: Random, G.realized, FR, CFR and G.Independent on
// all seven benchmarks across the three architectures (Fig 5a: AMD
// Opteron, 5b: Intel Sandy Bridge, 5c: Intel Broadwell), normalized to
// the -O3 baseline, with the geometric-mean column.
//
// Expected shape (paper): CFR wins most cases with GM speedups of
// 9.2% / 10.3% / 9.4%; Random gains only 3.4% / 5.0% / 4.6%; G.realized
// frequently degrades below 1.0 (0.34 worst case); G.Independent is an
// unreachable upper bound (up to 1.52/1.73).
//
// --remote ADDR[,ADDR...] evaluates through running `ftuned` daemons
// (one fleet, as in `ftune --remote`) instead of in-process; results
// are bit-identical either way (the daemons only execute raw
// measurements, all bookkeeping stays local).

#include "bench/common.hpp"

#include "core/search_registry.hpp"
#include "service/fleet.hpp"

int main(int argc, char** argv) {
  using namespace ft;
  support::OptionSet options = bench::BenchConfig::option_set();
  options.text("remote", "",
               "evaluate via running ftuned daemon(s): comma-separated "
               "unix:PATH / tcp:host:port endpoints");
  const support::OptionSet::Parsed parsed =
      options.parse_or_exit(argc - 1, argv + 1, argv[0]);
  const bench::BenchConfig config = bench::BenchConfig::from(parsed);
  const std::vector<std::string> remote =
      service::parse_address_list(parsed.text("remote"));
  const service::FleetFactory fleet =
      remote.empty() ? nullptr
                     : service::make_fleet_backend_factory(remote, {}, {});
  const std::vector<std::string> algorithms =
      core::SearchRegistry::global().names();

  const char* subfig = "abc";
  int arch_index = 0;
  for (const machine::Architecture& arch :
       machine::all_architectures()) {
    support::Table table(std::string("Fig 5") + subfig[arch_index] +
                         ": speedup over O3 on " + arch.name);
    std::vector<std::string> header = {"Algorithm"};
    for (const auto& name : bench::benchmark_names()) header.push_back(name);
    header.push_back("GM");
    table.set_header(header);

    // One speedup series per registry algorithm, plus G.Independent
    // (carried in greedy's TuningResult extras block).
    std::vector<std::string> labels(algorithms.size());
    std::vector<std::vector<double>> series(algorithms.size());
    std::vector<double> g_independent;
    for (const auto& name : bench::benchmark_names()) {
      const core::FuncyTunerOptions tuner_options =
          config.tuner_options(static_cast<std::uint64_t>(arch_index));
      core::FuncyTuner tuner(programs::by_name(name), arch,
                             tuner_options);
      if (fleet) {
        tuner.evaluator().set_backend(
            fleet(tuner.program(), arch, tuner_options));
      }
      for (std::size_t i = 0; i < algorithms.size(); ++i) {
        const core::TuningResult result = tuner.run(algorithms[i]);
        labels[i] = result.algorithm;
        series[i].push_back(result.speedup);
        if (const std::optional<double> independent =
                result.extras.get(core::kExtraIndependentSpeedup)) {
          g_independent.push_back(*independent);
        }
      }
    }
    for (std::size_t i = 0; i < algorithms.size(); ++i) {
      bench::add_gm_row(table, labels[i], series[i]);
    }
    if (!g_independent.empty()) {
      bench::add_gm_row(table, "G.Independent", g_independent);
    }
    bench::print_table(table, config);
    std::cout << '\n';
    ++arch_index;
  }

  std::cout << "Paper reference GMs - CFR: 1.092 (Opteron), 1.103 "
               "(Sandy Bridge), 1.094 (Broadwell); Random: 1.034 / "
               "1.050 / 1.046.\n";
  return 0;
}
