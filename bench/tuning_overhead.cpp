// §4.3 reproduction (text): modeled tuning overhead per approach -
// about 1.5 days for Random/G, 2 days for OpenTuner, 3 days for CFR
// and 1 week for COBAYN per benchmark - plus the CFR convergence
// trend the paper cites ("CFR finds the best code variant in tens or
// several hundreds of evaluations").
//
// Compile/run costs use the evaluator's overhead model (ICC+xild
// compile seconds per distinct module CV, plus measured run seconds).
// With --eval-cache, hits split the total into charged vs. saved
// columns - charged + saved always equals the cache-off total, so the
// §4.3 comparison stays honest either way.

#include "baselines/cobayn.hpp"
#include "baselines/opentuner.hpp"
#include "bench/common.hpp"
#include "core/eval_cache.hpp"
#include "core/evolution.hpp"
#include "flags/spaces.hpp"

namespace {

std::string days(double seconds) {
  return ft::support::Table::num(seconds / 86400.0, 2) + " d";
}

/// One overhead row: evaluations, charged seconds, cache-saved
/// seconds, and their sum (the cost a cache-off run would have paid).
void add_overhead_row(ft::support::Table& table, const std::string& label,
                      ft::core::Evaluator& evaluator,
                      const std::string& evals_suffix = "",
                      double extra_charged = 0.0) {
  const double charged =
      evaluator.modeled_overhead_seconds() + extra_charged;
  const double saved = evaluator.saved_overhead_seconds();
  table.add_row({label,
                 std::to_string(evaluator.evaluations()) + evals_suffix,
                 days(charged), days(saved), days(charged + saved)});
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ft;
  const bench::BenchConfig config = bench::BenchConfig::parse(argc, argv);

  support::Table table(
      "Tuning overhead per benchmark (modeled testbed time), "
      "Cloverleaf on Intel Broadwell");
  table.set_header(
      {"Approach", "Evaluations", "Charged", "Saved (cache)", "Total"});

  // Random / G share the collection-style budget (1000 uniform builds).
  {
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           config.tuner_options());
    (void)tuner.run_random();
    add_overhead_row(table, "Random/G", tuner.evaluator());
  }
  // OpenTuner: 1000 test iterations.
  {
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           config.tuner_options());
    baselines::OpenTunerOptions options;
    options.iterations = config.samples;
    options.seed = config.seed;
    (void)baselines::opentuner_search(tuner.evaluator(), tuner.space(),
                                      options,
                                      tuner.baseline_seconds());
    add_overhead_row(table, "OpenTuner", tuner.evaluator());
  }
  // CFR: collection (1000 uniform) + 1000 assembled variants.
  core::FuncyTuner cfr_tuner(programs::cloverleaf(), machine::broadwell(),
                             config.tuner_options());
  const auto cfr = cfr_tuner.run_cfr();
  add_overhead_row(table, "CFR", cfr_tuner.evaluator());
  // CFR with the evaluation cache: identical result, smaller charge.
  // (Skipped when --eval-cache already cached the rows above.)
  std::size_t cached_cfr_hits = 0;
  if (!config.eval_cache) {
    bench::BenchConfig cached_config = config;
    cached_config.eval_cache = true;
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           cached_config.tuner_options());
    (void)tuner.run_cfr();
    add_overhead_row(table, "CFR + eval cache", tuner.evaluator());
    cached_cfr_hits = tuner.evaluator().resilience_stats().cache_hits;
  }
  // EvoCFR: converging populations recombine the same genomes, so the
  // cache retires a visible share of the budget - the clearest
  // demonstration of the charged/saved split at paper scale.
  std::size_t evo_hits = 0;
  {
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           config.tuner_options());
    core::EvolutionOptions options;
    options.evaluations = config.samples;
    options.seed = config.seed;
    (void)core::evolutionary_search(tuner.evaluator(), tuner.outline(),
                                    tuner.collection(), options,
                                    tuner.baseline_seconds());
    add_overhead_row(table, "EvoCFR", tuner.evaluator());

    bench::BenchConfig cached_config = config;
    cached_config.eval_cache = true;
    core::FuncyTuner cached(programs::cloverleaf(), machine::broadwell(),
                            cached_config.tuner_options());
    (void)core::evolutionary_search(cached.evaluator(), cached.outline(),
                                    cached.collection(), options,
                                    cached.baseline_seconds());
    add_overhead_row(table, "EvoCFR + eval cache", cached.evaluator());
    evo_hits = cached.evaluator().resilience_stats().cache_hits;
  }
  // COBAYN: corpus measurement dominates (24 programs x samples) plus
  // per-target inference.
  {
    const flags::FlagSpace icc = flags::icc_space();
    baselines::CobaynOptions options;
    options.seed = config.seed;
    baselines::Cobayn cobayn(icc, machine::broadwell(), options);
    cobayn.train();
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           config.tuner_options());
    (void)cobayn.infer(tuner.evaluator(),
                       baselines::CobaynModel::kStatic,
                       tuner.baseline_seconds());
    const double corpus_cost =
        static_cast<double>(options.corpus_size *
                            options.corpus_samples) *
        (2.0 * 8.0 + 40.0 + 6.0);  // compile+link+short corpus run
    add_overhead_row(table, "COBAYN (incl. training)", tuner.evaluator(),
                     " + corpus", corpus_cost);
  }
  bench::print_table(table, config);
  if (cached_cfr_hits != 0) {
    std::cout << "CFR + eval cache: " << cached_cfr_hits
              << " duplicate evaluations served from the cache\n";
  }
  if (evo_hits != 0) {
    std::cout << "EvoCFR + eval cache: " << evo_hits
              << " duplicate evaluations served from the cache\n";
  }

  // CFR convergence: best-so-far speedup after N evaluations.
  support::Table convergence("CFR convergence (Cloverleaf, Broadwell)");
  convergence.set_header({"Evaluations", "Best-so-far speedup"});
  for (const std::size_t n : {10u, 50u, 100u, 250u, 500u,
                              static_cast<unsigned>(
                                  cfr.history.size())}) {
    if (n == 0 || n > cfr.history.size()) continue;
    convergence.add_row(
        {std::to_string(n),
         support::Table::num(cfr.baseline_seconds /
                             cfr.history[n - 1])});
  }
  bench::print_table(convergence, config);

  std::cout << "\nPaper reference (§4.3): ~1.5 days Random/G, ~2 days "
               "OpenTuner, ~3 days CFR, ~1 week COBAYN per benchmark; "
               "CFR finds its best variant within tens to hundreds of "
               "evaluations.\n";
  return 0;
}
