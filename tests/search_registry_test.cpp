// Tests for the SearchAlgorithm registry: names, lookup errors, custom
// registration, the SearchContext checked accessors, the namespaced
// per-algorithm option schemas, the round-trip guarantee that
// resolving the four paper algorithms through the registry is
// bit-identical to calling the search functions directly for a fixed
// seed, and the registry-wide properties every listed algorithm keeps:
// fixed-seed determinism, and results that do not depend on caching,
// remote evaluation or a killed-and-resumed journal.

#include <gtest/gtest.h>

#include <stdlib.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/funcy_tuner.hpp"
#include "core/search.hpp"
#include "core/search_registry.hpp"
#include "core/serialization.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "service/fleet.hpp"
#include "service/server.hpp"
#include "support/rng.hpp"

namespace ft {
namespace {

constexpr std::size_t kCfrTopX = 5;

core::FuncyTunerOptions fast_options() {
  core::FuncyTunerOptions options;
  options.samples = 30;
  options.algorithm_options["cfr"] = {"--top-x=" + std::to_string(kCfrTopX)};
  return options;
}

std::string result_json(const core::FuncyTuner& tuner,
                        const core::TuningResult& result) {
  return core::tuning_result_json(result, tuner.space(), tuner.program());
}

/// Runs one registry algorithm on a fresh CL/Broadwell tuner and
/// returns the serialized result, the currency of every bit-identity
/// check below. A non-empty `journal_path` attaches a fresh
/// checkpoint journal there (what `ftune --checkpoint` does).
std::string run_json(const std::string& key,
                     const core::FuncyTunerOptions& options,
                     const std::string& journal_path = "") {
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         options);
  if (!journal_path.empty()) {
    tuner.evaluator().set_journal(core::EvalJournal::create(
        journal_path, core::options_fingerprint(options)));
  }
  return result_json(tuner, tuner.run(key));
}

/// mkdtemp directory under the test temp dir, removed on scope exit.
class ScratchDir {
 public:
  ScratchDir() : path_(testing::TempDir() + "ft_registry_XXXXXX") {
    if (::mkdtemp(path_.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + path_);
    }
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

TEST(SearchRegistry, RegistersThePaperAlgorithmsInOrder) {
  const std::vector<std::string> names =
      core::SearchRegistry::global().names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "random");
  EXPECT_EQ(names[1], "fr");
  EXPECT_EQ(names[2], "greedy");
  EXPECT_EQ(names[3], "cfr");
  EXPECT_TRUE(core::SearchRegistry::global().contains("cfr"));
  EXPECT_FALSE(core::SearchRegistry::global().contains("CFR"));
  // retune is registered (drift re-tuning resolves it) but unlisted.
  EXPECT_TRUE(core::SearchRegistry::global().contains("retune"));
  for (const char* retired : {"bo", "group", "staged"}) {
    EXPECT_FALSE(core::SearchRegistry::global().contains(retired))
        << retired;
  }
}

TEST(SearchRegistry, CreateResolvesDisplayNames) {
  EXPECT_EQ(core::SearchRegistry::global().create("random")->display_name(),
            "Random");
  EXPECT_EQ(core::SearchRegistry::global().create("fr")->display_name(),
            "FR");
  EXPECT_EQ(core::SearchRegistry::global().create("greedy")->display_name(),
            "G.realized");
  EXPECT_EQ(core::SearchRegistry::global().create("cfr")->display_name(),
            "CFR");
}

TEST(SearchRegistry, UnknownNameThrowsWithKnownKeys) {
  try {
    (void)core::SearchRegistry::global().create("annealing");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("annealing"), std::string::npos);
    EXPECT_NE(message.find("(registered: random, fr, greedy, cfr)"),
              std::string::npos)
        << message;
    // Unlisted internal algorithms must not leak into the suggestion.
    EXPECT_EQ(message.find("retune"), std::string::npos);
  }
}

// --- SearchContext checked accessors (one test per accessor) --------------

TEST(SearchContext_, EvaluatorAccessorThrowsWhenUnset) {
  core::SearchContext context;
  try {
    (void)context.evaluator();
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& error) {
    // The message must name the missing piece and the wiring call.
    EXPECT_NE(std::string(error.what()).find("evaluator"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("provide_"),
              std::string::npos);
  }
}

TEST(SearchContext_, OptionsAccessorThrowsWhenUnset) {
  core::SearchContext context;
  EXPECT_THROW((void)context.options(), std::logic_error);
}

TEST(SearchContext_, PresampledAccessorThrowsWhenUnset) {
  core::SearchContext context;
  EXPECT_THROW((void)context.presampled(), std::logic_error);
}

TEST(SearchContext_, OutlineAccessorThrowsWhenUnset) {
  core::SearchContext context;
  EXPECT_THROW((void)context.outline(), std::logic_error);
}

TEST(SearchContext_, CollectionAccessorThrowsWhenUnset) {
  core::SearchContext context;
  EXPECT_THROW((void)context.collection(), std::logic_error);
}

TEST(SearchContext_, BaselineAccessorThrowsWhenUnset) {
  // The baseline lives on the evaluator (Evaluator::baseline_seconds),
  // so an unwired context cannot reach one.
  core::SearchContext context;
  EXPECT_THROW((void)context.evaluator(), std::logic_error);
}

TEST(SearchContext_, SeedAssignmentAccessorThrowsWhenUnset) {
  core::SearchContext context;
  EXPECT_FALSE(context.has_seed_assignment());
  EXPECT_THROW((void)context.seed_assignment(), std::logic_error);
}

TEST(SearchContext_, AlgorithmTokensAreEmptyWithoutOptions) {
  // Programmatic harnesses often provide no FuncyTunerOptions at all;
  // the token accessor must not force them.
  core::SearchContext context;
  EXPECT_TRUE(context.algorithm_tokens("cfr").empty());
}

// --- namespaced knobs ------------------------------------------------------

TEST(SearchRegistry, CfrOptionSchemaRejectsUnknownAndMalformedKnobs) {
  const auto cfr = core::SearchRegistry::global().create("cfr");
  EXPECT_THROW((void)cfr->options().parse({"--no-such-knob=1"}),
               support::CliError);
  EXPECT_THROW((void)cfr->options().parse({"--top-x=ten"}),
               support::CliError);
  const support::OptionSet::Parsed parsed =
      cfr->options().parse({"--top-x=6", "--patience=3"});
  EXPECT_EQ(parsed.integer("top-x"), 6);
  EXPECT_EQ(parsed.integer("patience"), 3);
  EXPECT_FALSE(parsed.given("samples"));
}

TEST(SearchRegistry, NamespacedKnobsReachTheAlgorithm) {
  core::FuncyTunerOptions options = fast_options();
  options.algorithm_options["cfr"].push_back("--samples=9");
  options.algorithm_options["fr"] = {"--samples=7"};
  core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                         options);
  EXPECT_EQ(tuner.run("cfr").evaluations, 9u);
  EXPECT_EQ(tuner.run("fr").evaluations, 7u);
}

TEST(SearchRegistry, CustomAlgorithmsCanRegisterAndReplace) {
  class Fixed final : public core::SearchAlgorithm {
   public:
    std::string name() const override { return "fixed"; }
    std::string display_name() const override { return "Fixed"; }
    core::TuningResult run(core::SearchContext& context) const override {
      core::TuningResult result;
      result.algorithm = display_name();
      result.baseline_seconds = context.evaluator().baseline_seconds();
      result.speedup = 1.0;
      return result;
    }
  };

  core::SearchRegistry registry;
  registry.add("fixed", [] { return std::make_unique<Fixed>(); });
  ASSERT_TRUE(registry.contains("fixed"));

  core::FuncyTuner tuner(programs::swim(), machine::broadwell(),
                         fast_options());
  core::SearchContext context = tuner.search_context();
  const core::TuningResult result =
      registry.create("fixed")->run(context);
  EXPECT_EQ(result.algorithm, "Fixed");
  EXPECT_GT(result.baseline_seconds, 0.0);

  // Re-registering a key replaces the factory but keeps its slot.
  registry.add("fixed", [] { return std::make_unique<Fixed>(); });
  EXPECT_EQ(registry.names().size(), 1u);
}

/// The acceptance criterion: every registry algorithm's result is
/// seed-for-seed identical to the direct search-function call path.
TEST(SearchRegistry, RoundTripMatchesDirectCallsBitForBit) {
  const core::FuncyTunerOptions options = fast_options();

  // Direct path: call the search functions themselves.
  core::FuncyTuner direct(programs::cloverleaf(), machine::broadwell(),
                          options);
  const core::TuningResult direct_random = core::random_search(
      direct.evaluator(), direct.presampled());
  const core::TuningResult direct_fr = core::function_random_search(
      direct.evaluator(), direct.outline(), direct.presampled(),
      options.samples, support::Rng(options.seed).fork("fr").next());
  const core::TuningResult direct_greedy = core::greedy_combination(
      direct.evaluator(), direct.outline(), direct.collection());
  core::CfrOptions cfr_options;
  cfr_options.top_x = kCfrTopX;
  cfr_options.iterations = options.samples;
  cfr_options.seed = support::Rng(options.seed).fork("cfr").next();
  const core::TuningResult direct_cfr = core::cfr_search(
      direct.evaluator(), direct.outline(), direct.collection(),
      cfr_options);

  // Registry path, on a fresh tuner with the same seed.
  core::FuncyTuner registry(programs::cloverleaf(), machine::broadwell(),
                            options);
  auto expect_same = [](const core::TuningResult& a,
                        const core::TuningResult& b) {
    EXPECT_EQ(a.algorithm, b.algorithm);
    EXPECT_DOUBLE_EQ(a.search_best_seconds, b.search_best_seconds);
    EXPECT_DOUBLE_EQ(a.tuned_seconds, b.tuned_seconds);
    EXPECT_DOUBLE_EQ(a.baseline_seconds, b.baseline_seconds);
    EXPECT_DOUBLE_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.history, b.history);
    EXPECT_EQ(a.evaluations, b.evaluations);
  };
  expect_same(registry.run("random"), direct_random);
  expect_same(registry.run("fr"), direct_fr);
  const core::TuningResult greedy = registry.run("greedy");
  expect_same(greedy, direct_greedy);
  ASSERT_TRUE(greedy.extras.contains(core::kExtraIndependentSpeedup));
  EXPECT_EQ(greedy.extras.items(), direct_greedy.extras.items());
  expect_same(registry.run("cfr"), direct_cfr);
}

TEST(SearchRegistry, PatienceFoldsIntoCfrOptions) {
  core::FuncyTunerOptions options = fast_options();
  options.algorithm_options["cfr"].push_back("--patience=3");
  core::FuncyTuner tuner(programs::swim(), machine::broadwell(), options);
  const core::TuningResult early = tuner.run("cfr");
  EXPECT_LE(early.evaluations, options.samples);
  EXPECT_GT(early.speedup, 0.0);

  // With patience off, the fixed budget is spent in full, and the
  // early-stopped run's measurements are a prefix of the full run's.
  options = fast_options();
  core::FuncyTuner full(programs::swim(), machine::broadwell(), options);
  const core::TuningResult complete = full.run("cfr");
  EXPECT_EQ(complete.evaluations, options.samples);
  ASSERT_LE(early.history.size(), complete.history.size());
  for (std::size_t i = 0; i < early.history.size(); ++i) {
    EXPECT_DOUBLE_EQ(early.history[i], complete.history[i]);
  }
}

// --- registry-wide properties ----------------------------------------------

TEST(SearchRegistryProperty, FixedSeedIsBitIdenticalAcrossRuns) {
  const core::FuncyTunerOptions options = fast_options();
  for (const std::string& key : core::SearchRegistry::global().names()) {
    SCOPED_TRACE(key);
    const std::string first = run_json(key, options);
    EXPECT_EQ(first, run_json(key, options));

    core::FuncyTunerOptions reseeded = options;
    reseeded.seed = 1234;
    EXPECT_NE(first, run_json(key, reseeded));
  }
}

/// For every listed algorithm, the result JSON is byte-identical
/// whether it ran plain, with the memory tier, with a fresh disk tier,
/// with a disk tier the other algorithms' runs already filled, or with
/// a checkpoint journal attached: the cache and the journal change
/// cost, never results.
TEST(SearchRegistryProperty, ResultsDoNotDependOnCaching) {
  const core::FuncyTunerOptions options = fast_options();
  const std::vector<std::string> names =
      core::SearchRegistry::global().names();
  for (const std::string& key : names) {
    SCOPED_TRACE(key);
    const std::string plain = run_json(key, options);

    core::FuncyTunerOptions memory = options;
    memory.eval_cache = true;
    EXPECT_EQ(run_json(key, memory), plain) << "memory tier";

    const ScratchDir fresh;
    core::FuncyTunerOptions disk = options;
    disk.eval_cache_dir = fresh.path();
    EXPECT_EQ(run_json(key, disk), plain) << "fresh disk tier";

    const ScratchDir filled;
    disk.eval_cache_dir = filled.path();
    for (const std::string& other : names) {
      if (other != key) (void)run_json(other, disk);
    }
    EXPECT_EQ(run_json(key, disk), plain) << "pre-filled disk tier";

    const ScratchDir journal_dir;
    EXPECT_EQ(run_json(key, options, journal_dir.path() + "/journal.ftj"),
              plain)
        << "checkpoint journal";
  }
}

TEST(SearchRegistryProperty, RemoteBackendIsBitIdenticalToLocal) {
  service::ServerOptions server_options;
  server_options.listen = "tcp:127.0.0.1:0";
  service::Server server(server_options);
  server.start();
  const core::FuncyTunerOptions options = fast_options();
  for (const std::string& key : core::SearchRegistry::global().names()) {
    SCOPED_TRACE(key);
    core::FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                           options);
    // What `--remote ADDR` attaches: a fleet of one.
    tuner.evaluator().set_backend(service::make_fleet_backend_factory(
        {server.address().display()}, {}, {})(tuner.program(),
                                               tuner.engine().arch(),
                                               options));
    EXPECT_EQ(result_json(tuner, tuner.run(key)), run_json(key, options));
  }
  server.stop();
}

TEST(SearchRegistryProperty, KilledRunResumesBitIdentically) {
  const core::FuncyTunerOptions options = fast_options();
  const std::uint64_t fingerprint = core::options_fingerprint(options);
  for (const std::string& key : core::SearchRegistry::global().names()) {
    SCOPED_TRACE(key);
    const ScratchDir dir;
    const std::string path = dir.path() + "/journal.ftj";
    const std::string expected = run_json(key, options, path);

    // Kill: keep ~40% of the file, torn tail included.
    std::filesystem::resize_file(path,
                                 std::filesystem::file_size(path) * 2 / 5);

    auto journal = core::EvalJournal::resume(path, fingerprint);
    EXPECT_GT(journal->loaded(), 0u);
    core::FuncyTuner resumed(programs::cloverleaf(), machine::broadwell(),
                             options);
    resumed.evaluator().set_journal(journal);
    EXPECT_EQ(result_json(resumed, resumed.run(key)), expected);
    EXPECT_GT(resumed.evaluator().resilience_stats().cache_hits, 0u);
  }
}

}  // namespace
}  // namespace ft
