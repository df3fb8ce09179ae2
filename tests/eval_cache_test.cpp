// Tests for the content-addressed evaluation cache: LRU/sharding/
// collision unit tests plus the property the whole feature rests on -
// cache-on runs are bit-identical to cache-off runs (results, journals,
// quarantine decisions) while the modeled overhead splits exactly into
// charged + saved.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "core/evolution.hpp"
#include "core/funcy_tuner.hpp"
#include "core/persistent_cache.hpp"
#include "core/serialization.hpp"
#include "machine/architecture.hpp"
#include "programs/benchmarks.hpp"
#include "support/rng.hpp"

namespace ft::core {
namespace {

/// Small budget, tiny pruned space: CFR/EvoCFR re-draw from top-2 per
/// module, so duplicate assignments (cache hits) are guaranteed.
FuncyTunerOptions collision_options(std::uint64_t seed = 42,
                                    std::size_t samples = 60) {
  FuncyTunerOptions options;
  options.samples = samples;
  options.algorithm_options["cfr"] = {"--top-x=2"};
  options.seed = seed;
  options.final_reps = 5;
  return options;
}

EvalOutcome make_outcome(double seconds) {
  EvalOutcome outcome;
  outcome.result.end_to_end = seconds;
  outcome.result.stddev = 0.01;
  outcome.result.loop_seconds = {seconds / 2, seconds / 4};
  return outcome;
}

EvalCache::Key make_key(std::uint64_t assignment) {
  return EvalCache::Key{assignment, rep_streams::kCfr, 7, 1, false};
}

/// A journal's records, decoded from the file and re-encoded as FTC1
/// entries, as an order-insensitive set: append order under a parallel
/// batch is scheduling-dependent, the record *set* is not.
std::set<std::string> journal_records(const std::string& path) {
  std::set<std::string> records;
  EvalJournal::resume(path, 0)->for_each([&](const JournalRecord& record) {
    records.insert(PersistentCache::encode_entry(
        {record.key, record.rep_base, 0, record.repetitions,
         record.instrumented},
        record.outcome, record.rerun_seconds));
  });
  return records;
}

void expect_identical(const TuningResult& a, const TuningResult& b) {
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.search_best_seconds, b.search_best_seconds);
  EXPECT_EQ(a.tuned_seconds, b.tuned_seconds);
  EXPECT_EQ(a.baseline_seconds, b.baseline_seconds);
  EXPECT_EQ(a.speedup, b.speedup);
  EXPECT_EQ(a.history, b.history);
  EXPECT_EQ(a.evaluations, b.evaluations);
}

// ----------------------------------------------------------- unit ----

TEST(EvalCacheUnit, KeyFingerprintMixesEveryField) {
  const EvalCache::Key base{1, 2, 3, 4, false};
  EvalCache::Key other = base;
  EXPECT_EQ(base.fingerprint(), other.fingerprint());
  other.assignment = 9;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.rep_base = 9;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.salt = 9;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.repetitions = 9;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  other = base;
  other.instrumented = true;
  EXPECT_NE(base.fingerprint(), other.fingerprint());
  // The test seam masks to the requested width.
  EXPECT_LT(base.fingerprint(4), 16u);
}

TEST(EvalCacheUnit, StoresAndReplaysOutcome) {
  EvalCache cache(16);
  EvalOutcome out;
  double rerun = -1;
  EXPECT_FALSE(cache.lookup(make_key(1), &out, &rerun));

  cache.insert(make_key(1), make_outcome(3.5), 42.25);
  ASSERT_TRUE(cache.lookup(make_key(1), &out, &rerun));
  EXPECT_TRUE(out.ok());
  EXPECT_DOUBLE_EQ(out.result.end_to_end, 3.5);
  EXPECT_EQ(out.result.loop_seconds, make_outcome(3.5).result.loop_seconds);
  EXPECT_DOUBLE_EQ(rerun, 42.25);

  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.5);
}

TEST(EvalCacheUnit, DuplicateInsertRefreshesInsteadOfGrowing) {
  EvalCache cache(16);
  cache.insert(make_key(1), make_outcome(1.0), 10.0);
  cache.insert(make_key(1), make_outcome(1.0), 10.0);
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 1u);  // refresh, not a second insert
}

TEST(EvalCacheUnit, LruEvictsLeastRecentlyUsed) {
  EvalCache cache(EvalCache::Options{.max_entries = 2, .shards = 1});
  cache.insert(make_key(1), make_outcome(1.0), 0.0);
  cache.insert(make_key(2), make_outcome(2.0), 0.0);

  // Touch 1 so 2 becomes the LRU victim.
  EvalOutcome out;
  ASSERT_TRUE(cache.lookup(make_key(1), &out));
  cache.insert(make_key(3), make_outcome(3.0), 0.0);

  EXPECT_TRUE(cache.lookup(make_key(1), &out));
  EXPECT_DOUBLE_EQ(out.result.end_to_end, 1.0);
  EXPECT_TRUE(cache.lookup(make_key(3), &out));
  EXPECT_FALSE(cache.lookup(make_key(2), &out));  // evicted

  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(EvalCacheUnit, FingerprintCollisionsResolvedByFullKey) {
  // 1-bit fingerprints: every entry lands in one of two chains, so the
  // full-key disambiguation path is exercised constantly.
  EvalCache cache(
      EvalCache::Options{.max_entries = 64, .shards = 1, .hash_bits = 1});
  for (std::uint64_t i = 0; i < 32; ++i) {
    cache.insert(make_key(i), make_outcome(static_cast<double>(i) + 0.5),
                 static_cast<double>(i));
  }
  for (std::uint64_t i = 0; i < 32; ++i) {
    EvalOutcome out;
    double rerun = -1;
    ASSERT_TRUE(cache.lookup(make_key(i), &out, &rerun));
    EXPECT_DOUBLE_EQ(out.result.end_to_end, static_cast<double>(i) + 0.5);
    EXPECT_DOUBLE_EQ(rerun, static_cast<double>(i));
  }
  // A key that only differs in salt shares fingerprints with high
  // probability at 1 bit but must still miss.
  EvalOutcome out;
  EXPECT_FALSE(
      cache.lookup(EvalCache::Key{1, rep_streams::kCfr, 8, 1, false}, &out));
}

TEST(EvalCacheUnit, EvictionKeepsCollisionChainsConsistent) {
  EvalCache cache(
      EvalCache::Options{.max_entries = 4, .shards = 1, .hash_bits = 1});
  for (std::uint64_t i = 0; i < 40; ++i) {
    cache.insert(make_key(i), make_outcome(static_cast<double>(i)), 0.0);
  }
  const EvalCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 36u);
  // The four newest survive; everything older was evicted cleanly.
  for (std::uint64_t i = 36; i < 40; ++i) {
    EvalOutcome out;
    EXPECT_TRUE(cache.lookup(make_key(i), &out));
  }
  EvalOutcome out;
  EXPECT_FALSE(cache.lookup(make_key(0), &out));
}

// ------------------------------------------------------- property ----

TEST(EvalCacheProperty, CacheOnBitIdenticalToCacheOffAcrossSeeds) {
  std::size_t total_hits = 0;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    SCOPED_TRACE(seed);
    FuncyTunerOptions off = collision_options(seed);
    FuncyTunerOptions on = off;
    on.eval_cache = true;

    FuncyTuner a(programs::cloverleaf(), machine::broadwell(), off);
    FuncyTuner b(programs::cloverleaf(), machine::broadwell(), on);
    const TuningResult ra = a.run("cfr");
    const TuningResult rb = b.run("cfr");
    expect_identical(ra, rb);
    EXPECT_EQ(tuning_result_json(ra, a.space(), a.program()),
              tuning_result_json(rb, b.space(), b.program()));
    total_hits += b.evaluator().resilience_stats().cache_hits;
  }
  // Top-2 pruned spaces collide: across three seeds the cache must
  // actually serve hits, or this whole test is vacuous.
  EXPECT_GT(total_hits, 0u);
}

TEST(EvalCacheProperty, EvolutionSearchBitIdenticalWithCache) {
  FuncyTunerOptions off = collision_options();
  FuncyTunerOptions on = off;
  on.eval_cache = true;
  FuncyTuner a(programs::cloverleaf(), machine::broadwell(), off);
  FuncyTuner b(programs::cloverleaf(), machine::broadwell(), on);

  EvolutionOptions evo;
  evo.top_x = 2;
  evo.evaluations = 80;
  evo.population = 8;
  const TuningResult ra = evolutionary_search(
      a.evaluator(), a.outline(), a.collection(), evo, a.baseline_seconds());
  const TuningResult rb = evolutionary_search(
      b.evaluator(), b.outline(), b.collection(), evo, b.baseline_seconds());
  expect_identical(ra, rb);
  // Converging populations re-evaluate recombined duplicates; EvoCFR is
  // where the cache pays off hardest.
  EXPECT_GT(b.evaluator().resilience_stats().cache_hits, 0u);
  EXPECT_GT(b.evaluator().saved_overhead_seconds(), 0.0);
}

TEST(EvalCacheProperty, SequentialAndBatchPathsAgreeWithCache) {
  // patience == iterations can never trigger (at most iterations-1
  // non-improving steps happen), so the sequential path runs the full
  // budget and must land exactly where the parallel batch path does.
  FuncyTunerOptions batch = collision_options();
  batch.eval_cache = true;
  FuncyTunerOptions sequential = batch;
  sequential.algorithm_options["cfr"].push_back(
      "--patience=" + std::to_string(sequential.samples));

  FuncyTuner a(programs::cloverleaf(), machine::broadwell(), batch);
  FuncyTuner b(programs::cloverleaf(), machine::broadwell(), sequential);
  const TuningResult ra = a.run("cfr");
  const TuningResult rb = b.run("cfr");
  expect_identical(ra, rb);
}

TEST(EvalCacheProperty, JournalsAndQuarantineSetsIdenticalCacheOnVsOff) {
  // Fault injection exercises the ugly corner: cached failures must
  // rebuild quarantine state exactly as re-running would.
  FuncyTunerOptions off = collision_options();
  off.faults.rate = 0.08;
  off.faults.seed = 13;
  FuncyTunerOptions on = off;
  on.eval_cache = true;
  const std::string path_off = testing::TempDir() + "ft_cache_off.ftj";
  const std::string path_on = testing::TempDir() + "ft_cache_on.ftj";

  FuncyTuner a(programs::cloverleaf(), machine::broadwell(), off);
  a.evaluator().set_journal(
      EvalJournal::create(path_off, options_fingerprint(off)));
  FuncyTuner b(programs::cloverleaf(), machine::broadwell(), on);
  b.evaluator().set_journal(
      EvalJournal::create(path_on, options_fingerprint(off)));

  const TuningResult ra = a.run("cfr");
  const TuningResult rb = b.run("cfr");
  expect_identical(ra, rb);

  const ResilienceStats sa = a.evaluator().resilience_stats();
  const ResilienceStats sb = b.evaluator().resilience_stats();
  EXPECT_EQ(sa.quarantined, sb.quarantined);
  EXPECT_EQ(sa.compile_failures, sb.compile_failures);
  EXPECT_EQ(sa.quarantine_hits, sb.quarantine_hits);

  // Same record set: hits append nothing, exactly like journal replays.
  EXPECT_EQ(journal_records(path_off), journal_records(path_on));
}

TEST(EvalCacheProperty, ChargedPlusSavedEqualsCacheOffTotal) {
  FuncyTunerOptions off = collision_options();
  FuncyTunerOptions on = off;
  on.eval_cache = true;
  FuncyTuner a(programs::cloverleaf(), machine::broadwell(), off);
  FuncyTuner b(programs::cloverleaf(), machine::broadwell(), on);
  (void)a.run("cfr");
  (void)b.run("cfr");

  const double charged_off = a.evaluator().modeled_overhead_seconds();
  const double charged_on = b.evaluator().modeled_overhead_seconds();
  const double saved_on = b.evaluator().saved_overhead_seconds();
  EXPECT_GT(saved_on, 0.0);
  EXPECT_LT(charged_on, charged_off);
  // Accumulation order differs (hence NEAR, not EQ), but the split is
  // exact by construction: every hit saves precisely what the
  // deterministic re-run would have charged.
  EXPECT_NEAR(charged_on + saved_on, charged_off, 1e-9 * charged_off);
  // Logical evaluation counts agree: hits count as evaluations.
  EXPECT_EQ(a.evaluator().evaluations(), b.evaluator().evaluations());
}

TEST(EvalCacheProperty, WarmStartResumeSkipsAllJournaledEvaluations) {
  const FuncyTunerOptions options = collision_options();
  const std::uint64_t fingerprint = options_fingerprint(options);
  const std::string path = testing::TempDir() + "ft_cache_warm.ftj";

  FuncyTuner recorded(programs::cloverleaf(), machine::broadwell(), options);
  recorded.evaluator().set_journal(EvalJournal::create(path, fingerprint));
  const TuningResult expected = recorded.run("cfr");

  // Resume with the complete journal loaded into the cache: every
  // evaluation is served from memory - zero re-evaluations, zero
  // journal appends, zero modeled seconds charged.
  FuncyTunerOptions cached = options;
  cached.eval_cache = true;
  FuncyTuner resumed(programs::cloverleaf(), machine::broadwell(), cached);
  auto journal = EvalJournal::resume(path, fingerprint);
  resumed.evaluator().set_journal(journal);
  const TuningResult result = resumed.run("cfr");

  expect_identical(result, expected);
  EXPECT_EQ(resumed.evaluator().evaluations(),
            recorded.evaluator().evaluations());
  EXPECT_EQ(journal->appended(), 0u);
  EXPECT_DOUBLE_EQ(resumed.evaluator().modeled_overhead_seconds(), 0.0);
  EXPECT_GT(resumed.evaluator().saved_overhead_seconds(), 0.0);
  const ResilienceStats stats = resumed.evaluator().resilience_stats();
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
}

TEST(EvalCacheProperty, KilledRunResumesViaCacheBitIdentically) {
  // The kill-and-resume scenario with the cache in the loop: a torn
  // journal fills a partial cache; the tail re-evaluates and the final
  // result still matches the uninterrupted run exactly.
  const FuncyTunerOptions options = collision_options();
  const std::uint64_t fingerprint = options_fingerprint(options);
  const std::string path = testing::TempDir() + "ft_cache_kill.ftj";

  FuncyTuner reference(programs::cloverleaf(), machine::broadwell(), options);
  const TuningResult expected = reference.run("cfr");

  FuncyTuner recorded(programs::cloverleaf(), machine::broadwell(), options);
  recorded.evaluator().set_journal(EvalJournal::create(path, fingerprint));
  (void)recorded.run("cfr");

  // Kill mid-append: keep the first half of the file, torn tail
  // included.
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);

  FuncyTunerOptions cached = options;
  cached.eval_cache = true;
  FuncyTuner resumed(programs::cloverleaf(), machine::broadwell(), cached);
  auto journal = EvalJournal::resume(path, fingerprint);
  resumed.evaluator().set_journal(journal);
  const TuningResult result = resumed.run("cfr");

  expect_identical(result, expected);
  // Journaled prefix came from the cache; only the lost tail re-ran.
  EXPECT_EQ(resumed.evaluator().evaluations(),
            reference.evaluator().evaluations());
  EXPECT_GT(journal->appended(), 0u);
  EXPECT_GT(resumed.evaluator().resilience_stats().cache_hits, 0u);
}

TEST(EvalCacheProperty, WarmStartRebuildsFaultBookkeeping) {
  // A replayed failure leaves the bookkeeping its computation left: an
  // ICE re-quarantines its CV, every failure counts toward its
  // assignment's quarantine, and only measured runs count as
  // evaluations. Cold, disk-warm and journal-resumed runs agree.
  FuncyTunerOptions options = collision_options();
  options.algorithm_options["cfr"] = {"--top-x=8"};
  options.faults.rate = 0.2;
  const std::uint64_t fingerprint = options_fingerprint(options);
  // Per-process names: concurrent copies of this binary must not share
  // a disk tier.
  const std::string dir =
      testing::TempDir() + "ft_cache_faults_" + std::to_string(::getpid());
  const std::string path = dir + ".ftj";
  std::filesystem::remove_all(dir);

  FuncyTunerOptions disk = options;
  disk.eval_cache_dir = dir;
  FuncyTuner cold(programs::cloverleaf(), machine::broadwell(), disk);
  cold.evaluator().set_journal(EvalJournal::create(path, fingerprint));
  const TuningResult expected = cold.run("cfr");
  FuncyTuner warm(programs::cloverleaf(), machine::broadwell(), disk);
  const TuningResult from_disk = warm.run("cfr");
  FuncyTuner resumed(programs::cloverleaf(), machine::broadwell(), options);
  resumed.evaluator().set_journal(EvalJournal::resume(path, fingerprint));
  const TuningResult from_journal = resumed.run("cfr");

  expect_identical(from_disk, expected);
  expect_identical(from_journal, expected);
  const ResilienceStats reference = cold.evaluator().resilience_stats();
  EXPECT_GT(reference.quarantined, 0u);
  EXPECT_GT(reference.failed_evaluations, 0u);
  for (FuncyTuner* tuner : {&warm, &resumed}) {
    const ResilienceStats stats = tuner->evaluator().resilience_stats();
    EXPECT_EQ(stats.quarantined, reference.quarantined);
    EXPECT_EQ(stats.failed_evaluations, reference.failed_evaluations);
    EXPECT_EQ(tuner->evaluator().evaluations(),
              cold.evaluator().evaluations());
    EXPECT_EQ(stats.cache_misses, 0u);
  }
  std::filesystem::remove_all(dir);
}

TEST(EvalCacheProperty, InBatchDuplicatesAlwaysHit) {
  // Each variant appears twice, side by side, so on a parallel pool the
  // two copies would run at once. The first copy is dispatched before
  // its duplicate, which is therefore always a hit.
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                   collision_options());
  support::Rng rng(7);
  const std::vector<flags::CompilationVector> cvs =
      tuner.space().sample_many(rng, 8);
  std::vector<EvalRequest> batch;
  for (const flags::CompilationVector& cv : cvs) {
    EvalRequest request;
    request.assignment = compiler::ModuleAssignment::uniform(
        cv, tuner.program().loops().size());
    request.rep_base = rep_streams::kCfr;
    batch.push_back(request);
    batch.push_back(request);
  }
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE(round);
    const auto cache = std::make_shared<EvalCache>();
    tuner.set_eval_cache(cache);
    const std::vector<EvalResponse> responses =
        tuner.evaluator().evaluate_batch(batch);
    ASSERT_EQ(cache->stats().hits, cvs.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      ASSERT_EQ(responses[i].served_by, i % 2 == 0
                                            ? EvalServedBy::kRun
                                            : EvalServedBy::kCacheHit);
      ASSERT_EQ(responses[i].seconds(), responses[i - i % 2].seconds());
    }
  }
}

TEST(EvalCacheProperty, SharedCacheNeverCrossesFaultConfigs) {
  // Two tuners that differ only in the fault mix measure different
  // failures, so one shared cache must keep their entries apart: the
  // second tuner lands on the same bytes alone and after the first.
  FuncyTunerOptions first;
  first.samples = 40;
  first.faults.rate = 0.3;
  first.faults.compile_share = 0.9;
  FuncyTunerOptions second = first;
  second.faults.compile_share = 0.1;

  const auto cfr_json = [](const FuncyTunerOptions& options,
                           const std::shared_ptr<EvalCache>& cache) {
    FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(), options);
    tuner.set_eval_cache(cache);
    const TuningResult result = tuner.run("cfr");
    return tuning_result_json(result, tuner.space(), tuner.program());
  };
  const std::string alone =
      cfr_json(second, std::make_shared<EvalCache>());
  const auto shared = std::make_shared<EvalCache>();
  (void)cfr_json(first, shared);
  EXPECT_EQ(cfr_json(second, shared), alone);
}

TEST(EvalCacheProperty, CampaignSharedCacheBitIdentical) {
  CampaignOptions off;
  off.tuner = collision_options(42, 40);
  off.algorithms = {"cfr"};
  CampaignOptions on = off;
  on.tuner.eval_cache = true;

  Campaign a({programs::cloverleaf()},
             {machine::broadwell(), machine::sandy_bridge()}, off);
  a.run();
  Campaign b({programs::cloverleaf()},
             {machine::broadwell(), machine::sandy_bridge()}, on);
  b.run();

  for (const CampaignCell& cell : a.cells()) {
    const CampaignCell& other = b.cell(cell.program, cell.architecture);
    ASSERT_EQ(cell.results.size(), other.results.size());
    for (std::size_t i = 0; i < cell.results.size(); ++i) {
      expect_identical(cell.results[i], other.results[i]);
    }
  }
}

}  // namespace
}  // namespace ft::core
