// Tests for the fault-injection layer and the resilient evaluation
// pipeline: deterministic fault draws, retry/quarantine semantics,
// graceful degradation of every registry search under faults, robust
// final-rep aggregation, and checkpoint/resume bit-identity.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/eval_cache.hpp"
#include "core/funcy_tuner.hpp"
#include "core/search_registry.hpp"
#include "core/serialization.hpp"
#include "machine/architecture.hpp"
#include "machine/fault_model.hpp"
#include "programs/benchmarks.hpp"
#include "support/rng.hpp"

namespace ft::core {
namespace {

FuncyTunerOptions fast_options(std::size_t samples = 60) {
  FuncyTunerOptions options;
  options.samples = samples;
  options.algorithm_options["cfr"] = {"--top-x=8"};
  options.seed = 42;
  options.final_reps = 5;
  return options;
}

FuncyTunerOptions faulty_options(double rate, std::size_t samples = 60) {
  FuncyTunerOptions options = fast_options(samples);
  options.faults.rate = rate;
  options.faults.seed = 99;
  return options;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Cuts the file at `path` down to `fraction` of its size: the state a
/// kill mid-append leaves behind.
void cut_file(const std::string& path, double fraction) {
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(
      path, static_cast<std::uintmax_t>(static_cast<double>(size) * fraction));
}

// ---------------------------------------------------------- fault model ----

TEST(FaultModel, DisabledInjectsNothing) {
  const machine::FaultModel model = machine::FaultModel::none();
  EXPECT_FALSE(model.enabled());
  for (std::uint64_t k = 0; k < 200; ++k) {
    EXPECT_FALSE(model.compile_fails(k));
    EXPECT_EQ(model.run_fault(k, 0, 0), machine::FaultModel::RunFault::kNone);
    EXPECT_DOUBLE_EQ(model.outlier_multiplier(k), 1.0);
  }
}

TEST(FaultModel, DeterministicPerSeed) {
  machine::FaultConfig config;
  config.rate = 0.3;
  config.seed = 7;
  const machine::FaultModel a(config);
  const machine::FaultModel b(config);
  config.seed = 8;
  const machine::FaultModel c(config);

  bool any_difference = false;
  for (std::uint64_t k = 0; k < 500; ++k) {
    EXPECT_EQ(a.compile_fails(k), b.compile_fails(k));
    EXPECT_EQ(a.run_fault(k, 3, 1), b.run_fault(k, 3, 1));
    EXPECT_DOUBLE_EQ(a.outlier_multiplier(k), b.outlier_multiplier(k));
    any_difference |= a.compile_fails(k) != c.compile_fails(k);
  }
  EXPECT_TRUE(any_difference);  // a different seed draws different faults
}

TEST(FaultModel, RateProportionalAndSplitByShares) {
  machine::FaultConfig config;
  config.rate = 0.4;
  config.compile_share = 0.5;  // => P(ICE) = 0.2 per CV
  const machine::FaultModel model(config);
  std::size_t ices = 0;
  for (std::uint64_t k = 0; k < 2000; ++k) ices += model.compile_fails(k);
  EXPECT_NEAR(static_cast<double>(ices) / 2000.0, 0.2, 0.04);

  std::size_t crashes = 0, timeouts = 0;
  for (std::uint64_t k = 0; k < 2000; ++k) {
    switch (model.run_fault(k, 0, 0)) {
      case machine::FaultModel::RunFault::kCrash: ++crashes; break;
      case machine::FaultModel::RunFault::kTimeout: ++timeouts; break;
      case machine::FaultModel::RunFault::kNone: break;
    }
  }
  EXPECT_NEAR(static_cast<double>(crashes) / 2000.0, 0.1, 0.04);
  EXPECT_NEAR(static_cast<double>(timeouts) / 2000.0, 0.1, 0.04);
}

TEST(FaultModel, RetriesRedrawRunFaults) {
  machine::FaultConfig config;
  config.rate = 0.6;
  config.compile_share = 0.0;
  config.crash_share = 1.0;
  config.timeout_share = 0.0;
  const machine::FaultModel model(config);
  // Some attempt succeeds where attempt 0 crashed: the draw depends on
  // the attempt index, which is what makes retries worthwhile.
  bool recovered = false;
  for (std::uint64_t k = 0; k < 200 && !recovered; ++k) {
    if (model.run_fault(k, 0, 0) != machine::FaultModel::RunFault::kCrash) {
      continue;
    }
    for (int attempt = 1; attempt < 4; ++attempt) {
      if (model.run_fault(k, 0, attempt) ==
          machine::FaultModel::RunFault::kNone) {
        recovered = true;
        break;
      }
    }
  }
  EXPECT_TRUE(recovered);
}

TEST(FaultModel, OutlierMultiplierInConfiguredRange) {
  machine::FaultConfig config;
  config.rate = 0.0;
  config.outlier_rate = 0.5;
  const machine::FaultModel model(config);
  EXPECT_TRUE(model.enabled());  // outlier-only configs still inject
  std::size_t spikes = 0;
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const double m = model.outlier_multiplier(k);
    if (m == 1.0) continue;
    ++spikes;
    EXPECT_GE(m, config.outlier_min_scale);
    EXPECT_LE(m, config.outlier_max_scale);
  }
  EXPECT_NEAR(static_cast<double>(spikes) / 1000.0, 0.5, 0.06);
}

TEST(FaultModel, RejectsInvalidRate) {
  machine::FaultConfig config;
  config.rate = 1.5;
  EXPECT_THROW(machine::FaultModel{config}, std::invalid_argument);
}

// --------------------------------------------------- resilient searches ----

TEST(Resilience, FastPathIsBitIdenticalToPrePolicyRuns) {
  // Faults off, no journal: two tuners with the same seed must agree
  // exactly and record no failures or retries.
  FuncyTuner a(programs::cloverleaf(), machine::broadwell(), fast_options());
  FuncyTuner b(programs::cloverleaf(), machine::broadwell(), fast_options());
  const TuningResult ra = a.run("cfr");
  const TuningResult rb = b.run("cfr");
  EXPECT_EQ(ra.tuned_seconds, rb.tuned_seconds);
  EXPECT_EQ(ra.history, rb.history);
  const ResilienceStats stats = a.evaluator().resilience_stats();
  EXPECT_EQ(stats.failed_evaluations, 0u);
  EXPECT_EQ(stats.retries, 0u);
}

TEST(Resilience, AllRegistryAlgorithmsSurviveFaultInjection) {
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                   faulty_options(0.1));
  for (const std::string& name : SearchRegistry::global().names()) {
    SCOPED_TRACE(name);
    const TuningResult result = tuner.run(name);
    // The campaign completes and crowns a real winner even though some
    // evaluations failed.
    EXPECT_TRUE(std::isfinite(result.tuned_seconds));
    EXPECT_GT(result.speedup, 0.0);
  }
  const ResilienceStats stats = tuner.evaluator().resilience_stats();
  EXPECT_GT(stats.failed_evaluations, 0u);
  EXPECT_GT(stats.compile_failures + stats.run_crashes + stats.run_timeouts,
            0u);
}

TEST(Resilience, TransientCrashesAreRetried) {
  FuncyTunerOptions options = fast_options();
  options.faults.rate = 0.3;
  options.faults.seed = 5;
  options.faults.compile_share = 0.0;  // only transient crashes
  options.faults.crash_share = 1.0;
  options.faults.timeout_share = 0.0;
  options.faults.outlier_rate = 0.0;
  options.retry.max_retries = 6;
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(), options);
  const TuningResult result = tuner.run("random");
  EXPECT_TRUE(std::isfinite(result.tuned_seconds));
  const ResilienceStats stats = tuner.evaluator().resilience_stats();
  EXPECT_GT(stats.retries, 0u);
  // With 6 retries against a 30% transient rate, virtually every
  // evaluation recovers.
  EXPECT_LT(stats.failed_evaluations, stats.retries);
}

TEST(Resilience, CompileFailuresQuarantineTheVector) {
  FuncyTunerOptions options = fast_options();
  options.faults.rate = 0.4;
  options.faults.seed = 11;
  options.faults.compile_share = 1.0;  // ICEs only: retrying never helps
  options.faults.crash_share = 0.0;
  options.faults.timeout_share = 0.0;
  options.faults.outlier_rate = 0.0;
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(), options);
  const TuningResult result = tuner.run("random");
  EXPECT_TRUE(std::isfinite(result.tuned_seconds));
  const ResilienceStats stats = tuner.evaluator().resilience_stats();
  EXPECT_GT(stats.compile_failures, 0u);
  EXPECT_GT(stats.quarantined, 0u);
  EXPECT_EQ(stats.retries, 0u);  // permanent faults are never retried
}

TEST(Resilience, EvalTimeoutBudgetFailsSlowRuns) {
  FuncyTunerOptions options = fast_options();
  options.retry.eval_timeout_seconds = 1e-9;  // everything exceeds this
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(), options);
  const TuningResult result = tuner.run("random");
  // Every evaluation times out; the search degrades to the default-CV
  // fallback instead of crashing, and the JSON stays parseable.
  EXPECT_FALSE(std::isfinite(result.tuned_seconds));
  const ResilienceStats stats = tuner.evaluator().resilience_stats();
  EXPECT_GT(stats.run_timeouts, 0u);
  const std::string json =
      tuning_result_json(result, tuner.space(), tuner.program());
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_NE(json.find("\"tuned_seconds\":null"), std::string::npos);
}

TEST(Resilience, OutlierSpikeCannotFlipFinalScoring) {
  // Outlier-only injection: runs complete but single reps can be
  // inflated 3-10x. Robust (trimmed-mean) final aggregation must stay
  // near the clean measurement while a plain mean is dragged upward.
  FuncyTunerOptions clean = fast_options();
  FuncyTunerOptions spiky = fast_options();
  spiky.faults.rate = 0.0;
  spiky.faults.outlier_rate = 0.15;
  spiky.faults.seed = 3;

  FuncyTuner reference(programs::cloverleaf(), machine::broadwell(), clean);
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(), spiky);
  const double clean_baseline = reference.baseline_seconds();
  const double robust_baseline = tuner.baseline_seconds();
  // 20% trim of 5 reps cuts the single worst rep, so an injected spike
  // cannot drag the aggregate: the robust estimate stays within a few
  // noise sigma of the clean protocol's value.
  EXPECT_NEAR(robust_baseline, clean_baseline, 0.05 * clean_baseline);
}

// ----------------------------------------------------- journal encoding ----

/// A successful record whose every field differs from its default.
JournalRecord success_record(std::uint64_t key) {
  JournalRecord record;
  record.key = key;
  record.rep_base = rep_streams::kCfr + key;
  record.repetitions = 5;
  record.instrumented = true;
  record.outcome.attempts = 2;
  record.outcome.result.end_to_end = 123.45678901234567 + 1e-3 * key;
  record.outcome.result.stddev = 0.001234;
  record.outcome.result.loop_seconds = {1.1, 2.2, 0.3333333333333333};
  record.outcome.result.derived_nonloop_seconds = 119.82345567901234;
  record.rerun_seconds = 3.25;
  return record;
}

JournalRecord failure_record(std::uint64_t key) {
  JournalRecord record;
  record.key = key;
  record.outcome.error.kind = EvalFault::kRunCrash;
  record.outcome.error.detail = "0x000000000000002a";
  record.outcome.attempts = 3;
  return record;
}

/// Journals `records` to a fresh file and returns the byte offset at
/// which each record ends, preceded by the header's end.
std::vector<std::size_t> write_journal(
    const std::string& path, std::uint64_t fingerprint,
    const std::vector<JournalRecord>& records) {
  auto journal = EvalJournal::create(path, fingerprint);
  std::vector<std::size_t> ends = {std::filesystem::file_size(path)};
  for (const JournalRecord& record : records) {
    journal->record(record);
    ends.push_back(std::filesystem::file_size(path));
  }
  return ends;
}

/// Every record `journal` decodes, in append order.
std::vector<JournalRecord> records_of(EvalJournal& journal) {
  std::vector<JournalRecord> records;
  journal.for_each(
      [&](const JournalRecord& record) { records.push_back(record); });
  return records;
}

/// True when `journal` holds `record` with every field bit-exact.
bool replays_exactly(EvalJournal& journal, const JournalRecord& record) {
  const auto same = [&](const JournalRecord& got) {
    const machine::RunResult& a = got.outcome.result;
    const machine::RunResult& b = record.outcome.result;
    return got.key == record.key && got.rep_base == record.rep_base &&
           got.repetitions == record.repetitions &&
           got.instrumented == record.instrumented &&
           got.outcome.error.kind == record.outcome.error.kind &&
           got.outcome.error.detail == record.outcome.error.detail &&
           got.outcome.attempts == record.outcome.attempts &&
           a.end_to_end == b.end_to_end && a.stddev == b.stddev &&
           a.derived_nonloop_seconds == b.derived_nonloop_seconds &&
           a.loop_seconds == b.loop_seconds &&
           got.rerun_seconds == record.rerun_seconds;
  };
  const std::vector<JournalRecord> records = records_of(journal);
  return std::any_of(records.begin(), records.end(), same);
}

TEST(Journal, EncodeDecodeRoundTripsSuccess) {
  const std::string path = testing::TempDir() + "ft_journal_success.ftj";
  const JournalRecord record = success_record(0x123456789abcdef0ull);
  (void)write_journal(path, 7, {record});
  auto journal = EvalJournal::resume(path, 7);
  EXPECT_EQ(journal->loaded(), 1u);
  // Bit-exact doubles, derived_nonloop_seconds and rerun cost included.
  EXPECT_TRUE(replays_exactly(*journal, record));
}

TEST(Journal, EncodeDecodeRoundTripsFailure) {
  const std::string path = testing::TempDir() + "ft_journal_failure.ftj";
  const JournalRecord record = failure_record(42);
  (void)write_journal(path, 7, {record});
  auto journal = EvalJournal::resume(path, 7);
  const std::vector<JournalRecord> records = records_of(*journal);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, 42u);
  EXPECT_FALSE(records[0].outcome.ok());
  EXPECT_TRUE(replays_exactly(*journal, record));
}

TEST(Journal, DecodeRejectsTornAndForeignLines) {
  // Whatever follows the last whole record - a JSONL line, another
  // config's record, a length running past the end, a record whose
  // CRC fails - ends the trusted prefix instead of being misparsed.
  const std::string path = testing::TempDir() + "ft_journal_foreign.ftj";
  const std::string other = testing::TempDir() + "ft_journal_other.ftj";
  const std::vector<std::size_t> ends =
      write_journal(path, 7, {success_record(1), success_record(2)});
  const std::string journal = read_file(path);
  const std::string first = journal.substr(0, ends[1]);
  const std::string second = journal.substr(ends[1]);
  (void)write_journal(other, 8, {success_record(2)});
  const std::string foreign_record = read_file(other).substr(ends[0]);
  std::string bad_crc = second;
  bad_crc.back() = static_cast<char>(bad_crc.back() ^ 0x01);

  for (const std::string& tail :
       {std::string("{\"type\":\"eval\",\"key\":\"2\"}\n"), foreign_record,
        std::string("\xff\xff\xff\x7f", 4) + second.substr(4), bad_crc,
        second.substr(0, second.size() - 1)}) {
    write_file(path, first + tail);
    auto resumed = EvalJournal::resume(path, 7);
    EXPECT_EQ(resumed->loaded(), 1u);
    EXPECT_TRUE(replays_exactly(*resumed, success_record(1)));
    EXPECT_FALSE(replays_exactly(*resumed, success_record(2)));
  }
}

TEST(Journal, DecodeSurvivesByteFlipFuzz) {
  // Fuzz-style robustness: arbitrary byte corruption of a valid
  // journal must never crash or misparse into garbage. Resume either
  // refuses the file (the header was hit) or loads a prefix of the
  // records, each one bit-exact.
  const std::string path = testing::TempDir() + "ft_journal_fuzz.ftj";
  const std::vector<JournalRecord> records = {
      success_record(1), failure_record(2), success_record(3)};
  (void)write_journal(path, 7, records);
  const std::string journal = read_file(path);

  support::Rng rng(2024);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = journal;
    const std::size_t flips = 1 + rng.next_below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_below(mutated.size());
      mutated[pos] = static_cast<char>(rng.next_below(256));
    }
    write_file(path, mutated);
    try {
      auto resumed = EvalJournal::resume(path, 7);
      ASSERT_LE(resumed->loaded(), records.size());
      for (std::size_t i = 0; i < resumed->loaded(); ++i) {
        EXPECT_TRUE(replays_exactly(*resumed, records[i]));
      }
    } catch (const std::runtime_error&) {
      // A damaged header is refused; that is the other allowed outcome.
    }
  }
  // Pure garbage bytes, including NULs and non-UTF8.
  for (int trial = 0; trial < 500; ++trial) {
    std::string garbage(rng.next_below(120), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.next_below(256));
    write_file(path, garbage);
    try {
      EXPECT_EQ(EvalJournal::resume(path, 0)->loaded(), 0u);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST(Journal, ResumeTreatsGarbageLineAsTornTail) {
  // Corruption mid-file ends the trusted prefix: records before it
  // load, everything after is discarded and re-evaluates. Resume cuts
  // the file there, so the NEXT resume sees a clean file.
  const std::string path = testing::TempDir() + "ft_journal_garbage.ftj";
  std::vector<JournalRecord> records;
  for (std::uint64_t k = 0; k < 6; ++k) records.push_back(success_record(k));
  const std::vector<std::size_t> ends = write_journal(path, 4242, records);
  const std::string journal = read_file(path);
  write_file(path, journal.substr(0, ends[3]) + "\x01\xff{not a record" +
                       journal.substr(ends[3]));

  auto resumed = EvalJournal::resume(path, 4242);
  EXPECT_EQ(resumed->loaded(), 3u);
  EXPECT_TRUE(replays_exactly(*resumed, records[2]));
  EXPECT_FALSE(replays_exactly(*resumed, records[5]));  // after the tear

  // The cut file now resumes fully, with no garbage left.
  auto again = EvalJournal::resume(path, 4242);
  EXPECT_EQ(again->loaded(), 3u);
  EXPECT_EQ(read_file(path), journal.substr(0, ends[3]));
}

TEST(Journal, ResumeDeduplicatesRepeatedRecords) {
  // Crash-during-append can leave the same evaluation journaled twice.
  // Every copy is read, and the memory tier keeps one.
  const std::string path = testing::TempDir() + "ft_journal_dup.ftj";
  JournalRecord record;
  record.key = 11;
  record.rep_base = 22;
  record.repetitions = 3;
  record.outcome.result.end_to_end = 7.5;
  (void)write_journal(path, 0, {record, record, record, record});
  auto journal = EvalJournal::resume(path, 0);
  EXPECT_EQ(journal->loaded(), 4u);  // records read...
  EXPECT_EQ(records_of(*journal).size(), 4u);
  FuncyTuner tuner(programs::cloverleaf(), machine::broadwell(),
                   fast_options());
  tuner.evaluator().set_journal(journal);
  ASSERT_NE(tuner.eval_cache(), nullptr);
  EXPECT_EQ(tuner.eval_cache()->stats().entries, 1u);  // ...one kept
  EvalOutcome out;
  ASSERT_TRUE(tuner.eval_cache()->lookup({11, 22, 0, 3, false}, &out));
  EXPECT_DOUBLE_EQ(out.result.end_to_end, 7.5);
}

TEST(Journal, TruncatedAtEveryByteResumes) {
  // A kill can stop an append at any byte. For every cut, resume loads
  // exactly the records that end at or before it, never throws, and
  // leaves the file ending after the last of them.
  const std::string path = testing::TempDir() + "ft_journal_cut.ftj";
  const std::vector<JournalRecord> records = {
      success_record(1), failure_record(2), success_record(3)};
  const std::vector<std::size_t> ends = write_journal(path, 7, records);
  const std::string journal = read_file(path);
  for (std::size_t cut = 0; cut <= journal.size(); ++cut) {
    SCOPED_TRACE(cut);
    write_file(path, journal.substr(0, cut));
    std::size_t whole = 0;
    while (whole < records.size() && ends[whole + 1] <= cut) ++whole;
    std::shared_ptr<EvalJournal> resumed;
    ASSERT_NO_THROW(resumed = EvalJournal::resume(path, 7));
    EXPECT_EQ(resumed->loaded(), whole);
    for (std::size_t i = 0; i < records.size(); ++i) {
      EXPECT_EQ(replays_exactly(*resumed, records[i]), i < whole);
    }
    resumed.reset();
    EXPECT_EQ(read_file(path), journal.substr(0, ends[whole]));
  }
}

TEST(Journal, ResumeKeepsTheValidPrefixByteForByte) {
  // Resume cuts the torn tail in place and appends after it: the bytes
  // before the tear - records in their original, unsorted append
  // order - are never rewritten, so a kill during resume cannot lose
  // completed work.
  const std::string path = testing::TempDir() + "ft_journal_prefix.ftj";
  std::vector<JournalRecord> records;
  for (const std::uint64_t key : {9, 3, 7, 1, 5}) {
    records.push_back(success_record(key));
  }
  const std::vector<std::size_t> ends = write_journal(path, 7, records);
  const std::string journal = read_file(path);
  const std::string prefix = journal.substr(0, ends[4]);
  write_file(path, journal.substr(0, ends[4] + (ends[5] - ends[4]) / 2));

  {
    auto resumed = EvalJournal::resume(path, 7);
    EXPECT_EQ(resumed->loaded(), 4u);
    EXPECT_EQ(read_file(path), prefix);
    resumed->record(records[4]);
  }
  EXPECT_EQ(read_file(path), journal);
  EXPECT_EQ(EvalJournal::resume(path, 7)->loaded(), 5u);
}

TEST(Journal, RefusesJsonlJournals) {
  // A journal written by the earlier JSONL codec is refused with an
  // error naming the file, and left untouched.
  const std::string path = testing::TempDir() + "ft_journal_legacy.jsonl";
  const std::string legacy =
      "{\"type\":\"header\",\"version\":1,\"schema_version\":3,"
      "\"config\":\"0\"}\n"
      "{\"type\":\"eval\",\"key\":\"7\",\"rep\":\"0\",\"reps\":1,\"instr\":0,"
      "\"ok\":1,\"fault\":\"none\",\"attempts\":1,\"end\":1,\"stddev\":0,"
      "\"loops\":[]}\n";
  write_file(path, legacy);
  try {
    (void)EvalJournal::resume(path, 0);
    ADD_FAILURE() << "a JSONL journal was resumed";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("not a binary journal"),
              std::string::npos);
  }
  EXPECT_EQ(read_file(path), legacy);
}

TEST(Journal, WarmedCacheFromTornJournalNeverPoisonsResults) {
  // The cache-poisoning scenario a resume must rule out: a journal
  // torn mid-record (plus trailing garbage) loads only fully decoded
  // records into the cache; the tuned result still matches an
  // uninterrupted reference bit-for-bit.
  const FuncyTunerOptions options = faulty_options(0.05);
  const std::uint64_t fingerprint = options_fingerprint(options);
  const std::string path = testing::TempDir() + "ft_journal_poison.ftj";

  FuncyTuner reference(programs::cloverleaf(), machine::broadwell(), options);
  const TuningResult expected = reference.run("cfr");

  FuncyTuner recorded(programs::cloverleaf(), machine::broadwell(), options);
  recorded.evaluator().set_journal(EvalJournal::create(path, fingerprint));
  (void)recorded.run("cfr");

  // Tear the file mid-record and append garbage "records".
  cut_file(path, 2.0 / 3.0);
  std::ofstream(path, std::ios::binary | std::ios::app)
      << "\n{\"type\":\"eval\",\"key\":\"zzz\"}\n\xde\xad\n";

  FuncyTunerOptions cached = options;
  cached.eval_cache = true;
  FuncyTuner resumed(programs::cloverleaf(), machine::broadwell(), cached);
  resumed.evaluator().set_journal(EvalJournal::resume(path, fingerprint));
  const TuningResult result = resumed.run("cfr");

  EXPECT_EQ(result.history, expected.history);
  EXPECT_EQ(result.tuned_seconds, expected.tuned_seconds);
  EXPECT_EQ(result.speedup, expected.speedup);
}

TEST(Journal, ResumeRejectsConfigMismatch) {
  const std::string path = testing::TempDir() + "ft_journal_config.ftj";
  { auto journal = EvalJournal::create(path, 1111); }
  EXPECT_THROW((void)EvalJournal::resume(path, 2222), std::runtime_error);
  EXPECT_NO_THROW((void)EvalJournal::resume(path, 1111));
  EXPECT_NO_THROW((void)EvalJournal::resume(path, 0));  // 0 skips the check
}

TEST(Journal, ResumeOfMissingFileThrows) {
  EXPECT_THROW(
      (void)EvalJournal::resume(testing::TempDir() + "ft_no_such.ftj", 0),
      std::runtime_error);
}

/// The descriptor this process has open on `path`, or -1.
int descriptor_of(const std::string& path) {
  const std::filesystem::path target = std::filesystem::canonical(path);
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd", error)) {
    if (std::filesystem::read_symlink(entry.path(), error) == target) {
      return std::stoi(entry.path().filename().string());
    }
  }
  return -1;
}

/// Runs `write` and expects it to throw "cannot write journal: <path>".
template <class Write>
void expect_write_error(const Write& write, const std::string& path) {
  try {
    write();
    ADD_FAILURE() << "a failed journal write was not reported";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()), "cannot write journal: " + path);
  }
}

TEST(Journal, WriteFailureIsReported) {
  // A full disk is reported, never swallowed: create fails on the
  // header, and a record that cannot be written throws and is not
  // counted.
  if (!std::filesystem::exists("/dev/full") ||
      !std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "needs /dev/full and /proc/self/fd";
  }
  expect_write_error([] { (void)EvalJournal::create("/dev/full", 7); },
                     "/dev/full");

  const std::string path = testing::TempDir() + "ft_journal_full.ftj";
  auto journal = EvalJournal::create(path, 7);
  journal->record(success_record(1));
  // Point the journal's descriptor at /dev/full: the disk is now full.
  const int fd = descriptor_of(path);
  ASSERT_GE(fd, 0);
  const int full = ::open("/dev/full", O_WRONLY | O_CLOEXEC);
  ASSERT_GE(full, 0);
  ASSERT_EQ(::dup2(full, fd), fd);
  ::close(full);
  for (int i = 0; i < 2; ++i) {
    expect_write_error([&] { journal->record(success_record(2)); }, path);
  }
  EXPECT_EQ(journal->appended(), 1u);
}

// --------------------------------------------------- checkpoint/resume ----

TEST(Checkpoint, KilledCampaignResumesBitIdentically) {
  const FuncyTunerOptions options = faulty_options(0.05);
  const std::uint64_t fingerprint = options_fingerprint(options);
  const std::string path = testing::TempDir() + "ft_journal_resume.ftj";

  // Reference: one uninterrupted run, no journal.
  FuncyTuner reference(programs::cloverleaf(), machine::broadwell(), options);
  const TuningResult expected = reference.run("cfr");

  // Journaled run: must match the reference exactly (the journal only
  // records, never perturbs).
  FuncyTuner recorded(programs::cloverleaf(), machine::broadwell(), options);
  recorded.evaluator().set_journal(EvalJournal::create(path, fingerprint));
  const TuningResult journaled = recorded.run("cfr");
  EXPECT_EQ(journaled.tuned_seconds, expected.tuned_seconds);
  EXPECT_EQ(journaled.history, expected.history);

  // Simulate a mid-campaign kill: keep ~40% of the file, cutting the
  // next record short (a torn write).
  cut_file(path, 0.4);

  // Resume with a fresh tuner: replay + re-evaluation must land on the
  // exact result of the uninterrupted run, down to the serialized JSON.
  auto journal = EvalJournal::resume(path, fingerprint);
  EXPECT_GT(journal->loaded(), 0u);
  EXPECT_LT(journal->loaded(), recorded.evaluator().evaluations());
  FuncyTuner resumed(programs::cloverleaf(), machine::broadwell(), options);
  resumed.evaluator().set_journal(journal);
  const TuningResult result = resumed.run("cfr");

  EXPECT_EQ(result.tuned_seconds, expected.tuned_seconds);
  EXPECT_EQ(result.search_best_seconds, expected.search_best_seconds);
  EXPECT_EQ(result.speedup, expected.speedup);
  EXPECT_EQ(result.baseline_seconds, expected.baseline_seconds);
  EXPECT_EQ(result.history, expected.history);
  EXPECT_EQ(result.evaluations, expected.evaluations);
  EXPECT_EQ(
      tuning_result_json(result, resumed.space(), resumed.program()),
      tuning_result_json(expected, reference.space(), reference.program()));
  EXPECT_GT(resumed.evaluator().resilience_stats().cache_hits, 0u);
  // The journal now holds the full campaign again: resuming the
  // completed journal replays everything and re-runs nothing.
  auto complete = EvalJournal::resume(path, fingerprint);
  FuncyTuner replay(programs::cloverleaf(), machine::broadwell(), options);
  replay.evaluator().set_journal(complete);
  const TuningResult replayed = replay.run("cfr");
  EXPECT_EQ(replayed.tuned_seconds, expected.tuned_seconds);
  EXPECT_EQ(replayed.history, expected.history);
}

TEST(Checkpoint, CampaignGridCheckpointsSharedJournal) {
  CampaignOptions options;
  options.tuner = faulty_options(0.05, 40);
  options.algorithms = {"cfr"};
  options.checkpoint_path = testing::TempDir() + "ft_campaign.ftj";

  Campaign first({programs::cloverleaf()},
                 {machine::broadwell(), machine::sandy_bridge()}, options);
  first.run();

  options.resume = true;
  Campaign second({programs::cloverleaf()},
                  {machine::broadwell(), machine::sandy_bridge()}, options);
  second.run();

  for (const CampaignCell& cell : first.cells()) {
    const CampaignCell& other =
        second.cell(cell.program, cell.architecture);
    ASSERT_EQ(cell.results.size(), other.results.size());
    for (std::size_t i = 0; i < cell.results.size(); ++i) {
      EXPECT_EQ(cell.results[i].tuned_seconds,
                other.results[i].tuned_seconds);
      EXPECT_EQ(cell.results[i].history, other.results[i].history);
    }
  }
}

TEST(Checkpoint, OptionsFingerprintSeparatesConfigs) {
  const FuncyTunerOptions base = fast_options();
  FuncyTunerOptions different_seed = base;
  different_seed.seed = 43;
  FuncyTunerOptions different_faults = base;
  different_faults.faults.rate = 0.1;
  EXPECT_NE(options_fingerprint(base), options_fingerprint(different_seed));
  EXPECT_NE(options_fingerprint(base),
            options_fingerprint(different_faults));
  EXPECT_EQ(options_fingerprint(base), options_fingerprint(fast_options()));

  // Every measurement field splits the fingerprint: each changes what a
  // run measures, so a journal or cache entry recorded under one value
  // must never replay under another.
  const std::vector<std::pair<const char*, void (*)(FuncyTunerOptions&)>>
      measurement_edits = {
          {"noise_sigma_rel", [](FuncyTunerOptions& o) {
             o.noise_sigma_rel = 0.02;
           }},
          {"attribution_sigma", [](FuncyTunerOptions& o) {
             o.attribution_sigma = 0.05;
           }},
          {"faults.rate", [](FuncyTunerOptions& o) { o.faults.rate = 0.2; }},
          {"faults.seed", [](FuncyTunerOptions& o) { o.faults.seed = 7; }},
          {"faults.compile_share", [](FuncyTunerOptions& o) {
             o.faults.compile_share = 0.9;
           }},
          {"faults.crash_share", [](FuncyTunerOptions& o) {
             o.faults.crash_share = 0.5;
           }},
          {"faults.timeout_share", [](FuncyTunerOptions& o) {
             o.faults.timeout_share = 0.5;
           }},
          {"faults.outlier_rate", [](FuncyTunerOptions& o) {
             o.faults.outlier_rate = 0.1;
           }},
          {"faults.outlier_min_scale", [](FuncyTunerOptions& o) {
             o.faults.outlier_min_scale = 2.0;
           }},
          {"faults.outlier_max_scale", [](FuncyTunerOptions& o) {
             o.faults.outlier_max_scale = 20.0;
           }},
      };
  for (const auto& [field, edit] : measurement_edits) {
    SCOPED_TRACE(field);
    FuncyTunerOptions changed = base;
    edit(changed);
    EXPECT_NE(options_fingerprint(base), options_fingerprint(changed));
  }
}

}  // namespace
}  // namespace ft::core
