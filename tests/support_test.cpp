// Unit tests for the support library: deterministic RNG, statistics,
// table rendering, CLI parsing, string utilities and the thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/json.hpp"
#include "support/options.hpp"
#include "support/parse_number.hpp"
#include "support/rng.hpp"
#include "support/serialization.hpp"
#include "support/stats.hpp"
#include "support/string_utils.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace ft::support {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(123), b(124);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.next() == b.next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng parent(7);
  Rng c1 = parent.fork("noise");
  Rng c2 = parent.fork("noise");
  EXPECT_EQ(c1.next(), c2.next());
}

TEST(Rng, ForkKeysDecorrelate) {
  Rng parent(7);
  EXPECT_NE(parent.fork("a").next(), parent.fork("b").next());
}

TEST(Rng, NextBelowInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalMeanAndStddev) {
  Rng rng(17);
  std::vector<double> samples;
  samples.reserve(20000);
  for (int i = 0; i < 20000; ++i) samples.push_back(rng.normal(5.0, 2.0));
  EXPECT_NEAR(mean(samples), 5.0, 0.1);
  EXPECT_NEAR(stddev(samples), 2.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(19);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(23);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 8000; ++i) ++counts[rng.weighted_index(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(counts[2] / 8000.0, 0.75, 0.05);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  const auto sample = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (const auto v : sample) EXPECT_LT(v, 50u);
}

TEST(Rng, SampleWithoutReplacementAllWhenKExceedsN) {
  Rng rng(31);
  const auto sample = rng.sample_without_replacement(5, 10);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::multiset<int> a(v.begin(), v.end()), b(shuffled.begin(),
                                              shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, Fnv1aStableValues) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

// -------------------------------------------------------------- stats ----

TEST(Stats, MeanBasic) {
  const std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
}

TEST(Stats, MeanEmptyIsZero) {
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, GeomeanBasic) {
  const std::vector<double> v = {1.0, 4.0};
  EXPECT_DOUBLE_EQ(geomean(v), 2.0);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> v = {1.0, -1.0};
  EXPECT_DOUBLE_EQ(geomean(v), 0.0);
}

TEST(Stats, StddevKnownValue) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_NEAR(stddev(v), 2.138, 1e-3);  // sample stddev
}

TEST(Stats, StddevSingleValueIsZero) {
  const std::vector<double> v = {3.0};
  EXPECT_DOUBLE_EQ(stddev(v), 0.0);
}

TEST(Stats, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{4, 1, 2, 3}), 2.5);
}

TEST(Stats, TrimmedMeanCutsTails) {
  // 20% trim on 5 values cuts floor(0.2*5)=1 from each end: the 100.0
  // outlier spike cannot drag the aggregate.
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 100.0};
  EXPECT_DOUBLE_EQ(trimmed_mean(v, 0.2), 3.0);
}

TEST(Stats, TrimmedMeanDegeneratesToMean) {
  // Too few values to cut anything: plain mean.
  const std::vector<double> v = {1.0, 3.0};
  EXPECT_DOUBLE_EQ(trimmed_mean(v, 0.2), 2.0);
  EXPECT_DOUBLE_EQ(trimmed_mean(v, 0.0), 2.0);
}

TEST(Stats, MadRobustToOutlier) {
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0, 1000.0};
  EXPECT_DOUBLE_EQ(mad(v), 1.0);  // median 3; |dev| = {2,1,0,1,997}
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v = {0, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
}

TEST(Stats, ArgminArgmax) {
  const std::vector<double> v = {3, 1, 4, 1.5, 9};
  EXPECT_EQ(argmin(v), 1u);
  EXPECT_EQ(argmax(v), 4u);
}

TEST(Stats, SmallestKOrderedAndTieStable) {
  const std::vector<double> v = {5, 1, 3, 1, 2};
  const auto idx = smallest_k(v, 3);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 1u);  // first of the tied 1s
  EXPECT_EQ(idx[1], 3u);
  EXPECT_EQ(idx[2], 4u);
}

TEST(Stats, SmallestKClampsToSize) {
  const std::vector<double> v = {2, 1};
  EXPECT_EQ(smallest_k(v, 10).size(), 2u);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {2, 4, 6, 8};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Stats, PearsonAnticorrelation) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVariance) {
  const std::vector<double> x = {1, 1, 1};
  const std::vector<double> y = {1, 2, 3};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

// -------------------------------------------------------------- table ----

TEST(Table, RendersHeaderAndRows) {
  Table t("Title");
  t.set_header({"A", "Bee"});
  t.add_row({"1", "2"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("Title"), std::string::npos);
  EXPECT_NE(out.find("| A"), std::string::npos);
  EXPECT_NE(out.find("Bee"), std::string::npos);
  EXPECT_NE(out.find("| 1"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table t;
  t.set_header({"x", "y"});
  t.add_row({"1", "2"});
  std::ostringstream oss;
  t.print_csv(oss);
  EXPECT_EQ(oss.str(), "x,y\n1,2\n");
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(1.23456), "1.235");
  EXPECT_EQ(Table::num(2.0, 1), "2.0");
}

TEST(Table, HandlesRaggedRows) {
  Table t;
  t.set_header({"a", "b", "c"});
  t.add_row({"1"});
  std::ostringstream oss;
  EXPECT_NO_THROW(t.print(oss));
}

// ---------------------------------------------------------------- cli ----

// The tokenizing rules every tool, bench binary and example shares.

TEST(Cli, ParsesNameValuePairs) {
  OptionSet set;
  set.integer("seed", 0, "").text("program", "", "");
  const OptionSet::Parsed args = set.parse({"--seed", "42", "--program", "CL"});
  EXPECT_EQ(args.integer("seed"), 42);
  EXPECT_EQ(args.text("program"), "CL");
}

TEST(Cli, ParsesEqualsForm) {
  OptionSet set;
  set.integer("samples", 0, "");
  EXPECT_EQ(set.parse({"--samples=100"}).integer("samples"), 100);
}

TEST(Cli, BooleanSwitch) {
  OptionSet set;
  set.flag("verbose", false, "").integer("seed", 0, "");
  const OptionSet::Parsed args = set.parse({"--verbose", "--seed", "1"});
  EXPECT_TRUE(args.flag("verbose"));
  EXPECT_EQ(args.integer("seed"), 1);
}

TEST(Cli, DefaultsWhenMissing) {
  OptionSet set;
  set.integer("seed", 99, "").text("name", "x", "");
  const OptionSet::Parsed args = set.parse(std::vector<std::string>{});
  EXPECT_EQ(args.integer("seed"), 99);
  EXPECT_EQ(args.text("name"), "x");
  EXPECT_FALSE(args.given("seed"));
}

TEST(Cli, Positionals) {
  OptionSet set;
  set.text("k", "", "");
  const OptionSet::Parsed args = set.parse({"foo", "--k", "v", "bar"});
  EXPECT_EQ(args.text("k"), "v");
  ASSERT_EQ(args.positionals().size(), 2u);
  EXPECT_EQ(args.positionals()[0], "foo");
  EXPECT_EQ(args.positionals()[1], "bar");
}

TEST(Cli, MalformedNumberThrows) {
  OptionSet integer;
  integer.integer("seed", 7, "").real("missing", 2.5, "");
  OptionSet real;
  real.real("seed", 2.5, "").integer("missing", 7, "");
  // A typo must fail loudly, not silently tune with the default.
  EXPECT_THROW((void)integer.parse({"--seed", "abc"}), CliError);
  EXPECT_THROW((void)real.parse({"--seed", "abc"}), CliError);
  // Absent flags still fall back.
  EXPECT_EQ(real.parse({"--seed", "1"}).integer("missing"), 7);
  EXPECT_EQ(integer.parse({"--seed", "1"}).real("missing"), 2.5);
}

TEST(Cli, PartialNumberThrows) {
  OptionSet set;
  set.integer("samples", 1, "").real("rate", 0.0, "");
  EXPECT_THROW((void)set.parse({"--samples", "10o0"}), CliError);
  EXPECT_THROW((void)set.parse({"--rate", "0.5x"}), CliError);
}

TEST(Cli, MalformedNumberErrorNamesOffendingToken) {
  OptionSet set;
  set.integer("seed", 7, "");
  try {
    (void)set.parse({"--seed", "abc"});
    FAIL() << "expected CliError";
  } catch (const CliError& error) {
    EXPECT_NE(std::string(error.what()).find("--seed"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("abc"), std::string::npos);
  }
}

TEST(Cli, CheckKnownRejectsUnknownFlag) {
  const std::vector<std::string> tokens = {"--samples", "10", "--smaples",
                                           "10"};
  OptionSet known;
  known.integer("samples", 0, "");
  EXPECT_THROW((void)known.parse(tokens), CliError);
  OptionSet both = known;
  both.integer("smaples", 0, "");
  EXPECT_NO_THROW((void)both.parse(tokens));
  try {
    (void)known.parse(tokens);
    FAIL() << "expected CliError";
  } catch (const CliError& error) {
    EXPECT_NE(std::string(error.what()).find("--smaples"),
              std::string::npos);
  }
}

// ------------------------------------------------------------ strings ----

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-", "--"));
}

// -------------------------------------------------------- thread pool ----

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  TaskGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit(group, [&] { ++counter; });
  pool.wait(group);
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool pool(2);
  TaskGroup group;
  pool.submit(group, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(group), std::runtime_error);
  // Pool and group remain usable afterwards.
  std::atomic<int> counter{0};
  pool.submit(group, [&] { ++counter; });
  pool.wait(group);
  EXPECT_EQ(counter.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { ++hits[i]; }, &pool);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, DeterministicResults) {
  ThreadPool pool_a(1), pool_b(8);
  auto run = [](ThreadPool& pool) {
    std::vector<double> out(512);
    parallel_for(512, [&](std::size_t i) {
      Rng rng(static_cast<std::uint64_t>(i));
      out[i] = rng.uniform();
    }, &pool);
    return out;
  };
  EXPECT_EQ(run(pool_a), run(pool_b));
}

TEST(ParallelFor, ZeroCountIsNoop) {
  EXPECT_NO_THROW(parallel_for(0, [](std::size_t) { FAIL(); }));
}

TEST(ParallelFor, SingleIterationRunsInline) {
  std::atomic<int> counter{0};
  parallel_for(1, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 1);
}

// ------------------------------------------------------- task groups ----

TEST(TaskGroup, StatsCountSubmittedAndCompleted) {
  ThreadPool pool(4);
  TaskGroup group;
  std::atomic<int> counter{0};
  for (int i = 0; i < 25; ++i) pool.submit(group, [&] { ++counter; });
  pool.wait(group);
  EXPECT_EQ(counter.load(), 25);
  const TaskGroup::Stats stats = group.stats();
  EXPECT_EQ(stats.submitted, 25u);
  EXPECT_EQ(stats.completed, 25u);

  const ThreadPool::Stats pool_stats = pool.stats();
  EXPECT_EQ(pool_stats.threads, 4u);
  EXPECT_GE(pool_stats.tasks_submitted, 25u);
  EXPECT_GE(pool_stats.tasks_completed, 25u);
  EXPECT_GE(pool_stats.queue_high_water, 1u);
}

TEST(TaskGroup, ErrorIsRoutedOnlyToItsOwnGroup) {
  ThreadPool pool(2);
  TaskGroup bad, good;
  std::atomic<int> good_done{0};
  pool.submit(bad, [] { throw std::runtime_error("bad-group"); });
  for (int i = 0; i < 50; ++i) pool.submit(good, [&] { ++good_done; });
  EXPECT_NO_THROW(pool.wait(good));
  EXPECT_EQ(good_done.load(), 50);
  try {
    pool.wait(bad);
    FAIL() << "expected bad group's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "bad-group");
  }
  // Error slot is cleared; the group is reusable.
  pool.submit(bad, [] {});
  EXPECT_NO_THROW(pool.wait(bad));
}

// Regression for the flat-counter pool: its wait waited on a global
// in-flight count and rethrew a global first_error_, so one caller
// could receive another caller's exception (or return early while
// foreign work was still in flight). With task groups, two concurrent
// parallel_for callers must each observe exactly their own failure.
TEST(TaskGroup, ConcurrentParallelForCallersGetTheirOwnExceptions) {
  ThreadPool pool(4);
  auto caller = [&](const std::string& tag) {
    try {
      parallel_for(256, [&](std::size_t i) {
        if (i == 123) throw std::runtime_error(tag);
      }, &pool);
      return std::string("no-exception");
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
  };
  for (int round = 0; round < 20; ++round) {
    auto a = std::async(std::launch::async, caller, "caller-a");
    auto b = std::async(std::launch::async, caller, "caller-b");
    EXPECT_EQ(a.get(), "caller-a");
    EXPECT_EQ(b.get(), "caller-b");
  }
}

TEST(TaskGroup, ThrowingCallerDoesNotPoisonCleanConcurrentCaller) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    auto thrower = std::async(std::launch::async, [&] {
      EXPECT_THROW(
          parallel_for(128, [](std::size_t i) {
            if (i % 2 == 0) throw std::runtime_error("thrower");
          }, &pool),
          std::runtime_error);
    });
    auto clean = std::async(std::launch::async, [&] {
      std::vector<int> out(512, 0);
      EXPECT_NO_THROW(parallel_for(512, [&](std::size_t i) {
        out[i] = static_cast<int>(i);
      }, &pool));
      for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], static_cast<int>(i));
      }
    });
    thrower.get();
    clean.get();
  }
}

// A caller whose workers are all occupied by another (blocked) caller
// makes progress by executing its own queued tasks in wait(): the
// group's stolen counter proves it was not blocked behind the other
// caller's work.
TEST(TaskGroup, WaiterHelpsWhenAllWorkersAreBlocked) {
  ThreadPool pool(2);
  TaskGroup blockers;
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<int> started{0};
  for (int i = 0; i < 2; ++i) {
    pool.submit(blockers, [&started, released] {
      ++started;
      released.wait();
    });
  }
  while (started.load() < 2) std::this_thread::yield();

  std::vector<int> out(100, 0);
  TaskGroup::Stats stats;
  parallel_for(100, [&](std::size_t i) { out[i] = 1; }, &pool, &stats);
  for (const int v : out) EXPECT_EQ(v, 1);
  EXPECT_EQ(stats.completed, stats.submitted);
  EXPECT_EQ(stats.stolen, stats.submitted);  // every chunk ran via helping

  release.set_value();
  pool.wait(blockers);
  EXPECT_EQ(blockers.stats().completed, 2u);
}

// ------------------------------------------------- nested parallelism ----

TEST(ParallelFor, NestedMatchesSerialOnAllPoolSizes) {
  constexpr std::size_t kOuter = 8, kInner = 16;
  std::vector<std::vector<int>> expected(kOuter,
                                         std::vector<int>(kInner, 0));
  for (std::size_t i = 0; i < kOuter; ++i) {
    for (std::size_t j = 0; j < kInner; ++j) {
      expected[i][j] = static_cast<int>(i * 100 + j);
    }
  }
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{0}}) {
    ThreadPool pool(threads);
    std::vector<std::vector<int>> got(kOuter, std::vector<int>(kInner, 0));
    parallel_for(kOuter, [&](std::size_t i) {
      parallel_for(kInner, [&, i](std::size_t j) {
        got[i][j] = static_cast<int>(i * 100 + j);
      }, &pool);
    }, &pool);
    EXPECT_EQ(got, expected) << "pool threads = " << threads;
  }
}

TEST(ParallelFor, DeeplyNestedCompletesOnTinyPool) {
  ThreadPool pool(2);
  std::atomic<int> leaves{0};
  parallel_for(4, [&](std::size_t) {
    parallel_for(4, [&](std::size_t) {
      parallel_for(4, [&](std::size_t) { ++leaves; }, &pool);
    }, &pool);
  }, &pool);
  EXPECT_EQ(leaves.load(), 64);
}

TEST(ParallelFor, NestedExceptionPropagatesToOuterCaller) {
  ThreadPool pool(2);
  EXPECT_THROW(
      parallel_for(4, [&](std::size_t i) {
        parallel_for(4, [i](std::size_t j) {
          if (i == 2 && j == 3) throw std::runtime_error("inner");
        }, &pool);
      }, &pool),
      std::runtime_error);
}

TEST(ThreadPool, BusySecondsAccumulate) {
  ThreadPool pool(2);
  parallel_for(8, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }, &pool);
  EXPECT_GT(pool.stats().worker_busy_seconds, 0.0);
}

// ---------------------------------------------------------- OptionSet ----

OptionSet demo_options() {
  OptionSet set;
  set.integer("samples", 1000, "iteration budget", at_least(1))
      .real("sigma", 0.008, "noise sigma")
      .text("out", "", "output path")
      .flag("csv", false, "emit CSV")
      .flag("help", false, "print this help");
  return set;
}

TEST(OptionSet, ResolvesDefaultsAndGivenValues) {
  const OptionSet set = demo_options();
  // "--csv file.txt" would read as csv="file.txt" (the greedy value
  // rule), so the positional leads and the switch trails.
  const OptionSet::Parsed parsed =
      set.parse({"file.txt", "--samples", "42", "--csv"});
  EXPECT_EQ(parsed.integer("samples"), 42);
  EXPECT_TRUE(parsed.given("samples"));
  EXPECT_EQ(parsed.real("sigma"), 0.008);
  EXPECT_FALSE(parsed.given("sigma"));
  EXPECT_EQ(parsed.text("out"), "");
  EXPECT_TRUE(parsed.flag("csv"));
  ASSERT_EQ(parsed.positionals().size(), 1u);
  EXPECT_EQ(parsed.positionals()[0], "file.txt");
}

TEST(OptionSet, ArgcParseConsumesEveryToken) {
  // OptionSet::parse does NOT skip a program name: callers pass the
  // shifted tail. A first
  // flag silently swallowed as argv[0] was exactly the bug this
  // pins down.
  const char* argv[] = {"--samples", "7"};
  const OptionSet::Parsed parsed = demo_options().parse(2, argv);
  EXPECT_EQ(parsed.integer("samples"), 7);
}

TEST(OptionSet, RejectsUnknownFlags) {
  EXPECT_THROW((void)demo_options().parse({"--bogus"}), CliError);
  EXPECT_THROW((void)demo_options().parse({"--samples", "9", "--bogus=1"}),
               CliError);
}

TEST(OptionSet, RejectsMalformedValues) {
  EXPECT_THROW((void)demo_options().parse({"--samples", "10o0"}), CliError);
  EXPECT_THROW((void)demo_options().parse({"--sigma", "fast"}), CliError);
  EXPECT_THROW((void)demo_options().parse({"--csv", "maybe"}), CliError);
  // Validator veto: well-formed integer, refused value.
  EXPECT_THROW((void)demo_options().parse({"--samples", "-5"}), CliError);
}

TEST(OptionSet, AtLeastRefusesValuesBelowItsMinimum) {
  const OptionSet set = demo_options();
  EXPECT_EQ(set.parse({"--samples", "1"}).integer("samples"), 1);
  for (const char* raw : {"0", "-3"}) {
    try {
      (void)set.parse({"--samples", raw});
      ADD_FAILURE() << raw << " accepted";
    } catch (const CliError& error) {
      EXPECT_EQ(std::string(error.what()),
                std::string("--samples: must be at least 1, got ") + raw);
    }
  }
  // Text that is no integer is left to the type check.
  try {
    (void)set.parse({"--samples", "1x"});
    ADD_FAILURE() << "1x accepted";
  } catch (const CliError& error) {
    EXPECT_NE(std::string(error.what()).find("not an integer"),
              std::string::npos);
  }
}

TEST(OptionSet, UndeclaredAccessIsALogicError) {
  const OptionSet::Parsed parsed = demo_options().parse({});
  EXPECT_THROW((void)parsed.integer("nope"), std::logic_error);
  // Wrong-type access is a programming error too, not a silent 0.
  EXPECT_THROW((void)parsed.text("samples"), std::logic_error);
}

TEST(OptionSet, HelpListsEveryOptionWithDefaults) {
  const std::string help = demo_options().help("usage: demo [options]");
  EXPECT_NE(help.find("usage: demo [options]"), std::string::npos);
  EXPECT_NE(help.find("--samples N"), std::string::npos);
  EXPECT_NE(help.find("[default: 1000]"), std::string::npos);
  EXPECT_NE(help.find("--sigma X"), std::string::npos);
  EXPECT_NE(help.find("--csv"), std::string::npos);
}

// A set with two knob namespaces, as ftune declares one per algorithm.
OptionSet knob_options() {
  OptionSet cfr;
  cfr.integer("top-x", 10, "pruned space size")
      .integer("samples", 0, "budget")
      .default_from("samples")
      .flag("verbose", false, "chatty");
  OptionSet set = demo_options();
  set.knob_namespace("cfr", cfr).knob_namespace("random", OptionSet{});
  return set;
}

TEST(OptionSet, RefusesUnknownNamespace) {
  EXPECT_THROW((void)knob_options().parse({"--annealing:temp=3"}),
               CliError);
  // A set that declares no namespace refuses every namespaced token.
  EXPECT_THROW((void)demo_options().parse({"--cfr:top-x=5"}), CliError);
  // A token with an empty namespace or knob is malformed.
  EXPECT_THROW((void)knob_options().parse({"--:top-x=5"}), CliError);
  EXPECT_THROW((void)knob_options().parse({"--cfr:=5"}), CliError);
}

TEST(OptionSet, RefusesUnknownKnob) {
  EXPECT_THROW((void)knob_options().parse({"--cfr:banana=1"}), CliError);
  // A namespace with no knobs has none to set.
  EXPECT_THROW((void)knob_options().parse({"--random:top-x", "5"}),
               CliError);
  // A knob is not a plain option, nor the reverse.
  EXPECT_THROW((void)knob_options().parse({"--top-x", "5"}), CliError);
  EXPECT_THROW((void)knob_options().parse({"--cfr:sigma", "0.1"}),
               CliError);
  try {
    (void)knob_options().parse({"--cfr:banana=1"});
    FAIL() << "expected CliError";
  } catch (const CliError& error) {
    EXPECT_NE(std::string(error.what()).find("--cfr:banana"),
              std::string::npos);
  }
}

TEST(OptionSet, RefusesMalformedKnobValue) {
  try {
    (void)knob_options().parse({"--cfr:top-x", "ten"});
    FAIL() << "expected CliError";
  } catch (const CliError& error) {
    EXPECT_NE(std::string(error.what()).find("--cfr:top-x"),
              std::string::npos);
    EXPECT_NE(std::string(error.what()).find("ten"), std::string::npos);
  }
  EXPECT_THROW((void)knob_options().parse({"--cfr:verbose=maybe"}),
               CliError);
}

TEST(OptionSet, KnobValueSpellingsGiveIdenticalTokens) {
  const OptionSet set = knob_options();
  const OptionSet::Parsed inline_form =
      set.parse({"--cfr:top-x=5", "--samples", "9", "--cfr:verbose"});
  const OptionSet::Parsed separate_form =
      set.parse({"--cfr:top-x", "5", "--samples=9", "--cfr:verbose"});
  const std::map<std::string, std::vector<std::string>> expected = {
      {"cfr", {"--top-x=5", "--verbose=true"}}};
  EXPECT_EQ(inline_form.namespaced(), expected);
  EXPECT_EQ(separate_form.namespaced(), expected);
  EXPECT_EQ(inline_form.integer("samples"), 9);
  // Raw value text and repeats are kept, in command-line order.
  EXPECT_EQ(set.parse({"--cfr:top-x=05", "--cfr:top-x", "6"})
                .namespaced()
                .at("cfr"),
            (std::vector<std::string>{"--top-x=05", "--top-x=6"}));
  EXPECT_TRUE(set.parse({"--samples", "3"}).namespaced().empty());
}

TEST(OptionSet, HelpListsEveryKnob) {
  const std::string help = knob_options().help("usage: demo [options]");
  EXPECT_NE(help.find("--samples N"), std::string::npos);
  EXPECT_NE(help.find("--cfr:top-x N"), std::string::npos);
  EXPECT_NE(help.find("pruned space size [default: 10]"),
            std::string::npos);
  EXPECT_NE(help.find("budget [default: --samples]"), std::string::npos);
  EXPECT_NE(help.find("--cfr:verbose"), std::string::npos);
  // Every knob row comes after every plain option row.
  EXPECT_LT(help.find("--help"), help.find("--cfr:top-x"));
}

// ---------------------------------------------------------- JsonValue ----

TEST(Json, ParsesNestedDocuments) {
  JsonValue value;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(
      R"({"a":[1,2.5,-3e2],"b":{"c":"x\n\"y\""},"d":true,"e":null})",
      &value, &error))
      << error;
  ASSERT_TRUE(value.is_object());
  const JsonValue* a = value.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array().size(), 3u);
  EXPECT_EQ(a->array()[1].number(), 2.5);
  std::string c;
  ASSERT_TRUE(value.find("b")->get("c", &c));
  EXPECT_EQ(c, "x\n\"y\"");
  bool d = false;
  ASSERT_TRUE(value.get("d", &d));
  EXPECT_TRUE(d);
  EXPECT_TRUE(value.find("e")->is_null());
}

TEST(Json, Reads64BitIntegersFromDecimalStrings) {
  // The repo-wide convention: hashes/seeds exceeding double precision
  // travel as quoted decimal strings.
  JsonValue value;
  ASSERT_TRUE(JsonValue::parse(R"({"h":"18446744073709551615","n":7})",
                               &value));
  std::uint64_t h = 0;
  ASSERT_TRUE(value.get("h", &h));
  EXPECT_EQ(h, 18446744073709551615ull);
  std::uint64_t n = 0;
  ASSERT_TRUE(value.get("n", &n));
  EXPECT_EQ(n, 7u);
}

TEST(Json, RejectsMalformedDocuments) {
  JsonValue value;
  std::string error;
  EXPECT_FALSE(JsonValue::parse("", &value, &error));
  EXPECT_FALSE(JsonValue::parse("{", &value, &error));
  EXPECT_FALSE(JsonValue::parse("{} trailing", &value, &error));
  EXPECT_FALSE(JsonValue::parse(R"({"a":1e999})", &value, &error));
  EXPECT_FALSE(JsonValue::parse("{\"a\":1,}", &value, &error));
}

TEST(Json, DepthLimitStopsHostileNesting) {
  std::string deep;
  for (int i = 0; i < 10000; ++i) deep += '[';
  for (int i = 0; i < 10000; ++i) deep += ']';
  JsonValue value;
  std::string error;
  EXPECT_FALSE(JsonValue::parse(deep, &value, &error));
}

// ------------------------------------------------------ schema version ----

TEST(SchemaVersion, FieldMatchesCurrentVersion) {
  EXPECT_EQ(schema_version_field(),
            "\"schema_version\":" + std::to_string(kSchemaVersion));
}

TEST(SchemaVersion, ReadsDeclaredAbsentAndMalformed) {
  EXPECT_EQ(read_schema_version(R"({"schema_version":2,"x":1})"), 2);
  // Pre-versioning artifacts read as version 1.
  EXPECT_EQ(read_schema_version(R"({"x":1})"), 1);
  EXPECT_EQ(read_schema_version(R"({"schema_version":"two"})"), 0);
}

TEST(SchemaVersion, RequireAcceptsOlderRejectsNewer) {
  EXPECT_NO_THROW(require_schema_version(R"({"x":1})", "artifact"));
  EXPECT_NO_THROW(
      require_schema_version(R"({"schema_version":2})", "artifact"));
  EXPECT_THROW(
      require_schema_version(R"({"schema_version":999})", "artifact"),
      std::runtime_error);
}

// --------------------------------------------------- locale-safe parse ----

TEST(ParseNumber, WholeStringGrammar) {
  double d = 0.0;
  EXPECT_TRUE(parse_double("-1.25e3", &d));
  EXPECT_EQ(d, -1250.0);
  EXPECT_TRUE(parse_double("0.1", &d));
  EXPECT_EQ(d, 0.1);
  EXPECT_FALSE(parse_double("", &d));
  EXPECT_FALSE(parse_double(" 1", &d));
  EXPECT_FALSE(parse_double("1.5x", &d));

  std::int64_t i = 0;
  EXPECT_TRUE(parse_int64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(parse_int64("10o0", &i));
  EXPECT_FALSE(parse_int64("0x10", &i));

  std::uint64_t u = 0;
  EXPECT_TRUE(parse_uint64("18446744073709551615", &u));
  EXPECT_EQ(u, 18446744073709551615ULL);
  EXPECT_FALSE(parse_uint64("-1", &u));
}

TEST(ParseNumber, PrefixReportsConsumed) {
  double d = 0.0;
  std::size_t consumed = 0;
  ASSERT_TRUE(parse_double_prefix("3.5,7", &d, &consumed));
  EXPECT_EQ(d, 3.5);
  EXPECT_EQ(consumed, 3u);
  EXPECT_FALSE(parse_double_prefix(",1", &d, &consumed));
}

/// Flips LC_NUMERIC to a ','-decimal-separator locale for one test and
/// restores the previous locale on scope exit.
class ScopedNumericLocale {
 public:
  explicit ScopedNumericLocale(const char* name)
      : saved_(std::setlocale(LC_NUMERIC, nullptr)),
        applied_(std::setlocale(LC_NUMERIC, name) != nullptr) {}
  ~ScopedNumericLocale() {
    if (applied_) std::setlocale(LC_NUMERIC, saved_.c_str());
  }
  [[nodiscard]] bool applied() const { return applied_; }

 private:
  std::string saved_;
  bool applied_;
};

TEST(ParseNumber, ByteSizes) {
  EXPECT_EQ(parse_byte_size("0"), 0u);
  EXPECT_EQ(parse_byte_size("4096"), 4096u);
  EXPECT_EQ(parse_byte_size("64k"), 64u << 10);
  EXPECT_EQ(parse_byte_size("64M"), 64u << 20);
  EXPECT_EQ(parse_byte_size("64MB"), 64u << 20);
  EXPECT_EQ(parse_byte_size("64MiB"), 64u << 20);
  EXPECT_EQ(parse_byte_size("2G"), std::uint64_t{2} << 30);
  for (const char* bad : {"", "M", "64Q", "64Mi", "64MX", "-1", "1.5G",
                          "99999999999T"}) {
    EXPECT_THROW((void)parse_byte_size(bad), std::invalid_argument) << bad;
  }
}

// The regression for the std::stod / std::strtod bug: under de_DE the
// decimal separator is ',', so the old code parsed "1.25" as 1 and
// broke bit-identity of every serialized double. %.17g text must
// round-trip exactly regardless of the global locale.
TEST(ParseNumber, LocaleIndependentRoundTrip) {
  ScopedNumericLocale locale("de_DE.UTF-8");
  if (!locale.applied()) {
    GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
  }
  const double samples[] = {0.1,
                            -1.0 / 3.0,
                            6.02214076e23,
                            5e-324,
                            1.7976931348623157e308,
                            3.14159265358979312,
                            -0.0};
  for (const double expected : samples) {
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", expected);

    double parsed = 0.0;
    ASSERT_TRUE(parse_double(text, &parsed)) << text;
    EXPECT_EQ(std::memcmp(&parsed, &expected, sizeof parsed), 0) << text;

    // The two public surfaces that used to mis-parse: CLI options...
    OptionSet set;
    set.real("value", 0.0, "");
    EXPECT_EQ(set.parse({"--value", text}).real("value"), parsed) << text;

    // ...and wire/journal JSON.
    JsonValue value;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(std::string("{\"v\":") + text + "}",
                                 &value, &error))
        << text << ": " << error;
    double from_json = 0.0;
    ASSERT_TRUE(value.get("v", &from_json)) << text;
    EXPECT_EQ(std::memcmp(&from_json, &parsed, sizeof parsed), 0) << text;
  }
}

}  // namespace
}  // namespace ft::support
