// Unit test of the benchmark's metric arithmetic (metrics.hpp): the
// ten-beyond rule for tail percentiles, CPU per 1000 evaluations with
// the daemon's share, /proc stat parsing, and what set-up time covers.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

template <class F>
bool throws(F&& body) {
  try {
    body();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

std::vector<double> ramp(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

}  // namespace

int main() {
  using namespace perfbench;

  // Ten-beyond rule: p75 of n samples has n - ceil(0.75 n) beyond it.
  expect(samples_beyond(40, 0.75) == 10, "40 samples leave 10 beyond p75");
  expect(samples_beyond(39, 0.75) == 9, "39 samples leave 9 beyond p75");
  expect(min_samples_for_tail(0.75) == 40, "p75 needs 40 samples");
  expect(min_samples_for_tail(0.5) == 20, "p50 needs 20 samples");
  expect(min_samples_for_tail(0.9) == 100, "p90 needs 100 samples");
  expect(near(tail_quantile(ramp(40), 0.75), 30.0), "p75 of 1..40 is 30");
  expect(throws([] { (void)tail_quantile(ramp(39), 0.75); }),
         "p75 of 39 samples is refused");
  expect(near(median(ramp(4)), 2.5), "median of 1..4");
  expect(near(median(ramp(5)), 3.0), "median of 1..5");
  expect(throws([] { (void)median({}); }), "median of nothing is refused");

  // CPU per 1000 evaluations adds the daemon's CPU to the client's.
  expect(near(cpu_ms_per_keval(1.5, 0.0, 20000), 75.0),
         "client-only CPU per keval");
  expect(near(cpu_ms_per_keval(1.5, 0.5, 20000), 100.0),
         "daemon CPU counts toward cpu_ms_per_keval");
  expect(throws([] { (void)cpu_ms_per_keval(1.0, 0.0, 0); }),
         "no evaluations is refused");

  // /proc/<pid>/stat: the command name may hold spaces and ')'.
  const std::string stat =
      "4242 (ftu ned) x) S 1 4242 4242 0 -1 4194560 900 0 0 0 "
      "250 50 7 3 20 0 2 0 12345 1000000 300";
  expect(near(proc_stat_cpu_seconds(stat, 100), 3.0),
         "utime + stime = 300 ticks = 3 s");
  expect(throws([] { (void)proc_stat_cpu_seconds("4242 S 1", 100); }),
         "a stat line without a command name is refused");

  // Set-up time runs from workload start through the warm-up campaign
  // and stops before the first timed campaign.
  double clock = 10.0;
  const auto now = [&] { return clock; };
  const double setup =
      timed_setup(now, [&] { clock += 2.0; }, [&] { clock += 0.25; });
  clock += 5.0;  // a timed campaign: not part of set-up
  expect(near(setup, 2.25), "set-up covers set-up and warm-up only");

  expect(near(geomean({1.0, 4.0}), 2.0), "geomean");
  expect(throws([] { (void)geomean({1.0, 0.0}); }), "geomean of 0 refused");

  if (failures > 0) {
    std::fprintf(stderr, "%d metric checks failed\n", failures);
    return 1;
  }
  std::printf("metrics_test: all checks passed\n");
  return 0;
}
