// Metric arithmetic of the CFR campaign benchmark, kept free of any
// program dependency so metrics_test.cpp can check it in isolation.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Middle value of `values` (mean of the two middle ones for an even
/// count). Throws on an empty sample.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Samples that lie strictly beyond the nearest-rank q-quantile of n
/// samples: the quantile is the ceil(q*n)-th smallest value, so n minus
/// that rank lie above it.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > rank ? n - rank : 0;
}

/// Smallest sample count whose q-quantile has at least `beyond` samples
/// past it. A tail percentile is reported only from that many samples.
inline std::size_t min_samples_for_tail(double q, std::size_t beyond = 10) {
  std::size_t n = 1;
  while (samples_beyond(n, q) < beyond) ++n;
  return n;
}

/// Nearest-rank q-quantile. Throws when fewer than `beyond` samples lie
/// past it: such a tail is not measured, only guessed.
inline double tail_quantile(std::vector<double> values, double q,
                            std::size_t beyond = 10) {
  if (samples_beyond(values.size(), q) < beyond) {
    std::ostringstream why;
    why << "p" << q * 100 << " needs " << min_samples_for_tail(q, beyond)
        << " samples, got " << values.size();
    throw std::invalid_argument(why.str());
  }
  std::sort(values.begin(), values.end());
  const std::size_t rank = values.size() - samples_beyond(values.size(), q);
  return values[std::max<std::size_t>(rank, 1) - 1];
}

/// Process CPU milliseconds per 1000 evaluations. The daemon's CPU is
/// part of the cost of a remote evaluation, so it is added to the
/// client's.
inline double cpu_ms_per_keval(double client_cpu_s, double daemon_cpu_s,
                               std::uint64_t evaluations) {
  if (evaluations == 0) throw std::invalid_argument("no evaluations");
  return (client_cpu_s + daemon_cpu_s) * 1e3 /
         (static_cast<double>(evaluations) / 1e3);
}

/// user + system CPU seconds from the text of /proc/<pid>/stat. Fields
/// are counted after the last ')' because the command name may itself
/// hold spaces and parentheses; utime and stime are fields 14 and 15.
inline double proc_stat_cpu_seconds(const std::string& stat,
                                    long ticks_per_second) {
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos || ticks_per_second <= 0) {
    throw std::invalid_argument("not a /proc/<pid>/stat line");
  }
  std::istringstream fields(stat.substr(close + 1));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  // Field 3 (state) is the first after the command name.
  for (int index = 3; index <= 15 && (fields >> field); ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) stime = std::stoull(field);
  }
  if (!fields) throw std::invalid_argument("truncated /proc/<pid>/stat");
  return static_cast<double>(utime + stime) /
         static_cast<double>(ticks_per_second);
}

/// One set-up measurement: from workload start (before the program is
/// constructed) until the first timed campaign may start, i.e. after
/// `setup` and the untimed warm-up campaign `warmup` have both run.
/// Nothing after the warm-up is inside the interval.
template <class Clock, class Setup, class Warmup>
double timed_setup(Clock&& now, Setup&& setup, Warmup&& warmup) {
  const double start = now();
  setup();
  warmup();
  return now() - start;
}

/// Geometric mean of positive values.
inline double geomean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("geomean of no samples");
  double log_sum = 0.0;
  for (const double value : values) {
    if (!(value > 0.0)) throw std::invalid_argument("geomean of <= 0");
    log_sum += std::log(value);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace perfbench
