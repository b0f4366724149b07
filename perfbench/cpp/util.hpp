// Small helpers shared by the benchmark program: wall-clock timing, order
// statistics, the round digest and metric reporting.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);
double seconds_since(Clock::time_point from);

/// Host speed gauge.  On a shared host this core runs the same code up to
/// ~2x slower, in bursts, while neighbours are busy; wall times then follow
/// the neighbours more than the program.  sample() times a fixed chain of
/// dependent loads that belongs to the benchmark (the same work on every
/// commit) and keeps the fastest of three passes; factor() is the reference
/// pass time over that time.  A wall time multiplied by factor() is the
/// time at the reference speed, where a pass takes 0.07 ms: about a quiet
/// host's speed on the 4-vCPU Xeon VM the benchmark was written on.
class SpeedGauge {
 public:
  static constexpr double kReferencePassSeconds = 7e-5;

  void sample();
  double factor() const { return factor_; }
  /// Wall seconds since the last sample (infinite before the first).
  double seconds_since_sample() const;
  /// The fastest pass of every sample so far, in seconds.
  const std::vector<double>& passes() const { return passes_; }

 private:
  double factor_{1.0};
  bool sampled_{false};
  Clock::time_point last_{};
  std::vector<double> passes_;
  std::vector<std::uint32_t> table_;
  /// Where the last pass ended; stored so the loads are not optimised away.
  std::uint32_t end_{0};
};

/// Median of `values` (mean of the two middle values for even sizes).
/// Requires a non-empty input.
double median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 1].  Requires a non-empty input.
double percentile(std::vector<double> values, double q);

/// Samples strictly above the nearest-rank q-percentile position, i.e.
/// how many samples lie beyond the reported p-q value.
std::size_t samples_beyond(std::size_t n, double q);

/// Sum of the values.
double total(const std::vector<double>& values);

/// Least-squares slope of log(y) over log(x): the empirical scaling
/// exponent of a cost y measured at sizes x.
double loglog_slope(const std::vector<double>& x, const std::vector<double>& y);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// FNV-1a over the exact bit patterns of the values fed to it.
class Digest {
 public:
  void add(std::uint64_t value);
  void add(double value);
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_{14695981039346656037ull};
};

std::string to_hex(std::uint64_t value);

struct Metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

/// Prints each metric as "name = value unit" and then, as the last line of
/// standard output, the one-line JSON result object.
void print_result(const std::vector<Metric>& info,
                  const std::vector<Metric>& reported, bool correct,
                  std::size_t attempted, std::size_t failed);

}  // namespace perfbench
