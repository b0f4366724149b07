#include "util.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

void SpeedGauge::sample() {
  // 20000 dependent loads through a fixed table of 16384 LCG values, ~0.07
  // ms a pass at reference speed.  Each load's index is the value the
  // previous load returned, so the pass measures load latency alone; the
  // walk soon settles into a short cycle, so the loads hit L1.
  constexpr std::size_t kEntries = 16384;
  constexpr int kSteps = 20000;
  if (table_.empty()) {
    table_.resize(kEntries);
    std::uint32_t x = 12345;
    for (std::uint32_t& v : table_) {
      x = x * 1664525u + 1013904223u;
      v = x;
    }
  }
  double fastest = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const Clock::time_point t0 = Clock::now();
    std::uint32_t j = 0;
    for (int step = 0; step < kSteps; ++step) j = table_[j & (kEntries - 1)];
    const double s = seconds_since(t0);
    fastest = pass == 0 ? s : std::min(fastest, s);
    end_ = j;
  }
  passes_.push_back(fastest);
  factor_ = kReferencePassSeconds / fastest;
  sampled_ = true;
  last_ = Clock::now();
}

double SpeedGauge::seconds_since_sample() const {
  return sampled_ ? seconds_since(last_) : HUGE_VAL;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of nothing");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower = *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile of nothing");
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(rank, n);
}

double total(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum;
}

double loglog_slope(const std::vector<double>& x,
                    const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double dn = static_cast<double>(n);
  return (dn * sxy - sx * sy) / (dn * sxx - sx * sx);
}

double peak_rss_mb() {
  // VmHWM belongs to this process image alone; getrusage's ru_maxrss also
  // carries the peak of the parent that forked it (kept across exec).
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Digest::add(std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (value >> (8 * i)) & 0xffu;
    hash_ *= 1099511628211ull;
  }
}

void Digest::add(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  add(bits);
}

std::string to_hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

namespace {

std::string number(double value) {
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

}  // namespace

void print_result(const std::vector<Metric>& info,
                  const std::vector<Metric>& reported, bool correct,
                  std::size_t attempted, std::size_t failed) {
  for (const Metric& m : info) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const Metric& m = reported[i];
    json << (i > 0 ? ", " : "") << "\"" << m.name << "\": {\"value\": "
         << (std::isfinite(m.value) ? number(m.value) : "null")
         << ", \"unit\": \"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

}  // namespace perfbench
