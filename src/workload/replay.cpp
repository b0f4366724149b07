#include "workload/replay.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <ostream>
#include <sstream>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/table.hpp"

namespace rrf::wl {

ReplayWorkload::ReplayWorkload(std::string name, std::vector<Seconds> times,
                               std::vector<ResourceVector> demands,
                               std::vector<double> split, PerfMetric metric)
    : name_(std::move(name)),
      times_(std::move(times)),
      demands_(std::move(demands)),
      split_(std::move(split)),
      metric_(metric) {
  RRF_REQUIRE(!times_.empty(), "empty trace");
  RRF_REQUIRE(times_.size() == demands_.size(),
              "times/demands length mismatch");
  for (std::size_t i = 0; i < times_.size(); ++i) {
    RRF_REQUIRE(demands_[i].all_nonneg(), "negative demand in trace");
    if (i > 0) {
      RRF_REQUIRE(times_[i] > times_[i - 1],
                  "trace times must be strictly increasing");
    }
  }
  RRF_REQUIRE(!split_.empty(), "empty VM split");
  const double sum = std::accumulate(split_.begin(), split_.end(), 0.0);
  RRF_REQUIRE(std::abs(sum - 1.0) < 1e-9, "vm split must sum to 1");
}

std::unique_ptr<ReplayWorkload> ReplayWorkload::from_csv(
    std::string name, std::istream& in, std::vector<double> split,
    PerfMetric metric) {
  std::string line;
  if (!std::getline(in, line)) {
    throw DomainError("replay CSV is empty");
  }
  // Header is required but its exact labels are not enforced.
  std::vector<Seconds> times;
  std::vector<ResourceVector> demands;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::stringstream ss(line);
    std::string cell;
    std::vector<double> values;
    const std::string where = "replay CSV line " + std::to_string(line_no);
    while (std::getline(ss, cell, ',')) {
      values.push_back(parse_csv_number(cell, where));
    }
    if (values.size() < 3) {
      throw DomainError("replay CSV line " + std::to_string(line_no) +
                        ": expected t,cpu,ram");
    }
    times.push_back(values[0]);
    demands.push_back(ResourceVector{values[1], values[2]});
  }
  if (times.empty()) {
    throw DomainError("replay CSV has a header but no samples");
  }
  return std::make_unique<ReplayWorkload>(std::move(name), std::move(times),
                                          std::move(demands),
                                          std::move(split), metric);
}

std::unique_ptr<ReplayWorkload> ReplayWorkload::from_csv_file(
    const std::string& path, std::vector<double> split, PerfMetric metric) {
  std::ifstream in(path);
  if (!in) throw DomainError("cannot open trace file: " + path);
  // Use the file's basename as the workload name.
  const std::size_t slash = path.find_last_of('/');
  return from_csv(slash == std::string::npos ? path : path.substr(slash + 1),
                  in, std::move(split), metric);
}

ResourceVector ReplayWorkload::demand_at(Seconds t) const {
  // Wrap around past the end; zero-order hold between samples.
  const Seconds horizon = times_.back() + (times_.size() > 1
                                               ? times_[1] - times_[0]
                                               : 1.0);
  Seconds wrapped = std::fmod(std::max(0.0, t), horizon);
  const auto it =
      std::upper_bound(times_.begin(), times_.end(), wrapped);
  const std::size_t idx =
      it == times_.begin()
          ? 0
          : static_cast<std::size_t>(it - times_.begin()) - 1;
  return demands_[idx];
}

std::vector<ResourceVector> ReplayWorkload::vm_demands_at(Seconds t) const {
  const ResourceVector total = demand_at(t);
  std::vector<ResourceVector> out;
  out.reserve(split_.size());
  for (const double f : split_) out.push_back(total * f);
  return out;
}

void export_trace_csv(const Workload& workload, Seconds duration, Seconds dt,
                      std::ostream& out) {
  RRF_REQUIRE(duration > 0.0 && dt > 0.0, "positive duration and dt");
  out << "t_seconds,cpu_ghz,ram_gb\n";
  for (Seconds t = 0.0; t < duration; t += dt) {
    const ResourceVector d = workload.demand_at(t);
    out << json::format_number(t) << ','
        << json::format_number(d[Resource::kCpu]) << ','
        << json::format_number(d[Resource::kRam]) << '\n';
  }
}

}  // namespace rrf::wl
