#include "obs/timeseries.hpp"

#include <algorithm>
#include <ostream>

#include "common/error.hpp"
#include "common/json.hpp"

namespace rrf::obs {

namespace {

double field_value(const TimeSeriesRecorder::Row& row,
                   TimeSeriesRecorder::Field field) {
  switch (field) {
    case TimeSeriesRecorder::Field::kDemandRatio: return row.demand_ratio;
    case TimeSeriesRecorder::Field::kAllocRatio: return row.alloc_ratio;
    case TimeSeriesRecorder::Field::kPerfScore: return row.perf_score;
  }
  return 0.0;
}

}  // namespace

const char* to_string(TimeSeriesRecorder::Field field) {
  switch (field) {
    case TimeSeriesRecorder::Field::kDemandRatio: return "demand_ratio";
    case TimeSeriesRecorder::Field::kAllocRatio: return "alloc_ratio";
    case TimeSeriesRecorder::Field::kPerfScore: return "perf_score";
  }
  return "unknown";
}

void TimeSeriesRecorder::set_tenants(std::vector<std::string> names) {
  RRF_REQUIRE(rows_.empty(), "set_tenants after recording started");
  names_ = std::move(names);
}

void TimeSeriesRecorder::record(std::size_t window, double time_s,
                                std::size_t tenant, double demand_ratio,
                                double alloc_ratio, double perf_score) {
  RRF_REQUIRE(tenant < names_.size(), "recorder tenant index out of range");
  rows_.push_back(
      Row{window, time_s, tenant, demand_ratio, alloc_ratio, perf_score});
  windows_ = std::max(windows_, window + 1);
}

std::vector<double> TimeSeriesRecorder::series(std::size_t tenant,
                                               Field field) const {
  std::vector<double> out;
  out.reserve(windows_);
  for (const Row& row : rows_) {
    if (row.tenant == tenant) out.push_back(field_value(row, field));
  }
  return out;
}

double TimeSeriesRecorder::mean(std::size_t tenant, Field field) const {
  double total = 0.0;
  std::size_t n = 0;
  for (const Row& row : rows_) {
    if (row.tenant != tenant) continue;
    total += field_value(row, field);
    ++n;
  }
  return n > 0 ? total / static_cast<double>(n) : 0.0;
}

void TimeSeriesRecorder::write_csv(std::ostream& os) const {
  os << "window,t_seconds,tenant,demand_ratio,alloc_ratio,perf_score\n";
  for (const Row& row : rows_) {
    os << row.window << ',' << json::format_number(row.time_s) << ','
       << names_[row.tenant] << ',' << json::format_number(row.demand_ratio)
       << ',' << json::format_number(row.alloc_ratio) << ','
       << json::format_number(row.perf_score) << '\n';
  }
}

void TimeSeriesRecorder::write_jsonl(std::ostream& os) const {
  for (const Row& row : rows_) {
    os << json::Value(json::Object{{"window", row.window},
                                   {"t_seconds", row.time_s},
                                   {"tenant", names_[row.tenant]},
                                   {"demand_ratio", row.demand_ratio},
                                   {"alloc_ratio", row.alloc_ratio},
                                   {"perf_score", row.perf_score}})
              .dump()
       << '\n';
  }
}

void TimeSeriesRecorder::write_wide_csv(std::ostream& os, Field field) const {
  RRF_REQUIRE(rows_.size() == windows_ * names_.size(),
              "wide CSV needs a sample for every (window, tenant)");
  os << "t_seconds";
  for (const std::string& name : names_) os << ',' << name;
  os << '\n';

  // Rows arrive window-major from the engine but nothing guarantees it, so
  // index by (window, tenant) explicitly.
  std::vector<double> cells(windows_ * names_.size(), 0.0);
  std::vector<double> times(windows_, 0.0);
  for (const Row& row : rows_) {
    cells[row.window * names_.size() + row.tenant] = field_value(row, field);
    times[row.window] = row.time_s;
  }
  for (std::size_t w = 0; w < windows_; ++w) {
    os << json::format_number(times[w]);
    for (std::size_t t = 0; t < names_.size(); ++t) {
      os << ',' << json::format_number(cells[w * names_.size() + t]);
    }
    os << '\n';
  }
}

void TimeSeriesRecorder::clear() {
  rows_.clear();
  windows_ = 0;
}

}  // namespace rrf::obs
