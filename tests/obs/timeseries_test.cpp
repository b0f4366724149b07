#include "obs/timeseries.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace rrf::obs {
namespace {

using Field = TimeSeriesRecorder::Field;

TimeSeriesRecorder two_tenant_recorder() {
  TimeSeriesRecorder recorder;
  recorder.set_tenants({"A", "B"});
  // Two windows, both tenants; demand/alloc/perf all distinct.
  recorder.record(0, 0.0, 0, 1.0, 0.5, 0.9);
  recorder.record(0, 0.0, 1, 2.0, 1.0, 1.0);
  recorder.record(1, 5.0, 0, 1.2, 0.7, 0.8);
  recorder.record(1, 5.0, 1, 1.8, 1.1, 0.95);
  return recorder;
}

TEST(ObsTimeSeries, SeriesAndMeanSlicePerTenant) {
  const TimeSeriesRecorder recorder = two_tenant_recorder();
  EXPECT_EQ(recorder.windows(), 2u);
  EXPECT_EQ(recorder.rows().size(), 4u);

  const std::vector<double> demand_a = recorder.series(0, Field::kDemandRatio);
  ASSERT_EQ(demand_a.size(), 2u);
  EXPECT_DOUBLE_EQ(demand_a[0], 1.0);
  EXPECT_DOUBLE_EQ(demand_a[1], 1.2);

  const std::vector<double> alloc_b = recorder.series(1, Field::kAllocRatio);
  ASSERT_EQ(alloc_b.size(), 2u);
  EXPECT_DOUBLE_EQ(alloc_b[1], 1.1);

  EXPECT_DOUBLE_EQ(recorder.mean(0, Field::kPerfScore), 0.85);
  EXPECT_DOUBLE_EQ(recorder.mean(1, Field::kDemandRatio), 1.9);
  // A tenant with no samples yields an empty series and a 0 mean.
  TimeSeriesRecorder empty;
  empty.set_tenants({"A"});
  EXPECT_TRUE(empty.series(0, Field::kPerfScore).empty());
  EXPECT_DOUBLE_EQ(empty.mean(0, Field::kPerfScore), 0.0);
}

TEST(ObsTimeSeries, WideCsvIsOneColumnPerTenant) {
  const TimeSeriesRecorder recorder = two_tenant_recorder();
  std::ostringstream os;
  recorder.write_wide_csv(os, Field::kAllocRatio);
  std::istringstream lines(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "t_seconds,A,B");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "0,0.5,1");
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "5,0.7,1.1");
  EXPECT_FALSE(std::getline(lines, line));
}

TEST(ObsTimeSeries, WideCsvRequiresFullGrid) {
  TimeSeriesRecorder recorder;
  recorder.set_tenants({"A", "B"});
  recorder.record(0, 0.0, 0, 1.0, 1.0, 1.0);  // B's sample missing
  std::ostringstream os;
  EXPECT_THROW(recorder.write_wide_csv(os, Field::kAllocRatio),
               PreconditionError);
}

TEST(ObsTimeSeries, LongCsvAndJsonlCarryEverySample) {
  const TimeSeriesRecorder recorder = two_tenant_recorder();

  std::ostringstream csv;
  recorder.write_csv(csv);
  std::istringstream csv_lines(csv.str());
  std::string line;
  ASSERT_TRUE(std::getline(csv_lines, line));
  EXPECT_EQ(line, "window,t_seconds,tenant,demand_ratio,alloc_ratio,perf_score");
  ASSERT_TRUE(std::getline(csv_lines, line));
  EXPECT_EQ(line, "0,0,A,1,0.5,0.9");

  std::ostringstream jsonl;
  recorder.write_jsonl(jsonl);
  std::size_t json_rows = 0;
  std::istringstream json_lines(jsonl.str());
  while (std::getline(json_lines, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"tenant\":"), std::string::npos);
    ++json_rows;
  }
  EXPECT_EQ(json_rows, recorder.rows().size());
}

// Both CSV shapes print through the JSON codec's shortest round-trip
// formatter, so a ratio with ten significant digits reads back exactly.
TEST(ObsTimeSeries, CsvValuesRoundTripAtFullPrecision) {
  const double ratio = 0.9438761234;
  const double time_s = 12345.678901;
  TimeSeriesRecorder recorder;
  recorder.set_tenants({"A"});
  recorder.record(0, time_s, 0, ratio, ratio, ratio);

  std::ostringstream wide;
  recorder.write_wide_csv(wide, Field::kAllocRatio);
  std::istringstream wide_lines(wide.str());
  std::string line;
  ASSERT_TRUE(std::getline(wide_lines, line));
  ASSERT_TRUE(std::getline(wide_lines, line));
  EXPECT_EQ(line, "12345.678901,0.9438761234");
  const std::size_t comma = line.find(',');
  EXPECT_EQ(std::stod(line.substr(0, comma)), time_s);
  EXPECT_EQ(std::stod(line.substr(comma + 1)), ratio);

  std::ostringstream long_form;
  recorder.write_csv(long_form);
  std::istringstream long_lines(long_form.str());
  ASSERT_TRUE(std::getline(long_lines, line));
  ASSERT_TRUE(std::getline(long_lines, line));
  EXPECT_EQ(line, "0,12345.678901,A,0.9438761234,0.9438761234,0.9438761234");
}

TEST(ObsTimeSeries, ClearAllowsReuseAcrossRuns) {
  TimeSeriesRecorder recorder = two_tenant_recorder();
  recorder.clear();
  EXPECT_TRUE(recorder.empty());
  EXPECT_EQ(recorder.windows(), 0u);
  // set_tenants is legal again once the rows are gone (the engine does
  // this when one recorder backs successive runs).
  recorder.set_tenants({"C"});
  recorder.record(0, 0.0, 0, 1.0, 1.0, 1.0);
  EXPECT_EQ(recorder.tenant_names().front(), "C");
  EXPECT_EQ(recorder.rows().size(), 1u);
}

TEST(ObsTimeSeries, GuardsBadIndices) {
  TimeSeriesRecorder recorder;
  recorder.set_tenants({"A"});
  EXPECT_THROW(recorder.record(0, 0.0, 1, 1.0, 1.0, 1.0), PreconditionError);
  recorder.record(0, 0.0, 0, 1.0, 1.0, 1.0);
  EXPECT_THROW(recorder.set_tenants({"B"}), PreconditionError);
}

TEST(ObsTimeSeries, FieldNamesAreStable) {
  EXPECT_STREQ(to_string(Field::kDemandRatio), "demand_ratio");
  EXPECT_STREQ(to_string(Field::kAllocRatio), "alloc_ratio");
  EXPECT_STREQ(to_string(Field::kPerfScore), "perf_score");
}

}  // namespace
}  // namespace rrf::obs
