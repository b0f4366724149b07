#include "sim/metrics.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace rrf::sim {
namespace {

TEST(TenantMetrics, BetaIsGrantedOverInitial) {
  TenantMetrics m("A", ResourceVector{500.0, 500.0});
  // Two windows: exactly the initial shares, then 20% more.
  m.record_window(1000.0, 1000.0, 1.0);
  m.record_window(1200.0, 1200.0, 0.5);
  EXPECT_EQ(m.windows(), 2u);
  EXPECT_NEAR(m.beta(), (1000.0 + 1200.0) / 2000.0, 1e-12);
  EXPECT_NEAR(m.mean_perf(), 0.75, 1e-12);
}

TEST(TenantMetrics, SeriesTrackRatios) {
  TenantMetrics m("A", ResourceVector{500.0, 500.0});
  m.record_window(500.0, 2000.0, 1.0);
  ASSERT_EQ(m.demand_ratio_series().size(), 1u);
  EXPECT_DOUBLE_EQ(m.demand_ratio_series()[0], 2.0);
  EXPECT_DOUBLE_EQ(m.alloc_ratio_series()[0], 0.5);
}

TEST(TenantMetrics, ZeroWindowsIsNeutral) {
  // With no recorded windows the tenant is vacuously "treated fairly":
  // beta and perf report the neutral 1.0 instead of asserting, so
  // zero-duration runs and mid-warmup snapshots stay well defined.
  TenantMetrics m("A", ResourceVector{1.0, 1.0});
  EXPECT_DOUBLE_EQ(m.beta(), 1.0);
  EXPECT_DOUBLE_EQ(m.mean_perf(), 1.0);
  EXPECT_THROW(TenantMetrics("B", ResourceVector{0.0, 0.0}),
               PreconditionError);
}

TEST(SimResult, GeomeansAndLoad) {
  SimResult r;
  r.window = 5.0;
  TenantMetrics a("A", ResourceVector{1.0, 1.0});
  a.record_window(2.0, 2.0, 0.25);
  TenantMetrics b("B", ResourceVector{1.0, 1.0});
  b.record_window(8.0, 2.0, 1.0);
  r.tenants = {a, b};
  EXPECT_NEAR(r.fairness_geomean(), 2.0, 1e-12);  // sqrt(1 * 4)
  EXPECT_NEAR(r.perf_geomean(), 0.5, 1e-12);      // sqrt(0.25 * 1)
  r.phase_seconds[static_cast<std::size_t>(obs::Phase::kAllocate)] = 1.0;
  r.alloc_invocations = 100;
  EXPECT_NEAR(r.allocator_load(), 0.01 / 5.0, 1e-12);
  SimResult empty;
  EXPECT_DOUBLE_EQ(empty.allocator_load(), 0.0);
}

}  // namespace
}  // namespace rrf::sim
