#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "common/error.hpp"

namespace rrf::sim {
namespace {

ScenarioConfig four_workloads() {
  ScenarioConfig config;
  config.workloads = wl::paper_workloads();
  config.hosts = 1;
  config.seed = 42;
  return config;
}

TEST(Scenario, PaperSingleHostScenarioFits) {
  // All four workloads at alpha = 1 co-locate on one paper host (the
  // paper's Fig. 4/5 setup): the aggregate *average* demand is close to
  // the node's capacity.
  const Scenario s = build_scenario(four_workloads());
  EXPECT_TRUE(s.unplaced.empty());
  EXPECT_EQ(s.cluster.tenants().size(), 4u);
  EXPECT_TRUE(s.cluster.reservation_fits());
  // Bulk reservation uses most of the node (paper: contention at peaks).
  const ResourceVector used = s.cluster.total_provisioned();
  const ResourceVector cap = s.cluster.total_capacity();
  EXPECT_GT(used[0] / cap[0], 0.75);
}

TEST(Scenario, VmCountsMatchThePaperDeployment) {
  const Scenario s = build_scenario(four_workloads());
  EXPECT_EQ(s.cluster.tenants()[0].vms.size(), 2u);   // TPC-C client+DB
  EXPECT_EQ(s.cluster.tenants()[1].vms.size(), 3u);   // RUBBoS 3-tier
  EXPECT_EQ(s.cluster.tenants()[2].vms.size(), 1u);   // kernel build
  EXPECT_EQ(s.cluster.tenants()[3].vms.size(), 11u);  // Hadoop master+10
}

TEST(Scenario, AlphaScalesProvisioning) {
  ScenarioConfig config = four_workloads();
  const Scenario s1 = build_scenario(config);
  config.alpha = 0.5;
  const Scenario s2 = build_scenario(config);
  const ResourceVector p1 = s1.cluster.total_provisioned();
  const ResourceVector p2 = s2.cluster.total_provisioned();
  EXPECT_NEAR(p2[0], 0.5 * p1[0], 1e-9);
  EXPECT_NEAR(p2[1], 0.5 * p1[1], 1e-9);
}

TEST(Scenario, PeakAlphaAboveOne) {
  const double a_star = peak_alpha(four_workloads());
  // TPC-C peaks at ~2.3x its average CPU: alpha* must be at least that.
  EXPECT_GT(a_star, 2.0);
  EXPECT_LT(a_star, 4.0);
}

TEST(Scenario, FillScenarioPacksUntilFull) {
  const std::vector<wl::WorkloadKind> cycle{wl::WorkloadKind::kKernelBuild,
                                            wl::WorkloadKind::kTpcc};
  const Scenario s = fill_scenario(/*hosts=*/1, cycle, /*alpha=*/1.0, 42);
  EXPECT_TRUE(s.unplaced.empty());
  EXPECT_GE(s.cluster.tenants().size(), 4u);  // small apps pack densely
  // Adding one more tenant would not fit: the reservation is nearly full.
  const ResourceVector used = s.cluster.total_provisioned();
  const ResourceVector cap = s.cluster.total_capacity();
  EXPECT_GT(std::max(used[0] / cap[0], used[1] / cap[1]), 0.6);
}

TEST(Scenario, FillScenarioDensityGrowsAsAlphaShrinks) {
  const std::vector<wl::WorkloadKind> cycle{wl::WorkloadKind::kTpcc};
  const Scenario tight = fill_scenario(1, cycle, 2.0, 42);
  const Scenario loose = fill_scenario(1, cycle, 1.0, 42);
  EXPECT_GT(loose.cluster.tenants().size(),
            tight.cluster.tenants().size());
}

/// The oracle for fill_scenario: the quadratic loop it replaced, which
/// rebuilds the whole scenario for 1, 2, ... tenants and keeps the last
/// one whose newest tenant placed fully.
Scenario naive_fill(std::size_t hosts,
                    const std::vector<wl::WorkloadKind>& cycle, double alpha,
                    std::uint64_t seed, std::size_t max_tenants) {
  ScenarioConfig config;
  config.hosts = hosts;
  config.alpha = alpha;
  config.seed = seed;
  config.workloads = {cycle[0]};
  Scenario best = build_scenario(config);
  if (!best.unplaced.empty()) {
    throw DomainError("not even one tenant fits at this alpha");
  }
  for (std::size_t k = 1; k < max_tenants; ++k) {
    config.workloads.push_back(cycle[k % cycle.size()]);
    Scenario next = build_scenario(config);
    if (!next.unplaced.empty()) break;
    best = std::move(next);
  }
  return best;
}

TEST(Scenario, FillMatchesTheNaivePerTenantLoop) {
  using wl::WorkloadKind;
  struct Case {
    std::size_t hosts;
    std::vector<WorkloadKind> cycle;
    double alpha;
    std::uint64_t seed;
    std::size_t max_tenants;
  };
  const std::vector<Case> cases = {
      {1, {WorkloadKind::kKernelBuild, WorkloadKind::kTpcc}, 1.0, 42, 64},
      {1, {WorkloadKind::kTpcc}, 2.0, 42, 64},
      {2, wl::paper_workloads(), 1.0, 7, 64},
      {3, wl::paper_workloads(), 1.5, 11, 64},
      {2,
       {WorkloadKind::kHadoop, WorkloadKind::kKernelBuild,
        WorkloadKind::kRubbos},
       0.8, 3, 64},
      {4, wl::paper_workloads(), 1.0, 1, 5},  // stops at max_tenants
  };
  bool stopped_mid_cycle = false;
  for (const Case& c : cases) {
    const std::string what = "hosts " + std::to_string(c.hosts) + " alpha " +
                             std::to_string(c.alpha) + " seed " +
                             std::to_string(c.seed);
    const Scenario fast =
        fill_scenario(c.hosts, c.cycle, c.alpha, c.seed, c.max_tenants);
    const Scenario slow =
        naive_fill(c.hosts, c.cycle, c.alpha, c.seed, c.max_tenants);
    const auto& tenants = fast.cluster.tenants();
    ASSERT_EQ(tenants.size(), slow.cluster.tenants().size()) << what;
    EXPECT_EQ(fast.cluster.hosts().size(), slow.cluster.hosts().size());
    EXPECT_EQ(fast.host_of, slow.host_of) << what;
    EXPECT_EQ(fast.unplaced, slow.unplaced) << what;
    EXPECT_TRUE(fast.unplaced.empty()) << what;
    ASSERT_EQ(fast.workloads.size(), tenants.size()) << what;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
      const auto& other = slow.cluster.tenants()[t];
      EXPECT_EQ(tenants[t].name, other.name) << what;
      EXPECT_EQ(fast.workloads[t]->name(), slow.workloads[t]->name());
      ASSERT_EQ(tenants[t].vms.size(), other.vms.size()) << what;
      for (std::size_t j = 0; j < tenants[t].vms.size(); ++j) {
        const auto a = tenants[t].vms[j].provisioned.values();
        const auto b = other.vms[j].provisioned.values();
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
            << what << " tenant " << t << " vm " << j;
        EXPECT_EQ(tenants[t].vms[j].vcpus, other.vms[j].vcpus) << what;
      }
    }
    if (tenants.size() < c.max_tenants &&
        tenants.size() % c.cycle.size() != 0) {
      stopped_mid_cycle = true;
    }
  }
  EXPECT_TRUE(stopped_mid_cycle) << "no case exercises a mid-cycle failure";
}

TEST(Scenario, FillNeedsAFixedPool) {
  EXPECT_THROW(fill_scenario(/*hosts=*/0, wl::paper_workloads(), 1.0, 42),
               PreconditionError);
}

TEST(Scenario, AutoSizesThePool) {
  // hosts == 0: the GSA sizes the bulk reservation via pool scaling.
  ScenarioConfig config = four_workloads();
  config.hosts = 0;
  config.autosize_utilization = 0.9;
  const Scenario s = build_scenario(config);
  // One paper host holds the aggregate at ~100%; at 90% it takes two.
  EXPECT_EQ(s.cluster.hosts().size(), 2u);
  EXPECT_TRUE(s.unplaced.empty());
  config.autosize_utilization = 1.0;
  EXPECT_EQ(build_scenario(config).cluster.hosts().size(), 1u);
}

TEST(Scenario, CustomPricingFlowsThrough) {
  ScenarioConfig config = four_workloads();
  config.pricing = PricingModel(ResourceVector{100.0, 400.0});
  const Scenario s = build_scenario(config);
  const ResourceVector shares = s.cluster.tenant_shares(0);
  const ResourceVector provisioned =
      s.cluster.tenants()[0].total_provisioned();
  EXPECT_NEAR(shares[0], provisioned[0] * 100.0, 1e-6);
  EXPECT_NEAR(shares[1], provisioned[1] * 400.0, 1e-6);
}

TEST(Scenario, ValidatesInput) {
  ScenarioConfig config;
  EXPECT_THROW(build_scenario(config), PreconditionError);  // no workloads
  config.workloads = {wl::WorkloadKind::kTpcc};
  config.alpha = 0.0;
  EXPECT_THROW(build_scenario(config), PreconditionError);
}

}  // namespace
}  // namespace rrf::sim
