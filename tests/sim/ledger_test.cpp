// Exact-arithmetic tests for the engine's economic ledger (the beta
// accounting described in docs/ALGORITHMS.md §10), using hand-built
// constant-demand scenarios where every transfer can be computed by hand.
#include <gtest/gtest.h>

#include "sim/engine.hpp"

namespace rrf::sim {
namespace {

/// Constant-demand workload, one VM.
class ConstWorkload final : public wl::Workload {
 public:
  ConstWorkload(std::string name, ResourceVector demand)
      : name_(std::move(name)), demand_(std::move(demand)) {}
  std::string name() const override { return name_; }
  wl::WorkloadKind kind() const override {
    return wl::WorkloadKind::kKernelBuild;
  }
  wl::PerfMetric metric() const override {
    return wl::PerfMetric::kThroughput;
  }
  ResourceVector demand_at(Seconds) const override { return demand_; }
  std::vector<double> vm_split() const override { return {1.0}; }
  void vm_demands_into(Seconds t,
                       std::span<ResourceVector> out) const override {
    out[0] = demand_at(t);
  }

 private:
  std::string name_;
  ResourceVector demand_;
};

/// Builds a one-host scenario from (provisioned, demand) pairs.  Pricing:
/// 100 shares/GHz, 200 shares/GB; host <20 GHz, 10 GB> = <2000, 2000>.
Scenario make_scenario(
    const std::vector<std::pair<ResourceVector, ResourceVector>>& tenants) {
  cluster::Cluster cl({cluster::HostSpec{"n0", ResourceVector{20.0, 10.0}}},
                      PricingModel::example_default());
  Scenario scenario{std::move(cl), {}, {}, {}};
  std::size_t index = 0;
  for (const auto& [provisioned, demand] : tenants) {
    cluster::TenantSpec tenant;
    tenant.name = "T" + std::to_string(index++);
    cluster::VmSpec vm;
    vm.provisioned = provisioned;
    tenant.vms.push_back(vm);
    scenario.cluster.add_tenant(tenant);
    scenario.workloads.push_back(
        std::make_unique<ConstWorkload>(tenant.name, demand));
    scenario.host_of.push_back({0});
  }
  return scenario;
}

EngineConfig exact(PolicyKind policy) {
  EngineConfig config;
  config.policy = policy;
  config.duration = 100.0;
  config.window = 5.0;
  config.use_actuators = false;
  config.use_predictor = false;
  return config;
}

TEST(Ledger, CleanSwapIsZeroSumAndSymmetric) {
  // A holds <10 GHz, 5 GB>, needs <12, 1>; B mirrors: needs <8, 9>.
  // A frees 800 RAM shares, B frees 200 CPU shares.  A's CPU need (200)
  // is fully covered; B's RAM need (800) is fully covered.
  const Scenario s = make_scenario({
      {{10.0, 5.0}, {12.0, 0.5}},
      {{10.0, 5.0}, {8.0, 9.0}},
  });
  const SimResult r = run_simulation(s, exact(PolicyKind::kRrf));
  // A: loses theta*(RAM surplus consumed) = 800 of 900 freed... exactly
  // what B took; gains the 200 CPU B freed.  Positions:
  //   A: 2000 - taken_by_B(800) + gained(200) = 1400 -> beta = 0.7
  //   B: 2000 - 200 + 800 = 2600 -> beta = 1.3
  EXPECT_NEAR(r.tenants[0].beta(), 1400.0 / 2000.0, 1e-9);
  EXPECT_NEAR(r.tenants[1].beta(), 2600.0 / 2000.0, 1e-9);
  // Zero-sum: total position == total shares.
  EXPECT_NEAR(r.tenants[0].beta() + r.tenants[1].beta(), 2.0, 1e-9);
}

TEST(Ledger, UnconsumedSurplusIsNotALoss) {
  // A under-uses everything; B demands exactly its shares.  Nobody takes
  // A's surplus, so A's position stays at its shares.
  const Scenario s = make_scenario({
      {{10.0, 5.0}, {2.0, 1.0}},
      {{10.0, 5.0}, {10.0, 5.0}},
  });
  const SimResult r = run_simulation(s, exact(PolicyKind::kRrf));
  EXPECT_NEAR(r.tenants[0].beta(), 1.0, 1e-9);
  EXPECT_NEAR(r.tenants[1].beta(), 1.0, 1e-9);
}

TEST(Ledger, HeadroomFundedGainsMoveNoAsset) {
  // One tenant owns half the host and over-demands; the unsold head-room
  // feeds it.  No other tenant exists, so no asset moves: beta == 1.
  const Scenario s = make_scenario({
      {{10.0, 5.0}, {18.0, 9.0}},
  });
  const SimResult r = run_simulation(s, exact(PolicyKind::kRrf));
  EXPECT_NEAR(r.tenants[0].beta(), 1.0, 1e-9);
  // And the surplus pass actually delivered the capacity (perf == 1).
  EXPECT_NEAR(r.tenants[0].mean_perf(), 1.0, 1e-9);
}

TEST(Ledger, FreeRiderTakesHeadroomButNotWithheldPool) {
  // A frees 800 CPU shares; rider contributes nothing and over-demands
  // CPU.  The pool's withheld surplus (A's 800) must NOT reach the rider,
  // but the unsold head-room (2000 - 1000 - 1000 = 0 here) is zero, so
  // the rider stays exactly at its share.
  const Scenario s = make_scenario({
      {{10.0, 5.0}, {2.0, 5.0}},    // A: frees 800 CPU shares
      {{10.0, 5.0}, {18.0, 5.0}},   // rider: Lambda = 0
  });
  const SimResult r = run_simulation(s, exact(PolicyKind::kRrf));
  // Rider allocation ratio: exactly its shares every window.
  for (const double ratio : r.tenants[1].alloc_ratio_series()) {
    EXPECT_NEAR(ratio, 1.0, 1e-9);
  }
  // Its CPU stays at the 10 GHz entitlement: satisfaction 10/18.
  EXPECT_NEAR(r.tenants[1].mean_perf(), 10.0 / 18.0, 1e-9);
}

TEST(Ledger, WmmfLetsTheRiderTakeWhatRrfWithholds) {
  // Same scenario under WMMF: the rider absorbs A's freed CPU.
  const Scenario s = make_scenario({
      {{10.0, 5.0}, {2.0, 5.0}},
      {{10.0, 5.0}, {18.0, 5.0}},
  });
  const SimResult r = run_simulation(s, exact(PolicyKind::kWmmf));
  EXPECT_GT(r.tenants[1].beta(), 1.3);       // gained A's 800 CPU shares
  EXPECT_LT(r.tenants[0].beta(), 0.7);       // and A paid for it
  EXPECT_NEAR(r.tenants[1].mean_perf(), 1.0, 1e-9);  // rider satisfied
}

TEST(Ledger, TshirtPositionsNeverMove) {
  const Scenario s = make_scenario({
      {{10.0, 5.0}, {2.0, 5.0}},
      {{10.0, 5.0}, {18.0, 5.0}},
  });
  const SimResult r = run_simulation(s, exact(PolicyKind::kTshirt));
  for (const auto& tenant : r.tenants) {
    EXPECT_NEAR(tenant.beta(), 1.0, 1e-12);
  }
}

}  // namespace
}  // namespace rrf::sim
