// End-to-end integration and failure-injection tests: multi-host runs,
// demand spikes, overcommitted pools, idle tenants, degenerate clusters.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/engine.hpp"

namespace rrf::sim {
namespace {

/// Wraps a workload and multiplies its demand by `factor` inside
/// [t0, t1) — fault/spike injection.
class SpikingWorkload final : public wl::Workload {
 public:
  SpikingWorkload(wl::WorkloadPtr base, double factor, Seconds t0,
                  Seconds t1)
      : base_(std::move(base)), factor_(factor), t0_(t0), t1_(t1) {}

  std::string name() const override { return base_->name() + "+spike"; }
  wl::WorkloadKind kind() const override { return base_->kind(); }
  wl::PerfMetric metric() const override { return base_->metric(); }
  ResourceVector demand_at(Seconds t) const override {
    return base_->demand_at(t) * multiplier(t);
  }
  std::vector<double> vm_split() const override { return base_->vm_split(); }
  void vm_demands_into(Seconds t,
                       std::span<ResourceVector> out) const override {
    base_->vm_demands_into(t, out);
    for (auto& d : out) d *= multiplier(t);
  }

 private:
  double multiplier(Seconds t) const {
    return (t >= t0_ && t < t1_) ? factor_ : 1.0;
  }
  wl::WorkloadPtr base_;
  double factor_;
  Seconds t0_, t1_;
};

/// Constant-zero demand (an idle tenant that contributes everything).
class IdleWorkload final : public wl::Workload {
 public:
  std::string name() const override { return "Idle"; }
  wl::WorkloadKind kind() const override {
    return wl::WorkloadKind::kKernelBuild;
  }
  wl::PerfMetric metric() const override {
    return wl::PerfMetric::kThroughput;
  }
  ResourceVector demand_at(Seconds) const override {
    return ResourceVector{0.0, 0.0};
  }
  std::vector<double> vm_split() const override { return {1.0}; }
  void vm_demands_into(Seconds t,
                       std::span<ResourceVector> out) const override {
    out[0] = demand_at(t);
  }
};

EngineConfig quick(PolicyKind policy, Seconds duration = 600.0) {
  EngineConfig config;
  config.policy = policy;
  config.duration = duration;
  config.window = 5.0;
  return config;
}

TEST(Integration, MultiHostConservationPerWindow) {
  const Scenario s =
      fill_scenario(/*hosts=*/3, wl::paper_workloads(), 1.0, 11);
  const double capacity_shares =
      s.cluster.pricing().shares_for(s.cluster.total_capacity()).sum();

  for (const PolicyKind policy :
       {PolicyKind::kWmmf, PolicyKind::kRrf, PolicyKind::kRrfSp}) {
    const SimResult r = run_simulation(s, quick(policy));
    const std::size_t windows = r.tenants.front().windows();
    for (std::size_t w = 0; w < windows; ++w) {
      double granted = 0.0;
      for (std::size_t t = 0; t < r.tenants.size(); ++t) {
        granted += r.tenants[t].alloc_ratio_series()[w] *
                   s.cluster.tenant_shares(t).sum();
      }
      ASSERT_LE(granted, capacity_shares * (1.0 + 1e-6))
          << to_string(policy) << " window " << w;
    }
  }
}

TEST(Integration, DemandSpikeIsAbsorbedAndReleased) {
  // Kernel-build spikes 6x during [200, 400): sharing absorbs what it
  // can and recovers afterwards; nothing crashes, metrics stay sane.
  ScenarioConfig config;
  config.workloads = wl::paper_workloads();
  config.hosts = 1;
  config.seed = 42;
  Scenario s = build_scenario(config);
  s.workloads[2] = std::make_unique<SpikingWorkload>(
      std::move(s.workloads[2]), 6.0, 200.0, 400.0);

  const SimResult r = run_simulation(s, quick(PolicyKind::kRrf));
  const auto& spiky = r.tenants[2];
  // During the spike the demand ratio jumps well above 1...
  double spike_max = 0.0, tail_max = 0.0;
  for (std::size_t w = 0; w < spiky.windows(); ++w) {
    const double t = 5.0 * static_cast<double>(w);
    if (t >= 200.0 && t < 400.0) {
      spike_max = std::max(spike_max, spiky.demand_ratio_series()[w]);
    }
    if (t >= 450.0) {
      tail_max = std::max(tail_max, spiky.demand_ratio_series()[w]);
    }
  }
  EXPECT_GT(spike_max, 3.0);
  EXPECT_LT(tail_max, 2.0);
  // Overall metrics remain finite and plausible for every tenant.
  for (const auto& tenant : r.tenants) {
    EXPECT_TRUE(std::isfinite(tenant.beta()));
    EXPECT_GT(tenant.mean_perf(), 0.02);
  }
}

TEST(Integration, OvercommittedScenarioExcludesUnplacedVms) {
  // alpha high enough that not everything fits on one host.
  ScenarioConfig config;
  config.workloads = wl::paper_workloads();
  config.alpha = 1.6;
  config.hosts = 1;
  config.seed = 42;
  const Scenario s = build_scenario(config);
  ASSERT_FALSE(s.unplaced.empty());

  const SimResult r = run_simulation(s, quick(PolicyKind::kRrf));
  for (const auto& tenant : r.tenants) {
    EXPECT_TRUE(std::isfinite(tenant.beta())) << tenant.name();
    EXPECT_GE(tenant.beta(), 0.0);
  }
}

TEST(Integration, IdleTenantKeepsItsAssetUnlessConsumed) {
  cluster::Cluster cl({cluster::paper_host()},
                      PricingModel::paper_default());
  cluster::TenantSpec idle;
  idle.name = "Idle";
  cluster::VmSpec idle_vm;
  idle_vm.provisioned = ResourceVector{20.0, 8.0};
  idle.vms.push_back(idle_vm);
  cl.add_tenant(idle);

  // Hungry runs RUBBoS's three VMs (web, app, DB) on the same <20, 8>
  // provisioning as Idle, split the way the workload splits its demand.
  wl::WorkloadPtr rubbos = wl::make_workload(wl::WorkloadKind::kRubbos, 7);
  cluster::TenantSpec hungry;
  hungry.name = "Hungry";
  for (const double fraction : rubbos->vm_split()) {
    cluster::VmSpec vm;
    vm.provisioned = ResourceVector{20.0, 8.0} * fraction;
    hungry.vms.push_back(vm);
  }
  cl.add_tenant(hungry);

  Scenario s{std::move(cl), {}, {}, {}};
  s.workloads.push_back(std::make_unique<IdleWorkload>());
  s.workloads.push_back(std::move(rubbos));
  s.host_of = {{0}, {0, 0, 0}};

  const SimResult r = run_simulation(s, quick(PolicyKind::kRrf));
  // The idle tenant loses asset only when Hungry actually consumes its
  // surplus; it can never gain (it demands nothing).
  EXPECT_LE(r.tenants[0].beta(), 1.0 + 1e-9);
  EXPECT_GT(r.tenants[0].beta(), 0.4);
  // Hungry benefits from the idle tenant's contribution.
  EXPECT_GE(r.tenants[1].beta(), 1.0 - 1e-9);
  // Idle tenant's "performance" is trivially perfect (zero demand).
  EXPECT_NEAR(r.tenants[0].mean_perf(), 1.0, 1e-9);
}

TEST(Integration, SingleTenantClusterIsTriviallyFair) {
  ScenarioConfig config;
  config.workloads = {wl::WorkloadKind::kKernelBuild};
  config.hosts = 1;
  config.seed = 3;
  const Scenario s = build_scenario(config);
  for (const PolicyKind policy : {PolicyKind::kTshirt, PolicyKind::kRrf}) {
    const SimResult r = run_simulation(s, quick(policy));
    ASSERT_EQ(r.tenants.size(), 1u);
    EXPECT_GT(r.tenants[0].mean_perf(), 0.8) << to_string(policy);
  }
}

TEST(Integration, LongHorizonStaysStable) {
  // 3 hours of simulated time: metrics bounded, no drift blow-ups.
  const Scenario s =
      fill_scenario(/*hosts=*/2, wl::paper_workloads(), 1.0, 42);
  EngineConfig config = quick(PolicyKind::kRrfLt, /*duration=*/10800.0);
  const SimResult r = run_simulation(s, config);
  for (const auto& tenant : r.tenants) {
    EXPECT_GT(tenant.beta(), 0.5) << tenant.name();
    EXPECT_LT(tenant.beta(), 1.5) << tenant.name();
    EXPECT_EQ(tenant.windows(), 2160u);
  }
}

}  // namespace
}  // namespace rrf::sim
