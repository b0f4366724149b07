// Tests for the long-term RRF extension (rrf-lt): contributions banked in
// earlier windows entitle a tenant to redistribution in later windows,
// relaxing the paper's oblivious-allocation assumption (Section IV).
#include <gtest/gtest.h>

#include "alloc/irt.hpp"
#include "alloc/rrf.hpp"
#include "sim/engine.hpp"

namespace rrf::sim {
namespace {

/// Square-wave workload: alternates between two demand vectors with a
/// fixed period.  Single VM.
class SquareWorkload final : public wl::Workload {
 public:
  SquareWorkload(std::string name, ResourceVector low, ResourceVector high,
                 Seconds period)
      : name_(std::move(name)),
        low_(std::move(low)),
        high_(std::move(high)),
        period_(period) {}

  std::string name() const override { return name_; }
  wl::WorkloadKind kind() const override {
    return wl::WorkloadKind::kKernelBuild;  // irrelevant for these tests
  }
  wl::PerfMetric metric() const override {
    return wl::PerfMetric::kThroughput;
  }
  ResourceVector demand_at(Seconds t) const override {
    const double phase = std::fmod(t, period_);
    return phase < period_ / 2.0 ? low_ : high_;
  }
  std::vector<double> vm_split() const override { return {1.0}; }
  void vm_demands_into(Seconds t,
                       std::span<ResourceVector> out) const override {
    out[0] = demand_at(t);
  }

 private:
  std::string name_;
  ResourceVector low_;
  ResourceVector high_;
  Seconds period_;
};

/// One host <20 GHz, 10 GB>; two tenants with <1000, 1000> shares each.
///
///  * "Cyc" gives 800 CPU shares in its low phase and needs 600 extra RAM
///    shares in its high phase.
///  * "Sink" constantly gives 800 RAM shares and wants 800 extra CPU.
///
/// Under oblivious RRF, Cyc's high-phase RAM need finds it with zero
/// instantaneous contribution (a free rider, by the window's ledger), so
/// it is never repaid for the CPU it donates.  rrf-lt banks the donation.
Scenario cyclic_scenario() {
  cluster::Cluster cl({cluster::HostSpec{"n0", ResourceVector{20.0, 10.0}}},
                      PricingModel::example_default());
  cluster::TenantSpec cyc;
  cyc.name = "Cyc";
  cluster::VmSpec cyc_vm;
  cyc_vm.name = "Cyc/vm0";
  cyc_vm.provisioned = ResourceVector{10.0, 5.0};  // <1000, 1000> shares
  cyc.vms.push_back(cyc_vm);
  cl.add_tenant(cyc);

  cluster::TenantSpec sink;
  sink.name = "Sink";
  cluster::VmSpec sink_vm;
  sink_vm.name = "Sink/vm0";
  sink_vm.provisioned = ResourceVector{10.0, 5.0};
  sink.vms.push_back(sink_vm);
  cl.add_tenant(sink);

  Scenario scenario{std::move(cl), {}, {}, {}};
  scenario.workloads.push_back(std::make_unique<SquareWorkload>(
      "Cyc", /*low=*/ResourceVector{2.0, 5.0},
      /*high=*/ResourceVector{18.0, 8.0}, /*period=*/100.0));
  scenario.workloads.push_back(std::make_unique<SquareWorkload>(
      "Sink", ResourceVector{18.0, 1.0}, ResourceVector{18.0, 1.0}, 100.0));
  scenario.host_of = {{0}, {0}};
  return scenario;
}

EngineConfig pure_engine(PolicyKind policy) {
  EngineConfig config;
  config.policy = policy;
  config.duration = 600.0;
  config.window = 5.0;
  config.use_actuators = false;  // exact algebra, no balloon lag
  config.use_predictor = false;  // oracle demand
  return config;
}

TEST(Ltrf, PolicyRoundTrips) {
  EXPECT_EQ(policy_from_string("rrf-lt"), PolicyKind::kRrfLt);
  EXPECT_EQ(to_string(PolicyKind::kRrfLt), "rrf-lt");
}

TEST(Ltrf, BankRepaysCyclicalContributor) {
  const Scenario scenario = cyclic_scenario();
  const SimResult oblivious =
      run_simulation(scenario, pure_engine(PolicyKind::kRrf));
  const SimResult banked =
      run_simulation(scenario, pure_engine(PolicyKind::kRrfLt));

  // Under oblivious RRF, Cyc donates CPU but is never repaid RAM.
  const double cyc_beta_rrf = oblivious.tenants[0].beta();
  const double cyc_beta_lt = banked.tenants[0].beta();
  EXPECT_LT(cyc_beta_rrf, 0.98);  // it measurably loses asset
  EXPECT_GT(cyc_beta_lt, cyc_beta_rrf + 0.01);  // rrf-lt repays it

  // The repayment also shows up as performance: Cyc's high-phase RAM
  // demand is better satisfied.
  EXPECT_GE(banked.tenants[0].mean_perf(),
            oblivious.tenants[0].mean_perf());
}

TEST(Ltrf, FlatScenarioUnaffected) {
  // With no demand dynamics there is nothing to bank: rrf-lt == rrf.
  cluster::Cluster cl({cluster::HostSpec{"n0", ResourceVector{20.0, 10.0}}},
                      PricingModel::example_default());
  for (const char* name : {"A", "B"}) {
    cluster::TenantSpec tenant;
    tenant.name = name;
    cluster::VmSpec vm;
    vm.provisioned = ResourceVector{10.0, 5.0};
    tenant.vms.push_back(vm);
    cl.add_tenant(tenant);
  }
  Scenario scenario{std::move(cl), {}, {}, {}};
  scenario.workloads.push_back(std::make_unique<SquareWorkload>(
      "A", ResourceVector{8.0, 4.0}, ResourceVector{8.0, 4.0}, 100.0));
  scenario.workloads.push_back(std::make_unique<SquareWorkload>(
      "B", ResourceVector{8.0, 4.0}, ResourceVector{8.0, 4.0}, 100.0));
  scenario.host_of = {{0}, {0}};

  const SimResult a = run_simulation(scenario, pure_engine(PolicyKind::kRrf));
  const SimResult b =
      run_simulation(scenario, pure_engine(PolicyKind::kRrfLt));
  for (std::size_t t = 0; t < 2; ++t) {
    EXPECT_NEAR(a.tenants[t].beta(), b.tenants[t].beta(), 1e-9);
    EXPECT_NEAR(a.tenants[t].mean_perf(), b.tenants[t].mean_perf(), 1e-9);
  }
}

TEST(Ltrf, ValidatesAlpha) {
  const Scenario scenario = cyclic_scenario();
  EngineConfig config = pure_engine(PolicyKind::kRrfLt);
  config.ltrf_alpha = 0.0;
  EXPECT_THROW(run_simulation(scenario, config), PreconditionError);
}

TEST(Ltrf, BankedContributionFlowsThroughAggregate) {
  alloc::TenantGroup group;
  alloc::AllocationEntity vm;
  vm.initial_share = ResourceVector{100.0, 100.0};
  vm.demand = ResourceVector{150.0, 150.0};
  group.vms.push_back(vm);
  group.banked_contribution = 42.0;
  EXPECT_DOUBLE_EQ(group.aggregate().banked_contribution, 42.0);
}

TEST(Ltrf, BankRaisesEffectiveLambda) {
  std::vector<alloc::AllocationEntity> entities(2);
  entities[0].initial_share = ResourceVector{500.0, 500.0};
  entities[0].demand = ResourceVector{700.0, 500.0};  // needs CPU, gives 0
  entities[0].banked_contribution = 300.0;
  entities[1].initial_share = ResourceVector{500.0, 500.0};
  entities[1].demand = ResourceVector{700.0, 500.0};
  entities[1].banked_contribution = -100.0;  // net debtor

  const auto lambda = alloc::IrtAllocator::total_contributions(entities);
  EXPECT_DOUBLE_EQ(lambda[0], 300.0);
  EXPECT_DOUBLE_EQ(lambda[1], 0.0);  // clamped at zero
}

}  // namespace
}  // namespace rrf::sim
