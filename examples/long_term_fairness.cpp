// Long-term fairness: why the paper's oblivious (per-window) allocation
// short-changes cyclical tenants, and how the rrf-lt extension repays them.
//
// Scenario: "Cyc" donates CPU every low phase and needs extra memory every
// high phase; "Sink" constantly donates memory and wants extra CPU.  Under
// oblivious RRF, each window is settled in isolation — when Cyc needs
// memory its *instantaneous* contribution is zero, so it gets nothing.
// rrf-lt banks Cyc's past donations and spends them when needed.
#include <cmath>
#include <iostream>

#include "common/table.hpp"
#include "sim/engine.hpp"

namespace {

using namespace rrf;

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
    return wl::WorkloadKind::kKernelBuild;
  }
  wl::PerfMetric metric() const override {
    return wl::PerfMetric::kThroughput;
  }
  ResourceVector demand_at(Seconds t) const override {
    return std::fmod(t, period_) < period_ / 2.0 ? low_ : high_;
  }
  std::vector<double> vm_split() const override { return {1.0}; }
  void vm_demands_into(Seconds t,
                       std::span<ResourceVector> out) const override {
    out[0] = demand_at(t);
  }

 private:
  std::string name_;
  ResourceVector low_, high_;
  Seconds period_;
};

}  // namespace

int main() {
  // One host <20 GHz, 10 GB>; both tenants own <1000, 1000> shares.
  cluster::Cluster cl({cluster::HostSpec{"n0", ResourceVector{20.0, 10.0}}},
                      PricingModel::example_default());
  for (const char* name : {"Cyc", "Sink"}) {
    cluster::TenantSpec tenant;
    tenant.name = name;
    cluster::VmSpec vm;
    vm.provisioned = ResourceVector{10.0, 5.0};
    tenant.vms.push_back(vm);
    cl.add_tenant(tenant);
  }
  sim::Scenario scenario{std::move(cl), {}, {}, {}};
  scenario.workloads.push_back(std::make_unique<SquareWorkload>(
      "Cyc", ResourceVector{2.0, 5.0}, ResourceVector{18.0, 8.0}, 100.0));
  scenario.workloads.push_back(std::make_unique<SquareWorkload>(
      "Sink", ResourceVector{18.0, 1.0}, ResourceVector{18.0, 1.0}, 100.0));
  scenario.host_of = {{0}, {0}};

  TextTable table("Oblivious RRF vs long-term RRF (20 min, 100 s cycle)");
  table.header({"policy", "Cyc beta", "Cyc perf", "Sink beta",
                "Sink perf"});
  for (const sim::PolicyKind policy :
       {sim::PolicyKind::kRrf, sim::PolicyKind::kRrfLt}) {
    sim::EngineConfig engine;
    engine.policy = policy;
    engine.duration = 1200.0;
    engine.window = 5.0;
    engine.use_actuators = false;
    engine.use_predictor = false;
    const sim::SimResult r = sim::run_simulation(scenario, engine);
    table.row({sim::to_string(policy),
               TextTable::num(r.tenants[0].beta(), 3),
               TextTable::num(r.tenants[0].mean_perf(), 3),
               TextTable::num(r.tenants[1].beta(), 3),
               TextTable::num(r.tenants[1].mean_perf(), 3)});
  }
  table.print(std::cout);

  std::cout <<
      "\nUnder oblivious RRF, Cyc keeps donating CPU but its beta sits\n"
      "well below 1 — the window ledger never remembers.  rrf-lt's\n"
      "contribution bank pays Cyc back in memory exactly when its high\n"
      "phase needs it, pulling both tenants toward beta = 1.\n";
  return 0;
}
