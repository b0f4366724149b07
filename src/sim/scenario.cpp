#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>

#include "cluster/rebalance.hpp"
#include "common/error.hpp"
#include "workload/profile.hpp"

namespace rrf::sim {

namespace {

std::vector<cluster::HostSpec> make_hosts(std::size_t count) {
  std::vector<cluster::HostSpec> hosts;
  hosts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    hosts.push_back(cluster::paper_host("node" + std::to_string(i)));
  }
  return hosts;
}

/// One tenant ready for placement: its workload, its sized VMs and one
/// placement request per VM.
struct Candidate {
  wl::WorkloadPtr workload;
  cluster::TenantSpec tenant;
  ResourceVector average;  ///< profiled mean demand of the application
  std::vector<cluster::PlacementRequest> requests;
};

/// Instantiates tenant `t` of `config` (its workload seeded by `t`) and
/// sizes its VMs.
Candidate make_candidate(const ScenarioConfig& config, std::size_t t) {
  const Seconds profile_dt = 5.0;
  Candidate c;
  c.workload = wl::make_workload(config.workloads[t],
                                 config.seed + 1000 * (t + 1));
  // Sizing uses 1 Hz profiling so the measured average matches the
  // trace's normalized mean exactly (coarser sampling would mis-size
  // VMs by a fraction of a percent, enough to break an exact packing).
  const wl::WorkloadProfile profile =
      wl::profile_workload(*c.workload, config.profile_duration, 1.0);
  c.average = profile.average;
  c.tenant.name = c.workload->name() + "#" + std::to_string(t);
  const std::vector<double> split = c.workload->vm_split();

  // Per-VM demand series for placement (split of the total profile).
  const std::vector<double> cpu_series = wl::demand_series(
      *c.workload, Resource::kCpu, config.profile_duration, profile_dt);
  const std::vector<double> ram_series = wl::demand_series(
      *c.workload, Resource::kRam, config.profile_duration, profile_dt);

  for (std::size_t j = 0; j < split.size(); ++j) {
    cluster::VmSpec vm;
    vm.name = c.tenant.name + "/vm" + std::to_string(j);
    // The paper configures 4 vCPUs per VM; we add head-room when a VM's
    // peak demand cannot physically fit on 4 cores, so the vCPU ceiling
    // never clips what the credit scheduler was asked to deliver.
    const double peak_cores =
        profile.peak[Resource::kCpu] * split[j] / wl::kCoreGhz;
    vm.vcpus = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::ceil(peak_cores)));
    vm.provisioned = profile.average * (config.alpha * split[j]);
    c.tenant.vms.push_back(vm);

    cluster::PlacementRequest request;
    request.reserved = vm.provisioned;
    request.group = t;
    request.cpu_profile.reserve(cpu_series.size());
    request.ram_profile.reserve(ram_series.size());
    for (std::size_t s = 0; s < cpu_series.size(); ++s) {
      request.cpu_profile.push_back(cpu_series[s] * split[j]);
      request.ram_profile.push_back(ram_series[s] * split[j]);
    }
    c.requests.push_back(std::move(request));
  }
  return c;
}

std::vector<Candidate> make_candidates(const ScenarioConfig& config) {
  std::vector<Candidate> candidates;
  candidates.reserve(config.workloads.size());
  for (std::size_t t = 0; t < config.workloads.size(); ++t) {
    candidates.push_back(make_candidate(config, t));
  }
  return candidates;
}

/// Places every candidate's VMs, in tenant then VM order, on `hosts`.
cluster::PlacementResult place(const std::vector<cluster::HostSpec>& hosts,
                               std::vector<Candidate>& candidates,
                               cluster::PlacementPolicy policy) {
  std::vector<ResourceVector> capacities;
  capacities.reserve(hosts.size());
  for (const auto& h : hosts) capacities.push_back(h.capacity);
  std::vector<cluster::PlacementRequest> requests;
  for (Candidate& c : candidates) {
    for (auto& request : c.requests) requests.push_back(std::move(request));
  }
  return cluster::place_vms(capacities, requests, policy);
}

/// The scenario of the first `count` candidates, whose VMs `placement`
/// lists first (request order).
Scenario assemble(std::vector<cluster::HostSpec> hosts,
                  const PricingModel& pricing,
                  std::vector<Candidate>& candidates, std::size_t count,
                  const cluster::PlacementResult& placement) {
  Scenario scenario{cluster::Cluster(std::move(hosts), pricing), {}, {}, {}};
  scenario.host_of.resize(count);
  std::size_t r = 0;
  for (std::size_t t = 0; t < count; ++t) {
    const std::size_t vms = candidates[t].tenant.vms.size();
    scenario.host_of[t].resize(vms);
    for (std::size_t j = 0; j < vms; ++j, ++r) {
      if (placement.host_of[r]) {
        scenario.host_of[t][j] = *placement.host_of[r];
      } else {
        scenario.host_of[t][j] = 0;  // engine skips unplaced VMs
        scenario.unplaced.emplace_back(t, j);
      }
    }
    scenario.cluster.add_tenant(std::move(candidates[t].tenant));
    scenario.workloads.push_back(std::move(candidates[t].workload));
  }
  return scenario;
}

}  // namespace

Scenario build_scenario(const ScenarioConfig& config) {
  RRF_REQUIRE(!config.workloads.empty(), "scenario needs >= 1 workload");
  RRF_REQUIRE(config.alpha > 0.0, "alpha must be positive");

  std::vector<Candidate> candidates = make_candidates(config);
  std::size_t hosts = config.hosts;
  if (hosts == 0) {
    // Pool scaling: size the bulk reservation so the tenants' aggregate
    // provisioned capacity fits at the target utilization.
    ResourceVector aggregate(kDefaultResourceCount);
    for (const Candidate& c : candidates) {
      aggregate += c.average * config.alpha;
    }
    hosts = cluster::suggest_host_count(
        aggregate, cluster::paper_host().capacity,
        config.autosize_utilization);
  }

  std::vector<cluster::HostSpec> specs = make_hosts(hosts);
  const cluster::PlacementResult placement =
      place(specs, candidates, config.placement);
  RRF_REQUIRE(placement.placed > 0, "nothing could be placed");
  return assemble(std::move(specs), config.pricing, candidates,
                  candidates.size(), placement);
}

Scenario fill_scenario(std::size_t hosts,
                       const std::vector<wl::WorkloadKind>& cycle,
                       double alpha, std::uint64_t seed,
                       std::size_t max_tenants) {
  RRF_REQUIRE(!cycle.empty(), "need at least one workload kind");
  // Auto-sizing (hosts == 0) would size a different pool for every
  // tenant count, so there is no fixed pool to fill.
  RRF_REQUIRE(hosts > 0, "filling needs a fixed pool");
  RRF_REQUIRE(alpha > 0.0, "alpha must be positive");
  ScenarioConfig config;
  config.hosts = hosts;
  config.alpha = alpha;
  config.seed = seed;
  for (std::size_t t = 0; t < std::max<std::size_t>(max_tenants, 1); ++t) {
    config.workloads.push_back(cycle[t % cycle.size()]);
  }

  // The greedy placement is online and order-preserving: placing every
  // candidate at once decides each tenant exactly as a scenario holding
  // only it and its predecessors would.  Keep the tenants before the
  // first one with an unplaced VM.
  std::vector<Candidate> candidates = make_candidates(config);
  std::vector<cluster::HostSpec> specs = make_hosts(hosts);
  const cluster::PlacementResult placement =
      place(specs, candidates, config.placement);
  std::size_t admitted = 0;
  for (std::size_t r = 0; admitted < candidates.size(); ++admitted) {
    const std::size_t end = r + candidates[admitted].tenant.vms.size();
    while (r < end && placement.host_of[r]) ++r;
    if (r < end) break;
  }
  if (admitted == 0) {
    throw DomainError("not even one tenant fits at this alpha");
  }
  return assemble(std::move(specs), config.pricing, candidates, admitted,
                  placement);
}

double peak_alpha(const ScenarioConfig& config) {
  double worst = 1.0;
  for (std::size_t t = 0; t < config.workloads.size(); ++t) {
    wl::WorkloadPtr workload = wl::make_workload(
        config.workloads[t], config.seed + 1000 * (t + 1));
    const wl::WorkloadProfile p =
        wl::profile_workload(*workload, config.profile_duration);
    for (std::size_t k = 0; k < p.average.size(); ++k) {
      if (p.average[k] > 0.0) {
        worst = std::max(worst, p.peak[k] / p.average[k]);
      }
    }
  }
  return worst;
}

}  // namespace rrf::sim
