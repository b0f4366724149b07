#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>
#include <utility>

#include "alloc/drf.hpp"
#include "alloc/irt.hpp"
#include "alloc/iwa.hpp"
#include "alloc/rrf.hpp"
#include "alloc/wmmf.hpp"
#include "cluster/placement.hpp"
#include "cluster/rebalance.hpp"
#include "common/rng.hpp"
#include "hypervisor/node.hpp"
#include "obs/flightrec.hpp"
#include "obs/profiler.hpp"
#include "sim/flight_replay.hpp"
#include "sim/predictor.hpp"
#include "workload/profile.hpp"

namespace perfbench {

namespace {

namespace alloc = rrf::alloc;
namespace cluster = rrf::cluster;
namespace obs = rrf::obs;
namespace sim = rrf::sim;
using rrf::ResourceVector;

/// Windows captured from the workload as per-layer inputs: short of the
/// first live-migration epoch, so slot membership is fixed throughout.
constexpr std::size_t kCaptureRounds = 24;
/// Windows recorded and replayed for the flight load/replay timings.
constexpr std::size_t kReplayRounds = 60;
/// Round samples behind each p50 the traced run compares.
constexpr std::size_t kLoopSamples = 200;
/// Windows per loop of the shard and sink probes (two rebalance epochs):
/// long workload repetitions would make the flight-sink probe run for
/// minutes on paper-ops.
constexpr std::size_t kProbeRounds = 121;
/// Tenant counts of the kernel size sweep (geometric).
constexpr std::array<std::size_t, 7> kSweepSizes = {16,  32,  64,  128,
                                                    256, 512, 1024};

/// Keeps a result alive so the optimizer cannot drop the call making it.
template <class T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Median wall seconds of one pass, repeating passes until `budget_s`
/// has elapsed and at least `min_passes` ran.
template <class Pass>
double median_pass_s(Pass&& pass, double budget_s, std::size_t min_passes = 5) {
  std::vector<double> samples;
  const Clock::time_point start = Clock::now();
  while (samples.size() < min_passes || seconds_since(start) < budget_s) {
    const Clock::time_point t0 = Clock::now();
    pass();
    samples.push_back(seconds_since(t0));
  }
  return median(samples);
}

/// Heap bytes per call: one pass of `pass` (which makes `calls` calls)
/// under a root profiler frame, read back from the profiler's allocation
/// counter over that frame's whole subtree.
template <class Pass>
double heap_bytes_per_call(const char* site, Pass&& pass, std::size_t calls) {
  obs::set_profiling_enabled(true);
  obs::profile_reset();
  {
    obs::ProfileScope frame(site);
    pass();
  }
  const obs::ProfileSnapshot snapshot = obs::profile_snapshot();
  obs::set_profiling_enabled(false);
  const auto& nodes = snapshot.merged;
  double bytes = 0.0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent != -1 || nodes[i].site != site) continue;
    bytes += static_cast<double>(nodes[i].bytes);
    // Preorder: the subtree is the run of deeper nodes that follows.
    for (std::size_t j = i + 1;
         j < nodes.size() && nodes[j].depth > nodes[i].depth; ++j) {
      bytes += static_cast<double>(nodes[j].bytes);
    }
  }
  return bytes / static_cast<double>(calls);
}

// ---- closed loops ----------------------------------------------------

struct LoopSamples {
  std::vector<double> round_s;
  std::size_t windows{0};
  std::array<double, obs::kPhaseCount> phase_s{};
  std::vector<sim::ShardStats> shards;  ///< of the last loop
  double p50() const { return median(round_s); }
};

/// Repeats run_loop until `min_samples` timed rounds and `budget_s` wall
/// seconds are reached, checking every loop into `tally`.
LoopSamples run_loops(const sim::Scenario& scenario,
                      const sim::EngineConfig& config, std::size_t rounds,
                      unsigned sinks, std::size_t min_samples, double budget_s,
                      const std::filesystem::path& tmpdir, Tally& tally,
                      DigestCheck& digests) {
  LoopSamples out;
  const Clock::time_point start = Clock::now();
  while (out.round_s.size() < min_samples || seconds_since(start) < budget_s) {
    const LoopResult loop =
        run_loop(scenario, config, rounds, sinks, false, tmpdir);
    tally.add(loop, digests);
    out.round_s.insert(out.round_s.end(), loop.round_s.begin(),
                       loop.round_s.end());
    out.windows += rounds;
    for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
      out.phase_s[p] += loop.result.phase_seconds[p];
    }
    out.shards = loop.result.shards;
  }
  return out;
}

// ---- per-round inputs captured from the workload ---------------------

/// One IWA call: a tenant's grant of one resource type split over its VMs.
struct IwaCall {
  double total{0.0};
  std::vector<double> shares;
  std::vector<double> demands;
};

/// Everything one node's allocation and actuation saw in one window.
struct NodeInput {
  std::size_t host{0};
  ResourceVector pool;
  std::vector<alloc::TenantGroup> groups;        ///< RRF input
  std::vector<alloc::AllocationEntity> tenants;  ///< IRT input (aggregates)
  std::vector<alloc::AllocationEntity> flat;     ///< WMMF / DRF input
  std::vector<IwaCall> iwa;
  std::vector<ResourceVector> entitlement;  ///< shares, slot order
  std::vector<ResourceVector> demand;       ///< capacity units, slot order
  std::vector<std::pair<std::size_t, std::size_t>> slots;  ///< (tenant, vm)
};

using Capture = std::vector<std::vector<NodeInput>>;  // [window][node]

NodeInput node_input(const sim::Scenario& scenario,
                     const obs::FlightNode& node) {
  NodeInput in;
  in.host = node.node;
  const std::size_t types = rrf::kDefaultResourceCount;
  ResourceVector sold(types);
  std::vector<std::size_t> tenant_ids;
  for (const obs::FlightSlot& slot : node.slots) {
    sold += slot.share;
    tenant_ids.push_back(slot.tenant);
    alloc::AllocationEntity e;
    e.initial_share = slot.share;
    e.demand = slot.forecast;
    e.weight = slot.share.sum();
    in.flat.push_back(e);
    in.entitlement.push_back(slot.entitlement);
    in.demand.push_back(slot.demand);
    in.slots.emplace_back(slot.tenant, slot.vm);
  }
  // The engine arbitrates the sold shares capped at what the host backs.
  const ResourceVector backed = scenario.cluster.pricing().shares_for(
      scenario.cluster.hosts()[node.node].capacity);
  in.pool = ResourceVector(types);
  for (std::size_t k = 0; k < types; ++k) in.pool[k] = std::min(sold[k], backed[k]);

  // Tenants in ascending id order, each tenant's VMs in slot order.
  std::sort(tenant_ids.begin(), tenant_ids.end());
  tenant_ids.erase(std::unique(tenant_ids.begin(), tenant_ids.end()),
                   tenant_ids.end());
  in.groups.resize(tenant_ids.size());
  for (const obs::FlightSlot& slot : node.slots) {
    const auto g = static_cast<std::size_t>(
        std::lower_bound(tenant_ids.begin(), tenant_ids.end(), slot.tenant) -
        tenant_ids.begin());
    alloc::AllocationEntity e;
    e.initial_share = slot.share;
    e.demand = slot.forecast;
    in.groups[g].vms.push_back(e);
  }
  for (const alloc::TenantGroup& group : in.groups) {
    in.tenants.push_back(group.aggregate());
  }
  const alloc::AllocationResult grants =
      alloc::IrtAllocator{}.allocate(in.pool, in.tenants);
  for (std::size_t g = 0; g < in.groups.size(); ++g) {
    for (std::size_t k = 0; k < types; ++k) {
      IwaCall call;
      call.total = grants.allocations[g][k];
      for (const alloc::AllocationEntity& vm : in.groups[g].vms) {
        call.shares.push_back(vm.initial_share[k]);
        call.demands.push_back(vm.demand[k]);
      }
      in.iwa.push_back(std::move(call));
    }
  }
  return in;
}

/// Records the workload's first windows with the flight recorder (in
/// memory) and turns every node of every window into layer inputs.
Capture capture_inputs(const sim::Scenario& scenario, sim::EngineConfig config) {
  std::stringstream stream;
  {
    obs::FlightRecorder recorder(stream);
    config.duration = static_cast<double>(kCaptureRounds) * config.window;
    recorder.write_header(sim::make_flight_header(scenario, config));
    config.flight = &recorder;
    sim::run_simulation(scenario, config);
    recorder.finish();
  }
  const obs::FlightRecording recording = obs::FlightRecording::load(stream);
  Capture capture;
  for (const obs::FlightRound& round : recording.rounds) {
    std::vector<NodeInput> nodes;
    for (const obs::FlightNode& node : round.nodes) {
      nodes.push_back(node_input(scenario, node));
    }
    capture.push_back(std::move(nodes));
  }
  return capture;
}

std::size_t node_rounds(const Capture& capture) {
  std::size_t n = 0;
  for (const auto& round : capture) n += round.size();
  return n;
}

// ---- kernel size sweep -----------------------------------------------

struct SweepInput {
  ResourceVector capacity;
  std::vector<alloc::AllocationEntity> entities;
  std::vector<double> shares;   ///< resource type 0, for IWA
  std::vector<double> demands;
  double total{0.0};
};

SweepInput sweep_input(std::size_t tenants, std::uint64_t seed) {
  rrf::Rng rng = rrf::Rng(seed).fork(tenants);
  SweepInput in;
  in.capacity = ResourceVector(rrf::kDefaultResourceCount);
  for (std::size_t i = 0; i < tenants; ++i) {
    alloc::AllocationEntity e;
    e.initial_share = ResourceVector(rrf::kDefaultResourceCount);
    e.demand = ResourceVector(rrf::kDefaultResourceCount);
    for (std::size_t k = 0; k < rrf::kDefaultResourceCount; ++k) {
      e.initial_share[k] = rng.uniform(50.0, 150.0);
      e.demand[k] = e.initial_share[k] * rng.uniform(0.2, 1.8);
    }
    e.weight = e.initial_share.sum();
    in.capacity += e.initial_share;
    in.shares.push_back(e.initial_share[0]);
    in.demands.push_back(e.demand[0]);
    in.entities.push_back(std::move(e));
  }
  in.total = in.capacity[0];
  return in;
}

/// Seconds per call of `call` on inputs of each sweep size.
template <class Call>
std::vector<double> sweep(const std::vector<SweepInput>& inputs, Call&& call,
                          double budget_s) {
  std::vector<double> per_call;
  for (const SweepInput& in : inputs) {
    const std::size_t reps = std::max<std::size_t>(1, 2048 / in.entities.size());
    const double pass = median_pass_s(
        [&] {
          for (std::size_t r = 0; r < reps; ++r) call(in);
        },
        budget_s);
    per_call.push_back(pass / static_cast<double>(reps));
  }
  return per_call;
}

// ---- cluster inputs --------------------------------------------------

/// Placement requests for the scenario's final tenant set, built the way
/// build_scenario sizes and profiles them.
std::vector<cluster::PlacementRequest> placement_requests(
    const sim::Scenario& scenario) {
  const rrf::Seconds horizon = 2700.0, dt = 5.0;
  std::vector<cluster::PlacementRequest> requests;
  const auto& tenants = scenario.cluster.tenants();
  for (std::size_t t = 0; t < tenants.size(); ++t) {
    const rrf::wl::Workload& workload = *scenario.workloads[t];
    const std::vector<double> split = workload.vm_split();
    const std::vector<double> cpu =
        rrf::wl::demand_series(workload, rrf::Resource::kCpu, horizon, dt);
    const std::vector<double> ram =
        rrf::wl::demand_series(workload, rrf::Resource::kRam, horizon, dt);
    for (std::size_t j = 0; j < tenants[t].vms.size(); ++j) {
      cluster::PlacementRequest request{.reserved = tenants[t].vms[j].provisioned,
                                        .cpu_profile = {},
                                        .ram_profile = {},
                                        .group = t};
      const double part = j < split.size() ? split[j] : 1.0;
      for (std::size_t s = 0; s < cpu.size(); ++s) {
        request.cpu_profile.push_back(cpu[s] * part);
        request.ram_profile.push_back(ram[s] * part);
      }
      requests.push_back(std::move(request));
    }
  }
  return requests;
}

std::vector<ResourceVector> host_capacities(const sim::Scenario& scenario) {
  std::vector<ResourceVector> capacities;
  for (const auto& host : scenario.cluster.hosts()) {
    capacities.push_back(host.capacity);
  }
  return capacities;
}

}  // namespace

LayerReport measure_layers(WorkloadId workload, std::uint64_t seed,
                           double seconds, const std::filesystem::path& tmpdir,
                           DigestCheck& digests) {
  LayerReport report;
  Tally& tally = report.tally;
  const WorkloadShape shape = shape_of(workload);
  const sim::EngineConfig config = engine_config(shape);
  std::vector<Metric>& m = report.metrics;
  std::vector<Metric> extra;  // bases and sample counts (info only)
  // Wall-time slices of the run, as shares of --seconds.
  const double loop_budget = 0.08 * seconds;
  const double pass_budget = 0.02 * seconds;

  // ---- sim: scenario build (the setup layer) ----
  Clock::time_point t0 = Clock::now();
  const sim::Scenario scenario = build_scenario(workload, seed);
  const double build_s = seconds_since(t0);
  const double window = config.window;

  // ---- the workload itself, untraced and with the profiler on ----
  const LoopSamples base =
      run_loops(scenario, config, shape.rounds, shape.sinks,
                kLoopSamples, loop_budget, tmpdir, tally, digests);
  const LoopSamples traced =
      run_loops(scenario, config, shape.rounds, shape.sinks | kSinkProfiler,
                kLoopSamples, loop_budget, tmpdir, tally, digests);

  // ---- inputs every layer below is fed ----
  const Capture capture = capture_inputs(scenario, config);
  const std::size_t calls = node_rounds(capture);
  const std::size_t tenants = scenario.cluster.tenants().size();

  // ---- workload: per-VM demand generation ----
  auto demands_pass = [&] {
    for (std::size_t w = 0; w < capture.size(); ++w) {
      for (std::size_t t = 0; t < tenants; ++t) {
        keep(scenario.workloads[t]->vm_demands_at(static_cast<double>(w) * window));
      }
    }
  };
  m.push_back({"workload.demands_ms_per_round",
               median_pass_s(demands_pass, pass_budget) * 1e3 /
                   static_cast<double>(capture.size()),
               "ms"});
  extra.push_back({"workload.demands_bytes_per_round",
                   heap_bytes_per_call("perfbench.demands", demands_pass,
                                       capture.size()),
                   "B"});

  // ---- sim: demand predictor, on each slot's captured demand series ----
  {
    std::vector<const ResourceVector*> series;  // [window * slots + slot]
    std::size_t slots = 0;
    for (const auto& round : capture) {
      std::size_t here = 0;
      for (const NodeInput& node : round) {
        for (const ResourceVector& d : node.demand) series.push_back(&d);
        here += node.demand.size();
      }
      slots = here;
    }
    std::vector<sim::DemandPredictor> predictors(
        slots, sim::DemandPredictor(rrf::kDefaultResourceCount, config.predictor));
    const double pass = median_pass_s(
        [&] {
          for (std::size_t w = 0; w < capture.size(); ++w) {
            for (std::size_t i = 0; i < slots; ++i) {
              keep(predictors[i].predict());
              predictors[i].observe(*series[w * slots + i]);
            }
          }
        },
        pass_budget);
    m.push_back({"sim.predictor_us_per_slot",
                 pass * 1e6 / static_cast<double>(capture.size() * slots), "us"});
  }

  // ---- alloc: the node-level kernels on the captured inputs ----
  const alloc::RrfAllocator rrf;
  const alloc::IrtAllocator irt;
  const alloc::WmmfAllocator wmmf;
  const alloc::DrfAllocator drf;
  auto rrf_pass = [&] {
    for (const auto& round : capture) {
      for (const NodeInput& node : round) {
        keep(rrf.allocate_hierarchical(node.pool, node.groups));
      }
    }
  };
  m.push_back({"alloc.rrf_us_per_node",
               median_pass_s(rrf_pass, pass_budget) * 1e6 / static_cast<double>(calls),
               "us"});
  m.push_back({"alloc.rrf_bytes_per_call",
               heap_bytes_per_call("perfbench.rrf", rrf_pass, calls), "B"});

  auto irt_pass = [&] {
    for (const auto& round : capture) {
      for (const NodeInput& node : round) keep(irt.allocate(node.pool, node.tenants));
    }
  };
  m.push_back({"alloc.irt_us_per_call",
               median_pass_s(irt_pass, pass_budget) * 1e6 / static_cast<double>(calls),
               "us"});
  extra.push_back({"alloc.irt_bytes_per_call",
                   heap_bytes_per_call("perfbench.irt", irt_pass, calls), "B"});

  {
    std::size_t iwa_calls = 0, widest = 0;
    for (const auto& round : capture) {
      for (const NodeInput& node : round) {
        iwa_calls += node.iwa.size();
        for (const IwaCall& c : node.iwa) widest = std::max(widest, c.shares.size());
      }
    }
    std::vector<double> out(widest);
    auto iwa_pass = [&] {
      for (const auto& round : capture) {
        for (const NodeInput& node : round) {
          for (const IwaCall& c : node.iwa) {
            keep(alloc::iwa_distribute_into(
                c.total, c.shares, c.demands,
                std::span<double>(out.data(), c.shares.size())));
          }
        }
      }
    };
    m.push_back({"alloc.iwa_us_per_call",
                 median_pass_s(iwa_pass, pass_budget) * 1e6 /
                     static_cast<double>(iwa_calls),
                 "us"});
  }

  auto wmmf_pass = [&] {
    for (const auto& round : capture) {
      for (const NodeInput& node : round) keep(wmmf.allocate(node.pool, node.flat));
    }
  };
  m.push_back({"alloc.wmmf_us_per_call",
               median_pass_s(wmmf_pass, pass_budget) * 1e6 / static_cast<double>(calls),
               "us"});
  extra.push_back({"alloc.wmmf_bytes_per_call",
                   heap_bytes_per_call("perfbench.wmmf", wmmf_pass, calls), "B"});
  auto drf_pass = [&] {
    for (const auto& round : capture) {
      for (const NodeInput& node : round) keep(drf.allocate(node.pool, node.flat));
    }
  };
  m.push_back({"alloc.drf_us_per_call",
               median_pass_s(drf_pass, pass_budget) * 1e6 / static_cast<double>(calls),
               "us"});
  extra.push_back({"alloc.drf_bytes_per_call",
                   heap_bytes_per_call("perfbench.drf", drf_pass, calls), "B"});

  // ---- alloc: kernel size sweep on fixed seeded inputs ----
  {
    std::vector<SweepInput> inputs;
    std::vector<double> sizes;
    for (const std::size_t n : kSweepSizes) {
      inputs.push_back(sweep_input(n, seed));
      sizes.push_back(static_cast<double>(n));
    }
    const double budget = 0.004 * seconds;
    alloc::IrtOptions linear_options;
    linear_options.search = alloc::IrtOptions::Search::kLinear;
    const alloc::IrtAllocator irt_linear(linear_options);
    std::vector<double> iwa_out;
    const std::vector<std::pair<const char*, std::vector<double>>> fits = {
        {"alloc.irt_scaling_exp",
         sweep(inputs, [&](const SweepInput& in) {
           keep(irt.allocate(in.capacity, in.entities)); }, budget)},
        {"alloc.irt_linear_scaling_exp",
         sweep(inputs, [&](const SweepInput& in) {
           keep(irt_linear.allocate(in.capacity, in.entities)); }, budget)},
        {"alloc.iwa_scaling_exp",
         sweep(inputs, [&](const SweepInput& in) {
           iwa_out.resize(in.shares.size());
           keep(alloc::iwa_distribute_into(in.total, in.shares, in.demands, iwa_out));
         }, budget)},
        {"alloc.wmmf_scaling_exp",
         sweep(inputs, [&](const SweepInput& in) {
           keep(wmmf.allocate(in.capacity, in.entities)); }, budget)},
        {"alloc.drf_scaling_exp",
         sweep(inputs, [&](const SweepInput& in) {
           keep(drf.allocate(in.capacity, in.entities)); }, budget)},
    };
    for (const auto& [name, per_call] : fits) {
      m.push_back({name, loglog_slope(sizes, per_call), "exponent"});
      extra.push_back({std::string(name) + ".us_at_" +
                           std::to_string(kSweepSizes.back()),
                       per_call.back() * 1e6, "us"});
    }
  }

  // ---- hypervisor: apply_shares + step per node ----
  {
    std::vector<rrf::hv::HypervisorNode> nodes;
    nodes.reserve(capture.front().size());
    for (const NodeInput& node : capture.front()) {
      rrf::hv::HypervisorNode::Config hv;
      hv.capacity = scenario.cluster.hosts()[node.host].capacity;
      hv.pricing = scenario.cluster.pricing();
      hv.memory_backend = config.memory_backend;
      hv.balloon_rate_gb_s = config.balloon_rate_gb_s;
      hv.use_sliced_scheduler = config.use_sliced_scheduler;
      nodes.emplace_back(hv);
      for (const auto& [t, j] : node.slots) {
        const auto& vm = scenario.cluster.tenants()[t].vms[j];
        nodes.back().add_vm(vm.vcpus, vm.provisioned, vm.max_mem_gb);
      }
    }
    auto step_pass = [&] {
      for (const auto& round : capture) {
        for (std::size_t h = 0; h < round.size(); ++h) {
          nodes[h].apply_shares(round[h].entitlement);
          keep(nodes[h].step(window, round[h].demand));
        }
      }
    };
    m.push_back({"hypervisor.step_us_per_node",
                 median_pass_s(step_pass, pass_budget) * 1e6 /
                     static_cast<double>(calls),
                 "us"});
    extra.push_back({"hypervisor.step_bytes_per_node",
                     heap_bytes_per_call("perfbench.step", step_pass, calls), "B"});
  }

  // ---- cluster: placement of the final tenant set, one rebalance epoch ----
  const std::vector<ResourceVector> capacities = host_capacities(scenario);
  {
    const std::vector<cluster::PlacementRequest> requests =
        placement_requests(scenario);
    m.push_back({"cluster.place_ms",
                 median_pass_s([&] {
                   keep(cluster::place_vms(capacities, requests,
                                           cluster::PlacementPolicy::kReverseSkewness));
                 }, pass_budget, 3) * 1e3,
                 "ms"});
  }
  {
    std::vector<cluster::VmLoad> loads;
    for (const NodeInput& node : capture.front()) {
      for (std::size_t i = 0; i < node.slots.size(); ++i) {
        cluster::VmLoad load;
        load.tenant = node.slots[i].first;
        load.vm = node.slots[i].second;
        load.host = node.host;
        load.reserved =
            scenario.cluster.tenants()[load.tenant].vms[load.vm].provisioned;
        load.demand = ResourceVector(rrf::kDefaultResourceCount);
        loads.push_back(std::move(load));
      }
    }
    // Mean demand over the captured windows (the planner's EMA input).
    for (const auto& round : capture) {
      std::size_t r = 0;
      for (const NodeInput& node : round) {
        for (const ResourceVector& d : node.demand) {
          loads[r++].demand += d * (1.0 / static_cast<double>(capture.size()));
        }
      }
    }
    m.push_back({"cluster.rebalance_ms_per_epoch",
                 median_pass_s([&] {
                   keep(cluster::plan_rebalance(capacities, loads,
                                                config.rebalance.options));
                 }, pass_budget) * 1e3,
                 "ms"});
  }
  m.push_back({"sim.scenario_build_s", build_s, "s"});

  // ---- sim: where each window's time goes (from SimResult) ----
  static constexpr std::array<const char*, obs::kPhaseCount> kPhaseNames = {
      "sim.phase.predict_ms_per_round", "sim.phase.allocate_ms_per_round",
      "sim.phase.actuate_ms_per_round", "sim.phase.settle_ms_per_round"};
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
    m.push_back({kPhaseNames[p],
                 base.phase_s[p] * 1e3 / static_cast<double>(base.windows), "ms"});
  }

  // ---- sim: shard balance and parallel speedup ----
  {
    sim::EngineConfig sharded = config;
    sharded.parallel_nodes = true;
    sharded.shards = 1;
    const LoopSamples one =
        run_loops(scenario, sharded, kProbeRounds, shape.sinks,
                  kLoopSamples, loop_budget / 2, tmpdir, tally, digests);
    sharded.shards = 4;
    const LoopSamples four =
        run_loops(scenario, sharded, kProbeRounds, shape.sinks,
                  kLoopSamples, loop_budget / 2, tmpdir, tally, digests);
    double busiest = 0.0, total = 0.0;
    for (const sim::ShardStats& s : four.shards) {
      busiest = std::max(busiest, s.busy_seconds);
      total += s.busy_seconds;
    }
    m.push_back({"sim.shard_imbalance",
                 busiest * static_cast<double>(four.shards.size()) / total, "ratio"});
    m.push_back({"sim.parallel_speedup", one.p50() / four.p50(), "ratio"});
    extra.push_back({"sim.p50_1_shard_ms", one.p50() * 1e3, "ms"});
    extra.push_back({"sim.p50_4_shards_ms", four.p50() * 1e3, "ms"});
  }

  // ---- obs: each sink's marginal cost on the bare workload ----
  {
    const double budget = 0.03 * seconds;
    const double bare = run_loops(scenario, config, kProbeRounds, 0,
                                  kLoopSamples, budget, tmpdir, tally, digests)
                            .p50();
    extra.push_back({"obs.bare_p50_ms", bare * 1e3, "ms"});
    for (const NamedSink& sink : all_sinks()) {
      const double p50 = run_loops(scenario, config, kProbeRounds,
                                   sink.sink, kLoopSamples, budget, tmpdir,
                                   tally, digests)
                             .p50();
      m.push_back({std::string("obs.") + sink.name + "_cost_ratio", p50 / bare,
                   "ratio"});
    }
  }

  // ---- obs + sim: flight recording load and bit-exact replay ----
  {
    const LoopResult loop =
        run_loop(scenario, config, kReplayRounds, kSinkFlight, true, tmpdir);
    tally.add(loop, digests);
    m.push_back({"obs.flight_load_s", loop.load_s, "s"});
    m.push_back({"sim.replay_run_s", loop.replay_s, "s"});
    extra.push_back({"sim.replay_rounds_per_s",
                     static_cast<double>(loop.rounds_replayed) /
                         (loop.load_s + loop.replay_s),
                     "1/s"});
    extra.push_back({"obs.flight_bytes_per_round",
                     static_cast<double>(loop.log_bytes) / kReplayRounds, "B"});
  }

  m.push_back({"trace_overhead_ratio", traced.p50() / base.p50(), "ratio"});
  extra.push_back({"untraced_p50_ms", base.p50() * 1e3, "ms"});
  extra.push_back({"traced_p50_ms", traced.p50() * 1e3, "ms"});
  extra.push_back({"capture_node_rounds", static_cast<double>(calls), "count"});

  report.info = m;
  report.info.insert(report.info.end(), extra.begin(), extra.end());
  return report;
}

}  // namespace perfbench
