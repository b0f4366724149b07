#include "sim/flight_replay.hpp"

#include <set>
#include <sstream>
#include <utility>

#include "alloc/flight_capture.hpp"
#include "common/build_info.hpp"
#include "common/error.hpp"

namespace rrf::sim {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw DomainError("flightrec: " + message);
}

std::string metric_name(wl::PerfMetric metric) {
  switch (metric) {
    case wl::PerfMetric::kThroughput: return "throughput";
    case wl::PerfMetric::kResponseTime: return "response-time";
  }
  return "throughput";
}

wl::PerfMetric metric_from_name(const std::string& name) {
  if (name == "throughput") return wl::PerfMetric::kThroughput;
  if (name == "response-time") return wl::PerfMetric::kResponseTime;
  fail("unknown perf metric '" + name + "'");
}

std::string backend_name(hv::MemoryBackend backend) {
  switch (backend) {
    case hv::MemoryBackend::kBalloon: return "balloon";
    case hv::MemoryBackend::kHotplug: return "hotplug";
    case hv::MemoryBackend::kCgroup: return "cgroup";
  }
  return "balloon";
}

hv::MemoryBackend backend_from_name(const std::string& name) {
  if (name == "balloon") return hv::MemoryBackend::kBalloon;
  if (name == "hotplug") return hv::MemoryBackend::kHotplug;
  if (name == "cgroup") return hv::MemoryBackend::kCgroup;
  fail("unknown memory backend '" + name + "'");
}

/// Workload that replays the per-VM demand table captured in a recording.
/// Demands are keyed by round index (t / window); the intra-tenant jitter
/// the original generator applied is already baked into the table.
class RecordedWorkload final : public wl::Workload {
 public:
  RecordedWorkload(std::string name, wl::PerfMetric metric, double window,
                   std::vector<std::vector<ResourceVector>> table)
      : name_(std::move(name)),
        metric_(metric),
        window_(window),
        table_(std::move(table)) {}

  std::string name() const override { return name_; }
  wl::WorkloadKind kind() const override {
    return wl::WorkloadKind::kKernelBuild;  // unused by the engine
  }
  wl::PerfMetric metric() const override { return metric_; }

  ResourceVector demand_at(Seconds t) const override {
    const std::vector<ResourceVector>& vms = row(t);
    ResourceVector total(vms.empty() ? kDefaultResourceCount
                                     : vms.front().size());
    for (const ResourceVector& d : vms) total += d;
    return total;
  }

  std::vector<double> vm_split() const override {
    const std::size_t n = table_.empty() ? 1 : table_.front().size();
    return std::vector<double>(n, 1.0 / static_cast<double>(n));
  }

  std::vector<ResourceVector> vm_demands_at(Seconds t) const override {
    return row(t);
  }

 private:
  const std::vector<ResourceVector>& row(Seconds t) const {
    RRF_REQUIRE(!table_.empty(), "empty recorded demand table");
    std::size_t round = static_cast<std::size_t>(t / window_ + 0.5);
    round = std::min(round, table_.size() - 1);
    return table_[round];
  }

  std::string name_;
  wl::PerfMetric metric_;
  double window_;
  /// table_[round][vm], in capacity units.
  std::vector<std::vector<ResourceVector>> table_;
};

json::Value engine_to_json(const EngineConfig& config) {
  json::Object predictor;
  predictor.emplace_back("ewma_alpha", config.predictor.ewma_alpha);
  predictor.emplace_back("base_padding", config.predictor.base_padding);
  predictor.emplace_back("max_padding", config.predictor.max_padding);
  predictor.emplace_back("error_window", config.predictor.error_window);
  predictor.emplace_back("enable_periodicity",
                         config.predictor.enable_periodicity);
  predictor.emplace_back("history", config.predictor.history);
  predictor.emplace_back("min_period", config.predictor.min_period);
  predictor.emplace_back("period_confidence",
                         config.predictor.period_confidence);
  predictor.emplace_back("redetect_every", config.predictor.redetect_every);

  json::Object perf;
  perf.emplace_back("mem_penalty_exponent",
                    config.perf.mem_penalty_exponent);
  perf.emplace_back("progress_floor", config.perf.progress_floor);
  perf.emplace_back("latency_saturation_guard",
                    config.perf.latency_saturation_guard);

  json::Object rebalance;
  rebalance.emplace_back("enabled", config.rebalance.enabled);
  rebalance.emplace_back("every_windows", config.rebalance.every_windows);
  rebalance.emplace_back("pressure_gap_threshold",
                         config.rebalance.options.pressure_gap_threshold);
  rebalance.emplace_back("max_migrations",
                         config.rebalance.options.max_migrations);
  rebalance.emplace_back("penalty_windows", config.rebalance.penalty_windows);
  rebalance.emplace_back("slowdown", config.rebalance.slowdown);
  rebalance.emplace_back("demand_ema_alpha",
                         config.rebalance.demand_ema_alpha);

  json::Object out;
  out.emplace_back("use_actuators", config.use_actuators);
  out.emplace_back("memory_backend", backend_name(config.memory_backend));
  out.emplace_back("balloon_rate_gb_s", config.balloon_rate_gb_s);
  out.emplace_back("use_sliced_scheduler", config.use_sliced_scheduler);
  out.emplace_back("use_predictor", config.use_predictor);
  out.emplace_back("predictor", std::move(predictor));
  out.emplace_back("perf", std::move(perf));
  out.emplace_back("ltrf_alpha", config.ltrf_alpha);
  out.emplace_back("parallel_nodes", config.parallel_nodes);
  out.emplace_back("shards", static_cast<double>(config.shards));
  out.emplace_back("rebalance", std::move(rebalance));
  return out;
}

}  // namespace

obs::FlightHeader make_flight_header(const Scenario& scenario,
                                     const EngineConfig& config) {
  const cluster::Cluster& cl = scenario.cluster;
  obs::FlightHeader header;
  header.kind = "sim";
  header.policy = to_string(config.policy);
  header.window = config.window;
  header.duration = config.duration;
  header.pricing = cl.pricing().unit_prices();
  header.hosts.reserve(cl.hosts().size());
  for (const cluster::HostSpec& host : cl.hosts()) {
    header.hosts.push_back(host.capacity);
  }
  const std::set<std::pair<std::size_t, std::size_t>> unplaced(
      scenario.unplaced.begin(), scenario.unplaced.end());
  header.tenants.reserve(cl.tenants().size());
  for (std::size_t t = 0; t < cl.tenants().size(); ++t) {
    const cluster::TenantSpec& spec = cl.tenants()[t];
    obs::FlightTenant tenant;
    tenant.name = spec.name;
    tenant.metric = metric_name(scenario.workloads[t]->metric());
    tenant.vms.reserve(spec.vms.size());
    for (std::size_t j = 0; j < spec.vms.size(); ++j) {
      obs::FlightVm vm;
      vm.name = spec.vms[j].name;
      vm.vcpus = spec.vms[j].vcpus;
      vm.provisioned = spec.vms[j].provisioned;
      vm.max_mem_gb = spec.vms[j].max_mem_gb;
      vm.host = unplaced.contains({t, j}) ? 0 : scenario.host_of[t][j];
      tenant.vms.push_back(std::move(vm));
    }
    header.tenants.push_back(std::move(tenant));
  }
  header.unplaced = scenario.unplaced;
  header.engine = engine_to_json(config);
  header.build = common::build_info_json();
  return header;
}

EngineConfig engine_config_from_recording(
    const obs::FlightRecording& recording) {
  const obs::FlightHeader& header = recording.header;
  if (header.kind != "sim") {
    fail("engine config requested from a '" + header.kind + "' recording");
  }
  const json::Reader engine(header.engine, "flightrec: engine section",
                            "value");

  EngineConfig config;
  config.policy = policy_from_string(header.policy);
  config.window = header.window;
  config.duration = header.duration;
  config.use_actuators = engine.boolean("use_actuators");
  config.memory_backend = backend_from_name(engine.string("memory_backend"));
  config.balloon_rate_gb_s = engine.number("balloon_rate_gb_s");
  config.use_sliced_scheduler = engine.boolean("use_sliced_scheduler");
  config.use_predictor = engine.boolean("use_predictor");
  config.ltrf_alpha = engine.number("ltrf_alpha");
  config.parallel_nodes = engine.boolean("parallel_nodes");
  // Additive in schema v2: recordings made before sharding omit it.
  config.shards = engine.size_or("shards", config.shards);

  const json::Reader predictor = engine.object("predictor");
  config.predictor.ewma_alpha = predictor.number("ewma_alpha");
  config.predictor.base_padding = predictor.number("base_padding");
  config.predictor.max_padding = predictor.number("max_padding");
  config.predictor.error_window = predictor.size("error_window");
  config.predictor.enable_periodicity = predictor.boolean("enable_periodicity");
  config.predictor.history = predictor.size("history");
  config.predictor.min_period = predictor.size("min_period");
  config.predictor.period_confidence = predictor.number("period_confidence");
  config.predictor.redetect_every = predictor.size("redetect_every");

  const json::Reader perf = engine.object("perf");
  config.perf.mem_penalty_exponent = perf.number("mem_penalty_exponent");
  config.perf.progress_floor = perf.number("progress_floor");
  config.perf.latency_saturation_guard =
      perf.number("latency_saturation_guard");

  const json::Reader rebalance = engine.object("rebalance");
  config.rebalance.enabled = rebalance.boolean("enabled");
  config.rebalance.every_windows = rebalance.size("every_windows");
  if (config.rebalance.enabled && config.rebalance.every_windows == 0) {
    rebalance.fail("rebalancing is enabled with every_windows 0");
  }
  config.rebalance.options.pressure_gap_threshold =
      rebalance.number("pressure_gap_threshold");
  config.rebalance.options.max_migrations = rebalance.size("max_migrations");
  config.rebalance.penalty_windows = rebalance.size("penalty_windows");
  config.rebalance.slowdown = rebalance.number("slowdown");
  config.rebalance.demand_ema_alpha = rebalance.number("demand_ema_alpha");
  return config;
}

Scenario scenario_from_recording(const obs::FlightRecording& recording) {
  const obs::FlightHeader& header = recording.header;
  if (header.kind != "sim") {
    fail("scenario requested from a '" + header.kind + "' recording");
  }
  if (recording.rounds.empty()) fail("recording has no rounds to replay");
  for (std::size_t r = 0; r < recording.rounds.size(); ++r) {
    if (recording.rounds[r].round != r) {
      fail("recording rounds are not contiguous (round " +
           std::to_string(recording.rounds[r].round) + " at position " +
           std::to_string(r) + ") — a byte-budget-truncated recording "
           "cannot be replayed");
    }
  }

  std::vector<cluster::HostSpec> hosts;
  hosts.reserve(header.hosts.size());
  for (std::size_t h = 0; h < header.hosts.size(); ++h) {
    hosts.push_back(
        cluster::HostSpec{"node" + std::to_string(h), header.hosts[h]});
  }

  Scenario scenario{
      cluster::Cluster(std::move(hosts), PricingModel(header.pricing)),
      {}, {}, header.unplaced};

  // Per-tenant per-round per-VM demand tables, filled from the rounds.
  const std::size_t rounds = recording.rounds.size();
  std::vector<std::vector<std::vector<ResourceVector>>> tables(
      header.tenants.size());
  for (std::size_t t = 0; t < header.tenants.size(); ++t) {
    tables[t].assign(
        rounds, std::vector<ResourceVector>(
                    header.tenants[t].vms.size(),
                    ResourceVector(header.pricing.size())));
  }
  for (const obs::FlightRound& round : recording.rounds) {
    for (const obs::FlightNode& node : round.nodes) {
      for (const obs::FlightSlot& slot : node.slots) {
        if (slot.tenant >= tables.size() ||
            slot.vm >= tables[slot.tenant][round.round].size()) {
          fail("round " + std::to_string(round.round) +
               " references a slot absent from the header");
        }
        tables[slot.tenant][round.round][slot.vm] = slot.demand;
      }
    }
  }

  for (std::size_t t = 0; t < header.tenants.size(); ++t) {
    const obs::FlightTenant& tenant = header.tenants[t];
    cluster::TenantSpec spec;
    spec.name = tenant.name;
    spec.vms.reserve(tenant.vms.size());
    std::vector<std::size_t> placement;
    placement.reserve(tenant.vms.size());
    for (const obs::FlightVm& vm : tenant.vms) {
      spec.vms.push_back(
          cluster::VmSpec{vm.name, vm.vcpus, vm.provisioned, vm.max_mem_gb});
      placement.push_back(vm.host);
    }
    scenario.cluster.add_tenant(std::move(spec));
    scenario.host_of.push_back(std::move(placement));
    scenario.workloads.push_back(std::make_unique<RecordedWorkload>(
        tenant.name, metric_from_name(tenant.metric), header.window,
        std::move(tables[t])));
  }
  return scenario;
}

ReplayResult replay_recording(const obs::FlightRecording& recording) {
  ReplayResult result;
  if (recording.header.kind == "alloc") {
    result.diff = alloc::replay_alloc_recording(recording);
    result.rounds_replayed = 1;
    return result;
  }

  EngineConfig config = engine_config_from_recording(recording);
  // Replay exactly the recorded horizon — a shorter-than-configured
  // recording (interrupted run) still replays its captured prefix.
  config.duration =
      static_cast<double>(recording.rounds.size()) * config.window;
  Scenario scenario = scenario_from_recording(recording);

  std::ostringstream replayed_stream;
  {
    obs::FlightRecorder recorder(replayed_stream);
    recorder.write_header(make_flight_header(scenario, config));
    config.flight = &recorder;
    run_simulation(scenario, config);
    recorder.finish();
  }
  std::istringstream in(replayed_stream.str());
  const obs::FlightRecording replayed = obs::FlightRecording::load(in);
  result.rounds_replayed = replayed.rounds.size();
  result.diff = obs::diff_recordings(recording, replayed, 0.0);
  return result;
}

}  // namespace rrf::sim
