// rrf_sim_cli — run RRF (or any baseline) on a configurable scenario from
// the command line.
//
//   rrf_sim_cli --policy rrf --workloads tpcc,rubbos --alpha 1.0
//               --hosts 2 --duration 1200 --window 5 --csv out.csv
//   rrf_sim_cli --policy all --fill        # compare every policy
//
// Run with --help for the full flag list.
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cli_util.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/experiments.hpp"
#include "obs/exposition.hpp"
#include "obs/flightrec.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/ops.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/flight_replay.hpp"
#include "sim/synthetic.hpp"
#include "workload/profile.hpp"
#include "workload/replay.hpp"

namespace {

using namespace rrf;

struct CliOptions {
  std::string policy = "rrf";
  std::vector<wl::WorkloadKind> workloads = wl::paper_workloads();
  double alpha = 1.0;
  std::size_t hosts = 1;
  bool fill = false;
  double duration = 1200.0;
  double window = 5.0;
  std::uint64_t seed = 42;
  bool actuators = true;
  bool oracle = false;
  std::string memory = "balloon";
  std::string csv;
  /// CSV demand traces to replay as extra tenants (repeatable flag).
  std::vector<std::string> replays;
  bool sliced = false;
  /// Synthetic scenario spec "nodes,vms_per_node,tenants[,seed]"; empty =
  /// paper-trace scenario (see --workloads / --fill).
  std::string synthetic;
  /// Observability outputs (empty = the subsystem stays disabled).
  std::string trace_path;
  std::string metrics_path;
  /// Hierarchical profiler output: Chrome trace JSON if the path ends in
  /// .json, collapsed-stack flamegraph text otherwise.
  std::string profile_path;
  /// Flight-recorder output (JSONL); empty = recording off.
  std::string record_path;
  /// Live Prometheus exposition: port to serve /metrics on (-1 = off,
  /// 0 = ephemeral).
  int serve_port = -1;
  /// Full ops plane (adds /rounds, /readyz watchdog, /profile, /incidents);
  /// takes precedence over --serve-metrics when both are given.
  int serve_ops_port = -1;
  /// Seconds to keep serving after the runs finish (CI scrapes / demos).
  double serve_hold = 0.0;
  /// /readyz stall watchdog deadline in seconds (0 disables).
  double stall_deadline = 60.0;
  /// Telemetry journal flags (shared with rrf_alloc_cli, cli_util.hpp).
  tools::JournalCliOptions journal;
  /// Incident bundle root (--incidents-dir); enables the incident engine.
  std::string incidents_dir;
  /// Detector selection ("all", "none" or a comma list); non-empty also
  /// enables the incident engine (in-memory when no --incidents-dir).
  std::string detectors;
  /// Synthetic-scenario provisioning multiplier (--overcommit); > 1 sells
  /// more capacity than the hosts have, the seeded starvation scenario.
  double overcommit = 1.0;
  /// Shard count for the parallel node round (0 = auto).  Results are
  /// bit-identical for any value; this tunes load balance only.
  std::size_t shards = 0;
};

[[noreturn]] void usage(int code) {
  std::cout <<
      "rrf_sim_cli — multi-resource fair-sharing simulator (RRF, SC'14)\n\n"
      "  --policy <name>     tshirt|wmmf|drf|drf-seq|iwa|rrf|rrf-sp|rrf-lt"
      "|all (default rrf)\n"
      "  --workloads <list>  comma list of tpcc,rubbos,kernel,hadoop;\n"
      "                      repeats allowed (default: all four, once)\n"
      "  --alpha <f>         provisioning coefficient (default 1.0)\n"
      "  --hosts <n>         number of paper hosts (default 1; 0 auto-sizes\n"
      "                      the pool, which --fill rejects)\n"
      "  --fill              pack tenants (cycling --workloads) until the\n"
      "                      cluster is full instead of one tenant each\n"
      "  --duration <s>      simulated seconds (default 1200)\n"
      "  --window <s>        allocation period (default 5)\n"
      "  --seed <n>          RNG seed (default 42)\n"
      "  --no-actuators      ideal actuation (no balloon/scheduler model)\n"
      "  --oracle            allocator sees true demand (no predictor)\n"
      "  --memory <b>        balloon|hotplug|cgroup (default balloon)\n"
      "  --replay <path>     add a tenant replaying a CSV demand trace\n"
      "                      (t_seconds,cpu_ghz,ram_gb; repeatable)\n"
      "  --sliced            slice-level credit-scheduler dispatch\n"
      "  --shards <n>        shard count for the parallel node round\n"
      "                      (default 0 = auto-size to the thread pool);\n"
      "                      allocations are bit-identical for any value\n"
      "  --synthetic <spec>  use the synthetic scenario instead of paper\n"
      "                      traces; spec is nodes,vms_per_node,tenants\n"
      "                      with an optional trailing ,seed\n"
      "  --csv <path>        write per-tenant results as CSV\n"
      "  --record <path>     capture a schema-v1 flight recording (JSONL)\n"
      "                      of every allocation round; verify/diff/inspect\n"
      "                      it with rrf_inspect (single policy only)\n"
      "  --trace <path>      record allocation events; writes Chrome trace\n"
      "                      JSON (open in chrome://tracing), or JSONL if\n"
      "                      the path ends in .jsonl\n"
      "  --metrics <path>    write a metrics snapshot (counters + per-phase\n"
      "                      timing histograms); JSON, or CSV if the path\n"
      "                      ends in .csv, or Prometheus text format if it\n"
      "                      ends in .prom\n"
      "  --profile <path>    attach the hierarchical profiler (per-thread\n"
      "                      call trees, pool + lock contention telemetry);\n"
      "                      writes Chrome trace JSON if the path ends in\n"
      "                      .json, collapsed-stack flamegraph text\n"
      "                      otherwise.  Also feeds profile.* gauges into\n"
      "                      --metrics / --serve-metrics output.\n"
      "  --serve-metrics <p> serve the live registry over HTTP on port <p>\n"
      "                      (0 picks an ephemeral port): GET /metrics is\n"
      "                      Prometheus text format, /metrics.json the JSON\n"
      "                      snapshot.  Implies metric collection and the\n"
      "                      fairness auditor.\n"
      "  --serve-ops <p>     serve the full ops plane on port <p> (0 picks\n"
      "                      an ephemeral port): /metrics, /metrics.json,\n"
      "                      /healthz, /readyz (stall watchdog), /rounds\n"
      "                      (streaming NDJSON round feed; follow it live\n"
      "                      with curl or rrf_top), /profile and\n"
      "                      /incidents.\n"
      "                      Implies metric collection and the auditor.\n"
      "  --serve-hold <s>    keep serving <s> seconds after the runs finish\n"
      "                      (default 0; use with --serve-metrics/ops)\n"
      "  --stall-deadline <s> /readyz answers 503 when no round completes\n"
      "                      within <s> seconds (default 60; 0 disables)\n"
      << tools::kJournalFlagsHelp <<
      "  --incidents-dir <d> enable the incident engine (multi-window SLO\n"
      "                      burn-rate + changepoint detectors over the\n"
      "                      round feed) and write one forensic bundle\n"
      "                      directory per incident under <d>; inspect\n"
      "                      with rrf_inspect incident (single policy\n"
      "                      only)\n"
      "  --detectors <list>  detector selection: all, none, or a comma\n"
      "                      list of jain,drift,starvation,throughput,\n"
      "                      changepoint,complaint.  Implies the incident\n"
      "                      engine (in memory when no --incidents-dir)\n"
      "  --overcommit <f>    synthetic scenarios only: provision each VM\n"
      "                      <f>x its honest share (default 1.0); > 1\n"
      "                      oversells capacity so saturated demand\n"
      "                      starves tenants — the seeded incident demo\n"
      "  --help\n";
  std::exit(code);
}

wl::WorkloadKind parse_workload(const std::string& name) {
  if (name == "tpcc") return wl::WorkloadKind::kTpcc;
  if (name == "rubbos") return wl::WorkloadKind::kRubbos;
  if (name == "kernel") return wl::WorkloadKind::kKernelBuild;
  if (name == "hadoop") return wl::WorkloadKind::kHadoop;
  std::cerr << "unknown workload: " << name << "\n";
  usage(2);
}

CliOptions parse(int argc, char** argv) {
  CliOptions options;
  auto next = [&](int& i) -> std::string {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      usage(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // Numeric values parse whole-token: "20junk" or "-1" is an error.
    auto real = [&] { return parse_csv_number(next(i), arg); };
    auto count = [&] { return parse_csv_count(next(i), arg); };
    auto port = [&] { return tools::port_flag(arg, next(i)); };
    try {
      if (arg == "--help" || arg == "-h") usage(0);
      else if (arg == "--policy") options.policy = next(i);
      else if (arg == "--alpha") options.alpha = real();
      else if (arg == "--hosts") options.hosts = count();
      else if (arg == "--fill") options.fill = true;
      else if (arg == "--duration") options.duration = real();
      else if (arg == "--window") options.window = real();
      else if (arg == "--seed") options.seed = count();
      else if (arg == "--no-actuators") options.actuators = false;
      else if (arg == "--oracle") options.oracle = true;
      else if (arg == "--memory") options.memory = next(i);
      else if (arg == "--replay") options.replays.push_back(next(i));
      else if (arg == "--sliced") options.sliced = true;
      else if (arg == "--shards") options.shards = count();
      else if (arg == "--synthetic") options.synthetic = next(i);
      else if (arg == "--csv") options.csv = next(i);
      else if (arg == "--record") options.record_path = next(i);
      else if (arg == "--trace") options.trace_path = next(i);
      else if (arg == "--metrics") options.metrics_path = next(i);
      else if (arg == "--profile") options.profile_path = next(i);
      else if (arg == "--serve-metrics") options.serve_port = port();
      else if (arg == "--serve-ops") options.serve_ops_port = port();
      else if (arg == "--serve-hold") options.serve_hold = real();
      else if (arg == "--stall-deadline") options.stall_deadline = real();
      else if (options.journal.parse_flag(arg, [&] { return next(i); })) {}
      else if (arg == "--incidents-dir") options.incidents_dir = next(i);
      else if (arg == "--detectors") options.detectors = next(i);
      else if (arg == "--overcommit") options.overcommit = real();
      else if (arg == "--workloads") {
        options.workloads.clear();
        std::stringstream ss(next(i));
        std::string token;
        while (std::getline(ss, token, ',')) {
          options.workloads.push_back(parse_workload(token));
        }
      } else {
        std::cerr << "unknown flag: " << arg << "\n";
        usage(2);
      }
    } catch (const DomainError& e) {
      std::cerr << e.what() << "\n";
      usage(2);
    }
  }
  if (options.workloads.empty()) {
    std::cerr << "no workloads given\n";
    usage(2);
  }
  if (!options.record_path.empty() && options.policy == "all") {
    std::cerr << "--record captures one run; pick a single --policy\n";
    usage(2);
  }
  if (options.journal.enabled() && options.policy == "all") {
    std::cerr << "--journal captures one run; pick a single --policy\n";
    usage(2);
  }
  if ((!options.incidents_dir.empty() || !options.detectors.empty()) &&
      options.policy == "all") {
    std::cerr << "incident detection follows one run; pick a single "
                 "--policy\n";
    usage(2);
  }
  if (options.fill && options.hosts == 0) {
    std::cerr << "--fill needs a fixed pool: pass --hosts >= 1\n";
    usage(2);
  }
  if (options.overcommit != 1.0 && options.synthetic.empty()) {
    std::cerr << "--overcommit only applies to --synthetic scenarios\n";
    usage(2);
  }
  return options;
}

sim::SyntheticConfig parse_synthetic(const std::string& spec) {
  std::vector<std::uint64_t> values;
  std::stringstream ss(spec);
  std::string cell;
  try {
    while (std::getline(ss, cell, ',')) {
      values.push_back(parse_csv_count(cell, "--synthetic"));
    }
  } catch (const DomainError& e) {
    std::cerr << e.what() << "\n";
    usage(2);
  }
  if (values.size() < 3 || values.size() > 4) {
    std::cerr << "--synthetic wants nodes,vms_per_node,tenants[,seed]\n";
    usage(2);
  }
  sim::SyntheticConfig config;
  config.nodes = values[0];
  config.vms_per_node = values[1];
  config.tenants = values[2];
  if (values.size() == 4) config.seed = values[3];
  return config;
}

std::unique_ptr<obs::IncidentManager> make_incident_manager(
    const CliOptions& options) {
  if (options.incidents_dir.empty() && options.detectors.empty()) {
    return nullptr;
  }
  obs::IncidentConfig config;
  config.dir = options.incidents_dir;
  if (!options.detectors.empty()) {
    try {
      obs::apply_detector_flag(config.detect, options.detectors);
    } catch (const DomainError& e) {
      std::cerr << e.what() << "\n";
      usage(2);
    }
  }
  return std::make_unique<obs::IncidentManager>(config);
}

void print_incident_summary(const obs::IncidentManager& manager) {
  const std::vector<obs::Incident> incidents = manager.incidents();
  if (incidents.empty()) {
    std::cout << "incidents: none\n";
    return;
  }
  std::cout << "incidents: " << incidents.size() << " opened, "
            << manager.open_count() << " still open\n";
  for (const obs::Incident& incident : incidents) {
    std::cout << "  " << incident.id << " ["
              << obs::to_string(incident.severity) << "] "
              << (incident.open ? "open" : "resolved") << " w"
              << incident.opened_window;
    std::cout << " kinds=";
    for (std::size_t i = 0; i < incident.kinds.size(); ++i) {
      std::cout << (i > 0 ? "+" : "") << incident.kinds[i];
    }
    if (!incident.dir.empty()) std::cout << " bundle=" << incident.dir;
    std::cout << "\n";
  }
}

sim::EngineConfig engine_config(const CliOptions& options) {
  sim::EngineConfig engine;
  engine.duration = options.duration;
  engine.window = options.window;
  engine.use_actuators = options.actuators;
  engine.use_predictor = !options.oracle;
  engine.use_sliced_scheduler = options.sliced;
  engine.shards = options.shards;
  if (options.memory == "balloon") {
    engine.memory_backend = hv::MemoryBackend::kBalloon;
  } else if (options.memory == "hotplug") {
    engine.memory_backend = hv::MemoryBackend::kHotplug;
  } else if (options.memory == "cgroup") {
    engine.memory_backend = hv::MemoryBackend::kCgroup;
  } else {
    std::cerr << "unknown memory backend: " << options.memory << "\n";
    usage(2);
  }
  return engine;
}

int run(const CliOptions& options) {
  const bool serve_ops = options.serve_ops_port >= 0;
  obs::set_tracing_enabled(!options.trace_path.empty());
  obs::set_metrics_enabled(!options.metrics_path.empty() ||
                           options.serve_port >= 0 || serve_ops);
  obs::set_profiling_enabled(!options.profile_path.empty());
  if (obs::profiling_enabled()) obs::set_thread_name("main");

  std::unique_ptr<obs::OpsHub> hub;
  if (serve_ops) hub = std::make_unique<obs::OpsHub>();

  std::unique_ptr<obs::IncidentManager> incidents =
      make_incident_manager(options);

  std::unique_ptr<obs::ExpositionServer> server;
  if (options.serve_port >= 0 || serve_ops) {
    obs::ExpositionServer::Config server_config;
    server_config.port = static_cast<std::uint16_t>(
        serve_ops ? options.serve_ops_port : options.serve_port);
    server_config.ops = hub.get();
    server_config.incidents = incidents.get();
    server_config.stall_deadline_seconds = options.stall_deadline;
    server = std::make_unique<obs::ExpositionServer>(server_config);
    server->start();
  }

  sim::Scenario scenario = [&] {
    if (!options.synthetic.empty()) {
      sim::SyntheticConfig synthetic = parse_synthetic(options.synthetic);
      synthetic.overcommit = options.overcommit;
      return sim::make_synthetic_scenario(synthetic);
    }
    if (options.fill) {
      return sim::fill_scenario(options.hosts, options.workloads,
                                options.alpha, options.seed);
    }
    sim::ScenarioConfig config;
    config.workloads = options.workloads;
    config.alpha = options.alpha;
    config.hosts = options.hosts;
    config.seed = options.seed;
    return sim::build_scenario(config);
  }();
  // Replayed traces become extra single-VM tenants provisioned at their
  // average demand times alpha, placed greedily on the least-loaded host.
  for (const std::string& path : options.replays) {
    auto replay = wl::ReplayWorkload::from_csv_file(path);
    const wl::WorkloadProfile profile =
        wl::profile_workload(*replay, replay->trace_length(), 1.0);
    cluster::TenantSpec tenant;
    tenant.name = replay->name();
    cluster::VmSpec vm;
    vm.name = tenant.name + "/vm0";
    vm.provisioned = profile.average * options.alpha;
    const double peak_cores =
        profile.peak[Resource::kCpu] / wl::kCoreGhz;
    vm.vcpus = std::max<std::size_t>(
        4, static_cast<std::size_t>(std::ceil(peak_cores)));
    tenant.vms.push_back(vm);
    const std::size_t t = scenario.cluster.add_tenant(tenant);
    scenario.workloads.push_back(std::move(replay));
    scenario.host_of.push_back({t % scenario.cluster.hosts().size()});
  }
  if (!scenario.unplaced.empty()) {
    std::cerr << "warning: " << scenario.unplaced.size()
              << " VM(s) did not fit and are excluded\n";
  }

  std::vector<sim::PolicyKind> policies;
  if (options.policy == "all") {
    policies = {sim::PolicyKind::kTshirt, sim::PolicyKind::kWmmf,
                sim::PolicyKind::kDrf,    sim::PolicyKind::kDrfSeq,
                sim::PolicyKind::kIwaOnly, sim::PolicyKind::kRrf,
                sim::PolicyKind::kRrfSp,  sim::PolicyKind::kRrfLt};
  } else {
    policies = {sim::policy_from_string(options.policy)};
  }

  const sim::EngineConfig engine = engine_config(options);

  std::vector<std::vector<std::string>> csv;
  csv.push_back({"policy", "tenant", "beta", "perf"});

  std::ofstream record_out;
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (!options.record_path.empty()) {
    record_out = tools::open_output(options.record_path);
    recorder = std::make_unique<obs::FlightRecorder>(record_out);
  }

  std::unique_ptr<obs::TelemetryJournal> journal;
  if (options.journal.enabled()) {
    obs::TelemetryJournal::Options journal_options =
        options.journal.writer_options();
    journal_options.kind = "sim";
    journal_options.policy = options.policy;
    for (const auto& tenant : scenario.cluster.tenants()) {
      journal_options.tenants.push_back(tenant.name);
    }
    journal = std::make_unique<obs::TelemetryJournal>(
        std::move(journal_options));
  }

  for (const sim::PolicyKind policy : policies) {
    sim::EngineConfig config = engine;
    config.policy = policy;
    if (recorder) {
      recorder->write_header(sim::make_flight_header(scenario, config));
      config.flight = recorder.get();
    }
    config.ops = hub.get();
    config.journal = journal.get();
    config.incidents = incidents.get();
    const sim::SimResult result = sim::run_simulation(scenario, config);

    TextTable table(sim::to_string(policy));
    table.header({"tenant", "beta", "perf", "mean D/S"});
    for (const auto& tenant : result.tenants) {
      table.row({tenant.name(), TextTable::num(tenant.beta(), 3),
                 TextTable::num(tenant.mean_perf(), 3),
                 TextTable::num(mean(tenant.demand_ratio_series()), 3)});
      csv.push_back({sim::to_string(policy), tenant.name(),
                     TextTable::num(tenant.beta(), 6),
                     TextTable::num(tenant.mean_perf(), 6)});
    }
    table.print(std::cout);
    std::cout << "geomeans: beta "
              << TextTable::num(result.fairness_geomean(), 3) << ", perf "
              << TextTable::num(result.perf_geomean(), 3)
              << "; utilization CPU "
              << TextTable::pct(result.mean_utilization[0]) << " RAM "
              << TextTable::pct(result.mean_utilization[1])
              << "; allocator load "
              << TextTable::pct(result.allocator_load(), 4) << "\n";
    std::cout << "\n";
  }

  if (recorder) {
    recorder->finish();
    std::cout << "wrote " << options.record_path << " ("
              << recorder->rounds_recorded() << " rounds, "
              << recorder->bytes_written() << " bytes, "
              << TextTable::num(recorder->record_seconds() * 1e3, 2)
              << " ms record time)\n";
  }
  if (journal) {
    journal->finish();
    std::cout << "wrote " << options.journal.path << " ("
              << journal->rounds_recorded() << " rounds, "
              << journal->incidents_recorded() << " incident transitions, "
              << journal->bytes_written() << " bytes";
    if (journal->segment() > 0) {
      std::cout << ", rotated " << journal->segment() << "x";
    }
    std::cout << ")\n";
  }
  if (incidents) print_incident_summary(*incidents);
  if (!options.csv.empty()) {
    write_csv(options.csv, csv);
    std::cout << "wrote " << options.csv << "\n";
  }
  tools::write_observability_outputs(options.trace_path, options.metrics_path,
                                     options.profile_path);
  if (server) {
    if (options.serve_hold > 0.0) {
      std::cout << "holding /metrics open for " << options.serve_hold
                << "s (port " << server->port() << ")\n";
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options.serve_hold));
    }
    server->stop();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliOptions options = parse(argc, argv);
  try {
    return run(options);
  } catch (const PreconditionError& e) {
    // Values that parse but the scenario builder or the engine rejects
    // (--window 0, --duration below --window, ...) are usage errors too.
    std::cerr << e.what() << "\n";
    usage(2);
  }
}
