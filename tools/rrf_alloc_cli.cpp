// rrf_alloc_cli — run a single allocation round on entities from a CSV.
//
//   rrf_alloc_cli --policy rrf --capacity 2000,2000 entities.csv
//   cat entities.csv | rrf_alloc_cli --policy wmmf --capacity 2000,2000 -
//
// CSV format: name,share_0,...,demand_0,...  (see alloc/entity_io.hpp).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <thread>

#include "alloc/entity_io.hpp"
#include "alloc/factory.hpp"
#include "alloc/flight_capture.hpp"
#include "cli_util.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "obs/exposition.hpp"
#include "obs/flightrec.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/ops.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace {

using namespace rrf;

[[noreturn]] void usage(int code) {
  std::cout <<
      "rrf_alloc_cli — one-shot multi-resource allocation (RRF, SC'14)\n\n"
      "  rrf_alloc_cli [--policy <name>] --capacity <v0,v1,...> <csv|- >\n\n"
      "  --policy    tshirt|wmmf|drf|drf-seq|irt|rrf|rrf-sp (default rrf)\n"
      "  --capacity  pool capacity per resource type, comma separated\n"
      "              (same arity as the CSV's share/demand columns)\n"
      "  --record <path>   capture a schema-v1 flight recording (JSONL) of\n"
      "                    the round, including the IRT Algorithm-1 trace;\n"
      "                    replay/explain it with rrf_inspect\n"
      "  --trace <path>    record allocation events; Chrome trace JSON, or\n"
      "                    JSONL if the path ends in .jsonl\n"
      "  --metrics <path>  write a metrics snapshot; JSON, or CSV/.prom by\n"
      "                    extension (Prometheus text format for .prom)\n"
      "  --profile <path>  attach the hierarchical profiler to the round;\n"
      "                    Chrome trace JSON if the path ends in .json,\n"
      "                    collapsed-stack flamegraph text otherwise\n"
      << tools::kJournalFlagsHelp <<
      "  --serve-ops <p>   serve the ops plane (/metrics, /healthz,\n"
      "                    /readyz, /rounds, /profile) on port\n"
      "                    <p> after the round (0 = ephemeral)\n"
      "  --serve-hold <s>  keep the ops server up <s> seconds (default 5)\n"
      "  <csv>       entity file, or '-' for stdin\n";
  std::exit(code);
}

ResourceVector parse_vector(const std::string& text) {
  std::vector<double> values;
  std::stringstream ss(text);
  std::string cell;
  while (std::getline(ss, cell, ',')) {
    values.push_back(parse_csv_number(cell, "--capacity"));
  }
  if (values.empty()) usage(2);
  return ResourceVector(std::span<const double>(values));
}

}  // namespace

int main(int argc, char** argv) {
  std::string policy_name = "rrf";
  std::string capacity_text;
  std::string input_path;
  std::string record_path;
  std::string trace_path;
  std::string metrics_path;
  std::string profile_path;
  tools::JournalCliOptions journal;
  int serve_ops_port = -1;
  double serve_hold = 5.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(2);
      return argv[++i];
    };
    auto real = [&] { return parse_csv_number(next(), arg); };
    auto port = [&] { return tools::port_flag(arg, next()); };
    try {
      if (arg == "--help" || arg == "-h") usage(0);
      else if (arg == "--policy") policy_name = next();
      else if (arg == "--capacity") capacity_text = next();
      else if (arg == "--record") record_path = next();
      else if (arg == "--trace") trace_path = next();
      else if (arg == "--metrics") metrics_path = next();
      else if (arg == "--profile") profile_path = next();
      else if (journal.parse_flag(arg, next)) {}
      else if (arg == "--serve-ops") serve_ops_port = port();
      else if (arg == "--serve-hold") serve_hold = real();
      else if (input_path.empty()) input_path = arg;
      else usage(2);
    } catch (const DomainError& e) {
      std::cerr << e.what() << "\n";
      usage(2);
    }
  }
  if (capacity_text.empty() || input_path.empty()) usage(2);
  obs::set_tracing_enabled(!trace_path.empty());
  obs::set_metrics_enabled(!metrics_path.empty() || serve_ops_port >= 0);
  obs::set_profiling_enabled(!profile_path.empty());
  if (obs::profiling_enabled()) obs::set_thread_name("main");

  try {
    const ResourceVector capacity = parse_vector(capacity_text);
    std::vector<alloc::AllocationEntity> entities;
    if (input_path == "-") {
      entities = alloc::read_entities_csv(std::cin);
    } else {
      std::ifstream in(input_path);
      if (!in) {
        std::cerr << "cannot open " << input_path << "\n";
        return 1;
      }
      entities = alloc::read_entities_csv(in);
    }
    const alloc::AllocatorPtr policy = alloc::make_allocator(policy_name);
    const alloc::AllocationResult result =
        policy->allocate(capacity, entities);
    std::cout << "policy: " << policy_name << ", capacity "
              << alloc::format_exact(capacity) << "\n"
              << alloc::format_result(entities, result);
    if (!record_path.empty()) {
      // Re-running the (deterministic) policy under a provenance scope
      // yields the same entitlements plus the IRT Algorithm-1 breakdown.
      const obs::FlightRecording recording =
          alloc::capture_alloc_round(policy_name, capacity, entities);
      std::ofstream out = tools::open_output(record_path);
      obs::FlightRecorder recorder(out);
      recorder.write_recording(recording);
      std::cout << "wrote " << record_path << " ("
                << recorder.bytes_written() << " bytes)\n";
    }
    // One-shot ops-plane digest of the round: per-entity share/demand
    // ratios (relative to bought shares) and declared surplus flows.
    if (journal.enabled() || serve_ops_port >= 0) {
      obs::RoundSummary summary;
      summary.slots = entities.size();
      std::vector<double> share_ratio;
      share_ratio.reserve(entities.size());
      for (std::size_t i = 0; i < entities.size(); ++i) {
        const alloc::AllocationEntity& entity = entities[i];
        obs::TenantRoundStat stat;
        stat.name = entity.name;
        const double initial = std::max(1e-12, entity.initial_share.sum());
        stat.share = result.allocations[i].sum() / initial;
        stat.granted = stat.share;  // one-shot round: the grant IS the ledger
        stat.demand = entity.demand.sum() / initial;
        for (std::size_t k = 0; k < entity.initial_share.size(); ++k) {
          const double delta =
              result.allocations[i][k] - entity.initial_share[k];
          (delta >= 0.0 ? stat.gained : stat.contributed) += std::abs(delta);
        }
        share_ratio.push_back(stat.share);
        summary.tenants.push_back(std::move(stat));
      }
      summary.jain = jain_index(share_ratio);  // 1.0 when every share is 0
      std::string line = obs::round_summary_to_json(summary).dump();

      if (journal.enabled()) {
        obs::TelemetryJournal::Options journal_options =
            journal.writer_options();
        journal_options.kind = "alloc";
        journal_options.policy = policy_name;
        for (const alloc::AllocationEntity& entity : entities) {
          journal_options.tenants.push_back(entity.name);
        }
        obs::TelemetryJournal writer(std::move(journal_options));
        writer.record_round(line);
        writer.finish();
        std::cout << "wrote " << journal.path << " ("
                  << writer.bytes_written() << " bytes)\n";
      }
      if (serve_ops_port >= 0) {
        obs::OpsHub hub;
        hub.publish_round(std::move(line));
        obs::ExpositionServer::Config server_config;
        server_config.port = static_cast<std::uint16_t>(serve_ops_port);
        server_config.ops = &hub;
        obs::ExpositionServer server(server_config);
        server.start();
        std::cout << "holding ops plane open for " << serve_hold
                  << "s (port " << server.port() << ")\n";
        std::this_thread::sleep_for(
            std::chrono::duration<double>(serve_hold));
        server.stop();
      }
    }
    tools::write_observability_outputs(trace_path, metrics_path,
                                       profile_path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
