#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "obs/flightrec.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/ops.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/flight_replay.hpp"
#include "sim/synthetic.hpp"
#include "workload/workload.hpp"

namespace perfbench {

namespace sim = rrf::sim;
namespace obs = rrf::obs;

WorkloadId workload_from_name(const std::string& name) {
  if (name == "synth-alloc") return WorkloadId::kSynthAlloc;
  if (name == "paper-ops") return WorkloadId::kPaperOps;
  throw std::invalid_argument("unknown workload: " + name);
}

const char* to_string(WorkloadId id) {
  switch (id) {
    case WorkloadId::kSynthAlloc: return "synth-alloc";
    case WorkloadId::kPaperOps: return "paper-ops";
  }
  return "unknown";
}

const std::vector<NamedSink>& all_sinks() {
  static const std::vector<NamedSink> sinks = {
      {"metrics", kSinkMetrics},   {"journal", kSinkJournal},
      {"ops", kSinkOps},           {"incidents", kSinkIncidents},
      {"trace", kSinkTrace},       {"profiler", kSinkProfiler},
      {"flight", kSinkFlight}};
  return sinks;
}

WorkloadShape shape_of(WorkloadId id) {
  WorkloadShape shape;
  switch (id) {
    case WorkloadId::kSynthAlloc:
      shape.rounds = 200;
      break;
    case WorkloadId::kPaperOps:
      // 48 live-migration epochs at the default 60-window period: enough
      // rounds per repetition to outweigh the ~3 s scenario build.
      shape.rounds = 2881;
      shape.sinks = kSinkMetrics | kSinkOps | kSinkJournal | kSinkIncidents;
      shape.rebalance = true;
      break;
  }
  return shape;
}

sim::Scenario build_scenario(WorkloadId id, std::uint64_t seed) {
  if (id == WorkloadId::kPaperOps) {
    // The paper's four applications packed onto 64 hosts by the
    // reverse-skewness grouping until 64 tenants are admitted.
    return sim::fill_scenario(64, rrf::wl::paper_workloads(), 1.0, seed, 64);
  }
  sim::SyntheticConfig config;
  config.nodes = 32;
  config.vms_per_node = 16;
  config.tenants = 16;
  config.seed = seed;
  return sim::make_synthetic_scenario(config);
}

sim::EngineConfig engine_config(const WorkloadShape& shape) {
  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.use_actuators = true;
  config.use_predictor = true;
  // Serial engine on both workloads: on a shared 4-vCPU VM the 4-shard
  // fork-join spread paper-ops' round p95 ~55% across 30 s windows (~6%
  // serial) while gaining under 10%.  The traced run measures 4 shards.
  config.parallel_nodes = false;
  config.rebalance.enabled = shape.rebalance;
  return config;
}

std::size_t placed_slots(const sim::Scenario& scenario) {
  std::size_t slots = 0;
  for (const auto& tenant : scenario.cluster.tenants()) {
    slots += tenant.vms.size();
  }
  return slots - scenario.unplaced.size();
}

std::vector<std::uint64_t> load_reference(const std::filesystem::path& path,
                                          WorkloadId workload,
                                          std::uint64_t seed) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::uint64_t line_seed = 0;
    std::size_t windows = 0;
    if (!(fields >> name >> line_seed >> windows)) continue;
    if (name != to_string(workload) || line_seed != seed) continue;
    std::vector<std::uint64_t> digests;
    std::string hex;
    while (fields >> hex) digests.push_back(std::stoull(hex, nullptr, 16));
    if (digests.size() != windows) {
      throw std::runtime_error("malformed reference line for " + name);
    }
    return digests;
  }
  return {};
}

std::size_t DigestCheck::mismatches(const std::vector<std::uint64_t>& digests) {
  const std::size_t common = std::min(digests.size(), reference_.size());
  std::size_t bad = 0;
  for (std::size_t w = 0; w < common; ++w) {
    if (digests[w] != reference_[w]) ++bad;
  }
  reference_.insert(reference_.end(), digests.begin() + common, digests.end());
  return bad;
}

void Tally::add(const LoopResult& loop, DigestCheck& digests) {
  const std::size_t mismatched = digests.mismatches(loop.digests);
  attempted += loop.round_s.size();
  failed += std::max(loop.failed_rounds,
                     std::min(mismatched, loop.round_s.size()));
  correct = correct && loop.correct && mismatched == 0;
  std::vector<std::string> found = loop.problems;
  if (mismatched > 0) {
    found.push_back(std::to_string(mismatched) +
                    " window digests differ from the reference");
  }
  for (std::string& p : found) {
    if (problems.size() < 8) problems.push_back(std::move(p));
  }
}

namespace {

/// Owns the sinks of one loop and flips the global obs switches; the
/// destructor turns every switch it set back off.
class SinkSet {
 public:
  SinkSet(const sim::Scenario& scenario, sim::EngineConfig& config,
          unsigned sinks, const std::filesystem::path& tmpdir)
      : sinks_(sinks) {
    obs::set_metrics_enabled((sinks & kSinkMetrics) != 0);
    config.audit.enabled = (sinks & kSinkMetrics) != 0;
    obs::set_tracing_enabled((sinks & kSinkTrace) != 0);
    obs::set_profiling_enabled((sinks & kSinkProfiler) != 0);
    if (sinks & kSinkOps) {
      ops_ = std::make_unique<obs::OpsHub>();
      config.ops = ops_.get();
    }
    if (sinks & kSinkIncidents) {
      incidents_ = std::make_unique<obs::IncidentManager>(obs::IncidentConfig{});
      config.incidents = incidents_.get();
    }
    if (sinks & kSinkJournal) {
      journal_path_ = tmpdir / "journal.jsonl";
      obs::TelemetryJournal::Options options;
      options.path = journal_path_.string();
      options.policy = sim::to_string(config.policy);
      for (const auto& tenant : scenario.cluster.tenants()) {
        options.tenants.push_back(tenant.name);
      }
      journal_ = std::make_unique<obs::TelemetryJournal>(std::move(options));
      config.journal = journal_.get();
    }
    if (sinks & kSinkFlight) {
      flight_path_ = tmpdir / "flight.jsonl";
      flight_out_.open(flight_path_);
      if (!flight_out_) {
        throw std::runtime_error("cannot write " + flight_path_.string());
      }
      flight_ = std::make_unique<obs::FlightRecorder>(flight_out_);
      flight_->write_header(sim::make_flight_header(scenario, config));
      config.flight = flight_.get();
    }
  }

  ~SinkSet() {
    flight_.reset();
    flight_out_.close();
    journal_.reset();
    std::error_code ignored;
    if (!flight_path_.empty()) std::filesystem::remove(flight_path_, ignored);
    if (!journal_path_.empty()) {
      std::filesystem::remove(journal_path_, ignored);
      std::filesystem::remove(journal_path_.string() + ".1", ignored);
    }
    if (sinks_ & kSinkTrace) obs::tracer().clear();
    obs::set_metrics_enabled(false);
    obs::set_tracing_enabled(false);
    obs::set_profiling_enabled(false);
  }

  SinkSet(const SinkSet&) = delete;
  SinkSet& operator=(const SinkSet&) = delete;

  /// Finishes the durable sinks; returns the bytes they wrote.
  std::uint64_t finish() {
    std::uint64_t bytes = 0;
    if (journal_) {
      journal_->finish();
      bytes += journal_->bytes_written();
    }
    if (flight_) {
      flight_->finish();
      flight_out_.flush();
      bytes += flight_->bytes_written();
    }
    return bytes;
  }

  const std::filesystem::path& flight_path() const { return flight_path_; }

 private:
  unsigned sinks_;
  std::unique_ptr<obs::OpsHub> ops_;
  std::unique_ptr<obs::IncidentManager> incidents_;
  std::filesystem::path journal_path_;
  std::unique_ptr<obs::TelemetryJournal> journal_;
  std::filesystem::path flight_path_;
  std::ofstream flight_out_;
  std::unique_ptr<obs::FlightRecorder> flight_;
};

bool valid_values(const std::vector<double>& values, std::size_t n) {
  if (values.size() != n) return false;
  for (const double v : values) {
    if (!std::isfinite(v) || v < 0.0) return false;
  }
  return true;
}

}  // namespace

LoopResult run_loop(const sim::Scenario& scenario, sim::EngineConfig config,
                    std::size_t rounds, unsigned sinks, bool replay,
                    const std::filesystem::path& tmpdir, SpeedGauge* gauge) {
  LoopResult out;
  const std::size_t tenants = scenario.cluster.tenants().size();
  // The ledger only moves shares between tenants, so the positions must
  // always sum to the shares the tenants bought.
  double initial_total = 0.0;
  for (std::size_t t = 0; t < tenants; ++t) {
    initial_total += scenario.cluster.tenant_shares(t).sum();
  }

  config.duration = static_cast<double>(rounds) * config.window;
  SinkSet sink_set(scenario, config, sinks, tmpdir);

  out.round_s.reserve(rounds);
  out.digests.reserve(rounds);
  Clock::time_point round_start{};
  std::size_t expected_window = 0;
  std::vector<double> factors;
  config.observer = [&](const sim::WindowSnapshot& snap) {
    const Clock::time_point entered = Clock::now();
    const bool timed = snap.window > 0;
    if (timed) {
      out.round_s.push_back(seconds_between(round_start, entered));
      if (gauge) out.round_ref_s.push_back(out.round_s.back() * gauge->factor());
    }

    std::string problem;
    if (snap.window != expected_window) {
      problem = "window " + std::to_string(snap.window) + " out of order";
    } else if (!valid_values(snap.tenant_position, tenants) ||
               !valid_values(snap.tenant_demand, tenants) ||
               !valid_values(snap.tenant_score, tenants)) {
      problem = "non-finite, negative or missing snapshot value";
    } else {
      double position = 0.0;
      for (const double p : snap.tenant_position) position += p;
      if (std::abs(position - initial_total) > 1e-9 * initial_total) {
        problem = "ledger positions sum to " + std::to_string(position) +
                  ", tenants bought " + std::to_string(initial_total);
      }
    }
    if (!problem.empty()) {
      if (timed) ++out.failed_rounds;
      out.correct = false;
      if (out.problems.size() < 4) {
        out.problems.push_back("window " + std::to_string(snap.window) +
                               ": " + problem);
      }
    }
    ++expected_window;

    Digest digest;
    digest.add(static_cast<std::uint64_t>(snap.window));
    for (const auto* values :
         {&snap.tenant_position, &snap.tenant_demand, &snap.tenant_score}) {
      for (const double v : *values) digest.add(v);
    }
    out.digests.push_back(digest.value());

    // Setup ends before window 0's gauge sample; no round includes one.
    if (!timed) out.first_round_start = Clock::now();
    if (gauge && (!timed || gauge->seconds_since_sample() >= 0.05)) {
      gauge->sample();
      factors.push_back(gauge->factor());
    }
    round_start = Clock::now();
  };

  round_start = Clock::now();
  out.result = sim::run_simulation(scenario, config);
  out.log_bytes = sink_set.finish();
  // Setup runs inside library calls where the gauge cannot sample; the
  // loop's median factor stands for the host speed around it.
  if (!factors.empty()) out.setup_factor = median(factors);
  if (expected_window != rounds) {
    out.correct = false;
    out.problems.push_back("observer saw " + std::to_string(expected_window) +
                           " of " + std::to_string(rounds) + " windows");
  }

  if (replay && (sinks & kSinkFlight)) {
    const Clock::time_point load_start = Clock::now();
    const obs::FlightRecording recording =
        obs::FlightRecording::load_file(sink_set.flight_path().string());
    const Clock::time_point replay_start = Clock::now();
    const sim::ReplayResult replayed = sim::replay_recording(recording);
    out.load_s = seconds_between(load_start, replay_start);
    out.replay_s = seconds_since(replay_start);
    out.replayed = true;
    out.rounds_replayed = replayed.rounds_replayed;
    if (!replayed.diff.identical || replayed.rounds_replayed != rounds) {
      out.correct = false;
      out.failed_rounds = out.round_s.size();
      out.problems.push_back("flight replay not identical: " +
                             replayed.diff.first_divergence);
    }
  }
  return out;
}

}  // namespace perfbench
