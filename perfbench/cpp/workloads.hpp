// The benchmark's workloads and the closed-loop round runner.
//
// A workload is a scenario construction plus an engine configuration and a set
// of attached obs sinks.  run_loop() drives one sim::run_simulation call
// as a closed loop (one caller; window r+1 starts only after window r has
// returned to the observer) and times every window from outside through
// EngineConfig::observer, checking each snapshot as it arrives.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/scenario.hpp"
#include "util.hpp"

namespace perfbench {

enum class WorkloadId { kSynthAlloc, kPaperOps };

/// Throws std::invalid_argument for an unknown name.
WorkloadId workload_from_name(const std::string& name);
const char* to_string(WorkloadId id);

/// Obs sinks a loop can attach (bit set).
enum Sink : unsigned {
  kSinkMetrics = 1u << 0,    ///< metrics registry + fairness auditor
  kSinkJournal = 1u << 1,    ///< TelemetryJournal to a temporary file
  kSinkOps = 1u << 2,        ///< OpsHub without an HTTP server
  kSinkIncidents = 1u << 3,  ///< in-memory IncidentManager
  kSinkTrace = 1u << 4,      ///< event tracer ring
  kSinkProfiler = 1u << 5,   ///< hierarchical profiler (+ heap counter)
  kSinkFlight = 1u << 6,     ///< FlightRecorder to a temporary file
};

struct NamedSink {
  const char* name;
  Sink sink;
};
/// Every sink, in reporting order.
const std::vector<NamedSink>& all_sinks();

struct WorkloadShape {
  std::size_t rounds{0};  ///< windows per run_simulation call
  unsigned sinks{0};      ///< Sink bits attached in the timed loop
  bool rebalance{false};  ///< live-migration epochs on
};

WorkloadShape shape_of(WorkloadId id);

/// Builds the workload's scenario from the seed.
rrf::sim::Scenario build_scenario(WorkloadId id, std::uint64_t seed);

/// Engine configuration of the shape (no sinks, no observer attached).
rrf::sim::EngineConfig engine_config(const WorkloadShape& shape);

/// VM slots placed in the scenario.
std::size_t placed_slots(const rrf::sim::Scenario& scenario);

struct LoopResult {
  /// Wall time of windows 1..N-1, each measured from the return of the
  /// previous observer callback to the entry of its own.  Window 0 also
  /// carries the engine's construction and is not a steady-state round.
  std::vector<double> round_s;
  /// The same rounds at the gauge's reference speed (run_loop's `gauge`):
  /// each scaled by the gauge sample taken before it.  Empty without one.
  std::vector<double> round_ref_s;
  /// Median gauge factor over the loop's samples (1 without a gauge).
  double setup_factor{1.0};
  /// When window 0's observer callback finished its checks, before its
  /// gauge sample: setup ends here.
  Clock::time_point first_round_start{};
  /// Per-window digest of the snapshot vectors (windows 0..N-1).
  std::vector<std::uint64_t> digests;
  /// Timed rounds whose snapshot failed a check.
  std::size_t failed_rounds{0};
  /// False when any check failed (a window-0 snapshot, the replay).
  bool correct{true};
  std::vector<std::string> problems;
  /// Bytes the durable sinks (flight recording, journal) wrote.
  std::uint64_t log_bytes{0};
  // Replay of the flight recording (run_loop's `replay`).
  bool replayed{false};
  double load_s{0.0};
  double replay_s{0.0};
  std::size_t rounds_replayed{0};
  rrf::sim::SimResult result;
};

/// Per-window digests pinned for one (workload, seed) in the reference
/// file, whose lines read "<workload> <seed> <windows> <hex>...".  Empty
/// when the file has no line for the pair.
std::vector<std::uint64_t> load_reference(const std::filesystem::path& path,
                                          WorkloadId workload,
                                          std::uint64_t seed);

/// Checks per-window digests against a reference sequence: the pinned
/// reference when one is given, else the first sequence checked.  Every
/// run of one scenario must agree with it, whatever the sinks, shard
/// count or tracing.
class DigestCheck {
 public:
  explicit DigestCheck(std::vector<std::uint64_t> reference)
      : reference_(std::move(reference)) {}

  /// Windows of `digests` that differ from the reference over their
  /// common prefix; a sequence longer than the reference extends it.
  std::size_t mismatches(const std::vector<std::uint64_t>& digests);

 private:
  std::vector<std::uint64_t> reference_;
};

/// Correctness over every loop of a run: each timed round is one
/// attempted operation.
struct Tally {
  std::size_t attempted{0};
  std::size_t failed{0};
  bool correct{true};
  std::vector<std::string> problems;

  /// Folds one loop in; a timed window whose digest disagrees with
  /// `digests` fails like a window whose snapshot failed its checks.
  void add(const LoopResult& loop, DigestCheck& digests);
};

/// Runs `rounds` windows of `config` with the `sinks` attached.  Temporary
/// files (journal, flight recording) live under `tmpdir` and are removed
/// before returning.  With a `gauge`, the observer samples it after window
/// 0 and then every 50 ms, outside the timed rounds.
LoopResult run_loop(const rrf::sim::Scenario& scenario,
                    rrf::sim::EngineConfig config, std::size_t rounds,
                    unsigned sinks, bool replay,
                    const std::filesystem::path& tmpdir,
                    SpeedGauge* gauge = nullptr);

}  // namespace perfbench
