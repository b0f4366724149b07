// Sim-side glue for the flight recorder (obs/flightrec.hpp): building the
// recording header from a scenario + engine config, reconstructing both
// from a loaded recording, and deterministic replay verification.
//
// The obs layer cannot depend on sim, so the header's "engine" section is
// an opaque JSON object owned by this module: make_flight_header()
// serializes every EngineConfig field that influences allocations, and
// engine_config_from_recording() parses it back.  scenario_from_recording()
// rebuilds the cluster from the header and drives the workloads from the
// *recorded* per-round demands, so replaying the recording through
// run_simulation() re-derives every forecast, entitlement and actuator
// target — bit-identically for every policy, serial or parallel: the
// engine's global exchange merges per-node results in canonical node
// order regardless of shard or thread count.
#pragma once

#include "obs/flightrec.hpp"
#include "sim/engine.hpp"
#include "sim/scenario.hpp"

namespace rrf::sim {

/// Builds the schema-v1 header ("sim" kind) for a run of `scenario` under
/// `config`.  Write it with FlightRecorder::write_header before calling
/// run_simulation with config.flight set.
obs::FlightHeader make_flight_header(const Scenario& scenario,
                                     const EngineConfig& config);

/// Parses the recording's opaque engine section back into an EngineConfig
/// (policy/window/duration come from the header proper).  Throws
/// DomainError on a malformed engine section or an "alloc"-kind recording.
EngineConfig engine_config_from_recording(
    const obs::FlightRecording& recording);

/// Rebuilds the cluster, placement and (recorded-demand) workloads from a
/// "sim" recording.  Requires at least one round and contiguous round
/// indices.
Scenario scenario_from_recording(const obs::FlightRecording& recording);

struct ReplayResult {
  /// Recording-vs-replay comparison; identical == bit-exact replay.
  obs::FlightDiffResult diff;
  std::size_t rounds_replayed{0};
};

/// Re-runs `recording` through the engine (or the one-shot allocation path
/// for "alloc" recordings) capturing a fresh recording, and diffs the two
/// with zero tolerance.
ReplayResult replay_recording(const obs::FlightRecording& recording);

}  // namespace rrf::sim
