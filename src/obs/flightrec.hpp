// Deterministic flight recorder: versioned, schema-checked JSONL capture
// of per-round allocation inputs and decisions (observability subsystem,
// see docs/OBSERVABILITY.md "Provenance & replay").
//
// A recording is a JSONL stream:
//   line 1    — the header: schema/version tag, policy, the scenario
//               (pricing, hosts, tenants/VMs, placement) and an opaque
//               engine-config object owned by the producer;
//   lines 2.. — one compact object per allocation round: per-slot demand /
//               forecast / entitlement / actuator targets, the IRT
//               contribution-lambda breakdown and per-type redistribution,
//               the IWA flows, and any migrations planned that round;
//   last line — an optional trailer with round/byte accounting.
//
// Because common/json serializes doubles in shortest-round-trip form
// (json.cpp::append_number verifies strtod(dump(d)) == d), a recording is
// *bit-exact*: reloading it and re-running the deterministic engine on the
// reconstructed scenario reproduces identical allocations, which
// tools/rrf_inspect's `replay` verb verifies round by round.
//
// FlightRecorder buffers serialized lines and flushes in large writes so
// recording stays off the allocation critical path.  Overhead is exported
// through the metrics registry (flightrec.bytes_written / rounds and the
// flightrec.record_seconds histogram).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/resource_vector.hpp"
#include "obs/provenance.hpp"

namespace rrf::obs {

/// Recording format version this build reads and writes.
inline constexpr int kFlightSchemaVersion = 1;
/// Value of the header's "schema" tag.
inline constexpr const char* kFlightSchemaName = "rrf-flightrec";

struct FlightVm {
  std::string name;
  std::size_t vcpus{4};
  ResourceVector provisioned{0.0, 0.0};  ///< capacity units
  double max_mem_gb{0.0};
  std::size_t host{0};  ///< placement (meaningless for unplaced VMs)
};

struct FlightTenant {
  std::string name;
  std::string metric;  ///< "throughput" | "response-time" | "" (alloc kind)
  std::vector<FlightVm> vms;
};

struct FlightHeader {
  int version{kFlightSchemaVersion};
  std::string kind;    ///< "sim" (engine run) or "alloc" (one-shot round)
  std::string policy;  ///< sharing policy name
  double window{0.0};
  double duration{0.0};
  ResourceVector pricing{0.0, 0.0};  ///< shares per capacity unit
  /// Host capacities — capacity units for "sim", pool shares for "alloc"
  /// (a one-shot round has exactly one pseudo host).
  std::vector<ResourceVector> hosts;
  std::vector<FlightTenant> tenants;
  std::vector<std::pair<std::size_t, std::size_t>> unplaced;
  /// Producer-owned engine configuration (opaque to this layer; the sim
  /// serializes/parses it in sim/flight_replay.cpp).  Null for "alloc".
  json::Value engine;
  /// Build-info stamp of the producing binary (common/build_info.hpp);
  /// null in recordings written before the stamp existed.  Ignored by
  /// diff_recordings — provenance, not allocation state.
  json::Value build;
};

/// One VM slot's inputs and final decision in one round.
struct FlightSlot {
  std::size_t tenant{0};
  std::size_t vm{0};
  ResourceVector share{0.0, 0.0};        ///< initial share (shares)
  ResourceVector demand{0.0, 0.0};       ///< sampled demand (capacity units;
                                         ///  shares for "alloc" recordings)
  ResourceVector forecast{0.0, 0.0};     ///< what the allocator saw (shares)
  ResourceVector entitlement{0.0, 0.0};  ///< final grant incl. surplus pass
  // Actuator targets after apply_shares(); -1 when actuation was off.
  double credit_weight{-1.0};
  double credit_cap{-1.0};   ///< GHz
  double mem_target{-1.0};   ///< GB
  // One-shot ("alloc") entity parameters; 0 when not applicable.
  double weight{0.0};
  double banked{0.0};
};

struct FlightNode {
  std::size_t node{0};
  std::vector<FlightSlot> slots;
  /// The IRT/IWA provenance the allocators captured on this node.  Its
  /// per-group entries (IRT entities, IWA calls) are in group order; the
  /// rebalance fields stay empty.
  ProvenanceRound prov;
  /// Group index -> global tenant id (ascending on engine nodes).
  std::vector<std::size_t> tenants;
};

struct FlightMigration {
  std::size_t tenant{0};
  std::size_t vm{0};
  std::size_t from{0};
  std::size_t to{0};
  double cost_gb{0.0};
};

struct FlightRound {
  std::size_t round{0};
  double time{0.0};
  std::vector<FlightNode> nodes;
  /// Migrations applied at the start of this round (epoch boundaries only).
  std::vector<FlightMigration> migrations;
  std::vector<double> pressure_before;  ///< only when a rebalance ran
  std::vector<double> pressure_after;
};

struct FlightTrailer {
  std::size_t rounds{0};
  std::uint64_t bytes{0};
};

/// A fully loaded recording.
struct FlightRecording {
  FlightHeader header;
  std::vector<FlightRound> rounds;
  std::optional<FlightTrailer> trailer;

  /// Parses a JSONL stream; throws DomainError ("flightrec: ...") on
  /// schema violations (wrong tag/version, missing or mistyped fields).
  static FlightRecording load(std::istream& in);
  static FlightRecording load_file(const std::string& path);
};

// ---- serialization (shared by the recorder, the loader and tests) ----
json::Value flight_header_to_json(const FlightHeader& header);
json::Value flight_round_to_json(const FlightRound& round);
FlightHeader flight_header_from_json(const json::Value& value);
FlightRound flight_round_from_json(const json::Value& value);

/// Streams a recording as JSONL with bounded buffering.
class FlightRecorder {
 public:
  /// `out` is not owned and must outlive the recorder.
  explicit FlightRecorder(std::ostream& out);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Must be called once, before the first record_round().
  void write_header(const FlightHeader& header);
  /// Serializes and buffers one round.  Single-producer: call from one
  /// thread at a time.
  void record_round(const FlightRound& round);
  /// Flushes the buffer and appends the trailer line.  Idempotent; called
  /// by the destructor if the caller forgot.
  void finish();

  std::uint64_t bytes_written() const { return bytes_written_; }
  std::size_t rounds_recorded() const { return rounds_recorded_; }
  /// Wall seconds spent serializing + buffering (the recorder's overhead).
  double record_seconds() const { return record_seconds_; }

  /// Convenience: header + every round + trailer in one call.
  void write_recording(const FlightRecording& recording);

 private:
  void buffer_line(std::string line);
  void flush_buffer();
  void publish_metrics();

  std::ostream& out_;
  std::string buffer_;
  std::uint64_t bytes_written_{0};
  std::size_t rounds_recorded_{0};
  double record_seconds_{0.0};
  bool header_written_{false};
  bool finished_{false};
};

/// Per-tenant absolute entitlement deltas accumulated over the compared
/// rounds (all resource types summed).
struct FlightTenantDelta {
  std::size_t tenant{0};
  std::string name;
  double max_abs{0.0};
  double total_abs{0.0};
};

struct FlightDiffResult {
  bool identical{true};
  std::size_t rounds_compared{0};
  std::optional<std::size_t> first_divergent_round;
  /// Human description of the first diverging field (empty if identical).
  std::string first_divergence;
  /// Header / round-count mismatches and other non-field findings.
  std::vector<std::string> notes;
  std::vector<FlightTenantDelta> tenant_deltas;
};

/// Round-by-round comparison.  `epsilon` is the absolute tolerance per
/// numeric field; 0 demands bit-identical values.
FlightDiffResult diff_recordings(const FlightRecording& a,
                                 const FlightRecording& b,
                                 double epsilon = 0.0);

/// Query for explain_decision(): a round plus a tenant (name from the
/// header, or a numeric index), optionally restricted to one node.
struct ExplainQuery {
  std::size_t round{0};
  std::string tenant;
  std::optional<std::size_t> node;
};

/// Renders the decision chain for one round + tenant: demand → prediction
/// → IRT contribution/gain (with Algorithm 1 line references) → IWA flows
/// → final entitlement and actuator targets.  Throws DomainError when the
/// round or tenant does not exist in the recording.
std::string explain_decision(const FlightRecording& recording,
                             const ExplainQuery& query);

}  // namespace rrf::obs
