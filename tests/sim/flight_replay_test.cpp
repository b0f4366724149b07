// End-to-end flight-recorder tests: record a simulation, reload the
// recording, replay it through the engine and demand bit-identical
// allocations — plus the guard that attaching a recorder does not perturb
// the allocations themselves.
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/flightrec.hpp"
#include "sim/flight_replay.hpp"
#include "sim/synthetic.hpp"

namespace {

using namespace rrf;

sim::Scenario pinned_cell(std::size_t nodes, std::size_t vms,
                          std::size_t tenants) {
  sim::SyntheticConfig syn;
  syn.nodes = nodes;
  syn.vms_per_node = vms;
  syn.tenants = tenants;
  syn.seed = 42;
  return sim::make_synthetic_scenario(syn);
}

obs::FlightRecording record_run(const sim::Scenario& scenario,
                                sim::EngineConfig config) {
  std::ostringstream out;
  obs::FlightRecorder recorder(out);
  recorder.write_header(sim::make_flight_header(scenario, config));
  config.flight = &recorder;
  sim::run_simulation(scenario, config);
  recorder.finish();
  std::istringstream in(out.str());
  return obs::FlightRecording::load(in);
}

TEST(FlightReplay, PinnedRrfCellReplaysBitIdentically) {
  // The pinned RRF cell shape (32 nodes x 16 VMs x 16 tenants), shortened
  // to five rounds to keep the test quick.
  const sim::Scenario scenario = pinned_cell(32, 16, 16);
  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.window = 5.0;
  config.duration = 25.0;
  config.audit.enabled = false;

  const obs::FlightRecording recording = record_run(scenario, config);
  ASSERT_EQ(recording.rounds.size(), 5u);

  const sim::ReplayResult replay = sim::replay_recording(recording);
  EXPECT_EQ(replay.rounds_replayed, 5u);
  EXPECT_TRUE(replay.diff.identical)
      << replay.diff.first_divergence
      << (replay.diff.notes.empty() ? "" : " / " + replay.diff.notes[0]);
}

TEST(FlightReplay, EveryPolicyReplaysBitIdentically) {
  const sim::Scenario scenario = pinned_cell(2, 6, 3);
  for (const sim::PolicyKind policy :
       {sim::PolicyKind::kTshirt, sim::PolicyKind::kWmmf,
        sim::PolicyKind::kDrf, sim::PolicyKind::kIwaOnly,
        sim::PolicyKind::kRrf, sim::PolicyKind::kRrfSp}) {
    sim::EngineConfig config;
    config.policy = policy;
    config.window = 5.0;
    config.duration = 20.0;
    config.audit.enabled = false;

    const obs::FlightRecording recording = record_run(scenario, config);
    const sim::ReplayResult replay = sim::replay_recording(recording);
    EXPECT_TRUE(replay.diff.identical)
        << sim::to_string(policy) << ": " << replay.diff.first_divergence;
  }
}

TEST(FlightReplay, ActuatorTargetsAndMigrationsSurviveTheRoundTrip) {
  const sim::Scenario scenario = pinned_cell(3, 6, 4);
  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.window = 5.0;
  config.duration = 40.0;
  config.use_actuators = true;
  config.rebalance.enabled = true;
  config.rebalance.every_windows = 2;
  config.audit.enabled = false;

  const obs::FlightRecording recording = record_run(scenario, config);
  bool saw_actuator = false;
  for (const obs::FlightRound& round : recording.rounds) {
    for (const obs::FlightNode& node : round.nodes) {
      for (const obs::FlightSlot& slot : node.slots) {
        if (slot.credit_weight >= 0.0) {
          saw_actuator = true;
          EXPECT_GE(slot.credit_cap, 0.0);
          EXPECT_GE(slot.mem_target, 0.0);
        }
      }
    }
  }
  EXPECT_TRUE(saw_actuator);

  const sim::ReplayResult replay = sim::replay_recording(recording);
  EXPECT_TRUE(replay.diff.identical) << replay.diff.first_divergence;
}

TEST(FlightReplay, RecorderAttachmentDoesNotPerturbAllocations) {
  // The golden guard for the hot path: running with a recorder attached
  // must produce bit-identical ledger positions to running without one.
  const sim::Scenario scenario = pinned_cell(3, 5, 4);
  auto positions = [&](bool attach) {
    sim::EngineConfig config;
    config.policy = sim::PolicyKind::kRrf;
    config.window = 5.0;
    config.duration = 30.0;
    config.parallel_nodes = false;  // deterministic aggregation order
    config.audit.enabled = false;
    std::vector<double> out;
    config.observer = [&](const sim::WindowSnapshot& snapshot) {
      out.insert(out.end(), snapshot.tenant_position.begin(),
                 snapshot.tenant_position.end());
    };
    std::ostringstream sink;
    obs::FlightRecorder recorder(sink);
    if (attach) {
      recorder.write_header(sim::make_flight_header(scenario, config));
      config.flight = &recorder;
    }
    sim::run_simulation(scenario, config);
    return out;
  };

  const std::vector<double> detached = positions(false);
  const std::vector<double> attached = positions(true);
  ASSERT_EQ(detached.size(), attached.size());
  ASSERT_FALSE(detached.empty());
  for (std::size_t i = 0; i < detached.size(); ++i) {
    EXPECT_EQ(detached[i], attached[i]) << "position #" << i;
  }
}

TEST(FlightReplay, TruncatedRecordingsAreRefused) {
  const sim::Scenario scenario = pinned_cell(2, 4, 2);
  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.window = 5.0;
  config.duration = 20.0;
  config.audit.enabled = false;

  obs::FlightRecording recording = record_run(scenario, config);
  ASSERT_GE(recording.rounds.size(), 3u);
  // Dropping a middle round (a hand-edited file) breaks contiguity.
  recording.rounds.erase(recording.rounds.begin() + 1);
  recording.trailer.reset();
  EXPECT_THROW(sim::replay_recording(recording), DomainError);
}

/// A recording of a small cell whose header line carries one edit, as a
/// hand-edited or corrupted file would.
std::string recording_with_header_edit(const std::string& from,
                                       const std::string& to) {
  const sim::Scenario scenario = pinned_cell(2, 4, 2);
  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.window = 5.0;
  config.duration = 10.0;
  config.audit.enabled = false;
  std::ostringstream out;
  {
    obs::FlightRecorder recorder(out);
    recorder.write_header(sim::make_flight_header(scenario, config));
    config.flight = &recorder;
    sim::run_simulation(scenario, config);
    recorder.finish();
  }
  std::string text = out.str();
  const std::size_t at = text.find(from);
  EXPECT_LT(at, text.find('\n')) << "header has no " << from;
  if (at < text.find('\n')) text.replace(at, from.size(), to);
  return text;
}

TEST(FlightReplay, OutOfRangeEngineAndPlacementFieldsAreRefused) {
  const std::pair<std::string, std::string> edits[] = {
      // A rebalance period of 0 windows would divide by zero in the engine.
      {R"("enabled":false,"every_windows":60)",
       R"("enabled":true,"every_windows":0)"},
      // Negative counts and indices must not be cast to size_t.
      {R"("history":256)", R"("history":-1)"},
      {R"("unplaced":[])", R"("unplaced":[[-1,7]])"},
  };
  for (const auto& [from, to] : edits) {
    const std::string text = recording_with_header_edit(from, to);
    EXPECT_THROW(
        {
          std::istringstream in(text);
          sim::replay_recording(obs::FlightRecording::load(in));
        },
        DomainError)
        << to;
  }
}

TEST(FlightReplay, ExplainRendersTheSimDecisionChain) {
  const sim::Scenario scenario = pinned_cell(2, 4, 2);
  sim::EngineConfig config;
  config.policy = sim::PolicyKind::kRrf;
  config.window = 5.0;
  config.duration = 20.0;
  config.audit.enabled = false;

  const obs::FlightRecording recording = record_run(scenario, config);
  obs::ExplainQuery query;
  query.round = 1;
  query.tenant = recording.header.tenants[0].name;
  const std::string text = obs::explain_decision(recording, query);
  EXPECT_NE(text.find("round 1"), std::string::npos);
  EXPECT_NE(text.find(recording.header.tenants[0].name), std::string::npos);
  EXPECT_NE(text.find("demand"), std::string::npos);
  EXPECT_NE(text.find("[final entitlement]"), std::string::npos);

  obs::ExplainQuery missing;
  missing.round = 9999;
  missing.tenant = query.tenant;
  EXPECT_THROW(obs::explain_decision(recording, missing), DomainError);
  obs::ExplainQuery unknown;
  unknown.round = 0;
  unknown.tenant = "no-such-tenant";
  EXPECT_THROW(obs::explain_decision(recording, unknown), DomainError);
}

}  // namespace
