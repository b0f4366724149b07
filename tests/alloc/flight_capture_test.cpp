// One-shot ("alloc" kind) flight capture: the paper's Table II worked IRT
// example recorded, replayed, and explained end-to-end.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "alloc/flight_capture.hpp"
#include "common/error.hpp"
#include "obs/flightrec.hpp"

namespace {

using namespace rrf;

alloc::AllocationEntity entity(ResourceVector share, ResourceVector demand,
                               std::string name) {
  alloc::AllocationEntity e;
  e.initial_share = std::move(share);
  e.demand = std::move(demand);
  e.name = std::move(name);
  return e;
}

/// The paper's Table II scenario, in shares (1 GHz = 100, 1 GB = 200).
std::vector<alloc::AllocationEntity> table2_entities() {
  return {
      entity({500.0, 500.0}, {600.0, 600.0}, "VM1"),
      entity({500.0, 500.0}, {800.0, 200.0}, "VM2"),
      entity({1000.0, 1000.0}, {800.0, 1600.0}, "VM3"),
      entity({1000.0, 1000.0}, {900.0, 1200.0}, "VM4"),
  };
}
const ResourceVector kTable2Capacity{3000.0, 3000.0};

TEST(FlightCapture, TableTwoCaptureHoldsTheIrtBreakdown) {
  const obs::FlightRecording recording = alloc::capture_alloc_round(
      "irt", kTable2Capacity, table2_entities());

  EXPECT_EQ(recording.header.kind, "alloc");
  EXPECT_EQ(recording.header.policy, "irt");
  ASSERT_EQ(recording.rounds.size(), 1u);
  const obs::FlightNode& node = recording.rounds[0].nodes[0];
  ASSERT_EQ(node.slots.size(), 4u);

  // Table II's final allocation.
  EXPECT_TRUE(node.slots[0].entitlement.approx_equal({500.0, 500.0}, 1e-9));
  EXPECT_TRUE(node.slots[1].entitlement.approx_equal({800.0, 200.0}, 1e-9));
  EXPECT_TRUE(node.slots[2].entitlement.approx_equal({800.0, 1200.0}, 1e-9));
  EXPECT_TRUE(node.slots[3].entitlement.approx_equal({900.0, 1100.0}, 1e-9));

  // The provenance hook recorded Algorithm 1's contribution accounting:
  // VM2 banks 300 RAM shares, VM3 200 CPU shares, VM4 100 CPU shares.
  ASSERT_TRUE(node.prov.has_irt);
  ASSERT_EQ(node.prov.irt_lambda.size(), 4u);
  EXPECT_DOUBLE_EQ(node.prov.irt_lambda[0], 0.0);
  EXPECT_DOUBLE_EQ(node.prov.irt_lambda[1], 300.0);
  EXPECT_DOUBLE_EQ(node.prov.irt_lambda[2], 200.0);
  EXPECT_DOUBLE_EQ(node.prov.irt_lambda[3], 100.0);
  EXPECT_EQ(node.tenants, (std::vector<std::size_t>{0, 1, 2, 3}));

  // The memory pass redistributed psi = 300 shares.
  ASSERT_EQ(node.prov.irt_types.size(), 2u);
  EXPECT_NEAR(node.prov.irt_types[1].redistributed, 300.0, 1e-9);
}

TEST(FlightCapture, TableTwoReplaysBitIdentically) {
  const obs::FlightRecording recording = alloc::capture_alloc_round(
      "irt", kTable2Capacity, table2_entities());
  const obs::FlightDiffResult diff = alloc::replay_alloc_recording(recording);
  EXPECT_TRUE(diff.identical) << diff.first_divergence;
  EXPECT_EQ(diff.rounds_compared, 1u);
}

TEST(FlightCapture, TableTwoExplainShowsTheTwoToOneRedistribution) {
  // Acceptance check from the paper: 300 redistributed memory shares split
  // 2:1 between VM3 and VM4 in proportion to their CPU contributions.
  const obs::FlightRecording recording = alloc::capture_alloc_round(
      "irt", kTable2Capacity, table2_entities());

  obs::ExplainQuery query;
  query.round = 0;
  query.tenant = "VM3";
  const std::string vm3 = obs::explain_decision(recording, query);
  EXPECT_NE(vm3.find("Lambda = 200"), std::string::npos) << vm3;
  EXPECT_NE(vm3.find("psi redistributed = 300 shares"), std::string::npos)
      << vm3;
  EXPECT_NE(vm3.find("grant 1200 (+200 vs share"), std::string::npos) << vm3;
  EXPECT_NE(vm3.find("66.6667% of the 300 redistributed"), std::string::npos)
      << vm3;

  query.tenant = "VM4";
  const std::string vm4 = obs::explain_decision(recording, query);
  EXPECT_NE(vm4.find("Lambda = 100"), std::string::npos) << vm4;
  EXPECT_NE(vm4.find("grant 1100 (+100 vs share"), std::string::npos) << vm4;
  EXPECT_NE(vm4.find("33.3333% of the 300 redistributed"), std::string::npos)
      << vm4;

  // Numeric tenant indices resolve too.
  query.tenant = "2";
  EXPECT_EQ(obs::explain_decision(recording, query),
            obs::explain_decision(
                recording, obs::ExplainQuery{0, "VM3", std::nullopt}));
}

TEST(FlightCapture, ReplayRejectsWrongShapes) {
  obs::FlightRecording recording = alloc::capture_alloc_round(
      "irt", kTable2Capacity, table2_entities());
  recording.header.kind = "sim";
  EXPECT_THROW(alloc::replay_alloc_recording(recording), DomainError);

  recording.header.kind = "alloc";
  recording.rounds.push_back(recording.rounds[0]);
  EXPECT_THROW(alloc::replay_alloc_recording(recording), DomainError);
}

}  // namespace
