#include "obs/flightrec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/provenance.hpp"

namespace rrf::obs {
namespace {

FlightHeader make_header() {
  FlightHeader header;
  header.kind = "sim";
  header.policy = "rrf";
  header.window = 5.0;
  header.duration = 20.0;
  header.pricing = ResourceVector{100.0, 200.0};
  header.hosts = {ResourceVector{30.0, 15.0}, ResourceVector{30.0, 15.0}};
  FlightTenant tenant;
  tenant.name = "acme";
  tenant.metric = "throughput";
  FlightVm vm;
  vm.name = "acme-vm0";
  vm.vcpus = 4;
  vm.provisioned = ResourceVector{10.0, 5.0};
  vm.max_mem_gb = 15.0;
  vm.host = 1;
  tenant.vms.push_back(vm);
  header.tenants.push_back(tenant);
  return header;
}

FlightRound make_round(std::size_t index) {
  FlightRound round;
  round.round = index;
  round.time = static_cast<double>(index) * 5.0;
  FlightNode node;
  node.node = 1;
  FlightSlot slot;
  slot.tenant = 0;
  slot.vm = 0;
  slot.share = ResourceVector{1000.0, 1000.0};
  // Awkward doubles on purpose: the round-trip must be bit-exact.
  slot.demand = ResourceVector{0.1 + static_cast<double>(index), 1.0 / 3.0};
  slot.forecast = ResourceVector{0.30000000000000004, 1e-17};
  slot.entitlement = ResourceVector{999.9999999999999, 1234.5};
  slot.credit_weight = 512.000000001;
  slot.credit_cap = 7.598249999999999;
  slot.mem_target = 2.5875;
  node.slots.push_back(slot);
  // The node keeps the allocators' provenance as captured; group 0 is
  // tenant 0.
  ProvenanceRound& prov = node.prov;
  prov.has_irt = true;
  prov.irt_lambda = {300.0};
  prov.irt_share = {ResourceVector{1000.0, 1000.0}};
  prov.irt_demand = {ResourceVector{800.0, 1600.0}};
  prov.irt_grant = {ResourceVector{800.0, 1200.0}};
  prov.irt_types.push_back(ProvenanceIrtType{2, 1, 300.0});
  prov.iwa.push_back(ProvenanceIwa{{ResourceVector{800.0, 1200.0}},
                                   ResourceVector{0.0, 0.0}});
  node.tenants = {0};
  round.nodes.push_back(node);
  if (index == 1) {
    round.migrations.push_back(FlightMigration{0, 0, 1, 0, 3.25});
    round.pressure_before = {0.9, 0.4};
    round.pressure_after = {0.7, 0.6};
  }
  return round;
}

TEST(Flightrec, RecorderStreamRoundTripsBitExact) {
  std::ostringstream out;
  {
    FlightRecorder recorder(out);
    recorder.write_header(make_header());
    recorder.record_round(make_round(0));
    recorder.record_round(make_round(1));
    recorder.finish();
    EXPECT_EQ(recorder.rounds_recorded(), 2u);
    EXPECT_GT(recorder.bytes_written(), 0u);
  }

  std::istringstream in(out.str());
  const FlightRecording recording = FlightRecording::load(in);
  EXPECT_EQ(recording.header.kind, "sim");
  EXPECT_EQ(recording.header.policy, "rrf");
  EXPECT_EQ(recording.header.tenants.size(), 1u);
  EXPECT_EQ(recording.header.tenants[0].vms[0].host, 1u);
  ASSERT_EQ(recording.rounds.size(), 2u);
  ASSERT_TRUE(recording.trailer.has_value());
  EXPECT_EQ(recording.trailer->rounds, 2u);

  const FlightSlot& slot = recording.rounds[0].nodes[0].slots[0];
  const FlightSlot& expected = make_round(0).nodes[0].slots[0];
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_EQ(slot.demand[k], expected.demand[k]);
    EXPECT_EQ(slot.forecast[k], expected.forecast[k]);
    EXPECT_EQ(slot.entitlement[k], expected.entitlement[k]);
  }
  EXPECT_EQ(slot.credit_weight, expected.credit_weight);
  EXPECT_EQ(slot.credit_cap, expected.credit_cap);
  EXPECT_EQ(slot.mem_target, expected.mem_target);

  const FlightNode& node = recording.rounds[0].nodes[0];
  EXPECT_EQ(node.tenants, (std::vector<std::size_t>{0}));
  ASSERT_TRUE(node.prov.has_irt);
  EXPECT_EQ(node.prov.irt_lambda, (std::vector<double>{300.0}));
  EXPECT_EQ(node.prov.irt_demand[0][1], 1600.0);
  ASSERT_EQ(node.prov.irt_types.size(), 1u);
  EXPECT_EQ(node.prov.irt_types[0].redistributed, 300.0);
  ASSERT_EQ(node.prov.iwa.size(), 1u);
  EXPECT_EQ(node.prov.iwa[0].vm_grant[0][1], 1200.0);

  ASSERT_EQ(recording.rounds[1].migrations.size(), 1u);
  EXPECT_EQ(recording.rounds[1].migrations[0].cost_gb, 3.25);
  EXPECT_EQ(recording.rounds[1].pressure_before,
            (std::vector<double>{0.9, 0.4}));

  // A loaded recording re-serializes to the identical byte stream.
  std::ostringstream out2;
  {
    FlightRecorder recorder(out2);
    recorder.write_recording(recording);
  }
  EXPECT_EQ(out.str(), out2.str());
}

TEST(Flightrec, LoadRejectsSchemaViolations) {
  std::ostringstream out;
  {
    FlightRecorder recorder(out);
    recorder.write_header(make_header());
    recorder.record_round(make_round(0));
    recorder.finish();
  }
  const std::string good = out.str();

  auto expect_load_error = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(FlightRecording::load(in), DomainError) << text;
  };

  // Wrong schema tag.
  std::string bad = good;
  bad.replace(bad.find("rrf-flightrec"), 13, "bogus-flightre");
  expect_load_error(bad);

  // Unsupported version.
  bad = good;
  bad.replace(bad.find("\"version\":1"), 11, "\"version\":9");
  expect_load_error(bad);

  // Unknown kind.
  bad = good;
  bad.replace(bad.find("\"kind\":\"sim\""), 12, "\"kind\":\"xim\"");
  expect_load_error(bad);

  // Mistyped field (string where a number is required).
  bad = good;
  bad.replace(bad.find("\"window\":5"), 10, "\"window\":\"\"");
  expect_load_error(bad);

  // Data after the trailer.
  expect_load_error(good + "{\"round\":1}\n");

  // An IWA entry naming another tenant than its group's IRT entry.
  bad = good;
  bad.replace(bad.find(R"("iwa":[{"t":0)"), 13, R"("iwa":[{"t":5)");
  expect_load_error(bad);

  // Trailer round count disagreeing with the stream.
  bad = good;
  bad.replace(bad.find("\"trailer\":{\"rounds\":1"), 21,
              "\"trailer\":{\"rounds\":7");
  expect_load_error(bad);

  // Empty stream.
  expect_load_error("");

  // A trailer written when it still counted dropped rounds keeps loading.
  std::string old_trailer = good;
  old_trailer.replace(old_trailer.find("\"trailer\":{\"rounds\":1"), 21,
                      "\"trailer\":{\"rounds\":1,\"dropped\":0");
  std::istringstream in(old_trailer);
  const FlightRecording loaded = FlightRecording::load(in);
  EXPECT_EQ(loaded.rounds.size(), 1u);
  ASSERT_TRUE(loaded.trailer.has_value());
  EXPECT_EQ(loaded.trailer->rounds, 1u);
}

TEST(Flightrec, DiffReportsFirstDivergenceAndTenantDeltas) {
  FlightRecording a;
  a.header = make_header();
  a.rounds = {make_round(0), make_round(1)};

  FlightRecording b = a;
  EXPECT_TRUE(diff_recordings(a, b).identical);

  // Perturb round 1's entitlement by 0.5 shares.
  b.rounds[1].nodes[0].slots[0].entitlement[0] += 0.5;
  const FlightDiffResult diff = diff_recordings(a, b);
  EXPECT_FALSE(diff.identical);
  ASSERT_TRUE(diff.first_divergent_round.has_value());
  EXPECT_EQ(*diff.first_divergent_round, 1u);
  EXPECT_NE(diff.first_divergence.find("entitlement"), std::string::npos);
  ASSERT_EQ(diff.tenant_deltas.size(), 1u);
  EXPECT_EQ(diff.tenant_deltas[0].name, "acme");
  EXPECT_NEAR(diff.tenant_deltas[0].max_abs, 0.5, 1e-12);

  // The same pair compares identical under a looser tolerance.
  EXPECT_TRUE(diff_recordings(a, b, 0.6).identical);
  EXPECT_FALSE(diff_recordings(a, b, 0.4).identical);
}

TEST(Flightrec, ProvenanceScopeInstallsAndRestoresTheSink) {
  EXPECT_EQ(provenance_sink(), nullptr);
  ProvenanceRound outer;
  {
    ProvenanceScope scope(&outer);
    EXPECT_EQ(provenance_sink(), &outer);
    ProvenanceRound inner;
    {
      ProvenanceScope nested(&inner);
      EXPECT_EQ(provenance_sink(), &inner);
      provenance_sink()->has_irt = true;
    }
    EXPECT_EQ(provenance_sink(), &outer);
    EXPECT_TRUE(inner.has_irt);
  }
  EXPECT_EQ(provenance_sink(), nullptr);

  // Entering a scope clears any state left from a previous round.
  outer.has_irt = true;
  outer.irt_lambda = {1.0, 2.0};
  outer.iwa.push_back(ProvenanceIwa{});
  {
    ProvenanceScope scope(&outer);
    EXPECT_FALSE(outer.has_irt);
    EXPECT_TRUE(outer.irt_lambda.empty());
    EXPECT_TRUE(outer.iwa.empty());
  }
}

}  // namespace
}  // namespace rrf::obs
