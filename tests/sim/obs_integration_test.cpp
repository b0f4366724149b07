// End-to-end observability: the engine's fairness gauges, starvation
// incidents, the predictor/rebalance instrumentation and the round sinks'
// shared roll-up, driven through real runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/ops.hpp"
#include "sim/engine.hpp"

namespace rrf::sim {
namespace {

/// RAII guard: metric collection on for the test, restored after.
struct MetricsOn {
  MetricsOn() : was(obs::metrics_enabled()) { obs::set_metrics_enabled(true); }
  ~MetricsOn() { obs::set_metrics_enabled(was); }
  bool was;
};

std::uint64_t counter_value(const char* name) {
  const obs::Counter* c = obs::metrics().find_counter(name);
  return c != nullptr ? c->value() : 0;
}

TEST(ObsEngineAudit, WellBehavedRrfRunRaisesNoAlerts) {
  MetricsOn guard;
  ScenarioConfig scenario;
  scenario.workloads = wl::paper_workloads();
  scenario.hosts = 1;
  scenario.seed = 42;

  EngineConfig config;
  config.policy = PolicyKind::kRrf;
  config.duration = 900.0;
  config.window = 5.0;
  // The incident detectors are the one alerting path.
  obs::IncidentManager incidents(obs::IncidentConfig{});
  config.incidents = &incidents;

  run_simulation(build_scenario(scenario), config);
  EXPECT_EQ(incidents.opened_total(), 0u);

  // The auditor ran and published its cluster gauges.
  const obs::Gauge* jain = obs::metrics().find_gauge("fairness.jain_index");
  ASSERT_NE(jain, nullptr);
  EXPECT_GT(jain->value(), 0.9);
  const obs::Gauge* windows =
      obs::metrics().find_gauge("fairness.audit_windows");
  ASSERT_NE(windows, nullptr);
  EXPECT_DOUBLE_EQ(windows->value(), 180.0);
}

TEST(ObsEngineAudit, StarvationSloFiresEndToEnd) {
  MetricsOn guard;
  // Every built-in policy is share-weighted, so a run cannot organically
  // push a demanding tenant below its bought share (the clean-run test
  // above).  To exercise the starvation path end to end we under-provision
  // the cluster (alpha = 0.5: demand runs at ~2x the bought share and no
  // tenant is ever entitled to 3x) and tighten the SLO above what the
  // platform guarantees: every round then starves every tenant, and the
  // starvation detector must open an incident naming each of them.
  ScenarioConfig scenario;
  scenario.workloads = wl::paper_workloads();
  scenario.alpha = 0.5;
  scenario.hosts = 1;
  scenario.seed = 42;

  obs::IncidentConfig incident_config;
  // Keep the other detectors out of the way: this test is about starvation.
  obs::apply_detector_flag(incident_config.detect, "starvation");
  incident_config.detect.starvation_share = 3.0;  // SLO: >= 3x S(i)
  obs::IncidentManager incidents(incident_config);

  EngineConfig config;
  config.policy = PolicyKind::kRrf;
  config.duration = 300.0;
  config.window = 5.0;
  config.incidents = &incidents;

  const SimResult result = run_simulation(build_scenario(scenario), config);

  ASSERT_EQ(incidents.opened_total(), 1u);
  const obs::Incident incident = incidents.incidents().front();
  EXPECT_EQ(incident.kinds, std::vector<std::string>{"starvation"});
  // One starved tenant per tenant in the run, each named by the incident.
  EXPECT_EQ(incident.tenants.size(), result.tenants.size());
  for (const auto& tenant : result.tenants) {
    EXPECT_TRUE(std::any_of(incident.tenants.begin(), incident.tenants.end(),
                            [&](const obs::IncidentTenant& t) {
                              return t.name == tenant.name();
                            }))
        << tenant.name() << " is not named by the incident";
  }
}

TEST(ObsEngineAudit, AuditRespectsTheMetricsSwitch) {
  const bool was = obs::metrics_enabled();
  obs::set_metrics_enabled(false);
  ScenarioConfig scenario;
  scenario.workloads = {wl::WorkloadKind::kTpcc, wl::WorkloadKind::kTpcc};
  scenario.hosts = 1;
  scenario.seed = 42;
  EngineConfig config;
  config.duration = 120.0;
  const obs::Gauge* windows =
      obs::metrics().find_gauge("fairness.audit_windows");
  const double before = windows != nullptr ? windows->value() : -1.0;
  run_simulation(build_scenario(scenario), config);
  // The auditor was never constructed, so its gauge neither appeared nor
  // moved.
  windows = obs::metrics().find_gauge("fairness.audit_windows");
  EXPECT_EQ(windows != nullptr ? windows->value() : -1.0, before);
  obs::set_metrics_enabled(was);
}

TEST(ObsEmission, PredictorAndRebalanceInstrumentAContendedRun) {
  MetricsOn guard;
  const std::uint64_t observations0 = counter_value("predictor.observations");
  const std::uint64_t plans0 = counter_value("rebalance.plans");
  const std::uint64_t windows0 = counter_value("engine.windows");

  // Imbalanced first-fit start on two hosts: the rebalancer has real work,
  // and the predictor sees every tenant's demand stream.
  ScenarioConfig scenario;
  scenario.workloads = {
      wl::WorkloadKind::kRubbos, wl::WorkloadKind::kHadoop,
      wl::WorkloadKind::kTpcc,   wl::WorkloadKind::kKernelBuild,
      wl::WorkloadKind::kTpcc,   wl::WorkloadKind::kKernelBuild};
  scenario.hosts = 2;
  scenario.seed = 42;
  scenario.placement = cluster::PlacementPolicy::kFirstFit;

  EngineConfig config;
  config.policy = PolicyKind::kRrf;
  config.duration = 600.0;
  config.window = 5.0;
  config.rebalance.enabled = true;
  config.rebalance.every_windows = 24;

  run_simulation(build_scenario(scenario), config);

  // 120 windows x 6 tenants of predictor observations.
  EXPECT_GE(counter_value("predictor.observations") - observations0, 720u);
  EXPECT_NE(obs::metrics().find_histogram("predictor.underprediction"),
            nullptr);
  // Rebalance planning ran at the configured epochs (windows 24..96).
  EXPECT_GE(counter_value("rebalance.plans") - plans0, 4u);
  EXPECT_NE(obs::metrics().find_histogram("rebalance.pressure_gap"), nullptr);
  EXPECT_EQ(counter_value("engine.windows") - windows0, 120u);
}

// One round roll-up feeds every round sink: the journal and the ops hub
// carry the same serialized line per round, and the round summary, the
// time-series recorder and the observer agree per tenant on demand,
// position and score.
TEST(ObsEmission, EveryRoundSinkReadsTheSameRollup) {
  ScenarioConfig scenario_config;
  scenario_config.workloads = wl::paper_workloads();
  scenario_config.hosts = 1;
  scenario_config.seed = 42;
  const Scenario scenario = build_scenario(scenario_config);
  const std::size_t tenants = scenario.cluster.tenants().size();
  const std::size_t windows = 60;

  const std::string path = ::testing::TempDir() + "/obs_rollup.jsonl";
  obs::TelemetryJournal::Options options;
  options.path = path;
  options.policy = "rrf";
  auto journal = std::make_unique<obs::TelemetryJournal>(std::move(options));
  obs::OpsHub::Config hub_config;
  hub_config.ring_capacity = 2 * windows;
  obs::OpsHub hub(hub_config);
  obs::TimeSeriesRecorder recorder;
  std::vector<WindowSnapshot> snapshots;

  EngineConfig config;
  config.policy = PolicyKind::kRrf;
  config.duration = 5.0 * static_cast<double>(windows);
  config.window = 5.0;
  config.journal = journal.get();
  config.ops = &hub;
  config.recorder = &recorder;
  config.observer = [&](const WindowSnapshot& s) { snapshots.push_back(s); };
  run_simulation(scenario, config);
  journal->finish();

  std::vector<std::string> journal_lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with(R"({"t":"round")")) journal_lines.push_back(line);
  }
  std::uint64_t cursor = 0;
  std::vector<std::string> hub_lines;
  hub.wait_lines(&cursor, &hub_lines, std::chrono::milliseconds(0));
  ASSERT_EQ(journal_lines.size(), windows);
  ASSERT_EQ(hub_lines, journal_lines);
  ASSERT_EQ(snapshots.size(), windows);
  ASSERT_EQ(recorder.rows().size(), windows * tenants);

  for (std::size_t w = 0; w < windows; ++w) {
    const obs::RoundSummary summary =
        obs::round_summary_from_json(json::Value::parse(journal_lines[w]));
    EXPECT_EQ(obs::round_summary_to_json(summary).dump(), journal_lines[w]);
    ASSERT_EQ(summary.tenants.size(), tenants);
    const WindowSnapshot& snapshot = snapshots[w];
    for (std::size_t t = 0; t < tenants; ++t) {
      const double initial = scenario.cluster.tenant_shares(t).sum();
      const obs::TenantRoundStat& stat = summary.tenants[t];
      const obs::TimeSeriesRecorder::Row& row =
          recorder.rows()[w * tenants + t];
      ASSERT_EQ(row.window, w);
      ASSERT_EQ(row.tenant, t);
      EXPECT_EQ(stat.share, snapshot.tenant_position[t] / initial);
      EXPECT_EQ(stat.demand, snapshot.tenant_demand[t] / initial);
      EXPECT_EQ(row.alloc_ratio, stat.share);
      EXPECT_EQ(row.demand_ratio, stat.demand);
      EXPECT_EQ(row.perf_score, snapshot.tenant_score[t]);
    }
  }
}

}  // namespace
}  // namespace rrf::sim
