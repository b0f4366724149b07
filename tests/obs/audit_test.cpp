#include "obs/audit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "obs/detect.hpp"
#include "obs/exposition.hpp"

namespace rrf::obs {
namespace {

/// Feeds one round where tenant i holds `position[i]` shares.
void feed(FairnessAuditor& auditor, std::size_t window,
          std::vector<double> position, std::vector<double> contributed = {},
          std::vector<double> gained = {}) {
  AuditRound round;
  round.window = window;
  round.position = position;
  round.contributed = contributed;
  round.gained = gained;
  auditor.observe_round(round);
}

/// The auditor only publishes gauges; its starvation, Jain and warm-up
/// rules are the detector bank's (obs/detect.hpp).  Builds the bank's view
/// of a round in which tenant i is granted `granted[i]` and asks for
/// `demand[i]`, both relative to its bought share.
RoundSummary bank_round(std::size_t window, const std::vector<double>& granted,
                        const std::vector<double>& demand, double jain = 1.0) {
  RoundSummary summary;
  summary.window = window;
  summary.time = static_cast<double>(window) * 5.0;
  summary.jain = jain;
  summary.slots = 8;
  for (std::size_t i = 0; i < granted.size(); ++i) {
    TenantRoundStat tenant;
    tenant.name = "tenant" + std::to_string(i);
    tenant.share = 1.0;
    tenant.granted = granted[i];
    tenant.demand = demand[i];
    summary.tenants.push_back(tenant);
  }
  return summary;
}

/// Only `kinds` enabled, armed from the first round, and a condition
/// fires once it held in each of the last `streak` rounds.
DetectConfig streak_config(const std::string& kinds, std::size_t streak) {
  DetectConfig config;
  apply_detector_flag(config, kinds);
  config.warmup_rounds = 0;
  config.fast_window = streak;
  config.fast_burn = 1.0;
  return config;
}

bool fired(const std::vector<Detection>& detections, DetectorKind kind,
           std::int32_t tenant) {
  return std::any_of(detections.begin(), detections.end(),
                     [&](const Detection& d) {
                       return d.kind == kind && d.tenant == tenant;
                     });
}

TEST(ObsAudit, BetaAccumulatesAcrossRounds) {
  MetricsRegistry registry;
  FairnessAuditor auditor({}, {"a", "b"}, {100.0, 200.0}, &registry);
  EXPECT_DOUBLE_EQ(auditor.jain(), 1.0);  // vacuously fair before data

  feed(auditor, 0, {100.0, 100.0});
  feed(auditor, 1, {100.0, 300.0});
  const std::vector<double> betas = auditor.tenant_beta();
  ASSERT_EQ(betas.size(), 2u);
  EXPECT_DOUBLE_EQ(betas[0], 1.0);            // 200 / (2 * 100)
  EXPECT_DOUBLE_EQ(betas[1], 1.0);            // 400 / (2 * 200)
  EXPECT_DOUBLE_EQ(auditor.jain(), 1.0);
  EXPECT_EQ(auditor.windows(), 2u);
}

TEST(ObsAudit, WarmupSuppressesAlertsButPublishesGauges) {
  MetricsRegistry registry;
  FairnessAuditor auditor({}, {"a", "b"}, {100.0, 100.0}, &registry);
  DetectConfig config = streak_config("jain", 1);
  config.warmup_rounds = 3;
  DetectorBank bank(config);

  // Grossly unfair rounds, but inside the warm-up: nothing fires.
  for (std::size_t w = 0; w < 3; ++w) {
    feed(auditor, w, {10.0, 190.0});
    EXPECT_TRUE(
        bank.observe_round(bank_round(w, {0.1, 1.9}, {1.0, 1.0},
                                      auditor.jain()))
            .empty())
        << "window " << w;
  }
  const Gauge* jain = registry.find_gauge("fairness.jain_index");
  ASSERT_NE(jain, nullptr);
  EXPECT_LT(jain->value(), config.jain_min);  // gauges publish in warm-up

  // The first post-warm-up round arms the rule and it fires cluster-wide.
  feed(auditor, 3, {10.0, 190.0});
  const auto detections = bank.observe_round(
      bank_round(3, {0.1, 1.9}, {1.0, 1.0}, auditor.jain()));
  EXPECT_TRUE(fired(detections, DetectorKind::kJain, -1));
}

TEST(ObsAudit, StarvationFiresAfterSustainedStreakOnly) {
  MetricsRegistry registry;
  FairnessAuditor auditor({}, {}, {100.0, 100.0}, &registry);
  DetectorBank bank(streak_config("starvation", 3));
  // tenant0 asks for 120% of its share yet holds 30% of it; tenant1 is fine.
  const auto starve = [&](std::size_t w) {
    feed(auditor, w, {30.0, 100.0});
    return bank.observe_round(bank_round(w, {0.3, 1.0}, {1.2, 1.0}));
  };

  EXPECT_FALSE(fired(starve(0), DetectorKind::kStarvation, 0));
  EXPECT_FALSE(fired(starve(1), DetectorKind::kStarvation, 0));
  const auto third = starve(2);
  ASSERT_TRUE(fired(third, DetectorKind::kStarvation, 0));
  EXPECT_FALSE(fired(third, DetectorKind::kStarvation, 1));
  EXPECT_EQ(third.front().window, 2u);
  EXPECT_EQ(third.front().tenant_name, "tenant0");
  EXPECT_DOUBLE_EQ(auditor.tenant_beta()[0], 0.3);

  // Still starving: the detection holds (the incident manager, not the
  // bank, raises once per excursion).
  EXPECT_TRUE(fired(starve(3), DetectorKind::kStarvation, 0));

  // One satisfied round breaks the streak...
  feed(auditor, 4, {100.0, 100.0});
  EXPECT_FALSE(fired(bank.observe_round(bank_round(4, {1.0, 1.0}, {1.2, 1.0})),
                     DetectorKind::kStarvation, 0));

  // ...so a second famine fires again only once it is sustained.
  EXPECT_FALSE(fired(starve(5), DetectorKind::kStarvation, 0));
  EXPECT_FALSE(fired(starve(6), DetectorKind::kStarvation, 0));
  EXPECT_TRUE(fired(starve(7), DetectorKind::kStarvation, 0));
}

TEST(ObsAudit, LowDemandIsNotStarvation) {
  MetricsRegistry registry;
  FairnessAuditor auditor({}, {}, {100.0}, &registry);
  DetectorBank bank(streak_config("all", 2));

  // Holding 30 shares while asking for 50 (< the bought 100) is just an
  // idle tenant, not a starved one.
  for (std::size_t w = 0; w < 6; ++w) {
    feed(auditor, w, {30.0});
    EXPECT_TRUE(bank.observe_round(bank_round(w, {0.3}, {0.5})).empty())
        << "window " << w;
  }
  // The low holding still shows on the tenant's beta gauge.
  const Gauge* beta = registry.find_gauge(
      labeled("fairness.tenant_beta", {{"tenant", "tenant0"}}));
  ASSERT_NE(beta, nullptr);
  EXPECT_DOUBLE_EQ(beta->value(), 0.3);
}

TEST(ObsAudit, WarmupBoundaryArmsOnTheFirstPostWarmupRound) {
  // With warmup_rounds = W, rounds 0..W-1 are suppressed and round W is
  // the first that can fire — off-by-one here silently eats detections.
  DetectConfig config = streak_config("jain", 1);
  config.warmup_rounds = 2;
  DetectorBank bank(config);

  EXPECT_TRUE(bank.observe_round(bank_round(0, {0.1, 1.9}, {1.0, 1.0}, 0.5))
                  .empty());
  EXPECT_TRUE(bank.observe_round(bank_round(1, {0.1, 1.9}, {1.0, 1.0}, 0.5))
                  .empty());

  const auto detections =
      bank.observe_round(bank_round(2, {0.1, 1.9}, {1.0, 1.0}, 0.5));
  ASSERT_EQ(detections.size(), 1u);
  EXPECT_EQ(detections.front().kind, DetectorKind::kJain);
  EXPECT_EQ(detections.front().window, 2u);
}

TEST(ObsAudit, ReciprocityBalanceExposesFreeRiders) {
  // The auditor raises nothing; a free rider shows as a positive
  // reciprocity balance and a contributor as a negative one.
  MetricsRegistry registry;
  FairnessAuditor auditor({}, {"giver", "taker"}, {100.0, 100.0}, &registry);
  // giver funds 20 shares/round and takes nothing back; taker consumes 20
  // tenant-funded shares/round while contributing nothing.
  for (std::size_t w = 0; w < 4; ++w) {
    feed(auditor, w, {80.0, 120.0}, /*contributed=*/{20.0, 0.0},
         /*gained=*/{0.0, 20.0});
  }
  const Gauge* giver = registry.find_gauge(
      labeled("fairness.reciprocity_balance", {{"tenant", "giver"}}));
  const Gauge* taker = registry.find_gauge(
      labeled("fairness.reciprocity_balance", {{"tenant", "taker"}}));
  ASSERT_NE(giver, nullptr);
  ASSERT_NE(taker, nullptr);
  EXPECT_DOUBLE_EQ(giver->value(), -0.2);  // -80 over 4 rounds of 100
  EXPECT_DOUBLE_EQ(taker->value(), 0.2);
}

TEST(ObsAudit, PublishesGaugesAndNodePressure) {
  MetricsRegistry registry;
  FairnessAuditor auditor({}, {"a", "b"}, {100.0, 100.0}, &registry);
  AuditRound round;
  const std::vector<double> position = {50.0, 150.0};
  const std::vector<double> lambda = {0.25, 0.75};
  const std::vector<double> pressure = {0.9, 0.4};
  round.window = 0;
  round.position = position;
  round.contribution_lambda = lambda;
  round.node_pressure = pressure;
  auditor.observe_round(round);

  const Gauge* beta_a =
      registry.find_gauge(labeled("fairness.tenant_beta", {{"tenant", "a"}}));
  ASSERT_NE(beta_a, nullptr);
  EXPECT_DOUBLE_EQ(beta_a->value(), 0.5);
  const Gauge* spread = registry.find_gauge("fairness.dominant_share_spread");
  ASSERT_NE(spread, nullptr);
  EXPECT_DOUBLE_EQ(spread->value(), 1.0);  // 1.5 - 0.5
  const Gauge* lam =
      registry.find_gauge(labeled("fairness.contribution_lambda",
                                  {{"tenant", "b"}}));
  ASSERT_NE(lam, nullptr);
  EXPECT_DOUBLE_EQ(lam->value(), 0.75);
  const Gauge* node1 =
      registry.find_gauge(labeled("fairness.node_pressure", {{"node", "1"}}));
  ASSERT_NE(node1, nullptr);
  EXPECT_DOUBLE_EQ(node1->value(), 0.4);
  const Gauge* node_spread =
      registry.find_gauge("fairness.node_pressure_spread");
  ASSERT_NE(node_spread, nullptr);
  EXPECT_NEAR(node_spread->value(), 0.5, 1e-12);
  EXPECT_NE(registry.find_histogram("fairness.beta_drift_dist"), nullptr);
}

TEST(ObsAudit, RejectsMalformedInputs) {
  MetricsRegistry registry;
  EXPECT_THROW(FairnessAuditor(AuditConfig{}, {}, {}, &registry),
               PreconditionError);
  EXPECT_THROW(FairnessAuditor(AuditConfig{}, {"a"}, {0.0}, &registry),
               PreconditionError);
  EXPECT_THROW(FairnessAuditor(AuditConfig{}, {"a", "b"}, {1.0}, &registry),
               PreconditionError);

  FairnessAuditor auditor(AuditConfig{}, {"a"}, {100.0}, &registry);
  AuditRound round;
  const std::vector<double> two = {1.0, 2.0};
  round.position = two;  // size mismatch vs one tenant
  EXPECT_THROW(auditor.observe_round(round), PreconditionError);
}

}  // namespace
}  // namespace rrf::obs
