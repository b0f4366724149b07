// Online fairness anomaly detection over the per-round summary feed.
//
// The detector bank is the project's one alerting path; the
// FairnessAuditor (obs/audit.hpp) only publishes gauges.  It consumes the
// same RoundSummary digest the `/rounds` endpoint streams, and detects
// the slow-burn failure modes a single-round threshold misses:
//
//  * multi-window SLO burn-rate detectors — a condition must be bad in
//    BOTH a fast window (default 5 rounds) and a slow window (default 50
//    rounds) before it fires, so transient blips never page but a
//    sustained erosion pages quickly.  Applied to the Jain index, the
//    per-tenant grant-vs-entitlement gap ("drift"), per-tenant
//    starvation (demand ≥ entitlement yet granted below half), and round
//    wall time ("throughput", measured against a slow EWMA baseline);
//  * EWMA+CUSUM changepoint detection on each tenant's demand-capped
//    entitlement gap g = max(0, min(demand,1) − granted): an EWMA tracks
//    the tenant's normal gap, the one-sided CUSUM accumulates
//    excursions above it and fires when the cumulative drift crosses a
//    decision threshold (Page's test), draining naturally as the gap
//    closes;
//  * a per-tenant "justified complaint" score in the spirit of
//    no-justified-complaints fairness: the EWMA of the tenant's
//    entitlement deficit counts only while the tenant is a net
//    reciprocity contributor (cumulative contributed > gained) — a
//    tenant who fed the pool and still trails her entitlement is the
//    anomaly worth paging on; a free rider with the same deficit is not.
//    This is the project's one reciprocity-violation definition (Dolev et
//    al., "No Justified Complaints"); free riding itself shows up as a
//    positive fairness.reciprocity_balance gauge, not as a detection.
//
// Detections are level-triggered ("this condition holds now"); the
// IncidentManager (obs/incident.hpp) adds hysteresis, correlation and
// forensics on top.  The bank is allocation-neutral by construction: it
// only ever reads RoundSummary values.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/ops.hpp"

namespace rrf::obs {

enum class DetectorKind : std::uint8_t {
  kJain,        ///< cluster Jain index burn rate
  kDrift,       ///< per-tenant entitlement gap burn rate
  kStarvation,  ///< per-tenant starvation burn rate
  kThroughput,  ///< round wall-time burn rate vs. EWMA baseline
  kChangepoint, ///< per-tenant CUSUM on the entitlement gap
  kComplaint,   ///< per-tenant justified-complaint score
};
inline constexpr std::size_t kDetectorKindCount = 6;
/// Stable wire name ("jain", "drift", "starvation", "throughput",
/// "changepoint", "complaint").
const char* to_string(DetectorKind kind);

struct DetectConfig {
  /// Per-detector enable switches, indexed by DetectorKind.
  std::array<bool, kDetectorKindCount> enabled{true, true, true,
                                               true, true, true};
  /// Rounds skipped before any detector fires (engine warm-up).
  std::size_t warmup_rounds = 12;
  /// Burn-rate windows: a condition fires only when the bad-round
  /// fraction reaches fast_burn over the last fast_window rounds AND
  /// slow_burn over the last slow_window rounds.
  std::size_t fast_window = 5;
  std::size_t slow_window = 50;
  double fast_burn = 0.6;
  double slow_burn = 0.3;
  /// Jain index below this is a bad round for the jain detector.
  double jain_min = 0.85;
  /// Entitlement gap min(demand,1)−granted above this is a bad round
  /// for the drift detector.
  double drift_gap_max = 0.30;
  /// A round starves a tenant when demand ≥ starvation_demand and
  /// granted < starvation_share (both relative to the bought share
  /// S(i)).  The demand bar sits below 1.0 because synthetic demand
  /// waves dip under entitlement for part of every period — a tenant
  /// asking for ≥90% and granted under half is starved all the same.
  double starvation_share = 0.5;
  double starvation_demand = 0.9;
  /// A round is throughput-bad when its wall time exceeds
  /// throughput_factor × the EWMA baseline (generous: CI-noise-immune).
  double throughput_factor = 8.0;
  double baseline_alpha = 0.1;  ///< EWMA weight for the wall-time baseline
  /// EWMA weight for per-tenant gap/deficit estimators.
  double ewma_alpha = 0.2;
  /// CUSUM slack (per-round tolerated excursion) and decision threshold.
  double cusum_slack = 0.05;
  double cusum_threshold = 1.0;
  /// Justified-complaint score (EWMA entitlement deficit while a net
  /// contributor) above this fires the complaint detector.
  double complaint_min = 0.25;
};

/// Applies an `--detectors` flag value to `config.enabled`: "all",
/// "none", or a comma-separated list of detector names enabling exactly
/// those listed.  Throws DomainError on an unknown name.
void apply_detector_flag(DetectConfig& config, const std::string& flag);

/// One detector's level-triggered verdict for the round it was observed.
struct Detection {
  DetectorKind kind{DetectorKind::kJain};
  std::int32_t tenant{-1};  ///< -1 for cluster-wide detectors
  std::string tenant_name;  ///< empty for cluster-wide detectors
  std::size_t window{0};
  double value{0.0};      ///< the measured quantity
  double threshold{0.0};  ///< the limit it crossed
};

class DetectorBank {
 public:
  explicit DetectorBank(DetectConfig config);

  /// Evaluates every enabled detector against one round summary and
  /// returns the detections that hold this round (level-triggered; empty
  /// most rounds).  Must see a fixed tenant population per run.
  std::vector<Detection> observe_round(const RoundSummary& summary);

  std::size_t rounds() const { return rounds_; }
  const DetectConfig& config() const { return config_; }

  /// Estimator state snapshot for forensic bundles: per-tenant EWMA gap
  /// baseline, CUSUM level, complaint score, cumulative reciprocity
  /// flows and slow-window bad counts, plus the cluster-wide baselines.
  json::Value state_json() const;

 private:
  /// Sliding bad-round window (slow_window entries); the fast fraction
  /// is computed over the tail.
  struct BurnSeries {
    std::deque<unsigned char> bad;
    std::size_t bad_slow{0};
  };
  struct TenantState {
    BurnSeries drift;
    BurnSeries starve;
    double gap_mu{0.0};  ///< EWMA of the entitlement gap
    bool gap_mu_init{false};
    double cusum{0.0};
    double complaint{0.0};  ///< EWMA entitlement deficit
    double contributed_total{0.0};
    double gained_total{0.0};
  };

  void push_bad(BurnSeries& series, bool bad) const;
  bool burning(const BurnSeries& series) const;
  double fast_fraction(const BurnSeries& series) const;
  double slow_fraction(const BurnSeries& series) const;
  bool enabled(DetectorKind kind) const {
    return config_.enabled[static_cast<std::size_t>(kind)];
  }

  DetectConfig config_;
  std::size_t rounds_{0};
  std::vector<TenantState> tenants_;
  std::vector<std::string> tenant_names_;
  BurnSeries jain_;
  BurnSeries throughput_;
  double wall_baseline_{0.0};
  bool wall_baseline_init_{false};
};

}  // namespace rrf::obs
