// Fairness gauges: the paper's economic-fairness quantities, live.
//
// Each allocation round the engine feeds the FairnessAuditor the
// per-tenant ledger positions and the tenant-funded contribution and
// gain flows; the auditor publishes them into a MetricsRegistry as
// the `fairness.*` gauge families (fairness.jain_index,
// fairness.tenant_beta{tenant=...}, fairness.beta_drift{...},
// fairness.reciprocity_balance{...}, fairness.contribution_lambda{...},
// fairness.node_pressure{node=...}, ...).
//
// The auditor raises nothing.  Alerting is the detector bank's job
// (obs/detect.hpp), with hysteresis and forensics in the incident manager
// (obs/incident.hpp).  In particular the justified-complaint detector is
// the one reciprocity-violation definition: a contributor left short of
// its entitlement.  A free rider, who gains without contributing, stays
// visible through a positive fairness.reciprocity_balance gauge.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace rrf::obs {

struct AuditConfig {
  bool enabled = true;
};

/// One allocation round's gauge inputs, all indexed by tenant and in
/// *shares* (the ledger domain).  `contributed`/`gained` are the
/// tenant-funded amounts from the economic ledger: shares of a tenant's
/// surplus other tenants actually consumed, and shares she consumed of
/// other tenants' surplus (platform headroom excluded on both sides).
/// `contribution_lambda` is IRT's declared contribution accounting
/// Lambda(i) (empty for policies without trading).  `node_pressure` is the
/// per-node dominant-share pressure (may be empty).
struct AuditRound {
  std::size_t window{0};
  std::span<const double> position;
  std::span<const double> contributed;
  std::span<const double> gained;
  std::span<const double> contribution_lambda;
  std::span<const double> node_pressure;
};

class FairnessAuditor {
 public:
  /// `initial_shares` is each tenant's bought share total S(i) (> 0).
  /// Instruments are published into `registry` (default: the process
  /// global).  The auditor itself does not consult metrics_enabled() —
  /// create it only when auditing is wanted.
  FairnessAuditor(AuditConfig config, std::vector<std::string> tenant_names,
                  std::vector<double> initial_shares,
                  MetricsRegistry* registry = nullptr);

  void observe_round(const AuditRound& round);

  std::size_t windows() const { return windows_; }
  /// Cumulative per-tenant beta so far.
  std::vector<double> tenant_beta() const;
  /// Jain's index over the current cumulative betas (1.0 before data).
  double jain() const;

 private:
  void publish_gauges(const AuditRound& round);

  AuditConfig config_;
  std::vector<std::string> names_;
  std::vector<double> initial_;
  MetricsRegistry* registry_;

  std::size_t windows_{0};
  std::vector<double> position_total_;
  std::vector<double> contributed_total_;
  std::vector<double> gained_total_;

  // Cached instrument references (stable for the registry's lifetime).
  Gauge* jain_gauge_;
  Gauge* spread_gauge_;
  Gauge* windows_gauge_;
  Histogram* drift_hist_;
  std::vector<Gauge*> beta_gauges_;
  std::vector<Gauge*> drift_gauges_;
  std::vector<Gauge*> reciprocity_gauges_;
  std::vector<Gauge*> lambda_gauges_;
  std::vector<Gauge*> node_pressure_gauges_;
};

}  // namespace rrf::obs
