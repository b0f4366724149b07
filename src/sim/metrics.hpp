// Evaluation metrics (paper Section VI).
//
//  * Economic fairness beta(i) = sum_t S'_t(i) / (T * S(i)): the ratio of
//    the average share entitlement a tenant held to the shares she paid
//    for.  beta == 1 is absolute economic fairness.
//  * Normalized application performance: mean per-window perf-model score
//    (1.0 == the score of a fully satisfied run).
//  * Utilization and time series for the Fig. 4/5 reproductions.
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/resource_vector.hpp"
#include "common/types.hpp"
#include "obs/trace.hpp"
#include "sim/shard.hpp"

namespace rrf::sim {

/// Per-tenant accumulation over a simulation run.
class TenantMetrics {
 public:
  TenantMetrics(std::string name, ResourceVector initial_shares);

  /// Records one window: the tenant's ledger position and demanded shares
  /// (each summed over resource types) and the application's perf score.
  void record_window(double position, double demand, double perf_score);

  const std::string& name() const { return name_; }
  std::size_t windows() const { return windows_; }

  /// Economic fairness degree beta(i); 1.0 before any window is recorded
  /// (a tenant that never ran was never treated unfairly).
  double beta() const;

  /// Mean perf score (normalized performance; 1 == fully satisfied); 1.0
  /// before any window is recorded.
  double mean_perf() const;

  /// Time series for Figs. 4/5: D_t(i)/S(i) and S'_t(i)/S(i).
  const std::vector<double>& demand_ratio_series() const {
    return demand_ratio_;
  }
  const std::vector<double>& alloc_ratio_series() const {
    return alloc_ratio_;
  }

 private:
  std::string name_;
  ResourceVector initial_shares_;
  double initial_total_{0.0};
  double granted_total_{0.0};
  double perf_total_{0.0};
  std::size_t windows_{0};
  std::vector<double> demand_ratio_;
  std::vector<double> alloc_ratio_;
};

/// Whole-run results returned by the engine.
struct SimResult {
  std::string policy;
  std::vector<TenantMetrics> tenants;
  /// Mean fraction of node capacity actually used, per resource type.
  ResourceVector mean_utilization{0.0, 0.0};
  std::size_t alloc_invocations{0};
  /// Wall time per round phase (predict/allocate/actuate/settle), summed
  /// over all nodes and windows — filled by the engine's PhaseScopes.
  std::array<double, obs::kPhaseCount> phase_seconds{};
  /// phase_seconds[phase], by enum for readability.
  double phase_total(obs::Phase phase) const {
    return phase_seconds[static_cast<std::size_t>(phase)];
  }
  /// Live migrations executed by the in-run load balancer (0 unless
  /// EngineConfig::rebalance.enabled).
  std::size_t migrations{0};
  double migrated_gb{0.0};
  Seconds window{0.0};
  /// Per-shard execution telemetry (busy seconds, node/slot counts) when
  /// the run dispatched rounds through a ShardExecutor; empty for serial
  /// runs.  The busy-seconds spread across shards is the load-imbalance
  /// signal the profiler's shard frames attribute.
  std::vector<ShardStats> shards;

  /// Geometric mean of per-tenant betas (the paper's "95% fairness").
  /// Defined for degenerate runs: 1.0 with no tenants, 0.0 if any beta
  /// collapsed to zero.
  double fairness_geomean() const;
  /// Geometric mean of per-tenant normalized performance (same guards).
  double perf_geomean() const;
  /// Mean allocator CPU load: allocate-phase time per invocation / window
  /// length.
  double allocator_load() const;
};

}  // namespace rrf::sim
