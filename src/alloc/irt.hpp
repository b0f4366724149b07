// Inter-tenant Resource Trading (IRT) — Algorithm 1 of the paper.
//
// Core idea: for each resource type, tenants whose demand is below their
// initial share are capped at demand and *contribute* the difference; the
// pooled contribution is redistributed to unsatisfied tenants **in
// proportion to each tenant's own total contribution** Lambda(i) across all
// resource types (gain-as-you-contribute).  Tenants that contribute nothing
// receive nothing beyond their initial share, which is what defeats
// free-riding.
//
// Implementation notes (see DESIGN.md §5):
//  * The paper's "work backward" strategy is implemented exactly: per type,
//    entities are ordered contributors-first (ascending U = D/S), then
//    beneficiaries ascending V = (D - S) / Lambda; the boundary index v is
//    located by binary search (the satisfiability predicate is monotone —
//    proven in irt.cpp) or by linear scan for the ablation bench.
//  * Line 20 of the paper's pseudo-code distributes Psi * Lambda(v+1)/Sum;
//    the worked example (Table II) shows each tenant i receives
//    Psi * Lambda(i)/Sum — we implement the latter.
//  * If every unsatisfied tenant has Lambda = 0, the surplus is
//    undistributable under gain-as-you-contribute; it is reported idle, or
//    optionally spread proportionally to initial shares (SurplusFallback).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "alloc/allocator.hpp"

namespace rrf::alloc {

struct IrtOptions {
  enum class Search {
    kBinary,  ///< O(m log m): sort + binary search for the boundary v
    kLinear,  ///< O(m^2) worst case: scan from u+1 (ablation baseline)
  };
  Search search = Search::kBinary;

  enum class SurplusFallback {
    kIdle,                  ///< strict gain-as-you-contribute (default)
    kProportionalToShare,   ///< spread undistributable surplus by share
  };
  SurplusFallback fallback = SurplusFallback::kIdle;

  /// Strategy-proof extension (not in the paper): cap each tenant's total
  /// gain across all resource types at her total contribution Lambda(i),
  /// i.e. force the trading exchange rate to <= 1.  Under the paper's
  /// formula a tenant can profit from *under*-reporting demand whenever the
  /// redistribution fill factor psi/SumLambda exceeds 1; with the cap,
  /// sacrificing x usable shares buys at most x shares back, so lying never
  /// strictly pays.  The price is that surplus beyond the beneficiaries'
  /// contribution budgets idles (or falls back per `fallback`).
  bool cap_gain_at_contribution = false;
};

/// Per-resource-type diagnostics of one IRT run (used by tests and the
/// Table II bench to show the sort orders the paper prints).
struct IrtTypeTrace {
  std::vector<std::size_t> order;  ///< entity indices in allocation order
  std::size_t contributor_count{0};  ///< u: number of contributors
  std::size_t capped_count{0};       ///< v: entities capped at their demand
  double redistributed{0.0};         ///< Psi_k handed to the suffix
};

/// Caller-owned scratch for IrtAllocator::allocate_into.  Every buffer is
/// resized in place, so reusing one workspace for calls of at most the
/// same entity count performs no heap allocation.  Contents are
/// meaningless between calls.
struct IrtWorkspace {
  /// One entity's precomputed position in the per-type order: contributors
  /// (beneficiary == false) by ascending U = D/S, then beneficiaries by
  /// ascending V = (D - S) / Lambda.
  struct SortKey {
    bool beneficiary{false};
    double value{0.0};
  };
  std::vector<SortKey> keys;  ///< indexed by entity
  std::vector<std::size_t> order;
  std::vector<double> prefix_demand;
  std::vector<double> suffix_share;
  std::vector<double> suffix_lambda;
  /// Suffix water-fill inputs/outputs and weighted_max_min_into ordering.
  std::vector<double> caps;
  std::vector<double> weights;
  std::vector<double> extras;
  std::vector<std::size_t> wmm_order;
  /// Remaining trade budget per entity (cap_gain_at_contribution only).
  std::vector<double> budget;
  /// The entities with their shares scaled to fit an oversold pool.
  std::vector<AllocationEntity> fitted;
};

/// `entities` itself when the pool covers every type's initial shares;
/// otherwise a copy in `fitted` whose type-k shares are scaled by
/// Omega_k / sum_i S_k(i) for each oversold type k.  Sums within rounding
/// of the pool count as covered, so a pool computed as the same shares
/// summed in another order never scales.  IRT fits its entities before
/// Algorithm 1; the static-entitlement policies fit what they hand out.
std::span<const AllocationEntity> fit_shares_to_pool(
    const ResourceVector& capacity,
    std::span<const AllocationEntity> entities,
    std::vector<AllocationEntity>& fitted);

class IrtAllocator final : public Allocator {
 public:
  explicit IrtAllocator(IrtOptions options = {}) : options_(options) {}

  std::string name() const override { return "irt"; }

  AllocationResult allocate(
      const ResourceVector& capacity,
      std::span<const AllocationEntity> entities) const override;

  /// Like allocate() but also fills per-type traces (one per resource).
  AllocationResult allocate_traced(const ResourceVector& capacity,
                                   std::span<const AllocationEntity> entities,
                                   std::vector<IrtTypeTrace>* traces) const;

  /// The one IRT implementation, which allocate() and allocate_traced()
  /// wrap: writes the result into `out` (resized in place) and draws all
  /// scratch from `workspace`, so a steady-state call on a warmed `out`
  /// and workspace allocates nothing.  `traces` may be null.
  void allocate_into(const ResourceVector& capacity,
                     std::span<const AllocationEntity> entities,
                     AllocationResult& out, IrtWorkspace& workspace,
                     std::vector<IrtTypeTrace>* traces = nullptr) const;

  /// Lambda(i): total contribution of each entity across all types,
  /// C_k(i) = max(0, S_k(i) - D_k(i)).
  static std::vector<double> total_contributions(
      std::span<const AllocationEntity> entities);

 private:
  IrtOptions options_;
};

}  // namespace rrf::alloc
