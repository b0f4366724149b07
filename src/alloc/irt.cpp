#include "alloc/irt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <vector>

#include "alloc/contract_checks.hpp"
#include "alloc/wmmf.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"

namespace rrf::alloc {

namespace {

constexpr double kEps = 1e-9;

/// State for one resource type's boundary search over a fixed order.
///
/// Positions [0, v) are capped at demand; positions [v, m) keep their
/// initial share plus a Lambda-proportional cut of the leftover
///   psi(v) = Omega_k - sum_{t<v} D(o_t) - sum_{t>=v} S(o_t).
///
/// sat(v) asks: would the entity at position v-1 be satisfied if it were
/// NOT capped (i.e. boundary at v-1)?  This is inequality (1) of the paper;
/// sat(v+1) being false is inequality (2).
///
/// Monotonicity (enables binary search): write phi(v) = psi(v)/suffixLambda(v)
/// for the fill factor.  Moving a satisfied entity i across the boundary
/// updates phi' = (phi*L - V_i*Lambda_i)/(L - Lambda_i) >= phi whenever
/// phi >= V_i, and the V_i are ascending along the order — so sat() is true
/// on a prefix and false after it.
class BoundarySearch {
 public:
  /// The three cumulative-sum tables live in the caller's workspace, so
  /// the per-resource-type loop reuses its heap blocks across types and
  /// calls.
  BoundarySearch(double capacity, std::span<const AllocationEntity> entities,
                 std::span<const double> lambda,
                 std::span<const std::size_t> order, std::size_t k,
                 IrtWorkspace& ws)
      : entities_(entities),
        lambda_(lambda),
        order_(order),
        k_(k),
        prefix_demand_(ws.prefix_demand),
        suffix_share_(ws.suffix_share),
        suffix_lambda_(ws.suffix_lambda) {
    const std::size_t m = order.size();
    prefix_demand_.assign(m + 1, 0.0);
    suffix_share_.assign(m + 1, 0.0);
    suffix_lambda_.assign(m + 1, 0.0);
    for (std::size_t t = 0; t < m; ++t) {
      prefix_demand_[t + 1] =
          prefix_demand_[t] + entities[order[t]].demand[k];
    }
    for (std::size_t t = m; t-- > 0;) {
      suffix_share_[t] =
          suffix_share_[t + 1] + entities[order[t]].initial_share[k];
      suffix_lambda_[t] = suffix_lambda_[t + 1] + lambda[order[t]];
    }
    capacity_ = capacity;
  }

  /// psi with the first `v` positions capped at demand.
  double psi(std::size_t v) const {
    return capacity_ - prefix_demand_[v] - suffix_share_[v];
  }

  double suffix_lambda(std::size_t v) const { return suffix_lambda_[v]; }

  /// Inequality (1) for boundary v (>= 1): entity at position v-1 would be
  /// satisfied by share + its proportional cut if left uncapped.
  bool sat(std::size_t v) const {
    RRF_ASSERT(v >= 1 && v <= order_.size());
    const std::size_t i = order_[v - 1];
    const double need =
        entities_[i].demand[k_] - entities_[i].initial_share[k_];
    if (need <= kEps) return true;  // contributors / exactly-met entities
    const double lam_suffix = suffix_lambda_[v - 1];
    if (lam_suffix <= 0.0) return false;  // nothing to redistribute with
    const double extra = psi(v - 1) * lambda_[i] / lam_suffix;
    return extra + kEps >= need;
  }

 private:
  std::span<const AllocationEntity> entities_;
  std::span<const double> lambda_;
  std::span<const std::size_t> order_;
  std::size_t k_;
  double capacity_{0.0};
  std::vector<double>& prefix_demand_;
  std::vector<double>& suffix_share_;
  std::vector<double>& suffix_lambda_;
};

/// Lambda(i) into `lambda` (lambda.size() == entities.size()).
void fill_contributions(std::span<const AllocationEntity> entities,
                        std::span<double> lambda) {
  for (std::size_t i = 0; i < entities.size(); ++i) {
    // Instantaneous contribution plus any banked long-term credit
    // (rrf-lt); clamped so a debtor never gets negative priority.
    lambda[i] = std::max(
        0.0,
        entities[i].initial_share.surplus_over(entities[i].demand).sum() +
            entities[i].banked_contribution);
  }
}

}  // namespace

std::span<const AllocationEntity> fit_shares_to_pool(
    const ResourceVector& capacity,
    std::span<const AllocationEntity> entities,
    std::vector<AllocationEntity>& fitted) {
  ResourceVector sold(capacity.size());
  for (const AllocationEntity& e : entities) sold += e.initial_share;
  bool oversold = false;
  for (std::size_t k = 0; k < capacity.size(); ++k) {
    oversold = oversold || !approx_le(sold[k], capacity[k], kEps);
  }
  if (!oversold) return entities;
  fitted.assign(entities.begin(), entities.end());
  for (std::size_t k = 0; k < capacity.size(); ++k) {
    if (approx_le(sold[k], capacity[k], kEps)) continue;
    const double scale = capacity[k] / sold[k];
    for (AllocationEntity& e : fitted) e.initial_share[k] *= scale;
  }
  return fitted;
}

std::vector<double> IrtAllocator::total_contributions(
    std::span<const AllocationEntity> entities) {
  std::vector<double> lambda(entities.size(), 0.0);
  fill_contributions(entities, lambda);
  return lambda;
}

AllocationResult IrtAllocator::allocate(
    const ResourceVector& capacity,
    std::span<const AllocationEntity> entities) const {
  return allocate_traced(capacity, entities, nullptr);
}

AllocationResult IrtAllocator::allocate_traced(
    const ResourceVector& capacity,
    std::span<const AllocationEntity> entities,
    std::vector<IrtTypeTrace>* traces) const {
  AllocationResult result;
  IrtWorkspace workspace;
  allocate_into(capacity, entities, result, workspace, traces);
  return result;
}

void IrtAllocator::allocate_into(const ResourceVector& capacity,
                                 std::span<const AllocationEntity> entities,
                                 AllocationResult& result, IrtWorkspace& ws,
                                 std::vector<IrtTypeTrace>* traces) const {
  obs::ProfileScope profile("irt.allocate");
  validate_entities(capacity, entities);
  const std::size_t p = capacity.size();
  const std::size_t m = entities.size();

  if (obs::metrics_enabled()) {
    static obs::Counter& invocations =
        obs::metrics().counter("irt.invocations");
    invocations.add();
  }

  // rrf-hot-path: begin(irt.allocate)
  // An oversold pool (Omega_k < sum S_k, e.g. a node whose sold shares
  // exceed what its host can back) first scales every type-k initial
  // share by Omega_k / sum S_k.  Algorithm 1 then runs unchanged on shares
  // the pool can honour: the share ratios survive, and the prefix granted
  // its full demand in lines 16-20 can no longer overrun the pool.
  entities = fit_shares_to_pool(capacity, entities, ws.fitted);
  // Lines 1-8: initial shares, per-type contributions, total Lambda(i).
  result.contribution_lambda.resize(m);
  fill_contributions(entities, result.contribution_lambda);
  const std::span<const double> lambda = result.contribution_lambda;

  if (contract::armed()) {
    // Lambda(i) is a clamped sum of per-type surpluses, so it is bounded
    // by the entity's aggregate share plus any banked long-term credit
    // (paper Algorithm 1 lines 1-8; banked term is the rrf-lt extension).
    for (std::size_t i = 0; i < m; ++i) {
      const double bound = entities[i].initial_share.sum() +
                           std::max(0.0, entities[i].banked_contribution);
      RRF_INVARIANT("irt.lambda_range",
                    lambda[i] >= 0.0 && approx_le(lambda[i], bound, 1e-9),
                    "entity " + std::to_string(i) + " Lambda " +
                        std::to_string(lambda[i]) + " outside [0, " +
                        std::to_string(bound) + "]");
    }
  }

  result.allocations.assign(m, ResourceVector(p));
  result.unallocated = ResourceVector(p);
  if (traces) traces->assign(p, IrtTypeTrace{});

  // Trade budgets for the strategy-proof variant: a tenant's cumulative
  // gain across all types may not exceed her total contribution.
  std::vector<double>& budget = ws.budget;
  if (options_.cap_gain_at_contribution) {
    budget.assign(lambda.begin(), lambda.end());
  }

  // Per-type scratch, reused across the k loop and across calls: the
  // sort keys and order are re-filled each type, the cumulative tables
  // are reassigned by the BoundarySearch constructor, and the suffix
  // water-fill buffers cover at most m entities.
  ws.keys.resize(m);
  ws.order.resize(m);
  ws.caps.resize(m);
  ws.weights.resize(m);
  ws.extras.resize(m);
  ws.wmm_order.reserve(m);
  const std::span<const std::size_t> order = ws.order;

  for (std::size_t k = 0; k < p; ++k) {
    // ---- ordering: contributors by ascending U, then beneficiaries by
    // ascending V (lines 9-14). ----
    // The keys are computed once per entity; ties keep index order, so
    // the order equals a stable sort by (beneficiary, U or V) -- see
    // DESIGN.md §5.
    std::size_t u = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const double d = entities[i].demand[k];
      const double s = entities[i].initial_share[k];
      const double need = d - s;
      IrtWorkspace::SortKey& key = ws.keys[i];
      key.beneficiary = !(d < s - kEps);
      if (!key.beneficiary) {
        key.value = s > 0.0 ? d / s : 0.0;
        ++u;
      } else if (need <= 0.0) {
        key.value = 0.0;
      } else {
        key.value = lambda[i] > 0.0 ? need / lambda[i]
                                    : std::numeric_limits<double>::infinity();
      }
    }
    std::iota(ws.order.begin(), ws.order.end(), 0);
    const IrtWorkspace::SortKey* keys = ws.keys.data();
    std::sort(ws.order.begin(), ws.order.end(),
              [keys](std::size_t a, std::size_t b) {
                const IrtWorkspace::SortKey& ka = keys[a];
                const IrtWorkspace::SortKey& kb = keys[b];
                if (ka.beneficiary != kb.beneficiary) return kb.beneficiary;
                if (ka.value != kb.value) return ka.value < kb.value;
                return a < b;
              });

    // ---- boundary search (line 15). ----
    const BoundarySearch search(capacity[k], entities, lambda, order, k,
                                ws);
    std::size_t v = u;
    if (options_.cap_gain_at_contribution) {
      // Budget caps break the monotonicity proof, so the strategy-proof
      // variant always scans linearly: the prefix grows while the next
      // entity is satisfiable within both its proportional cut and its
      // remaining trade budget.
      while (v < m) {
        const std::size_t i = order[v];
        const double need =
            entities[i].demand[k] - entities[i].initial_share[k];
        if (need > budget[i] + kEps) break;
        if (!search.sat(v + 1)) break;
        ++v;
      }
    } else if (options_.search == IrtOptions::Search::kBinary) {
      // Largest v in [u, m] with (v == u or sat(v)); sat is monotone.
      std::size_t lo = u, hi = m;
      while (lo < hi) {
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        if (mid == u || search.sat(mid)) {
          lo = mid;
        } else {
          hi = mid - 1;
        }
      }
      v = lo;
    } else {
      v = u;
      while (v < m && search.sat(v + 1)) ++v;
    }

    if (contract::armed() && !options_.cap_gain_at_contribution) {
      // Boundary-table monotonicity (the binary search's correctness
      // argument, see the BoundarySearch comment): sat() must be true on
      // the whole accepted prefix (u, v] and false at v + 1, exactly the
      // state a linear scan would have stopped in.
      for (std::size_t t = u + 1; t <= v; ++t) {
        RRF_INVARIANT("irt.boundary_monotone", search.sat(t),
                      "type " + std::to_string(k) + ": accepted position " +
                          std::to_string(t) + " of boundary " +
                          std::to_string(v) + " is unsatisfiable");
      }
      RRF_INVARIANT("irt.boundary_monotone", v >= m || !search.sat(v + 1),
                    "type " + std::to_string(k) + ": boundary " +
                        std::to_string(v) +
                        " stopped although the next entity is satisfiable");
    }

    // ---- allocation (lines 16-20). ----
    const double psi = search.psi(v);
    const double lam_suffix = search.suffix_lambda(v);
    double allocated = 0.0;
    for (std::size_t t = 0; t < v; ++t) {
      const std::size_t i = order[t];
      result.allocations[i][k] = entities[i].demand[k];
      allocated += entities[i].demand[k];
      if (options_.cap_gain_at_contribution) {
        budget[i] = std::max(0.0, budget[i] - std::max(0.0,
            entities[i].demand[k] - entities[i].initial_share[k]));
      }
    }
    if (v < m) {
      if (options_.cap_gain_at_contribution && psi >= 0.0) {
        // Strategy-proof variant: water-fill the surplus over the suffix
        // weighted by contribution, with each gain capped at both the
        // unmet need and the remaining trade budget.  Unplaceable surplus
        // idles (spreading it would reopen the free-gain loophole).
        const std::size_t rest = m - v;
        const std::span<double> caps(ws.caps.data(), rest);
        const std::span<double> weights(ws.weights.data(), rest);
        const std::span<double> extras(ws.extras.data(), rest);
        for (std::size_t t = 0; t < rest; ++t) {
          const std::size_t i = order[v + t];
          const double need = std::max(
              0.0, entities[i].demand[k] - entities[i].initial_share[k]);
          caps[t] = std::min(need, budget[i]);
          weights[t] = lambda[i];
        }
        weighted_max_min_into(psi, caps, weights, extras, ws.wmm_order);
        for (std::size_t t = 0; t < rest; ++t) {
          const std::size_t i = order[v + t];
          result.allocations[i][k] = entities[i].initial_share[k] + extras[t];
          allocated += result.allocations[i][k];
          budget[i] = std::max(0.0, budget[i] - extras[t]);
        }
      } else if (psi >= 0.0 && lam_suffix > 0.0) {
        // Redistribute psi to the unsatisfied suffix by contribution.
        for (std::size_t t = v; t < m; ++t) {
          const std::size_t i = order[t];
          const double grant = entities[i].initial_share[k] +
                               psi * lambda[i] / lam_suffix;
          result.allocations[i][k] = grant;
          allocated += grant;
        }
        if (contract::armed()) {
          // Gain-as-you-contribute (Algorithm 1 line 20 / Table II): every
          // uncapped entity's gain over its initial share is proportional
          // to its Lambda, i.e. gain_i * Lambda_j == gain_j * Lambda_i.
          const std::size_t a = order[v];
          const double gain_a =
              result.allocations[a][k] - entities[a].initial_share[k];
          for (std::size_t t = v + 1; t < m; ++t) {
            const std::size_t i = order[t];
            const double gain_i =
                result.allocations[i][k] - entities[i].initial_share[k];
            RRF_INVARIANT(
                "irt.gain_proportional_to_lambda",
                approx_eq(gain_i * lambda[a], gain_a * lambda[i],
                          1e-9 * std::max(1.0, psi * psi)),
                "type " + std::to_string(k) + ": gains " +
                    std::to_string(gain_a) + "/" + std::to_string(gain_i) +
                    " not in Lambda ratio " + std::to_string(lambda[a]) +
                    "/" + std::to_string(lambda[i]));
          }
        }
      } else if (psi >= 0.0) {
        // Nobody in the suffix contributed anything: psi is
        // undistributable under gain-as-you-contribute.  The optional
        // fallback water-fills it by share, capped at each entity's
        // remaining need (keeping the fallback Pareto-efficient).
        const std::size_t rest = m - v;
        const std::span<double> extras(ws.extras.data(), rest);
        std::fill(extras.begin(), extras.end(), 0.0);
        if (options_.fallback ==
            IrtOptions::SurplusFallback::kProportionalToShare) {
          const std::span<double> needs(ws.caps.data(), rest);
          const std::span<double> weights(ws.weights.data(), rest);
          for (std::size_t t = 0; t < rest; ++t) {
            const std::size_t i = order[v + t];
            needs[t] = std::max(
                0.0, entities[i].demand[k] - entities[i].initial_share[k]);
            weights[t] = entities[i].initial_share[k];
          }
          weighted_max_min_into(psi, needs, weights, extras, ws.wmm_order);
        }
        for (std::size_t t = 0; t < rest; ++t) {
          const std::size_t i = order[v + t];
          const double grant =
              entities[i].initial_share[k] + extras[t];
          result.allocations[i][k] = grant;
          allocated += grant;
        }
      } else {
        // psi < 0: the shares already fit the pool (fit_shares_to_pool),
        // so only the kEps slack of the satisfied prefix gets here.  Scale
        // the suffix's shares down proportionally so the type fits.
        double suffix_share = 0.0;
        for (std::size_t t = v; t < m; ++t) {
          suffix_share += entities[order[t]].initial_share[k];
        }
        const double available = std::max(0.0, capacity[k] - allocated);
        const double scale =
            suffix_share > 0.0 ? available / suffix_share : 0.0;
        for (std::size_t t = v; t < m; ++t) {
          const std::size_t i = order[t];
          const double grant = entities[i].initial_share[k] * scale;
          result.allocations[i][k] = grant;
          allocated += grant;
        }
      }
    }
    result.unallocated[k] = std::max(0.0, capacity[k] - allocated);

    if (contract::armed()) {
      // Reciprocity (paper Table II "contributed == gained"): when the pool
      // is exactly the sum of initial shares — the normal case, the engine
      // always hands IRT pool == sum(S) — every share some entity gives up
      // is either picked up by another entity or reported idle.
      double total_share = 0.0, contributed = 0.0, gained = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double s = entities[i].initial_share[k];
        const double delta = result.allocations[i][k] - s;
        total_share += s;
        if (delta < 0.0) {
          contributed -= delta;
        } else {
          gained += delta;
        }
      }
      if (approx_eq(total_share, capacity[k], 1e-9)) {
        RRF_ENSURE("irt.contributed_equals_gained",
                   approx_eq(contributed, gained + result.unallocated[k],
                             1e-7),
                   "type " + std::to_string(k) + ": contributed " +
                       std::to_string(contributed) + " != gained " +
                       std::to_string(gained) + " + idle " +
                       std::to_string(result.unallocated[k]));
      }
    }

    if (traces) {
      (*traces)[k].order = ws.order;
      (*traces)[k].contributor_count = u;
      (*traces)[k].capped_count = v;
      (*traces)[k].redistributed = std::max(0.0, psi);
    }

    if (obs::ProvenanceRound* sink = obs::provenance_sink()) {
      sink->irt_types.push_back(
          obs::ProvenanceIrtType{u, v, std::max(0.0, psi)});
    }

    if (obs::metrics_enabled()) {
      static obs::Histogram& redistributed = obs::metrics().histogram(
          "irt.redistributed_shares", obs::default_magnitude_bounds());
      redistributed.observe(std::max(0.0, psi));
    }
    if (obs::tracing_enabled()) {
      // One trade event per entity whose grant moved away from its initial
      // share: negative value = shares contributed, positive = received.
      obs::EventTracer& tr = obs::tracer();
      for (std::size_t i = 0; i < m; ++i) {
        const double delta =
            result.allocations[i][k] - entities[i].initial_share[k];
        if (std::abs(delta) <= kEps) continue;
        obs::TraceEvent e;
        e.kind = obs::EventKind::kIrtTrade;
        e.tenant = static_cast<std::int32_t>(i);
        e.resource = static_cast<std::int8_t>(k);
        e.value = delta;
        e.value2 = lambda[i];
        tr.record(e);
      }
    }
  }
  // rrf-hot-path: end(irt.allocate)

  if (obs::ProvenanceRound* sink = obs::provenance_sink()) {
    sink->has_irt = true;
    sink->irt_lambda = result.contribution_lambda;
    sink->irt_share.clear();
    sink->irt_demand.clear();
    sink->irt_share.reserve(m);
    sink->irt_demand.reserve(m);
    for (const AllocationEntity& e : entities) {
      sink->irt_share.push_back(e.initial_share);
      sink->irt_demand.push_back(e.demand);
    }
    sink->irt_grant = result.allocations;
  }

  if (contract::armed()) {
    if (options_.cap_gain_at_contribution) {
      // Strategy-proofness (the sp variant's defining property): no entity
      // gains more across all types than its total contribution Lambda(i).
      for (std::size_t i = 0; i < m; ++i) {
        double gain = 0.0;
        for (std::size_t k = 0; k < p; ++k) {
          gain += std::max(0.0, result.allocations[i][k] -
                                    entities[i].initial_share[k]);
        }
        RRF_ENSURE("irt.gain_capped_at_contribution",
                   approx_le(gain, lambda[i], 1e-7),
                   "entity " + std::to_string(i) + " gained " +
                       std::to_string(gain) + " > Lambda " +
                       std::to_string(lambda[i]));
      }
    }
    check_allocation_contracts("irt", capacity, entities, result,
                               {.demand_capped = true});
  }
}

}  // namespace rrf::alloc
