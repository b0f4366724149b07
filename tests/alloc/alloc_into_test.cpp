// Workspace entry points of the RRF allocate path: IrtAllocator::
// allocate_into and RrfAllocator::allocate_hierarchical_into.
//
//  * IRT's per-type order (precomputed keys, index tie-break) equals the
//    order std::stable_sort produces with the comparator Algorithm 1
//    describes, on tie-heavy inputs and on both sides of every size the
//    sort might special-case.
//  * One workspace reused across sizes and policy variants gives results
//    bit-identical to the wrappers, which build a fresh workspace per call.
//  * A call on a warmed workspace attributes no heap bytes to its frame.
#include "alloc/rrf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "obs/profiler.hpp"

namespace rrf::alloc {
namespace {

constexpr double kEps = 1e-9;  // IRT's contributor threshold

/// Tenant counts on both sides of the small/large boundaries a sort
/// implementation may switch at, plus a large pool.  Not sorted, so one
/// reused workspace both grows and shrinks.
const std::vector<std::size_t> kSizes{33, 1, 200, 2, 31, 32};

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

void expect_same_bits(const ResourceVector& a, const ResourceVector& b,
                      const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_TRUE(same_bits(a[k], b[k]))
        << what << " type " << k << ": " << a[k] << " vs " << b[k];
  }
}

void expect_same_result(const AllocationResult& a, const AllocationResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.allocations.size(), b.allocations.size()) << what;
  for (std::size_t i = 0; i < a.allocations.size(); ++i) {
    expect_same_bits(a.allocations[i], b.allocations[i],
                     what + " entity " + std::to_string(i));
  }
  expect_same_bits(a.unallocated, b.unallocated, what + " unallocated");
  ASSERT_EQ(a.contribution_lambda.size(), b.contribution_lambda.size());
  for (std::size_t i = 0; i < a.contribution_lambda.size(); ++i) {
    EXPECT_TRUE(same_bits(a.contribution_lambda[i], b.contribution_lambda[i]))
        << what << " lambda " << i;
  }
}

/// One share/demand draw.  Tie-heavy draws come from a coarse grid, so
/// equal U and V values, exactly-met demands (D == S), zero shares and
/// zero-Lambda beneficiaries (V = inf) are all common.
ResourceVector draw(Rng& rng, bool tie_heavy, double lo, double hi) {
  ResourceVector v(2);
  for (std::size_t k = 0; k < 2; ++k) {
    v[k] = tie_heavy ? 50.0 * static_cast<double>(rng.uniform_int(
                                  static_cast<std::int64_t>(lo / 50.0),
                                  static_cast<std::int64_t>(hi / 50.0)))
                     : rng.uniform(lo, hi);
  }
  return v;
}

struct Pool {
  std::vector<TenantGroup> tenants;
  ResourceVector capacity{0.0, 0.0};
};

/// `tenants` groups of 1-4 VMs.  `banked` adds rrf-lt credit (positive
/// and negative); `pool_scale` < 1 overcommits the pool.
Pool make_pool(Rng& rng, std::size_t tenants, bool tie_heavy, bool banked,
               double pool_scale) {
  Pool pool;
  pool.tenants.resize(tenants);
  ResourceVector sold(2);
  for (TenantGroup& t : pool.tenants) {
    const auto vms = static_cast<std::size_t>(rng.uniform_int(1, 4));
    for (std::size_t j = 0; j < vms; ++j) {
      AllocationEntity vm;
      vm.initial_share = draw(rng, tie_heavy, 0.0, 300.0);
      vm.demand = draw(rng, tie_heavy, 0.0, 400.0);
      sold += vm.initial_share;
      t.vms.push_back(vm);
    }
    if (banked) t.banked_contribution = rng.uniform(-200.0, 400.0);
  }
  pool.capacity = sold * pool_scale;
  return pool;
}

std::vector<AllocationEntity> aggregates(const Pool& pool) {
  std::vector<AllocationEntity> out;
  for (const TenantGroup& t : pool.tenants) out.push_back(t.aggregate());
  return out;
}

/// Algorithm 1 lines 9-14 exactly as first implemented: a stable sort by
/// a comparator that recomputes U and V on every comparison.
std::vector<std::size_t> stable_reference_order(
    std::span<const AllocationEntity> entities,
    std::span<const double> lambda, std::size_t k) {
  auto is_contributor = [&](std::size_t i) {
    return entities[i].demand[k] < entities[i].initial_share[k] - kEps;
  };
  auto u_of = [&](std::size_t i) {
    const double s = entities[i].initial_share[k];
    return s > 0.0 ? entities[i].demand[k] / s : 0.0;
  };
  auto v_of = [&](std::size_t i) {
    const double need = entities[i].demand[k] - entities[i].initial_share[k];
    if (need <= 0.0) return 0.0;
    return lambda[i] > 0.0 ? need / lambda[i]
                           : std::numeric_limits<double>::infinity();
  };
  std::vector<std::size_t> order(entities.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     const bool ca = is_contributor(a);
                     const bool cb = is_contributor(b);
                     if (ca != cb) return ca;
                     if (ca) return u_of(a) < u_of(b);
                     return v_of(a) < v_of(b);
                   });
  return order;
}

struct Variant {
  const char* name;
  IrtOptions options;
  bool banked;
};

std::vector<Variant> variants() {
  IrtOptions sp;
  sp.cap_gain_at_contribution = true;
  IrtOptions linear;
  linear.search = IrtOptions::Search::kLinear;
  IrtOptions fallback;
  fallback.fallback = IrtOptions::SurplusFallback::kProportionalToShare;
  return {{"rrf", {}, false},
          {"rrf-sp", sp, false},
          {"rrf-lt", {}, true},
          {"linear", linear, false},
          {"fallback", fallback, true}};
}

TEST(IrtInto, KeyOrderEqualsStableSortComparatorOrder) {
  Rng rng(1301);
  for (const bool tie_heavy : {true, false}) {
    for (const std::size_t m : kSizes) {
      const Pool pool = make_pool(rng, m, tie_heavy, /*banked=*/true, 1.0);
      const std::vector<AllocationEntity> entities = aggregates(pool);
      std::vector<IrtTypeTrace> traces;
      IrtAllocator{}.allocate_traced(pool.capacity, entities, &traces);
      const std::vector<double> lambda =
          IrtAllocator::total_contributions(entities);
      ASSERT_EQ(traces.size(), 2u);
      for (std::size_t k = 0; k < 2; ++k) {
        EXPECT_EQ(traces[k].order, stable_reference_order(entities, lambda, k))
            << "m=" << m << " type " << k << " tie_heavy=" << tie_heavy;
      }
    }
  }
}

TEST(IrtInto, ReusedWorkspaceMatchesTheWrapperBitForBit) {
  Rng rng(1303);
  IrtWorkspace workspace;
  AllocationResult out;
  for (const Variant& variant : variants()) {
    const IrtAllocator irt(variant.options);
    for (const double pool_scale : {1.0, 0.6}) {
      for (const std::size_t m : kSizes) {
        const Pool pool =
            make_pool(rng, m, /*tie_heavy=*/true, variant.banked, pool_scale);
        const std::vector<AllocationEntity> entities = aggregates(pool);
        irt.allocate_into(pool.capacity, entities, out, workspace);
        expect_same_result(out, irt.allocate(pool.capacity, entities),
                           std::string(variant.name) +
                               " m=" + std::to_string(m) +
                               " scale=" + std::to_string(pool_scale));
      }
    }
  }
}

TEST(RrfInto, ReusedWorkspaceMatchesTheWrapperBitForBit) {
  Rng rng(1307);
  RrfWorkspace workspace;
  std::vector<ResourceVector> vm_out;
  for (const Variant& variant : variants()) {
    const RrfAllocator rrf(variant.options);
    for (const bool tie_heavy : {true, false}) {
      for (const double pool_scale : {1.0, 0.6}) {
        for (const std::size_t m : kSizes) {
          const std::string what = std::string(variant.name) +
                                   " m=" + std::to_string(m) +
                                   " tie_heavy=" + std::to_string(tie_heavy) +
                                   " scale=" + std::to_string(pool_scale);
          const Pool pool =
              make_pool(rng, m, tie_heavy, variant.banked, pool_scale);
          std::vector<ResourceVector> shares;
          std::size_t vm_count = 0;
          for (const TenantGroup& t : pool.tenants) {
            shares.push_back(t.share_total());
            vm_count += t.vms.size();
          }
          vm_out.assign(vm_count, ResourceVector(2));
          rrf.allocate_hierarchical_into(pool.capacity, pool.tenants, shares,
                                         vm_out, workspace);
          const HierarchicalResult expected =
              rrf.allocate_hierarchical(pool.capacity, pool.tenants);

          expect_same_result(workspace.tenant_level, expected.tenant_level,
                             what + " tenant level");
          ASSERT_EQ(expected.vm_allocations.size(), m) << what;
          std::size_t offset = 0;
          for (std::size_t g = 0; g < m; ++g) {
            expect_same_bits(workspace.tenant_headroom[g],
                             expected.tenant_headroom[g],
                             what + " headroom " + std::to_string(g));
            for (const ResourceVector& grant : expected.vm_allocations[g]) {
              expect_same_bits(vm_out[offset], grant,
                               what + " VM " + std::to_string(offset));
              ++offset;
            }
          }
          EXPECT_EQ(offset, vm_count) << what;
        }
      }
    }
  }
}

/// Self plus descendant bytes of the first merged frame named `site`
/// (preorder: the subtree is the run of deeper nodes that follows it).
std::uint64_t subtree_bytes(const obs::ProfileSnapshot& snapshot,
                            const std::string& site) {
  const std::vector<obs::ProfileNode>& nodes = snapshot.merged;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].site != site) continue;
    std::uint64_t bytes = nodes[i].bytes;
    for (std::size_t j = i + 1;
         j < nodes.size() && nodes[j].depth > nodes[i].depth; ++j) {
      bytes += nodes[j].bytes;
    }
    return bytes;
  }
  ADD_FAILURE() << "no profile frame " << site;
  return 0;
}

TEST(RrfInto, WarmedWorkspaceCallAllocatesNothing) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const bool profiling_before = obs::profiling_enabled();
  obs::set_profiling_enabled(true);
  Rng rng(1319);
  for (const Variant& variant : variants()) {
    const RrfAllocator rrf(variant.options);
    // Warm on the larger pool, then reuse the workspace on a smaller one
    // with fresh demands: a shard's workspace sees nodes of many sizes.
    const Pool large = make_pool(rng, 33, false, variant.banked, 0.8);
    Pool small = make_pool(rng, 32, false, variant.banked, 0.8);
    std::vector<ResourceVector> large_shares, small_shares;
    for (const TenantGroup& t : large.tenants) {
      large_shares.push_back(t.share_total());
    }
    for (const TenantGroup& t : small.tenants) {
      small_shares.push_back(t.share_total());
    }
    std::vector<ResourceVector> vm_out(200, ResourceVector(2));
    auto vm_span = [&](const Pool& pool) {
      std::size_t n = 0;
      for (const TenantGroup& t : pool.tenants) n += t.vms.size();
      return std::span<ResourceVector>(vm_out.data(), n);
    };
    RrfWorkspace workspace;

    obs::profile_reset();
    {
      obs::ProfileScope frame("test.rrf_into");
      rrf.allocate_hierarchical_into(large.capacity, large.tenants,
                                     large_shares, vm_span(large), workspace);
    }
    // The cold call grows the workspace, which proves the hook counts.
    EXPECT_GT(subtree_bytes(obs::profile_snapshot(), "test.rrf_into"), 0u)
        << variant.name;

    for (TenantGroup& t : small.tenants) {
      for (AllocationEntity& vm : t.vms) {
        vm.demand = draw(rng, false, 0.0, 400.0);
      }
    }
    obs::profile_reset();  // frames stay in the tree; counters restart
    {
      obs::ProfileScope frame("test.rrf_into");
      rrf.allocate_hierarchical_into(small.capacity, small.tenants,
                                     small_shares, vm_span(small), workspace);
    }
    EXPECT_EQ(subtree_bytes(obs::profile_snapshot(), "test.rrf_into"), 0u)
        << variant.name;
  }
  obs::profile_reset();
  obs::set_profiling_enabled(profiling_before);
}

}  // namespace
}  // namespace rrf::alloc
