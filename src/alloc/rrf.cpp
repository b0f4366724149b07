#include "alloc/rrf.hpp"

#include <cstddef>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "obs/profiler.hpp"

namespace rrf::alloc {

ResourceVector TenantGroup::share_total() const {
  RRF_REQUIRE(!vms.empty(), "tenant with no VMs");
  ResourceVector total(vms.front().initial_share.size());
  for (const auto& vm : vms) total += vm.initial_share;
  return total;
}

AllocationEntity TenantGroup::aggregate() const {
  AllocationEntity agg;
  agg.initial_share = share_total();
  agg.demand = ResourceVector(vms.front().demand.size());
  for (const auto& vm : vms) agg.demand += vm.demand;
  agg.banked_contribution = banked_contribution;
  agg.name = name;
  return agg;
}

HierarchicalResult RrfAllocator::allocate_hierarchical(
    const ResourceVector& capacity,
    std::span<const TenantGroup> tenants) const {
  std::vector<ResourceVector> shares;
  shares.reserve(tenants.size());
  std::size_t vm_count = 0;
  for (const TenantGroup& t : tenants) {
    shares.push_back(t.share_total());
    vm_count += t.vms.size();
  }
  std::vector<ResourceVector> grants(vm_count,
                                     ResourceVector(capacity.size()));
  RrfWorkspace workspace;
  allocate_hierarchical_into(capacity, tenants, shares, grants, workspace);

  HierarchicalResult out;
  out.tenant_level = std::move(workspace.tenant_level);
  out.tenant_headroom = std::move(workspace.tenant_headroom);
  out.vm_allocations.reserve(tenants.size());
  auto next = grants.begin();
  for (const TenantGroup& t : tenants) {
    const auto end = next + static_cast<std::ptrdiff_t>(t.vms.size());
    out.vm_allocations.emplace_back(next, end);
    next = end;
  }
  return out;
}

void RrfAllocator::allocate_hierarchical_into(
    const ResourceVector& capacity, std::span<const TenantGroup> tenants,
    std::span<const ResourceVector> tenant_shares,
    std::span<ResourceVector> vm_out, RrfWorkspace& ws) const {
  obs::ProfileScope profile("rrf.hierarchical");
  RRF_REQUIRE(!tenants.empty(), "no tenants");
  RRF_REQUIRE(tenant_shares.size() == tenants.size(),
              "tenant share totals length mismatch");
  const std::size_t m = tenants.size();

  // rrf-hot-path: begin(rrf.hierarchical)
  // Level 1: IRT over the tenant aggregates.
  ws.aggregates.resize(m);
  std::size_t vm_count = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::vector<AllocationEntity>& vms = tenants[i].vms;
    RRF_REQUIRE(!vms.empty(), "tenant with no VMs");
    AllocationEntity& agg = ws.aggregates[i];
    agg.initial_share = tenant_shares[i];
    agg.demand = ResourceVector(vms.front().demand.size());
    for (const AllocationEntity& vm : vms) agg.demand += vm.demand;
    agg.banked_contribution = tenants[i].banked_contribution;
    vm_count += vms.size();
  }
  RRF_REQUIRE(vm_out.size() == vm_count, "VM output span length mismatch");
  irt_.allocate_into(capacity, ws.aggregates, ws.tenant_level, ws.irt);

  // Level 2: IWA inside each tenant, seeded with its IRT entitlement.
  ws.tenant_headroom.resize(m);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t n = tenants[i].vms.size();
    iwa_distribute_into(ws.tenant_level.allocations[i], tenants[i].vms,
                        vm_out.subspan(offset, n), ws.tenant_headroom[i],
                        ws.iwa);
    offset += n;
  }
  // rrf-hot-path: end(rrf.hierarchical)

  if (contract::armed()) {
    // Hierarchy glue: the two levels must agree — per tenant and type, the
    // VM grants plus the tenant's retained headroom add up to exactly the
    // entitlement IRT handed down (no shares appear or vanish between
    // Algorithm 1 and Algorithm 2).
    offset = 0;
    for (std::size_t i = 0; i < m; ++i) {
      const std::span<const ResourceVector> grants =
          vm_out.subspan(offset, tenants[i].vms.size());
      offset += grants.size();
      for (std::size_t k = 0; k < capacity.size(); ++k) {
        double vm_sum = 0.0;
        for (const ResourceVector& a : grants) vm_sum += a[k];
        RRF_ENSURE("rrf.hierarchy_conserved",
                   approx_eq(vm_sum + ws.tenant_headroom[i][k],
                             ws.tenant_level.allocations[i][k], 1e-7),
                   "tenant " + std::to_string(i) + " type " +
                       std::to_string(k) + ": VM sum " +
                       std::to_string(vm_sum) + " + headroom " +
                       std::to_string(ws.tenant_headroom[i][k]) +
                       " != tenant grant " +
                       std::to_string(ws.tenant_level.allocations[i][k]));
      }
    }
  }
}

AllocationResult RrfAllocator::allocate(
    const ResourceVector& capacity,
    std::span<const AllocationEntity> entities) const {
  // Single-VM tenants: IWA is the identity, so flat RRF == IRT.
  return irt_.allocate(capacity, entities);
}

}  // namespace rrf::alloc
