// Reciprocal Resource Fairness (RRF) — the paper's full mechanism:
// inter-tenant resource trading (IRT, Algorithm 1) at the tenant level
// composed with intra-tenant weight adjustment (IWA, Algorithm 2) inside
// each tenant.
//
// The hierarchical entry point takes tenants-with-VMs; a tenant's share and
// demand at the IRT level are the sums over its VMs.  A flat Allocator
// adapter is also provided so RRF can be compared against the baselines on
// single-level scenarios (each entity = one single-VM tenant, in which case
// IWA is the identity).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "alloc/allocator.hpp"
#include "alloc/irt.hpp"
#include "alloc/iwa.hpp"

namespace rrf::alloc {

/// One tenant's VMs for hierarchical allocation.  Each VM entity carries
/// its initial share vector s(j) and demand vector d(j).
struct TenantGroup {
  std::vector<AllocationEntity> vms;
  std::string name;
  /// Tenant-level long-term contribution credit (rrf-lt); see
  /// AllocationEntity::banked_contribution.
  double banked_contribution{0.0};

  /// S(i): the sum of the VMs' initial shares, in VM order.
  ResourceVector share_total() const;

  /// Tenant-level aggregates (S(i) / D(i) in Algorithm 1).
  AllocationEntity aggregate() const;
};

/// Caller-owned scratch for RrfAllocator::allocate_hierarchical_into.
/// Every buffer is resized in place, so a workspace reused for calls of at
/// most the same tenant and VM counts performs no heap allocation.  After
/// a call it holds that call's tenant-level results.
struct RrfWorkspace {
  /// IRT inputs: S(i) from the caller's cached totals, D(i) summed over
  /// the VMs.  Names stay empty (IRT never reads them).
  std::vector<AllocationEntity> aggregates;
  /// Tenant-level entitlements and Lambda(i) (output of IRT).
  AllocationResult tenant_level;
  /// Per-tenant headroom IWA could not place in any VM.
  std::vector<ResourceVector> tenant_headroom;
  IrtWorkspace irt;
  IwaWorkspace iwa;
};

struct HierarchicalResult {
  /// Tenant-level entitlements (output of IRT).
  AllocationResult tenant_level;
  /// Per-tenant, per-VM share grants (output of IWA).
  std::vector<std::vector<ResourceVector>> vm_allocations;
  /// Per-tenant headroom IWA could not place in any VM.
  std::vector<ResourceVector> tenant_headroom;
};

class RrfAllocator final : public Allocator {
 public:
  explicit RrfAllocator(IrtOptions irt_options = {}) : irt_(irt_options) {}

  std::string name() const override { return "rrf"; }

  /// Full hierarchical allocation: IRT across tenants, IWA within each.
  HierarchicalResult allocate_hierarchical(
      const ResourceVector& capacity,
      std::span<const TenantGroup> tenants) const;

  /// The one hierarchical implementation, which allocate_hierarchical()
  /// wraps.  `tenant_shares[g]` must equal tenants[g].share_total() (the
  /// engine caches it per node).  VM grants land in `vm_out` in group
  /// order: tenant g's VMs fill [offset_g, offset_g + tenants[g].vms.size())
  /// with offset_g the VM count of the groups before g.  Tenant-level
  /// results stay in `workspace` until its next use.
  void allocate_hierarchical_into(const ResourceVector& capacity,
                                  std::span<const TenantGroup> tenants,
                                  std::span<const ResourceVector> tenant_shares,
                                  std::span<ResourceVector> vm_out,
                                  RrfWorkspace& workspace) const;

  /// Flat adapter: every entity is treated as a single-VM tenant.
  AllocationResult allocate(
      const ResourceVector& capacity,
      std::span<const AllocationEntity> entities) const override;

  const IrtAllocator& irt() const { return irt_; }

 private:
  IrtAllocator irt_;
};

}  // namespace rrf::alloc
