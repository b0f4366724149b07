#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <optional>
#include <set>
#include <span>

#include "alloc/drf.hpp"
#include "alloc/iwa.hpp"
#include "alloc/rrf.hpp"
#include "alloc/tshirt.hpp"
#include "alloc/wmmf.hpp"
#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/float_eq.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "hypervisor/node.hpp"
#include "obs/flightrec.hpp"
#include "obs/incident.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/ops.hpp"
#include "obs/phase.hpp"
#include "obs/profiler.hpp"
#include "obs/provenance.hpp"
#include "obs/trace.hpp"
#include "sim/shard.hpp"

namespace rrf::sim {

std::string to_string(PolicyKind policy) {
  switch (policy) {
    case PolicyKind::kTshirt: return "tshirt";
    case PolicyKind::kWmmf: return "wmmf";
    case PolicyKind::kDrf: return "drf";
    case PolicyKind::kDrfSeq: return "drf-seq";
    case PolicyKind::kIwaOnly: return "iwa";
    case PolicyKind::kRrf: return "rrf";
    case PolicyKind::kRrfSp: return "rrf-sp";
    case PolicyKind::kRrfLt: return "rrf-lt";
  }
  return "unknown";
}

PolicyKind policy_from_string(const std::string& name) {
  if (name == "tshirt") return PolicyKind::kTshirt;
  if (name == "wmmf") return PolicyKind::kWmmf;
  if (name == "drf") return PolicyKind::kDrf;
  if (name == "drf-seq") return PolicyKind::kDrfSeq;
  if (name == "iwa") return PolicyKind::kIwaOnly;
  if (name == "rrf") return PolicyKind::kRrf;
  if (name == "rrf-sp") return PolicyKind::kRrfSp;
  if (name == "rrf-lt") return PolicyKind::kRrfLt;
  throw DomainError("unknown policy: " + name);
}

std::vector<PolicyKind> paper_policies() {
  return {PolicyKind::kTshirt, PolicyKind::kWmmf, PolicyKind::kDrf,
          PolicyKind::kIwaOnly, PolicyKind::kRrf};
}

namespace {

/// One VM placed on a node, together with its slot-local state (which
/// travels with the VM when the load balancer migrates it).
struct VmSlot {
  std::size_t tenant;
  std::size_t vm;
  ResourceVector initial_share;  // in shares
  DemandPredictor predictor;
  /// Smoothed demand estimate (capacity units) the rebalancer plans on.
  ResourceVector demand_ema{0.0, 0.0};
  /// Remaining windows of post-migration degradation.
  std::size_t migration_penalty{0};
};

/// Per-node simulation state.
///
/// Besides the slot list and the hypervisor facade this carries the
/// node's *allocation scaffolding cache*: the tenant grouping, flat
/// entity list, pool and capacity share vectors are functions of the
/// slot membership only, so they are rebuilt exactly when membership
/// changes (initial placement, live migration) instead of every round.
/// Each round merely overwrites the per-entity demand values in place.
/// Per-round scratch buffers live here too so the steady-state round
/// performs no heap allocation for them; NodeState is touched by one
/// thread at a time (parallel_for hands each node to one worker).
struct NodeState {
  std::vector<VmSlot> slots;
  std::unique_ptr<hv::HypervisorNode> hv_node;
  // Scratch, refreshed every window:
  std::vector<ResourceVector> actual_demand;      // capacity units
  std::vector<ResourceVector> entitlement_shares; // shares
  std::vector<ResourceVector> realized;           // capacity units
  /// Wall time per round phase, accumulated by the PhaseScopes.
  std::array<double, obs::kPhaseCount> phase_seconds{};
  std::size_t alloc_invocations{0};

  // ---- allocation scaffolding (valid while slot membership unchanged) ----
  /// Sum of the slots' initial shares (the pool the policy arbitrates).
  ResourceVector pool{kDefaultResourceCount};
  /// pricing.shares_for(host capacity), fixed per host.
  ResourceVector capacity_shares{kDefaultResourceCount};
  /// Flat policies view every VM as one entity (demand refreshed per
  /// round; initial share and weight are membership-static).
  std::vector<alloc::AllocationEntity> flat_entities;
  /// Tenants present on this node, ascending (the order std::map-based
  /// grouping used to produce, so allocations stay bit-identical).
  std::vector<std::size_t> tenant_ids;
  /// Hierarchical grouping: per tenant, its VMs in slot order.
  std::vector<alloc::TenantGroup> groups;
  /// Per-group sum of initial shares: IRT's tenant share S(i) and
  /// IWA-only's static entitlement.
  std::vector<ResourceVector> group_totals;
  /// slot index -> (group index, VM index within the group).
  std::vector<std::pair<std::size_t, std::size_t>> slot_group;
  /// slot index -> its VM's position in the group-order grant span the
  /// hierarchical policies fill (ShardScratch::vm_grants).
  std::vector<std::size_t> slot_grant;

  // ---- per-round scratch ----
  std::vector<ResourceVector> demand_shares;  // forecast, in shares
  std::vector<double> residual;
  std::vector<double> weights;
  std::vector<ResourceVector> beta_shares;
  std::vector<double> slot_contributed;
  std::vector<double> slot_gained;
  std::vector<double> node_lambda;  // indexed by global tenant id
  // Exchange inputs, filled by the settle phase and consumed by the
  // window's canonical serial merge: the slot's demand in shares and its
  // migration-adjusted perf score.  Keeping them per-node makes the
  // parallel round lock-free — no shared accumulator is touched until
  // the merge walks the nodes in ascending order.
  std::vector<ResourceVector> slot_demand_shares;
  std::vector<double> slot_score;
  /// Surplus-pass outputs and ordering scratch for weighted_max_min_into
  /// (the per-round surplus water-fill must not heap-allocate).
  std::vector<double> surplus_extra;
  std::vector<std::size_t> wmm_order;

  double& phase_accum(obs::Phase phase) {
    return phase_seconds[static_cast<std::size_t>(phase)];
  }
};

/// Allocation scratch for the nodes of one shard.  A shard runs its nodes
/// one after another on one thread, so one workspace per shard suffices
/// (the serial engine holds exactly one); it grows to the shard's largest
/// node and is reused by every later round without heap allocation.
struct ShardScratch {
  alloc::RrfWorkspace rrf;
  /// VM grants of the hierarchical policies, in group order.
  std::vector<ResourceVector> vm_grants;
};

/// Rebuilds the allocation scaffolding after slot membership changed.
void refresh_alloc_cache(NodeState& node, const ResourceVector& host_capacity,
                         const PricingModel& pricing,
                         std::size_t tenant_count) {
  const std::size_t n = node.slots.size();

  node.pool = ResourceVector(kDefaultResourceCount);
  for (const VmSlot& slot : node.slots) node.pool += slot.initial_share;
  node.capacity_shares = pricing.shares_for(host_capacity);
  // The arbitrated pool is the sold shares, capped at what the host can
  // physically back: an oversold node cannot grant shares it does not
  // have, so its tenants contend for the capacity-backed pool and their
  // share-vs-entitlement ratios drop below 1.  When sold <= capacity —
  // every placed paper scenario and any synthetic fill*overcommit <= 1 —
  // the cap is a no-op and allocation is bit-identical.
  for (std::size_t k = 0; k < node.pool.size(); ++k) {
    node.pool[k] = std::min(node.pool[k], node.capacity_shares[k]);
  }

  node.flat_entities.assign(n, alloc::AllocationEntity());
  for (std::size_t i = 0; i < n; ++i) {
    node.flat_entities[i].initial_share = node.slots[i].initial_share;
    node.flat_entities[i].weight = node.slots[i].initial_share.sum();
  }

  node.tenant_ids.clear();
  for (const VmSlot& slot : node.slots) node.tenant_ids.push_back(slot.tenant);
  std::sort(node.tenant_ids.begin(), node.tenant_ids.end());
  node.tenant_ids.erase(
      std::unique(node.tenant_ids.begin(), node.tenant_ids.end()),
      node.tenant_ids.end());

  node.groups.assign(node.tenant_ids.size(), alloc::TenantGroup{});
  node.slot_group.assign(n, {0, 0});
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = std::lower_bound(node.tenant_ids.begin(),
                                     node.tenant_ids.end(),
                                     node.slots[i].tenant);
    const auto g =
        static_cast<std::size_t>(it - node.tenant_ids.begin());
    alloc::AllocationEntity e;
    e.initial_share = node.slots[i].initial_share;
    node.slot_group[i] = {g, node.groups[g].vms.size()};
    node.groups[g].vms.push_back(std::move(e));
  }
  node.group_totals.clear();
  std::vector<std::size_t> group_offset;
  std::size_t offset = 0;
  for (const alloc::TenantGroup& group : node.groups) {
    node.group_totals.push_back(group.share_total());
    group_offset.push_back(offset);
    offset += group.vms.size();
  }
  node.slot_grant.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const auto [g, vi] = node.slot_group[i];
    node.slot_grant[i] = group_offset[g] + vi;
  }

  node.demand_shares.assign(n, ResourceVector(kDefaultResourceCount));
  node.residual.assign(n, 0.0);
  node.weights.assign(n, 0.0);
  node.beta_shares.assign(n, ResourceVector(kDefaultResourceCount));
  node.slot_contributed.assign(n, 0.0);
  node.slot_gained.assign(n, 0.0);
  node.node_lambda.assign(tenant_count, 0.0);
  node.slot_demand_shares.assign(n, ResourceVector(kDefaultResourceCount));
  node.slot_score.assign(n, 0.0);
  node.surplus_extra.assign(n, 0.0);
  node.wmm_order.reserve(n);
  node.entitlement_shares.assign(n, ResourceVector(kDefaultResourceCount));
  node.actual_demand.assign(n, ResourceVector(kDefaultResourceCount));
}

/// Computes share entitlements for one node and one window into
/// node.entitlement_shares, using the cached scaffolding (the per-entity
/// demands are refreshed from node.demand_shares in place) and the
/// calling shard's `scratch`.
/// `tenant_banked` (indexed by tenant id) carries the rrf-lt contribution
/// bank; empty for every other policy.  When `tenant_lambda` is non-null
/// (indexed by global tenant id) the IRT policies add each tenant's
/// declared contribution Lambda(i) on this node into it, for the fairness
/// auditor's reciprocity accounting.
void allocate_entitlements(PolicyKind policy, NodeState& node,
                           ShardScratch& scratch,
                           std::span<const double> tenant_banked,
                           std::vector<double>* tenant_lambda = nullptr) {
  const std::size_t n = node.slots.size();

  // Refresh per-round demands in the cached flat entity list.
  auto refresh_flat = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      node.flat_entities[i].demand = node.demand_shares[i];
    }
  };

  // Refresh per-round demands (and the rrf-lt bank) in the cached groups.
  auto refresh_groups = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      const auto [g, vi] = node.slot_group[i];
      node.groups[g].vms[vi].demand = node.demand_shares[i];
    }
    if (!tenant_banked.empty()) {
      for (std::size_t g = 0; g < node.groups.size(); ++g) {
        node.groups[g].banked_contribution =
            node.tenant_ids[g] < tenant_banked.size()
                ? tenant_banked[node.tenant_ids[g]]
                : 0.0;
      }
    }
  };

  if (scratch.vm_grants.size() < n) {
    scratch.vm_grants.resize(n, ResourceVector(kDefaultResourceCount));
  }
  const std::span<ResourceVector> grants(scratch.vm_grants.data(), n);

  switch (policy) {
    case PolicyKind::kTshirt: {
      for (std::size_t i = 0; i < n; ++i) {
        node.entitlement_shares[i] = node.slots[i].initial_share;
      }
      return;
    }
    case PolicyKind::kWmmf:
      refresh_flat();
      node.entitlement_shares =
          alloc::WmmfAllocator{}.allocate(node.pool, node.flat_entities)
              .allocations;
      return;
    case PolicyKind::kDrf:
      refresh_flat();
      node.entitlement_shares =
          alloc::DrfAllocator{}.allocate(node.pool, node.flat_entities)
              .allocations;
      return;
    case PolicyKind::kDrfSeq:
      refresh_flat();
      node.entitlement_shares =
          alloc::SequentialDrfAllocator{}
              .allocate(node.pool, node.flat_entities)
              .allocations;
      return;
    // rrf-hot-path: begin(engine.hierarchical)
    case PolicyKind::kIwaOnly: {
      // Tenant entitlement is static (its own shares); IWA moves shares
      // between the tenant's VMs only.
      refresh_groups();
      ResourceVector headroom(kDefaultResourceCount);
      std::size_t offset = 0;
      for (std::size_t g = 0; g < node.groups.size(); ++g) {
        const std::size_t size = node.groups[g].vms.size();
        alloc::iwa_distribute_into(node.group_totals[g], node.groups[g].vms,
                                   grants.subspan(offset, size), headroom,
                                   scratch.rrf.iwa);
        offset += size;
      }
      break;
    }
    case PolicyKind::kRrf:
    case PolicyKind::kRrfSp:
    case PolicyKind::kRrfLt: {
      alloc::IrtOptions options;
      options.cap_gain_at_contribution = policy == PolicyKind::kRrfSp;
      const alloc::RrfAllocator rrf{options};
      refresh_groups();
      rrf.allocate_hierarchical_into(node.pool, node.groups,
                                     node.group_totals, grants, scratch.rrf);
      if (tenant_lambda != nullptr) {
        // tenant_ids is ascending — the same order the groups (and hence
        // IRT's entity indices) were built in.
        const std::vector<double>& lambda =
            scratch.rrf.tenant_level.contribution_lambda;
        for (std::size_t g = 0; g < node.tenant_ids.size(); ++g) {
          if (node.tenant_ids[g] < tenant_lambda->size() &&
              g < lambda.size()) {
            (*tenant_lambda)[node.tenant_ids[g]] += lambda[g];
          }
        }
      }
      break;
    }
  }
  // Map the group-order VM grants back to slot order.
  for (std::size_t i = 0; i < n; ++i) {
    node.entitlement_shares[i] = grants[node.slot_grant[i]];
  }
  // rrf-hot-path: end(engine.hierarchical)
}

/// Assembles this node's flight-recorder entry for the window just
/// processed: per-slot inputs/decisions plus the IRT/IWA provenance the
/// thread-local sink captured inside allocate_entitlements().  Group
/// indices are resolved to global tenant ids via node.tenant_ids (the
/// ascending order the groups were built in).
obs::FlightNode build_flight_node(std::size_t h, const NodeState& node,
                                  bool use_actuators,
                                  const obs::ProvenanceRound& prov) {
  obs::FlightNode out;
  out.node = h;
  const std::size_t n = node.slots.size();
  out.slots.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs::FlightSlot slot;
    slot.tenant = node.slots[i].tenant;
    slot.vm = node.slots[i].vm;
    slot.share = node.slots[i].initial_share;
    slot.demand = node.actual_demand[i];
    slot.forecast = node.demand_shares[i];
    slot.entitlement = node.entitlement_shares[i];
    if (use_actuators) {
      slot.credit_weight = node.hv_node->scheduler().weight(i);
      slot.credit_cap = node.hv_node->scheduler().cap(i);
      slot.mem_target = node.hv_node->memory().target(i);
    }
    out.slots.push_back(std::move(slot));
  }
  if (prov.has_irt) {
    out.has_irt = true;
    out.irt_types = prov.irt_types;
    out.irt.reserve(prov.irt_lambda.size());
    for (std::size_t g = 0; g < prov.irt_lambda.size(); ++g) {
      obs::FlightIrtTenant t;
      t.tenant = g < node.tenant_ids.size() ? node.tenant_ids[g] : g;
      t.lambda = prov.irt_lambda[g];
      t.share = prov.irt_share[g];
      t.demand = prov.irt_demand[g];
      t.grant = prov.irt_grant[g];
      out.irt.push_back(std::move(t));
    }
  }
  out.iwa.reserve(prov.iwa.size());
  for (std::size_t g = 0; g < prov.iwa.size(); ++g) {
    obs::FlightIwa w;
    w.tenant = g < node.tenant_ids.size() ? node.tenant_ids[g] : g;
    w.vm_grant = prov.iwa[g].vm_grant;
    w.headroom = prov.iwa[g].headroom;
    out.iwa.push_back(std::move(w));
  }
  return out;
}

}  // namespace

SimResult run_simulation(const Scenario& scenario,
                         const EngineConfig& config) {
  RRF_REQUIRE(config.window > 0.0 && config.duration >= config.window,
              "bad window/duration");
  RRF_REQUIRE(!config.rebalance.enabled || config.rebalance.every_windows > 0,
              "rebalancing needs every_windows > 0");
  // Profiler root covering everything before the first window (node/HV
  // construction, auditor setup); closed explicitly below so the window
  // loop's own roots are not nested under it.
  obs::ProfileScope setup_profile("engine.setup");
  const auto& cl = scenario.cluster;
  const PricingModel& pricing = cl.pricing();
  const std::size_t tenant_count = cl.tenants().size();
  const std::size_t host_count = cl.hosts().size();

  const std::set<std::pair<std::size_t, std::size_t>> unplaced(
      scenario.unplaced.begin(), scenario.unplaced.end());

  // ---- build per-node state ----
  // (Re)creates a node's hypervisor facade from its current slot list;
  // also used after live migrations reshuffle the slots.
  auto rebuild_hv = [&](NodeState& node, std::size_t h) {
    hv::HypervisorNode::Config hv_config;
    hv_config.capacity = cl.hosts()[h].capacity;
    hv_config.pricing = pricing;
    hv_config.memory_backend = config.memory_backend;
    hv_config.balloon_rate_gb_s = config.balloon_rate_gb_s;
    hv_config.use_sliced_scheduler = config.use_sliced_scheduler;
    node.hv_node = std::make_unique<hv::HypervisorNode>(hv_config);
    for (const VmSlot& slot : node.slots) {
      const auto& vm = cl.tenants()[slot.tenant].vms[slot.vm];
      node.hv_node->add_vm(vm.vcpus, vm.provisioned, vm.max_mem_gb);
    }
  };

  std::vector<NodeState> nodes(host_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    const auto& vms = cl.tenants()[t].vms;
    for (std::size_t j = 0; j < vms.size(); ++j) {
      if (unplaced.contains({t, j})) continue;
      NodeState& node = nodes[scenario.host_of[t][j]];
      node.slots.push_back(
          VmSlot{t, j, cl.vm_shares(t, j),
                 DemandPredictor(kDefaultResourceCount, config.predictor),
                 ResourceVector(kDefaultResourceCount), 0});
    }
  }
  for (std::size_t h = 0; h < host_count; ++h) {
    rebuild_hv(nodes[h], h);
    refresh_alloc_cache(nodes[h], cl.hosts()[h].capacity, pricing,
                        tenant_count);
  }

  // ---- per-tenant metrics ----
  SimResult result;
  result.policy = to_string(config.policy);
  result.window = config.window;
  result.tenants.reserve(tenant_count);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    result.tenants.emplace_back(cl.tenants()[t].name, cl.tenant_shares(t));
  }

  const wl::PerfModel perf(config.perf);
  const auto windows =
      static_cast<std::size_t>(config.duration / config.window);
  ResourceVector used_total(kDefaultResourceCount);
  ResourceVector capacity_total = cl.total_capacity();

  // Per-window per-tenant aggregates (filled by the node loop).
  std::vector<ResourceVector> tenant_granted(
      tenant_count, ResourceVector(kDefaultResourceCount));
  // Entitlements actually handed down this window.  tenant_granted is the
  // beta LEDGER position (it only moves when one tenant funds another);
  // on an oversold node every slot is cut proportionally, the ledger
  // stays flat and only this aggregate shows the starvation.
  std::vector<ResourceVector> tenant_entitled(
      tenant_count, ResourceVector(kDefaultResourceCount));
  std::vector<ResourceVector> tenant_demand_shares(
      tenant_count, ResourceVector(kDefaultResourceCount));
  std::vector<double> tenant_score_weighted(tenant_count, 0.0);
  std::vector<double> tenant_score_weight(tenant_count, 0.0);
  // Tenant-funded ledger flows this window (shares a tenant's surplus
  // actually handed to / took from other tenants) plus IRT's declared
  // contribution Lambda — the fairness auditor's reciprocity inputs.
  std::vector<double> tenant_contributed(tenant_count, 0.0);
  std::vector<double> tenant_gained(tenant_count, 0.0);
  std::vector<double> tenant_lambda(tenant_count, 0.0);
  std::vector<double> node_pressure(host_count, 0.0);

  // ---- shard plan for the parallel round ----
  // One pool task per shard; each shard walks its contiguous node range
  // serially.  `shards == 0` auto-sizes to a small multiple of the pool
  // width (capped at the host count) so chunk stealing can smooth load
  // imbalance between shards without drowning in dispatch overhead.
  const bool parallel_round = config.parallel_nodes && host_count > 1;
  std::unique_ptr<ShardExecutor> shard_executor;
  if (parallel_round) {
    const std::size_t auto_shards = std::min(
        host_count, std::max<std::size_t>(1, global_pool().thread_count()) * 4);
    const std::size_t shard_count =
        config.shards > 0 ? config.shards : auto_shards;
    shard_executor =
        std::make_unique<ShardExecutor>(ShardPlan::build(host_count,
                                                         shard_count));
  }
  std::vector<ShardScratch> shard_scratch(
      shard_executor ? shard_executor->plan().shard_count() : 1);

  std::vector<double> tenant_share_sum(tenant_count, 0.0);
  for (std::size_t t = 0; t < tenant_count; ++t) {
    tenant_share_sum[t] = cl.tenant_shares(t).sum();
  }

  // rrf-lt: per-tenant contribution bank (EMA of per-window net giving).
  std::vector<double> lt_balance;
  if (config.policy == PolicyKind::kRrfLt) {
    RRF_REQUIRE(config.ltrf_alpha > 0.0 && config.ltrf_alpha <= 1.0,
                "ltrf_alpha must be in (0, 1]");
    lt_balance.assign(tenant_count, 0.0);
  }

  // ---- fairness gauges ----
  std::unique_ptr<obs::FairnessAuditor> auditor;
  if (config.audit.enabled && obs::metrics_enabled()) {
    std::vector<std::string> names;
    names.reserve(tenant_count);
    for (std::size_t t = 0; t < tenant_count; ++t) {
      names.push_back(cl.tenants()[t].name);
    }
    auditor = std::make_unique<obs::FairnessAuditor>(config.audit, names,
                                                     tenant_share_sum);
  }
  if (config.recorder != nullptr) {
    config.recorder->clear();
    std::vector<std::string> names;
    names.reserve(tenant_count);
    for (std::size_t t = 0; t < tenant_count; ++t) {
      names.push_back(cl.tenants()[t].name);
    }
    config.recorder->set_tenants(std::move(names));
  }

  // ---- live ops plane (round summaries + incident edges) ----
  const bool ops_on = config.ops != nullptr || config.journal != nullptr ||
                      config.incidents != nullptr;
  // Cumulative per-phase seconds at the previous window tail, so each
  // RoundSummary carries this window's delta alone.
  std::array<double, obs::kPhaseCount> ops_phase_prev{};
  // Incident open/resolve edges already relayed into the journal.
  std::size_t incident_event_cursor = 0;
  const auto relay_incidents = [&]() {
    if (config.incidents == nullptr || config.journal == nullptr) return;
    for (const obs::IncidentEvent& ev :
         config.incidents->events_since(&incident_event_cursor)) {
      obs::JournalIncident rec;
      rec.id = ev.id;
      rec.opened = ev.opened;
      rec.window = ev.window;
      rec.severity = obs::to_string(ev.severity);
      rec.kinds = ev.kinds;
      rec.dir = ev.dir;
      config.journal->record_incident(rec);
    }
  };
  if (config.incidents != nullptr) {
    config.incidents->set_metadata("policy", to_string(config.policy));
    config.incidents->set_metadata("windows", std::to_string(windows));
    config.incidents->set_metadata("window_seconds",
                                   std::to_string(config.window));
    config.incidents->set_metadata("hosts", std::to_string(host_count));
    config.incidents->set_metadata("tenants", std::to_string(tenant_count));
    if (shard_executor) {
      ShardExecutor* exec = shard_executor.get();
      config.incidents->set_extra_provider("shards.json", [exec]() {
        json::Object doc;
        doc.emplace_back("schema", "rrf-shards");
        doc.emplace_back("version", 1);
        json::Array entries;
        for (const ShardStats& s : exec->stats()) {
          const ShardRange& range = exec->plan().range(s.shard);
          json::Object so;
          so.emplace_back("shard", s.shard);
          so.emplace_back("nodes", range.end - range.begin);
          so.emplace_back("rounds", s.rounds);
          so.emplace_back("busy_seconds", s.busy_seconds);
          entries.emplace_back(std::move(so));
        }
        doc.emplace_back("shards", std::move(entries));
        return json::Value(std::move(doc)).dump();
      });
    }
  }

  // ---- flight recorder (allocation provenance) ----
  // Per-node capture buffers; each is filled by the one worker thread that
  // owns the node this window, so no lock is needed.  Everything stays
  // empty (and the hooks reduce to a thread-local pointer load) when no
  // recorder is attached.
  const bool flight_on = config.flight != nullptr;
  std::vector<obs::ProvenanceRound> node_prov(flight_on ? host_count : 0);
  std::vector<obs::FlightNode> flight_nodes(flight_on ? host_count : 0);
  obs::ProvenanceRound rebalance_prov;

  setup_profile.stop();

  for (std::size_t w = 0; w < windows; ++w) {
    const Seconds now = static_cast<double>(w) * config.window;
    if (flight_on) rebalance_prov.clear();

    // ---- epoch-level live migration (load balancing) ----
    if (config.rebalance.enabled && w > 0 &&
        w % config.rebalance.every_windows == 0) {
      obs::ProfileScope rebalance_profile("window.rebalance");
      std::vector<ResourceVector> capacities;
      capacities.reserve(host_count);
      for (std::size_t h = 0; h < host_count; ++h) {
        capacities.push_back(cl.hosts()[h].capacity);
      }
      std::vector<cluster::VmLoad> loads;
      std::vector<std::pair<std::size_t, std::size_t>> slot_ref;
      for (std::size_t h = 0; h < host_count; ++h) {
        for (std::size_t i = 0; i < nodes[h].slots.size(); ++i) {
          const VmSlot& slot = nodes[h].slots[i];
          cluster::VmLoad load;
          load.tenant = slot.tenant;
          load.vm = slot.vm;
          load.host = h;
          load.demand = slot.demand_ema;
          load.reserved =
              cl.tenants()[slot.tenant].vms[slot.vm].provisioned;
          loads.push_back(std::move(load));
          slot_ref.emplace_back(h, i);
        }
      }
      cluster::RebalancePlan plan;
      {
        std::optional<obs::ProvenanceScope> scope;
        if (flight_on) scope.emplace(&rebalance_prov);
        plan = cluster::plan_rebalance(capacities, loads,
                                       config.rebalance.options);
      }
      if (!plan.empty()) {
        std::vector<std::size_t> destination(loads.size());
        for (std::size_t r = 0; r < loads.size(); ++r) {
          destination[r] = loads[r].host;
        }
        for (const cluster::Migration& m : plan.migrations) {
          destination[m.vm_index] = m.to;
        }
        std::vector<std::vector<VmSlot>> new_slots(host_count);
        for (std::size_t r = 0; r < loads.size(); ++r) {
          const auto [h, i] = slot_ref[r];
          VmSlot slot = std::move(nodes[h].slots[i]);
          if (destination[r] != h) {
            slot.migration_penalty = config.rebalance.penalty_windows;
          }
          new_slots[destination[r]].push_back(std::move(slot));
        }
        for (std::size_t h = 0; h < host_count; ++h) {
          nodes[h].slots = std::move(new_slots[h]);
          // Rebuilding resets the memory actuators to boot levels; the
          // next apply_shares() retargets them within a window or two --
          // the same settling a real live migration incurs.
          rebuild_hv(nodes[h], h);
          refresh_alloc_cache(nodes[h], cl.hosts()[h].capacity, pricing,
                              tenant_count);
        }
        result.migrations += plan.migrations.size();
        result.migrated_gb += plan.total_cost_gb;
        if (obs::tracing_enabled()) {
          for (const cluster::Migration& m : plan.migrations) {
            obs::TraceEvent e;
            e.kind = obs::EventKind::kMigration;
            e.node = static_cast<std::int32_t>(m.from);
            e.tenant = static_cast<std::int32_t>(loads[m.vm_index].tenant);
            e.vm = static_cast<std::int32_t>(loads[m.vm_index].vm);
            e.window = static_cast<std::int32_t>(w);
            e.value = m.cost_gb;
            e.value2 = static_cast<double>(m.to);
            obs::tracer().record(e);
          }
        }
        if (obs::metrics_enabled()) {
          obs::metrics().counter("engine.migrations")
              .add(plan.migrations.size());
        }
      }
    }

    // Sample per-VM demands once per tenant (shared by all nodes).
    obs::ProfileScope demands_profile("window.demands");
    std::vector<std::vector<ResourceVector>> demands(tenant_count);
    for (std::size_t t = 0; t < tenant_count; ++t) {
      demands[t] = scenario.workloads[t]->vm_demands_at(now);
    }

    for (auto& g : tenant_granted) g = ResourceVector(kDefaultResourceCount);
    for (auto& e : tenant_entitled) e = ResourceVector(kDefaultResourceCount);
    for (auto& d : tenant_demand_shares) {
      d = ResourceVector(kDefaultResourceCount);
    }
    std::fill(tenant_score_weighted.begin(), tenant_score_weighted.end(),
              0.0);
    std::fill(tenant_score_weight.begin(), tenant_score_weight.end(), 0.0);
    std::fill(tenant_contributed.begin(), tenant_contributed.end(), 0.0);
    std::fill(tenant_gained.begin(), tenant_gained.end(), 0.0);
    std::fill(tenant_lambda.begin(), tenant_lambda.end(), 0.0);
    std::fill(node_pressure.begin(), node_pressure.end(), 0.0);
    demands_profile.stop();

    auto process_node = [&](std::size_t h) {
      NodeState& node = nodes[h];
      const std::size_t n = node.slots.size();
      if (n == 0) return;
      const auto node_id = static_cast<std::int32_t>(h);
      const auto window_id = static_cast<std::int32_t>(w);

      if (obs::tracing_enabled()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kAllocRoundBegin;
        e.node = node_id;
        e.window = window_id;
        e.value = static_cast<double>(n);
        obs::tracer().record(e);
      }

      // ---- predict: refresh demand forecasts for the round ----
      {
        obs::PhaseScope predict_phase(obs::Phase::kPredict, node_id,
                                      window_id,
                                      &node.phase_accum(obs::Phase::kPredict));
        // rrf-hot-path: begin(engine.predict)
        for (std::size_t i = 0; i < n; ++i) {
          const VmSlot& slot = node.slots[i];
          node.actual_demand[i] = demands[slot.tenant][slot.vm];

          ResourceVector forecast = node.actual_demand[i];
          if (config.use_predictor) {
            forecast =
                node.slots[i].predictor.observations() == 0
                    ? cl.tenants()[slot.tenant].vms[slot.vm].provisioned
                    : node.slots[i].predictor.predict();
          }
          node.demand_shares[i] = pricing.shares_for(forecast);
        }
        // rrf-hot-path: end(engine.predict)
      }

      // The sharing policy arbitrates the pool the tenants collectively
      // bought on this node (cached in node.pool); physical head-room
      // beyond it is handled by the work-conserving surplus pass below.
      const ResourceVector& pool = node.pool;

      // ---- allocate: sharing policy + work-conserving surplus pass ----
      obs::PhaseScope allocate_phase(obs::Phase::kAllocate, node_id,
                                     window_id,
                                     &node.phase_accum(obs::Phase::kAllocate));
      std::fill(node.node_lambda.begin(), node.node_lambda.end(), 0.0);
      {
        std::optional<obs::ProvenanceScope> prov_scope;
        if (flight_on) prov_scope.emplace(&node_prov[h]);
        ShardScratch& scratch =
            shard_executor ? shard_scratch[shard_executor->plan().shard_of(h)]
                           : shard_scratch.front();
        allocate_entitlements(config.policy, node, scratch, lt_balance,
                              &node.node_lambda);
      }
      if (config.policy != PolicyKind::kTshirt) {
        // rrf-hot-path: begin(engine.surplus)
        // Work-conserving surplus pass: physical capacity *nobody paid
        // for* flows to VMs with residual demand in proportion to their
        // shares.  Capacity the policy deliberately withheld inside the
        // sold pool (e.g. RRF denying free riders) stays idle — the
        // entitlement caps enforce the policy's decision, exactly like
        // the paper's non-work-conserving credit caps.
        for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
          for (std::size_t i = 0; i < n; ++i) {
            node.residual[i] = std::max(
                0.0,
                node.demand_shares[i][k] - node.entitlement_shares[i][k]);
            node.weights[i] = node.slots[i].initial_share[k];
          }
          const double surplus = node.capacity_shares[k] - pool[k];
          if (surplus <= 0.0) continue;
          alloc::weighted_max_min_into(surplus, node.residual, node.weights,
                                       node.surplus_extra, node.wmm_order);
          for (std::size_t i = 0; i < n; ++i) {
            node.entitlement_shares[i][k] += node.surplus_extra[i];
          }
        }
        // rrf-hot-path: end(engine.surplus)
      }
      if (contract::armed()) {
        // Physical safety: the policy arbitrates the sold pool and the
        // surplus pass tops entitlements up with *unsold* head-room, so
        // the node hands out at most max(pool, physical capacity) of any
        // type — never shares it does not have.
        for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
          double entitled = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            entitled += node.entitlement_shares[i][k];
          }
          const double limit = std::max(pool[k], node.capacity_shares[k]);
          RRF_INVARIANT("engine.node_capacity_safe",
                        approx_le(entitled, limit, 1e-7),
                        "node " + std::to_string(h) + " type " +
                            std::to_string(k) + " entitles " +
                            std::to_string(entitled) + " of " +
                            std::to_string(limit) + " shares");
        }
      }
      allocate_phase.stop();
      ++node.alloc_invocations;

      // ---- actuate: push entitlements into the hypervisor and advance ----
      {
        obs::PhaseScope actuate_phase(
            obs::Phase::kActuate, node_id, window_id,
            &node.phase_accum(obs::Phase::kActuate));
        if (config.use_actuators) {
          node.hv_node->apply_shares(node.entitlement_shares);
          node.realized =
              node.hv_node->step(config.window, node.actual_demand);
        } else {
          node.realized.resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            node.realized[i] = ResourceVector::elementwise_min(
                pricing.capacity_for(node.entitlement_shares[i]),
                node.actual_demand[i]);
          }
        }
      }

      // ---- settle: predictor updates, economic ledger, aggregation ----
      obs::PhaseScope settle_phase(obs::Phase::kSettle, node_id, window_id,
                                   &node.phase_accum(obs::Phase::kSettle));
      // rrf-hot-path: begin(engine.settle)
      for (std::size_t i = 0; i < n; ++i) {
        node.slots[i].predictor.observe(node.actual_demand[i]);
        // Demand EMA for the rebalancer.
        VmSlot& slot = node.slots[i];
        if (slot.predictor.observations() <= 1) {
          slot.demand_ema = node.actual_demand[i];
        } else {
          slot.demand_ema =
              slot.demand_ema * (1.0 - config.rebalance.demand_ema_alpha) +
              node.actual_demand[i] * config.rebalance.demand_ema_alpha;
        }
      }

      // Economic ledger for beta (paper Section VI-C): a tenant's share
      // position S'_t is her initial share minus what other tenants
      // actually consumed of her surplus, plus what she took beyond her
      // share.  Surplus nobody took is not a loss, and over-takes funded
      // by unsold platform head-room are not financed by any tenant.
      // (beta_shares is fully overwritten below; the contributed/gained
      // accumulators must be re-zeroed each round.)
      std::vector<ResourceVector>& beta_shares = node.beta_shares;
      // Realized reciprocity flows per slot, for the fairness auditor:
      // shares of this VM's surplus other tenants consumed, and shares it
      // took financed by other tenants' surplus.
      std::fill(node.slot_contributed.begin(), node.slot_contributed.end(),
                0.0);
      std::fill(node.slot_gained.begin(), node.slot_gained.end(), 0.0);
      std::vector<double>& slot_contributed = node.slot_contributed;
      std::vector<double>& slot_gained = node.slot_gained;
      {
        const ResourceVector& capacity_shares = node.capacity_shares;
        for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
          double taken = 0.0, contributed = 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            const double a = node.entitlement_shares[i][k];
            const double s = node.slots[i].initial_share[k];
            taken += std::max(0.0, a - s);
            contributed += std::max(0.0, s - a);
          }
          const double headroom =
              std::max(0.0, capacity_shares[k] - pool[k]);
          const double tenant_funded = std::max(0.0, taken - headroom);
          // Losses: a contributor only loses the fraction of her surplus
          // other tenants actually consumed.  Gains: only the fraction
          // financed by other tenants counts — over-takes covered by
          // unsold platform head-room improve performance but move no
          // asset between tenants.  The counted gains and losses balance.
          const double theta =
              contributed > 0.0
                  ? std::min(1.0, tenant_funded / contributed)
                  : 0.0;
          const double phi = taken > 0.0 ? tenant_funded / taken : 0.0;
          for (std::size_t i = 0; i < n; ++i) {
            const double a = node.entitlement_shares[i][k];
            const double s = node.slots[i].initial_share[k];
            const double loss = theta * std::max(0.0, s - a);
            const double gain = phi * std::max(0.0, a - s);
            beta_shares[i][k] = s - loss + gain;
            slot_contributed[i] += loss;
            slot_gained[i] += gain;
          }
        }
      }

      // Dominant-share pressure of this node's aggregate demand, for the
      // auditor's per-node scope (written without the lock: one writer
      // per host).
      {
        ResourceVector demand_total(kDefaultResourceCount);
        for (std::size_t i = 0; i < n; ++i) {
          demand_total += node.actual_demand[i];
        }
        node_pressure[h] =
            cluster::host_pressure(cl.hosts()[h].capacity, demand_total);
      }

      // Exchange inputs: everything the window's global merge needs from
      // this node, computed here (pure per-slot arithmetic, safe in
      // parallel) so the merge itself only performs the accumulator adds
      // in canonical node order.
      for (std::size_t i = 0; i < n; ++i) {
        node.slot_demand_shares[i] = pricing.shares_for(node.actual_demand[i]);
        double score = perf.step_score(
            scenario.workloads[node.slots[i].tenant]->metric(),
            node.actual_demand[i], node.realized[i]);
        if (node.slots[i].migration_penalty > 0) {
          score *= config.rebalance.slowdown;
          --node.slots[i].migration_penalty;
        }
        node.slot_score[i] = score;
      }
      // rrf-hot-path: end(engine.settle)
      settle_phase.stop();

      if (flight_on) {
        flight_nodes[h] =
            build_flight_node(h, node, config.use_actuators, node_prov[h]);
      }

      if (obs::tracing_enabled()) {
        obs::TraceEvent e;
        e.kind = obs::EventKind::kAllocRoundEnd;
        e.node = node_id;
        e.window = window_id;
        e.value = static_cast<double>(n);
        obs::tracer().record(e);
      }
    };

    {
      // Covers the per-node fan-out plus its glue; in the serial path the
      // four phase frames nest under it, in the parallel path they root in
      // the worker threads' own arenas.
      obs::ProfileScope dispatch_profile("window.dispatch");
      if (parallel_round) {
        shard_executor->run_round(process_node);
      } else {
        for (std::size_t h = 0; h < host_count; ++h) process_node(h);
      }
    }

    // ---- global exchange: canonical serial merge in ascending node order.
    // Every node published its exchange inputs (node_lambda, beta_shares,
    // slot_{contributed,gained,demand_shares,score}) during its settle
    // phase; folding them here, single-threaded and always in node order,
    // makes the tenant ledgers bit-identical for any shard or thread
    // count — and identical to the historical serial path, whose lock
    // acquisition order was node order too.
    {
      obs::ProfileScope exchange_profile("window.exchange");
      // rrf-hot-path: begin(engine.merge)
      for (std::size_t h = 0; h < host_count; ++h) {
        NodeState& node = nodes[h];
        const std::size_t n = node.slots.size();
        if (n == 0) continue;
        for (std::size_t t = 0; t < tenant_count; ++t) {
          tenant_lambda[t] += node.node_lambda[t];
        }
        for (std::size_t i = 0; i < n; ++i) {
          const VmSlot& slot = node.slots[i];
          tenant_granted[slot.tenant] += node.beta_shares[i];
          tenant_entitled[slot.tenant] += node.entitlement_shares[i];
          tenant_contributed[slot.tenant] += node.slot_contributed[i];
          tenant_gained[slot.tenant] += node.slot_gained[i];
          const ResourceVector& d_shares = node.slot_demand_shares[i];
          tenant_demand_shares[slot.tenant] += d_shares;
          const double weight = std::max(1e-9, d_shares.sum());
          tenant_score_weighted[slot.tenant] += node.slot_score[i] * weight;
          tenant_score_weight[slot.tenant] += weight;
          used_total += node.realized[i] * config.window;
        }
      }
      // rrf-hot-path: end(engine.merge)
    }

    // ---- window tail: per-tenant roll-ups and observer fan-out ----
    obs::ProfileScope finalize_profile("window.finalize");

    if (flight_on) {
      obs::FlightRound round;
      round.round = w;
      round.time = now;
      if (rebalance_prov.has_rebalance) {
        round.pressure_before = rebalance_prov.pressure_before;
        round.pressure_after = rebalance_prov.pressure_after;
        round.migrations.reserve(rebalance_prov.migrations.size());
        for (const obs::ProvenanceMigration& m : rebalance_prov.migrations) {
          round.migrations.push_back(
              obs::FlightMigration{m.tenant, m.vm, m.from, m.to, m.cost_gb});
        }
      }
      round.nodes.reserve(host_count);
      for (std::size_t h = 0; h < host_count; ++h) {
        if (nodes[h].slots.empty()) continue;
        round.nodes.push_back(std::move(flight_nodes[h]));
      }
      config.flight->record_round(round);
    }

    for (std::size_t t = 0; t < tenant_count; ++t) {
      const double score =
          tenant_score_weight[t] > 0.0
              ? tenant_score_weighted[t] / tenant_score_weight[t]
              : 1.0;
      result.tenants[t].record_window(tenant_granted[t],
                                      tenant_demand_shares[t], score);
    }

    if (config.policy == PolicyKind::kRrfLt) {
      // Net giving this window = initial shares minus the ledger position
      // (positive when other tenants consumed this tenant's surplus).
      for (std::size_t t = 0; t < tenant_count; ++t) {
        const double net = tenant_share_sum[t] - tenant_granted[t].sum();
        lt_balance[t] += config.ltrf_alpha * (net - lt_balance[t]);
      }
    }

    if (auditor) {
      std::vector<double> position(tenant_count, 0.0);
      for (std::size_t t = 0; t < tenant_count; ++t) {
        position[t] = tenant_granted[t].sum();
      }
      obs::AuditRound round;
      round.window = w;
      round.position = position;
      round.contributed = tenant_contributed;
      round.gained = tenant_gained;
      round.contribution_lambda = tenant_lambda;
      round.node_pressure = node_pressure;
      auditor->observe_round(round);
    }

    if (ops_on) {
      obs::RoundSummary summary;
      summary.window = w;
      summary.time = now;
      std::vector<double> share_ratio(tenant_count, 0.0);
      bool any_share = false;
      summary.tenants.reserve(tenant_count);
      for (std::size_t t = 0; t < tenant_count; ++t) {
        obs::TenantRoundStat stat;
        stat.name = cl.tenants()[t].name;
        const double initial = tenant_share_sum[t];
        stat.share = tenant_granted[t].sum() / initial;
        stat.demand = tenant_demand_shares[t].sum() / initial;
        stat.granted = tenant_entitled[t].sum() / initial;
        stat.contributed = tenant_contributed[t];
        stat.gained = tenant_gained[t];
        share_ratio[t] = stat.share;
        any_share = any_share || stat.share > 0.0;
        summary.tenants.push_back(std::move(stat));
      }
      summary.jain = any_share ? jain_index(share_ratio) : 1.0;
      for (const auto& node : nodes) {
        summary.slots += node.slots.size();
      }
      for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
        double cumulative = 0.0;
        for (const auto& node : nodes) cumulative += node.phase_seconds[i];
        summary.phase_seconds[i] = cumulative - ops_phase_prev[i];
        ops_phase_prev[i] = cumulative;
      }
      if (config.incidents != nullptr) {
        config.incidents->observe_round(summary);
      }
      if (config.journal != nullptr) {
        relay_incidents();
        config.journal->record_round(summary);
      }
      if (config.ops != nullptr) config.ops->publish_round(summary);
    }

    if (config.recorder != nullptr) {
      for (std::size_t t = 0; t < tenant_count; ++t) {
        const double initial = tenant_share_sum[t];
        const double score =
            tenant_score_weight[t] > 0.0
                ? tenant_score_weighted[t] / tenant_score_weight[t]
                : 1.0;
        config.recorder->record(
            w, now, t, tenant_demand_shares[t].sum() / initial,
            tenant_granted[t].sum() / initial, score);
      }
    }

    if (config.observer) {
      WindowSnapshot snapshot;
      snapshot.window = w;
      snapshot.time = now;
      snapshot.tenant_position.reserve(tenant_count);
      snapshot.tenant_demand.reserve(tenant_count);
      snapshot.tenant_score.reserve(tenant_count);
      for (std::size_t t = 0; t < tenant_count; ++t) {
        snapshot.tenant_position.push_back(tenant_granted[t].sum());
        snapshot.tenant_demand.push_back(tenant_demand_shares[t].sum());
        snapshot.tenant_score.push_back(
            tenant_score_weight[t] > 0.0
                ? tenant_score_weighted[t] / tenant_score_weight[t]
                : 1.0);
      }
      config.observer(snapshot);
    }
  }

  for (const auto& node : nodes) {
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      result.phase_seconds[i] += node.phase_seconds[i];
    }
    result.alloc_invocations += node.alloc_invocations;
  }
  result.alloc_seconds_total = result.phase_total(obs::Phase::kAllocate);
  if (shard_executor) {
    // Fold in what the executor can't see: how many VM slots each shard's
    // nodes ended the run hosting (the imbalance denominator).
    for (ShardStats& stats : shard_executor->stats()) {
      const ShardRange& range = shard_executor->plan().range(stats.shard);
      stats.slots = 0;
      for (std::size_t h = range.begin; h < range.end; ++h) {
        stats.slots += nodes[h].slots.size();
      }
    }
    shard_executor->publish_metrics();
    result.shards = shard_executor->stats();
  }
  if (config.incidents != nullptr) {
    config.incidents->finalize();
    relay_incidents();
    // The providers capture shard state local to this run; never
    // leave them dangling on the caller-owned manager.
    config.incidents->clear_providers();
  }
  if (obs::metrics_enabled()) {
    obs::metrics().counter("engine.windows").add(windows);
    obs::metrics().counter("engine.alloc_rounds").add(result.alloc_invocations);
  }
  const double horizon =
      static_cast<double>(windows) * config.window;
  for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
    result.mean_utilization[k] =
        used_total[k] / (capacity_total[k] * horizon);
  }
  return result;
}

}  // namespace rrf::sim
