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
  /// The static-entitlement policies (tshirt, iwa): the shares each entity
  /// owns, and their copy fit to an oversold pool (alloc::fit_shares_to_pool).
  std::vector<alloc::AllocationEntity> owned;
  std::vector<alloc::AllocationEntity> fitted;
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
  // Flat policies: one allocator call over every VM of the node.
  auto allocate_flat = [&](const alloc::Allocator& allocator) {
    for (std::size_t i = 0; i < n; ++i) {
      node.flat_entities[i].demand = node.demand_shares[i];
    }
    node.entitlement_shares =
        allocator.allocate(node.pool, node.flat_entities).allocations;
  };

  switch (policy) {
    case PolicyKind::kTshirt: {
      // Each VM is entitled to its own shares, scaled to what an oversold
      // host backs.
      const std::span<const alloc::AllocationEntity> owned =
          alloc::fit_shares_to_pool(node.pool, node.flat_entities,
                                    scratch.fitted);
      for (std::size_t i = 0; i < n; ++i) {
        node.entitlement_shares[i] = owned[i].initial_share;
      }
      return;
    }
    case PolicyKind::kWmmf:
      return allocate_flat(alloc::WmmfAllocator{});
    case PolicyKind::kDrf:
      return allocate_flat(alloc::DrfAllocator{});
    case PolicyKind::kDrfSeq:
      return allocate_flat(alloc::SequentialDrfAllocator{});
    // rrf-hot-path: begin(engine.hierarchical)
    case PolicyKind::kIwaOnly: {
      // Tenant entitlement is static (its own shares, scaled to what an
      // oversold host backs); IWA moves shares between the tenant's VMs
      // only.
      refresh_groups();
      scratch.owned.resize(node.groups.size());
      for (std::size_t g = 0; g < node.groups.size(); ++g) {
        scratch.owned[g].initial_share = node.group_totals[g];
      }
      const std::span<const alloc::AllocationEntity> owned =
          alloc::fit_shares_to_pool(node.pool, scratch.owned,
                                    scratch.fitted);
      ResourceVector headroom(kDefaultResourceCount);
      std::size_t offset = 0;
      for (std::size_t g = 0; g < node.groups.size(); ++g) {
        const std::size_t size = node.groups[g].vms.size();
        alloc::iwa_distribute_into(owned[g].initial_share, node.groups[g].vms,
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

/// Fills this node's flight-recorder entry for the window just processed
/// with the per-slot inputs/decisions.  `out.prov` already holds the
/// IRT/IWA provenance captured inside allocate_entitlements(); its groups
/// resolve to global tenant ids through node.tenant_ids (the ascending
/// order the groups were built in).
void fill_flight_node(std::size_t h, const NodeState& node,
                      bool use_actuators, obs::FlightNode& out) {
  out.node = h;
  out.tenants = node.tenant_ids;
  const std::size_t n = node.slots.size();
  out.slots.clear();
  out.slots.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    obs::FlightSlot& slot = out.slots.emplace_back(obs::FlightSlot{
        node.slots[i].tenant, node.slots[i].vm, node.slots[i].initial_share,
        node.actual_demand[i], node.demand_shares[i],
        node.entitlement_shares[i]});
    if (use_actuators) {
      slot.credit_weight = node.hv_node->scheduler().weight(i);
      slot.credit_cap = node.hv_node->scheduler().cap(i);
      slot.mem_target = node.hv_node->memory().target(i);
    }
  }
}

/// One tenant's sums in the window's canonical exchange.
struct TenantExchange {
  /// Beta LEDGER position: it only moves when one tenant funds another.
  ResourceVector granted = ResourceVector(kDefaultResourceCount);
  /// Entitlements actually handed down.  On an oversold node every slot is
  /// cut proportionally, the ledger stays flat and only this sum shows the
  /// starvation.
  ResourceVector entitled = ResourceVector(kDefaultResourceCount);
  ResourceVector demand = ResourceVector(kDefaultResourceCount);
  double score_weighted{0.0};
  double score_weight{0.0};
};

/// The window's per-tenant round roll-up, indexed by tenant id: built once
/// after the exchange and read by the tenant metrics, the rrf-lt bank and
/// every round sink.
struct RoundRollup {
  std::vector<double> position;     ///< ledger position (shares)
  std::vector<double> demand;       ///< demanded shares
  std::vector<double> entitled;     ///< entitlements handed down (shares)
  std::vector<double> score;        ///< demand-weighted perf score
  /// Tenant-funded ledger flows (shares this tenant's surplus handed to /
  /// took from other tenants) plus IRT's declared contribution Lambda:
  /// the fairness auditor's reciprocity inputs.
  std::vector<double> contributed;
  std::vector<double> gained;
  std::vector<double> lambda;
};

/// One engine run: the state the stages of run_simulation share.  Each
/// public member function is one stage of the paper's per-window loop
/// (Sections V-VI); run_simulation drives them in order.
class EngineRun {
 public:
  /// Setup: validates the config, places every VM slot on its node, sizes
  /// the round buffers and attaches the sinks.
  EngineRun(const Scenario& scenario, const EngineConfig& config)
      : scenario_(scenario),
        config_(config),
        cl_(scenario.cluster),
        pricing_(cl_.pricing()),
        tenant_count_(cl_.tenants().size()),
        host_count_(cl_.hosts().size()),
        perf_(config.perf) {
    RRF_REQUIRE(config.window > 0.0 && config.duration >= config.window,
                "bad window/duration");
    RRF_REQUIRE(
        !config.rebalance.enabled || config.rebalance.every_windows > 0,
        "rebalancing needs every_windows > 0");
    // Profiler root covering everything before the first window (node/HV
    // construction, auditor setup); closed before the window loop so the
    // loop's own roots are not nested under it.
    obs::ProfileScope setup_profile("engine.setup");
    windows_ = static_cast<std::size_t>(config.duration / config.window);

    const std::set<std::pair<std::size_t, std::size_t>> unplaced(
        scenario.unplaced.begin(), scenario.unplaced.end());
    nodes_.resize(host_count_);
    for (std::size_t t = 0; t < tenant_count_; ++t) {
      const auto& vms = cl_.tenants()[t].vms;
      for (std::size_t j = 0; j < vms.size(); ++j) {
        if (unplaced.contains({t, j})) continue;
        nodes_[scenario.host_of[t][j]].slots.push_back(
            VmSlot{t, j, cl_.vm_shares(t, j),
                   DemandPredictor(kDefaultResourceCount, config.predictor),
                   ResourceVector(kDefaultResourceCount), 0});
      }
    }
    for (std::size_t h = 0; h < host_count_; ++h) reset_node(h);

    result_.policy = to_string(config.policy);
    result_.window = config.window;
    result_.tenants.reserve(tenant_count_);
    std::vector<std::string> names;
    names.reserve(tenant_count_);
    tenant_share_sum_.resize(tenant_count_);
    for (std::size_t t = 0; t < tenant_count_; ++t) {
      names.push_back(cl_.tenants()[t].name);
      result_.tenants.emplace_back(names.back(), cl_.tenant_shares(t));
      tenant_share_sum_[t] = cl_.tenant_shares(t).sum();
    }
    exchange_.resize(tenant_count_);
    for (std::vector<double>* v :
         {&rollup_.position, &rollup_.demand, &rollup_.entitled,
          &rollup_.score, &rollup_.contributed, &rollup_.gained,
          &rollup_.lambda}) {
      v->assign(tenant_count_, 0.0);
    }
    node_pressure_.assign(host_count_, 0.0);

    // Per-VM demands of the round, flat across tenants: tenant t's VMs sit
    // at demands_[demand_offset_[t] + vm].  Sized once, refilled in place.
    RRF_REQUIRE(scenario.workloads.size() == tenant_count_,
                "one workload per tenant");
    demand_offset_.assign(tenant_count_ + 1, 0);
    for (std::size_t t = 0; t < tenant_count_; ++t) {
      const std::size_t vms = scenario.workloads[t]->vm_split().size();
      RRF_REQUIRE(vms == cl_.tenants()[t].vms.size(),
                  "workload VM count differs from its tenant's");
      demand_offset_[t + 1] = demand_offset_[t] + vms;
    }
    demands_.assign(demand_offset_[tenant_count_],
                    ResourceVector(kDefaultResourceCount));

    // One pool task per shard; each shard walks its contiguous node range
    // serially.  `shards == 0` auto-sizes to a small multiple of the pool
    // width (capped at the host count) so chunk stealing can smooth load
    // imbalance between shards without drowning in dispatch overhead.
    if (config.parallel_nodes && host_count_ > 1) {
      const std::size_t auto_shards = std::min(
          host_count_,
          std::max<std::size_t>(1, global_pool().thread_count()) * 4);
      shard_executor_ = std::make_unique<ShardExecutor>(ShardPlan::build(
          host_count_, config.shards > 0 ? config.shards : auto_shards));
    }
    shard_scratch_.resize(
        shard_executor_ ? shard_executor_->plan().shard_count() : 1);

    // rrf-lt: per-tenant contribution bank (EMA of per-window net giving).
    if (config.policy == PolicyKind::kRrfLt) {
      RRF_REQUIRE(config.ltrf_alpha > 0.0 && config.ltrf_alpha <= 1.0,
                  "ltrf_alpha must be in (0, 1]");
      lt_balance_.assign(tenant_count_, 0.0);
    }
    attach_sinks(std::move(names));
  }

  std::size_t windows() const { return windows_; }

  /// Epoch-level live migration (load balancing): every `every_windows`
  /// windows the planner moves VMs off hot hosts; the affected nodes are
  /// rebuilt from their new slot lists.
  void rebalance_epoch(std::size_t w) {
    if (flight_on_) rebalance_prov_.clear();
    if (!config_.rebalance.enabled || w == 0 ||
        w % config_.rebalance.every_windows != 0) {
      return;
    }
    obs::ProfileScope rebalance_profile("window.rebalance");
    std::vector<ResourceVector> capacities;
    capacities.reserve(host_count_);
    for (std::size_t h = 0; h < host_count_; ++h) {
      capacities.push_back(cl_.hosts()[h].capacity);
    }
    std::vector<cluster::VmLoad> loads;
    std::vector<std::pair<std::size_t, std::size_t>> slot_ref;
    for (std::size_t h = 0; h < host_count_; ++h) {
      for (std::size_t i = 0; i < nodes_[h].slots.size(); ++i) {
        const VmSlot& slot = nodes_[h].slots[i];
        loads.push_back(cluster::VmLoad{
            slot.tenant, slot.vm, h, slot.demand_ema,
            cl_.tenants()[slot.tenant].vms[slot.vm].provisioned});
        slot_ref.emplace_back(h, i);
      }
    }
    cluster::RebalancePlan plan;
    {
      std::optional<obs::ProvenanceScope> scope;
      if (flight_on_) scope.emplace(&rebalance_prov_);
      plan = cluster::plan_rebalance(capacities, loads,
                                     config_.rebalance.options);
    }
    if (plan.empty()) return;
    std::vector<std::size_t> destination(loads.size());
    for (std::size_t r = 0; r < loads.size(); ++r) {
      destination[r] = loads[r].host;
    }
    for (const cluster::Migration& m : plan.migrations) {
      destination[m.vm_index] = m.to;
    }
    std::vector<std::vector<VmSlot>> new_slots(host_count_);
    for (std::size_t r = 0; r < loads.size(); ++r) {
      const auto [h, i] = slot_ref[r];
      VmSlot slot = std::move(nodes_[h].slots[i]);
      if (destination[r] != h) {
        slot.migration_penalty = config_.rebalance.penalty_windows;
      }
      new_slots[destination[r]].push_back(std::move(slot));
    }
    for (std::size_t h = 0; h < host_count_; ++h) {
      nodes_[h].slots = std::move(new_slots[h]);
      // Rebuilding resets the memory actuators to boot levels; the next
      // apply_shares() retargets them within a window or two -- the same
      // settling a real live migration incurs.
      reset_node(h);
    }
    result_.migrations += plan.migrations.size();
    result_.migrated_gb += plan.total_cost_gb;
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
      obs::metrics().counter("engine.migrations").add(plan.migrations.size());
    }
  }

  /// Samples every tenant's per-VM demands once (shared by all nodes).
  void sample_demands(Seconds now) {
    obs::ProfileScope demands_profile("window.demands");
    // rrf-hot-path: begin(engine.demands)
    for (std::size_t t = 0; t < tenant_count_; ++t) {
      scenario_.workloads[t]->vm_demands_into(
          now, std::span<ResourceVector>(demands_).subspan(
                   demand_offset_[t],
                   demand_offset_[t + 1] - demand_offset_[t]));
    }
    // rrf-hot-path: end(engine.demands)
  }

  /// The per-node round on every node: serially, or one pool task per
  /// shard.  In the serial path the four phase frames nest under
  /// `window.dispatch`; in the parallel path they root in the worker
  /// threads' own arenas.
  void node_round(std::size_t w) {
    obs::ProfileScope dispatch_profile("window.dispatch");
    if (shard_executor_) {
      shard_executor_->run_round([this, w](std::size_t h) { run_node(h, w); });
    } else {
      for (std::size_t h = 0; h < host_count_; ++h) run_node(h, w);
    }
  }

  /// Global exchange: canonical serial merge in ascending node order.
  /// Every node published its exchange inputs (node_lambda, beta_shares,
  /// slot_{contributed,gained,demand_shares,score}) during its settle
  /// phase; folding them here, single-threaded and always in node order,
  /// makes the tenant ledgers bit-identical for any shard or thread count
  /// -- and identical to the historical serial path, whose lock
  /// acquisition order was node order too.
  void exchange() {
    obs::ProfileScope exchange_profile("window.exchange");
    // rrf-hot-path: begin(engine.merge)
    std::fill(exchange_.begin(), exchange_.end(), TenantExchange{});
    for (std::vector<double>* v :
         {&rollup_.contributed, &rollup_.gained, &rollup_.lambda}) {
      std::fill(v->begin(), v->end(), 0.0);
    }
    for (const NodeState& node : nodes_) {
      const std::size_t n = node.slots.size();
      if (n == 0) continue;
      for (std::size_t t = 0; t < tenant_count_; ++t) {
        rollup_.lambda[t] += node.node_lambda[t];
      }
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t t = node.slots[i].tenant;
        TenantExchange& x = exchange_[t];
        x.granted += node.beta_shares[i];
        x.entitled += node.entitlement_shares[i];
        rollup_.contributed[t] += node.slot_contributed[i];
        rollup_.gained[t] += node.slot_gained[i];
        const ResourceVector& d_shares = node.slot_demand_shares[i];
        x.demand += d_shares;
        const double weight = std::max(1e-9, d_shares.sum());
        x.score_weighted += node.slot_score[i] * weight;
        x.score_weight += weight;
        used_total_ += node.realized[i] * config_.window;
      }
    }
    // The roll-up: one per-tenant record of the settled window.
    for (std::size_t t = 0; t < tenant_count_; ++t) {
      const TenantExchange& x = exchange_[t];
      rollup_.position[t] = x.granted.sum();
      rollup_.demand[t] = x.demand.sum();
      rollup_.entitled[t] = x.entitled.sum();
      rollup_.score[t] =
          x.score_weight > 0.0 ? x.score_weighted / x.score_weight : 1.0;
    }
    // rrf-hot-path: end(engine.merge)
  }

  /// Window tail: tenant metrics, the rrf-lt bank and every round sink,
  /// all fed from the roll-up.
  void round_tail(std::size_t w, Seconds now) {
    obs::ProfileScope finalize_profile("window.finalize");
    if (flight_on_) record_flight_round(w, now);

    for (std::size_t t = 0; t < tenant_count_; ++t) {
      result_.tenants[t].record_window(rollup_.position[t],
                                       rollup_.demand[t], rollup_.score[t]);
    }
    if (config_.policy == PolicyKind::kRrfLt) {
      // Net giving this window = initial shares minus the ledger position
      // (positive when other tenants consumed this tenant's surplus).
      for (std::size_t t = 0; t < tenant_count_; ++t) {
        const double net = tenant_share_sum_[t] - rollup_.position[t];
        lt_balance_[t] += config_.ltrf_alpha * (net - lt_balance_[t]);
      }
    }
    if (auditor_) {
      obs::AuditRound round;
      round.window = w;
      round.position = rollup_.position;
      round.contributed = rollup_.contributed;
      round.gained = rollup_.gained;
      round.contribution_lambda = rollup_.lambda;
      round.node_pressure = node_pressure_;
      auditor_->observe_round(round);
    }
    if (config_.ops != nullptr || config_.journal != nullptr ||
        config_.incidents != nullptr) {
      publish_summary(w, now);
    }
    if (config_.observer) {
      WindowSnapshot snapshot;
      snapshot.window = w;
      snapshot.time = now;
      snapshot.tenant_position = rollup_.position;
      snapshot.tenant_demand = rollup_.demand;
      snapshot.tenant_score = rollup_.score;
      config_.observer(snapshot);
    }
  }

  /// Folds the per-node counters into the result and closes the sinks.
  SimResult finish() {
    for (const auto& node : nodes_) {
      for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
        result_.phase_seconds[i] += node.phase_seconds[i];
      }
      result_.alloc_invocations += node.alloc_invocations;
    }
    if (shard_executor_) {
      // Fold in what the executor can't see: how many VM slots each
      // shard's nodes ended the run hosting (the imbalance denominator).
      for (ShardStats& stats : shard_executor_->stats()) {
        const ShardRange& range = shard_executor_->plan().range(stats.shard);
        stats.slots = 0;
        for (std::size_t h = range.begin; h < range.end; ++h) {
          stats.slots += nodes_[h].slots.size();
        }
      }
      shard_executor_->publish_metrics();
      result_.shards = shard_executor_->stats();
    }
    if (config_.incidents != nullptr) {
      config_.incidents->finalize();
      relay_incidents();
      // The providers capture shard state local to this run; never leave
      // them dangling on the caller-owned manager.
      config_.incidents->clear_providers();
    }
    if (obs::metrics_enabled()) {
      obs::metrics().counter("engine.windows").add(windows_);
      obs::metrics().counter("engine.alloc_rounds")
          .add(result_.alloc_invocations);
    }
    const double horizon = static_cast<double>(windows_) * config_.window;
    const ResourceVector capacity_total = cl_.total_capacity();
    for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
      result_.mean_utilization[k] =
          used_total_[k] / (capacity_total[k] * horizon);
    }
    return std::move(result_);
  }

 private:
  /// (Re)creates node h's hypervisor facade and allocation scaffolding
  /// from its current slot list (initial placement, live migration).
  void reset_node(std::size_t h) {
    NodeState& node = nodes_[h];
    hv::HypervisorNode::Config hv_config;
    hv_config.capacity = cl_.hosts()[h].capacity;
    hv_config.pricing = pricing_;
    hv_config.memory_backend = config_.memory_backend;
    hv_config.balloon_rate_gb_s = config_.balloon_rate_gb_s;
    hv_config.use_sliced_scheduler = config_.use_sliced_scheduler;
    node.hv_node = std::make_unique<hv::HypervisorNode>(hv_config);
    for (const VmSlot& slot : node.slots) {
      const auto& vm = cl_.tenants()[slot.tenant].vms[slot.vm];
      node.hv_node->add_vm(vm.vcpus, vm.provisioned, vm.max_mem_gb);
    }
    refresh_alloc_cache(node, cl_.hosts()[h].capacity, pricing_,
                        tenant_count_);
  }

  /// Fairness auditor, incident metadata and the flight recorder's
  /// per-node capture buffers.
  void attach_sinks(std::vector<std::string> names) {
    if (config_.audit.enabled && obs::metrics_enabled()) {
      auditor_ = std::make_unique<obs::FairnessAuditor>(
          config_.audit, std::move(names), tenant_share_sum_);
    }
    if (config_.incidents != nullptr) {
      obs::IncidentManager& incidents = *config_.incidents;
      incidents.set_metadata("policy", to_string(config_.policy));
      incidents.set_metadata("windows", std::to_string(windows_));
      incidents.set_metadata("window_seconds",
                             std::to_string(config_.window));
      incidents.set_metadata("hosts", std::to_string(host_count_));
      incidents.set_metadata("tenants", std::to_string(tenant_count_));
      if (shard_executor_) {
        ShardExecutor* exec = shard_executor_.get();
        incidents.set_extra_provider("shards.json", [exec]() {
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
    // Each capture buffer is filled by the one worker thread that owns the
    // node this window, so no lock is needed.  Everything stays empty (and
    // the hooks reduce to a thread-local pointer load) when no recorder is
    // attached.
    flight_on_ = config_.flight != nullptr;
    if (flight_on_) flight_nodes_.resize(host_count_);
  }

  /// Predict, allocate, actuate and settle one node.
  void run_node(std::size_t h, std::size_t w) {
    NodeState& node = nodes_[h];
    const std::size_t n = node.slots.size();
    if (n == 0) {
      node_pressure_[h] = 0.0;
      return;
    }
    const auto node_id = static_cast<std::int32_t>(h);
    const auto window_id = static_cast<std::int32_t>(w);
    const auto trace_edge = [&](obs::EventKind kind) {
      if (!obs::tracing_enabled()) return;
      obs::TraceEvent e;
      e.kind = kind;
      e.node = node_id;
      e.window = window_id;
      e.value = static_cast<double>(n);
      obs::tracer().record(e);
    };
    trace_edge(obs::EventKind::kAllocRoundBegin);
    const auto timed = [&](obs::Phase phase, const auto& stage) {
      obs::PhaseScope scope(phase, node_id, window_id,
                            &node.phase_accum(phase));
      stage();
    };
    timed(obs::Phase::kPredict, [&] { predict(node); });
    timed(obs::Phase::kAllocate, [&] { allocate(h, node); });
    ++node.alloc_invocations;
    timed(obs::Phase::kActuate, [&] { actuate(node); });
    timed(obs::Phase::kSettle, [&] { settle(h, node); });
    if (flight_on_) {
      fill_flight_node(h, node, config_.use_actuators, flight_nodes_[h]);
    }
    trace_edge(obs::EventKind::kAllocRoundEnd);
  }

  /// Predict: refreshes the slots' demand forecasts for the round.
  void predict(NodeState& node) {
    // rrf-hot-path: begin(engine.predict)
    for (std::size_t i = 0; i < node.slots.size(); ++i) {
      const VmSlot& slot = node.slots[i];
      node.actual_demand[i] = demands_[demand_offset_[slot.tenant] + slot.vm];
      ResourceVector forecast = node.actual_demand[i];
      if (config_.use_predictor) {
        forecast = slot.predictor.observations() == 0
                       ? cl_.tenants()[slot.tenant].vms[slot.vm].provisioned
                       : slot.predictor.predict();
      }
      node.demand_shares[i] = pricing_.shares_for(forecast);
    }
    // rrf-hot-path: end(engine.predict)
  }

  /// Allocate: the sharing policy arbitrates the pool the tenants
  /// collectively bought on this node (node.pool); physical head-room
  /// beyond it goes to the work-conserving surplus pass.
  void allocate(std::size_t h, NodeState& node) {
    const std::size_t n = node.slots.size();
    const ResourceVector& pool = node.pool;
    std::fill(node.node_lambda.begin(), node.node_lambda.end(), 0.0);
    {
      std::optional<obs::ProvenanceScope> prov_scope;
      if (flight_on_) prov_scope.emplace(&flight_nodes_[h].prov);
      ShardScratch& scratch =
          shard_executor_
              ? shard_scratch_[shard_executor_->plan().shard_of(h)]
              : shard_scratch_.front();
      allocate_entitlements(config_.policy, node, scratch, lt_balance_,
                            &node.node_lambda);
    }
    if (config_.policy != PolicyKind::kTshirt) {
      // rrf-hot-path: begin(engine.surplus)
      // Work-conserving surplus pass: physical capacity *nobody paid for*
      // flows to VMs with residual demand in proportion to their shares.
      // Capacity the policy deliberately withheld inside the sold pool
      // (e.g. RRF denying free riders) stays idle -- the entitlement caps
      // enforce the policy's decision, exactly like the paper's
      // non-work-conserving credit caps.
      for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
        for (std::size_t i = 0; i < n; ++i) {
          node.residual[i] = std::max(
              0.0, node.demand_shares[i][k] - node.entitlement_shares[i][k]);
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
      // surplus pass tops entitlements up with *unsold* head-room, so the
      // node hands out at most max(pool, physical capacity) of any type --
      // never shares it does not have.
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
  }

  /// Actuate: pushes the entitlements into the hypervisor and advances it
  /// one window (or applies them instantly in pure-algorithm mode).
  void actuate(NodeState& node) {
    if (config_.use_actuators) {
      node.hv_node->apply_shares(node.entitlement_shares);
      node.realized = node.hv_node->step(config_.window, node.actual_demand);
      return;
    }
    node.realized.resize(node.slots.size());
    for (std::size_t i = 0; i < node.slots.size(); ++i) {
      node.realized[i] = ResourceVector::elementwise_min(
          pricing_.capacity_for(node.entitlement_shares[i]),
          node.actual_demand[i]);
    }
  }

  /// Settle: predictor updates, the economic ledger and this node's
  /// exchange inputs.
  void settle(std::size_t h, NodeState& node) {
    const std::size_t n = node.slots.size();
    // rrf-hot-path: begin(engine.settle)
    for (std::size_t i = 0; i < n; ++i) {
      VmSlot& slot = node.slots[i];
      slot.predictor.observe(node.actual_demand[i]);
      // Demand EMA for the rebalancer.
      if (slot.predictor.observations() <= 1) {
        slot.demand_ema = node.actual_demand[i];
      } else {
        slot.demand_ema =
            slot.demand_ema * (1.0 - config_.rebalance.demand_ema_alpha) +
            node.actual_demand[i] * config_.rebalance.demand_ema_alpha;
      }
    }

    // Economic ledger for beta (paper Section VI-C): a tenant's share
    // position S'_t is her initial share minus what other tenants actually
    // consumed of her surplus, plus what she took beyond her share.
    // Surplus nobody took is not a loss, and over-takes funded by unsold
    // platform head-room are not financed by any tenant.  Alongside it,
    // the realized reciprocity flows per slot for the fairness auditor:
    // shares of this VM's surplus other tenants consumed, and shares it
    // took financed by other tenants' surplus.
    std::fill(node.slot_contributed.begin(), node.slot_contributed.end(),
              0.0);
    std::fill(node.slot_gained.begin(), node.slot_gained.end(), 0.0);
    for (std::size_t k = 0; k < kDefaultResourceCount; ++k) {
      double taken = 0.0, contributed = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double a = node.entitlement_shares[i][k];
        const double s = node.slots[i].initial_share[k];
        taken += std::max(0.0, a - s);
        contributed += std::max(0.0, s - a);
      }
      const double headroom =
          std::max(0.0, node.capacity_shares[k] - node.pool[k]);
      const double tenant_funded = std::max(0.0, taken - headroom);
      // Losses: a contributor only loses the fraction of her surplus other
      // tenants actually consumed.  Gains: only the fraction financed by
      // other tenants counts -- over-takes covered by unsold platform
      // head-room improve performance but move no asset between tenants.
      // The counted gains and losses balance.
      const double theta =
          contributed > 0.0 ? std::min(1.0, tenant_funded / contributed)
                            : 0.0;
      const double phi = taken > 0.0 ? tenant_funded / taken : 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double a = node.entitlement_shares[i][k];
        const double s = node.slots[i].initial_share[k];
        const double loss = theta * std::max(0.0, s - a);
        const double gain = phi * std::max(0.0, a - s);
        node.beta_shares[i][k] = s - loss + gain;
        node.slot_contributed[i] += loss;
        node.slot_gained[i] += gain;
      }
    }

    // Dominant-share pressure of this node's aggregate demand, for the
    // auditor's per-node scope (written without a lock: one writer per
    // host).
    ResourceVector demand_total(kDefaultResourceCount);
    for (std::size_t i = 0; i < n; ++i) demand_total += node.actual_demand[i];
    node_pressure_[h] =
        cluster::host_pressure(cl_.hosts()[h].capacity, demand_total);

    // Exchange inputs: everything the window's global merge needs from
    // this node, computed here (pure per-slot arithmetic, safe in
    // parallel) so the merge itself only performs the accumulator adds in
    // canonical node order.
    for (std::size_t i = 0; i < n; ++i) {
      VmSlot& slot = node.slots[i];
      node.slot_demand_shares[i] = pricing_.shares_for(node.actual_demand[i]);
      double score = perf_.step_score(
          scenario_.workloads[slot.tenant]->metric(), node.actual_demand[i],
          node.realized[i]);
      if (slot.migration_penalty > 0) {
        score *= config_.rebalance.slowdown;
        --slot.migration_penalty;
      }
      node.slot_score[i] = score;
    }
    // rrf-hot-path: end(engine.settle)
  }

  void record_flight_round(std::size_t w, Seconds now) {
    obs::FlightRound round;
    round.round = w;
    round.time = now;
    if (rebalance_prov_.has_rebalance) {
      round.pressure_before = rebalance_prov_.pressure_before;
      round.pressure_after = rebalance_prov_.pressure_after;
      round.migrations.reserve(rebalance_prov_.migrations.size());
      for (const obs::ProvenanceMigration& m : rebalance_prov_.migrations) {
        round.migrations.push_back(
            obs::FlightMigration{m.tenant, m.vm, m.from, m.to, m.cost_gb});
      }
    }
    round.nodes.reserve(host_count_);
    for (std::size_t h = 0; h < host_count_; ++h) {
      if (nodes_[h].slots.empty()) continue;
      round.nodes.push_back(std::move(flight_nodes_[h]));
    }
    config_.flight->record_round(round);
  }

  /// Builds the window's RoundSummary from the roll-up, feeds the incident
  /// engine, and serialises it once for the journal and the ops hub.
  void publish_summary(std::size_t w, Seconds now) {
    obs::RoundSummary summary;
    summary.window = w;
    summary.time = now;
    std::vector<double> share_ratio(tenant_count_, 0.0);
    summary.tenants.reserve(tenant_count_);
    for (std::size_t t = 0; t < tenant_count_; ++t) {
      obs::TenantRoundStat stat;
      stat.name = cl_.tenants()[t].name;
      const double initial = tenant_share_sum_[t];
      stat.share = rollup_.position[t] / initial;
      stat.demand = rollup_.demand[t] / initial;
      stat.granted = rollup_.entitled[t] / initial;
      stat.contributed = rollup_.contributed[t];
      stat.gained = rollup_.gained[t];
      share_ratio[t] = stat.share;
      summary.tenants.push_back(std::move(stat));
    }
    // Ledger positions are never negative, so an all-zero round is the
    // only one jain_index() maps to 1.0 by itself.
    summary.jain = tenant_count_ > 0 ? jain_index(share_ratio) : 1.0;
    for (const NodeState& node : nodes_) summary.slots += node.slots.size();
    // Each summary carries this window's phase-time delta alone.
    for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
      double cumulative = 0.0;
      for (const NodeState& node : nodes_) {
        cumulative += node.phase_seconds[i];
      }
      summary.phase_seconds[i] = cumulative - phase_prev_[i];
      phase_prev_[i] = cumulative;
    }
    if (config_.incidents != nullptr) config_.incidents->observe_round(summary);
    if (config_.journal == nullptr && config_.ops == nullptr) return;
    std::string line = obs::round_summary_to_json(summary).dump();
    if (config_.journal != nullptr) {
      relay_incidents();
      config_.journal->record_round(line);
    }
    if (config_.ops != nullptr) config_.ops->publish_round(std::move(line));
  }

  /// Relays incident open/resolve edges not yet journaled.
  void relay_incidents() {
    if (config_.incidents == nullptr || config_.journal == nullptr) return;
    for (const obs::IncidentEvent& ev :
         config_.incidents->events_since(&incident_event_cursor_)) {
      config_.journal->record_incident(
          obs::JournalIncident{ev.id, ev.opened, ev.window,
                               obs::to_string(ev.severity), ev.kinds, ev.dir});
    }
  }

  const Scenario& scenario_;
  const EngineConfig& config_;
  const cluster::Cluster& cl_;
  const PricingModel& pricing_;
  const std::size_t tenant_count_;
  const std::size_t host_count_;
  const wl::PerfModel perf_;
  std::size_t windows_{0};

  std::vector<NodeState> nodes_;
  std::unique_ptr<ShardExecutor> shard_executor_;
  std::vector<ShardScratch> shard_scratch_;
  std::vector<std::size_t> demand_offset_;
  std::vector<ResourceVector> demands_;
  std::vector<double> tenant_share_sum_;
  /// rrf-lt contribution bank; empty for every other policy.
  std::vector<double> lt_balance_;

  std::vector<TenantExchange> exchange_;
  RoundRollup rollup_;
  std::vector<double> node_pressure_;
  ResourceVector used_total_ = ResourceVector(kDefaultResourceCount);
  SimResult result_;

  std::unique_ptr<obs::FairnessAuditor> auditor_;
  /// Cumulative per-phase seconds at the previous window's summary.
  std::array<double, obs::kPhaseCount> phase_prev_{};
  /// Incident open/resolve edges already relayed into the journal.
  std::size_t incident_event_cursor_{0};
  bool flight_on_{false};
  /// This window's flight entry per node; allocate() captures straight
  /// into its provenance.
  std::vector<obs::FlightNode> flight_nodes_;
  obs::ProvenanceRound rebalance_prov_;
};

}  // namespace

SimResult run_simulation(const Scenario& scenario,
                         const EngineConfig& config) {
  EngineRun run(scenario, config);
  for (std::size_t w = 0; w < run.windows(); ++w) {
    const Seconds now = static_cast<double>(w) * config.window;
    run.rebalance_epoch(w);
    run.sample_demands(now);
    run.node_round(w);
    run.exchange();
    run.round_tail(w, now);
  }
  return run.finish();
}

}  // namespace rrf::sim
