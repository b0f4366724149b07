#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "obs/profiler.hpp"
#include "sim/synthetic.hpp"

namespace rrf::sim {
namespace {

/// The paper's Fig. 4/5 setup: all four workloads co-located on one paper
/// host at alpha = 1, where the aggregate average demand fills the node
/// and peaks collide (real contention).
Scenario small_scenario(double alpha = 1.0) {
  ScenarioConfig config;
  config.workloads = wl::paper_workloads();
  config.alpha = alpha;
  config.hosts = 1;
  config.seed = 42;
  return build_scenario(config);
}

EngineConfig fast_engine(PolicyKind policy) {
  EngineConfig config;
  config.policy = policy;
  config.duration = 600.0;
  config.window = 5.0;
  return config;
}

TEST(Engine, TshirtBetaIsExactlyOne) {
  const Scenario s = small_scenario();
  const SimResult r = run_simulation(s, fast_engine(PolicyKind::kTshirt));
  for (const auto& t : r.tenants) {
    EXPECT_NEAR(t.beta(), 1.0, 1e-9) << t.name();
  }
}

TEST(Engine, EveryPolicyRunsAndProducesSaneMetrics) {
  const Scenario s = small_scenario();
  for (const PolicyKind policy :
       {PolicyKind::kTshirt, PolicyKind::kWmmf, PolicyKind::kDrf,
        PolicyKind::kDrfSeq, PolicyKind::kIwaOnly, PolicyKind::kRrf,
        PolicyKind::kRrfSp, PolicyKind::kRrfLt}) {
    const SimResult r = run_simulation(s, fast_engine(policy));
    ASSERT_EQ(r.tenants.size(), 4u) << to_string(policy);
    for (const auto& t : r.tenants) {
      EXPECT_GT(t.beta(), 0.2) << to_string(policy) << "/" << t.name();
      EXPECT_LT(t.beta(), 3.0) << to_string(policy) << "/" << t.name();
      EXPECT_GT(t.mean_perf(), 0.05) << to_string(policy);
      EXPECT_LE(t.mean_perf(), 1.0 + 1e-9) << to_string(policy);
      EXPECT_EQ(t.windows(), 120u);
    }
    EXPECT_GT(r.alloc_invocations, 0u);
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_GE(r.mean_utilization[k], 0.0);
      EXPECT_LE(r.mean_utilization[k], 1.0 + 1e-9);
    }
  }
}

TEST(Engine, SharingBeatsStaticPartition) {
  // The headline claim: any sharing policy outperforms T-shirt.
  const Scenario s = small_scenario();
  const double base =
      run_simulation(s, fast_engine(PolicyKind::kTshirt)).perf_geomean();
  for (const PolicyKind policy :
       {PolicyKind::kWmmf, PolicyKind::kDrf, PolicyKind::kIwaOnly,
        PolicyKind::kRrf}) {
    const double perf = run_simulation(s, fast_engine(policy)).perf_geomean();
    EXPECT_GT(perf, base) << to_string(policy);
  }
}

TEST(Engine, RrfFairnessBeatsWmmfAndDrf) {
  // Economic fairness: RRF's betas cluster tighter than the baselines'
  // (the paper's Fig. 6 claim: "smaller difference of beta between
  // different applications").  Measured as the max-min spread over
  // tenants, on a longer horizon so trading episodes accumulate.
  const Scenario s = small_scenario();
  auto beta_spread = [&](PolicyKind policy) {
    EngineConfig config = fast_engine(policy);
    config.duration = 2700.0;
    const SimResult r = run_simulation(s, config);
    double lo = 1e9, hi = -1e9;
    for (const auto& t : r.tenants) {
      lo = std::min(lo, t.beta());
      hi = std::max(hi, t.beta());
    }
    return hi - lo;
  };
  const double rrf = beta_spread(PolicyKind::kRrf);
  EXPECT_LT(rrf, beta_spread(PolicyKind::kWmmf));
  EXPECT_LT(rrf, beta_spread(PolicyKind::kDrf));
}

TEST(Engine, DeterministicAcrossRuns) {
  const Scenario s = small_scenario();
  const SimResult a = run_simulation(s, fast_engine(PolicyKind::kRrf));
  const SimResult b = run_simulation(s, fast_engine(PolicyKind::kRrf));
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_DOUBLE_EQ(a.tenants[t].beta(), b.tenants[t].beta());
    EXPECT_DOUBLE_EQ(a.tenants[t].mean_perf(), b.tenants[t].mean_perf());
  }
}

TEST(Engine, SerialAndParallelNodesAgree) {
  ScenarioConfig config;
  config.workloads = {wl::WorkloadKind::kTpcc, wl::WorkloadKind::kKernelBuild,
                      wl::WorkloadKind::kTpcc, wl::WorkloadKind::kKernelBuild};
  config.hosts = 2;
  config.seed = 7;
  const Scenario s = build_scenario(config);

  EngineConfig serial = fast_engine(PolicyKind::kRrf);
  serial.parallel_nodes = false;
  EngineConfig parallel = fast_engine(PolicyKind::kRrf);
  parallel.parallel_nodes = true;

  const SimResult a = run_simulation(s, serial);
  const SimResult b = run_simulation(s, parallel);
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_NEAR(a.tenants[t].beta(), b.tenants[t].beta(), 1e-12);
    EXPECT_NEAR(a.tenants[t].mean_perf(), b.tenants[t].mean_perf(), 1e-12);
  }
}

TEST(Engine, OracleDemandImprovesOnPrediction) {
  const Scenario s = small_scenario();
  EngineConfig predicted = fast_engine(PolicyKind::kRrf);
  EngineConfig oracle = fast_engine(PolicyKind::kRrf);
  oracle.use_predictor = false;
  const double p = run_simulation(s, predicted).perf_geomean();
  const double o = run_simulation(s, oracle).perf_geomean();
  EXPECT_GE(o, p - 0.02);  // the oracle is at least as good (within noise)
}

TEST(Engine, ActuatorLagCostsPerformance) {
  const Scenario s = small_scenario();
  EngineConfig with = fast_engine(PolicyKind::kRrf);
  EngineConfig without = fast_engine(PolicyKind::kRrf);
  without.use_actuators = false;
  const double lagged = run_simulation(s, with).perf_geomean();
  const double ideal = run_simulation(s, without).perf_geomean();
  EXPECT_GE(ideal, lagged - 0.02);
}

TEST(Engine, TimeSeriesHaveOneEntryPerWindow) {
  const Scenario s = small_scenario();
  const SimResult r = run_simulation(s, fast_engine(PolicyKind::kRrf));
  for (const auto& t : r.tenants) {
    EXPECT_EQ(t.demand_ratio_series().size(), 120u);
    EXPECT_EQ(t.alloc_ratio_series().size(), 120u);
  }
}

TEST(Engine, MemoryBackendsAllRun) {
  const Scenario s = small_scenario();
  double previous = -1.0;
  for (const hv::MemoryBackend backend :
       {hv::MemoryBackend::kBalloon, hv::MemoryBackend::kHotplug,
        hv::MemoryBackend::kCgroup}) {
    EngineConfig config = fast_engine(PolicyKind::kRrf);
    config.memory_backend = backend;
    const SimResult r = run_simulation(s, config);
    EXPECT_GT(r.perf_geomean(), 0.3);
    if (previous >= 0.0) {
      EXPECT_NEAR(r.perf_geomean(), previous, 0.05);  // backends agree
    }
    previous = r.perf_geomean();
  }
}

TEST(Engine, SlicedSchedulerModeAgreesWithFluid) {
  const Scenario s = small_scenario();
  EngineConfig fluid = fast_engine(PolicyKind::kRrf);
  fluid.duration = 150.0;
  EngineConfig sliced = fluid;
  sliced.use_sliced_scheduler = true;
  const double a = run_simulation(s, fluid).perf_geomean();
  const double b = run_simulation(s, sliced).perf_geomean();
  EXPECT_NEAR(a, b, 0.05);
}

TEST(Engine, PeriodicPredictorRunsEndToEnd) {
  const Scenario s = small_scenario();
  EngineConfig config = fast_engine(PolicyKind::kRrf);
  config.predictor.enable_periodicity = true;
  const SimResult r = run_simulation(s, config);
  EXPECT_GT(r.perf_geomean(), 0.3);
}

TEST(Engine, ObserverSeesEveryWindow) {
  const Scenario s = small_scenario();
  EngineConfig config = fast_engine(PolicyKind::kRrf);
  std::vector<WindowSnapshot> snapshots;
  config.observer = [&](const WindowSnapshot& snapshot) {
    snapshots.push_back(snapshot);
  };
  const SimResult r = run_simulation(s, config);
  ASSERT_EQ(snapshots.size(), 120u);
  EXPECT_EQ(snapshots.front().window, 0u);
  EXPECT_DOUBLE_EQ(snapshots[3].time, 15.0);
  // Snapshot values agree with the recorded series.
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const double shares = s.cluster.tenant_shares(t).sum();
    for (std::size_t w = 0; w < snapshots.size(); ++w) {
      ASSERT_EQ(snapshots[w].tenant_position.size(), r.tenants.size());
      EXPECT_NEAR(snapshots[w].tenant_position[t] / shares,
                  r.tenants[t].alloc_ratio_series()[w], 1e-9);
    }
  }
}

// The per-round demand sampling reuses one flat buffer and the workloads'
// epoch caches, so once window 0 is done the window.demands frame sees no
// heap traffic -- epoch-boundary windows (12 and 24 here) included.
TEST(Engine, DemandSamplingAllocatesNothingAfterTheFirstWindow) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "observability compiled out";
  const Scenario s = fill_scenario(/*hosts=*/4, wl::paper_workloads(),
                                   /*alpha=*/1.0, /*seed=*/1,
                                   /*max_tenants=*/16);
  EngineConfig config = fast_engine(PolicyKind::kRrf);
  config.duration = 30 * config.window;
  config.rebalance.enabled = true;
  config.observer = [](const WindowSnapshot& snap) {
    if (snap.window == 0) obs::profile_reset();
  };
  const bool profiling_before = obs::profiling_enabled();
  obs::set_profiling_enabled(true);
  run_simulation(s, config);
  const obs::ProfileSnapshot snapshot = obs::profile_snapshot();
  obs::profile_reset();
  obs::set_profiling_enabled(profiling_before);

  bool found = false;
  for (const obs::ProfileNode& node : snapshot.merged) {
    if (node.site != "window.demands") continue;
    found = true;
    EXPECT_EQ(node.calls, 29u);
    EXPECT_EQ(node.bytes, 0u);
  }
  EXPECT_TRUE(found) << "no window.demands frame";
}

TEST(Engine, PolicyStringRoundTrip) {
  for (const PolicyKind policy :
       {PolicyKind::kTshirt, PolicyKind::kWmmf, PolicyKind::kDrf,
        PolicyKind::kDrfSeq, PolicyKind::kIwaOnly, PolicyKind::kRrf,
        PolicyKind::kRrfSp}) {
    EXPECT_EQ(policy_from_string(to_string(policy)), policy);
  }
  EXPECT_THROW(policy_from_string("bogus"), DomainError);
  EXPECT_EQ(paper_policies().size(), 5u);
}

TEST(Engine, ValidatesConfig) {
  const Scenario s = small_scenario();
  EngineConfig bad = fast_engine(PolicyKind::kRrf);
  bad.window = 0.0;
  EXPECT_THROW(run_simulation(s, bad), PreconditionError);
}

// tshirt and iwa hand out the shares each tenant bought.  On a node sold
// 2.5x past its capacity those shares are scaled to what the host backs,
// so the node never entitles (or runs) more than it has.  Actuation is
// ideal here: the balloon model boots every VM at its provisioned memory
// and deflates it over several windows, which overruns an oversold host's
// RAM under every policy.
TEST(Engine, StaticPoliciesFitAnOversoldNode) {
  SyntheticConfig synthetic;
  synthetic.nodes = 4;
  synthetic.vms_per_node = 8;
  synthetic.tenants = 4;
  synthetic.overcommit = 2.5;
  const Scenario s = make_synthetic_scenario(synthetic);
  for (const PolicyKind policy : {PolicyKind::kTshirt, PolicyKind::kIwaOnly}) {
    EngineConfig config = fast_engine(policy);
    config.duration = 200.0;
    config.use_actuators = false;
    const SimResult r = run_simulation(s, config);
    for (std::size_t k = 0; k < r.mean_utilization.size(); ++k) {
      EXPECT_LE(r.mean_utilization[k], 1.0) << to_string(policy) << " type "
                                            << k;
    }
  }
}

// A tenant's workload drives exactly its VMs: RUBBoS splits its demand
// over three VMs, so a tenant of one VM or of four cannot run it.
TEST(Engine, RejectsAWorkloadWhoseVmCountDiffersFromItsTenant) {
  for (const std::size_t vms : {1u, 3u, 4u}) {
    cluster::Cluster cl({cluster::paper_host()},
                        PricingModel::paper_default());
    cluster::TenantSpec tenant;
    tenant.name = "T";
    for (std::size_t j = 0; j < vms; ++j) {
      cluster::VmSpec vm;
      vm.provisioned = ResourceVector{4.0, 2.0};
      tenant.vms.push_back(vm);
    }
    cl.add_tenant(tenant);
    Scenario s{std::move(cl), {}, {}, {}};
    s.workloads.push_back(wl::make_workload(wl::WorkloadKind::kRubbos, 7));
    s.host_of = {std::vector<std::size_t>(vms, 0)};
    if (vms == 3) {
      EXPECT_NO_THROW(run_simulation(s, fast_engine(PolicyKind::kRrf)));
    } else {
      EXPECT_THROW(run_simulation(s, fast_engine(PolicyKind::kRrf)),
                   PreconditionError)
          << vms << " VMs";
    }
  }
}

}  // namespace
}  // namespace rrf::sim
