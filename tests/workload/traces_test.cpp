#include "workload/traces.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <thread>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "workload/profile.hpp"

namespace rrf::wl {
namespace {

/// Statistical fidelity to Table IV: mean within tolerance, peak within
/// reach of the paper's value, and everything non-negative.
class TraceFidelity : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(TraceFidelity, MeanTracksTableFour) {
  const WorkloadPtr w = make_workload(GetParam(), /*seed=*/7);
  const WorkloadProfile p = profile_workload(*w, 2700.0, 1.0);
  const DemandProfileSpec spec = paper_demand_spec(GetParam());
  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_NEAR(p.average[k], spec.average[k], 0.15 * spec.average[k])
        << to_string(GetParam()) << " type " << k;
    EXPECT_LE(p.peak[k], spec.peak[k] * 1.10)
        << to_string(GetParam()) << " type " << k;
  }
}

TEST_P(TraceFidelity, DemandsAreNonNegativeAndFinite) {
  const WorkloadPtr w = make_workload(GetParam(), 11);
  for (double t = 0.0; t < 2700.0; t += 7.0) {
    const ResourceVector d = w->demand_at(t);
    EXPECT_TRUE(d.all_nonneg()) << t;
    EXPECT_LT(d[0], 100.0);
    EXPECT_LT(d[1], 32.0);
  }
}

TEST_P(TraceFidelity, DeterministicInSeed) {
  const WorkloadPtr a = make_workload(GetParam(), 5);
  const WorkloadPtr b = make_workload(GetParam(), 5);
  const WorkloadPtr c = make_workload(GetParam(), 6);
  bool any_diff = false;
  for (double t = 0.0; t < 500.0; t += 13.0) {
    EXPECT_TRUE(a->demand_at(t).approx_equal(b->demand_at(t), 1e-12));
    if (!a->demand_at(t).approx_equal(c->demand_at(t), 1e-9)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff) << "different seeds must differ";
}

TEST_P(TraceFidelity, VmDemandsSumToTotal) {
  const WorkloadPtr w = make_workload(GetParam(), 9);
  for (double t = 0.0; t < 1000.0; t += 37.0) {
    const ResourceVector total = w->demand_at(t);
    const auto per_vm = w->vm_demands_at(t);
    EXPECT_EQ(per_vm.size(), w->vm_split().size());
    ResourceVector sum(total.size());
    for (const auto& d : per_vm) sum += d;
    EXPECT_TRUE(sum.approx_equal(total, 1e-9)) << t;
  }
}

TEST_P(TraceFidelity, SplitSumsToOne) {
  const WorkloadPtr w = make_workload(GetParam(), 1);
  const auto split = w->vm_split();
  const double sum = std::accumulate(split.begin(), split.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, TraceFidelity,
    ::testing::Values(WorkloadKind::kTpcc, WorkloadKind::kRubbos,
                      WorkloadKind::kKernelBuild, WorkloadKind::kHadoop),
    [](const auto& param_info) {
      std::string n = to_string(param_info.param);
      n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
      return n;
    });

TEST(TraceShapes, TpccIsOnOff) {
  // The on-off pattern yields strongly bimodal CPU demand: the standard
  // deviation is large relative to the mean.
  const TpccWorkload w(3);
  const WorkloadProfile p = profile_workload(w, 2700.0, 1.0);
  EXPECT_GT(p.stddev[0] / p.average[0], 0.5);
}

TEST(TraceShapes, RubbosIsCyclical) {
  // Alternating 500/1000-user phases: demand at half-period offsets is
  // anti-correlated.
  const RubbosWorkload w(3);
  std::vector<double> first, shifted;
  for (double t = 0.0; t < 1200.0; t += 5.0) {
    first.push_back(w.demand_at(t)[0]);
    shifted.push_back(w.demand_at(t + 300.0)[0]);  // half of the 600s cycle
  }
  EXPECT_LT(pearson(first, shifted), -0.5);
}

TEST(TraceShapes, KernelBuildIsSteady) {
  const KernelBuildWorkload w(3);
  const WorkloadProfile p = profile_workload(w, 2700.0, 1.0);
  EXPECT_LT(p.stddev[0] / p.average[0], 0.25);
  EXPECT_LT(p.stddev[1] / p.average[1], 0.15);
}

TEST(TraceShapes, HadoopIsStableThenReduces) {
  const HadoopWorkload w(3);
  // Map stage (t < 95% of the trace) is stable and high...
  const ResourceVector mid = w.demand_at(1000.0);
  // ... the reduce tail drops CPU markedly.
  const ResourceVector tail = w.demand_at(2680.0);
  EXPECT_LT(tail[0], 0.6 * mid[0]);
}

TEST(TraceShapes, TraceWrapsAround) {
  const KernelBuildWorkload w(3, /*length=*/100.0);
  EXPECT_TRUE(w.demand_at(0.0).approx_equal(w.demand_at(100.0), 1e-12));
  EXPECT_TRUE(w.demand_at(37.0).approx_equal(w.demand_at(137.0), 1e-12));
}

/// Per-VM jitter stddev each paper workload passes to TraceWorkload.
double jitter_of(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kTpcc: return 0.10;
    case WorkloadKind::kRubbos: return 0.08;
    case WorkloadKind::kKernelBuild: return 0.0;
    case WorkloadKind::kHadoop: return 0.05;
  }
  return 0.0;
}

/// The per-call formula the epoch cache replaced, transliterated: every
/// call seeds one generator per VM and renormalises the jittered split.
std::vector<ResourceVector> per_call_vm_demands(const Workload& w,
                                                std::uint64_t seed,
                                                double jitter, Seconds t) {
  const ResourceVector total = w.demand_at(t);
  const std::vector<double> split = w.vm_split();
  const std::size_t n = split.size();
  std::vector<ResourceVector> out(n, ResourceVector(total.size()));
  if (n == 1) {
    out[0] = total;
    return out;
  }
  const auto epoch = static_cast<std::uint64_t>(std::max(0.0, t) / 60.0);
  std::vector<double> weights(n);
  double wsum = 0.0;
  for (std::size_t j = 0; j < n; ++j) {
    Rng r = Rng(seed).fork(epoch * 1000 + j);
    const double factor = r.normal_in(1.0, jitter, 0.25, 1.75);
    weights[j] = split[j] * factor;
    wsum += weights[j];
  }
  for (std::size_t j = 0; j < n; ++j) {
    out[j] = total * (weights[j] / wsum);
  }
  return out;
}

/// Epoch boundaries, the 2700 s trace wrap, negative t and jumps back to
/// earlier epochs, in one order so the cache sees every transition.
const std::vector<Seconds>& probe_times() {
  static const std::vector<Seconds> times = {
      0.0,    4.0,    59.0,   59.999, 60.0,   60.5,  119.0,  120.0,
      5.0,    -1.0,   -60.5,  65.0,   600.0,  61.0,  2699.0, 2700.0,
      2701.0, 2760.0, 5400.5, 61.0,   3000.0, 0.0,   179.99, 180.0};
  return times;
}

void expect_same_bits(const std::vector<ResourceVector>& expected,
                      std::span<const ResourceVector> actual,
                      const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  for (std::size_t j = 0; j < expected.size(); ++j) {
    ASSERT_EQ(actual[j].size(), expected[j].size()) << what;
    for (std::size_t k = 0; k < expected[j].size(); ++k) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(actual[j][k]),
                std::bit_cast<std::uint64_t>(expected[j][k]))
          << what << " vm " << j << " type " << k;
    }
  }
}

TEST(TraceDemands, IntoMatchesThePerCallFormulaBitForBit) {
  for (const WorkloadKind kind : paper_workloads()) {
    for (const std::uint64_t seed : {1ull, 42ull, 1013ull}) {
      const WorkloadPtr w = make_workload(kind, seed);
      std::vector<ResourceVector> out(w->vm_split().size());
      for (const Seconds t : probe_times()) {
        const std::string what = to_string(kind) + " seed " +
                                 std::to_string(seed) + " t " +
                                 std::to_string(t);
        w->vm_demands_into(t, out);
        const auto expected = per_call_vm_demands(*w, seed, jitter_of(kind), t);
        expect_same_bits(expected, out, what);
        expect_same_bits(expected, w->vm_demands_at(t), what + " (at)");
      }
    }
  }
}

TEST(TraceDemands, SingleVmWorkloadReturnsTheTotal) {
  const KernelBuildWorkload w(3);
  std::vector<ResourceVector> out(1);
  for (const Seconds t : probe_times()) {
    w.vm_demands_into(t, out);
    expect_same_bits({w.demand_at(t)}, out, "t " + std::to_string(t));
  }
}

TEST(TraceDemands, RejectsAMisSizedOutput) {
  const HadoopWorkload w(3);
  std::vector<ResourceVector> out(3);
  EXPECT_THROW(w.vm_demands_into(0.0, out), PreconditionError);
}

// Two threads share one workload (as two simulations sharing a Scenario
// do) and walk the epochs in opposite orders, so each keeps evicting the
// other's cache entry.  Registered under the tsan ctest label.
TEST(TraceDemands, ConcurrentCallersSeeIdenticalDemands) {
  const WorkloadPtr w = make_workload(WorkloadKind::kHadoop, 5);
  std::vector<Seconds> times;
  for (int e = 0; e < 24; ++e) times.push_back(60.0 * e + 7.0);
  std::vector<std::vector<ResourceVector>> expected;
  for (const Seconds t : times) {
    expected.push_back(
        per_call_vm_demands(*w, 5, jitter_of(WorkloadKind::kHadoop), t));
  }
  auto walk = [&](bool reverse, std::size_t& mismatches) {
    std::vector<ResourceVector> out(w->vm_split().size());
    for (int rep = 0; rep < 50; ++rep) {
      for (std::size_t i = 0; i < times.size(); ++i) {
        const std::size_t at = reverse ? times.size() - 1 - i : i;
        w->vm_demands_into(times[at], out);
        for (std::size_t j = 0; j < out.size(); ++j) {
          for (std::size_t k = 0; k < out[j].size(); ++k) {
            if (std::bit_cast<std::uint64_t>(out[j][k]) !=
                std::bit_cast<std::uint64_t>(expected[at][j][k])) {
              ++mismatches;
            }
          }
        }
      }
    }
  };
  std::size_t forward_bad = 0;
  std::size_t backward_bad = 0;
  std::thread forward(walk, false, std::ref(forward_bad));
  std::thread backward(walk, true, std::ref(backward_bad));
  forward.join();
  backward.join();
  EXPECT_EQ(forward_bad, 0u);
  EXPECT_EQ(backward_bad, 0u);
}

TEST(Profile, CapturesPercentilesAndCorrelation) {
  const HadoopWorkload w(3);
  const WorkloadProfile p = profile_workload(w, 2700.0, 5.0);
  EXPECT_GE(p.peak[0], p.p95[0]);
  EXPECT_GE(p.p95[0], p.average[0] * 0.8);
  EXPECT_GE(p.cpu_ram_correlation, -1.0);
  EXPECT_LE(p.cpu_ram_correlation, 1.0);
}

}  // namespace
}  // namespace rrf::wl
