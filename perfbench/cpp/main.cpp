// rrf_perfbench — the repository benchmark program.
//
//   rrf_perfbench --workload synth-alloc|paper-ops
//                 [--seed N] [--seconds S] [--trace 0|1]
//                 [--reference FILE] [--tmpdir DIR] [--emit-digests]
//
// --trace 0 runs the workload as a closed loop for about S seconds and
// reports the end-to-end metrics; --trace 1 is the separate traced run
// that times the benchmark's own calls into each layer (layers.cpp).
// The last line of standard output is the one-line JSON result.  See
// perfbench/README.md.
#include <cmath>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// The seed whose per-window digests are pinned in the reference file.
constexpr std::uint64_t kDefaultSeed = 1;
/// Samples needed for at least ten to lie beyond the reported p95.
constexpr std::size_t kMinRoundSamples = 200;
constexpr std::size_t kMinRepetitions = 3;

struct Options {
  WorkloadId workload{WorkloadId::kSynthAlloc};
  std::uint64_t seed{kDefaultSeed};
  double seconds{10.0};
  bool trace{false};
  std::filesystem::path reference;
  std::filesystem::path tmpdir{"."};
  bool emit_digests{false};
};

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = workload_from_name(value());
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") throw std::invalid_argument("--trace wants 0 or 1");
      options.trace = v == "1";
    } else if (arg == "--reference") {
      options.reference = value();
    } else if (arg == "--tmpdir") {
      options.tmpdir = value();
    } else if (arg == "--emit-digests") {
      options.emit_digests = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return options;
}

/// The default seed's digests from the reference file; empty for any
/// other seed (runs are then checked against their own first loop).
std::vector<std::uint64_t> pinned_digests(const Options& options) {
  if (options.seed != kDefaultSeed || options.emit_digests) return {};
  std::vector<std::uint64_t> digests =
      load_reference(options.reference, options.workload, options.seed);
  const std::size_t windows = shape_of(options.workload).rounds;
  if (digests.size() != windows) {
    throw std::runtime_error(
        "reference " + options.reference.string() + " pins " +
        std::to_string(digests.size()) + " windows of " +
        to_string(options.workload) + " at seed " +
        std::to_string(options.seed) + ", the workload runs " +
        std::to_string(windows));
  }
  return digests;
}

/// Prints the result; a metric that is not finite fails the run.
int report(const Options& options, const char* mode,
           const std::vector<Metric>& info, const std::vector<Metric>& reported,
           Tally tally) {
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) {
      tally.correct = false;
      tally.problems.push_back(m.name + " is not finite");
    }
  }
  for (const std::string& p : tally.problems) {
    std::cerr << "check failed: " << p << "\n";
  }
  std::cout << "workload " << to_string(options.workload) << " seed "
            << options.seed << " (" << mode << ")\n";
  print_result(info, reported, tally.correct && tally.failed == 0,
               tally.attempted, tally.failed);
  return 0;
}

int run_e2e(const Options& options, DigestCheck& digests) {
  const WorkloadShape shape = shape_of(options.workload);
  std::vector<double> setup_s, setup_wall_s, build_s;
  std::vector<double> round_s, round_wall_s;
  SpeedGauge gauge;
  std::uint64_t log_bytes = 0;
  std::size_t logged_rounds = 0, reps = 0;
  // Peak RSS through the first repetition: later repetitions repeat the
  // same work, and only the benchmark's own sample storage keeps growing.
  double peak_rss = 0.0;
  Tally tally;
  double fairness = 0.0, perf = 0.0;
  std::size_t slots = 0, tenants = 0;

  const Clock::time_point start = Clock::now();
  while (reps < kMinRepetitions || round_s.size() < kMinRoundSamples ||
         seconds_since(start) < options.seconds) {
    const Clock::time_point t0 = Clock::now();
    const rrf::sim::Scenario scenario =
        build_scenario(options.workload, options.seed);
    build_s.push_back(seconds_since(t0));
    const LoopResult loop =
        run_loop(scenario, engine_config(shape), shape.rounds, shape.sinks,
                 false, options.tmpdir, &gauge);
    setup_wall_s.push_back(seconds_between(t0, loop.first_round_start));
    setup_s.push_back(setup_wall_s.back() * loop.setup_factor);
    if (reps == 0) peak_rss = peak_rss_mb();
    ++reps;

    if (options.emit_digests) {
      std::cout << to_string(options.workload) << " " << options.seed << " "
                << loop.digests.size();
      for (const std::uint64_t d : loop.digests) std::cout << " " << to_hex(d);
      std::cout << std::endl;
      return loop.correct ? 0 : 1;
    }
    // Every repetition replays the same inputs, so it must reproduce the
    // pinned reference (default seed) or the first repetition.
    tally.add(loop, digests);

    slots = placed_slots(scenario);
    tenants = scenario.cluster.tenants().size();
    round_s.insert(round_s.end(), loop.round_ref_s.begin(), loop.round_ref_s.end());
    round_wall_s.insert(round_wall_s.end(), loop.round_s.begin(),
                        loop.round_s.end());
    log_bytes += loop.log_bytes;
    logged_rounds += shape.rounds;
    fairness = loop.result.fairness_geomean();
    perf = loop.result.perf_geomean();
  }

  // Times at the gauge's reference speed.  Wall round times on a shared
  // host move between levels up to ~2x apart, and a run's wall median
  // jumps between them with the share of the run each level held (README
  // "Noise"); the wall figures are printed as info.
  const std::vector<Metric> reported = {
      {"setup_s", median(setup_s), "s"},
      {"round_p50_ms", median(round_s) * 1e3, "ms"},
      {"round_p95_ms", percentile(round_s, 0.95) * 1e3, "ms"},
      {"slot_rounds_per_s",
       static_cast<double>(slots * round_s.size()) / total(round_s), "1/s"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
  std::vector<Metric> info = reported;
  info.push_back({"setup_wall_s", median(setup_wall_s), "s"});
  info.push_back({"round_p50_wall_ms", median(round_wall_s) * 1e3, "ms"});
  info.push_back({"round_p95_wall_ms", percentile(round_wall_s, 0.95) * 1e3, "ms"});
  info.push_back({"slot_rounds_per_wall_s",
                  static_cast<double>(slots * round_wall_s.size()) /
                      total(round_wall_s),
                  "1/s"});
  info.push_back({"gauge_pass_p50_ms", median(gauge.passes()) * 1e3, "ms"});
  info.push_back({"gauge_samples", static_cast<double>(gauge.passes().size()),
                  "count"});
  info.push_back({"round_samples", static_cast<double>(round_s.size()), "count"});
  info.push_back({"round_samples_beyond_p95",
                  static_cast<double>(samples_beyond(round_s.size(), 0.95)),
                  "count"});
  info.push_back({"repetitions", static_cast<double>(reps), "count"});
  info.push_back({"placed_slots", static_cast<double>(slots), "count"});
  info.push_back({"tenants", static_cast<double>(tenants), "count"});
  info.push_back({"scenario_build_s", median(build_s), "s"});
  info.push_back({"log_bytes_per_round",
                  static_cast<double>(log_bytes) / static_cast<double>(logged_rounds),
                  "B"});
  info.push_back({"fairness_geomean", fairness, "ratio"});
  info.push_back({"perf_geomean", perf, "ratio"});

  return report(options, "closed loop, tracing off", info, reported, tally);
}

int run_traced(const Options& options, DigestCheck& digests) {
  const LayerReport layers = measure_layers(options.workload, options.seed,
                                            options.seconds, options.tmpdir,
                                            digests);
  return report(options, "traced run", layers.info, layers.metrics,
                layers.tally);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options options = perfbench::parse(argc, argv);
    std::filesystem::create_directories(options.tmpdir);
    perfbench::DigestCheck digests(perfbench::pinned_digests(options));
    return options.trace ? perfbench::run_traced(options, digests)
                         : perfbench::run_e2e(options, digests);
  } catch (const std::exception& e) {
    std::cerr << "rrf_perfbench: " << e.what() << "\n";
    return 1;
  }
}
