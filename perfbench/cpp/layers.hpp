// The traced run: per-layer metrics measured by timing the benchmark's own
// calls into each module's public functions, on the per-round inputs the
// workload produces.  Nothing inside the library is instrumented for it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "util.hpp"
#include "workloads.hpp"

namespace perfbench {

struct LayerReport {
  std::vector<Metric> metrics;  ///< every per-layer metric, in order
  std::vector<Metric> info;     ///< metrics plus bases and sample counts
  /// Every closed loop the traced run drives is checked like the
  /// untraced run's.
  Tally tally;
};

LayerReport measure_layers(WorkloadId workload, std::uint64_t seed,
                           double seconds, const std::filesystem::path& tmpdir,
                           DigestCheck& digests);

}  // namespace perfbench
