// Shared CLI plumbing for the rrf_* tools.
//
// rrf_sim_cli and rrf_alloc_cli expose the same telemetry-journal flags
// and the same --trace/--metrics/--profile outputs; this header keeps
// their spelling, parsing, defaults and file formats in one place so the
// two tools can never drift apart (`--journal` meaning bytes in one and a
// path in the other).  Both tools already use a `next()` closure to
// consume flag values, so parse_flag() takes any nullary callable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "common/error.hpp"
#include "common/table.hpp"
#include "obs/exposition.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace rrf::tools {

/// Help text for the shared journal flags (same indentation as the rest
/// of each tool's usage block).
inline constexpr const char* kJournalFlagsHelp =
    "  --journal <path>    append a schema-v2 telemetry journal (JSONL);\n"
    "                      inspect with rrf_inspect journal\n"
    "  --journal-retention <bytes>  bound journal disk use via two-segment\n"
    "                      rotation (default 0 = unbounded)\n";

/// A TCP port flag value, whole-token (`--serve-ops 94x0` and 70000 throw
/// DomainError naming the flag).
inline int port_flag(const std::string& flag, const std::string& value) {
  const std::uint64_t port = parse_csv_count(value, flag);
  if (port > 65535) throw DomainError(flag + ": not a TCP port: " + value);
  return static_cast<int>(port);
}

/// The journal flags shared by rrf_sim_cli and rrf_alloc_cli.
struct JournalCliOptions {
  std::string path;           ///< --journal (empty = journaling off)
  std::size_t retention = 0;  ///< --journal-retention bytes (0 = unbounded)

  bool enabled() const { return !path.empty(); }

  /// Consumes `arg` when it is one of the journal flags, pulling its
  /// value from `next` (a nullary callable yielding the following argv
  /// token).  Returns false — nothing consumed — for any other flag.
  template <typename Next>
  bool parse_flag(const std::string& arg, Next&& next) {
    if (arg == "--journal") {
      path = next();
      return true;
    }
    if (arg == "--journal-retention") {
      retention = parse_csv_count(next(), arg);
      return true;
    }
    return false;
  }

  /// Writer options with the shared fields filled in; the caller sets
  /// kind, policy and the tenant list.
  obs::TelemetryJournal::Options writer_options() const {
    obs::TelemetryJournal::Options options;
    options.path = path;
    options.max_bytes = retention;
    return options;
  }
};

inline bool ends_with(const std::string& s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Opens `path` for writing; exits 1 with a message when it cannot.
inline std::ofstream open_output(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot open " << path << " for writing\n";
    std::exit(1);
  }
  return out;
}

/// Writes the --trace, --profile and --metrics outputs a run asked for
/// (an empty path skips that output); the extension picks the format.
inline void write_observability_outputs(const std::string& trace_path,
                                        const std::string& metrics_path,
                                        const std::string& profile_path) {
  if (!trace_path.empty()) {
    std::ofstream out = open_output(trace_path);
    if (ends_with(trace_path, ".jsonl")) {
      obs::tracer().write_jsonl(out);
    } else {
      obs::tracer().write_chrome_trace(out);
    }
    std::cout << "wrote " << trace_path << " ("
              << obs::tracer().events().size() << " events";
    if (obs::tracer().dropped() > 0) {
      std::cout << ", " << obs::tracer().dropped()
                << " dropped to ring wraparound";
    }
    std::cout << ")\n";
  }
  if (!profile_path.empty()) {
    const obs::ProfileSnapshot snapshot = obs::profile_snapshot();
    if (obs::metrics_enabled()) {
      // Land profile.* gauges in the same snapshot/exposition as the
      // run's own counters.
      obs::publish_profile_metrics(obs::metrics(), snapshot);
    }
    std::ofstream out = open_output(profile_path);
    if (ends_with(profile_path, ".json")) {
      obs::write_chrome_profile(out, snapshot);
    } else {
      obs::write_collapsed(out, snapshot);
    }
    std::cout << "wrote " << profile_path << " (" << snapshot.merged.size()
              << " call-tree sites over " << snapshot.threads.size()
              << " thread(s))\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream out = open_output(metrics_path);
    if (ends_with(metrics_path, ".csv")) {
      obs::metrics().write_csv(out);
    } else if (ends_with(metrics_path, ".prom")) {
      obs::write_prometheus(out, obs::metrics());
    } else {
      obs::metrics().write_json(out);
    }
    std::cout << "wrote " << metrics_path << "\n";
  }
}

}  // namespace rrf::tools
