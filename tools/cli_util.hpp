// Shared CLI plumbing for the rrf_* tools.
//
// rrf_sim_cli and rrf_alloc_cli expose the same telemetry-journal flags;
// this header keeps their spelling, parsing and defaults in one place so
// the two tools can never drift apart (`--journal` meaning bytes in one
// and a path in the other).  Both tools already use a `next()` closure to
// consume flag values, so parse_flag() takes any nullary callable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/error.hpp"
#include "common/table.hpp"
#include "obs/journal.hpp"

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

}  // namespace rrf::tools
