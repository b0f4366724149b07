// Rendering/parsing core of the rrf_top dashboard, split from the tool
// so it is directly testable (tests/obs/topview_test.cpp): HTTP head
// parsing + chunked-transfer decoding, the /rounds feed accumulator
// (round + {"t":"gap"} drop records), and the frame renderer (share
// bars, Jain/drift sparklines, the incident pane, top self-time
// sites).  tools/rrf_top.cpp keeps only sockets and the refresh loop.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/instrumented_mutex.hpp"
#include "obs/ops.hpp"

namespace rrf::obs::top {

struct Response {
  int status{0};
  bool chunked{false};
  std::string body;  ///< de-chunked
};

/// Parses the status line + headers out of `raw`; returns the index of
/// the body start, or npos while incomplete.
std::size_t parse_head(const std::string& raw, Response* out);

/// Incremental chunked-transfer decoder: consumes complete chunks from
/// the front of `raw`, appending payload to `body`.  Returns true once
/// the terminal 0-chunk was seen.
bool dechunk(std::string* raw, std::string* body);

/// Shared state fed by the /rounds reader thread.
struct Feed {
  AnnotatedMutex mu;
  std::deque<RoundSummary> history GUARDED_BY(mu);  ///< bounded to
                                                    ///  `window_limit`
  /// Set once before the reader thread starts; read-only afterwards.
  std::size_t window_limit{60};
  std::uint64_t rounds_seen GUARDED_BY(mu){0};
  std::uint64_t gap_dropped GUARDED_BY(mu){0};
  /// Wall arrival times of recent rounds, for the allocs/sec estimate.
  std::deque<std::chrono::steady_clock::time_point> arrivals GUARDED_BY(mu);
  std::atomic<bool> disconnected{false};

  /// Ingests one NDJSON line from /rounds: "round" records extend the
  /// history, "gap" records add to the drop counter, anything else
  /// (foreign or malformed lines) is tolerated and skipped.
  void push_line(const std::string& line);
};

std::string bar(double fill, std::size_t width);
std::string sparkline(const std::vector<double>& values, double lo, double hi);
std::string format_num(double value, int precision = 2);

/// The `/incidents` document condensed to a pane: open/total counts and
/// one line per incident (worst first).  Empty string when the document
/// is missing/empty so quiet clusters pay no screen space.
std::string render_incidents(const std::string& body);

/// Top self-time sites from collapsed-flamegraph text ("a;b;c <us>").
std::string render_profile(const std::string& body, std::size_t top_n);

/// One full dashboard frame (plain text, no terminal control).
std::string render_frame(Feed& feed, const std::string& endpoint,
                         const std::string& profile_body,
                         const std::string& incidents_body = {});

}  // namespace rrf::obs::top
