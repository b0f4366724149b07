// Thread-aware hierarchical scoped profiler (observability subsystem, see
// docs/OBSERVABILITY.md §Profiling).
//
// A ProfileScope opens one frame in the calling thread's call-tree arena:
// nested scopes become child nodes keyed by their (static) site string, so
// repeated passes through the same code path accumulate into one node
// instead of growing a trace.  Each node carries total wall time, call
// count and bytes allocated (attributed by the guarded operator-new hook
// in profiler.cpp, plus explicit add_bytes()).  Arenas are per-thread and
// lock-free on the hot path — the owner thread appends nodes and bumps
// relaxed atomic counters; profile_snapshot() merges every registered
// arena on flush, synchronizing only on the published node count.
//
// The thread registry names threads (set_thread_name; the thread pool
// names its workers "pool/worker-N" through ThreadPoolObserver) and keeps
// arenas of exited threads alive so a final flush still sees their work.
// Mutex contention (common/instrumented_mutex.hpp) and thread-pool queue
// telemetry land in the same snapshot.
//
// Exports: collapsed-stack flamegraph text (write_collapsed), Chrome
// trace JSON with real OS tids (write_chrome_profile), and Prometheus
// gauge families through the metrics registry (publish_profile_metrics).
//
// Everything guards on profiling_enabled() — a single relaxed atomic
// load, exactly like metrics_enabled()/tracing_enabled(), constant false
// when RRF_OBS_COMPILED_IN=0 — so a disabled profiler costs nothing and
// leaves allocations bit-identical (goldens run with it on to prove it).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/metrics.hpp"  // kCompiledIn, MetricsRegistry

namespace rrf::obs {

/// The calling thread's OS thread id (gettid on Linux; a stable surrogate
/// elsewhere).  Cached in a thread_local after the first call.
std::int32_t os_thread_id();

/// Names the calling thread in the profiler's registry ("main",
/// "pool/worker-3", ...); registers the thread's arena if needed.
void set_thread_name(std::string name);

namespace detail {
inline std::atomic<bool> g_profiling_enabled{false};
struct ThreadArena;
}  // namespace detail

/// Master runtime switch (off by default).  One relaxed load per query.
inline bool profiling_enabled() {
  if constexpr (!kCompiledIn) return false;
  return detail::g_profiling_enabled.load(std::memory_order_relaxed);
}
/// Flips the switch; enabling also installs the thread-pool observer and
/// the mutex-contention hook so pool/lock telemetry starts flowing.
void set_profiling_enabled(bool on);

/// RAII frame.  `site` must be a string with static storage duration
/// (string literals; to_string(Phase) results) — the arena stores the
/// pointer and never copies.
class ProfileScope {
 public:
  explicit ProfileScope(const char* site) {
    if (profiling_enabled()) enter(site);
  }
  ~ProfileScope() {
    if (armed_) leave();
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

  /// Ends the frame early (idempotent; the destructor is then a no-op).
  void stop() {
    if (armed_) leave();
  }

  /// Attributes `n` bytes to the calling thread's innermost open frame
  /// (the operator-new hook calls this automatically for heap traffic).
  static void add_bytes(std::uint64_t n);

 private:
  void enter(const char* site);
  void leave();

  detail::ThreadArena* arena_{nullptr};
  std::int32_t node_{-1};
  std::int32_t prev_{-1};
  bool armed_{false};
  std::chrono::steady_clock::time_point start_{};
};

/// One call-tree node in a snapshot; `parent` indexes the owning vector
/// (-1 for roots) and nodes appear in preorder, children sorted by site.
struct ProfileNode {
  std::string site;
  std::int32_t parent{-1};
  std::int32_t depth{0};
  double total_seconds{0.0};
  double self_seconds{0.0};  ///< total minus children, clamped at 0
  std::uint64_t calls{0};
  std::uint64_t bytes{0};
};

struct ThreadProfile {
  std::int32_t tid{0};
  std::string name;
  std::vector<ProfileNode> nodes;
};

struct MutexContention {
  std::string site;
  std::uint64_t contended{0};      ///< acquisitions that had to block
  double blocked_seconds{0.0};
};

/// Thread-pool telemetry fed by the ThreadPoolObserver the profiler
/// installs (all zero when the pool never ran while profiling was on).
struct PoolProfile {
  std::uint64_t tasks{0};
  double queue_wait_seconds{0.0};  ///< enqueue → dequeue latency, summed
  double idle_seconds{0.0};        ///< worker time blocked on the queue
  double exec_seconds{0.0};        ///< task body wall time, summed
  std::uint64_t parallel_fors{0};
  std::uint64_t helper_tasks{0};
  std::uint64_t max_queue_depth{0};
};

struct ProfileSnapshot {
  std::vector<ThreadProfile> threads;   ///< sorted by (name, tid)
  std::vector<ProfileNode> merged;      ///< all threads merged by path
  std::vector<MutexContention> contention;  ///< sorted by site
  PoolProfile pool;
};

/// Merges every registered arena (live and exited threads) on flush.
/// Nodes whose whole subtree is zero since the last reset are dropped.
ProfileSnapshot profile_snapshot();

/// Zeroes every arena's counters, the contention table and the pool
/// telemetry.  Tree shapes and thread names survive (cheap, and safe
/// while scopes are open on other threads).
void profile_reset();

/// Collapsed-stack flamegraph text: one "a;b;c <self_us>" line per
/// merged node with nonzero self time (flamegraph.pl / speedscope input).
void write_collapsed(std::ostream& os, const ProfileSnapshot& snapshot);

/// Chrome trace JSON: per-thread metadata names plus nested duration
/// slices on a synthetic timeline, tid = the real OS thread id.
void write_chrome_profile(std::ostream& os, const ProfileSnapshot& snapshot);

/// Writes a Chrome trace document, {"traceEvents":[...]}, one event per
/// line (shared with EventTracer::write_chrome_trace).
void write_chrome_events(std::ostream& os,
                         const std::vector<json::Value>& events);
/// The thread_name metadata event that labels `tid`'s track.
json::Value chrome_thread_name(std::int32_t tid, const std::string& name);

/// Publishes the snapshot as gauge families in `registry`
/// (profile.self_seconds{site=...}, profile.mutex.*, profile.pool.*).
void publish_profile_metrics(MetricsRegistry& registry,
                             const ProfileSnapshot& snapshot);

/// Registered thread names keyed by OS tid (for the event tracer's
/// Chrome export, which shares the real-tid address space).
std::vector<std::pair<std::int32_t, std::string>> profiled_thread_names();

}  // namespace rrf::obs
