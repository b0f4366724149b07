// Structured allocation-event tracing (observability subsystem).
//
// EventTracer is a bounded ring buffer of small fixed-size typed events —
// no strings, no allocation on the record path — so a fully traced
// simulation run degrades gracefully: once the ring is full the oldest
// events are overwritten and `dropped()` says how many were lost.
//
// Events can be exported two ways, both through the common/json codec so
// timestamps and values keep every digit:
//  * JSONL — one self-describing JSON object per line; round-trips through
//    read_jsonl() for offline analysis;
//  * Chrome trace format — a {"traceEvents": [...]} document that loads
//    directly into chrome://tracing / Perfetto: phase timings render as
//    duration slices (one track per node), everything else as instants.
//
// Instrumentation sites guard on tracing_enabled() (a relaxed atomic load;
// constant false when RRF_OBS_COMPILED_IN=0), so the tracer costs nothing
// until a tool such as `rrf_sim_cli --trace` switches it on.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "common/instrumented_mutex.hpp"
#include "obs/metrics.hpp"  // kCompiledIn

namespace rrf::obs {

enum class EventKind : std::uint8_t {
  kAllocRoundBegin,  ///< node starts an allocation round (value = VM count)
  kAllocRoundEnd,    ///< node finished the round
  kIrtTrade,         ///< IRT moved shares: value = alloc - initial share
                     ///  (positive: received, negative: contributed)
  kIwaAdjust,        ///< IWA shifted shares between sibling VMs
  kBalloonTarget,    ///< balloon retargeted (value = target, value2 = current)
  kBalloonTransfer,  ///< balloon reached its target (value = GB moved,
                     ///  value2 = simulated seconds the transfer took)
  kMigration,        ///< live migration (node = from, value2 = to,
                     ///  value = GB copied)
  kPhase,            ///< one timed phase (dur_us; phase field says which)
  kContractViolation,  ///< audit-mode contract violation recorded by
                       ///  obs/contract_bridge (value = 1 per violation)
};

/// Stable wire name ("irt_trade", "iwa_adjust", ...).
const char* to_string(EventKind kind);
std::optional<EventKind> event_kind_from_string(std::string_view name);

/// The allocation round's four phases, in execution order.
enum class Phase : std::uint8_t { kPredict, kAllocate, kActuate, kSettle };
inline constexpr std::size_t kPhaseCount = 4;
const char* to_string(Phase phase);

struct TraceEvent {
  EventKind kind{EventKind::kAllocRoundBegin};
  std::int8_t phase{-1};     ///< Phase for kPhase events, else -1
  std::int8_t resource{-1};  ///< resource-type index, -1 when n/a
  double ts_us{-1.0};        ///< µs since tracer epoch (stamped by record())
  double dur_us{0.0};        ///< kPhase only
  std::int32_t tid{-1};      ///< OS thread id (stamped by record())
  std::int32_t node{-1};
  std::int32_t tenant{-1};   ///< tenant/entity index, -1 when n/a
  std::int32_t vm{-1};
  std::int32_t window{-1};
  double value{0.0};
  double value2{0.0};
};

class EventTracer {
 public:
  explicit EventTracer(std::size_t capacity = 1 << 16);

  /// Appends (overwriting the oldest event when full).  Stamps ts_us from
  /// the tracer's monotonic epoch unless the caller already set it >= 0.
  void record(TraceEvent e);

  /// Microseconds elapsed since the tracer was constructed.
  double now_us() const;
  double to_us(std::chrono::steady_clock::time_point tp) const;

  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const;  ///< total record() calls
  std::uint64_t dropped() const;   ///< events lost to ring wraparound
  /// Buffered events, oldest first.
  std::vector<TraceEvent> events() const;
  void clear();

  void write_jsonl(std::ostream& os) const;
  void write_chrome_trace(std::ostream& os) const;
  /// Parses write_jsonl() output.  Lines that are not objects with a
  /// known "kind" are skipped; a known event with a mistyped field throws
  /// DomainError.
  static std::vector<TraceEvent> read_jsonl(std::istream& is);

 private:
  const std::size_t capacity_;
  mutable InstrumentedMutex mu_{"tracer.ring"};
  std::vector<TraceEvent> ring_ GUARDED_BY(mu_);
  /// Ring slot the next event lands in.
  std::size_t next_ GUARDED_BY(mu_){0};
  std::uint64_t recorded_ GUARDED_BY(mu_){0};
  std::chrono::steady_clock::time_point epoch_;
};

/// The process-global tracer instrumentation sites write to.
EventTracer& tracer();

namespace detail {
inline std::atomic<bool> g_tracing_enabled{false};
}  // namespace detail

/// Master runtime switch for event tracing (off by default).
inline bool tracing_enabled() {
  if constexpr (!kCompiledIn) return false;
  return detail::g_tracing_enabled.load(std::memory_order_relaxed);
}
inline void set_tracing_enabled(bool on) {
  detail::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

}  // namespace rrf::obs
