#include "obs/trace.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <string>

#include "common/error.hpp"
#include "obs/profiler.hpp"  // os_thread_id, profiled_thread_names

namespace rrf::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kAllocRoundBegin: return "alloc_round_begin";
    case EventKind::kAllocRoundEnd: return "alloc_round_end";
    case EventKind::kIrtTrade: return "irt_trade";
    case EventKind::kIwaAdjust: return "iwa_adjust";
    case EventKind::kBalloonTarget: return "balloon_target";
    case EventKind::kBalloonTransfer: return "balloon_transfer";
    case EventKind::kMigration: return "migration";
    case EventKind::kPhase: return "phase";
    case EventKind::kContractViolation: return "contract_violation";
  }
  return "unknown";
}

std::optional<EventKind> event_kind_from_string(std::string_view name) {
  for (const EventKind kind :
       {EventKind::kAllocRoundBegin, EventKind::kAllocRoundEnd,
        EventKind::kIrtTrade, EventKind::kIwaAdjust, EventKind::kBalloonTarget,
        EventKind::kBalloonTransfer, EventKind::kMigration,
        EventKind::kPhase, EventKind::kContractViolation}) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kPredict: return "predict";
    case Phase::kAllocate: return "allocate";
    case Phase::kActuate: return "actuate";
    case Phase::kSettle: return "settle";
  }
  return "unknown";
}

EventTracer::EventTracer(std::size_t capacity)
    : capacity_(capacity), epoch_(std::chrono::steady_clock::now()) {
  RRF_REQUIRE(capacity > 0, "tracer capacity must be positive");
  ring_.reserve(std::min<std::size_t>(capacity, 1024));
}

double EventTracer::now_us() const {
  return to_us(std::chrono::steady_clock::now());
}

double EventTracer::to_us(std::chrono::steady_clock::time_point tp) const {
  return std::chrono::duration<double, std::micro>(tp - epoch_).count();
}

void EventTracer::record(TraceEvent e) {
  if (e.ts_us < 0.0) e.ts_us = now_us();
  if (e.tid < 0) e.tid = os_thread_id();
  MutexLock lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(e);
  } else {
    ring_[next_] = e;
  }
  next_ = (next_ + 1) % capacity_;
  ++recorded_;
}

std::uint64_t EventTracer::recorded() const {
  MutexLock lock(mu_);
  return recorded_;
}

std::uint64_t EventTracer::dropped() const {
  MutexLock lock(mu_);
  return recorded_ - ring_.size();
}

std::vector<TraceEvent> EventTracer::events() const {
  MutexLock lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

void EventTracer::clear() {
  MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
}

namespace {

json::Value event_to_json(const TraceEvent& e) {
  return json::Object{
      {"kind", to_string(e.kind)}, {"ts_us", e.ts_us}, {"dur_us", e.dur_us},
      {"tid", e.tid}, {"node", e.node}, {"tenant", e.tenant}, {"vm", e.vm},
      {"window", e.window}, {"resource", static_cast<int>(e.resource)},
      {"phase", static_cast<int>(e.phase)}, {"value", e.value},
      {"value2", e.value2}};
}

/// Chrome trace form: phases as duration slices, everything else as
/// instants, on the recording thread's track.
json::Value event_to_chrome(const TraceEvent& e) {
  const int tid = e.tid >= 0 ? e.tid : 0;
  if (e.kind == EventKind::kPhase) {
    const char* name = e.phase >= 0 && e.phase < static_cast<int>(kPhaseCount)
                           ? to_string(static_cast<Phase>(e.phase))
                           : "phase";
    return json::Object{
        {"name", name}, {"cat", "phase"}, {"ph", "X"}, {"ts", e.ts_us},
        {"dur", e.dur_us}, {"pid", 0}, {"tid", tid},
        {"args", json::Object{{"node", e.node}, {"window", e.window}}}};
  }
  return json::Object{
      {"name", to_string(e.kind)}, {"cat", "event"}, {"ph", "i"}, {"s", "t"},
      {"ts", e.ts_us}, {"pid", 0}, {"tid", tid},
      {"args", json::Object{{"node", e.node}, {"tenant", e.tenant},
                            {"vm", e.vm}, {"window", e.window},
                            {"resource", static_cast<int>(e.resource)},
                            {"value", e.value}, {"value2", e.value2}}}};
}

}  // namespace

void EventTracer::write_jsonl(std::ostream& os) const {
  for (const TraceEvent& e : events()) os << event_to_json(e).dump() << '\n';
}

std::vector<TraceEvent> EventTracer::read_jsonl(std::istream& is) {
  std::vector<TraceEvent> out;
  std::string line;
  while (std::getline(is, line)) {
    json::Value value;
    try {
      value = json::Value::parse(line);
    } catch (const DomainError&) {
      continue;
    }
    const json::Value* kind_name = value.find("kind");
    if (kind_name == nullptr || !kind_name->is_string()) continue;
    const auto kind = event_kind_from_string(kind_name->as_string());
    if (!kind) continue;
    const json::Reader r(value, "trace");
    TraceEvent e;
    e.kind = *kind;
    e.ts_us = r.number_or("ts_us", 0.0);
    e.dur_us = r.number_or("dur_us", 0.0);
    e.tid = static_cast<std::int32_t>(r.int64_or("tid", -1));
    e.node = static_cast<std::int32_t>(r.int64_or("node", -1));
    e.tenant = static_cast<std::int32_t>(r.int64_or("tenant", -1));
    e.vm = static_cast<std::int32_t>(r.int64_or("vm", -1));
    e.window = static_cast<std::int32_t>(r.int64_or("window", -1));
    e.resource = static_cast<std::int8_t>(r.int64_or("resource", -1));
    e.phase = static_cast<std::int8_t>(r.int64_or("phase", -1));
    e.value = r.number_or("value", 0.0);
    e.value2 = r.number_or("value2", 0.0);
    out.push_back(e);
  }
  return out;
}

void EventTracer::write_chrome_trace(std::ostream& os) const {
  std::vector<json::Value> out;
  // Tracks are real OS threads, so label the ones the profiler knows
  // about ("main", "pool/worker-N") with thread_name metadata events.
  for (const auto& [tid, name] : profiled_thread_names()) {
    out.push_back(chrome_thread_name(tid, name));
  }
  for (const TraceEvent& e : events()) out.push_back(event_to_chrome(e));
  write_chrome_events(os, out);
}

EventTracer& tracer() {
  static EventTracer instance;
  return instance;
}

}  // namespace rrf::obs
