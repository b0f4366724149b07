#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
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

void write_event_jsonl(std::ostream& os, const TraceEvent& e) {
  os << "{\"kind\":\"" << to_string(e.kind) << "\",\"ts_us\":" << e.ts_us
     << ",\"dur_us\":" << e.dur_us << ",\"tid\":" << e.tid
     << ",\"node\":" << e.node
     << ",\"tenant\":" << e.tenant << ",\"vm\":" << e.vm
     << ",\"window\":" << e.window
     << ",\"resource\":" << static_cast<int>(e.resource)
     << ",\"phase\":" << static_cast<int>(e.phase)
     << ",\"value\":" << e.value << ",\"value2\":" << e.value2 << "}\n";
}

/// Finds `"key":` in a JSONL line and returns the raw token after it.
std::optional<std::string> raw_field(const std::string& line,
                                     std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  if (begin < line.size() && line[begin] == '"') {
    end = line.find('"', begin + 1);
    if (end == std::string::npos) return std::nullopt;
    return line.substr(begin + 1, end - begin - 1);
  }
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(begin, end - begin);
}

double num_field(const std::string& line, std::string_view key,
                 double fallback = 0.0) {
  const auto raw = raw_field(line, key);
  return raw ? std::strtod(raw->c_str(), nullptr) : fallback;
}

}  // namespace

void EventTracer::write_jsonl(std::ostream& os) const {
  for (const TraceEvent& e : events()) write_event_jsonl(os, e);
}

std::vector<TraceEvent> EventTracer::read_jsonl(std::istream& is) {
  std::vector<TraceEvent> out;
  std::string line;
  while (std::getline(is, line)) {
    const auto kind_name = raw_field(line, "kind");
    if (!kind_name) continue;
    const auto kind = event_kind_from_string(*kind_name);
    if (!kind) continue;
    TraceEvent e;
    e.kind = *kind;
    e.ts_us = num_field(line, "ts_us");
    e.dur_us = num_field(line, "dur_us");
    e.tid = static_cast<std::int32_t>(num_field(line, "tid", -1.0));
    e.node = static_cast<std::int32_t>(num_field(line, "node", -1.0));
    e.tenant = static_cast<std::int32_t>(num_field(line, "tenant", -1.0));
    e.vm = static_cast<std::int32_t>(num_field(line, "vm", -1.0));
    e.window = static_cast<std::int32_t>(num_field(line, "window", -1.0));
    e.resource = static_cast<std::int8_t>(num_field(line, "resource", -1.0));
    e.phase = static_cast<std::int8_t>(num_field(line, "phase", -1.0));
    e.value = num_field(line, "value");
    e.value2 = num_field(line, "value2");
    out.push_back(e);
  }
  return out;
}

void EventTracer::write_chrome_trace(std::ostream& os) const {
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // Tracks are real OS threads now, so label the ones the profiler knows
  // about ("main", "pool/worker-N") with thread_name metadata events.
  for (const auto& [tid, name] : profiled_thread_names()) {
    os << (first ? "" : ",\n");
    first = false;
    os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"args\":{\"name\":\"" << name << "\"}}";
  }
  for (const TraceEvent& e : events()) {
    os << (first ? "" : ",\n");
    first = false;
    const int tid = e.tid >= 0 ? e.tid : 0;
    if (e.kind == EventKind::kPhase) {
      const char* name =
          e.phase >= 0 && e.phase < static_cast<int>(kPhaseCount)
              ? to_string(static_cast<Phase>(e.phase))
              : "phase";
      os << "{\"name\":\"" << name << "\",\"cat\":\"phase\",\"ph\":\"X\""
         << ",\"ts\":" << e.ts_us << ",\"dur\":" << e.dur_us
         << ",\"pid\":0,\"tid\":" << tid << ",\"args\":{\"node\":" << e.node
         << ",\"window\":" << e.window << "}}";
    } else {
      os << "{\"name\":\"" << to_string(e.kind)
         << "\",\"cat\":\"event\",\"ph\":\"i\",\"s\":\"t\""
         << ",\"ts\":" << e.ts_us << ",\"pid\":0,\"tid\":" << tid
         << ",\"args\":{\"node\":" << e.node << ",\"tenant\":" << e.tenant
         << ",\"vm\":" << e.vm << ",\"window\":" << e.window
         << ",\"resource\":" << static_cast<int>(e.resource)
         << ",\"value\":" << e.value << ",\"value2\":" << e.value2 << "}}";
    }
  }
  os << "\n]}\n";
}

EventTracer& tracer() {
  static EventTracer instance;
  return instance;
}

}  // namespace rrf::obs
