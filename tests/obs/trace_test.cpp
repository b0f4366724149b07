#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/thread_pool.hpp"
#include "obs/phase.hpp"
#include "obs/profiler.hpp"

namespace rrf::obs {
namespace {

TraceEvent make_event(EventKind kind, std::int32_t window) {
  TraceEvent e;
  e.kind = kind;
  e.node = 1;
  e.tenant = 2;
  e.vm = 3;
  e.window = window;
  e.resource = 0;
  e.value = 4.5;
  e.value2 = -1.25;
  return e;
}

TEST(ObsTrace, EventsComeBackOldestFirstWithStampedTimes) {
  EventTracer tracer_(16);
  for (int i = 0; i < 5; ++i) {
    tracer_.record(make_event(EventKind::kIrtTrade, i));
  }
  const auto events = tracer_.events();
  ASSERT_EQ(events.size(), 5u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].window, static_cast<std::int32_t>(i));
    EXPECT_GE(events[i].ts_us, 0.0);
    if (i > 0) {
      EXPECT_GE(events[i].ts_us, events[i - 1].ts_us);
    }
  }
}

TEST(ObsTrace, RingWrapsAroundKeepingTheNewest) {
  EventTracer tracer_(8);
  for (int i = 0; i < 20; ++i) {
    tracer_.record(make_event(EventKind::kIwaAdjust, i));
  }
  EXPECT_EQ(tracer_.recorded(), 20u);
  EXPECT_EQ(tracer_.dropped(), 12u);
  const auto events = tracer_.events();
  ASSERT_EQ(events.size(), 8u);
  // The surviving events are the last 8, oldest first.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].window, static_cast<std::int32_t>(12 + i));
  }
}

TEST(ObsTrace, JsonlExportAfterWrapHoldsExactlyTheSurvivors) {
  // After the ring wraps, the JSONL export must contain exactly the
  // surviving (newest) events, oldest first — not stale pre-wrap slots.
  EventTracer tracer_(8);
  for (int i = 0; i < 21; ++i) {
    tracer_.record(make_event(EventKind::kIrtTrade, i));
  }
  EXPECT_EQ(tracer_.recorded(), 21u);
  EXPECT_EQ(tracer_.dropped(), 13u);

  std::stringstream buffer;
  tracer_.write_jsonl(buffer);
  const auto parsed = EventTracer::read_jsonl(buffer);
  ASSERT_EQ(parsed.size(), 8u);
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].kind, EventKind::kIrtTrade);
    EXPECT_EQ(parsed[i].window, static_cast<std::int32_t>(13 + i));
    EXPECT_DOUBLE_EQ(parsed[i].value, 4.5);
    if (i > 0) {
      EXPECT_GE(parsed[i].ts_us, parsed[i - 1].ts_us);
    }
  }

  // A second wrap cycle after the export keeps the accounting exact.
  for (int i = 21; i < 30; ++i) {
    tracer_.record(make_event(EventKind::kIwaAdjust, i));
  }
  std::stringstream buffer2;
  tracer_.write_jsonl(buffer2);
  const auto parsed2 = EventTracer::read_jsonl(buffer2);
  ASSERT_EQ(parsed2.size(), 8u);
  EXPECT_EQ(parsed2.front().window, 22);
  EXPECT_EQ(parsed2.back().window, 29);
}

TEST(ObsTrace, ClearEmptiesTheRing) {
  EventTracer tracer_(8);
  tracer_.record(make_event(EventKind::kMigration, 0));
  tracer_.clear();
  EXPECT_EQ(tracer_.recorded(), 0u);
  EXPECT_TRUE(tracer_.events().empty());
}

TEST(ObsTrace, ConcurrentRecordLosesNothingBelowCapacity) {
  EventTracer tracer_(100000);
  constexpr std::size_t kTasks = 16;
  constexpr std::size_t kPerTask = 2000;
  global_pool().parallel_for(kTasks, [&](std::size_t t) {
    for (std::size_t i = 0; i < kPerTask; ++i) {
      tracer_.record(make_event(EventKind::kIrtTrade,
                                static_cast<std::int32_t>(t)));
    }
  });
  EXPECT_EQ(tracer_.recorded(), kTasks * kPerTask);
  EXPECT_EQ(tracer_.dropped(), 0u);
  EXPECT_EQ(tracer_.events().size(), kTasks * kPerTask);
}

TEST(ObsTrace, JsonlRoundTripsEveryField) {
  EventTracer tracer_(16);
  TraceEvent phase_event;
  phase_event.kind = EventKind::kPhase;
  phase_event.phase = static_cast<std::int8_t>(Phase::kAllocate);
  phase_event.dur_us = 123.5;
  phase_event.node = 7;
  phase_event.window = 42;
  tracer_.record(phase_event);
  tracer_.record(make_event(EventKind::kBalloonTransfer, 9));

  std::stringstream buffer;
  tracer_.write_jsonl(buffer);
  const auto parsed = EventTracer::read_jsonl(buffer);
  ASSERT_EQ(parsed.size(), 2u);

  EXPECT_EQ(parsed[0].kind, EventKind::kPhase);
  EXPECT_EQ(parsed[0].phase, static_cast<std::int8_t>(Phase::kAllocate));
  EXPECT_DOUBLE_EQ(parsed[0].dur_us, 123.5);
  EXPECT_EQ(parsed[0].node, 7);
  EXPECT_EQ(parsed[0].window, 42);
  // record() stamps the recording thread's OS id and it round-trips.
  EXPECT_EQ(parsed[0].tid, os_thread_id());

  EXPECT_EQ(parsed[1].kind, EventKind::kBalloonTransfer);
  EXPECT_EQ(parsed[1].tenant, 2);
  EXPECT_EQ(parsed[1].vm, 3);
  EXPECT_EQ(parsed[1].window, 9);
  EXPECT_EQ(parsed[1].resource, 0);
  EXPECT_DOUBLE_EQ(parsed[1].value, 4.5);
  EXPECT_DOUBLE_EQ(parsed[1].value2, -1.25);
}

TEST(ObsTrace, TimestampsAndValuesKeepEveryDigit) {
  // Past one second of run time a 6-significant-digit writer snapped
  // ts_us to 10 us (2.30688e+06).
  EventTracer tracer_(4);
  TraceEvent e = make_event(EventKind::kIrtTrade, 3);
  e.ts_us = 2306881.523;
  e.value = 1.6223187;
  tracer_.record(e);

  std::stringstream buffer;
  tracer_.write_jsonl(buffer);
  const auto parsed = EventTracer::read_jsonl(buffer);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].ts_us, 2306881.523);
  EXPECT_EQ(parsed[0].value, 1.6223187);

  std::ostringstream chrome;
  tracer_.write_chrome_trace(chrome);
  EXPECT_NE(chrome.str().find("\"ts\":2306881.523,"), std::string::npos)
      << chrome.str();
  EXPECT_NE(chrome.str().find("\"value\":1.6223187,"), std::string::npos)
      << chrome.str();
}

TEST(ObsTrace, ReadJsonlSkipsUnknownLines) {
  std::stringstream buffer;
  buffer << "not json\n"
         << "{\"kind\":\"no_such_event\",\"ts_us\":1}\n"
         << "{\"kind\":\"irt_trade\",\"ts_us\":5,\"value\":2}\n";
  const auto parsed = EventTracer::read_jsonl(buffer);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].kind, EventKind::kIrtTrade);
  EXPECT_DOUBLE_EQ(parsed[0].value, 2.0);
}

TEST(ObsTrace, ChromeTraceRendersPhasesAsSlicesAndEventsAsInstants) {
  EventTracer tracer_(16);
  TraceEvent phase_event;
  phase_event.kind = EventKind::kPhase;
  phase_event.phase = static_cast<std::int8_t>(Phase::kPredict);
  phase_event.dur_us = 10.0;
  phase_event.node = 3;
  tracer_.record(phase_event);
  tracer_.record(make_event(EventKind::kIrtTrade, 1));

  std::ostringstream os;
  tracer_.write_chrome_trace(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"predict\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"irt_trade\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  // The tid is the real OS thread id of the recording thread; the node id
  // moved into args.
  const std::string tid_member =
      "\"tid\":" + std::to_string(os_thread_id());
  EXPECT_NE(text.find(tid_member), std::string::npos);
  if (os_thread_id() != 3) {
    EXPECT_EQ(text.find("\"tid\":3,"), std::string::npos);
  }
  EXPECT_NE(text.find("\"node\":3"), std::string::npos);
}

TEST(ObsTrace, EventKindNamesRoundTrip) {
  for (const EventKind kind :
       {EventKind::kAllocRoundBegin, EventKind::kAllocRoundEnd,
        EventKind::kIrtTrade, EventKind::kIwaAdjust,
        EventKind::kBalloonTarget, EventKind::kBalloonTransfer,
        EventKind::kMigration, EventKind::kPhase}) {
    const auto parsed = event_kind_from_string(to_string(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(event_kind_from_string("bogus").has_value());
}

TEST(ObsTrace, PhaseScopeRecordsDurationEventAndHistogram) {
  const bool tracing_before = tracing_enabled();
  const bool metrics_before = metrics_enabled();
  set_tracing_enabled(true);
  set_metrics_enabled(true);
  tracer().clear();
  const Histogram& hist = phase_histogram(metrics(), Phase::kAllocate);
  const std::uint64_t count_before = hist.count();

  double accumulated = 0.0;
  { PhaseScope scope(Phase::kAllocate, /*node=*/2, /*window=*/5, &accumulated); }

  set_tracing_enabled(tracing_before);
  set_metrics_enabled(metrics_before);

  EXPECT_GT(accumulated, 0.0);
  EXPECT_EQ(hist.count(), count_before + 1);
  const auto events = tracer().events();
  ASSERT_FALSE(events.empty());
  const TraceEvent& e = events.back();
  EXPECT_EQ(e.kind, EventKind::kPhase);
  EXPECT_EQ(e.phase, static_cast<std::int8_t>(Phase::kAllocate));
  EXPECT_EQ(e.node, 2);
  EXPECT_EQ(e.window, 5);
  EXPECT_GE(e.dur_us, 0.0);
  tracer().clear();
}

TEST(ObsTrace, TracingSwitchDefaultsOffAndRoundTrips) {
  const bool before = tracing_enabled();
  set_tracing_enabled(true);
  EXPECT_TRUE(tracing_enabled());
  set_tracing_enabled(false);
  EXPECT_FALSE(tracing_enabled());
  set_tracing_enabled(before);
}

}  // namespace
}  // namespace rrf::obs
