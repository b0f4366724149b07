// rrf_top rendering core against a canned /rounds NDJSON fixture: the
// feed accumulator (round + gap records, malformed lines), the frame
// renderer (share bars, Jain/drift sparklines, the incident pane) and the
// HTTP head/chunk decoding helpers.
#include "obs/topview.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace rrf::obs::top {
namespace {

/// What a live `/rounds` subscription would deliver: two round records,
/// one ring-overflow gap record, and one foreign line to be skipped.  The
/// round records carry the retired alert counts of older servers, which
/// the feed ignores.
const char* const kRoundsFixture[] = {
    R"({"t":"round","window":7,"time":35,"jain":0.981,"slots":32,)"
    R"("phase_seconds":{"predict":1e-4,"allocate":2e-4,"actuate":1e-4,)"
    R"("settle":1e-4},"active_alerts":0,"alerts_total":0,"tenants":[)"
    R"({"name":"tpcc","share":1.12,"demand":1.4,"granted":1.12,)"
    R"("contributed":0,"gained":25.0},)"
    R"({"name":"hadoop","share":0.88,"demand":0.5,"granted":0.88,)"
    R"("contributed":25.0,"gained":0}]})",
    R"({"t":"gap","dropped":3})",
    "{this line is not json",
    R"({"t":"round","window":8,"time":40,"jain":0.875,"slots":32,)"
    R"("phase_seconds":{"predict":1e-4,"allocate":2e-4,"actuate":1e-4,)"
    R"("settle":1e-4},"active_alerts":1,"alerts_total":2,"tenants":[)"
    R"({"name":"tpcc","share":1.31,"demand":1.5,"granted":1.31,)"
    R"("contributed":0,"gained":40.2},)"
    R"({"name":"hadoop","share":0.69,"demand":0.4,"granted":0.69,)"
    R"("contributed":40.2,"gained":0}]})",
};

const char* const kIncidentsFixture =
    R"({"schema":"rrf-incidents","version":1,"open":1,"total":1,)"
    R"("incidents":[{"id":"inc-0001","state":"open","severity":"major",)"
    R"("opened_window":6,"resolved_window":0,"detections":12,)"
    R"("kinds":["starvation","drift"],"tenants":["hadoop"],"dir":""}]})";

void load_fixture(Feed& feed) {
  for (const char* line : kRoundsFixture) feed.push_line(line);
}

TEST(TopFeed, AccumulatesRoundsCountsGapsAndSkipsForeignLines) {
  Feed feed;
  load_fixture(feed);
  EXPECT_EQ(feed.rounds_seen, 2u);
  EXPECT_EQ(feed.gap_dropped, 3u);
  ASSERT_EQ(feed.history.size(), 2u);
  EXPECT_EQ(feed.history.back().window, 8u);
  ASSERT_EQ(feed.history.back().tenants.size(), 2u);
  EXPECT_DOUBLE_EQ(feed.history.back().tenants[1].granted, 0.69);
}

TEST(TopFeed, RefusesMalformedGapCounts) {
  // A negative, fractional or mistyped count would wrap or truncate in a
  // cast to an unsigned counter; the feed drops it instead.
  Feed feed;
  feed.push_line(R"({"t":"gap","dropped":-3})");
  feed.push_line(R"({"t":"gap","dropped":2.5})");
  feed.push_line(R"({"t":"gap","dropped":"7"})");
  EXPECT_EQ(feed.gap_dropped, 0u);
  feed.push_line(R"({"t":"gap","dropped":4})");
  EXPECT_EQ(feed.gap_dropped, 4u);
}

TEST(TopRender, IncidentCountsMustBeNonNegativeIntegers) {
  const std::string pane = render_incidents(
      R"({"open":-1,"total":1.5,"incidents":[{"id":"inc-0001",)"
      R"("state":"open","opened_window":-6}]})");
  EXPECT_NE(pane.find("incidents: ? open, ? total"), std::string::npos)
      << pane;
  EXPECT_EQ(pane.find(" w"), std::string::npos) << pane;
}

TEST(TopFeed, HistoryIsBoundedByTheWindowLimit) {
  Feed feed;
  feed.window_limit = 3;
  for (std::size_t w = 0; w < 10; ++w) {
    feed.push_line(
        R"({"t":"round","window":)" + std::to_string(w) +
        R"(,"time":0,"jain":1,"slots":1,"phase_seconds":{"predict":0,)"
        R"("allocate":0,"actuate":0,"settle":0},"active_alerts":0,)"
        R"("alerts_total":0,"tenants":[]})");
  }
  EXPECT_EQ(feed.rounds_seen, 10u);
  ASSERT_EQ(feed.history.size(), 3u);
  EXPECT_EQ(feed.history.front().window, 7u);
}

TEST(TopRender, FrameShowsShareBarsSparklinesAndIncidents) {
  Feed feed;
  load_fixture(feed);
  const std::string frame =
      render_frame(feed, "localhost:9090", "", kIncidentsFixture);
  // Header: latest window, jain, round count with the gap annotation.
  EXPECT_NE(frame.find("window 8"), std::string::npos);
  EXPECT_NE(frame.find("jain 0.875"), std::string::npos);
  EXPECT_NE(frame.find("rounds 2 (3 dropped)"), std::string::npos);
  // Share bars: one row per tenant with ratio, demand and flows.
  EXPECT_NE(frame.find("tenant shares"), std::string::npos);
  EXPECT_NE(frame.find("tpcc"), std::string::npos);
  EXPECT_NE(frame.find("hadoop"), std::string::npos);
  EXPECT_NE(frame.find("1.31"), std::string::npos);
  EXPECT_NE(frame.find("demand 0.40"), std::string::npos);
  // Jain/drift sparklines over the history with their ranges.
  EXPECT_NE(frame.find("jain  "), std::string::npos);
  EXPECT_NE(frame.find("[0.875, 0.981]"), std::string::npos);
  EXPECT_NE(frame.find("drift "), std::string::npos);
  // Incident pane: open/total counts and the incident line.
  EXPECT_NE(frame.find("incidents: 1 open, 1 total"), std::string::npos);
  EXPECT_NE(frame.find("inc-0001"), std::string::npos);
}

TEST(TopRender, EmptyFeedAndQuietIncidentsStayCompact) {
  Feed feed;
  const std::string frame = render_frame(feed, "localhost:0", "", "");
  EXPECT_NE(frame.find("(no rounds received yet)"), std::string::npos);
  // A quiet cluster pays no incident pane at all.
  EXPECT_EQ(render_incidents(""), "");
  EXPECT_EQ(render_incidents(
                R"({"schema":"rrf-incidents","version":1,"open":0,)"
                R"("total":0,"incidents":[]})"),
            "");
}

TEST(TopHttp, ParsesHeadAndDechunksABody) {
  Response response;
  const std::string raw =
      "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
  const std::size_t body_start = parse_head(raw, &response);
  ASSERT_NE(body_start, std::string::npos);
  EXPECT_EQ(response.status, 200);
  EXPECT_TRUE(response.chunked);

  std::string stream = "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n";
  std::string body;
  EXPECT_TRUE(dechunk(&stream, &body));
  EXPECT_EQ(body, "hello world");

  // Incomplete stream: no terminal chunk yet.
  std::string partial = "5\r\nhel";
  std::string partial_body;
  EXPECT_FALSE(dechunk(&partial, &partial_body));
}

}  // namespace
}  // namespace rrf::obs::top
