#include "workload/replay.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "workload/traces.hpp"

namespace rrf::wl {
namespace {

TEST(Replay, ZeroOrderHoldAndWrap) {
  const ReplayWorkload w("t", {0.0, 10.0, 20.0},
                         {ResourceVector{1.0, 1.0}, ResourceVector{2.0, 2.0},
                          ResourceVector{3.0, 3.0}});
  EXPECT_DOUBLE_EQ(w.demand_at(0.0)[0], 1.0);
  EXPECT_DOUBLE_EQ(w.demand_at(9.9)[0], 1.0);
  EXPECT_DOUBLE_EQ(w.demand_at(10.0)[0], 2.0);
  EXPECT_DOUBLE_EQ(w.demand_at(25.0)[0], 3.0);
  // Wraps after the final sample plus one inter-sample gap (30 s).
  EXPECT_DOUBLE_EQ(w.demand_at(30.0)[0], 1.0);
  EXPECT_DOUBLE_EQ(w.demand_at(41.0)[0], 2.0);
}

TEST(Replay, CsvRoundTrip) {
  // Export a synthetic workload and replay it: the demand curves match on
  // the sampling grid.
  const KernelBuildWorkload original(5, /*length=*/120.0);
  std::stringstream csv;
  export_trace_csv(original, 120.0, 1.0, csv);
  const auto replayed = ReplayWorkload::from_csv("kernel", csv);
  EXPECT_EQ(replayed->sample_count(), 120u);
  for (double t = 0.0; t < 120.0; t += 7.0) {
    EXPECT_TRUE(
        replayed->demand_at(t).approx_equal(original.demand_at(t), 1e-9))
        << t;
  }
}

TEST(Replay, SplitsAcrossVms) {
  const ReplayWorkload w("t", {0.0}, {ResourceVector{10.0, 4.0}},
                         {0.25, 0.75});
  const auto per_vm = w.vm_demands_at(0.0);
  ASSERT_EQ(per_vm.size(), 2u);
  EXPECT_TRUE(per_vm[0].approx_equal(ResourceVector{2.5, 1.0}, 1e-12));
  EXPECT_TRUE(per_vm[1].approx_equal(ResourceVector{7.5, 3.0}, 1e-12));
}

TEST(Replay, RejectsMalformedCsv) {
  {
    std::stringstream empty;
    EXPECT_THROW(ReplayWorkload::from_csv("x", empty), DomainError);
  }
  {
    std::stringstream header_only("t,cpu,ram\n");
    EXPECT_THROW(ReplayWorkload::from_csv("x", header_only), DomainError);
  }
  {
    std::stringstream bad_number("t,cpu,ram\n0,abc,1\n");
    EXPECT_THROW(ReplayWorkload::from_csv("x", bad_number), DomainError);
  }
  {
    std::stringstream short_row("t,cpu,ram\n0,1\n");
    EXPECT_THROW(ReplayWorkload::from_csv("x", short_row), DomainError);
  }
}

TEST(Replay, RejectsNonFiniteAndTrailingJunkCells) {
  for (const char* row : {"0,inf,1", "0,1,nan", "inf,1,1", "0,1e999,1",
                          "0,2.5junk,1", "0,1,2 3"}) {
    std::stringstream csv(std::string("t,cpu,ram\n0,1,1\n") + row + "\n");
    try {
      ReplayWorkload::from_csv("x", csv);
      ADD_FAILURE() << row << " was accepted";
    } catch (const DomainError& e) {
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
  // Surrounding whitespace (including a CRLF file's '\r') is not junk.
  std::stringstream crlf("t,cpu,ram\r\n0, 1.5 ,2\r\n");
  const auto w = ReplayWorkload::from_csv("x", crlf);
  EXPECT_TRUE(w->demand_at(0.0).approx_equal(ResourceVector{1.5, 2.0}, 0.0));
}

TEST(Replay, RejectsBadConstruction) {
  EXPECT_THROW(ReplayWorkload("x", {}, {}), PreconditionError);
  EXPECT_THROW(ReplayWorkload("x", {0.0, 0.0},
                              {ResourceVector{1.0, 1.0},
                               ResourceVector{1.0, 1.0}}),
               PreconditionError);  // non-increasing times
  EXPECT_THROW(ReplayWorkload("x", {0.0}, {ResourceVector{-1.0, 1.0}}),
               PreconditionError);
  EXPECT_THROW(ReplayWorkload("x", {0.0}, {ResourceVector{1.0, 1.0}},
                              {0.5, 0.4}),
               PreconditionError);  // split != 1
}

TEST(Replay, MissingFileThrows) {
  EXPECT_THROW(ReplayWorkload::from_csv_file("/nonexistent/trace.csv"),
               DomainError);
}

}  // namespace
}  // namespace rrf::wl
