#include "alloc/entity_io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "alloc/irt.hpp"
#include "common/error.hpp"

namespace rrf::alloc {
namespace {

TEST(EntityIo, ParsesTwoTypeCsv) {
  std::stringstream in(
      "name,share_0,share_1,demand_0,demand_1\n"
      "A,500,500,600,300\n"
      "B,1000,1000,800,1600\n");
  const auto entities = read_entities_csv(in);
  ASSERT_EQ(entities.size(), 2u);
  EXPECT_EQ(entities[0].name, "A");
  EXPECT_TRUE(entities[0].initial_share.approx_equal({500.0, 500.0}, 1e-12));
  EXPECT_TRUE(entities[1].demand.approx_equal({800.0, 1600.0}, 1e-12));
}

TEST(EntityIo, ParsesThreeTypeCsv) {
  std::stringstream in(
      "name,s0,s1,s2,d0,d1,d2\n"
      "A,1,2,3,4,5,6\n");
  const auto entities = read_entities_csv(in);
  ASSERT_EQ(entities.size(), 1u);
  EXPECT_EQ(entities[0].initial_share.size(), 3u);
  EXPECT_TRUE(entities[0].demand.approx_equal({4.0, 5.0, 6.0}, 1e-12));
}

TEST(EntityIo, RoundTrips) {
  std::vector<AllocationEntity> entities(2);
  entities[0].name = "x";
  entities[0].initial_share = ResourceVector{500.25, 500.0};
  entities[0].demand = ResourceVector{600.125, 300.0};
  entities[1].name = "y";
  entities[1].initial_share = ResourceVector{1.0, 2.0};
  entities[1].demand = ResourceVector{3.0, 4.0};

  std::stringstream buffer;
  write_entities_csv(entities, buffer);
  const auto parsed = read_entities_csv(buffer);
  ASSERT_EQ(parsed.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(parsed[i].name, entities[i].name);
    EXPECT_TRUE(
        parsed[i].initial_share.approx_equal(entities[i].initial_share, 0));
    EXPECT_TRUE(parsed[i].demand.approx_equal(entities[i].demand, 0));
  }
}

TEST(EntityIo, RejectsMalformedInput) {
  {
    std::stringstream empty;
    EXPECT_THROW(read_entities_csv(empty), DomainError);
  }
  {
    std::stringstream odd("name,s0,s1,d0\nA,1,2,3\n");
    EXPECT_THROW(read_entities_csv(odd), DomainError);
  }
  {
    std::stringstream short_row("name,s0,s1,d0,d1\nA,1,2,3\n");
    EXPECT_THROW(read_entities_csv(short_row), DomainError);
  }
  {
    std::stringstream nan_cell("name,s0,s1,d0,d1\nA,1,x,3,4\n");
    EXPECT_THROW(read_entities_csv(nan_cell), DomainError);
  }
  {
    std::stringstream header_only("name,s0,s1,d0,d1\n");
    EXPECT_THROW(read_entities_csv(header_only), DomainError);
  }
  // Non-finite cells, and trailing junk that std::stod alone would stop
  // at ("50x" reading as 50).
  for (const char* cell : {"inf", "-inf", "nan", "INF", "NaN", "50x",
                           "2.5abc", "1.5e", "7 8", "1e999"}) {
    std::stringstream bad_cell(std::string("name,s0,s1,d0,d1\nA,1,2,") +
                               cell + ",4\n");
    EXPECT_THROW(read_entities_csv(bad_cell), DomainError) << cell;
  }
}

TEST(EntityIo, AcceptsSurroundingWhitespaceAndCrlf) {
  std::stringstream spaced("name,s0,s1,d0,d1\r\nA, 1 ,\t2,3 ,4\r\n");
  const auto entities = read_entities_csv(spaced);
  ASSERT_EQ(entities.size(), 1u);
  EXPECT_EQ(entities[0].initial_share[0], 1.0);
  EXPECT_EQ(entities[0].initial_share[1], 2.0);
  EXPECT_EQ(entities[0].demand[0], 3.0);
  EXPECT_EQ(entities[0].demand[1], 4.0);
}

TEST(EntityIo, FormatResultPrintsFractionsExactly) {
  std::stringstream in(
      "name,s0,s1,d0,d1\n"
      "a,1.5,2.25,0.5,0.125\n");
  const auto entities = read_entities_csv(in);
  AllocationResult result;
  result.allocations = {ResourceVector{0.5, 0.125}};
  result.unallocated = ResourceVector{2.5, 3.875};
  const std::string text = format_result(entities, result);
  EXPECT_NE(text.find("<1.5, 2.25>"), std::string::npos) << text;
  EXPECT_NE(text.find("<0.5, 0.125>"), std::string::npos) << text;
  EXPECT_NE(text.find("<2.5, 3.875>"), std::string::npos) << text;
  EXPECT_NE(text.find("-3.125"), std::string::npos) << text;  // the gain
  EXPECT_EQ(format_exact(ResourceVector{0.1, 300.0}), "<0.1, 300>");
}

TEST(EntityIo, FormatResultShowsEveryEntityAndIdleRow) {
  std::stringstream in(
      "name,s0,s1,d0,d1\n"
      "giver,500,500,200,500\n"
      "rider,500,500,900,500\n");
  const auto entities = read_entities_csv(in);
  const AllocationResult result =
      IrtAllocator{}.allocate(ResourceVector{1000.0, 1000.0}, entities);
  const std::string text = format_result(entities, result);
  EXPECT_NE(text.find("giver"), std::string::npos);
  EXPECT_NE(text.find("rider"), std::string::npos);
  EXPECT_NE(text.find("(idle)"), std::string::npos);
  EXPECT_NE(text.find("<300, 0>"), std::string::npos);  // idle CPU surplus
}

}  // namespace
}  // namespace rrf::alloc
