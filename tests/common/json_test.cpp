#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.hpp"

namespace {

using namespace rrf;

TEST(Json, DumpsScalars) {
  EXPECT_EQ(json::Value(nullptr).dump(), "null");
  EXPECT_EQ(json::Value(true).dump(), "true");
  EXPECT_EQ(json::Value(false).dump(), "false");
  EXPECT_EQ(json::Value(3).dump(), "3");
  EXPECT_EQ(json::Value(2.5).dump(), "2.5");
  EXPECT_EQ(json::Value("hi").dump(), "\"hi\"");
}

TEST(Json, NonFiniteNumbersBecomeNull) {
  EXPECT_EQ(json::Value(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(json::Value(std::numeric_limits<double>::quiet_NaN()).dump(),
            "null");
}

TEST(Json, EscapesStrings) {
  EXPECT_EQ(json::Value("a\"b\\c\n").dump(), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(json::Value(std::string(1, '\x01')).dump(), "\"\\u0001\"");
}

TEST(Json, ObjectKeepsInsertionOrder) {
  const json::Value v = json::Object{{"z", 1}, {"a", 2}};
  EXPECT_EQ(v.dump(), "{\"z\":1,\"a\":2}");
}

TEST(Json, PrettyPrints) {
  const json::Value v = json::Object{{"xs", json::Array{1, 2}}};
  EXPECT_EQ(v.dump(2), "{\n  \"xs\": [\n    1,\n    2\n  ]\n}\n");
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double d : {0.0, -1.5, 1.0 / 3.0, 1e-300, 12345678901234567.0,
                         0.1, 6.02214076e23, 5.684341886080802e-14}) {
    const json::Value parsed = json::Value::parse(json::Value(d).dump());
    EXPECT_EQ(parsed.as_number(), d);
  }
  // Shortest round-trip form: a %.15g/%.16g/%.17g probe would settle for
  // the 17-digit 5.6843418860808015e-14.
  EXPECT_EQ(json::Value(5.684341886080802e-14).dump(), "5.684341886080802e-14");
  EXPECT_EQ(json::Value(0.1).dump(), "0.1");
}

TEST(Json, IntegralValuesDumpAsPlainIntegers) {
  // The %g fast path used to render small integral doubles in scientific
  // notation ("windows": 3e+01); integral values within the exact double
  // range must print like the integers they are.
  EXPECT_EQ(json::Value(30.0).dump(), "30");
  EXPECT_EQ(json::Value(-30.0).dump(), "-30");
  EXPECT_EQ(json::Value(40.0).dump(), "40");
  EXPECT_EQ(json::Value(1e15).dump(), "1000000000000000");
  EXPECT_EQ(json::Value(9007199254740992.0).dump(), "9007199254740992");
  EXPECT_EQ(json::Value(0.0).dump(), "0");
  // Above 2^53 integers are not exactly representable; the shortest
  // round-trip path takes over.  Non-integral and signed-zero values keep
  // it too.
  EXPECT_EQ(json::Value(1e16).dump(), "1e+16");
  EXPECT_EQ(json::Value(0.5).dump(), "0.5");
  EXPECT_EQ(json::Value(-0.0).dump(), "-0");
  for (const double d : {30.0, 1e15, -7.0, 9007199254740992.0, -0.0}) {
    const json::Value parsed = json::Value::parse(json::Value(d).dump());
    EXPECT_EQ(parsed.as_number(), d);
    EXPECT_EQ(std::signbit(parsed.as_number()), std::signbit(d));
  }
}

TEST(Json, ParsesNestedDocument) {
  const json::Value v = json::Value::parse(
      R"({"a": [1, 2.5, "x"], "b": {"c": true, "d": null}, "e": -3e2})");
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.find("a")->as_array().size(), 3u);
  EXPECT_EQ(v.find("a")->as_array()[2].as_string(), "x");
  EXPECT_TRUE(v.find("b")->find("c")->as_bool());
  EXPECT_TRUE(v.find("b")->find("d")->is_null());
  EXPECT_EQ(v.find("e")->as_number(), -300.0);
  EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(Json, ParseRoundTripsDump) {
  const json::Value original = json::Object{
      {"name", "rrf"},
      {"values", json::Array{1, 2, 3}},
      {"nested", json::Object{{"ok", true}}},
  };
  const json::Value reparsed = json::Value::parse(original.dump(2));
  EXPECT_EQ(reparsed.dump(), original.dump());
}

TEST(Json, ParsesStringEscapes) {
  const json::Value v =
      json::Value::parse(R"("line\n\ttab \"q\" \u0041\u00e9")");
  EXPECT_EQ(v.as_string(), "line\n\ttab \"q\" A\xC3\xA9");
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "nul", "01", "1.", "--1", "\"unterm",
        "[1] garbage", "{\"a\":1,\"a\":2}", "\"\x01\""}) {
    EXPECT_THROW(json::Value::parse(bad), DomainError) << bad;
  }
}

TEST(Json, RejectsNumbersOutOfDoubleRange) {
  for (const char* huge : {"{\"x\": 1e999}", "-1e400", "[1, 2e308]"}) {
    try {
      json::Value::parse(huge);
      ADD_FAILURE() << huge << " parsed";
    } catch (const DomainError& e) {
      EXPECT_NE(std::string(e.what()).find("number out of range"),
                std::string::npos)
          << e.what();
    }
  }
  // Underflow is not an error: the nearest double (zero) is kept.
  EXPECT_EQ(json::Value::parse("1e-999").as_number(), 0.0);
  EXPECT_EQ(json::Value::parse("1e308").as_number(), 1e308);
}

TEST(Json, TypedAccessorsCheckTypes) {
  const json::Value v = json::Value::parse("[1]");
  EXPECT_THROW(v.as_object(), DomainError);
  EXPECT_THROW(v.as_array()[0].as_string(), DomainError);
  EXPECT_EQ(v.as_array()[0].as_number(), 1.0);
}

}  // namespace
