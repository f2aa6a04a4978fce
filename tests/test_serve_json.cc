/**
 * @file
 * Tests for the serve JSON value type and parser, including
 * cross-checks against the runner's JSON writers (jsonEscape,
 * jsonNumber) — the parser must accept everything they emit.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "runner/run_spec.hh"
#include "serve/json.hh"

namespace pccs::serve {
namespace {

Json
parsed(const std::string &text)
{
    const JsonParse p = parseJson(text);
    EXPECT_TRUE(p.ok()) << text << " -> " << p.error;
    return p.ok() ? *p.value : Json();
}

std::string
rejected(const std::string &text)
{
    const JsonParse p = parseJson(text);
    EXPECT_FALSE(p.ok()) << "accepted: " << text;
    return p.error;
}

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(parsed("null").isNull());
    EXPECT_EQ(parsed("true").asBool(), true);
    EXPECT_EQ(parsed("false").asBool(false), false);
    EXPECT_DOUBLE_EQ(parsed("0").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(parsed("-0.5e2").asNumber(), -50.0);
    EXPECT_DOUBLE_EQ(parsed("1E+3").asNumber(), 1000.0);
    EXPECT_EQ(parsed("\"hi\"").asString(), "hi");
    EXPECT_EQ(parsed("  \"padded\"  ").asString(), "padded");
}

TEST(JsonParse, Containers)
{
    const Json arr = parsed("[1, [2, 3], {\"k\": null}]");
    ASSERT_TRUE(arr.isArray());
    ASSERT_EQ(arr.asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(arr.asArray()[0].asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(arr.asArray()[1].asArray()[1].asNumber(), 3.0);
    EXPECT_TRUE(arr.asArray()[2].find("k")->isNull());

    const Json obj = parsed("{\"a\": 1, \"b\": {\"c\": [true]}}");
    ASSERT_TRUE(obj.isObject());
    EXPECT_DOUBLE_EQ(obj.find("a")->asNumber(), 1.0);
    EXPECT_TRUE(obj.find("b")->find("c")->asArray()[0].asBool());
    EXPECT_EQ(obj.find("missing"), nullptr);

    EXPECT_TRUE(parsed("[]").asArray().empty());
    EXPECT_TRUE(parsed("{}").asObject().empty());
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(parsed("\"a\\nb\\t\\\"\\\\\\/\"").asString(),
              "a\nb\t\"\\/");
    EXPECT_EQ(parsed("\"\\u0041\\u00e9\"").asString(), "A\xc3\xa9");
    // Surrogate pair -> one 4-byte UTF-8 code point (U+1F600).
    EXPECT_EQ(parsed("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(JsonParse, StrictnessRejections)
{
    rejected("");
    rejected("   ");
    rejected("tru");
    rejected("nulll");
    rejected("01");       // leading zero
    rejected("1.");       // digits required after the point
    rejected("1e");       // digits required in the exponent
    rejected("+1");       // no leading plus
    rejected(".5");       // no bare fraction
    rejected("NaN");      // not JSON
    rejected("Infinity"); // not JSON
    rejected("[1,]");     // trailing comma
    rejected("{\"a\":1,}");
    rejected("[1 2]");
    rejected("{\"a\" 1}");
    rejected("{a: 1}");   // unquoted key
    rejected("\"unterminated");
    rejected("\"bad\\q\"");       // unknown escape
    rejected("\"\\u12\"");        // short \u escape
    rejected(std::string("\"") + '\x01' + "\""); // raw control char
    rejected("\"\\ud83d\"");      // unpaired high surrogate
    rejected("\"\\ude00\"");      // lone low surrogate
    rejected("1 2");              // trailing document content
    rejected("{} []");
}

TEST(JsonParse, ErrorsCarryOffsets)
{
    const JsonParse p = parseJson("{\"a\": tru}");
    ASSERT_FALSE(p.ok());
    EXPECT_GE(p.offset, 6u);
    EXPECT_FALSE(p.error.empty());
}

TEST(JsonParse, DepthLimitHolds)
{
    std::string deep;
    for (int i = 0; i < 2000; ++i)
        deep += '[';
    // Never crashes, whatever the nesting — it reports an error.
    const JsonParse p = parseJson(deep);
    EXPECT_FALSE(p.ok());
    EXPECT_NE(p.error.find("depth"), std::string::npos) << p.error;

    // Exactly at the limit is fine.
    JsonLimits limits;
    limits.maxDepth = 4;
    EXPECT_TRUE(parseJson("[[[[1]]]]", limits).ok());
    EXPECT_FALSE(parseJson("[[[[[1]]]]]", limits).ok());
}

TEST(JsonDump, RoundTripsStructurally)
{
    Json obj = Json::object();
    obj.set("s", "text with \"quotes\" and \\slashes\\");
    obj.set("n", 1.5);
    obj.set("flag", true);
    obj.set("nothing", nullptr);
    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    obj.set("arr", std::move(arr));

    const Json back = parsed(obj.dump());
    EXPECT_EQ(back, obj);
}

TEST(JsonDump, EscapedControlCharactersRoundTrip)
{
    // Every code point below 0x20 must be escaped by the writer and
    // restored by the parser (satellite audit of runner::jsonEscape).
    std::string all;
    for (char c = 1; c < 0x20; ++c)
        all += c;
    const std::string escaped = runner::jsonEscape(all);
    const std::string wire = '"' + escaped + '"';
    // The escaped form itself must not contain raw control bytes.
    for (char c : wire)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    EXPECT_EQ(parsed(wire).asString(), all);

    // And via Json::dump, inside a full document.
    Json obj = Json::object();
    obj.set("ctrl", all + "\x7f normal tail");
    EXPECT_EQ(parsed(obj.dump()), obj);
    EXPECT_EQ(obj.dump().find('\n'), std::string::npos);
}

TEST(JsonNumber, NonFiniteBecomesNull)
{
    EXPECT_EQ(runner::jsonNumber(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(runner::jsonNumber(
                  std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(runner::jsonNumber(
                  -std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_TRUE(
        parsed(runner::jsonNumber(
                   std::numeric_limits<double>::quiet_NaN()))
            .isNull());
}

TEST(JsonNumber, SeventeenDigitsRoundTripBitExactly)
{
    const double values[] = {
        0.0,
        1.0 / 3.0,
        99.422549726120863,
        1e-308,
        1.7976931348623157e308,
        -123456.78901234567,
        2.2250738585072014e-308,
    };
    for (const double v : values) {
        const Json back = parsed(runner::jsonNumber(v));
        ASSERT_TRUE(back.isNumber());
        // Bit-exact: the wire format must not lose precision.
        EXPECT_EQ(back.asNumber(), v) << runner::jsonNumber(v);
    }
}

} // namespace
} // namespace pccs::serve
