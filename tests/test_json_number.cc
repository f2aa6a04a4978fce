/**
 * @file
 * Property tests for the JSON number codec (common/json_number.hh):
 * the formatter against printf("%.17g"), the scanner against strtod
 * and the RFC 8259 grammar, and the two serve parsers that share it
 * (the fast predict scanner and the generic Json parser) against each
 * other.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/json_number.hh"
#include "common/rng.hh"
#include "pccs/model.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"

namespace pccs {
namespace {

std::string
printfG17(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
formatted(double v)
{
    std::string out;
    appendDouble(out, v);
    return out;
}

/** Bit-exact comparison that also tells -0 from +0. */
std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

double
strtodOf(const std::string &token)
{
    return std::strtod(token.c_str(), nullptr);
}

TEST(JsonNumberFormat, MatchesPrintfOnEdgeValues)
{
    const double two53 = 9007199254740992.0;
    const double values[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        DBL_MIN,
        DBL_MAX,
        -DBL_MAX,
        two53 - 1.0,
        two53,
        two53 + 2.0, // 2^53 + 1 is not a double
        std::nextafter(two53, 0.0),
        // Both sides of %g's switches to exponent form: below 1e-4
        // (exponent < -4) and at 1e17 (exponent >= precision).
        1e-5,
        std::nextafter(1e-5, 0.0),
        std::nextafter(1e-5, 1.0),
        1e-4,
        std::nextafter(1e-4, 0.0),
        1e17,
        std::nextafter(1e17, 0.0),
        std::nextafter(1e17, 1e18),
        1e16,
        99999999999999999.0,
        0.1,
        1.0 / 3.0,
        123456.78901234567,
        100.0,
        1e9,
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
    };
    for (const double v : values)
        EXPECT_EQ(formatted(v), printfG17(v)) << printfG17(v);
}

TEST(JsonNumberFormat, MatchesPrintfOnRandomBitPatterns)
{
    Rng rng(20211018);
    std::size_t compared = 0;
    std::string out;
    for (int i = 0; i < 1'000'000; ++i) {
        const double v = std::bit_cast<double>(rng.next());
        if (!std::isfinite(v))
            continue; // NaN payloads: the JSON rule writes null
        out.clear();
        appendDouble(out, v);
        ASSERT_EQ(out, printfG17(v)) << "bits " << bits(v);
        ++compared;
    }
    EXPECT_GT(compared, 990'000u);
}

TEST(JsonNumberFormat, MatchesPrintfOnRandomMagnitudes)
{
    // Random bit patterns are mostly huge or tiny; these are the
    // magnitudes the serve wire carries.
    Rng rng(7);
    for (int i = 0; i < 200'000; ++i) {
        const double v = rng.uniform(-200.0, 200.0) *
                         std::pow(10.0, rng.uniform(-6.0, 18.0));
        ASSERT_EQ(formatted(v), printfG17(v));
    }
}

TEST(JsonNumberFormat, JsonNumberWritesNullForNonFinite)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    for (const double v : {nan, -nan, inf, -inf}) {
        std::string out = "x";
        appendJsonNumber(out, v);
        EXPECT_EQ(out, "xnull");
    }
    std::string out = "[";
    appendJsonNumber(out, 0.5);
    EXPECT_EQ(out, "[0.5"); // appends, keeps what was there
}

/** A random token of the RFC 8259 number grammar. */
std::string
randomToken(Rng &rng)
{
    const auto digits = [&](std::size_t n, bool leading_nonzero) {
        std::string s;
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t lo = (i == 0 && leading_nonzero) ? 1 : 0;
            s += static_cast<char>('0' + lo + rng.below(10 - lo));
        }
        return s;
    };
    std::string t;
    if (rng.below(2))
        t += '-';
    // Mostly short mantissas, sometimes far longer than 17 digits.
    const std::size_t int_len =
        rng.below(8) == 0 ? 0 : 1 + rng.below(rng.below(6) ? 18 : 60);
    t += int_len == 0 ? "0" : digits(int_len, true);
    if (rng.below(2)) {
        t += '.';
        t += digits(1 + rng.below(rng.below(6) ? 18 : 60), false);
    }
    if (rng.below(2)) {
        t += rng.below(2) ? 'e' : 'E';
        const std::uint64_t sign = rng.below(3);
        if (sign == 1)
            t += '+';
        else if (sign == 2)
            t += '-';
        t += digits(1 + rng.below(3), false);
    }
    return t;
}

TEST(JsonNumberScan, BitIdenticalToStrtodOnRandomTokens)
{
    Rng rng(99);
    for (int i = 0; i < 300'000; ++i) {
        const std::string token = randomToken(rng);
        const NumberScan scan = scanJsonNumber(token, 0);
        ASSERT_TRUE(scan.ok()) << token;
        ASSERT_EQ(scan.end, token.size()) << token;
        ASSERT_EQ(bits(scan.value), bits(strtodOf(token))) << token;
    }
}

TEST(JsonNumberScan, BitIdenticalToStrtodOnFormattedDoubles)
{
    Rng rng(5);
    for (int i = 0; i < 200'000; ++i) {
        const double v = std::bit_cast<double>(rng.next());
        if (!std::isfinite(v))
            continue;
        const std::string token = formatted(v);
        const NumberScan scan = scanJsonNumber(token, 0);
        ASSERT_TRUE(scan.ok()) << token;
        ASSERT_EQ(bits(scan.value), bits(v)) << token; // round trip
    }
}

TEST(JsonNumberScan, RangeEdgesMatchStrtod)
{
    const char *tokens[] = {
        "1e400",      "-1e400",     "1e-400",  "-1e-400",
        "4.9e-324",   "2.4e-324",   "2.5e-324", "-4.9e-324",
        "2.2250738585072011e-308", "2.2250738585072014e-308",
        "1.7976931348623157e308",  "1.7976931348623159e308",
        "1.7976931348623158e308",  "0e999999", "-0",
        "-0.0e-5",    "1e0",        "0",       "123456789012345678901234567890",
    };
    for (const char *t : tokens) {
        const NumberScan scan = scanJsonNumber(t, 0);
        ASSERT_TRUE(scan.ok()) << t;
        EXPECT_EQ(bits(scan.value), bits(strtodOf(t))) << t;
    }
    EXPECT_EQ(scanJsonNumber("1e400", 0).value,
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(bits(scanJsonNumber("-1e-400", 0).value), bits(-0.0));
}

TEST(JsonNumberScan, RejectsWhatTheGrammarRejects)
{
    const struct
    {
        const char *token;
        NumberError error;
    } cases[] = {
        {"", NumberError::NoDigits},
        {"-", NumberError::NoDigits},
        {"+1", NumberError::NoDigits},
        {".5", NumberError::NoDigits},
        {"-.5", NumberError::NoDigits},
        {"inf", NumberError::NoDigits},
        {"nan", NumberError::NoDigits},
        {"0x10", NumberError::None}, // "0", then 'x' is the caller's
        {"1.", NumberError::NoFractionDigits},
        {"1.e5", NumberError::NoFractionDigits},
        {"1e", NumberError::NoExponentDigits},
        {"1e+", NumberError::NoExponentDigits},
        {"1E-x", NumberError::NoExponentDigits},
        {"01", NumberError::LeadingZero},
        {"-00", NumberError::LeadingZero},
    };
    for (const auto &c : cases)
        EXPECT_EQ(scanJsonNumber(c.token, 0).error, c.error) << c.token;
}

TEST(JsonNumberScan, TokenEndsWhereTheGrammarStops)
{
    const std::string text = "[12.5e3,-7]";
    NumberScan scan = scanJsonNumber(text, 1);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan.end, 7u);
    EXPECT_EQ(scan.value, 12500.0);
    scan = scanJsonNumber(text, 8);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan.end, 10u);
    EXPECT_EQ(scan.value, -7.0);
    // A view that ends inside a longer buffer: the scan must not read
    // past it.
    const std::string_view cut = std::string_view("12345").substr(0, 2);
    scan = scanJsonNumber(cut, 0);
    ASSERT_TRUE(scan.ok());
    EXPECT_EQ(scan.value, 12.0);
}

TEST(JsonNumberScan, JsonParserKeepsItsDiagnosticsAndOffsets)
{
    const struct
    {
        const char *text;
        const char *error;
        std::size_t offset;
    } cases[] = {
        {"[1, -x]", "invalid value", 4},
        {"[1, 2.]", "digits required after '.'", 4},
        {"[1, 2e+]", "digits required in exponent", 4},
        {"[1, -012]", "number with a leading zero", 4},
    };
    for (const auto &c : cases) {
        const serve::JsonParse p = serve::parseJson(c.text);
        ASSERT_FALSE(p.ok()) << c.text;
        EXPECT_EQ(p.error, c.error) << c.text;
        EXPECT_EQ(p.offset, c.offset) << c.text;
    }
    const serve::JsonParse p = serve::parseJson("[0,-0.5e1,1e400]");
    ASSERT_TRUE(p.ok());
    EXPECT_EQ(p.value->asArray()[1].asNumber(), -5.0);
    EXPECT_EQ(p.value->asArray()[2].asNumber(),
              std::numeric_limits<double>::infinity());
}

model::PccsParams
sampleParams()
{
    model::PccsParams p;
    p.normalBw = 38.1;
    p.intensiveBw = 96.2;
    p.mrmc = 4.9;
    p.cbp = 45.3;
    p.tbwdc = 87.2;
    p.rateN = 1.11;
    p.peakBw = 137.0;
    return p;
}

/**
 * The fast predict scanner and the generic Json parser accept and
 * reject the same number tokens, with the same values. A predict
 * frame whose first key is unknown always takes the generic path;
 * the same frame without it takes the fast path whenever the scanner
 * accepts the token. Both must answer byte for byte alike, apart from
 * the error offset the extra key shifts.
 */
TEST(JsonNumberScan, FastAndGenericServeParsersAgree)
{
    serve::ModelRegistry registry;
    serve::Metrics metrics;
    serve::Dispatcher dispatcher{registry, metrics};
    registry.addFromParams("m", sampleParams(), "test");

    std::vector<std::string> tokens = {
        "0",    "-0",    "20",   "20.5", "2e1",    "2E+1", "1e400",
        "1e-400", "4.9e-324", "01",  "1.",   "1e",     "-",    ".5",
        "+1",   "1.5e",  "--1",  "1e+x", "0.0000000000000000000001",
        "12345678901234567890123456789012345678901234567890123456789"
        "0123456789",
    };
    Rng rng(11);
    for (int i = 0; i < 2000; ++i)
        tokens.push_back(randomToken(rng));

    const std::string extra = "\"x\":0,";
    for (const std::string &token : tokens) {
        for (const std::string &field :
             {"\"demand\":" + token, "\"demand\":20,\"id\":" + token}) {
            const std::string frame =
                "{\"op\":\"predict\",\"model\":\"m\"," + field +
                ",\"external\":25}";
            std::string generic = frame;
            generic.insert(1, extra);

            const std::string fast_answer = dispatcher.handleFrame(frame);
            std::string generic_answer = dispatcher.handleFrame(generic);
            const std::size_t at = generic_answer.find("offset ");
            if (at != std::string::npos) {
                // Undo the shift the extra key causes.
                const std::size_t end = generic_answer.find(':', at);
                const long off = std::stol(
                    generic_answer.substr(at + 7, end - at - 7));
                generic_answer.replace(
                    at + 7, end - at - 7,
                    std::to_string(off -
                                   static_cast<long>(extra.size())));
            }
            EXPECT_EQ(fast_answer, generic_answer) << frame;
        }
    }
}

} // namespace
} // namespace pccs
