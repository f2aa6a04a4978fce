/**
 * @file
 * Tests of the benchmark's own helpers: order statistics, the ladder
 * search, span self time, and that a seed fixes the inputs.
 *
 *   python3 perfbench/run.py --selftest
 *
 * Prints one line per failed expectation and exits non-zero if any.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "dram_grid.hh"
#include "serve_stream.hh"
#include "stats.hh"
#include "trace.hh"

using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

void
expectNear(double got, double want, const std::string &what)
{
    expect(std::abs(got - want) <= 1e-12 * std::max(1.0, std::abs(want)),
           what + ": got " + std::to_string(got) + ", want " +
               std::to_string(want));
}

void
testOrderStatistics()
{
    expectNear(median({3, 1, 2}), 2, "median of odd count");
    expectNear(median({4, 1, 3, 2}), 2.5, "median of even count");
    expectNear(median({}), 0, "median of nothing");

    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(i);
    expectNear(percentile(hundred, 50), 50, "p50 of 1..100");
    expectNear(percentile(hundred, 99), 99, "p99 of 1..100");
    expectNear(percentile(hundred, 100), 100, "p100 of 1..100");
    expectNear(percentile(hundred, 0), 1, "p0 of 1..100");
    expectNear(percentile({7}, 99), 7, "p99 of one sample");
}

void
testLadderSearch()
{
    for (std::size_t steps : {1u, 2u, 7u, 20u, 60u}) {
        {
            for (std::size_t pass = 0; pass <= steps; ++pass) {
                // Steps [0, pass) meet the limit.
                std::vector<int> probes(steps, 0);
                std::vector<std::size_t> order;
                const int got = searchLadder(
                    steps,
                    [&](std::size_t i) {
                        ++probes[i];
                        order.push_back(i);
                        return i < pass;
                    });
                const std::string tag = "ladder of " + std::to_string(steps) +
                                        ", " + std::to_string(pass) +
                                        " passing";
                expect(got == static_cast<int>(pass) - 1, tag + ": result");
                bool once = true, above = false;
                for (std::size_t i = 0; i < steps; ++i)
                    once = once && probes[i] <= 1;
                // Once a step failed, nothing above it is tried.
                std::size_t lowest_fail = steps;
                for (std::size_t i : order) {
                    above = above || i > lowest_fail;
                    if (i >= pass)
                        lowest_fail = std::min(lowest_fail, i);
                }
                expect(once, tag + ": a step ran twice");
                expect(!above, tag + ": a step above a failure ran");
                expect(!order.empty() && order.front() == 0,
                       tag + ": step 0 runs first");
                expect(order.size() <= 2 + static_cast<std::size_t>(
                                               std::log2(steps)),
                       tag + ": binary search probe count");
            }
        }
    }
    // On a ladder that is not monotone the result still passed and
    // the step above it failed.
    const int got =
        searchLadder(16, [](std::size_t i) { return i != 7 && i < 12; });
    expect(got == 11, "a knee of a non-monotone ladder");
}

SpanRecord
span(std::uint64_t id, std::uint64_t parent, std::int64_t start,
     std::int64_t end, const char *layer)
{
    SpanRecord s;
    s.layer = layer;
    s.name = "t";
    s.id = id;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    return s;
}

void
testSelfTime()
{
    // Root [0, 100) with overlapping children [10, 30) and [20, 40),
    // and one child reaching past the root's end; a grandchild inside
    // the first child.
    const std::vector<SpanRecord> spans{
        span(1, 0, 0, 100, "bench"), span(2, 1, 10, 30, "dram"),
        span(3, 1, 20, 40, "dram"),  span(4, 1, 90, 120, "pccs"),
        span(5, 2, 12, 18, "runner")};
    const auto self = selfTimes(spans);
    expect(self[0] == 100 - 30 - 10, "root self time");
    expect(self[1] == 20 - 6, "child self time minus grandchild");
    expect(self[2] == 20, "overlapping sibling self time");
    expect(self[3] == 30, "leaf self time");
    expect(self[4] == 6, "grandchild self time");
    const auto layers = layerSelfSeconds(spans);
    expectNear(layers.at("dram"), 34e-9, "dram layer self time");
    expectNear(layers.at("bench"), 60e-9, "bench layer self time");
    expectNear(childCoverage(spans, 1), 0.4, "root coverage by children");
    expectNear(childCoverage(spans, 99), 0.0, "unknown root coverage");

    setTracing(true);
    clearSpans();
    {
        Span outer("bench", "outer");
        Span inner("dram", "inner");
        expect(inner.id() != outer.id(), "span ids differ");
    }
    setTracing(false);
    {
        Span off("bench", "off");
        expect(off.id() == 0, "no span while tracing is off");
    }
    const auto recorded = collectSpans();
    expect(recorded.size() == 2, "two spans recorded");
    if (recorded.size() == 2) {
        const SpanRecord &in = recorded[0].layer == std::string("dram")
                                   ? recorded[0]
                                   : recorded[1];
        const SpanRecord &out = &in == &recorded[0] ? recorded[1]
                                                    : recorded[0];
        expect(in.parent == out.id, "inner span's parent is the outer");
        expect(in.startNs >= out.startNs && in.endNs <= out.endNs,
               "inner span nests in the outer");
    }
    clearSpans();
}

void
testSeedsFixInputs()
{
    const DramGrid a = makeDramGrid(7), b = makeDramGrid(7),
                   c = makeDramGrid(8);
    expect(a.points == b.points, "same seed, same DRAM grid");
    expect(a.points.size() == b.points.size() &&
               a.multiMc.seed == b.multiMc.seed,
           "same seed, same multi-MC sweep");
    expect(a.points != c.points, "another seed, another DRAM grid");
    expect(a.policies.size() == kPolicyNames.size(),
           "all 8 policies registered");
    expect(a.points.size() == a.policies.size() * a.perPolicy(),
           "grid layout");

    for (const bool mixed : {false, true}) {
        const std::string tag = mixed ? "serve-mixed" : "serve-predict";
        const ServeStream s1 = makeServeStream(7, mixed, 2000, 4);
        const ServeStream s2 = makeServeStream(7, mixed, 2000, 4);
        const ServeStream s3 = makeServeStream(8, mixed, 2000, 4);
        bool same = s1.requests.size() == s2.requests.size();
        bool differs = false;
        for (std::size_t i = 0; same && i < s1.requests.size(); ++i) {
            same = s1.requests[i].frame == s2.requests[i].frame &&
                   s1.requests[i].conn == s2.requests[i].conn &&
                   s1.requests[i].op == s2.requests[i].op;
            differs = differs || s1.requests[i].frame != s3.requests[i].frame;
        }
        expect(same, tag + ": same seed, same request stream");
        expect(differs, tag + ": another seed, another request stream");
        expect(s1.entries.size() == s1.requests.size(),
               tag + ": one entry per request");
        if (mixed) {
            expect(s1.requests[kSchedulePos].op == kSchedule &&
                       s1.requests[kCompletePos].op == kComplete &&
                       s1.requests[kCompletePos].frame.empty(),
                   "mixed stream pairs schedule and complete");
            std::size_t reloads = 0;
            for (const LoadRequest &r : s1.requests)
                reloads += r.op == kReload ? 1 : 0;
            expect(reloads == 2000 / (kPeriod * kReloadEvery),
                   "one reload every few periods");
        }
    }
}

} // namespace

int
main()
{
    testOrderStatistics();
    testLadderSearch();
    testSelfTime();
    testSeedsFixInputs();
    std::printf("perfbench selftest: %s (%d failure%s)\n",
                failures == 0 ? "ok" : "FAILED", failures,
                failures == 1 ? "" : "s");
    return failures == 0 ? 0 : 1;
}
