/**
 * @file
 * Differential test of the production loop's source gating.
 *
 * DramSystem::run ticks only its armed traffic sources: a source that
 * stopped on its MLP limit waits for its own completion, one refused
 * by a full channel waits for that channel to dequeue (and only the
 * first waiter in the cycle's rotation is armed), and one short of a
 * line waits for its bucket's exact crossing. The test oracle ticks
 * every source every cycle in its own loop. Both must land on the same
 * state exactly, across the shapes that stress each gate: MLP 1–4,
 * 8–16-entry channel queues, 16, 17 and 64 generators (64 fills the
 * 64-bit source set), demands from 0.01 GB/s (a crossing past the
 * bucket's planning horizon) to above peak, writes, replays beside
 * generators, and run() split into 1–7-cycle chunks with measurement
 * resets in between.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/system.hh"
#include "oracle/dram_oracle.hh"

namespace pccs::dram {
namespace {

/** One system shape under test. */
struct Shape
{
    unsigned generators;
    unsigned mlp;
    /** Per-channel request queue entries. */
    unsigned queue;
    unsigned channels;
    /** Smallest and largest per-generator demand, GB/s. */
    double minDemand, maxDemand;
    double writeFraction;
    unsigned replays;
    std::string policy;
    std::uint64_t seed;
};

std::unique_ptr<DramSystem>
build(const Shape &s)
{
    DramConfig cfg = table1Config();
    cfg.channels = s.channels;
    cfg.requestBufferEntries = s.queue * s.channels;
    auto sys = std::make_unique<DramSystem>(cfg, s.policy);
    // Demands spread geometrically from minDemand to maxDemand, so
    // every shape mixes pacing-gated and backpressured sources.
    Rng rng(s.seed);
    const unsigned n = s.generators;
    for (unsigned g = 0; g < n; ++g) {
        const double f = n > 1 ? static_cast<double>(g) / (n - 1) : 0.0;
        TrafficParams p;
        p.source = g;
        p.demand = s.minDemand * std::pow(s.maxDemand / s.minDemand, f);
        p.mlp = s.mlp;
        p.rowLocality = 0.5 + 0.5 * rng.uniform();
        p.writeFraction = s.writeFraction;
        p.seed = s.seed * 7919 + g;
        sys->addGenerator(p);
    }
    for (unsigned r = 0; r < s.replays; ++r) {
        std::vector<TraceEntry> trace;
        for (unsigned i = 0; i < 300; ++i)
            trace.push_back({rng.next(), rng.chance(s.writeFraction)});
        ReplayParams rp;
        rp.source = n + r;
        rp.demand = s.maxDemand * (r + 1);
        rp.mlp = s.mlp + r;
        // The second replay stops at its trace's end (the Exhausted gate).
        rp.loop = r == 0;
        sys->addReplay(rp, std::move(trace));
    }
    return sys;
}

void
expectSameState(DramSystem &ref, DramSystem &prod)
{
    const ControllerStats &a = ref.controller().stats();
    const ControllerStats &b = prod.controller().stats();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.rowHits, b.rowHits);
    EXPECT_EQ(a.rowMisses, b.rowMisses);
    EXPECT_EQ(a.refreshes, b.refreshes);
    EXPECT_EQ(a.bytesTransferred, b.bytesTransferred);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.totalLatency, b.totalLatency);
    for (unsigned s = 0; s < Scheduler::maxSources; ++s) {
        EXPECT_EQ(a.bytesPerSource[s], b.bytesPerSource[s])
            << "source " << s;
        EXPECT_EQ(a.completedPerSource[s], b.completedPerSource[s])
            << "source " << s;
    }
    EXPECT_EQ(ref.now(), prod.now());
    EXPECT_EQ(ref.controller().pendingRequests(),
              prod.controller().pendingRequests());
    for (std::size_t i = 0; i < ref.numGenerators(); ++i) {
        EXPECT_EQ(ref.generator(i).issuedLines(),
                  prod.generator(i).issuedLines())
            << "generator " << i;
        EXPECT_EQ(ref.generator(i).completedLines(),
                  prod.generator(i).completedLines())
            << "generator " << i;
        EXPECT_EQ(ref.generator(i).outstanding(),
                  prod.generator(i).outstanding())
            << "generator " << i;
    }
    for (std::size_t i = 0; i < ref.numReplays(); ++i) {
        EXPECT_EQ(ref.replay(i).issuedLines(), prod.replay(i).issuedLines())
            << "replay " << i;
        EXPECT_EQ(ref.replay(i).completedLines(),
                  prod.replay(i).completedLines())
            << "replay " << i;
    }
}

/**
 * Advance an oracle copy and a production copy of `s` through the
 * same schedule of 1–7-cycle chunks, resetting both measurement
 * windows every few hundred cycles, and compare at every reset.
 */
void
runDifferential(const Shape &s, Cycles cycles)
{
    SCOPED_TRACE(testing::Message()
                 << s.policy << " gens=" << s.generators
                 << " mlp=" << s.mlp << " queue=" << s.queue
                 << " ch=" << s.channels << " demand=[" << s.minDemand
                 << ", " << s.maxDemand << "] writes=" << s.writeFraction
                 << " replays=" << s.replays << " seed=" << s.seed);
    auto ref = build(s);
    auto prod = build(s);
    Rng chunks(s.seed * 31 + 5);
    Cycles done = 0;
    Cycles nextReset = 500;
    while (done < cycles) {
        const Cycles step = 1 + chunks.below(7);
        DramOracle::runReference(*ref, step);
        prod->run(step);
        done += step;
        if (done >= nextReset) {
            expectSameState(*ref, *prod);
            if (testing::Test::HasFailure())
                return;
            ref->resetMeasurement();
            prod->resetMeasurement();
            nextReset += 300 + chunks.below(400);
        }
    }
    expectSameState(*ref, *prod);
}

/** Peak of table1Config() is 102.4 GB/s over 4 channels. */
constexpr double kPeak = 102.4;

TEST(SourceGating, MatchesOracleAcrossShapes)
{
    const std::vector<std::string> policies = schedulerNames();
    struct Demand
    {
        double lo, hi;
        Cycles cycles;
    };
    // Light (crossings beyond the planning horizon), mixed, and a
    // total well above peak (every queue full, many waiters).
    const Demand demands[] = {{0.01, 0.4, 14000},
                              {0.2, 12.0, 5000},
                              {4.0, 3.0 * kPeak / 16, 4000}};
    std::uint64_t seed = 1;
    for (unsigned gens : {16u, 17u, 64u}) {
        for (unsigned mlp = 1; mlp <= 4; ++mlp) {
            for (const Demand &d : demands) {
                Shape s;
                s.generators = gens;
                s.mlp = mlp;
                s.queue = 8 + static_cast<unsigned>(seed % 9);
                s.channels = (seed % 3 == 0) ? 2 : 4;
                s.minDemand = d.lo;
                s.maxDemand = d.hi;
                s.writeFraction = (seed % 2) ? 0.3 : 0.0;
                // 64 generators use every source id.
                s.replays = gens < 64 ? 1 + static_cast<unsigned>(seed % 2)
                                      : 0;
                s.policy = policies[seed % policies.size()];
                s.seed = seed++;
                runDifferential(s, d.cycles);
                if (HasFailure())
                    return;
            }
        }
    }
}

TEST(SourceGating, EveryPolicyUnderBackpressure)
{
    // The saturated shape under every registered policy: with 8-entry
    // queues and demand far above peak, most cycles free one slot per
    // channel for a crowd of waiters, so arming any waiter but the
    // first in the cycle's rotation reorders the queue.
    std::uint64_t seed = 100;
    for (const std::string &policy : schedulerNames()) {
        Shape s;
        s.generators = 17;
        s.mlp = 4;
        s.queue = 8;
        s.channels = 4;
        s.minDemand = 2.0;
        s.maxDemand = 40.0;
        s.writeFraction = 0.2;
        s.replays = 2;
        s.policy = policy;
        s.seed = seed++;
        runDifferential(s, 6000);
        if (HasFailure())
            return;
    }
}

/**
 * The per-cycle bucket the oracle effectively runs: one capped
 * addition per cycle, starting at cycle 0.
 */
struct ReferenceBucket
{
    double rate, cap;
    double tokens = 0.0;
    Cycles through = 0;

    void accrueThrough(Cycles now)
    {
        for (; through <= now; ++through)
            tokens = std::min(tokens + rate, cap);
    }
};

TEST(TokenBucket, CrossingIsExactAndResumingIsBitIdentical)
{
    constexpr double kLine = 64.0;
    // 0.00625 B/cycle is 0.01 GB/s at 1600 MHz: ~10k cycles a line,
    // past the planning horizon, so crossings take several plans.
    for (double rate : {0.00625, 0.37, 4.0, 13.1, 70.0}) {
        SCOPED_TRACE(testing::Message() << "rate " << rate);
        TokenBucket bucket(rate, 8 * kLine);
        ReferenceBucket ref{rate, 8 * kLine};
        Rng rng(static_cast<std::uint64_t>(rate * 1000) + 1);
        Cycles now = 0;
        for (int step = 0; step < 3000; ++step) {
            if (bucket.tokens() >= kLine) {
                bucket.take(kLine);
                ref.tokens -= kLine;
            } else {
                // The first cycle the per-cycle adds reach a line.
                ReferenceBucket probe = ref;
                Cycles first = ref.through;
                for (probe.accrueThrough(first); probe.tokens < kLine;)
                    probe.accrueThrough(++first);
                // Never late; exact whenever the crossing lies within
                // the planning horizon (at the slowest rate a plan may
                // stop short and the next plan goes on from there).
                const Cycles c = bucket.crossing(kLine);
                ASSERT_GE(c, bucket.accruedUntil());
                ASSERT_LE(c, first);
                if (rate > 0.1) {
                    ASSERT_EQ(c, first);
                }
                // Accrue to before, exactly at, or past the crossing:
                // each must replay or resume to the same bits.
                const Cycles lo = c > now + 3 ? c - 3 : now;
                now = lo + rng.below(c + 4 - lo);
            }
            now += rng.below(3);
            bucket.accrueThrough(now);
            ref.accrueThrough(now);
            ASSERT_EQ(bucket.tokens(), ref.tokens) << "step " << step;
            ASSERT_EQ(bucket.accruedUntil(), ref.through);
        }
    }
}

} // namespace
} // namespace pccs::dram
