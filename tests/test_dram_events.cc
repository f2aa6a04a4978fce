/**
 * @file
 * Targeted tests for the event-driven core's next-event computation:
 * coinciding events (completion + refresh deadline + token-accrual
 * crossings on the same cycle) must resolve in the order of the
 * oracle's per-cycle loop across skip boundaries, run() chunking must
 * not be observable, and nextEventCycle() must never place a wake
 * past real work. Channel evaluations that issue nothing stay under
 * the ceiling the exact wake bounds were written with.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "dram/system.hh"
#include "oracle/dram_oracle.hh"

namespace pccs::dram {
namespace {

/** A small system whose refreshes are dense enough to collide with
 *  completions and token crossings many times per window. */
std::unique_ptr<DramSystem>
buildDense(std::string_view policy, double demand)
{
    DramConfig cfg = table1Config();
    cfg.channels = 2;
    cfg.requestBufferEntries = 32;
    cfg.timing.tREFI = 200; // every 200 cycles (vs 12480 stock)
    cfg.timing.tRFC = 40;
    auto sys = std::make_unique<DramSystem>(cfg, policy);
    for (unsigned s = 0; s < 3; ++s) {
        TrafficParams p;
        p.source = s;
        p.demand = demand * (1.0 + 0.5 * s);
        p.rowLocality = 0.9 - 0.2 * s;
        p.writeFraction = 0.15 * s;
        p.mlp = 8;
        p.seed = 40 + s;
        sys->addGenerator(p);
    }
    return sys;
}

void
expectSameStats(DramSystem &a, DramSystem &b)
{
    const ControllerStats &sa = a.controller().stats();
    const ControllerStats &sb = b.controller().stats();
    EXPECT_EQ(sa.reads, sb.reads);
    EXPECT_EQ(sa.writes, sb.writes);
    EXPECT_EQ(sa.rowHits, sb.rowHits);
    EXPECT_EQ(sa.rowMisses, sb.rowMisses);
    EXPECT_EQ(sa.refreshes, sb.refreshes);
    EXPECT_EQ(sa.bytesTransferred, sb.bytesTransferred);
    EXPECT_EQ(sa.completed, sb.completed);
    EXPECT_EQ(sa.totalLatency, sb.totalLatency);
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.controller().pendingRequests(),
              b.controller().pendingRequests());
}

TEST(DramEvents, CoincidingEventsResolveInCycleOrder)
{
    // With tREFI = 200 and ~70-cycle loaded latencies, refresh
    // deadlines, inflight completions, and token crossings repeatedly
    // land on the same cycle; the skipping core must replay exactly
    // the per-cycle order (controller: scheduler tick, completions,
    // refresh-before-schedule per channel; then generators).
    for (const std::string &policy : schedulerNames()) {
        for (double demand : {0.5, 4.0, 25.0}) {
            SCOPED_TRACE(testing::Message()
                         << policy << " demand " << demand);
            auto ref = buildDense(policy, demand);
            auto evt = buildDense(policy, demand);
            DramOracle::runReference(*ref, 15000);
            evt->run(15000);
            expectSameStats(*ref, *evt);
            EXPECT_GT(ref->controller().stats().refreshes, 50u);
        }
    }
}

TEST(DramEvents, RunChunkingIsUnobservable)
{
    // run(n) boundaries clamp a jump but change no state: the event
    // core called 15000 times with run(1), ~2143 times with run(7),
    // and once with run(15000) must agree bit-for-bit.
    auto whole = buildDense("FR-FCFS", 2.0);
    auto by7 = buildDense("FR-FCFS", 2.0);
    auto by1 = buildDense("FR-FCFS", 2.0);
    whole->run(15000);
    for (int i = 0; i < 15000 / 7; ++i)
        by7->run(7);
    by7->run(15000 % 7);
    for (int i = 0; i < 15000; ++i)
        by1->run(1);
    expectSameStats(*whole, *by7);
    expectSameStats(*whole, *by1);
}

TEST(DramEvents, IdleControllerHasNoEvents)
{
    DramConfig cfg = table1Config();
    MemoryController mc(cfg, makeScheduler("FR-FCFS"));
    EXPECT_FALSE(mc.tick(0));
    // No queued requests, nothing inflight, no scheduler tick events:
    // a fully idle controller never needs to wake.
    EXPECT_EQ(mc.nextEventCycle(0), kNoEvent);
    EXPECT_EQ(mc.nextEventCycle(12345), kNoEvent);
}

TEST(DramEvents, SingleRequestWakesThroughActCasCompletion)
{
    // Walk one request through ACT -> CAS -> completion using only the
    // controller's own next-event hints, and verify each hop is both
    // productive (the woken cycle is active) and tight against the
    // DDR timing parameters.
    DramConfig cfg = table1Config();
    MemoryController mc(cfg, makeScheduler("FR-FCFS"));
    ASSERT_TRUE(mc.enqueue(0, 0x40, false, 0));
    const DecodedAddr loc = mc.mapper().decode(0x40);

    EXPECT_TRUE(mc.tick(0)); // ACT issues immediately
    EXPECT_EQ(mc.pendingRowHitMask(loc.channel), 1u << loc.bank);

    const Cycles cas_at = mc.nextEventCycle(0);
    EXPECT_EQ(cas_at, cfg.timing.tRCD); // CAS legal after tRCD
    for (Cycles c = 1; c < cas_at; ++c)
        EXPECT_FALSE(mc.tick(c)) << "cycle " << c;
    EXPECT_TRUE(mc.tick(cas_at));
    EXPECT_EQ(mc.pendingRowHitMask(loc.channel), 0u);

    const Cycles done_at = mc.nextEventCycle(cas_at);
    EXPECT_EQ(done_at, cas_at + cfg.timing.tCL + cfg.timing.tBURST);
    for (Cycles c = cas_at + 1; c < done_at; ++c)
        EXPECT_FALSE(mc.tick(c)) << "cycle " << c;
    EXPECT_TRUE(mc.tick(done_at)); // completion drains
    EXPECT_EQ(mc.stats().completed, 1u);
    EXPECT_EQ(mc.pendingRequests(), 0u);
    EXPECT_EQ(mc.nextEventCycle(done_at), kNoEvent);
}

TEST(DramEvents, LowDemandTokenAccrualMatchesReference)
{
    // A demand of ~1 line per ~500 cycles: the event core sleeps
    // through long token-accrual stretches and must neither issue a
    // line late (skipped crossing) nor drift the bucket's float value
    // (the accrual is replayed as identical capped per-cycle adds).
    for (double demand : {0.35, 1.0, 3.3}) {
        SCOPED_TRACE(testing::Message() << "demand " << demand);
        DramConfig cfg = table1Config();
        auto make = [&] {
            auto sys = std::make_unique<DramSystem>(cfg, "FR-FCFS");
            TrafficParams p;
            p.source = 0;
            p.demand = demand;
            p.rowLocality = 0.95;
            p.mlp = 4;
            p.seed = 99;
            sys->addGenerator(p);
            return sys;
        };
        auto ref = make();
        auto evt = make();
        DramOracle::runReference(*ref, 100000);
        evt->run(100000);
        expectSameStats(*ref, *evt);
        EXPECT_EQ(ref->generator(0).issuedLines(),
                  evt->generator(0).issuedLines());
        EXPECT_GT(evt->generator(0).issuedLines(), 0u);
    }
}

/**
 * One saturated Fig. 5 point (8 low-group cores at 60 GB/s in total
 * beside 8 high-group cores at 90 GB/s, fig05's address seeds and
 * windows) under `policy`, run to the end of its measurement window.
 */
std::unique_ptr<DramSystem>
runSaturatedFig5Point(const std::string &policy)
{
    auto sys = std::make_unique<DramSystem>(table1Config(), policy);
    for (unsigned c = 0; c < 8; ++c) {
        TrafficParams p;
        p.source = c;
        p.demand = 60.0 / 8;
        p.seed = 1000 + c;
        sys->addGenerator(p);
    }
    for (unsigned c = 0; c < 8; ++c) {
        TrafficParams p;
        p.source = 8 + c;
        p.demand = 90.0 / 8;
        p.seed = 2000 + c;
        sys->addGenerator(p);
    }
    sys->run(15000);
    sys->resetMeasurement();
    sys->run(60000);
    return sys;
}

TEST(DramEvents, EmptyEvaluationsStayUnderCeiling)
{
    // A channel is evaluated only on a cycle where it can issue or its
    // policy has a decision pending. The ceilings are the counts this
    // bound gave when it was written: a tighter bound may lower them,
    // a looser one fails here before it costs host time.
    const std::map<std::string, std::uint64_t> ceiling = {
        {"FCFS", 57909}, {"FR-FCFS", 9261}, {"ATLAS", 8206},
        {"TCM", 8860},   {"SMS", 15004},    {"BLISS", 9578},
        {"PARBS", 9043}, {"MEDUSA", 9972},
    };
    for (const PolicyInfo &info : schedulerPolicies()) {
        SCOPED_TRACE(info.name);
        const auto sys = runSaturatedFig5Point(info.name);
        const ControllerCounters &k = sys->controller().counters();
        EXPECT_EQ(k.evaluations, k.commands + k.refreshSteps + k.empty());
        EXPECT_GT(k.commands, 0u);
        if (info.pickIsPure) {
            EXPECT_EQ(k.emptyPending, 0u);
        }
        const auto it = ceiling.find(info.name);
        ASSERT_NE(it, ceiling.end()) << "no ceiling for this policy";
        EXPECT_LE(k.empty(), it->second);
    }
}

} // namespace
} // namespace pccs::dram
