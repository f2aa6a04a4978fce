/**
 * @file
 * Unit tests for the DRAM bank and channel timing state machines.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "dram/bank.hh"
#include "dram/timing.hh"

namespace pccs::dram {
namespace {

class BankTest : public ::testing::Test
{
  protected:
    DramTimingParams t = ddr4_3200();
    Bank bank;
};

TEST_F(BankTest, StartsPrecharged)
{
    EXPECT_EQ(bank.openRow(), Bank::noRow);
    EXPECT_TRUE(bank.canActivate(0));
    EXPECT_FALSE(bank.canPrecharge(0));
    EXPECT_FALSE(bank.canAccess(0, 5));
}

TEST_F(BankTest, ActivateOpensRowAndBlocksCasUntilTrcd)
{
    bank.activate(100, 7, t);
    EXPECT_EQ(bank.openRow(), 7);
    EXPECT_FALSE(bank.canAccess(100 + t.tRCD - 1, 7));
    EXPECT_TRUE(bank.canAccess(100 + t.tRCD, 7));
    EXPECT_FALSE(bank.canAccess(100 + t.tRCD, 8)) << "wrong row";
}

TEST_F(BankTest, PrechargeBlockedUntilTras)
{
    bank.activate(100, 7, t);
    EXPECT_FALSE(bank.canPrecharge(100 + t.tRAS - 1));
    EXPECT_TRUE(bank.canPrecharge(100 + t.tRAS));
}

TEST_F(BankTest, PrechargeClosesRowAndBlocksActUntilTrp)
{
    bank.activate(0, 3, t);
    const Cycles pre_at = t.tRAS;
    bank.precharge(pre_at, t);
    EXPECT_EQ(bank.openRow(), Bank::noRow);
    EXPECT_FALSE(bank.canActivate(pre_at + t.tRP - 1));
    EXPECT_TRUE(bank.canActivate(pre_at + t.tRP));
}

TEST_F(BankTest, ReadCompletionTiming)
{
    bank.activate(0, 1, t);
    const Cycles cas_at = t.tRCD;
    const Cycles done = bank.access(cas_at, false, t);
    EXPECT_EQ(done, cas_at + t.tCL + t.tBURST);
}

TEST_F(BankTest, CasToCasSpacing)
{
    bank.activate(0, 1, t);
    const Cycles cas_at = t.tRCD;
    bank.access(cas_at, false, t);
    EXPECT_FALSE(bank.canAccess(cas_at + t.tCCD - 1, 1));
    EXPECT_TRUE(bank.canAccess(cas_at + t.tCCD, 1));
}

TEST_F(BankTest, ReadToPrechargeConstraint)
{
    bank.activate(0, 1, t);
    // Issue the CAS late enough that tRTP (not tRAS) is binding.
    const Cycles cas_at = t.tRAS;
    bank.access(cas_at, false, t);
    EXPECT_FALSE(bank.canPrecharge(cas_at + t.tRTP - 1));
    EXPECT_TRUE(bank.canPrecharge(cas_at + t.tRTP));
}

TEST_F(BankTest, WriteRecoveryDelaysPrecharge)
{
    bank.activate(0, 1, t);
    const Cycles cas_at = t.tRAS;
    const Cycles done = bank.access(cas_at, true, t);
    EXPECT_FALSE(bank.canPrecharge(done + t.tWR - 1));
    EXPECT_TRUE(bank.canPrecharge(done + t.tWR));
}

TEST_F(BankTest, IllegalActivateDies)
{
    bank.activate(0, 1, t);
    EXPECT_DEATH(bank.activate(1, 2, t), "illegal ACT");
}

TEST_F(BankTest, IllegalPrechargeDies)
{
    EXPECT_DEATH(bank.precharge(0, t), "illegal PRE");
}

class ChannelTest : public ::testing::Test
{
  protected:
    DramTimingParams t = ddr4_3200();
    ChannelTiming ch{8, t};
};

TEST_F(ChannelTest, FourActivateWindow)
{
    // Four back-to-back ACTs (respecting tRRD) fill the tFAW window.
    Cycles now = 0;
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(ch.canActivateRank(now));
        ch.recordActivate(now);
        now += t.tRRD;
    }
    // A fifth ACT must wait until tFAW after the first.
    EXPECT_FALSE(ch.canActivateRank(now));
    EXPECT_TRUE(ch.canActivateRank(t.tFAW));

    // Keep activating at the earliest legal cycle, with an irregular
    // extra delay, well past 8 ACTs so the 4-entry window wraps several
    // times: every ACT waits for tRRD after the previous one and for
    // tFAW after the one four back.
    std::vector<Cycles> acts = {0, t.tRRD, 2 * t.tRRD, 3 * t.tRRD};
    for (int i = 4; i < 14; ++i) {
        const Cycles want = std::max(acts[i - 1] + t.tRRD,
                                     acts[i - 4] + t.tFAW);
        ASSERT_EQ(ch.rankActivateReadyAt(), want) << "ACT " << i;
        EXPECT_FALSE(ch.canActivateRank(want - 1)) << "ACT " << i;
        const Cycles at = want + static_cast<Cycles>(i % 3) * 5;
        ASSERT_TRUE(ch.canActivateRank(at)) << "ACT " << i;
        ch.recordActivate(at);
        acts.push_back(at);
    }
}

TEST_F(ChannelTest, ActToActSpacing)
{
    ch.recordActivate(10);
    EXPECT_FALSE(ch.canActivateRank(10 + t.tRRD - 1));
    EXPECT_TRUE(ch.canActivateRank(10 + t.tRRD));
}

TEST_F(ChannelTest, BusReservation)
{
    EXPECT_TRUE(ch.busAvailable(0));
    ch.reserveBus(0);
    EXPECT_EQ(ch.busFreeAt(), t.tCL + t.tBURST);
    // A CAS issued tBURST later starts its burst exactly when the
    // previous burst ends: allowed.
    EXPECT_TRUE(ch.busAvailable(t.tBURST));
    // One cycle earlier would overlap bursts: denied.
    EXPECT_FALSE(ch.busAvailable(t.tBURST - 1));
}

TEST_F(ChannelTest, BankAccessors)
{
    EXPECT_EQ(ch.numBanks(), 8u);
    ch.bank(0).activate(0, 42, t);
    EXPECT_EQ(ch.bank(0).openRow(), 42);
    EXPECT_EQ(ch.bank(1).openRow(), Bank::noRow);
}

TEST(TimingPresets, Ddr4MatchesTable1)
{
    const DramTimingParams t = ddr4_3200();
    EXPECT_DOUBLE_EQ(t.busClockMhz, 1600.0);
    EXPECT_EQ(t.tBURST, 4u); // 64B line over a 64-bit DDR channel
}

TEST(TimingPresets, Lpddr4xScalesWithClock)
{
    const DramTimingParams fast = lpddr4x(2133.0);
    const DramTimingParams slow = lpddr4x(1066.0);
    // Nanosecond-class constraints take about half the cycles at half
    // the clock.
    EXPECT_NEAR(static_cast<double>(slow.tRCD),
                static_cast<double>(fast.tRCD) / 2.0, 1.0);
    EXPECT_GT(fast.tRAS, slow.tRAS);
}

} // namespace
} // namespace pccs::dram
