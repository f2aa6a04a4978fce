#include "bank.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace pccs::dram {

void
Bank::activate(Cycles now, std::uint32_t row, const DramTimingParams &t)
{
    PCCS_ASSERT(canActivate(now), "illegal ACT at cycle %llu",
                static_cast<unsigned long long>(now));
    openRow_ = static_cast<std::int64_t>(row);
    nextCas_ = now + t.tRCD;
    nextPre_ = now + t.tRAS;
}

void
Bank::precharge(Cycles now, const DramTimingParams &t)
{
    PCCS_ASSERT(canPrecharge(now), "illegal PRE at cycle %llu",
                static_cast<unsigned long long>(now));
    openRow_ = noRow;
    nextAct_ = now + t.tRP;
}

Cycles
Bank::access(Cycles now, bool is_write, const DramTimingParams &t)
{
    PCCS_ASSERT(openRow_ != noRow && now >= nextCas_,
                "illegal CAS at cycle %llu",
                static_cast<unsigned long long>(now));
    nextCas_ = now + t.tCCD;
    const Cycles done = now + t.tCL + t.tBURST;
    // A read must respect tRTP before precharge; a write must respect
    // write recovery from the end of the data burst.
    const Cycles pre_after = is_write ? done + t.tWR : now + t.tRTP;
    nextPre_ = std::max(nextPre_, pre_after);
    return done;
}

ChannelTiming::ChannelTiming(unsigned banks, const DramTimingParams &timing)
    : timing_(timing), banks_(banks)
{
    PCCS_ASSERT(banks > 0, "channel needs at least one bank");
    PCCS_ASSERT(banks <= 64, "open-row bitmask supports <= 64 banks");
}

void
ChannelTiming::activateBank(unsigned b, Cycles now, std::uint32_t row)
{
    banks_[b].activate(now, row, timing_);
    openRowMask_ |= std::uint64_t{1} << b;
}

void
ChannelTiming::prechargeBank(unsigned b, Cycles now)
{
    banks_[b].precharge(now, timing_);
    openRowMask_ &= ~(std::uint64_t{1} << b);
}

Cycles
ChannelTiming::accessBank(unsigned b, Cycles now, bool is_write)
{
    return banks_[b].access(now, is_write, timing_);
}

int
ChannelTiming::firstOpenBank() const
{
    return openRowMask_ ? std::countr_zero(openRowMask_) : -1;
}

bool
ChannelTiming::canActivateRank(Cycles now) const
{
    return now >= rankActivateReadyAt();
}

void
ChannelTiming::recordActivate(Cycles now)
{
    nextActRank_ = now + timing_.tRRD;
    actWindow_[actNext_] = now;
    actNext_ = (actNext_ + 1) % actWindow_.size();
    actWindowFull_ |= actNext_ == 0;
}

bool
ChannelTiming::busAvailable(Cycles now, bool is_write) const
{
    if (busFreeAt_ > now + timing_.tCL)
        return false;
    if (!is_write && now < readAllowedAt_)
        return false;
    return true;
}

void
ChannelTiming::reserveBus(Cycles now, bool is_write)
{
    busFreeAt_ = now + timing_.tCL + timing_.tBURST;
    if (is_write)
        readAllowedAt_ = busFreeAt_ + timing_.tWTR;
}

} // namespace pccs::dram
