#include "oracle/dram_oracle.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace pccs::dram {

void
DramOracle::runReference(DramSystem &sys, Cycles cycles)
{
    const Cycles end = sys.now_ + cycles;
    for (; sys.now_ < end; ++sys.now_) {
        tick(*sys.controller_, sys.now_);
        sys.tickSources();
    }
}

void
DramOracle::runLockstep(MultiMcSystem &sys, Cycles cycles)
{
    const Cycles end = sys.now_ + cycles;
    for (; sys.now_ < end; ++sys.now_) {
        for (auto &mc : sys.mcs_)
            tick(*mc, sys.now_);
        sys.tickGenerators(sys.now_);
    }
}

bool
DramOracle::tick(MemoryController &mc, Cycles now)
{
    mc.scheduler_->tick(now);
    bool active = mc.drainCompletions(now);
    for (unsigned ch = 0; ch < mc.cfg_.channels; ++ch) {
        if (!mc.queues_[ch].empty())
            active |= scheduleChannel(mc, ch, now);
    }
    return active;
}

bool
DramOracle::scheduleChannel(MemoryController &mc, unsigned ch, Cycles now)
{
    switch (mc.handleRefresh(ch, now)) {
    case MemoryController::RefreshOutcome::NotDue:
        break;
    case MemoryController::RefreshOutcome::Busy:
        return false;
    case MemoryController::RefreshOutcome::Progressed:
        return true;
    }

    const ChannelTiming &timing = mc.channels_[ch];
    const RequestQueue &queue = mc.queues_[ch];

    // Row-hit preservation: a bank whose open row still has pending
    // requests must not be precharged for a conflicting request.
    const std::uint32_t pending_hits =
        mc.scheduler_->preservesRowHits() ? mc.pendingRowHitMask(ch) : 0;

    // The scheduler's view: for each request in arrival order, whether
    // its *next needed command* (CAS for an open matching row,
    // otherwise PRE or ACT) is timing-legal now. Slots ride alongside
    // so the chosen entry can be issued by slot.
    thread_local std::vector<QueueEntryView> entries;
    thread_local std::vector<int> slots;
    entries.clear();
    slots.clear();
    const Cycles rank_ready = timing.rankActivateReadyAt();
    const Cycles bus_ready_rd = timing.busReadyAt(false);
    const Cycles bus_ready_wr = timing.busReadyAt(true);
    for (int s = queue.head(); s >= 0; s = queue.next(s)) {
        const Request &r = queue.slot(s);
        const Bank &bank = timing.bank(r.loc.bank);
        QueueEntryView e;
        e.req = &r;
        e.rowHit =
            bank.openRow() == static_cast<std::int64_t>(r.loc.row);
        if (e.rowHit) {
            e.issuable = now >= std::max(bank.nextAccessAt(),
                                         r.isWrite ? bus_ready_wr
                                                   : bus_ready_rd);
        } else if (bank.openRow() != Bank::noRow) {
            e.issuable = !(pending_hits & (1u << r.loc.bank)) &&
                         now >= bank.nextPrechargeAt();
        } else {
            e.issuable =
                now >= std::max(bank.nextActivateAt(), rank_ready);
        }
        entries.push_back(e);
        slots.push_back(s);
    }

    const int idx = mc.scheduler_->pick(ch, entries, now);
    if (idx < 0)
        return false;
    PCCS_ASSERT(static_cast<std::size_t>(idx) < entries.size() &&
                    entries[idx].issuable,
                "scheduler picked a non-issuable entry %d", idx);
    // The returned bound only feeds the production wake cache.
    (void)mc.issueCommand(ch, slots[idx], entries[idx].rowHit, now, 0);
    return true;
}

} // namespace pccs::dram
