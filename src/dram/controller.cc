#include "controller.hh"

#include <algorithm>
#include <bit>
#include <ostream>

#include "common/logging.hh"

namespace pccs::dram {

MemoryController::MemoryController(const DramConfig &cfg,
                                   std::unique_ptr<Scheduler> scheduler)
    : cfg_(cfg), mapper_(cfg), scheduler_(std::move(scheduler))
{
    PCCS_ASSERT(scheduler_ != nullptr, "controller needs a scheduler");
    PCCS_ASSERT(cfg_.banksPerChannel <= 32,
                "row-hit preservation bitmask supports <= 32 banks");
    purePick_ = scheduler_->pickIsPure();
    schedTickAt_ = scheduler_->nextTickEvent();
    channels_.reserve(cfg_.channels);
    queues_.reserve(cfg_.channels);
    for (unsigned c = 0; c < cfg_.channels; ++c) {
        channels_.emplace_back(cfg_.banksPerChannel, cfg_.timing);
        queues_.emplace_back(cfg_.queuePerChannel(),
                             cfg_.banksPerChannel);
    }
    nextRefresh_.assign(cfg_.channels, cfg_.timing.tREFI);
    refreshUntil_.assign(cfg_.channels, 0);
    channelWake_.assign(cfg_.channels, 0);
}

bool
MemoryController::canAccept(Addr addr) const
{
    const unsigned ch = mapper_.decode(addr).channel;
    return !queues_[ch].full();
}

bool
MemoryController::enqueue(unsigned source, Addr addr, bool is_write,
                          Cycles now)
{
    PCCS_ASSERT(source < Scheduler::maxSources,
                "source id %u exceeds the %u-source limit", source,
                Scheduler::maxSources);
    Request req;
    req.source = source;
    req.isWrite = is_write;
    req.addr = addr;
    req.loc = mapper_.decode(addr);
    req.arrival = now;

    auto &queue = queues_[req.loc.channel];
    if (queue.full())
        return false;
    req.id = nextId_++;
    const Bank &bank = channels_[req.loc.channel].bank(req.loc.bank);
    const bool row_hit =
        bank.openRow() == static_cast<std::int64_t>(req.loc.row);
    const int slot = queue.push_back(req, row_hit);
    Cycles &wake = channelWake_[req.loc.channel];
    if (purePick_ && queue.size() > 1) {
        // The cached bound stays valid for the requests it was
        // computed over (enqueues change no bank state); only the
        // newcomer can move the channel's first legality earlier.
        wake = std::min(wake, requestIssueBound(req, now));
    } else {
        // First request on an idle channel (a refresh may have come
        // due while the queue was empty), or a rebatching policy
        // (SMS/PARBS): force a full evaluation next cycle.
        wake = 0;
    }
    scheduler_->onEnqueue(queue.slot(slot));
    return true;
}

void
MemoryController::CompletionFifo::push(const Request &req)
{
    if (size_ == buf_.size()) {
        std::vector<Request> grown(std::max<std::size_t>(16, 2 * size_));
        for (std::size_t i = 0; i < size_; ++i)
            grown[i] = buf_[(head_ + i) & (buf_.size() - 1)];
        buf_.swap(grown);
        head_ = 0;
    }
    buf_[(head_ + size_) & (buf_.size() - 1)] = req;
    ++size_;
}

bool
MemoryController::tick(Cycles now)
{
    if (now >= schedTickAt_) {
        scheduler_->tick(now);
        schedTickAt_ = scheduler_->nextTickEvent();
    }
    bool active = drainCompletions(now);
    for (unsigned ch = 0; ch < cfg_.channels; ++ch) {
        // Quiet channel: its cached wake bound proves this evaluation
        // would come up empty, so skip rebuilding the scheduler view
        // (the dominant per-cycle cost at load).
        if (queues_[ch].empty() || now < channelWake_[ch])
            continue;
        active |= scheduleChannel(ch, now);
    }
    return active;
}

bool
MemoryController::drainCompletions(Cycles now)
{
    bool drained = false;
    while (!inflight_.empty() && inflight_.front().completion <= now) {
        const Request req = inflight_.front();
        inflight_.pop();
        stats_.totalLatency += req.completion - req.arrival;
        ++stats_.completed;
        ++stats_.completedPerSource[req.source];
        if (onComplete_)
            onComplete_(req);
        drained = true;
    }
    return drained;
}

int
MemoryController::firstReadyBank(unsigned ch, Cycles now,
                                 Cycles *pre_at) const
{
    const ChannelTiming &timing = channels_[ch];
    const int b = timing.firstOpenBank();
    if (b >= 0 && pre_at)
        *pre_at = std::max(timing.bank(b).nextPrechargeAt(), now);
    return b;
}

MemoryController::RefreshOutcome
MemoryController::handleRefresh(unsigned ch, Cycles now)
{
    if (now < refreshUntil_[ch])
        return RefreshOutcome::Busy; // refresh in progress: blocked
    if (now < nextRefresh_[ch])
        return RefreshOutcome::NotDue;

    // Refresh due: close every open row, then hold the channel for
    // tRFC. Precharges obey their bank timing (one per command slot).
    Cycles pre_at = 0;
    const int b = firstReadyBank(ch, now, &pre_at);
    if (b >= 0) {
        if (pre_at > now)
            return RefreshOutcome::Busy; // must wait for this PRE
        channels_[ch].prechargeBank(static_cast<unsigned>(b), now);
        queues_[ch].clearHits(static_cast<unsigned>(b));
        return RefreshOutcome::Progressed;
    }
    refreshUntil_[ch] = now + cfg_.timing.tRFC;
    // No catch-up storms after idle stretches: refresh debt from
    // periods without traffic is irrelevant to bandwidth accounting.
    nextRefresh_[ch] =
        std::max(nextRefresh_[ch] + cfg_.timing.tREFI, now + 1);
    ++stats_.refreshes;
    return RefreshOutcome::Progressed;
}

Cycles
MemoryController::issueCommand(unsigned ch, int slot, bool row_hit,
                               Cycles now, std::uint64_t masked_banks)
{
    ChannelTiming &timing = channels_[ch];
    RequestQueue &queue = queues_[ch];
    Request &req = queue.slot(slot);
    const unsigned b = req.loc.bank;

    // Post-command legality of the *chosen* request's next command
    // (kNoEvent for a CAS: the request leaves the queue). Every other
    // entry's pre-command bound in the caller's `future` can only be
    // pushed later by the command, so reusing it wakes at worst early
    // (a no-op evaluation that recomputes a fresh bound), never late.
    Cycles own = kNoEvent;

    if (row_hit) {
        // CAS: the request completes after CL + burst.
        PCCS_ASSERT(queue.isHit(slot), "row-hit CAS for a non-hit slot");
        const Cycles done = timing.accessBank(b, now, req.isWrite);
        timing.reserveBus(now, req.isWrite);
        req.casIssued = now;
        req.completion = done;
        if (req.neededActivate)
            ++stats_.rowMisses;
        else
            ++stats_.rowHits;
        if (req.isWrite)
            ++stats_.writes;
        else
            ++stats_.reads;
        stats_.bytesTransferred += cfg_.lineBytes;
        stats_.bytesPerSource[req.source] += cfg_.lineBytes;
        scheduler_->onService(req, now, cfg_.lineBytes);
        PCCS_ASSERT(inflight_.empty() || inflight_.back().completion <= done,
                    "CAS completing at %llu behind one at %llu",
                    static_cast<unsigned long long>(done),
                    static_cast<unsigned long long>(
                        inflight_.back().completion));
        inflight_.push(req);
        queue.erase(slot); // unlinks the bank and hit lists too
        // This CAS may have drained the open row's last pending hit,
        // unmasking a conflicting PRE that the bank classification
        // excluded from `future`; its legality (post-CAS: access() pushed
        // nextPre_) must bound the wake or the PRE would issue late.
        if (queue.hitCount(b) == 0 &&
            (masked_banks & (std::uint64_t{1} << b))) {
            own = timing.bank(b).nextPrechargeAt();
        }
    } else if (timing.bank(b).openRow() != Bank::noRow) {
        // Row conflict: close the current row first.
        timing.prechargeBank(b, now);
        queue.clearHits(b);
        own = std::max(timing.bank(b).nextActivateAt(),
                       timing.rankActivateReadyAt());
    } else {
        // Row closed: open the request's row. Every request served
        // after this ACT without another ACT counts as a row hit;
        // this one is charged as a miss via neededActivate.
        timing.activateBank(b, now, req.loc.row);
        timing.recordActivate(now);
        req.neededActivate = true;
        queue.rebuildHits(b, req.loc.row);
        own = std::max(timing.bank(b).nextAccessAt(),
                       timing.busReadyAt(req.isWrite));
    }
    return own;
}

Cycles
MemoryController::issuedWakeBound(unsigned ch, bool row_hit,
                                  unsigned ready_hit,
                                  unsigned ready_other, Cycles future,
                                  Cycles own, Cycles now) const
{
    if (!purePick_) {
        // SMS must re-pick right after any queue change.
        return now + 1;
    }
    Cycles w = std::min({future, own, nextRefresh_[ch]});
    if (row_hit) {
        // A CAS only delays other row hits through the data bus,
        // which it just reserved: none of them can be legal again
        // before busReadyAt (exactly now + tBURST; reads possibly
        // later still). Pending PRE/ACT work is untouched by the bus
        // and can issue next cycle.
        if (ready_other > 0)
            w = now + 1;
        else if (ready_hit > 1)
            w = std::min(w, channels_[ch].busReadyAt(true));
    } else if (ready_hit + ready_other > 1) {
        // A PRE/ACT leaves every other issuable entry legal.
        w = now + 1;
    }
    return std::max(w, now + 1);
}

bool
MemoryController::scheduleChannel(unsigned ch, Cycles now)
{
    Cycles &wake = channelWake_[ch];
    switch (handleRefresh(ch, now)) {
    case RefreshOutcome::NotDue:
        break;
    case RefreshOutcome::Busy:
        // Refresh head only (running refresh or a PRE-drain wait).
        wake = channelNextEvent(ch, now);
        return false;
    case RefreshOutcome::Progressed:
        wake = now + 1; // the PRE-drain / refresh chain continues
        return true;
    }

    ChannelTiming &timing = channels_[ch];
    RequestQueue &queue = queues_[ch];
    const bool preserve = scheduler_->preservesRowHits();

    // Classify each occupied bank once: every candidate class of a
    // bank shares one legality bound (read hits: CAS + read bus;
    // write hits: CAS + write bus; conflicts: PRE; closed: ACT + rank
    // windows), so a per-entry walk collapses to an O(occupied banks)
    // mask build over the queue's incrementally maintained candidate
    // lists. A conflicting PRE stays masked while its bank's open row
    // has pending hits under a row-hit-preserving policy (otherwise a
    // PRE slips between data bursts and destroys every row chain).
    FastIssueView v;
    v.queue = &queue;
    v.numBanks = cfg_.banksPerChannel;
    v.openRowMask = timing.openRowMask();
    const Cycles rank_ready = timing.rankActivateReadyAt();
    const Cycles bus_ready_rd = timing.busReadyAt(false);
    const Cycles bus_ready_wr = timing.busReadyAt(true);
    unsigned ready_hit = 0;    // issuable row-hit (CAS) entries
    unsigned ready_other = 0;  // issuable PRE/ACT entries
    Cycles future = kNoEvent;  // earliest not-yet-legal entry
    std::uint64_t masked_banks = 0; // banks with a masked conflict PRE
    for (std::uint64_t m = queue.occupiedMask(); m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        const std::uint64_t bit = std::uint64_t{1} << b;
        const Bank &bank = timing.bank(b);
        if (v.openRowMask & bit) {
            const unsigned nrd = queue.hitCountRead(b);
            const unsigned nwr = queue.hitCountWrite(b);
            if (nrd) {
                const Cycles t =
                    std::max(bank.nextAccessAt(), bus_ready_rd);
                if (t <= now) {
                    v.hitReadMask |= bit;
                    ready_hit += nrd;
                } else {
                    future = std::min(future, t);
                }
            }
            if (nwr) {
                const Cycles t =
                    std::max(bank.nextAccessAt(), bus_ready_wr);
                if (t <= now) {
                    v.hitWriteMask |= bit;
                    ready_hit += nwr;
                } else {
                    future = std::min(future, t);
                }
            }
            const unsigned conflicts = queue.bankCount(b) - nrd - nwr;
            if (conflicts) {
                if (preserve && (nrd + nwr)) {
                    masked_banks |= bit;
                } else {
                    const Cycles t = bank.nextPrechargeAt();
                    if (t <= now) {
                        v.preMask |= bit;
                        ready_other += conflicts;
                    } else {
                        future = std::min(future, t);
                    }
                }
            }
        } else {
            const Cycles t =
                std::max(bank.nextActivateAt(), rank_ready);
            if (t <= now) {
                v.actMask |= bit;
                ready_other += queue.bankCount(b);
            } else {
                future = std::min(future, t);
            }
        }
    }

    int slot = -1;
    // Impure policies (SMS/PARBS) mutate state on no-issuable
    // evaluations too (rebatch checks, RNG), so they run on every
    // evaluated cycle, as pick() does under the reference loop.
    if (ready_hit + ready_other || !purePick_) {
        slot = scheduler_->fastPick(v, ch, now);
        PCCS_ASSERT(slot < 0 || v.slotIssuable(slot),
                    "fast pick chose a non-issuable slot %d", slot);
    }
    if (slot < 0) {
        // An issuable entry the policy declined (FCFS's in-order
        // window) forces per-cycle stepping.
        wake = (ready_hit + ready_other)
                   ? now + 1
                   : std::max(std::min(future, nextRefresh_[ch]),
                              now + 1);
        return false;
    }

    const bool row_hit = queue.isHit(slot);
    const Cycles own = issueCommand(ch, slot, row_hit, now, masked_banks);
    wake = issuedWakeBound(ch, row_hit, ready_hit, ready_other, future,
                           own, now);
    return true;
}

Cycles
MemoryController::requestIssueBound(const Request &r, Cycles now) const
{
    const ChannelTiming &timing = channels_[r.loc.channel];
    const Bank &bank = timing.bank(r.loc.bank);
    Cycles t;
    if (bank.openRow() == static_cast<std::int64_t>(r.loc.row)) {
        t = std::max(bank.nextAccessAt(), timing.busReadyAt(r.isWrite));
    } else if (bank.openRow() != Bank::noRow) {
        // A conflicting PRE stays masked while the open row has
        // pending hits; draining them is activity, which recomputes
        // the channel's wake anyway.
        if (scheduler_->preservesRowHits() &&
            queues_[r.loc.channel].hitCount(r.loc.bank) > 0) {
            return kNoEvent;
        }
        t = bank.nextPrechargeAt();
    } else {
        t = std::max(bank.nextActivateAt(),
                     timing.rankActivateReadyAt());
    }
    return std::max(t, now + 1);
}

Cycles
MemoryController::channelNextEvent(unsigned ch, Cycles now) const
{
    const Cycles next = now + 1;

    // A running refresh blocks everything until it completes.
    if (refreshUntil_[ch] > next)
        return refreshUntil_[ch];

    // A due (or about-to-be-due) refresh drains open rows one PRE per
    // cycle; the next step happens when the first open bank's PRE
    // becomes legal.
    if (nextRefresh_[ch] <= next) {
        Cycles pre_at = 0;
        if (firstReadyBank(ch, now, &pre_at) < 0)
            return next; // all banks closed: refresh starts next tick
        return std::max(next, pre_at);
    }

    // Normal scheduling: the earliest cycle any queued request's next
    // command becomes legal, or the refresh deadline, whichever first.
    // These are conservative lower bounds (issuing a command only
    // pushes legality later, and any command issue wakes the core at
    // now + 1 anyway), so no first-legality edge is ever skipped. Per
    // occupied bank each candidate class shares one legality bound, so
    // the min over entries equals the min over (bank, class) pairs.
    const ChannelTiming &timing = channels_[ch];
    const RequestQueue &queue = queues_[ch];
    const bool preserve = scheduler_->preservesRowHits();
    const std::uint64_t open = timing.openRowMask();
    const Cycles rank_ready = timing.rankActivateReadyAt();
    const Cycles bus_ready_rd = timing.busReadyAt(false);
    const Cycles bus_ready_wr = timing.busReadyAt(true);
    Cycles cand = nextRefresh_[ch];
    for (std::uint64_t m = queue.occupiedMask(); m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        const Bank &bank = timing.bank(b);
        if (open & (std::uint64_t{1} << b)) {
            const unsigned nrd = queue.hitCountRead(b);
            const unsigned nwr = queue.hitCountWrite(b);
            if (nrd) {
                cand = std::min(
                    cand, std::max(bank.nextAccessAt(), bus_ready_rd));
            }
            if (nwr) {
                cand = std::min(
                    cand, std::max(bank.nextAccessAt(), bus_ready_wr));
            }
            if (queue.bankCount(b) - nrd - nwr &&
                !(preserve && (nrd + nwr))) {
                cand = std::min(cand, bank.nextPrechargeAt());
            }
        } else {
            cand = std::min(
                cand, std::max(bank.nextActivateAt(), rank_ready));
        }
    }
    return std::max(cand, now + 1);
}

Cycles
MemoryController::nextEventCycle(Cycles now) const
{
    Cycles best = kNoEvent;
    if (!inflight_.empty())
        best = std::max(inflight_.front().completion, now + 1);
    // Scheduler tick events (ATLAS/TCM quantum and shuffle boundaries)
    // mutate scheduler state even on otherwise-idle cycles; their
    // rearm chains must advance exactly as in the reference loop.
    if (schedTickAt_ != kNoEvent)
        best = std::min(best, std::max(schedTickAt_, now + 1));
    for (unsigned ch = 0; ch < cfg_.channels; ++ch) {
        // Empty channels are lazy, exactly like the reference loop:
        // scheduleChannel (and with it refresh progress) only runs for
        // channels with queued requests.
        if (queues_[ch].empty())
            continue;
        if (channelWake_[ch] > now)
            best = std::min(best, channelWake_[ch]);
        else
            best = std::min(best, channelNextEvent(ch, now));
    }
    return best;
}

void
ControllerStats::print(std::ostream &os, const std::string &prefix) const
{
    auto stat = [&](const char *name, double value, const char *desc) {
        os << prefix << "." << name << " " << value << " # " << desc
           << "\n";
    };
    stat("reads", static_cast<double>(reads), "read CAS commands");
    stat("writes", static_cast<double>(writes), "write CAS commands");
    stat("rowHits", static_cast<double>(rowHits),
         "CAS served from an open row");
    stat("rowMisses", static_cast<double>(rowMisses),
         "CAS that required an ACT");
    stat("rowBufferHitRate", rowBufferHitRate(),
         "row-buffer hit rate [0,1]");
    stat("refreshes", static_cast<double>(refreshes),
         "all-bank refresh operations");
    stat("bytesTransferred", static_cast<double>(bytesTransferred),
         "total data moved, bytes");
    stat("completed", static_cast<double>(completed),
         "completed requests");
    stat("avgLatency", averageLatency(),
         "mean request latency, cycles");
}

std::size_t
MemoryController::pendingRequests() const
{
    std::size_t n = inflight_.size();
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

double
MemoryController::effectiveBandwidthFraction(Cycles cycles) const
{
    if (cycles == 0)
        return 0.0;
    const double peak_bytes =
        static_cast<double>(cycles) * cfg_.channels *
        cfg_.bytesPerCyclePerChannel();
    return static_cast<double>(stats_.bytesTransferred) / peak_bytes;
}

} // namespace pccs::dram
