#include "sched_fcfs.hh"

#include <array>
#include <utility>

// Event-driven audit (FCFS and FR-FCFS): pick() is a pure function of
// the entries and their issuable flags — no mutable state, no RNG, no
// use of `now` — and tick() is the default no-op, so skipping pick()
// calls on cycles where no entry is issuable cannot change any future
// decision. FCFS's issue window can return -1 while *younger* entries
// are issuable. That decline depends only on the queue and the
// issuable set, so it repeats on every cycle until an entry's next
// command turns legal, refresh comes due, or a request arrives; the
// controller sleeps until the first of those (the newcomer's own
// legality tightens the wake) instead of stepping cycle by cycle.
//
// Fast-pick audit: FCFS's window holds the `window` smallest-arrival
// entries with earlier queue positions winning arrival ties — since
// the queue walk is id order and arrival is non-decreasing in id,
// that is exactly the first `window` slots of the arrival list, and
// the winner is the first issuable among them. FR-FCFS's comparator
// (row hit first, then arrival with first-in-walk-order tie-break) is
// precisely the shared oldest-hit-else-oldest helper over the bank
// masks (min arrival serial == min id == first in walk order).
namespace pccs::dram {

int
FcfsScheduler::pick(unsigned channel, std::span<const QueueEntryView> entries,
                    Cycles now)
{
    (void)channel;
    (void)now;
    // Chronological service with no locality awareness: only the few
    // oldest requests are eligible (an in-order front end with a
    // small issue window), and row hits are never preferred over
    // older misses. Both properties are what destroy FCFS's
    // row-buffer hit rate and effective bandwidth under co-location
    // (Table 3).
    std::array<int, window> oldest;
    oldest.fill(-1);
    auto arrival = [&](int idx) { return entries[idx].req->arrival; };
    for (std::size_t i = 0; i < entries.size(); ++i) {
        int cand = static_cast<int>(i);
        for (int &slot : oldest) {
            if (slot < 0) {
                slot = cand;
                break;
            }
            if (arrival(cand) < arrival(slot))
                std::swap(slot, cand);
        }
    }
    int best = -1;
    for (int idx : oldest) {
        if (idx < 0)
            continue;
        if (entries[idx].issuable &&
            (best < 0 || arrival(idx) < arrival(best))) {
            best = idx;
        }
    }
    return best;
}

int
FcfsScheduler::fastPick(const FastIssueView &view, unsigned channel,
                        Cycles now)
{
    (void)channel;
    (void)now;
    // The first issuable slot among the `window` oldest (the arrival
    // list is walked in id order == age order).
    int n = 0;
    for (int s = view.queue->head(); s >= 0 && n < window;
         s = view.queue->next(s), ++n) {
        if (view.slotIssuable(s))
            return s;
    }
    return -1;
}

int
FrFcfsScheduler::pick(unsigned channel,
                      std::span<const QueueEntryView> entries, Cycles now)
{
    (void)channel;
    (void)now;
    int best = -1;
    bool best_hit = false;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const auto &e = entries[i];
        if (!e.issuable)
            continue;
        const bool better =
            best < 0 ||
            (e.rowHit && !best_hit) ||
            (e.rowHit == best_hit &&
             e.req->arrival < entries[best].req->arrival);
        if (better) {
            best = static_cast<int>(i);
            best_hit = e.rowHit;
        }
    }
    return best;
}

int
FrFcfsScheduler::fastPick(const FastIssueView &view, unsigned channel,
                          Cycles now)
{
    (void)channel;
    (void)now;
    return fastPickOldestHitElseOldest(view);
}

void
registerFcfsPolicies()
{
    registerSchedulerPolicy({
        .name = "FCFS",
        .aliases = {},
        .factory =
            [](const SchedulerParams &) {
                return std::make_unique<FcfsScheduler>();
            },
        .pickIsPure = true,
        .preservesRowHits = false,
        .needsTickEvents = false,
    });
    registerSchedulerPolicy({
        .name = "FR-FCFS",
        .aliases = {"frfcfs"},
        .factory =
            [](const SchedulerParams &) {
                return std::make_unique<FrFcfsScheduler>();
            },
        .pickIsPure = true,
        .preservesRowHits = true,
        .needsTickEvents = false,
    });
}

} // namespace pccs::dram
