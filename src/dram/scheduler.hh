/**
 * @file
 * Memory-controller scheduling policy interface and registry.
 *
 * The controller presents the scheduler with a bank-granular view of
 * the per-channel request queue each time a command slot is free; the
 * scheduler returns the queue slot of the request to advance
 * (fastPick()). Each policy also keeps pick(), the same decision over
 * a materialized entry list: its executable specification, which only
 * the test oracle (tests/oracle/) and the scheduler unit tests call.
 * The concrete policies register
 * themselves with a name-keyed registry (PolicyInfo): the five the
 * paper evaluates in Section 2.3 (Table 2) — FCFS, FR-FCFS, ATLAS,
 * TCM, SMS — plus the extension policies BLISS, PARBS, and MEDUSA.
 *
 * Adding a policy is a one-file affair: implement Scheduler in a new
 * sched_<name>.cc, describe it with a PolicyInfo, and register it (for
 * archive-linked builtins, through a register hook listed in
 * scheduler.cc's builtin table; external code can call
 * registerSchedulerPolicy() directly at any time before the first
 * lookup). Every consumer — systems, calibration, benches, the CLI,
 * the equivalence tests — enumerates schedulerNames() instead of a
 * hard-coded list, so the new policy flows through all of them.
 */

#ifndef PCCS_DRAM_SCHEDULER_HH
#define PCCS_DRAM_SCHEDULER_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dram/request.hh"
#include "dram/request_queue.hh"

namespace pccs::dram {

/** Sentinel "no pending event" cycle for the event-driven core. */
inline constexpr Cycles kNoEvent = ~Cycles{0};

/** One schedulable request as pick() sees it. */
struct QueueEntryView
{
    const Request *req = nullptr;
    /** True if the next command this request needs can issue now. */
    bool issuable = false;
    /** True if the request's row is currently open in its bank. */
    bool rowHit = false;
};

/**
 * What fastPick() sees instead of pick()'s materialized
 * QueueEntryView span: per-bank legality bitmasks over the queue's
 * incrementally maintained candidate lists. The controller classifies
 * each occupied bank once (all of a bank's read hits share one
 * CAS-legality bound, all write hits another, all conflict PREs a
 * third, all closed-bank ACTs a fourth), so a policy's fastPick()
 * works on whole banks via countr_zero loops instead of walking
 * entries.
 *
 * Mask semantics at the evaluation cycle `now`:
 *  - hitReadMask / hitWriteMask: banks whose pending read / write
 *    open-row hits can issue their CAS now;
 *  - preMask: banks whose (unmasked) row-conflict PRE is legal now —
 *    for row-hit-preserving policies a bank with pending hits never
 *    appears here, so per bank the hit and non-hit candidate classes
 *    are mutually exclusive;
 *  - actMask: closed banks whose ACT is legal now (rank windows
 *    included).
 */
struct FastIssueView
{
    const RequestQueue *queue = nullptr;
    unsigned numBanks = 0;
    std::uint64_t openRowMask = 0;
    std::uint64_t hitReadMask = 0;
    std::uint64_t hitWriteMask = 0;
    std::uint64_t preMask = 0;
    std::uint64_t actMask = 0;

    /** Banks with an issuable CAS / an issuable PRE-or-ACT. */
    std::uint64_t hitBanks() const { return hitReadMask | hitWriteMask; }
    std::uint64_t otherBanks() const { return preMask | actMask; }

    /**
     * Oldest issuable open-row hit of bank `b` (min arrival serial of
     * the issuable read/write hit-list heads), or -1.
     */
    int oldestHitSlot(unsigned b) const
    {
        const std::uint64_t bit = std::uint64_t{1} << b;
        const int rd = (hitReadMask & bit) ? queue->hitHeadRead(b) : -1;
        const int wr = (hitWriteMask & bit) ? queue->hitHeadWrite(b) : -1;
        if (rd < 0)
            return wr;
        if (wr < 0)
            return rd;
        return queue->serial(rd) < queue->serial(wr) ? rd : wr;
    }

    /**
     * Oldest non-hit candidate of bank `b` — valid for banks in
     * otherBanks() under a row-hit-preserving policy (such a bank has
     * no pending hits, so its FIFO head *is* the oldest PRE/ACT
     * candidate).
     */
    int oldestOtherSlot(unsigned b) const { return queue->bankHead(b); }

    /** Exact per-slot issuability (slot must be queued). */
    bool slotIssuable(int s) const
    {
        const std::uint64_t bit = std::uint64_t{1} << queue->bank(s);
        if (queue->isHit(s))
            return (queue->isWrite(s) ? hitWriteMask : hitReadMask) &
                   bit;
        if (openRowMask & bit)
            return (preMask & bit) != 0;
        return (actMask & bit) != 0;
    }

    /**
     * Source-tier algebra (rank-based policies). Valid only under a
     * row-hit-preserving policy: preservation makes a bank's hit and
     * non-hit candidate classes mutually exclusive, so a bank in
     * preMask/actMask has *only* issuable non-hit entries and the
     * per-source masks intersect cleanly with the legality masks.
     */

    /** Banks where source `src` has an issuable open-row hit. */
    std::uint64_t sourceIssuableHitBanks(unsigned src) const
    {
        return (queue->sourceHitReadMask(src) & hitReadMask) |
               (queue->sourceHitWriteMask(src) & hitWriteMask);
    }

    /** Banks where source `src` has an issuable PRE/ACT candidate. */
    std::uint64_t sourceIssuableOtherBanks(unsigned src) const
    {
        return queue->sourceOccupiedMask(src) & (preMask | actMask);
    }

    /** True when source `src` has any issuable entry. */
    bool sourceHasIssuable(unsigned src) const
    {
        return (sourceIssuableHitBanks(src) |
                sourceIssuableOtherBanks(src)) != 0;
    }

    /** Sources with at least one issuable entry, one bit per source. */
    std::uint64_t issuableSourceMask() const
    {
        std::uint64_t out = 0;
        for (std::uint64_t m = queue->activeSourceMask(); m;
             m &= m - 1) {
            const unsigned src =
                static_cast<unsigned>(std::countr_zero(m));
            if (sourceHasIssuable(src))
                out |= std::uint64_t{1} << src;
        }
        return out;
    }

    /**
     * Oldest issuable open-row hit of source `src` (a walk of its
     * arrival FIFO, guarded by the mask check), or -1.
     */
    int oldestIssuableHitOfSource(unsigned src) const
    {
        if (!sourceIssuableHitBanks(src))
            return -1;
        for (int s = queue->sourceHead(src); s >= 0;
             s = queue->sourceNext(s)) {
            if (queue->isHit(s) && slotIssuable(s))
                return s;
        }
        return -1;
    }

    /** Oldest issuable entry (hit or not) of source `src`, or -1. */
    int oldestIssuableOfSource(unsigned src) const
    {
        if (!(sourceIssuableHitBanks(src) |
              sourceIssuableOtherBanks(src)))
            return -1;
        for (int s = queue->sourceHead(src); s >= 0;
             s = queue->sourceNext(s)) {
            if (slotIssuable(s))
                return s;
        }
        return -1;
    }
};

/**
 * Oldest issuable row hit, falling back to the oldest issuable
 * non-hit, over the banks selected by `filter` — the FR-FCFS decision
 * (row hit first, then age; age == min arrival serial, which matches
 * the materialized comparators' arrival-then-walk-order tie-break),
 * shared by the policies' fastPick() tiers.
 * @return the chosen slot, or -1 when no filtered bank has a candidate.
 */
inline int
fastPickOldestHitElseOldest(const FastIssueView &v,
                            std::uint64_t filter = ~std::uint64_t{0})
{
    int best = -1;
    std::uint64_t best_serial = 0;
    for (std::uint64_t m = v.hitBanks() & filter; m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestHitSlot(b);
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    if (best >= 0)
        return best;
    for (std::uint64_t m = v.otherBanks() & filter; m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestOtherSlot(b);
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    return best;
}

/**
 * The same oldest-hit-else-oldest decision restricted to a *source*
 * tier: the oldest issuable hit of any source in `sources`, else the
 * oldest issuable entry of any of them. This is the inner step of
 * every rank-ordered policy (ATLAS rank tier, TCM cluster tier, BLISS
 * blacklist tier, PARBS within-batch rank) once the tier's member set
 * is known. Callers whose tier covers every issuable source should
 * take fastPickOldestHitElseOldest() instead — the bank-level walk
 * touches O(occupied banks) list heads, no per-source FIFOs.
 * Requires a row-hit-preserving policy (see the source-tier algebra
 * note on FastIssueView).
 * @return the chosen slot, or -1 when no tier source has a candidate.
 */
inline int
fastPickOldestHitElseOldestOfSources(const FastIssueView &v,
                                     std::uint64_t sources)
{
    int best = -1;
    std::uint64_t best_serial = 0;
    for (std::uint64_t m = sources; m; m &= m - 1) {
        const unsigned src =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestIssuableHitOfSource(src);
        if (s < 0)
            continue;
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    if (best >= 0)
        return best;
    for (std::uint64_t m = sources; m; m &= m - 1) {
        const unsigned src =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestIssuableOfSource(src);
        if (s < 0)
            continue;
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    return best;
}

/**
 * Oldest issuable entry regardless of hit status — SMS's
 * work-conserving fallback when the in-flight batch owner cannot
 * issue. Per issuable bank the oldest candidate is a list head (hit
 * heads for CAS banks, the FIFO head for PRE/ACT banks under a
 * preserving policy), so the global minimum is a min over heads.
 * @return the chosen slot, or -1 when nothing is issuable.
 */
inline int
fastPickOldestIssuable(const FastIssueView &v)
{
    int best = -1;
    std::uint64_t best_serial = 0;
    for (std::uint64_t m = v.hitBanks(); m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestHitSlot(b);
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    for (std::uint64_t m = v.otherBanks(); m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestOtherSlot(b);
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    return best;
}

/**
 * Abstract scheduling policy.
 *
 * One scheduler instance serves all channels; policy state that is
 * logically per-source (attained service, clusters, batches,
 * blacklists) is global, which mirrors how ATLAS coordinates across
 * memory controllers.
 */
class Scheduler
{
  public:
    virtual ~Scheduler() = default;

    /** @return the policy's display name. */
    virtual const char *name() const = 0;

    /**
     * Locality-aware policies keep a bank's row open while requests to
     * it are pending (the controller then refuses conflicting PREs).
     * FCFS is defined by *not* doing this: it schedules chronologically
     * with no locality awareness, which is what collapses its
     * row-buffer hit rate (Table 3).
     */
    virtual bool preservesRowHits() const { return true; }

    /**
     * Time-triggered policy state: quantum updates (ATLAS/TCM),
     * shuffles, or blacklist clears (BLISS). The test oracle calls it
     * before any pick on every cycle; tick() must be a no-op before
     * nextTickEvent(). The production controller skips cycles
     * wholesale and calls tick() only once `now` reaches
     * nextTickEvent(), which it caches: a policy may move that
     * deadline only inside tick().
     */
    virtual void tick(Cycles now) { (void)now; }

    /**
     * Earliest future cycle at which tick() stops being a no-op
     * (quantum boundary, shuffle deadline, blacklist clear, ...), or
     * kNoEvent when tick() never does anything. The event-driven core
     * includes this in its next-event computation so tick() fires on
     * exactly the same cycles as under the per-cycle reference loop.
     */
    virtual Cycles nextTickEvent() const { return kNoEvent; }

    /** Notify that a request entered the request buffer. */
    virtual void onEnqueue(const Request &req) { (void)req; }

    /**
     * Notify that a request's CAS issued (it leaves the queue) and its
     * source received `bytes` of service at cycle `now`.
     */
    virtual void onService(const Request &req, Cycles now, unsigned bytes)
    {
        (void)req; (void)now; (void)bytes;
    }

    /**
     * True when pick() (and so fastPick()) is a pure function of its
     * arguments and the scheduler's state: no internal mutation, no
     * RNG consumption. The controller then skips evaluations on
     * *every* cycle it can prove unproductive — including the cycle
     * right after a command issue or an enqueue — and wakes a channel
     * only at its next command-legality bound. SMS and PARBS return
     * false: they rebatch (mutating state, and for SMS drawing RNG)
     * on exactly those post-change cycles, so they must be evaluated.
     */
    virtual bool pickIsPure() const { return true; }

    /**
     * Choose the next request to advance on a channel: the policy's
     * executable specification, over a materialized entry list.
     *
     * The test oracle's per-cycle reference loop calls pick() on every
     * cycle a channel has queued requests; the controller calls
     * fastPick() only (a) on the cycle after any command issue,
     * completion, or enqueue (pickIsPure() policies: only when that
     * cycle is also a legality edge), and (b) on the first cycle any
     * entry's next command becomes timing-legal. A policy is
     * compatible iff every pick() call on a skipped cycle — queue
     * contents unchanged and no entry issuable — would have been a
     * pure no-op (returns -1, no state or RNG consumption). All
     * registered policies satisfy this; the per-policy audits live at
     * the top of each sched_*.cc.
     *
     * @param channel index of the channel being scheduled
     * @param entries snapshot of the channel's queued requests
     * @param now current cycle
     * @return index of the chosen entry, or -1 to idle. The returned
     *         entry must have issuable == true.
     */
    virtual int pick(unsigned channel,
                     std::span<const QueueEntryView> entries,
                     Cycles now) = 0;

    /**
     * The production decision: a branch-light pick over the
     * bank-granular FastIssueView (plus the per-source rank-tier
     * masks). Must return exactly the slot pick() would choose over
     * the materialized entries (the differential tests against the
     * oracle enforce this per policy), or -1 to idle. Called when at
     * least one candidate is issuable — and, for pickIsPure() == false
     * policies, on every evaluated cycle even with nothing issuable,
     * mirroring pick()'s call schedule; such a policy must perform the
     * same state mutations and RNG draws pick() would.
     *
     * @return a queue slot index (not an entry index), or -1.
     */
    virtual int fastPick(const FastIssueView &view, unsigned channel,
                         Cycles now) = 0;

    /** Maximum number of sources a policy tracks. */
    static constexpr unsigned maxSources = kMaxQueueSources;
};

/** Tunable knobs of the fairness-aware policies. */
struct SchedulerParams
{
    /** ATLAS/TCM ranking quantum in cycles. */
    Cycles quantum = 50000;
    /** ATLAS starvation threshold: waiting longer forces priority. */
    Cycles starvationThreshold = 20000;
    /** ATLAS exponential-smoothing weight for attained service. */
    double atlasAlpha = 0.875;
    /** TCM: fraction of total bandwidth granted to the latency cluster. */
    double tcmClusterFraction = 0.15;
    /** TCM: shuffle interval for the bandwidth cluster ranking. */
    Cycles tcmShuffleInterval = 5000;
    /** SMS: maximum requests per formed batch. */
    unsigned smsBatchCap = 16;
    /** SMS: probability of shortest-job-first batch selection. */
    double smsShortestFirstProb = 0.9;
    /** BLISS: consecutive-service streak that blacklists a source. */
    unsigned blissBlacklistThreshold = 4;
    /** BLISS: blacklist clearing interval in cycles. */
    Cycles blissClearInterval = 10000;
    /** PARBS: per-source marking cap when a batch forms. */
    unsigned parbsBatchCap = 5;
    /** MEDUSA: bitmask of reserved (round-robin) banks per channel. */
    std::uint32_t medusaReservedBankMask = 0xF;
    /** Seed for any stochastic choices (SMS). */
    std::uint64_t seed = 0xC0FFEEull;
};

/**
 * Descriptor of one registered scheduling policy.
 *
 * The capability flags mirror the corresponding Scheduler virtuals so
 * tooling (`pccs policies`, CI matrices) can inspect a policy without
 * instantiating it; the registry self-check in tests asserts that the
 * descriptor and a fresh instance agree.
 */
struct PolicyInfo
{
    /** Canonical display name ("FR-FCFS"). */
    std::string name;
    /**
     * Accepted lowercase aliases ("frfcfs"). The canonical name is
     * always accepted case-insensitively as well.
     */
    std::vector<std::string> aliases;
    /** Factory over the shared parameter block. */
    std::function<std::unique_ptr<Scheduler>(const SchedulerParams &)>
        factory;
    /** Scheduler::pickIsPure() of instances of this policy. */
    bool pickIsPure = true;
    /** Scheduler::preservesRowHits() of instances of this policy. */
    bool preservesRowHits = true;
    /** True when nextTickEvent() is ever != kNoEvent (ATLAS/TCM/BLISS). */
    bool needsTickEvents = false;
};

/**
 * Register a policy. Registration order defines enumeration order;
 * re-registering an already-known canonical name (case-insensitively)
 * is a fatal user error. Builtin policies are installed first, in
 * Table-2 order followed by the extension policies, no matter how
 * early this is called — external policies always enumerate after
 * them.
 */
void registerSchedulerPolicy(PolicyInfo info);

/** All registered policies, in registration order. */
const std::vector<PolicyInfo> &schedulerPolicies();

/** Canonical names of all registered policies, in order. */
std::vector<std::string> schedulerNames();

/**
 * Look up a policy by canonical name or alias (case-insensitive).
 * @return nullptr when the name is unknown.
 */
const PolicyInfo *findSchedulerPolicy(std::string_view name);

/**
 * Look up a policy by name; unknown names are a fatal user error
 * whose message enumerates the valid policy names.
 */
const PolicyInfo &schedulerFromName(std::string_view name);

/** Comma-separated canonical policy names (for error messages). */
std::string schedulerNameList();

/** Create a scheduler by policy name (fatal on unknown names). */
std::unique_ptr<Scheduler> makeScheduler(std::string_view name,
                                         const SchedulerParams &params = {});

} // namespace pccs::dram

#endif // PCCS_DRAM_SCHEDULER_HH
