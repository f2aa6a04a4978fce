#include "sched_parbs.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

// Event-driven audit: PARBS's pick() mutates state (batch formation),
// so like SMS it reports pickIsPure() == false. A new batch forms —
// the only mutation inside pick() — exactly when no marked request
// remains on the channel, which is decisionPending(). Only a CAS can
// bring that about (onService() unmarks; enqueues arrive unmarked and
// leave the marked set alone), so the controller asks after every
// command and evaluates the next cycle while a decision is pending —
// the cycle the reference loop would form the batch on. Between
// batch boundaries pick() reads state without touching it, never
// declines an issuable entry (the ladder ends in FR-FCFS), and uses
// no RNG, so every skipped cycle is a pure no-op. Hence batch
// boundaries and rankings are cycle-for-cycle identical across the
// two cores.
//
// Fast-pick audit: marked requests leave the queue only through the
// CAS that services them, so "any marked visible" is markedTotal > 0
// and both paths re-form on identical cycles. A source's marked
// requests are the prefix of its arrival FIFO below its id bound
// (see sched_parbs.hh), so the marked tier reduces to: among the
// sources with outstanding marked requests, the minimum-rank one
// whose bounded prefix holds an issuable entry (ranks are a
// permutation, so that source is unique; within it the comparator is
// row hit then age, i.e. the first issuable hit else the first
// issuable slot of the prefix walk). When no marked entry is
// issuable, every issuable entry is unmarked and the ladder
// degenerates to FR-FCFS — the shared bank-level helper. fastPick()
// performs the same formation mutation pick() would, on the same
// decisionPending() test.
namespace pccs::dram {

ParbsScheduler::ParbsScheduler(const SchedulerParams &params)
    : params_(params)
{
}

ParbsScheduler::ChannelState &
ParbsScheduler::channelState(unsigned channel)
{
    if (channel >= channels_.size())
        channels_.resize(channel + 1);
    return channels_[channel];
}

void
ParbsScheduler::onService(const Request &req, Cycles now, unsigned bytes)
{
    (void)now;
    (void)bytes;
    ChannelState &st = channelState(req.loc.channel);
    // Every queued id below the bound is marked (later arrivals have
    // larger ids), so the bound test alone decides membership.
    if (req.id < st.markedBelow[req.source]) {
        if (--st.markedLeft[req.source] == 0)
            st.markedSources &= ~(std::uint64_t{1} << req.source);
        --st.markedTotal;
    }
}

void
ParbsScheduler::finishBatch(ChannelState &st,
                            const std::array<unsigned, maxSources> &take,
                            const std::array<Cycles, maxSources> &oldest)
{
    st.markedLeft = take;
    st.markedSources = 0;
    st.markedTotal = 0;
    for (unsigned s = 0; s < maxSources; ++s) {
        if (take[s]) {
            st.markedSources |= std::uint64_t{1} << s;
            st.markedTotal += take[s];
        }
    }

    std::array<unsigned, maxSources> order;
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](unsigned a, unsigned b) {
                  // Sources outside the batch sort last; among
                  // batch members, fewest marked requests first
                  // (shortest job), ties by older work then id.
                  const bool a_in = take[a] > 0;
                  const bool b_in = take[b] > 0;
                  if (a_in != b_in)
                      return a_in;
                  if (take[a] != take[b])
                      return take[a] < take[b];
                  if (a_in && oldest[a] != oldest[b])
                      return oldest[a] < oldest[b];
                  return a < b;
              });
    for (unsigned r = 0; r < maxSources; ++r)
        st.rank[order[r]] = r;
}

int
ParbsScheduler::pick(unsigned channel,
                     std::span<const QueueEntryView> entries, Cycles now)
{
    (void)now;
    ChannelState &st = channelState(channel);

    if (st.markedTotal == 0 && !entries.empty()) {
        // Batch formation: mark up to parbsBatchCap of each source's
        // oldest requests, then rank the sources shortest-job first so
        // light sources finish their batch quickly while each source's
        // marked requests stay under one consistent ranking (the
        // "parallelism-aware" part — its bank-level parallel accesses
        // are not interleaved apart by rank churn). The entry span is
        // walked in arrival order, so per source the first take seen
        // are its oldest and the bound after the last marked one
        // covers exactly them.
        std::array<unsigned, maxSources> take{};
        std::array<Cycles, maxSources> oldest{};
        st.markedBelow.fill(0);
        for (const auto &e : entries) {
            PCCS_ASSERT(e.req->source < maxSources,
                        "source id %u out of range", e.req->source);
            const unsigned s = e.req->source;
            if (take[s] == 0)
                oldest[s] = e.req->arrival;
            if (take[s] < params_.parbsBatchCap) {
                ++take[s];
                st.markedBelow[s] = e.req->id + 1;
            }
        }
        finishBatch(st, take, oldest);
    }

    auto marked = [&](const Request &r) -> bool {
        return r.id < st.markedBelow[r.source];
    };
    auto better = [&](const QueueEntryView &a,
                      const QueueEntryView &b) -> bool {
        const bool a_marked = marked(*a.req);
        const bool b_marked = marked(*b.req);
        if (a_marked != b_marked)
            return a_marked;
        if (a_marked) {
            const unsigned ra = st.rank[a.req->source];
            const unsigned rb = st.rank[b.req->source];
            if (ra != rb)
                return ra < rb;
        }
        if (a.rowHit != b.rowHit)
            return a.rowHit;
        return a.req->arrival < b.req->arrival;
    };

    int best = -1;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        if (!entries[i].issuable)
            continue;
        if (best < 0 || better(entries[i], entries[best]))
            best = static_cast<int>(i);
    }
    return best;
}

int
ParbsScheduler::fastPick(const FastIssueView &view, unsigned channel,
                         Cycles now)
{
    (void)now;
    ChannelState &st = channelState(channel);
    const RequestQueue &q = *view.queue;

    if (decisionPending(channel, q)) {
        // The FIFO form of the formation walk above: a source's
        // oldest take requests are the front of its arrival FIFO.
        std::array<unsigned, maxSources> take{};
        std::array<Cycles, maxSources> oldest{};
        st.markedBelow.fill(0);
        for (std::uint64_t m = q.activeSourceMask(); m; m &= m - 1) {
            const unsigned src =
                static_cast<unsigned>(std::countr_zero(m));
            int s = q.sourceHead(src);
            oldest[src] = q.slot(s).arrival;
            unsigned n = 0;
            std::uint64_t bound = 0;
            for (; s >= 0 && n < params_.parbsBatchCap;
                 s = q.sourceNext(s)) {
                ++n;
                bound = q.serial(s) + 1;
            }
            take[src] = n;
            st.markedBelow[src] = bound;
        }
        finishBatch(st, take, oldest);
    }

    // Marked tier: the minimum-rank source with an issuable marked
    // entry; within it, the oldest issuable hit of the marked prefix,
    // else its oldest issuable entry (the prefix walk is arrival
    // order, so first found == oldest).
    int best = -1;
    unsigned best_rank = ~0u;
    for (std::uint64_t m = st.markedSources; m; m &= m - 1) {
        const unsigned src =
            static_cast<unsigned>(std::countr_zero(m));
        if (st.rank[src] >= best_rank)
            continue;
        const std::uint64_t bound = st.markedBelow[src];
        int first = -1;
        int first_hit = -1;
        for (int s = q.sourceHead(src);
             s >= 0 && q.serial(s) < bound; s = q.sourceNext(s)) {
            if (!view.slotIssuable(s))
                continue;
            if (first < 0)
                first = s;
            if (q.isHit(s)) {
                first_hit = s;
                break;
            }
        }
        const int cand = first_hit >= 0 ? first_hit : first;
        if (cand >= 0) {
            best = cand;
            best_rank = st.rank[src];
        }
    }
    if (best >= 0)
        return best;

    // No marked entry is issuable: every issuable entry is unmarked
    // and the ladder below the marked tier is plain FR-FCFS.
    return fastPickOldestHitElseOldest(view);
}

void
registerParbsPolicy()
{
    registerSchedulerPolicy({
        .name = "PARBS",
        .aliases = {"par-bs"},
        .factory =
            [](const SchedulerParams &p) {
                return std::make_unique<ParbsScheduler>(p);
            },
        .pickIsPure = false,
        .preservesRowHits = true,
        .needsTickEvents = false,
    });
}

} // namespace pccs::dram
