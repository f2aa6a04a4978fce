/**
 * @file
 * The DRAM memory controller: per-channel request queues, bank state
 * machines, command issue (ACT/PRE/CAS) under DDR timing constraints,
 * and a pluggable scheduling policy.
 */

#ifndef PCCS_DRAM_CONTROLLER_HH
#define PCCS_DRAM_CONTROLLER_HH

#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "dram/address_map.hh"
#include "dram/bank.hh"
#include "dram/config.hh"
#include "dram/port.hh"
#include "dram/request.hh"
#include "dram/request_queue.hh"
#include "dram/scheduler.hh"

namespace pccs::dram {

/**
 * The per-cycle reference simulator of the equivalence tests
 * (tests/oracle/dram_oracle.hh): it drives a controller's state through
 * the policies' materialized pick() instead of tick()'s fast path.
 */
class DramOracle;

/** Aggregate controller statistics (reset-able between windows). */
struct ControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** CAS commands served from an already-open row. */
    std::uint64_t rowHits = 0;
    /** CAS commands that required an ACT (and possibly a PRE) first. */
    std::uint64_t rowMisses = 0;
    /** Total data moved, bytes. */
    std::uint64_t bytesTransferred = 0;
    /** Sum over completed requests of (completion - arrival), cycles. */
    std::uint64_t totalLatency = 0;
    /** All-bank refresh operations performed. */
    std::uint64_t refreshes = 0;
    /** Completed requests, total and per source. */
    std::uint64_t completed = 0;
    std::array<std::uint64_t, Scheduler::maxSources> bytesPerSource{};
    std::array<std::uint64_t, Scheduler::maxSources> completedPerSource{};

    /** @return row-buffer hit rate in [0, 1]. */
    double rowBufferHitRate() const
    {
        const std::uint64_t total = rowHits + rowMisses;
        return total ? static_cast<double>(rowHits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** @return average request latency in cycles. */
    double averageLatency() const
    {
        return completed ? static_cast<double>(totalLatency) /
                               static_cast<double>(completed)
                         : 0.0;
    }

    /**
     * Dump the statistics in gem5's stat-file style: one
     * `name value # description` line per statistic.
     */
    void print(std::ostream &os, const std::string &prefix = "mc") const;
};

/**
 * A multi-channel DRAM memory controller.
 *
 * Usage: enqueue() line-sized requests; call tick() once per bus cycle;
 * completed requests are reported through the completion callback.
 */
class MemoryController : public MemoryPort
{
  public:
    using CompletionCallback = std::function<void(const Request &)>;

    MemoryController(const DramConfig &cfg,
                     std::unique_ptr<Scheduler> scheduler);

    /** @return true if channel owning `addr` has queue space. */
    bool canAccept(Addr addr) const;

    /** @return true when channel `ch`'s request queue is full. */
    bool channelFull(unsigned ch) const { return queues_[ch].full(); }

    /**
     * Enqueue a request. A refused enqueue changes no state at all, so
     * a caller may skip retrying until the channel dequeues.
     * @return false when the target channel's queue is full (the caller
     *         must retry later; this is the request-buffer backpressure)
     */
    bool enqueue(unsigned source, Addr addr, bool is_write,
                 Cycles now) override;

    unsigned lineBytes() const override { return cfg_.lineBytes; }
    double cycleSeconds() const override
    {
        return cfg_.timing.cycleSeconds();
    }
    Addr addressSpan() const override
    {
        return mapper_.addressSpan();
    }

    /**
     * Advance the controller by one bus cycle.
     * @return true when the cycle was "active": a completion drained,
     *         a command (ACT/PRE/CAS) issued, or refresh made progress.
     *         A false return guarantees this cycle changed no
     *         controller, bank, or scheduler state, which is what lets
     *         the event-driven core skip ahead (see nextEventCycle()).
     */
    bool tick(Cycles now);

    /**
     * Earliest cycle >= now + 1 at which tick() could do anything,
     * assuming no new requests arrive in between: the next inflight
     * completion, the next scheduler tick event, and per channel with
     * queued requests the next refresh deadline / refresh unblock /
     * bank, bus, or rank timing expiry. Conservative: waking earlier
     * than necessary is a no-op tick; the returned cycle is never
     * *later* than the first active cycle. kNoEvent when the
     * controller is fully idle.
     */
    Cycles nextEventCycle(Cycles now) const;

    /** @return number of requests in queues plus in flight. */
    std::size_t pendingRequests() const;

    /** @return a copy of one channel's queued requests (debug/tests). */
    std::vector<Request> queueSnapshot(unsigned channel) const
    {
        const RequestQueue &q = queues_[channel];
        return {q.begin(), q.end()};
    }

    /**
     * Banks of `channel` whose open row has queued requests, as a
     * bitmask (incrementally maintained by the queue's per-bank hit
     * lists; debug/tests).
     */
    std::uint32_t pendingRowHitMask(unsigned channel) const
    {
        return static_cast<std::uint32_t>(queues_[channel].hitMask());
    }

    /** Install the completion callback (may be empty). */
    void setCompletionCallback(CompletionCallback cb)
    {
        onComplete_ = std::move(cb);
    }

    const ControllerStats &stats() const { return stats_; }
    void resetStats() { stats_ = ControllerStats{}; }

    const DramConfig &config() const { return cfg_; }
    const AddressMapper &mapper() const { return mapper_; }
    Scheduler &scheduler() { return *scheduler_; }

    /**
     * Effective bandwidth over an interval: bytes transferred during
     * `cycles` bus cycles as a fraction of theoretical peak, in [0, 1].
     */
    double effectiveBandwidthFraction(Cycles cycles) const;

  private:
    friend class DramOracle;

    /**
     * Issued CASes awaiting their data burst, oldest first: a growable
     * ring. Every CAS completes exactly tCL + tBURST after it issues,
     * so issue order is completion order and no heap is needed.
     */
    class CompletionFifo
    {
      public:
        bool empty() const { return size_ == 0; }
        std::size_t size() const { return size_; }
        const Request &front() const { return buf_[head_]; }
        const Request &back() const
        {
            return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
        }
        void pop()
        {
            head_ = (head_ + 1) & (buf_.size() - 1);
            --size_;
        }
        void push(const Request &req);

      private:
        /** Power-of-two capacity (or empty before the first push). */
        std::vector<Request> buf_;
        std::size_t head_ = 0;
        std::size_t size_ = 0;
    };

    enum class RefreshOutcome
    {
        NotDue,     ///< no refresh work; normal scheduling proceeds
        Busy,       ///< channel consumed by refresh, nothing changed
        Progressed, ///< channel consumed and a PRE/refresh was issued
    };

    /**
     * Evaluate channel `ch`: refresh progress, else one scheduling
     * decision over the bank-mask view (Scheduler::fastPick()).
     * Refreshes channelWake_[ch] with a conservative lower bound on
     * the channel's next interesting cycle, computed as a byproduct
     * of the bank classification — no second queue scan.
     * @return true when a command (ACT/PRE/CAS) or refresh was issued.
     */
    bool scheduleChannel(unsigned ch, Cycles now);
    /**
     * Issue the chosen command (CAS for a hit, else PRE/ACT) and apply
     * every side effect: bank/bus timing, stats, scheduler
     * notification, hit-list maintenance, dequeue. Shared with the
     * test oracle so the two cannot drift.
     * @return the post-command legality bound of the *chosen*
     *         request's next command (kNoEvent for a CAS, unless it
     *         drained the last hit of a masked bank).
     */
    Cycles issueCommand(unsigned ch, int slot, bool row_hit, Cycles now,
                        std::uint64_t masked_banks);
    /** The channel's wake bound after a command issue. */
    Cycles issuedWakeBound(unsigned ch, bool row_hit, unsigned ready_hit,
                           unsigned ready_other, Cycles future,
                           Cycles own, Cycles now) const;
    /** @return true when at least one completion drained. */
    bool drainCompletions(Cycles now);
    RefreshOutcome handleRefresh(unsigned ch, Cycles now);
    /**
     * Refresh-drain cursor shared by handleRefresh and
     * channelNextEvent (the two bank scans this helper replaced with
     * one open-row-mask lookup): the lowest-indexed open bank of `ch`
     * — the bank whose PRE gates refresh progress — or -1 when every
     * bank is closed. When a bank is returned, *pre_at receives the
     * earliest cycle >= now its PRE is legal (== now when it can
     * issue immediately).
     */
    int firstReadyBank(unsigned ch, Cycles now, Cycles *pre_at) const;
    /**
     * Earliest cycle >= now + 1 at which channel `ch` (which must have
     * queued requests) could issue a command or make refresh progress,
     * in O(occupied banks).
     */
    Cycles channelNextEvent(unsigned ch, Cycles now) const;
    /**
     * Earliest cycle >= now + 1 at which request `r` alone could have
     * its next command issued (kNoEvent when its PRE is masked by
     * pending row hits). Used to tighten a channel's cached wake on
     * enqueue without rescanning the whole queue.
     */
    Cycles requestIssueBound(const Request &r, Cycles now) const;

    DramConfig cfg_;
    AddressMapper mapper_;
    std::unique_ptr<Scheduler> scheduler_;
    std::vector<ChannelTiming> channels_;
    std::vector<RequestQueue> queues_;
    CompletionFifo inflight_;
    ControllerStats stats_;
    CompletionCallback onComplete_;
    std::uint64_t nextId_ = 1;
    /**
     * Cached scheduler_->nextTickEvent(): Scheduler::tick() is a no-op
     * before it, and the policies move it only inside tick(), so tick()
     * runs only once `now` reaches it.
     */
    Cycles schedTickAt_ = kNoEvent;
    /** Per-channel next refresh deadline (tREFI cadence). */
    std::vector<Cycles> nextRefresh_;
    /** Per-channel cycle until which a refresh blocks the channel. */
    std::vector<Cycles> refreshUntil_;
    /**
     * Lazy-scan cache: channel ch cannot issue before channelWake_[ch]
     * (0 = evaluate), so tick() skips the channel entirely until then.
     * Refreshed by every evaluation, tightened or reset by enqueue().
     * Skipped evaluations are provably no-ops — see the audit notes in
     * the sched_*.cc files.
     */
    std::vector<Cycles> channelWake_;
    /**
     * Cached scheduler_->pickIsPure(): when true, the lazy scan keeps
     * a channel's cached wake alive across enqueues (min-ing in the
     * newcomer's own bound) and across successful command issues
     * (jumping straight to the next legality bound) instead of forcing
     * a re-evaluation on the following cycle. SMS and PARBS invalidate
     * on both so their rebatching runs on exactly the reference cycles.
     */
    bool purePick_ = false;
};

} // namespace pccs::dram

#endif // PCCS_DRAM_CONTROLLER_HH
