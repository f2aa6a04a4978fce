/**
 * @file
 * Trace-driven traffic: replays a recorded address trace through a
 * memory port at a paced rate. This is the front end real
 * DRAM-simulator studies use when synthetic streams are not faithful
 * enough (the paper drives Ramulator from Pin traces the same way).
 *
 * Trace format (text, one request per line, '#' comments allowed):
 *
 *     R 0x1a2b3c40
 *     W 0x1a2b3c80
 *     0x1a2b3cc0        # bare addresses default to reads
 */

#ifndef PCCS_DRAM_TRACE_REPLAY_HH
#define PCCS_DRAM_TRACE_REPLAY_HH

#include <string>
#include <vector>

#include "dram/pacing.hh"
#include "dram/port.hh"
#include "dram/request.hh"

namespace pccs::dram {

/** One trace record. */
struct TraceEntry
{
    Addr addr = 0;
    bool isWrite = false;
};

/** Parse a trace file; fatal on I/O errors, warns on bad lines. */
std::vector<TraceEntry> loadTrace(const std::string &path);

/** Configuration of a replay source. */
struct ReplayParams
{
    /** Source id (< Scheduler::maxSources). */
    unsigned source = 0;
    /** Issue pacing, GB/s (the trace's recorded demand). */
    GBps demand = 10.0;
    /** Maximum outstanding requests. */
    unsigned mlp = 64;
    /** Restart from the beginning when the trace ends. */
    bool loop = true;
};

/**
 * Replays a trace through a memory port with token-bucket pacing and
 * bounded outstanding requests (same pacing model as the synthetic
 * generator, but the address stream comes from the trace).
 */
class TraceReplayGenerator
{
  public:
    TraceReplayGenerator(const ReplayParams &params,
                         std::vector<TraceEntry> trace,
                         MemoryPort &port);

    /**
     * Advance through bus cycle `now`: accrue tokens for every cycle
     * since the last call (bit-identical capped single-cycle additions
     * whether batched or not), then issue eligible requests.
     * @return true when at least one line was issued.
     */
    bool tick(Cycles now);

    /**
     * Earliest cycle >= now + 1 at which tick() could issue a request,
     * given no completions arrive in between: the bucket's exact line
     * crossing. kNoEvent when gated on external progress (MLP,
     * backpressure, exhausted trace).
     */
    Cycles nextIssueEvent(Cycles now);

    /** The gate that stopped the last tick() from issuing further. */
    SourceGate gate() const
    {
        if (exhausted())
            return SourceGate::Exhausted;
        if (blocked_)
            return SourceGate::Backpressure;
        if (outstanding_ >= params_.mlp)
            return SourceGate::Mlp;
        return SourceGate::Pacing;
    }

    /** The address a full channel refused (under Backpressure). */
    Addr blockedAddress() const { return trace_[position_].addr; }

    /** Notify that one of this source's requests completed. */
    void onComplete(const Request &req);

    /** @return true when a non-looping trace is fully issued. */
    bool exhausted() const
    {
        return !params_.loop && position_ >= trace_.size();
    }

    std::uint64_t completedLines() const { return completedLines_; }
    std::uint64_t issuedLines() const { return issuedLines_; }
    unsigned outstanding() const { return outstanding_; }
    unsigned source() const { return params_.source; }

    /** Zero the measurement counters. */
    void resetMeasurement();

  private:
    ReplayParams params_;
    std::vector<TraceEntry> trace_;
    MemoryPort &port_;
    TokenBucket bucket_;

    std::size_t position_ = 0;
    /** Last attempt hit request-buffer backpressure. */
    bool blocked_ = false;
    unsigned outstanding_ = 0;
    std::uint64_t completedLines_ = 0;
    std::uint64_t issuedLines_ = 0;
};

} // namespace pccs::dram

#endif // PCCS_DRAM_TRACE_REPLAY_HH
