#include "traffic.hh"

#include "common/logging.hh"

namespace pccs::dram {

CoreTrafficGenerator::CoreTrafficGenerator(const TrafficParams &params,
                                           MemoryPort &port)
    : params_(params), port_(port), rng_(params.seed),
      bucket_(TokenBucket::forDemand(params.demand, port))
{
    PCCS_ASSERT(params_.demand > 0.0, "traffic demand must be positive");
    PCCS_ASSERT(params_.mlp > 0, "traffic mlp must be positive");

    // Give each source a private slice of the address space so sources
    // never share rows: slice the row index range.
    const Addr span = port_.addressSpan();
    regionLines_ = span / port_.lineBytes() / Scheduler::maxSources;
    PCCS_ASSERT(regionLines_ > 0, "address space too small for %u sources",
                Scheduler::maxSources);
    regionBase_ = params_.source * regionLines_ * port_.lineBytes();
    cursor_ = rng_.below(regionLines_);
}

Addr
CoreTrafficGenerator::nextAddress()
{
    if (!rng_.chance(params_.rowLocality)) {
        // Random jump within the private region (a new row almost
        // surely, modeling poor-locality strides).
        cursor_ = rng_.below(regionLines_);
    }
    const Addr addr = regionBase_ + cursor_ * port_.lineBytes();
    // Wrap on increment: the cursor stays in [0, regionLines_) instead
    // of growing without bound and being reduced at every use.
    if (++cursor_ >= regionLines_)
        cursor_ = 0;
    return addr;
}

bool
CoreTrafficGenerator::tick(Cycles now)
{
    bucket_.accrueThrough(now);
    bool issued = false;
    const double line = port_.lineBytes();
    while (bucket_.tokens() >= line && outstanding_ < params_.mlp) {
        if (!hasPending_) {
            pendingAddr_ = nextAddress();
            pendingWrite_ = rng_.chance(params_.writeFraction);
            hasPending_ = true;
        }
        if (!port_.enqueue(params_.source, pendingAddr_, pendingWrite_,
                           now)) {
            // Request buffer full: hold the tokens *and the address*
            // and retry next cycle. Advancing the stream on failed
            // attempts would shred its row locality under
            // backpressure.
            break;
        }
        hasPending_ = false;
        bucket_.take(line);
        ++outstanding_;
        ++issuedLines_;
        issued = true;
    }
    return issued;
}

Cycles
CoreTrafficGenerator::nextIssueEvent(Cycles now)
{
    // Gated on a completion (MLP) or on queue space (backpressure):
    // both only clear through controller activity, which is itself a
    // wake, so no standalone event is needed. Retries on intervening
    // cycles are pure no-ops (no RNG, no state change).
    if (gate() != SourceGate::Pacing)
        return kNoEvent;
    return bucket_.nextIssueCycle(port_.lineBytes(), now);
}

void
CoreTrafficGenerator::onComplete(const Request &req)
{
    PCCS_ASSERT(req.source == params_.source,
                "completion for source %u routed to source %u",
                req.source, params_.source);
    PCCS_ASSERT(outstanding_ > 0, "completion with no outstanding request");
    --outstanding_;
    ++completedLines_;
}

void
CoreTrafficGenerator::resetMeasurement()
{
    completedLines_ = 0;
    issuedLines_ = 0;
}

GBps
CoreTrafficGenerator::achievedBandwidth(Cycles window_cycles) const
{
    const double seconds =
        static_cast<double>(window_cycles) * port_.cycleSeconds();
    return toGBps(static_cast<double>(completedLines_) *
                      port_.lineBytes(),
                  seconds);
}

} // namespace pccs::dram
