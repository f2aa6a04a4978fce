#include "multi_mc.hh"

#include <algorithm>
#include <thread>

#include "common/logging.hh"
#include "runner/spin_barrier.hh"
#include "runner/sweep_engine.hh"

namespace pccs::dram {

const char *
mcMappingName(McMapping mapping)
{
    switch (mapping) {
      case McMapping::LineInterleaved:
        return "line-interleaved";
      case McMapping::RangePartitioned:
        return "range-partitioned";
    }
    panic("unknown McMapping %d", static_cast<int>(mapping));
}

MultiMcSystem::MultiMcSystem(const DramConfig &per_mc_cfg,
                             unsigned num_mcs, std::string_view policy,
                             McMapping mapping,
                             const SchedulerParams &sched_params,
                             McRunMode mode)
    : perMcCfg_(per_mc_cfg),
      mapping_(mapping),
      mode_(mode),
      bySource_(Scheduler::maxSources, nullptr),
      deferred_(num_mcs)
{
    PCCS_ASSERT(num_mcs >= 1, "need at least one controller");
    for (unsigned m = 0; m < num_mcs; ++m) {
        mcs_.push_back(std::make_unique<MemoryController>(
            perMcCfg_, makeScheduler(policy, sched_params)));
        mcs_.back()->setCompletionCallback(
            [this, m](const Request &req) {
                if (deferCompletions_) {
                    deferred_[m].push_back(req);
                    return;
                }
                deliver(req);
            });
    }
    perMcSpan_ = mcs_[0]->addressSpan();
}

void
MultiMcSystem::deliver(const Request &req)
{
    CoreTrafficGenerator *gen = bySource_[req.source];
    PCCS_ASSERT(gen != nullptr, "completion for unknown source %u",
                req.source);
    gen->onComplete(req);
}

unsigned
MultiMcSystem::route(Addr addr) const
{
    const unsigned n = numControllers();
    switch (mapping_) {
      case McMapping::LineInterleaved:
        return static_cast<unsigned>((addr / perMcCfg_.lineBytes) % n);
      case McMapping::RangePartitioned:
        return static_cast<unsigned>(
            std::min<Addr>(addr / perMcSpan_, n - 1));
    }
    panic("unknown McMapping %d", static_cast<int>(mapping_));
}

Addr
MultiMcSystem::localAddress(Addr addr) const
{
    const unsigned n = numControllers();
    switch (mapping_) {
      case McMapping::LineInterleaved: {
        const Addr line = addr / perMcCfg_.lineBytes;
        const Addr offset = addr % perMcCfg_.lineBytes;
        return (line / n) * perMcCfg_.lineBytes + offset;
      }
      case McMapping::RangePartitioned:
        return addr % perMcSpan_;
    }
    panic("unknown McMapping %d", static_cast<int>(mapping_));
}

bool
MultiMcSystem::enqueue(unsigned source, Addr addr, bool is_write,
                       Cycles now)
{
    return mcs_[route(addr)]->enqueue(source, localAddress(addr),
                                      is_write, now);
}

unsigned
MultiMcSystem::lineBytes() const
{
    return perMcCfg_.lineBytes;
}

double
MultiMcSystem::cycleSeconds() const
{
    return perMcCfg_.timing.cycleSeconds();
}

Addr
MultiMcSystem::addressSpan() const
{
    return perMcSpan_ * numControllers();
}

std::size_t
MultiMcSystem::addGenerator(const TrafficParams &params)
{
    PCCS_ASSERT(params.source < Scheduler::maxSources,
                "source id %u out of range", params.source);
    PCCS_ASSERT(bySource_[params.source] == nullptr,
                "duplicate generator for source %u", params.source);
    generators_.push_back(
        std::make_unique<CoreTrafficGenerator>(params, *this));
    bySource_[params.source] = generators_.back().get();
    return generators_.size() - 1;
}

void
MultiMcSystem::run(Cycles cycles)
{
    const Cycles end = now_ + cycles;
    switch (mode_) {
      case McRunMode::EventDriven:
        runEventDriven(end);
        return;
      case McRunMode::Sharded:
        runSharded(end);
        return;
    }
    panic("unknown McRunMode %d", static_cast<int>(mode_));
}

bool
MultiMcSystem::tickGenerators(Cycles now)
{
    // Same rotated issue order as DramSystem::run: the offset is a
    // pure function of `now`, so skipping quiet cycles (on which every
    // generator's tick is a no-op regardless of order) cannot perturb
    // it.
    bool active = false;
    const std::size_t n = generators_.size();
    const std::size_t start = n ? now % n : 0;
    for (std::size_t i = 0; i < n; ++i)
        active |= generators_[(start + i) % n]->tick(now);
    return active;
}

void
MultiMcSystem::runEventDriven(Cycles end)
{
    while (now_ < end) {
        bool active = false;
        for (auto &mc : mcs_)
            active |= mc->tick(now_);
        active |= tickGenerators(now_);
        if (active) {
            ++now_;
            continue;
        }
        // Every controller and every generator was quiet: jump to the
        // earliest cycle at which any of them could act. Idle channels
        // contribute kNoEvent and drop out of the min entirely. Each
        // controller's bound comes from its bank-mask next-event scan
        // (O(occupied banks), not a queue walk).
        Cycles wake = kNoEvent;
        for (const auto &mc : mcs_)
            wake = std::min(wake, mc->nextEventCycle(now_));
        for (const auto &gen : generators_)
            wake = std::min(wake, gen->nextIssueEvent(now_));
        now_ = std::min(end, std::max(wake, now_ + 1));
    }
}

void
MultiMcSystem::runSharded(Cycles end)
{
    const unsigned mcs = numControllers();
    unsigned team = mcShardWorkers();
    if (team == 0)
        team = std::max(1u, std::thread::hardware_concurrency());
    team = std::min(team, mcs);
    if (team <= 1) {
        runEventDriven(end);
        return;
    }
    std::vector<std::vector<std::size_t>> shard_gens;
    if (independentShards(shard_gens))
        runIndependentShards(end, shard_gens);
    else
        runEpochSharded(end, team);
}

bool
MultiMcSystem::independentShards(
    std::vector<std::vector<std::size_t>> &out) const
{
    if (mapping_ != McMapping::RangePartitioned)
        return false;
    out.assign(mcs_.size(), {});
    for (std::size_t g = 0; g < generators_.size(); ++g) {
        const auto &gen = *generators_[g];
        // The address stream is confined to [regionBase, regionEnd);
        // with a contiguous-slice mapping, both endpoints routing to
        // the same MC proves the whole footprint does.
        const unsigned mc = route(gen.regionBase());
        if (route(gen.regionEnd() - 1) != mc)
            return false;
        out[mc].push_back(g);
    }
    return true;
}

void
MultiMcSystem::runIndependentShards(
    Cycles end, const std::vector<std::vector<std::size_t>> &shard_gens)
{
    // Clean partition: shard g-sets are disjoint, each generator only
    // ever enqueues to its own MC, and each MC only completes its own
    // generators' lines, so shard (MC m + its generators) touches no
    // state outside itself. Each shard runs the full event-driven loop
    // privately; the per-shard trace equals the global trace
    // restricted to the shard, hence bit-exactness. Epoch = the whole
    // run; no barriers.
    const std::size_t n = generators_.size();
    const Cycles begin = now_;
    runner::SweepEngine::global().parallelFor(
        mcs_.size(), [&](std::size_t m) {
            MemoryController &mc = *mcs_[m];
            const std::vector<std::size_t> &gens = shard_gens[m];
            Cycles now = begin;
            while (now < end) {
                bool active = mc.tick(now);
                // Global rotation order restricted to this shard's
                // subset: members >= the offset first (ascending),
                // then wrap.
                const std::size_t start = n ? now % n : 0;
                auto it = std::lower_bound(gens.begin(), gens.end(),
                                           start);
                for (std::size_t k = 0; k < gens.size(); ++k) {
                    if (it == gens.end())
                        it = gens.begin();
                    active |= generators_[*it]->tick(now);
                    ++it;
                }
                if (active) {
                    ++now;
                    continue;
                }
                Cycles wake = mc.nextEventCycle(now);
                for (std::size_t g : gens)
                    wake = std::min(wake,
                                    generators_[g]->nextIssueEvent(now));
                now = std::min(end, std::max(wake, now + 1));
            }
        });
    now_ = end;
}

void
MultiMcSystem::runEpochSharded(Cycles end, unsigned team)
{
    // Generators are shared state here (a LineInterleaved source
    // spreads lines over every MC), but the interaction latency is one
    // bus cycle: controllers tick before generators within a cycle,
    // and nothing a controller does at cycle t reads generator state.
    // So controllers run in parallel within each cycle (epoch = the
    // one-cycle synchronization granularity), and the serial phase
    // replays completion delivery in controller index order followed
    // by the rotated generator ticks — the exact lockstep order.
    const unsigned mcs = numControllers();
    deferCompletions_ = true;
    for (auto &d : deferred_)
        d.clear();
    std::vector<unsigned char> mc_active(mcs, 0);
    runner::SpinBarrier barrier(team);
    Cycles now = now_;
    bool done = false;

    auto mcPhase = [&](unsigned w, Cycles at) {
        const unsigned lo = w * mcs / team;
        const unsigned hi = (w + 1) * mcs / team;
        for (unsigned m = lo; m < hi; ++m)
            mc_active[m] = mcs_[m]->tick(at) ? 1 : 0;
    };

    std::vector<std::jthread> workers;
    workers.reserve(team - 1);
    for (unsigned w = 1; w < team; ++w) {
        workers.emplace_back([&, w] {
            while (true) {
                barrier.arriveAndWait(); // B1: now/done published
                if (done)
                    return;
                mcPhase(w, now);
                barrier.arriveAndWait(); // B2: controller phase over
            }
        });
    }

    while (true) {
        done = now >= end;
        barrier.arriveAndWait(); // B1
        if (done)
            break;
        mcPhase(0, now);
        barrier.arriveAndWait(); // B2
        bool active = false;
        for (unsigned m = 0; m < mcs; ++m) {
            active |= mc_active[m] != 0;
            for (const Request &req : deferred_[m])
                deliver(req);
            deferred_[m].clear();
        }
        active |= tickGenerators(now);
        if (active) {
            ++now;
            continue;
        }
        // Quiet cycle: workers are parked at B1, so reading every
        // controller's wake bound from this thread is race-free.
        Cycles wake = kNoEvent;
        for (const auto &mc : mcs_)
            wake = std::min(wake, mc->nextEventCycle(now));
        for (const auto &gen : generators_)
            wake = std::min(wake, gen->nextIssueEvent(now));
        now = std::min(end, std::max(wake, now + 1));
    }
    now_ = end;
    deferCompletions_ = false;
}

void
MultiMcSystem::resetMeasurement()
{
    for (auto &mc : mcs_)
        mc->resetStats();
    for (auto &gen : generators_)
        gen->resetMeasurement();
    windowStart_ = now_;
}

GBps
MultiMcSystem::achievedBandwidth(std::size_t i) const
{
    return generators_[i]->achievedBandwidth(windowCycles());
}

double
MultiMcSystem::effectiveBandwidthFraction() const
{
    double sum = 0.0;
    for (const auto &mc : mcs_)
        sum += mc->effectiveBandwidthFraction(windowCycles());
    return sum / static_cast<double>(mcs_.size());
}

double
MultiMcSystem::rowBufferHitRate() const
{
    std::uint64_t hits = 0, misses = 0;
    for (const auto &mc : mcs_) {
        hits += mc->stats().rowHits;
        misses += mc->stats().rowMisses;
    }
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) /
                       static_cast<double>(total)
                 : 0.0;
}

std::uint64_t
MultiMcSystem::bytesServed(unsigned mc) const
{
    return mcs_[mc]->stats().bytesTransferred;
}

} // namespace pccs::dram
