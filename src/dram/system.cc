#include "system.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace pccs::dram {

DramSystem::DramSystem(const DramConfig &cfg, std::string_view policy,
                       const SchedulerParams &sched_params)
    : controller_(std::make_unique<MemoryController>(
          cfg, makeScheduler(policy, sched_params))),
      generatorOf_(Scheduler::maxSources, -1),
      replayOf_(Scheduler::maxSources, -1)
{
    generatorGates_.waiting.assign(cfg.channels, 0);
    replayGates_.waiting.assign(cfg.channels, 0);
    controller_->setCompletionCallback([this](const Request &req) {
        if (const int g = generatorOf_[req.source]; g >= 0) {
            generators_[g]->onComplete(req);
            generatorGates_.release(static_cast<std::size_t>(g));
            return;
        }
        const int r = replayOf_[req.source];
        PCCS_ASSERT(r >= 0, "completion for unknown source %u",
                    req.source);
        replays_[r]->onComplete(req);
        replayGates_.release(static_cast<std::size_t>(r));
    });
}

std::size_t
DramSystem::addReplay(const ReplayParams &params,
                      std::vector<TraceEntry> trace)
{
    PCCS_ASSERT(params.source < Scheduler::maxSources,
                "source id %u out of range", params.source);
    PCCS_ASSERT(generatorOf_[params.source] < 0 &&
                    replayOf_[params.source] < 0,
                "duplicate generator for source %u", params.source);
    replays_.push_back(std::make_unique<TraceReplayGenerator>(
        params, std::move(trace), *controller_));
    const std::size_t i = replays_.size() - 1;
    replayOf_[params.source] = static_cast<int>(i);
    replayGates_.add(i);
    return i;
}

std::size_t
DramSystem::addGenerator(const TrafficParams &params)
{
    PCCS_ASSERT(params.source < Scheduler::maxSources,
                "source id %u out of range", params.source);
    PCCS_ASSERT(generatorOf_[params.source] < 0 &&
                    replayOf_[params.source] < 0,
                "duplicate generator for source %u", params.source);
    generators_.push_back(
        std::make_unique<CoreTrafficGenerator>(params, *controller_));
    const std::size_t i = generators_.size() - 1;
    generatorOf_[params.source] = static_cast<int>(i);
    generatorGates_.add(i);
    return i;
}

void
DramSystem::SourceGates::add(std::size_t i)
{
    PCCS_ASSERT(i < 64, "source set holds at most 64 sources");
    armed |= std::uint64_t{1} << i;
    wakeAt.resize(i + 1, kNoEvent);
}

void
DramSystem::SourceGates::release(std::size_t i)
{
    const std::uint64_t bit = std::uint64_t{1} << i;
    if (mlp & bit) {
        mlp &= ~bit;
        armed |= bit;
    }
}

bool
DramSystem::SourceGates::armFirstWaiter(unsigned ch, Cycles now,
                                        std::size_t n)
{
    const std::uint64_t w = waiting[ch];
    if (!w)
        return false;
    const std::uint64_t from = w & (~std::uint64_t{0} << (now % n));
    const std::uint64_t bit = std::uint64_t{1}
                              << std::countr_zero(from ? from : w);
    waiting[ch] &= ~bit;
    armed |= bit;
    return true;
}

void
DramSystem::SourceGates::armDue(Cycles now)
{
    Cycles next = kNoEvent;
    for (std::uint64_t m = pacing; m; m &= m - 1) {
        const int i = std::countr_zero(m);
        if (wakeAt[i] <= now) {
            PCCS_ASSERT(wakeAt[i] == now,
                        "pacing wake %llu passed at cycle %llu",
                        static_cast<unsigned long long>(wakeAt[i]),
                        static_cast<unsigned long long>(now));
            pacing &= ~(std::uint64_t{1} << i);
            armed |= std::uint64_t{1} << i;
        } else {
            next = std::min(next, wakeAt[i]);
        }
    }
    nextWake = next;
}

void
DramSystem::armWaiters()
{
    // Only a CAS dequeue makes room in a full queue, and a channel
    // issues at most one CAS per cycle, so a channel with waiters has
    // exactly one free slot here. The first waiter in this cycle's
    // rotation retries its refused address before anything else and
    // takes the slot (unless an armed source ahead of it in the
    // rotation already did); every later waiter would be refused
    // again, so they stay filed. Generators tick before replays.
    const unsigned channels = controller_->config().channels;
    for (unsigned ch = 0; ch < channels; ++ch) {
        if (!(generatorGates_.waiting[ch] | replayGates_.waiting[ch]) ||
            controller_->channelFull(ch)) {
            continue;
        }
        if (!generatorGates_.armFirstWaiter(ch, now_, generators_.size()))
            replayGates_.armFirstWaiter(ch, now_, replays_.size());
    }
}

template <class Source>
bool
DramSystem::tickArmed(std::vector<std::unique_ptr<Source>> &sources,
                      SourceGates &gates)
{
    if (now_ >= gates.nextWake)
        gates.armDue(now_);
    const std::uint64_t armed = gates.armed;
    if (!armed)
        return false;
    gates.armed = 0;
    // Rotate the issue order each cycle: with full request queues, a
    // fixed order would hand every freed slot to the lowest-indexed
    // source (an arbitration bias no real interconnect has). The walk
    // starts at index now_ % n and wraps, so the order is a pure
    // function of now_ and unarmed sources — whose ticks would change
    // nothing — drop out of it without perturbing it.
    const std::uint64_t from = ~std::uint64_t{0} << (now_ % sources.size());
    bool issued = false;
    for (const std::uint64_t part : {armed & from, armed & ~from}) {
        for (std::uint64_t m = part; m; m &= m - 1) {
            const int i = std::countr_zero(m);
            const std::uint64_t bit = std::uint64_t{1} << i;
            Source &src = *sources[i];
            issued |= src.tick(now_);
            switch (src.gate()) {
            case SourceGate::Pacing: {
                const Cycles at = src.nextIssueEvent(now_);
                gates.wakeAt[i] = at;
                gates.pacing |= bit;
                gates.nextWake = std::min(gates.nextWake, at);
                break;
            }
            case SourceGate::Mlp:
                gates.mlp |= bit;
                break;
            case SourceGate::Backpressure:
                gates.waiting[controller_->mapper()
                                  .decode(src.blockedAddress())
                                  .channel] |= bit;
                break;
            case SourceGate::Exhausted:
                break;
            }
        }
    }
    return issued;
}

void
DramSystem::run(Cycles cycles)
{
    const Cycles end = now_ + cycles;
    while (now_ < end) {
        // Controller first, then the sources (the lockstep order).
        // Completions arm MLP-gated sources from inside tick().
        bool active = controller_->tick(now_);
        if (active)
            armWaiters();
        active |= tickArmed(generators_, generatorGates_);
        active |= tickArmed(replays_, replayGates_);
        if (active) {
            // Something happened: the very next cycle may react to it
            // (a freed queue slot, a drained row hit, a legal command),
            // so no skipping is safe.
            ++now_;
            continue;
        }
        // Quiet cycle: every source is filed under a gate, so jump to
        // the earliest of the controller's conservative lower bound
        // and the exact pacing crossings; completions and dequeues,
        // the other gates' events, are controller events. Each bound
        // is >= now_ + 1, so progress is guaranteed.
        const Cycles wake =
            std::min({controller_->nextEventCycle(now_),
                      generatorGates_.nextWake, replayGates_.nextWake});
        now_ = std::min(end, std::max(wake, now_ + 1));
    }
}

void
DramSystem::resetMeasurement()
{
    controller_->resetStats();
    for (auto &gen : generators_)
        gen->resetMeasurement();
    for (auto &rep : replays_)
        rep->resetMeasurement();
    windowStart_ = now_;
}

GBps
DramSystem::achievedBandwidth(std::size_t i) const
{
    return generators_[i]->achievedBandwidth(windowCycles());
}

double
DramSystem::effectiveBandwidthFraction() const
{
    return controller_->effectiveBandwidthFraction(windowCycles());
}

} // namespace pccs::dram
