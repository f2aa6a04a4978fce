#include "pacing.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pccs::dram {

void
TokenBucket::accrueThrough(Cycles now)
{
    const Cycles target = now + 1;
    PCCS_ASSERT(target >= through_, "token bucket accrued backwards");
    if (planThrough_ > through_ && planThrough_ <= target) {
        // The planned run already holds this prefix of the additions.
        tokens_ = planTokens_;
        through_ = planThrough_;
    }
    for (; through_ < target && tokens_ < cap_; ++through_)
        tokens_ = std::min(tokens_ + rate_, cap_);
    through_ = target;
}

void
TokenBucket::take(double amount)
{
    tokens_ -= amount;
    planThrough_ = 0;
}

Cycles
TokenBucket::crossing(double amount)
{
    PCCS_ASSERT(tokens_ < amount, "crossing of a bucket already holding %g",
                amount);
    if (planThrough_ <= through_) {
        double t = tokens_;
        Cycles k = 0;
        while (t < amount && k < kHorizon) {
            t = std::min(t + rate_, cap_);
            ++k;
        }
        planThrough_ = through_ + k;
        planTokens_ = t;
    }
    // accrueThrough(c) reaches the planned state for c = planThrough_ - 1.
    return planThrough_ - 1;
}

Cycles
TokenBucket::nextIssueCycle(double amount, Cycles now)
{
    if (tokens_ >= amount)
        return now + 1;
    return std::max(crossing(amount), now + 1);
}

} // namespace pccs::dram
