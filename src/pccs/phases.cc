#include "phases.hh"

#include "common/logging.hh"

namespace pccs::model {

void
validatePhases(const std::vector<PhaseDemand> &phases)
{
    PCCS_ASSERT(!phases.empty(), "phase list is empty");
    double total = 0.0;
    for (const auto &p : phases) {
        PCCS_ASSERT(p.timeShare >= 0.0 && p.demand >= 0.0,
                    "negative phase demand or share");
        total += p.timeShare;
    }
    PCCS_ASSERT(total > 0.0, "phase time shares sum to zero");
}

PiecewisePrediction
tryPredictPiecewise(const SlowdownPredictor &predictor,
                    const std::vector<PhaseDemand> &phases, GBps y)
{
    validatePhases(phases);
    double share_sum = 0.0;
    double corun_time = 0.0; // in units of standalone total time
    for (const auto &p : phases) {
        if (p.timeShare <= 0.0)
            continue;
        const double rs = predictor.relativeSpeed(p.demand, y);
        if (!(rs > 0.0))
            return {std::nullopt, kPhaseStallError};
        corun_time += p.timeShare / (rs / 100.0);
        share_sum += p.timeShare;
    }
    return {100.0 * share_sum / corun_time, {}};
}

double
predictPiecewise(const SlowdownPredictor &predictor,
                 const std::vector<PhaseDemand> &phases, GBps y)
{
    const PiecewisePrediction p = tryPredictPiecewise(predictor, phases, y);
    PCCS_ASSERT(p.ok(), "%s", p.error.c_str());
    return *p.relativeSpeed;
}

double
predictAverageBw(const SlowdownPredictor &predictor,
                 const std::vector<PhaseDemand> &phases, GBps y)
{
    validatePhases(phases);
    double share_sum = 0.0;
    double avg_demand = 0.0;
    for (const auto &p : phases) {
        avg_demand += p.timeShare * p.demand;
        share_sum += p.timeShare;
    }
    avg_demand /= share_sum;
    return predictor.relativeSpeed(avg_demand, y);
}

} // namespace pccs::model
