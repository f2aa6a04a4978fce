/**
 * @file
 * Whole-SoC co-run prediction (the Section 3.4 / Figure 7 workflow as
 * a library API): given each PU's slowdown model and each placed
 * program's phase demands, predict every program's achieved relative
 * speed.
 *
 * Two modes:
 *
 *  - one-shot (the paper's protocol): each PU's external demand y is
 *    the sum of its co-runners' *standalone* demands;
 *  - iterative refinement: the external inputs are iterated toward
 *    the fixed point y_i = sum_j!=i x_j * RS_j/100, modeling
 *    co-runners that throttle their *issue rate* when slowed.
 *
 * Which mode fits depends on the memory system: under fairness
 *  allocation a bandwidth-capped program keeps *demanding* its
 *  standalone rate (its request queue stays full), so the one-shot
 *  protocol matches — which is why the paper uses it, and why it is
 *  the default here. Refinement applies to co-runners that genuinely
 *  issue less when slowed (e.g., latency-bound, low-MLP producers).
 */

#ifndef PCCS_MODEL_CORUN_HH
#define PCCS_MODEL_CORUN_HH

#include <optional>
#include <string>
#include <vector>

#include "pccs/phases.hh"
#include "pccs/predictor.hh"

namespace pccs::model {

/** One placed program as the co-run predictor sees it. */
struct CorunInput
{
    /** The PU's slowdown model (not owned). */
    const SlowdownPredictor *model = nullptr;
    /** The program's phases on that PU (standalone demands+shares). */
    std::vector<PhaseDemand> phases;

    /** @return the time-weighted mean standalone demand, GB/s. */
    GBps meanDemand() const;
};

/** Options of the co-run prediction. */
struct CorunPredictOptions
{
    /** 0 = the paper's one-shot protocol; n > 0 = refine n times. */
    unsigned refinementIterations = 0;
    /** Damping factor of the refinement updates, in (0, 1]. */
    double damping = 0.7;
};

/**
 * Every program's relative speed, or why there is none: a phase the
 * model predicts at speed 0 in any round (error kPhaseStallError).
 */
struct CorunPrediction
{
    /** Relative speeds (%), parallel to the inputs. */
    std::optional<std::vector<double>> relativeSpeeds;
    std::string error;

    bool ok() const { return relativeSpeeds.has_value(); }
};

/**
 * Predict the achieved relative speed (%) of every placed program,
 * reporting a stalled phase as a value.
 *
 * @param inputs one entry per PU (every PU runs one program)
 */
CorunPrediction tryPredictCorun(const std::vector<CorunInput> &inputs,
                                const CorunPredictOptions &opts = {});

/**
 * tryPredictCorun for inputs known not to stall; panics if one does.
 *
 * @return relative speeds, parallel to inputs
 */
std::vector<double> predictCorun(
    const std::vector<CorunInput> &inputs,
    const CorunPredictOptions &opts = {});

} // namespace pccs::model

#endif // PCCS_MODEL_CORUN_HH
