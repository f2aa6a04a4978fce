/**
 * @file
 * Multi-phase program prediction (Section 3.2, "Handling multi-phase
 * programs", demonstrated on CFD in Section 4.1).
 *
 * A program with phase shifts is predicted per phase — each phase has
 * its own standalone bandwidth demand — and the per-phase predictions
 * are aggregated by each phase's share of the standalone execution
 * time. Aggregation is time-correct: the co-run time of a phase with
 * standalone share w and relative speed RS is w / RS, so the
 * program-level relative speed is the weighted harmonic mean.
 *
 * The average-bandwidth alternative (feed the time-weighted mean
 * demand to the model) is provided for the Figure 13(a) ablation.
 */

#ifndef PCCS_MODEL_PHASES_HH
#define PCCS_MODEL_PHASES_HH

#include <optional>
#include <string>
#include <vector>

#include "pccs/predictor.hh"

namespace pccs::model {

/** One phase as the predictor sees it. */
struct PhaseDemand
{
    /** Standalone bandwidth demand of the phase, GB/s. */
    GBps demand = 0.0;
    /** Fraction of standalone execution time spent in the phase. */
    double timeShare = 0.0;
};

/**
 * Panic unless the phase list is non-empty with non-negative demands
 * and shares and a positive total share (the precondition of every
 * phase-aggregating predictor, scalar or batched).
 */
void validatePhases(const std::vector<PhaseDemand> &phases);

/** Why a phase-aggregating prediction has no value. */
inline constexpr const char *kPhaseStallError =
    "phase predicted to a complete stall";

/**
 * A program-level prediction, or why there is none (the ParamsLoad
 * pattern of serialize.hh). A phase the model predicts at relative
 * speed 0 makes the program's co-run time unbounded, so it has no
 * relative speed; `error` is then kPhaseStallError.
 */
struct PiecewisePrediction
{
    /** Achieved relative speed, percent. */
    std::optional<double> relativeSpeed;
    std::string error;

    bool ok() const { return relativeSpeed.has_value(); }
};

/**
 * Piecewise (per-phase) prediction: predict each phase and aggregate
 * by standalone time share (the Figure 13(b) method). A stalled phase
 * is reported as a value, for callers that take untrusted inputs.
 */
PiecewisePrediction
tryPredictPiecewise(const SlowdownPredictor &predictor,
                    const std::vector<PhaseDemand> &phases, GBps y);

/**
 * tryPredictPiecewise for inputs known not to stall; panics if one
 * does.
 *
 * @return program-level achieved relative speed, percent
 */
double predictPiecewise(const SlowdownPredictor &predictor,
                        const std::vector<PhaseDemand> &phases, GBps y);

/**
 * Average-bandwidth prediction: feed the time-weighted mean demand to
 * the model (the Figure 13(a) method, shown by the paper to
 * underestimate slowdown).
 */
double predictAverageBw(const SlowdownPredictor &predictor,
                        const std::vector<PhaseDemand> &phases, GBps y);

} // namespace pccs::model

#endif // PCCS_MODEL_PHASES_HH
