#include "corun.hh"

#include "common/logging.hh"
#include "pccs/batch.hh"

namespace pccs::model {

GBps
CorunInput::meanDemand() const
{
    double total_share = 0.0;
    double demand = 0.0;
    for (const auto &p : phases) {
        demand += p.timeShare * p.demand;
        total_share += p.timeShare;
    }
    PCCS_ASSERT(total_share > 0.0, "co-run input has no time share");
    return demand / total_share;
}

namespace {

/**
 * One flattened phase point of a round: program `input`, standalone
 * demand x under that program's external pressure y.
 */
struct PhasePoint
{
    std::size_t input;
    double share;
    double x;
};

/**
 * Evaluate one round — every program's relative speed under its
 * external pressure ys[i] — as one batched pass: the evaluated phase
 * points of all PUs are flattened into structure-of-arrays form and
 * each distinct model runs its batch kernel once over its points
 * (scalar-only models fall back to the adapter). Bit-exact with
 * calling predictPiecewise per program: the kernels match the scalar
 * path per point and the harmonic aggregation below accumulates in
 * the same phase order. Empty when a phase stalls.
 */
std::optional<std::vector<double>>
roundSpeeds(const std::vector<CorunInput> &inputs,
            const std::vector<PhasePoint> &points,
            const std::vector<double> &ys)
{
    const std::size_t total = points.size();
    std::vector<double> xs(total), yflat(total), rs(total, 0.0);
    for (std::size_t k = 0; k < total; ++k) {
        xs[k] = points[k].x;
        yflat[k] = ys[points[k].input];
    }

    // Group points by model, preserving first-seen model order and
    // point order within each group.
    std::vector<const SlowdownPredictor *> models;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t k = 0; k < total; ++k) {
        const SlowdownPredictor *m = inputs[points[k].input].model;
        std::size_t g = 0;
        while (g < models.size() && models[g] != m)
            ++g;
        if (g == models.size()) {
            models.push_back(m);
            groups.emplace_back();
        }
        groups[g].push_back(k);
    }

    std::vector<double> gx, gy, gout;
    for (std::size_t g = 0; g < models.size(); ++g) {
        const std::vector<std::size_t> &idx = groups[g];
        gx.assign(idx.size(), 0.0);
        gy.assign(idx.size(), 0.0);
        gout.assign(idx.size(), 0.0);
        for (std::size_t j = 0; j < idx.size(); ++j) {
            gx[j] = xs[idx[j]];
            gy[j] = yflat[idx[j]];
        }
        if (const BatchPredictor *bp = batchInterface(*models[g])) {
            bp->relativeSpeedBatch(gx, gy, gout);
        } else {
            const ScalarBatchAdapter adapter(*models[g]);
            adapter.relativeSpeedBatch(gx, gy, gout);
        }
        for (std::size_t j = 0; j < idx.size(); ++j)
            rs[idx[j]] = gout[j];
    }

    // Per-program weighted-harmonic aggregation, identical to
    // predictPiecewise (phases.cc).
    const std::size_t n = inputs.size();
    std::vector<double> share_sum(n, 0.0), corun_time(n, 0.0);
    for (std::size_t k = 0; k < total; ++k) {
        const PhasePoint &p = points[k];
        if (!(rs[k] > 0.0))
            return std::nullopt;
        corun_time[p.input] += p.share / (rs[k] / 100.0);
        share_sum[p.input] += p.share;
    }
    std::vector<double> out(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = 100.0 * share_sum[i] / corun_time[i];
    return out;
}

} // namespace

CorunPrediction
tryPredictCorun(const std::vector<CorunInput> &inputs,
                const CorunPredictOptions &opts)
{
    PCCS_ASSERT(!inputs.empty(), "co-run prediction needs inputs");
    PCCS_ASSERT(opts.damping > 0.0 && opts.damping <= 1.0,
                "damping must be in (0, 1]");
    const std::size_t n = inputs.size();
    for (const auto &in : inputs) {
        PCCS_ASSERT(in.model != nullptr, "co-run input lacks a model");
        validatePhases(in.phases);
    }

    // Flatten the evaluated phase points once; zero-share phases are
    // skipped exactly as the scalar aggregation skips them.
    std::vector<PhasePoint> points;
    for (std::size_t i = 0; i < n; ++i)
        for (const auto &p : inputs[i].phases)
            if (p.timeShare > 0.0)
                points.push_back({i, p.timeShare, p.demand});

    // Effective external pressure each program exerts: starts at the
    // standalone demand (the paper's protocol) and, with refinement,
    // shrinks toward demand x predicted relative speed.
    std::vector<double> pressure(n);
    for (std::size_t i = 0; i < n; ++i)
        pressure[i] = inputs[i].meanDemand();

    std::vector<double> rs(n, 100.0);
    std::vector<double> ys(n, 0.0);
    const unsigned rounds = 1 + opts.refinementIterations;
    for (unsigned round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < n; ++i) {
            double y = 0.0;
            for (std::size_t j = 0; j < n; ++j)
                if (j != i)
                    y += pressure[j];
            ys[i] = y;
        }
        // All PUs' demands as one batch per iteration.
        std::optional<std::vector<double>> round_rs =
            roundSpeeds(inputs, points, ys);
        if (!round_rs)
            return {std::nullopt, kPhaseStallError};
        rs = std::move(*round_rs);
        if (round + 1 < rounds) {
            for (std::size_t i = 0; i < n; ++i) {
                const double target =
                    inputs[i].meanDemand() * rs[i] / 100.0;
                pressure[i] += opts.damping * (target - pressure[i]);
            }
        }
    }
    return {std::move(rs), {}};
}

std::vector<double>
predictCorun(const std::vector<CorunInput> &inputs,
             const CorunPredictOptions &opts)
{
    CorunPrediction p = tryPredictCorun(inputs, opts);
    PCCS_ASSERT(p.ok(), "%s", p.error.c_str());
    return std::move(*p.relativeSpeeds);
}

} // namespace pccs::model
