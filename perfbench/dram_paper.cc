/**
 * @file
 * dram-paper: the paper-regeneration path on the cycle-level DRAM
 * simulator.
 *
 * One regeneration runs Fig. 5's two-group grid (high-group demand x
 * low-group pressure, plus each row's solo run) for every registered
 * policy on table1Config(), fits each policy's grid with
 * buildModelParams, scores the fit on seeded held-out demand points,
 * runs a calibrateMultiMc sweep under both address mappings, and
 * writes the run artifact through runner. The DRAM points run on a
 * SweepEngine of fixed size. The run repeats that regeneration until
 * its time is up and reports medians.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "calib/calibrator.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "dram/system.hh"
#include "pccs/builder.hh"
#include "pccs/model.hh"
#include "dram_grid.hh"
#include "runner/run_spec.hh"
#include "runner/sweep_engine.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

using namespace pccs;

namespace {

/** Engine jobs for the DRAM points (fixed, not from the host). */
constexpr unsigned kJobs = 4;
/**
 * Extra set-ups timed before each regeneration. setup_s is the median
 * over them and the first set-up: the host's speed changes from one
 * second to the next, so set-ups spread over the run are a steadier
 * sample than ones back to back.
 */
constexpr int kSetupsPerRegen = 3;
/** Warm-up cycles per policy during set-up. */
constexpr Cycles kWarmupProbe = 8000;

/** Bus cycles of warm-up and measurement per point (Fig. 5's). */
constexpr Cycles kWarmup = 15000;
constexpr Cycles kWindow = 60000;
/**
 * Generator seeds (Fig. 5's): kLowSeed + core for the low group,
 * kHighSeed + core for the high group.
 */
constexpr std::uint64_t kLowSeed = 1000;
constexpr std::uint64_t kHighSeed = 2000;
/** Largest seeded shift of a held-out demand, GB/s. */
constexpr double kJitter = 3.0;

/** What one simulated point produced. */
struct PointResult
{
    /** Lines the high group completed in the measurement window. */
    std::uint64_t highLines = 0;
    dram::ControllerStats stats;
    bool saturated = false;
    Cycles cycles = 0;
    /** Host time inside DramSystem::run, and for the whole point. */
    std::int64_t runNs = 0;
    std::int64_t wallNs = 0;
};

PointResult
simulate(const DramPoint &pt, const std::string &policy, Cycles warmup,
         Cycles window)
{
    const std::int64_t t0 = nowNs();
    PointResult r;
    dram::DramSystem sys(dram::table1Config(), policy);
    std::vector<std::size_t> high;
    for (unsigned c = 0; c < kGroupCores; ++c) {
        if (pt.low <= 0.0)
            break;
        dram::TrafficParams p;
        p.source = c;
        p.demand = pt.low / kGroupCores;
        p.seed = kLowSeed + c;
        sys.addGenerator(p);
    }
    for (unsigned c = 0; c < kGroupCores; ++c) {
        dram::TrafficParams p;
        p.source = kGroupCores + c;
        p.demand = pt.high / kGroupCores;
        p.seed = kHighSeed + c;
        high.push_back(sys.addGenerator(p));
    }
    {
        Span s("dram", "run");
        const std::int64_t r0 = nowNs();
        sys.run(warmup);
        sys.resetMeasurement();
        sys.run(window);
        r.runNs = nowNs() - r0;
    }
    r.cycles = warmup + window;
    std::uint64_t all_lines = 0;
    for (std::size_t i = 0; i < sys.numGenerators(); ++i)
        all_lines += sys.generator(i).completedLines();
    for (std::size_t i : high)
        r.highLines += sys.generator(i).completedLines();
    r.stats = sys.controller().stats();
    // Saturated: the memory delivered clearly less than was offered.
    const dram::DramConfig cfg = dram::table1Config();
    const double seconds = static_cast<double>(window) /
                           mhzToHz(cfg.timing.busClockMhz);
    const double achieved = static_cast<double>(all_lines) *
                            cfg.lineBytes / seconds / bytesPerGB;
    r.saturated = achieved < 0.95 * (pt.high + pt.low);
    r.wallNs = nowNs() - t0;
    return r;
}

/** Per-regeneration measurements. */
struct Regen
{
    double wallS = 0.0;
    double pointsWallS = 0.0;
    double errorPp = 0.0;
    std::vector<double> pointMs;
    std::vector<PointResult> points;
    std::uint64_t regenSpan = 0;
    bool traced = false;
    double multiMcS = 0.0;
    double fitS = 0.0;
    double artifactS = 0.0;
    /** Largest |CAS commands - completions| of any point. */
    std::uint64_t maxInFlightDrift = 0;
};

Regen
regenerate(const DramGrid &grid, runner::SweepEngine &engine,
           const RunOptions &opts, Report &report, int iteration)
{
    Regen out;
    Span root("bench", "regen");
    out.regenSpan = root.id();
    const std::int64_t t0 = nowNs();

    // 1. Every grid and held-out point, in parallel on the engine.
    out.points.resize(grid.points.size());
    const std::uint64_t parent = root.id();
    engine.parallelFor(grid.points.size(), [&](std::size_t i) {
        Span s("runner", "point", parent);
        const DramPoint &pt = grid.points[i];
        out.points[i] = simulate(pt, grid.policies[pt.policy],
                                 grid.warmup, grid.window);
    });
    out.pointsWallS = static_cast<double>(nowNs() - t0) * 1e-9;
    for (std::size_t i = 0; i < out.points.size(); ++i) {
        const PointResult &r = out.points[i];
        const dram::ControllerStats &st = r.stats;
        out.pointMs.push_back(static_cast<double>(r.wallNs) * 1e-6);
        if (iteration == 0) {
            report.check(st.rowHits + st.rowMisses == st.reads + st.writes,
                         "dram point " + std::to_string(i) +
                             ": rowHits + rowMisses != reads + writes");
            // Bytes are counted when a CAS issues and completions when
            // the data returns, so inside a measurement window the two
            // differ by the requests in flight at its edges, at most
            // what the request buffer holds.
            const std::uint64_t cas = st.reads + st.writes;
            const std::uint64_t line = dram::table1Config().lineBytes;
            report.check(st.bytesTransferred == line * cas,
                         "dram point " + std::to_string(i) +
                             ": bytesTransferred != 64 x CAS commands");
            const std::uint64_t drift =
                cas > st.completed ? cas - st.completed : st.completed - cas;
            out.maxInFlightDrift = std::max(out.maxInFlightDrift, drift);
            report.check(drift <= dram::table1Config().requestBufferEntries,
                         "dram point " + std::to_string(i) +
                             ": completed differs from CAS commands by " +
                             std::to_string(drift));
            report.check(r.highLines > 0, "dram point " +
                                              std::to_string(i) +
                                              ": high group idle");
        }
    }

    // 2. Fit each policy's grid; score it on its held-out points.
    runner::RunResult artifact;
    artifact.spec.experiment = "perfbench_dram_paper";
    artifact.spec.title = "Fig. 5 grid, fits and held-out error";
    artifact.spec.paperRef = "Figure 5, Tables 1 & 2";
    artifact.spec.socName = "table1-ddr4";
    artifact.spec.puName = "high group";
    artifact.spec.externalBw = grid.lows;
    Table summary({"policy", "normalBW", "intensiveBW", "rateN",
                   "held-out err (pp)"});
    double err_sum = 0.0;
    std::size_t err_n = 0;
    for (std::size_t p = 0; p < grid.policies.size(); ++p) {
        calib::CalibrationMatrix m;
        m.standaloneBw = grid.highs;
        m.externalBw = grid.lows;
        for (std::size_t h = 0; h < grid.highs.size(); ++h) {
            const double solo = static_cast<double>(
                out.points[grid.soloIndex(p, h)].highLines);
            std::vector<double> row;
            for (std::size_t l = 0; l < grid.lows.size(); ++l)
                row.push_back(100.0 *
                              static_cast<double>(
                                  out.points[grid.corunIndex(p, h, l)]
                                      .highLines) /
                              solo);
            m.rela.push_back(std::move(row));
        }
        model::PccsParams params;
        {
            Span s("pccs", "fit");
            const std::int64_t f0 = nowNs();
            params = model::buildModelParams(
                m, dram::table1Config().peakBandwidth());
            out.fitS += static_cast<double>(nowNs() - f0) * 1e-9;
        }
        if (iteration == 0)
            report.check(params.valid(), "fit of " + grid.policies[p] +
                                             " is not a valid model");
        double policy_err = 0.0;
        {
            Span s("pccs", "score");
            const model::PccsModel model(params);
            for (std::size_t k = 0; k < grid.heldOut.size(); ++k) {
                const auto [solo_i, corun_i] = grid.heldOutIndex(p, k);
                const DramPoint &pt = grid.points[corun_i];
                const double measured =
                    100.0 *
                    static_cast<double>(out.points[corun_i].highLines) /
                    static_cast<double>(out.points[solo_i].highLines);
                policy_err +=
                    std::abs(model.relativeSpeed(pt.high, pt.low) - measured);
            }
        }
        err_sum += policy_err;
        err_n += grid.heldOut.size();
        summary.addRow({grid.policies[p], fmtDouble(params.normalBw, 3),
                        fmtDouble(params.intensiveBw, 3),
                        fmtDouble(params.rateN, 4),
                        fmtDouble(policy_err / grid.heldOut.size(), 3)});
    }
    out.errorPp = err_sum / static_cast<double>(err_n);
    if (iteration == 0)
        report.check(std::isfinite(out.errorPp) && out.errorPp > 0.0,
                     "held-out error is not a positive number");
    artifact.addTable("held-out characterization", summary);

    // 3. Multi-MC calibration under both mappings.
    {
        Span s("dram", "multimc");
        const std::int64_t m0 = nowNs();
        for (const dram::McMapping mapping :
             {dram::McMapping::LineInterleaved,
              dram::McMapping::RangePartitioned}) {
            calib::McSweepSpec spec = grid.multiMc;
            spec.mapping = mapping;
            const calib::CalibrationMatrix cm =
                calib::calibrateMultiMc(spec, &engine);
            bool sane = cm.rela.size() == spec.numKernels;
            for (const auto &row : cm.rela)
                for (double v : row)
                    sane = sane && std::isfinite(v) && v > 0.0 && v <= 150.0;
            if (iteration == 0)
                report.check(sane, std::string("multi-MC calibration (") +
                                       dram::mcMappingName(mapping) +
                                       ") is malformed");
            Table t({"victim demand", "relative speeds"});
            for (std::size_t i = 0; i < cm.rela.size(); ++i) {
                std::string cells;
                for (double v : cm.rela[i])
                    cells += fmtDouble(v, 2) + " ";
                t.addRow({fmtDouble(cm.standaloneBw[i], 3), cells});
            }
            artifact.addTable(std::string("multi-MC ") +
                                  dram::mcMappingName(mapping),
                              t);
        }
        out.multiMcS = static_cast<double>(nowNs() - m0) * 1e-9;
    }

    // 4. The run artifact, through runner.
    {
        Span s("runner", "artifact.write");
        const std::int64_t a0 = nowNs();
        const std::string path = artifact.writeArtifacts(opts.workdir);
        out.artifactS = static_cast<double>(nowNs() - a0) * 1e-9;
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        report.check(!ec && size > 0, "artifact " + path + " missing");
        std::filesystem::remove(path, ec);
        std::filesystem::remove(
            std::filesystem::path(path).replace_extension(".csv"), ec);
    }
    out.wallS = static_cast<double>(nowNs() - t0) * 1e-9;
    return out;
}

} // namespace

DramGrid
makeDramGrid(std::uint64_t seed)
{
    DramGrid g;
    for (const std::string &name : dram::schedulerNames())
        for (const char *want : kPolicyNames)
            if (name == want)
                g.policies.push_back(name);
    g.highs = {18.0, 36.0, 54.0, 72.0, 90.0};
    g.lows = {10.0, 20.0, 30.0, 40.0, 50.0, 60.0};
    g.warmup = kWarmup;
    g.window = kWindow;

    // Held-out points sit at fixed cells between the grid's rows and
    // columns, jittered by the seed: each seed scores the fit on new
    // points without moving them to where the error is much larger or
    // smaller.
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 0xD1B54A32D192ED03ull);
    // The address streams are Fig. 5's; the seed moves the held-out
    // points and the multi-MC sweep.
    for (std::size_t r = 0; r + 1 < g.highs.size(); ++r)
        g.heldHighs.push_back((g.highs[r] + g.highs[r + 1]) / 2 +
                              rng.uniform(-kJitter, kJitter));
    for (std::size_t r = 0; r < g.heldHighs.size(); ++r) {
        for (const std::size_t c : {r % 5, (r + 2) % 5}) {
            const double low = (g.lows[c] + g.lows[c + 1]) / 2;
            g.heldOut.push_back({r, low + rng.uniform(-kJitter, kJitter)});
        }
    }
    for (std::size_t p = 0; p < g.policies.size(); ++p) {
        for (double h : g.highs)
            g.points.push_back({p, h, 0.0});
        for (double h : g.highs)
            for (double l : g.lows)
                g.points.push_back({p, h, l});
        for (double h : g.heldHighs)
            g.points.push_back({p, h, 0.0});
        for (const HeldOut &o : g.heldOut)
            g.points.push_back({p, g.heldHighs[o.row], o.low});
    }

    g.multiMc.numMcs = 2;
    g.multiMc.numKernels = 3;
    g.multiMc.numExternal = 3;
    g.multiMc.warmup = 4000;
    g.multiMc.window = 16000;
    g.multiMc.seed = 1 + rng.below(1u << 30);
    return g;
}

void
runDramPaper(const RunOptions &opts, Report &report)
{
    report.setting("engine_jobs", kJobs);
    report.setting("rates", "wall");

    // Set-up: engine, seeded grid, and a short warm-up run of every
    // policy. The first set-up's engine and grid run the regenerations.
    std::vector<double> setups;
    std::uint64_t setupSpan = 0;
    const auto setUp = [&](DramGrid &grid_out) {
        Span root("bench", "setup");
        setupSpan = root.id();
        const std::int64_t t0 = nowNs();
        std::unique_ptr<runner::SweepEngine> e;
        {
            Span s("runner", "engine.start");
            e = std::make_unique<runner::SweepEngine>(kJobs);
        }
        grid_out = makeDramGrid(opts.seed);
        // Serial, so one preempted virtual CPU does not hold it up.
        for (std::size_t p = 0; p < grid_out.policies.size(); ++p) {
            Span w("dram", "warmup");
            const DramPoint pt{p, 90.0, 60.0};
            simulate(pt, grid_out.policies[p], kWarmupProbe / 3, kWarmupProbe);
        }
        setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        return e;
    };
    DramGrid grid;
    std::unique_ptr<runner::SweepEngine> engine = setUp(grid);
    report.check(grid.policies.size() == kPolicyNames.size(),
                 "expected 8 registered policies");

    // Measure: whole regenerations until the time is up. The traced
    // run alternates traced and untraced regenerations so it can
    // report the tracing overhead.
    const bool traced_run = tracing();
    std::vector<Regen> regens;
    std::vector<double> traced_wall, plain_wall;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opts.seconds * 1e9);
    const int min_regens = traced_run ? 5 : 3;
    for (int it = 0; nowNs() < deadline || it < min_regens; ++it) {
        for (int k = 0; k < kSetupsPerRegen; ++k) {
            DramGrid scratch;
            setUp(scratch);
        }
        const bool trace_this = traced_run && it % 2 == 1;
        setTracing(trace_this);
        Regen r = regenerate(grid, *engine, opts, report, it);
        setTracing(traced_run);
        if (it > 0) // the first regeneration also warms caches
            (trace_this ? traced_wall : plain_wall).push_back(r.wallS);
        if (it > 0) {
            bool same = r.points.size() == regens.front().points.size() &&
                        r.errorPp == regens.front().errorPp;
            for (std::size_t i = 0; same && i < r.points.size(); ++i)
                same = r.points[i].highLines ==
                           regens.front().points[i].highLines &&
                       r.points[i].stats.completed ==
                           regens.front().points[i].stats.completed;
            report.check(same, "regeneration " + std::to_string(it) +
                                   " differs from the first");
        }
        r.traced = trace_this;
        regens.push_back(std::move(r));
    }

    // A point's latency is its median wall time over the
    // regenerations, so one preempted run of it does not count.
    std::vector<double> walls, rates, point_ms;
    for (const Regen &r : regens) {
        walls.push_back(r.wallS);
        rates.push_back(static_cast<double>(r.points.size()) / r.pointsWallS);
    }
    for (std::size_t i = 0; i < grid.points.size(); ++i) {
        std::vector<double> runs;
        for (const Regen &r : regens)
            runs.push_back(r.pointMs[i]);
        point_ms.push_back(median(runs));
    }
    report.setting("regenerations", static_cast<double>(regens.size()));
    std::string setup_list;
    for (double v : setups) {
        if (!setup_list.empty())
            setup_list += ' ';
        setup_list += std::to_string(v);
    }
    report.setting("setup_runs_s", setup_list);
    report.setting("max_in_flight_drift",
                   static_cast<double>(regens.front().maxInFlightDrift));
    // Exact simulated results, in both modes, so traced and untraced
    // runs of one seed can be compared.
    double completed = 0, hits = 0, cas = 0;
    for (const PointResult &p : regens.front().points) {
        completed += static_cast<double>(p.stats.completed);
        hits += static_cast<double>(p.stats.rowHits);
        cas += static_cast<double>(p.stats.rowHits + p.stats.rowMisses);
    }
    const double row_hit_ratio = hits / cas;
    report.setting("dram_completed", completed);
    report.setting("dram_row_hit_ratio", row_hit_ratio);
    report.setting("pccs_error_pp", regens.front().errorPp);
    report.setting("points_per_regeneration",
                   static_cast<double>(grid.points.size()));

    if (!traced_run) {
        report.set("setup_s", median(setups));
        report.set("regen_s", median(walls));
        report.set("pccs_error_pp", regens.front().errorPp);
        report.set("latency_p50_ms", percentile(point_ms, 50.0));
        report.set("max_rate_rps", median(rates));
        report.setting("latency_points",
                       static_cast<double>(point_ms.size()));
        return;
    }

    // Per-layer figures from the traced regenerations.
    const std::vector<SpanRecord> spans = collectSpans();
    std::vector<double> run_s, fit_s, multi_s, art_s, busy, cover;
    double cycles = 0, run_ns = 0, sat_cycles = 0, sat_ns = 0,
           light_cycles = 0, light_ns = 0;
    std::vector<double> pol_cycles(grid.policies.size()),
        pol_ns(grid.policies.size());
    std::vector<double> run_share;
    for (const Regen &r : regens) {
        if (!r.traced)
            continue;
        double sum_run = 0, sum_point = 0;
        for (std::size_t i = 0; i < r.points.size(); ++i) {
            const PointResult &p = r.points[i];
            const double c = static_cast<double>(p.cycles);
            const double ns = static_cast<double>(p.runNs);
            sum_run += ns;
            sum_point += static_cast<double>(p.wallNs);
            cycles += c;
            run_ns += ns;
            (p.saturated ? sat_cycles : light_cycles) += c;
            (p.saturated ? sat_ns : light_ns) += ns;
            pol_cycles[grid.points[i].policy] += c;
            pol_ns[grid.points[i].policy] += ns;
            run_share.push_back(ns / static_cast<double>(p.wallNs));
        }
        run_s.push_back(sum_run * 1e-9);
        fit_s.push_back(r.fitS);
        multi_s.push_back(r.multiMcS);
        art_s.push_back(r.artifactS);
        busy.push_back(sum_point * 1e-9 / (r.pointsWallS * kJobs));
        cover.push_back(childCoverage(spans, r.regenSpan));
    }
    const auto rate = [](double c, double ns) {
        return ns > 0 ? c / (ns * 1e-9) : 0.0;
    };
    report.set("dram.run_s", median(run_s));
    report.set("dram.cycles_per_s", rate(cycles, run_ns));
    report.set("dram.saturated.cycles_per_s", rate(sat_cycles, sat_ns));
    report.set("dram.light.cycles_per_s", rate(light_cycles, light_ns));
    for (std::size_t p = 0; p < grid.policies.size(); ++p)
        report.set("dram.policy." + grid.policies[p] + ".cycles_per_s",
                   rate(pol_cycles[p], pol_ns[p]));
    report.set("dram.multimc.run_s", median(multi_s));
    report.set("dram.completed", completed);
    report.set("dram.row_hit_ratio", row_hit_ratio);
    report.set("pccs.fit_s", median(fit_s));
    report.set("runner.busy_ratio", median(busy));
    report.set("artifact.write_s", median(art_s));
    report.set("runner.cache_hit_ratio",
               engine->cache().stats().hitRate());
    report.set("share.regen_s", median(cover));
    report.set("share.setup_s", childCoverage(spans, setupSpan));
    report.set("share.latency_p50_ms", median(run_share));
    report.set("trace.overhead_pct",
               100.0 * (median(traced_wall) / median(plain_wall) - 1.0));
    report.setting("overhead_regenerations",
                   static_cast<double>(traced_wall.size() +
                                       plain_wall.size()));
}

} // namespace perfbench
