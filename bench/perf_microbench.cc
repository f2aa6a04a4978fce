/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths: model
 * evaluation, model construction, bandwidth allocation, the DRAM
 * simulator's event-driven cycle loop, and the SoC
 * co-run solver. These quantify the cost of using PCCS inside a
 * design-space-exploration loop.
 *
 * Beyond the standard google-benchmark flags, `--json <path>` writes a
 * machine-readable snapshot of every run ({benchmark, ns/op, items/s,
 * user counters}) under a header naming the host (CPU model, CPU
 * count), the compiler, the build type and the commit the build tree
 * was configured at — CI stores it as the BENCH_dram.json artifact —
 * and
 * `--min-cycles-per-sec <n>` exits nonzero unless every saturated
 * DRAM row that ran (the headline event-driven row plus each
 * per-policy row) sustained at least `n` simulated cycles/s (the CI
 * perf-smoke floor for the fast issue engine). The per-policy
 * saturated rows are registered under their policy names
 * (`BM_DramCyclesSaturatedPolicy/FR-FCFS`, ...); `--policies a,b` or
 * the PCCS_POLICY_FILTER environment variable restricts which
 * policies get rows, so CI floors can target policy subsets.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calib/calibrator.hh"
#include "dram/multi_mc.hh"
#include "dram/system.hh"
#include "gables/gables.hh"
#include "pccs/builder.hh"
#include "runner/sweep_engine.hh"
#include "soc/simulator.hh"

using namespace pccs;

namespace {

const soc::SocConfig &
xavier()
{
    static const soc::SocConfig cfg = soc::xavierLike();
    return cfg;
}

const model::PccsModel &
gpuModel()
{
    static const model::PccsModel m = [] {
        const soc::SocSimulator sim(xavier());
        return model::buildModel(
            sim, xavier().puIndex(soc::PuKind::Gpu));
    }();
    return m;
}

void
BM_PccsPredict(benchmark::State &state)
{
    const model::PccsModel &m = gpuModel();
    double x = 10.0, y = 5.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.relativeSpeed(x, y));
        x = x < 120.0 ? x + 1.0 : 10.0;
        y = y < 100.0 ? y + 1.0 : 5.0;
    }
}
BENCHMARK(BM_PccsPredict);

void
BM_GablesPredict(benchmark::State &state)
{
    const gables::GablesModel g(137.0);
    double x = 10.0, y = 5.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(g.relativeSpeed(x, y));
        x = x < 120.0 ? x + 1.0 : 10.0;
        y = y < 100.0 ? y + 1.0 : 5.0;
    }
}
BENCHMARK(BM_GablesPredict);

/** Deterministic structure-of-arrays demand grid for batch benches. */
void
fillDemandGrid(std::vector<double> &xs, std::vector<double> &ys,
               std::size_t n)
{
    xs.resize(n);
    ys.resize(n);
    double x = 10.0, y = 5.0;
    for (std::size_t i = 0; i < n; ++i) {
        xs[i] = x;
        ys[i] = y;
        x = x < 120.0 ? x + 1.0 : 10.0;
        y = y < 100.0 ? y + 1.0 : 5.0;
    }
}

void
BM_PccsPredictBatch(benchmark::State &state)
{
    const model::PccsModel &m = gpuModel();
    std::vector<double> xs, ys;
    fillDemandGrid(xs, ys, static_cast<std::size_t>(state.range(0)));
    std::vector<double> speeds(xs.size());
    for (auto _ : state) {
        m.relativeSpeedBatch(xs, ys, speeds);
        benchmark::DoNotOptimize(speeds.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_PccsPredictBatch)->Arg(4096)->ArgNames({"points"});

void
BM_GablesPredictBatch(benchmark::State &state)
{
    const gables::GablesModel g(137.0);
    std::vector<double> xs, ys;
    fillDemandGrid(xs, ys, static_cast<std::size_t>(state.range(0)));
    std::vector<double> speeds(xs.size());
    for (auto _ : state) {
        g.relativeSpeedBatch(xs, ys, speeds);
        benchmark::DoNotOptimize(speeds.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_GablesPredictBatch)->Arg(4096)->ArgNames({"points"});

void
BM_WaterFillAllocation(benchmark::State &state)
{
    const soc::SharedMemorySystem mem(xavier().memory);
    const std::vector<soc::BandwidthDemand> demands{
        {80.0, 0.95, 1.0}, {60.0, 0.9, 1.1}, {25.0, 0.94, 0.8}};
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.allocate(demands));
}
BENCHMARK(BM_WaterFillAllocation);

void
BM_StandaloneProfile(benchmark::State &state)
{
    const soc::SocSimulator sim(xavier());
    const soc::KernelProfile k = calib::makeCalibrator(
        sim.model(), xavier().pu(soc::PuKind::Gpu), 70.0);
    const std::size_t gpu = static_cast<std::size_t>(
        xavier().puIndex(soc::PuKind::Gpu));
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.profile(gpu, k));
}
BENCHMARK(BM_StandaloneProfile);

void
BM_CorunSolve(benchmark::State &state)
{
    const soc::SocSimulator sim(xavier());
    const std::size_t gpu = static_cast<std::size_t>(
        xavier().puIndex(soc::PuKind::Gpu));
    const soc::KernelProfile k = calib::makeCalibrator(
        sim.model(), xavier().pus[gpu], 70.0);
    double y = 10.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim.relativeSpeedUnderPressure(gpu, k, y));
        y = y < 100.0 ? y + 1.0 : 10.0;
    }
}
BENCHMARK(BM_CorunSolve);

void
BM_ModelConstruction(benchmark::State &state)
{
    const soc::SocSimulator sim(xavier());
    const std::size_t gpu = static_cast<std::size_t>(
        xavier().puIndex(soc::PuKind::Gpu));
    for (auto _ : state)
        benchmark::DoNotOptimize(model::buildModel(sim, gpu));
}
BENCHMARK(BM_ModelConstruction)->Unit(benchmark::kMillisecond);

void
BM_DramCyclesUnderLoad(benchmark::State &state)
{
    // Cost of one simulated bus cycle with 16 active cores.
    dram::DramSystem sys(dram::table1Config(),
                         "FR-FCFS");
    for (unsigned c = 0; c < 16; ++c) {
        dram::TrafficParams p;
        p.source = c;
        p.demand = 6.0;
        p.seed = 10 + c;
        sys.addGenerator(p);
    }
    sys.run(10000); // warm the queues
    for (auto _ : state)
        sys.run(static_cast<Cycles>(state.range(0)));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DramCyclesUnderLoad)->Arg(1000)->Unit(
    benchmark::kMicrosecond);

/**
 * Simulated-cycles-per-second of the DRAM run loop, reported via
 * items/s (one item = one simulated bus cycle). Idle-heavy case: one
 * low-demand core, so the event core skips long quiet stretches.
 */
void
BM_DramCyclesIdleSingleEventDriven(benchmark::State &state)
{
    dram::DramSystem sys(dram::table1Config(), "FR-FCFS");
    dram::TrafficParams p;
    p.source = 0;
    p.demand = 0.8; // ~1 line every ~240 cycles
    p.mlp = 8;
    p.seed = 7;
    sys.addGenerator(p);
    sys.run(10000);
    for (auto _ : state)
        sys.run(static_cast<Cycles>(state.range(0)));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DramCyclesIdleSingleEventDriven)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/**
 * Saturated case: four cores demanding 120 GB/s against a 102.4 GB/s
 * system; nearly every cycle is active, so the event core's win comes
 * from the incremental controller bookkeeping, not from skipping.
 */
void
BM_DramCyclesSaturated4EventDriven(benchmark::State &state)
{
    dram::DramSystem sys(dram::table1Config(), "FR-FCFS");
    for (unsigned c = 0; c < 4; ++c) {
        dram::TrafficParams p;
        p.source = c;
        p.demand = 30.0;
        p.seed = 20 + c;
        sys.addGenerator(p);
    }
    sys.run(10000); // fill the queues
    for (auto _ : state)
        sys.run(static_cast<Cycles>(state.range(0)));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DramCyclesSaturated4EventDriven)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

/**
 * The same saturated workload once per registered policy, so each
 * policy's fastPick() cost under the mask-based issue path is
 * visible. Registered programmatically from main() so each row carries
 * its policy name (`BM_DramCyclesSaturatedPolicy/FR-FCFS`) instead of
 * a registry index, and so `--policies` can restrict the set. Each
 * row also reports the controller's evaluation counters per iteration
 * (dram::ControllerCounters): channel evaluations, commands, and the
 * empty evaluations by cause.
 */
void
dramCyclesSaturatedPolicy(benchmark::State &state,
                          const std::string &policy)
{
    constexpr Cycles kCycles = 20000;
    dram::DramSystem sys(dram::table1Config(), policy);
    for (unsigned c = 0; c < 4; ++c) {
        dram::TrafficParams p;
        p.source = c;
        p.demand = 30.0;
        p.seed = 20 + c;
        sys.addGenerator(p);
    }
    sys.run(10000); // fill the queues
    const dram::ControllerCounters before = sys.controller().counters();
    for (auto _ : state)
        sys.run(kCycles);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kCycles));
    const dram::ControllerCounters &after = sys.controller().counters();
    const auto per_iteration = [](std::uint64_t a, std::uint64_t b) {
        return benchmark::Counter(static_cast<double>(a - b),
                                  benchmark::Counter::kAvgIterations);
    };
    state.counters["evals"] =
        per_iteration(after.evaluations, before.evaluations);
    state.counters["commands"] =
        per_iteration(after.commands, before.commands);
    state.counters["empty_idle"] =
        per_iteration(after.emptyIdle, before.emptyIdle);
    state.counters["empty_declined"] =
        per_iteration(after.emptyDeclined, before.emptyDeclined);
    state.counters["empty_pending"] =
        per_iteration(after.emptyPending, before.emptyPending);
}

/**
 * Simulated-cycles-per-second of the two multi-MC run loops
 * (4 MCs x 1 channel, range-partitioned). Idle/mixed case: two
 * low-demand cores in two slices, so two controllers are completely
 * idle — the event-driven loop jumps over the quiet stretches, and
 * the sharded loop runs the four whole-run-independent shards on
 * pool threads.
 */
void
multiMcCycles(benchmark::State &state, dram::McRunMode mode,
              bool saturated, const std::string &policy = "FR-FCFS",
              Cycles cycles = 0) // 0: take the count from range(0)
{
    dram::DramConfig cfg = dram::table1Config();
    cfg.channels = 1;
    cfg.requestBufferEntries = 64;
    dram::MultiMcSystem sys(cfg, 4, policy,
                            dram::McMapping::RangePartitioned,
                            dram::SchedulerParams{}, mode);
    const unsigned sources = saturated ? 4 : 2;
    for (unsigned c = 0; c < sources; ++c) {
        dram::TrafficParams p;
        p.source = c * 16; // one source slice per controller
        // Saturated: 30 GB/s against 25.6 GB/s per MC. Idle: a
        // trickle (~1 line every ~240 cycles) on half the MCs.
        p.demand = saturated ? 30.0 : 0.8;
        p.mlp = saturated ? 64 : 8;
        p.seed = 20 + c;
        sys.addGenerator(p);
    }
    sys.run(10000);
    if (cycles == 0)
        cycles = static_cast<Cycles>(state.range(0));
    for (auto _ : state)
        sys.run(cycles);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cycles));
}

void
BM_MultiMcCyclesIdleEventDriven(benchmark::State &state)
{
    multiMcCycles(state, dram::McRunMode::EventDriven, false);
}
BENCHMARK(BM_MultiMcCyclesIdleEventDriven)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void
BM_MultiMcCyclesIdleSharded(benchmark::State &state)
{
    multiMcCycles(state, dram::McRunMode::Sharded, false);
}
BENCHMARK(BM_MultiMcCyclesIdleSharded)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/**
 * Saturated case: one 30 GB/s core per 25.6 GB/s controller, so every
 * controller is active nearly every cycle. Skipping buys little here;
 * the sharded loop's four parallel shards carry the win.
 */
void
BM_MultiMcCyclesSaturatedEventDriven(benchmark::State &state)
{
    multiMcCycles(state, dram::McRunMode::EventDriven, true);
}
BENCHMARK(BM_MultiMcCyclesSaturatedEventDriven)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void
BM_MultiMcCyclesSaturatedSharded(benchmark::State &state)
{
    multiMcCycles(state, dram::McRunMode::Sharded, true);
}
BENCHMARK(BM_MultiMcCyclesSaturatedSharded)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

/**
 * The saturated multi-MC workload once per registered policy
 * (event-driven mode — each MemoryController inherits the fast issue
 * engine, so these rows show the per-source tier passes under the
 * multi-controller loops). Registered programmatically from main()
 * with policy-name row labels, same as the single-MC per-policy rows.
 */
void
multiMcCyclesSaturatedPolicy(benchmark::State &state,
                             const std::string &policy)
{
    multiMcCycles(state, dram::McRunMode::EventDriven, true, policy,
                  20000);
}

/**
 * Register the per-policy saturated rows, restricted to `filter` when
 * non-empty (entries already validated against the registry). Called
 * from main() after benchmark::Initialize so each row is named after
 * its policy rather than a registry index.
 */
void
registerPerPolicyBenchmarks(const std::vector<std::string> &filter)
{
    for (const auto &info : dram::schedulerPolicies()) {
        if (!filter.empty() &&
            std::find(filter.begin(), filter.end(), info.name) ==
                filter.end()) {
            continue;
        }
        const std::string name = info.name;
        benchmark::RegisterBenchmark(
            ("BM_DramCyclesSaturatedPolicy/" + name).c_str(),
            [name](benchmark::State &st) {
                dramCyclesSaturatedPolicy(st, name);
            })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            ("BM_MultiMcCyclesSaturatedPolicy/" + name).c_str(),
            [name](benchmark::State &st) {
                multiMcCyclesSaturatedPolicy(st, name);
            })
            ->Unit(benchmark::kMillisecond);
    }
}

/** A 64-point sweep batch (8 kernels x 8 external-BW steps). */
std::vector<runner::EvalPoint>
sweepBatch(const soc::SocSimulator &sim, std::size_t gpu)
{
    std::vector<runner::EvalPoint> points;
    for (unsigned i = 0; i < 8; ++i) {
        const soc::KernelProfile k = calib::makeCalibrator(
            sim.model(), sim.config().pus[gpu], 20.0 + 12.0 * i);
        for (unsigned j = 1; j <= 8; ++j)
            points.push_back({gpu, k, 12.5 * j});
    }
    return points;
}

/**
 * Engine throughput on a cold cache: evaluateBatch of 64 sweep
 * points, serial (jobs=1) vs the hardware-sized pool.
 */
void
BM_EngineSweepThroughput(benchmark::State &state)
{
    const soc::SocSimulator sim(xavier());
    const std::size_t gpu = static_cast<std::size_t>(
        xavier().puIndex(soc::PuKind::Gpu));
    runner::SweepEngine engine(
        static_cast<unsigned>(state.range(0)));
    const auto points = sweepBatch(sim, gpu);
    for (auto _ : state) {
        engine.cache().clear();
        benchmark::DoNotOptimize(engine.evaluateBatch(sim, points));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_EngineSweepThroughput)
    ->Arg(1)
    ->Arg(0) // 0 = hardware concurrency (or PCCS_JOBS)
    ->ArgNames({"jobs"})
    ->Unit(benchmark::kMillisecond);

/** Warm-cache hit path: the same batch re-evaluated repeatedly. */
void
BM_EngineCacheHit(benchmark::State &state)
{
    const soc::SocSimulator sim(xavier());
    const std::size_t gpu = static_cast<std::size_t>(
        xavier().puIndex(soc::PuKind::Gpu));
    runner::SweepEngine engine(1);
    const auto points = sweepBatch(sim, gpu);
    engine.evaluateBatch(sim, points); // warm the cache
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.evaluateBatch(sim, points));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_EngineCacheHit);

/**
 * Console output as usual, plus an in-memory snapshot of every
 * per-iteration run for the `--json` artifact. (A display-reporter
 * subclass, because benchmark's separate file reporter only engages
 * with --benchmark_out.)
 */
class JsonSnapshotReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            if (r.run_type != Run::RT_Iteration || r.error_occurred)
                continue;
            Row row;
            row.name = r.benchmark_name();
            row.nsPerOp = r.iterations
                              ? r.real_accumulated_time /
                                    static_cast<double>(r.iterations) *
                                    1e9
                              : 0.0;
            for (const auto &[name, counter] : r.counters) {
                if (name == "items_per_second")
                    row.itemsPerSecond = counter.value;
                else
                    row.counters.emplace_back(name, counter.value);
            }
            rows_.push_back(std::move(row));
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }

    /**
     * Enforce a throughput floor on every saturated single-MC DRAM
     * row that ran: the headline event-driven row plus each
     * per-policy row (CI perf smoke; the floor binds on the whole
     * registry, and `--policies` narrows the checked set along with
     * the run set).
     * @return true when at least one such row ran and all met the
     *         floor.
     */
    bool checkSaturatedFloor(double min_cycles_per_sec) const
    {
        bool found = false;
        bool ok = true;
        const Row *worst = nullptr;
        for (const Row &row : rows_) {
            if (row.name.rfind("BM_DramCyclesSaturated4EventDriven",
                               0) != 0 &&
                row.name.rfind("BM_DramCyclesSaturatedPolicy/", 0) !=
                    0) {
                continue;
            }
            found = true;
            if (!worst || row.itemsPerSecond < worst->itemsPerSecond)
                worst = &row;
            if (row.itemsPerSecond < min_cycles_per_sec) {
                std::fprintf(stderr,
                             "perf floor FAILED: %s ran %.0f "
                             "cycles/s, floor %.0f\n",
                             row.name.c_str(), row.itemsPerSecond,
                             min_cycles_per_sec);
                ok = false;
            }
        }
        if (!found) {
            std::fprintf(stderr,
                         "perf floor FAILED: no saturated DRAM row "
                         "ran (check --benchmark_filter / "
                         "--policies)\n");
            return false;
        }
        if (ok) {
            std::printf("perf floor ok: worst row %s ran %.0f >= "
                        "%.0f cycles/s\n",
                        worst->name.c_str(), worst->itemsPerSecond,
                        min_cycles_per_sec);
        }
        return ok;
    }

    /** Write the snapshot; fatal-free (a bench must not fail late). */
    void write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return;
        }
        std::fprintf(f,
                     "{\n  \"host\": {\"cpu\": \"%s\", \"nproc\": %u, "
                     "\"compiler\": \"%s\", \"build_type\": \"%s\", "
                     "\"commit\": \"%s\"},\n  \"benchmarks\": [\n",
                     cpuModel().c_str(),
                     std::thread::hardware_concurrency(),
                     PCCS_BENCH_COMPILER, PCCS_BENCH_BUILD_TYPE,
                     PCCS_BENCH_COMMIT);
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row &row = rows_[i];
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                         "\"items_per_second\": %.3f",
                         row.name.c_str(), row.nsPerOp,
                         row.itemsPerSecond);
            for (const auto &[name, value] : row.counters)
                std::fprintf(f, ", \"%s\": %.1f", name.c_str(), value);
            std::fprintf(f, "}%s\n", i + 1 < rows_.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    }

  private:
    struct Row
    {
        std::string name;
        double nsPerOp = 0.0;
        /** Simulated cycles (or sweep points) per wall-clock second. */
        double itemsPerSecond = 0.0;
        /** The row's other user counters, by name. */
        std::vector<std::pair<std::string, double>> counters;
    };

    /** The host's CPU model, from /proc/cpuinfo where there is one. */
    static std::string cpuModel()
    {
        std::ifstream in("/proc/cpuinfo");
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t colon = line.find(':');
            if (line.rfind("model name", 0) == 0 &&
                colon != std::string::npos &&
                colon + 2 <= line.size()) {
                return line.substr(colon + 2);
            }
        }
        return "unknown";
    }
    std::vector<Row> rows_;
};

/**
 * Parse a comma-separated policy list into canonical registry names.
 * Unknown names are a fatal error (a typo in a CI floor should fail
 * loudly, not silently benchmark nothing).
 * @return false on an unknown policy name.
 */
bool
parsePolicyFilter(const std::string &list,
                  std::vector<std::string> &filter)
{
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string token = list.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!token.empty()) {
            const dram::PolicyInfo *info =
                dram::findSchedulerPolicy(token);
            if (!info) {
                std::fprintf(stderr,
                             "unknown policy '%s' (valid: %s)\n",
                             token.c_str(),
                             dram::schedulerNameList().c_str());
                return false;
            }
            filter.push_back(info->name);
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off `--json <path>` / `--json=<path>`,
    // `--min-cycles-per-sec <n>`, and `--policies <a,b>` before
    // benchmark's own flag parsing (it rejects unknown flags).
    std::string json_path;
    std::string policy_list;
    if (const char *env = std::getenv("PCCS_POLICY_FILTER"))
        policy_list = env;
    double min_cycles_per_sec = 0.0;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--min-cycles-per-sec" && i + 1 < argc) {
            min_cycles_per_sec = std::atof(argv[++i]);
        } else if (arg.rfind("--min-cycles-per-sec=", 0) == 0) {
            min_cycles_per_sec = std::atof(arg.c_str() + 21);
        } else if (arg == "--policies" && i + 1 < argc) {
            policy_list = argv[++i];
        } else if (arg.rfind("--policies=", 0) == 0) {
            policy_list = arg.substr(11);
        } else {
            args.push_back(argv[i]);
        }
    }
    std::vector<std::string> policy_filter;
    if (!parsePolicyFilter(policy_list, policy_filter))
        return 1;
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    registerPerPolicyBenchmarks(policy_filter);
    JsonSnapshotReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (!json_path.empty())
        reporter.write(json_path);
    benchmark::Shutdown();
    if (min_cycles_per_sec > 0.0 &&
        !reporter.checkSaturatedFloor(min_cycles_per_sec)) {
        return 1;
    }
    return 0;
}
