/**
 * @file
 * The benchmark binary. run.py builds it and runs:
 *
 *   perfbench --workload dram-paper|serve-predict|serve-mixed
 *             --seed N --seconds S --trace 0|1
 *             --workdir DIR [--commit ID]
 *
 * It prints a metric table, a settings line (host, build, commit and
 * the fixed thread counts), and as its last line the JSON result:
 * the end-to-end metrics when untraced, the per-layer metrics when
 * traced.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "report.hh"
#include "trace.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "dram-paper|serve-predict|serve-mixed --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--commit ID]\n",
                 why);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, commit = "unknown", seed_text = "1",
                              trace_text = "0";
    RunOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("flag " + arg + " needs a value").c_str());
        const std::string value = argv[++i];
        if (arg == "--workload")
            workload = value;
        else if (arg == "--seed")
            seed_text = value;
        else if (arg == "--seconds")
            opts.seconds = std::atof(value.c_str());
        else if (arg == "--trace")
            trace_text = value;
        else if (arg == "--workdir")
            opts.workdir = value;
        else if (arg == "--commit")
            commit = value;
        else
            usage(("unknown flag " + arg).c_str());
    }
    char *end = nullptr;
    opts.seed = std::strtoull(seed_text.c_str(), &end, 10);
    if (seed_text.empty() || *end != '\0')
        usage("--seed must be a whole number");
    if (trace_text != "0" && trace_text != "1")
        usage("--trace must be 0 or 1");
    const bool trace = trace_text == "1";
    if (!(opts.seconds > 0.0))
        usage("--seconds must be > 0");
    if (opts.workdir.empty() || !std::filesystem::is_directory(opts.workdir))
        usage("--workdir must name an existing directory");

    Report report;
    report.setting("workload", workload);
    report.setting("seed", seed_text);
    report.setting("seconds", opts.seconds);
    report.setting("trace", trace ? 1.0 : 0.0);
    report.setting("cpu", cpuModel());
    report.setting("nproc", usableCpus());
    report.setting("compiler", compilerName());
    report.setting("build_type", buildType());
    report.setting("commit", commit);

    setTracing(trace);
    if (workload == "dram-paper")
        runDramPaper(opts, report);
    else if (workload == "serve-predict")
        runServe(opts, false, report);
    else if (workload == "serve-mixed")
        runServe(opts, true, report);
    else
        usage(("unknown workload '" + workload + "'").c_str());
    setTracing(false);

    if (trace) {
        const std::vector<SpanRecord> spans = collectSpans();
        const auto self = layerSelfSeconds(spans);
        for (const char *layer : {"bench", "dram", "calib", "pccs",
                                  "runner", "serve", "sched", "loadgen"}) {
            const auto it = self.find(layer);
            report.set(std::string("self.") + layer + "_s",
                       it == self.end() ? 0.0 : it->second);
        }
        report.set("trace.spans", static_cast<double>(spans.size()));
    } else {
        if (report.get("peak_rss_mb", -1.0) < 0.0)
            report.set("peak_rss_mb", peakRssMb());
        report.set("success_ratio",
                   report.attempted() == 0
                       ? 0.0
                       : static_cast<double>(report.attempted() -
                                             report.failed()) /
                             static_cast<double>(report.attempted()));
    }
    const bool complete = trace
                              ? report.print(perLayerMetrics(), false)
                              : report.print(endToEndMetrics(), true);
    return complete ? 0 : 1;
}
