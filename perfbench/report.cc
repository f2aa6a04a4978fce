#include "report.hh"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <utility>

#include "runner/run_spec.hh"

namespace perfbench {

using pccs::runner::jsonEscape;
using pccs::runner::jsonNumber;

const std::vector<MetricSpec> &
endToEndMetrics()
{
    static const std::vector<MetricSpec> specs{
        {"setup_s", "s"},
        {"regen_s", "s"},
        {"pccs_error_pp", "pp"},
        {"latency_p50_ms", "ms"},
        {"max_rate_rps", "1/s"},
        {"peak_rss_mb", "MB"},
        {"success_ratio", "ratio"},
    };
    return specs;
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs{
        // dram
        {"dram.run_s", "s"},
        {"dram.cycles_per_s", "1/s"},
        {"dram.saturated.cycles_per_s", "1/s"},
        {"dram.light.cycles_per_s", "1/s"},
        {"dram.policy.FCFS.cycles_per_s", "1/s"},
        {"dram.policy.FR-FCFS.cycles_per_s", "1/s"},
        {"dram.policy.ATLAS.cycles_per_s", "1/s"},
        {"dram.policy.TCM.cycles_per_s", "1/s"},
        {"dram.policy.SMS.cycles_per_s", "1/s"},
        {"dram.policy.BLISS.cycles_per_s", "1/s"},
        {"dram.policy.PARBS.cycles_per_s", "1/s"},
        {"dram.policy.MEDUSA.cycles_per_s", "1/s"},
        {"dram.multimc.run_s", "s"},
        {"dram.completed", "count"},
        {"dram.row_hit_ratio", "ratio"},
        // calib / pccs
        {"pccs.fit_s", "s"},
        {"setup.calibrate_s", "s"},
        {"setup.fit_s", "s"},
        {"pccs.batch_ns", "ns"},
        {"pccs.explore_us", "us"},
        {"pccs.corun_us", "us"},
        {"pccs.place_us", "us"},
        // runner
        {"runner.busy_ratio", "ratio"},
        {"artifact.write_s", "s"},
        {"runner.number_format_ns", "ns"},
        {"runner.cache_hit_ratio", "ratio"},
        // serve
        {"serve.frame_ns", "ns"},
        {"serve.handle_ns", "ns"},
        {"serve.json_parse_ns", "ns"},
        {"serve.batch_mean", "count"},
        {"serve.server_p50_us.predict", "us"},
        {"serve.server_p50_us.corun", "us"},
        {"serve.server_p50_us.place", "us"},
        {"serve.server_p50_us.explore", "us"},
        {"serve.server_p50_us.schedule", "us"},
        {"serve.server_p50_us.complete", "us"},
        {"serve.server_p50_us.reload", "us"},
        {"serve.transport_us", "us"},
        {"serve.reload_us", "us"},
        {"serve.op.predict.p50_ms", "ms"},
        {"serve.op.corun.p50_ms", "ms"},
        {"serve.op.place.p50_ms", "ms"},
        {"serve.op.explore.p50_ms", "ms"},
        {"serve.op.schedule.p50_ms", "ms"},
        {"serve.op.complete.p50_ms", "ms"},
        {"serve.op.reload.p50_ms", "ms"},
        {"setup.server_start_s", "s"},
        // sched
        {"sched.submit_us", "us"},
        {"sched.admitted_ratio", "ratio"},
        // load generator
        {"serve.latency_p99_ms", "ms"},
        {"loadgen.late_p99_ms", "ms"},
        // span accounting
        {"self.bench_s", "s"},
        {"self.dram_s", "s"},
        {"self.calib_s", "s"},
        {"self.pccs_s", "s"},
        {"self.runner_s", "s"},
        {"self.serve_s", "s"},
        {"self.sched_s", "s"},
        {"self.loadgen_s", "s"},
        {"share.regen_s", "ratio"},
        {"share.setup_s", "ratio"},
        {"share.latency_p50_ms", "ratio"},
        {"trace.overhead_pct", "%"},
        {"trace.spans", "count"},
    };
    return specs;
}

void
Report::set(const std::string &name, double value)
{
    values_[name] = value;
}

double
Report::get(const std::string &name, double fallback) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

void
Report::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (reported_++ < 10)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
    }
}

void
Report::fail(std::uint64_t n, const std::string &what)
{
    if (n == 0)
        return;
    attempted_ += n;
    failed_ += n;
    std::fprintf(stderr, "perfbench: %llu failed: %s\n",
                 static_cast<unsigned long long>(n), what.c_str());
}

void
Report::setting(const std::string &key, const std::string &value)
{
    std::string quoted = "\"";
    quoted += jsonEscape(value);
    quoted += '"';
    settings_.emplace_back(key, std::move(quoted));
}

void
Report::setting(const std::string &key, double value)
{
    settings_.emplace_back(key, jsonNumber(value));
}

bool
Report::print(const std::vector<MetricSpec> &specs, bool require_all) const
{
    bool complete = true;
    for (const auto &[name, value] : values_) {
        bool known = false;
        for (const MetricSpec &s : specs)
            known = known || name == s.name;
        if (!known) {
            std::fprintf(stderr, "perfbench: metric '%s' is not in this "
                                 "run's list\n",
                         name.c_str());
            complete = false;
        }
    }

    std::printf("%-36s %22s  %s\n", "metric", "value", "unit");
    std::string metrics;
    for (const MetricSpec &s : specs) {
        double v = get(s.name, 0.0);
        if (values_.count(s.name) == 0 && require_all) {
            std::fprintf(stderr, "perfbench: metric '%s' was not measured\n",
                         s.name);
            complete = false;
        }
        if (!std::isfinite(v)) {
            std::fprintf(stderr, "perfbench: metric '%s' is not finite\n",
                         s.name);
            complete = false;
            v = 0.0;
        }
        std::printf("%-36s %22.6f  %s\n", s.name, v, s.unit);
        if (!metrics.empty())
            metrics += ", ";
        metrics += '"';
        metrics += s.name;
        metrics += "\": {\"value\": ";
        metrics += jsonNumber(v);
        metrics += ", \"unit\": \"";
        metrics += s.unit;
        metrics += "\"}";
    }

    std::string host;
    for (const auto &[k, v] : settings_) {
        if (!host.empty())
            host += ", ";
        host += '"';
        host += jsonEscape(k);
        host += "\": ";
        host += v;
    }
    std::printf("{\"perfbench_settings\": {%s}}\n", host.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                failed_ == 0 && attempted_ > 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), metrics.c_str());
    std::fflush(stdout);
    return complete;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    const long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1;
}

const char *
compilerName()
{
    return PERFBENCH_COMPILER;
}

const char *
buildType()
{
    return PERFBENCH_BUILD_TYPE;
}

} // namespace perfbench
