/**
 * @file
 * The benchmark's result: named metrics with units, the correctness
 * tally, and the host/settings record printed beside them.
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** A metric's name and unit, as listed in BENCHMARK.json. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics every untraced run reports. */
const std::vector<MetricSpec> &endToEndMetrics();

/** The per-layer metrics every traced run reports. */
const std::vector<MetricSpec> &perLayerMetrics();

/** Metrics plus the correctness tally of one run. */
class Report
{
  public:
    /** Record a metric; `name` must be in the run's metric list. */
    void set(const std::string &name, double value);

    /** @return a recorded value, or `fallback`. */
    double get(const std::string &name, double fallback = 0.0) const;

    /**
     * Count one checked operation. A failing check is counted and its
     * first few diagnostics go to stderr.
     */
    void check(bool ok, const std::string &what);

    /** Count `n` operations that passed their checks elsewhere. */
    void pass(std::uint64_t n) { attempted_ += n; }

    /** Count `n` operations that failed without a diagnostic each. */
    void fail(std::uint64_t n, const std::string &what);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Host and settings, printed as their own line. */
    void setting(const std::string &key, const std::string &value);
    void setting(const std::string &key, double value);

    /**
     * Print the human-readable table, the settings line, and the
     * final one-line JSON result for `specs` (metrics the workload did
     * not set print as 0: that layer did no work). @return false when
     * an end-to-end metric is missing, which is a benchmark bug.
     */
    bool print(const std::vector<MetricSpec> &specs,
               bool require_all) const;

  private:
    std::map<std::string, double> values_;
    std::vector<std::pair<std::string, std::string>> settings_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    unsigned reported_ = 0;
};

/** Peak resident set size of this process, MB. */
double peakRssMb();

/** First "model name" of /proc/cpuinfo, or "unknown". */
std::string cpuModel();

/** CPUs this process may run on (what `nproc` prints). */
unsigned usableCpus();

/** Compiler and build type this binary was built with. */
const char *compilerName();
const char *buildType();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH
