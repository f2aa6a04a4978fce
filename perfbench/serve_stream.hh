/**
 * @file
 * The serve workloads' inputs: the five served PU models and the
 * seeded request stream.
 *
 * serve-predict sends only `predict` frames; most name one demand
 * point (the server's fast scanner path) and a minority carry
 * multi-phase `phases` (its generic Json path). serve-mixed repeats a
 * period of kPeriod requests: mostly predicts, plus corun, place and
 * explore reads drawn from small fixed query sets (so memoization has
 * something to hit), and on connection 0 one schedule/complete pair,
 * one slot that completes a job the QoS queue promoted (a sched_stats
 * when there is none), and every kReloadEvery-th period a path-less
 * reload of the file-backed model.
 */

#ifndef PERFBENCH_SERVE_STREAM_HH
#define PERFBENCH_SERVE_STREAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "loadgen.hh"
#include "pccs/phases.hh"
#include "soc/soc_config.hh"

namespace perfbench {

/** Operation tags of the stream (LoadRequest::op). */
enum Op : std::uint8_t {
    kPredict,
    kCorun,
    kPlace,
    kExplore,
    kSchedule,
    kComplete,
    kSchedStats,
    kReload,
    kOpCount
};

/** Wire names of the ops, indexed by Op. */
extern const char *const kOpNames[kOpCount];

/** One served PU model. */
struct ServedPu
{
    /** Registry name, "<soc>.<pu>". */
    std::string name;
    /** "xavier" or "snapdragon" (the serve protocol's SoC names). */
    std::string soc;
    std::size_t puIndex = 0;
    /** Largest standalone demand the PU can draw, GB/s. */
    double maxDraw = 0.0;
    /** The SoC's peak bandwidth, GB/s. */
    double peak = 0.0;
};

/** The five PUs of the Xavier-like and Snapdragon-like presets. */
std::vector<ServedPu> servedPus();

/** The served model that set-up loads from a file (reload target). */
inline constexpr std::size_t kFileModel = 1; // xavier.gpu

/** Requests per serve-mixed period; positions of its fixed ops. */
inline constexpr std::size_t kPeriod = 100;
inline constexpr std::size_t kSchedulePos = 10;
inline constexpr std::size_t kCompletePos = 60;
inline constexpr std::size_t kSchedStatsPos = 35;
inline constexpr std::size_t kReloadPos = 85;
/**
 * Periods per reload. Assumed, not measured: at the nominal 5 000
 * requests/s it reloads ten times a second, so every nominal run
 * crosses several registry versions.
 */
inline constexpr std::size_t kReloadEvery = 5;

/** What the checker and the replays need to know per request. */
struct StreamEntry
{
    std::size_t model = 0;
    double external = 0.0;
    /** One entry for single-point predicts. */
    std::vector<pccs::model::PhaseDemand> phases;
    /** corun entries: (model, demand). */
    std::vector<std::pair<std::size_t, double>> corun;
    /** Index into the place, explore or schedule query sets. */
    std::size_t query = 0;
};

struct PlaceQuery
{
    std::vector<std::string> benches;
};

struct ExploreQuery
{
    std::string pu; ///< "cpu" or "gpu"
    std::string bench;
    double external = 0.0;
    double allowed = 0.0;
};

struct ScheduleQuery
{
    std::string bench;
    double slo = 2.0;
};

/** The whole request stream of one serve workload. */
struct ServeStream
{
    std::vector<LoadRequest> requests;
    std::vector<StreamEntry> entries;
    std::vector<PlaceQuery> places;
    std::vector<ExploreQuery> explores;
    std::vector<ScheduleQuery> schedules;
};

/**
 * Build the stream for `seed` (the same seed gives the same stream).
 * Frames of `complete` and `sched_stats` slots are left empty: they
 * name jobs the scheduler returned and are built when sent.
 */
ServeStream makeServeStream(std::uint64_t seed, bool mixed,
                            std::size_t length, std::uint32_t connections);

/** The frame of a `complete` for `job` (or a sched_stats without one). */
std::string completeFrame(std::size_t id, const std::string &job);

} // namespace perfbench

#endif // PERFBENCH_SERVE_STREAM_HH
