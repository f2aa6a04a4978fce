/**
 * @file
 * serve-predict and serve-mixed: an in-process serve::Server driven by
 * the open-loop load generator.
 *
 * Set-up calibrates the five PU models of the Xavier-like and
 * Snapdragon-like presets (calib::calibrate, then buildModelParams),
 * publishes them in a ModelRegistry (one through a parameter file, so
 * a path-less `reload` has a file to re-read), and starts the server.
 * It is timed once before the load and again before each nominal load
 * run; setup_s is the median.
 *
 * The run then has two phases: the workload's nominal fixed rate in
 * equal load runs, whose p50/p99 latencies are reported by their
 * median over the runs the host left alone, and repeated searches of a
 * fixed rate ladder for the highest rate that meets the workload's p99
 * limit with the generator on time and no backlog. Every answer is
 * checked as it arrives.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>

#include <sched.h>
#include <unistd.h>

#include "calib/calibrator.hh"
#include "pccs/builder.hh"
#include "pccs/corun.hh"
#include "pccs/design.hh"
#include "pccs/model.hh"
#include "pccs/placement.hh"
#include "pccs/serialize.hh"
#include "runner/run_spec.hh"
#include "runner/sweep_engine.hh"
#include "sched/qos.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/registry.hh"
#include "serve/server.hh"
#include "soc/simulator.hh"
#include "serve_stream.hh"
#include "stats.hh"
#include "trace.hh"
#include "workloads.hh"
#include "workloads/rodinia.hh"

namespace perfbench {

using namespace pccs;

namespace {

/**
 * Fixed thread counts: 1 shard + 2 generator threads, within the 4
 * CPUs. One shard keeps the capacity independent of how the kernel
 * spreads the connections over shards.
 */
constexpr unsigned kShards = 1;
const LoadShape kShape{2, 2, {}};
/** The server's engine runs inline on the shard threads. */
constexpr unsigned kEngineJobs = 1;
/**
 * Extra set-ups timed before each nominal load run. setup_s is the
 * median over them and the first set-up: the host's speed changes
 * from one second to the next, so set-ups spread over the run are a
 * steadier sample than ones back to back.
 */
constexpr int kSetupsPerRun = 2;
/** Wait for answers this long after the last request was due. */
constexpr double kDrainS = 3.0;

/** Per-workload load settings. */
struct LoadPlan
{
    /**
     * Nominal open-loop rate of the latency phase, requests/s. An
     * assumption, not measured traffic: a seventh to a tenth of the
     * one-shard capacity serve-predict's ladder measures (medians of
     * 149 000-185 000/s on a 4-vCPU Xeon VM), so the latency is the
     * per-request path rather than queueing. serve-mixed,
     * defined as the same server at a lower rate, runs at a quarter of
     * serve-predict's.
     */
    double nominalRate;
    /**
     * p99 limit of the rate ladder, ms. Above capacity the queue grows
     * to hundreds of ms within a step; a host stall of a few to 20 ms
     * must not fail one.
     */
    double p99LimitMs;
    /** Ladder: ladderBase * ladderStep^k, k < ladderSteps. */
    double ladderBase;
    double ladderStep;
    std::size_t ladderSteps;
};

/**
 * The ladders span 40 000-333 000/s and 25 000-252 000/s: the lowest
 * step is at most 0.35 times, the top at least 1.3 times the
 * max_rate_rps measured over thirty seeds on a 4-vCPU Xeon VM
 * (serve-predict 114 000-216 000/s, serve-mixed 118 000-192 000/s).
 */
constexpr LoadPlan kPredictPlan{20000.0, 50.0, 40000.0, 1.04, 55};
constexpr LoadPlan kMixedPlan{5000.0, 50.0, 25000.0, 1.04, 60};

/** Requests kept in the stream (reused cyclically). */
constexpr std::size_t kStreamLength = 50000;
/**
 * The nominal phase runs as kNominalRuns load runs of equal length.
 * Each run gives one p50 and one p99 over all its requests; the
 * reported latencies are their medians over the runs.
 */
constexpr std::size_t kNominalRuns = 10;
/** Share of --seconds for the nominal load; the ladder gets the rest. */
constexpr double kNominalShare = 0.5;
/** Ladder step length as a share of --seconds. */
constexpr double kStepShare = 0.01;
/** Fewest bisection searches of the rate ladder per run. */
constexpr std::size_t kMinSearches = 3;
/** Fewest requests in a ladder step (p99 needs 10 samples above). */
constexpr std::size_t kMinStepRequests = 1000;
/** Single-point predicts scored against the SoC simulator. */
constexpr std::size_t kErrorSamples = 4000;

/** Everything one set-up builds. Destroyed server-first. */
struct ServeStack
{
    std::unique_ptr<runner::SweepEngine> engine;
    std::vector<std::unique_ptr<soc::SocSimulator>> sims;
    serve::ModelRegistry registry;
    serve::Metrics metrics;
    std::unique_ptr<serve::Dispatcher> dispatcher;
    std::unique_ptr<serve::Server> server;
    std::vector<std::shared_ptr<const serve::ModelEntry>> models;

    ~ServeStack()
    {
        if (server)
            server->stop();
    }
};

/** Set-up timings of one repetition, seconds. */
struct SetupTimes
{
    double total = 0, regen = 0, calibrate = 0, fit = 0, start = 0;
    std::uint64_t span = 0;
};

std::unique_ptr<ServeStack>
setUp(const std::vector<ServedPu> &pus, const RunOptions &opts, int index,
      SetupTimes &t, Report &report)
{
    Span root("bench", "setup");
    t.span = root.id();
    const std::int64_t t0 = nowNs();
    auto st = std::make_unique<ServeStack>();
    st->engine = std::make_unique<runner::SweepEngine>(kEngineJobs);
    st->sims.push_back(std::make_unique<soc::SocSimulator>(soc::xavierLike()));
    st->sims.push_back(
        std::make_unique<soc::SocSimulator>(soc::snapdragonLike()));

    const std::string path =
        (std::filesystem::path(opts.workdir) /
         ("served-" + std::to_string(index) + ".params"))
            .string();
    for (std::size_t i = 0; i < pus.size(); ++i) {
        const soc::SocSimulator &sim =
            *st->sims[pus[i].soc == "xavier" ? 0 : 1];
        calib::CalibrationMatrix m;
        {
            Span s("calib", "calibrate");
            const std::int64_t c0 = nowNs();
            m = calib::calibrate(sim, pus[i].puIndex, {}, st->engine.get());
            t.calibrate += static_cast<double>(nowNs() - c0) * 1e-9;
        }
        model::PccsParams params;
        {
            Span s("pccs", "fit");
            const std::int64_t f0 = nowNs();
            params = model::buildModelParams(
                m, sim.config().memory.peakBandwidth);
            t.fit += static_cast<double>(nowNs() - f0) * 1e-9;
        }
        Span s("serve", "registry.publish");
        if (i == kFileModel) {
            model::saveParams(params, path);
            const std::string err = st->registry.addFromFile(pus[i].name, path);
            report.check(err.empty(), "loading " + path + ": " + err);
        } else {
            st->registry.addFromParams(pus[i].name, params,
                                       "calibrated:" + pus[i].name);
        }
    }
    for (const ServedPu &pu : pus)
        st->models.push_back(st->registry.find(pu.name));
    t.regen = static_cast<double>(nowNs() - t0) * 1e-9;

    st->dispatcher = std::make_unique<serve::Dispatcher>(
        st->registry, st->metrics, st->engine.get());
    {
        Span s("serve", "server.start");
        const std::int64_t s0 = nowNs();
        serve::ServerOptions so;
        so.shards = kShards;
        st->server = std::make_unique<serve::Server>(*st->dispatcher, so);
        std::string error;
        report.check(st->server->start(&error), "server start: " + error);
        t.start = static_cast<double>(nowNs() - s0) * 1e-9;
    }
    t.total = static_cast<double>(nowNs() - t0) * 1e-9;
    return st;
}

/** A number field of a response line, parsed exactly. */
bool
numberField(std::string_view line, std::string_view key, double &out)
{
    const std::size_t at = line.find(key);
    if (at == std::string_view::npos)
        return false;
    const char *begin = line.data() + at + key.size();
    const char *end = line.data() + line.size();
    return std::from_chars(begin, end, out).ec == std::errc();
}

/** Checks answers as they arrive; one instance per load run. */
class Checker
{
  public:
    /**
     * Checks requests [offset, offset + count) of the stream. The
     * reload version and the jobs promoted from the QoS queue carry
     * over from one load run to the next.
     */
    Checker(const ServeStream &stream, const std::vector<double> &expected,
            std::size_t offset, std::size_t count,
            std::uint64_t &reload_version,
            std::deque<std::string> &promoted, bool trace)
        : stream_(stream), expected_(expected), offset_(offset),
          served_(count, NAN), reloadVersion_(reload_version),
          promoted_(promoted), trace_(trace)
    {
    }

    LoadHooks hooks()
    {
        return {[this](std::size_t j) { return build(j); },
                [this](std::size_t j, std::string_view line,
                       const LoadOutcome &timing) {
                    const bool ok = check(j, line);
                    if (trace_) {
                        recordSpan("loadgen", "wait", timing.dueNs,
                                   timing.sentNs, 0);
                        recordSpan("serve", "request", timing.sentNs,
                                   timing.recvNs, 0);
                    }
                    return ok;
                }};
    }

    /** Served relativeSpeed of request j (NaN for non-predicts). */
    double served(std::size_t j) const { return served_[j]; }

    std::uint64_t admitted() const { return admitted_; }
    std::uint64_t submitted() const { return submitted_; }

  private:
    std::size_t index(std::size_t j) const
    {
        return (offset_ + j) % stream_.requests.size();
    }

    // build() and every write-op check run on the generator thread that
    // owns connection 0, so the maps below need no lock.
    std::string build(std::size_t j)
    {
        if (stream_.requests[index(j)].op == kSchedStats) {
            // Complete a job a queue promotion admitted, if any.
            std::string job;
            if (!promoted_.empty()) {
                job = promoted_.front();
                promoted_.pop_front();
            }
            sentComplete_[j] = !job.empty();
            return completeFrame(index(j), job);
        }
        const std::size_t sched = j - (kCompletePos - kSchedulePos);
        const auto it = jobs_.find(sched);
        if (it == jobs_.end())
            return ""; // the schedule's answer has not arrived yet
        std::string frame = completeFrame(index(j), it->second);
        sentComplete_[j] = !it->second.empty();
        jobs_.erase(it);
        return frame;
    }

    bool check(std::size_t j, std::string_view line)
    {
        const std::size_t i = index(j);
        const std::string id = "{\"id\":" + std::to_string(i) + ",";
        if (line.substr(0, id.size()) != id ||
            line.find("\"ok\":true") == std::string_view::npos)
            return failWrite(j);
        const LoadRequest &req = stream_.requests[i];
        if (req.op == kPredict) {
            double rs = 0.0;
            if (!numberField(line, "\"relativeSpeed\":", rs))
                return false;
            served_[j] = rs;
            return rs == expected_[i];
        }
        const serve::JsonParse parsed = serve::parseJson(line);
        if (!parsed.ok())
            return failWrite(j);
        const serve::Json *result = parsed.value->find("result");
        if (result == nullptr || !result->isObject())
            return failWrite(j);
        switch (req.op) {
        case kCorun: {
            const serve::Json *rs = result->find("relativeSpeed");
            if (rs == nullptr || !rs->isArray() ||
                rs->asArray().size() != stream_.entries[i].corun.size())
                return false;
            for (const serve::Json &v : rs->asArray())
                if (!(v.asNumber() > 0.0))
                    return false;
            return true;
        }
        case kPlace: {
            const serve::Json *a = result->find("assignment");
            const serve::Json *score = result->find("score");
            return a != nullptr && a->isArray() &&
                   a->asArray().size() ==
                       stream_.places[stream_.entries[i].query]
                           .benches.size() &&
                   score != nullptr && std::isfinite(score->asNumber(NAN));
        }
        case kExplore: {
            const serve::Json *mhz = result->find("selectedMhz");
            return mhz != nullptr && mhz->asNumber() > 0.0;
        }
        case kSchedule: {
            ++submitted_;
            const serve::Json *d = result->find("decision");
            const std::string decision = d ? d->asString() : "";
            std::string job;
            if (decision == "admitted") {
                ++admitted_;
                const serve::Json *h = result->find("job");
                job = h && h->isString() ? h->asString() : "";
                if (job.empty())
                    return failWrite(j);
            } else if (decision != "queued" && decision != "rejected") {
                return failWrite(j);
            }
            jobs_[j] = job;
            return true;
        }
        case kComplete:
        case kSchedStats: {
            // Either slot carries a complete or, with no job to
            // complete, a sched_stats.
            const auto it = sentComplete_.find(j);
            const bool was_complete =
                it != sentComplete_.end() && it->second;
            if (it != sentComplete_.end())
                sentComplete_.erase(it);
            if (!was_complete)
                return result->find("scheduler") != nullptr;
            const serve::Json *c = result->find("completed");
            const serve::Json *promoted = result->find("promoted");
            if (c == nullptr || !c->asBool() || promoted == nullptr ||
                !promoted->isArray())
                return false;
            for (const serve::Json &d : promoted->asArray())
                if (const serve::Json *h = d.find("job"))
                    promoted_.push_back(h->asString());
            return true;
        }
        case kReload: {
            const serve::Json *v = result->find("version");
            const auto version =
                static_cast<std::uint64_t>(v ? v->asNumber() : 0.0);
            const bool newer = version > reloadVersion_;
            reloadVersion_ = std::max(reloadVersion_, version);
            return newer;
        }
        default:
            return false;
        }
    }

    /** A failed answer; a failed schedule still frees its complete. */
    bool failWrite(std::size_t j)
    {
        if (stream_.requests[index(j)].op == kSchedule)
            jobs_[j] = "";
        return false;
    }

    const ServeStream &stream_;
    const std::vector<double> &expected_;
    std::size_t offset_;
    std::vector<double> served_;
    std::uint64_t &reloadVersion_;
    std::deque<std::string> &promoted_;
    std::unordered_map<std::size_t, std::string> jobs_;
    std::unordered_map<std::size_t, bool> sentComplete_;
    std::uint64_t admitted_ = 0, submitted_ = 0;
    /** Record a span per request (traced load runs). */
    bool trace_;
};

/** Latency summary of a set of outcomes. */
struct Latency
{
    std::size_t answered = 0, failed = 0;
    double p50Ms = 0, p99Ms = 0, lateP99Ms = 0;
    /** Answers per second from the first due time to the last answer. */
    double achieved = 0;
};

Latency
summarize(const std::vector<LoadOutcome> &out, std::size_t begin,
          std::size_t end)
{
    Latency l;
    std::vector<double> lat, late;
    std::int64_t first = INT64_MAX, last = 0;
    for (std::size_t j = begin; j < end; ++j) {
        const LoadOutcome &o = out[j];
        if (o.recvNs == 0 || !o.ok) {
            ++l.failed;
            continue;
        }
        ++l.answered;
        lat.push_back(static_cast<double>(o.recvNs - o.dueNs) * 1e-6);
        late.push_back(static_cast<double>(o.sentNs - o.dueNs) * 1e-6);
        first = std::min(first, o.dueNs);
        last = std::max(last, o.recvNs);
    }
    l.p50Ms = percentile(lat, 50.0);
    l.p99Ms = percentile(lat, 99.0);
    l.lateP99Ms = percentile(late, 99.0);
    if (last > first)
        l.achieved = static_cast<double>(l.answered) /
                     (static_cast<double>(last - first) * 1e-9);
    return l;
}

serve::Json
requestOnce(std::uint16_t port, const std::string &frame)
{
    serve::TcpClient c;
    if (!c.connectTo("127.0.0.1", port) || !c.sendLine(frame))
        return {};
    const auto line = c.recvLine();
    if (!line)
        return {};
    serve::JsonParse p = serve::parseJson(*line);
    if (!p.ok())
        return {};
    const serve::Json *r = p.value->find("result");
    return r ? *r : serve::Json();
}

/** Median ns per item of `body` (which handles `items` items) over reps. */
template <typename F>
double
nsPerItem(std::size_t items, int reps, F &&body)
{
    if (items == 0)
        return 0.0;
    std::vector<double> per;
    for (int r = 0; r < reps; ++r) {
        const std::int64_t t0 = nowNs();
        body();
        per.push_back(static_cast<double>(nowNs() - t0) /
                      static_cast<double>(items));
    }
    return median(per);
}

/**
 * The traced run's layer figures: the recorded request stream replayed
 * through each layer's public functions, outside the load.
 */
void
replayLayers(ServeStack &st, const ServeStream &stream,
             const std::vector<ServedPu> &pus, double batch_mean,
             Report &report)
{
    constexpr int kReps = 5;
    constexpr std::size_t kFrames = 8000;
    std::vector<std::size_t> reads;
    std::string bytes;
    for (std::size_t i = 0;
         i < stream.requests.size() && reads.size() < kFrames; ++i) {
        const LoadRequest &r = stream.requests[i];
        if (r.frame.empty() || r.op == kReload || r.op == kSchedule)
            continue;
        reads.push_back(i);
        bytes += r.frame;
    }

    // serve: framing, parsing, and the dispatcher on server-sized batches.
    report.set("serve.frame_ns", nsPerItem(reads.size(), kReps, [&] {
        Span s("serve", "frame");
        serve::FrameBuffer fb;
        std::size_t n = 0;
        for (std::size_t at = 0; at < bytes.size(); at += 4096) {
            fb.feed(bytes.data() + at,
                    std::min<std::size_t>(4096, bytes.size() - at));
            while (fb.nextView())
                ++n;
        }
        report.check(n == reads.size(), "frame replay lost frames");
    }));
    report.set("serve.json_parse_ns", nsPerItem(reads.size(), kReps, [&] {
        Span s("serve", "json_parse");
        for (std::size_t i : reads) {
            const std::string &f = stream.requests[i].frame;
            const std::string_view text(f.data(), f.size() - 1);
            if (!serve::parseJson(text).ok())
                report.check(false, "replayed frame does not parse");
        }
    }));
    {
        serve::Metrics metrics;
        serve::Dispatcher d(st.registry, metrics, st.engine.get());
        serve::Dispatcher::Scratch scratch;
        std::vector<serve::FrameBuffer::View> views;
        for (std::size_t i : reads) {
            const std::string &f = stream.requests[i].frame;
            views.push_back({std::string_view(f.data(), f.size() - 1), false});
        }
        const std::size_t batch = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::lround(batch_mean)));
        report.set("serve.handle_ns", nsPerItem(views.size(), kReps, [&] {
            Span s("serve", "handle");
            for (std::size_t at = 0; at < views.size(); at += batch)
                d.handleFrames(views.data() + at,
                               std::min(batch, views.size() - at), scratch);
        }));
    }

    // pccs: the batch kernel over the single-point predicts, per model.
    std::vector<std::vector<double>> xs(pus.size()), ys(pus.size());
    std::vector<double> numbers;
    std::size_t predictions = 0;
    for (std::size_t i : reads) {
        const StreamEntry &e = stream.entries[i];
        if (stream.requests[i].op != kPredict || e.phases.size() != 1)
            continue;
        xs[e.model].push_back(e.phases[0].demand);
        ys[e.model].push_back(e.external);
        ++predictions;
        const double rs = st.models[e.model]->model.relativeSpeed(
            e.phases[0].demand, e.external);
        numbers.insert(numbers.end(),
                       {e.phases[0].demand, e.external, rs, 100.0 / rs});
    }
    std::vector<double> out;
    report.set("pccs.batch_ns", nsPerItem(predictions, kReps, [&] {
        Span s("pccs", "batch");
        for (std::size_t m = 0; m < pus.size(); ++m) {
            out.resize(xs[m].size());
            st.models[m]->model.relativeSpeedBatch(xs[m], ys[m], out);
        }
    }));
    // runner: the %.17g formatter every response number goes through.
    std::size_t formatted = 0;
    report.set("runner.number_format_ns", nsPerItem(numbers.size(), kReps, [&] {
        Span s("runner", "number_format");
        for (double v : numbers)
            formatted += runner::jsonNumber(v).size();
    }));
    report.check(formatted > 0 || numbers.empty(), "number formatting");

    // serve: reload of the file-backed model.
    std::vector<double> reloads;
    for (int r = 0; r < 20; ++r) {
        Span s("serve", "reload");
        const std::int64_t t0 = nowNs();
        const auto res = st.registry.reload(pus[kFileModel].name);
        reloads.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
        report.check(res.ok, "registry reload: " + res.error);
    }
    report.set("serve.reload_us", median(reloads));

    if (stream.explores.empty())
        return; // serve-predict: design, corun, place and sched idle

    // pccs: corun, explore and place through the model's public API,
    // on the same queries the stream served.
    std::vector<std::size_t> coruns;
    for (std::size_t i = 0;
         i < stream.requests.size() && coruns.size() < 500; ++i)
        if (stream.requests[i].op == kCorun)
            coruns.push_back(i);
    report.set("pccs.corun_us", 1e-3 * nsPerItem(coruns.size(), kReps, [&] {
        Span s("pccs", "corun");
        for (std::size_t i : coruns) {
            std::vector<model::CorunInput> in;
            for (const auto &[m, demand] : stream.entries[i].corun)
                in.push_back({&st.models[m]->model, {{demand, 1.0}}});
            model::predictCorun(in);
        }
    }));

    const soc::SocSimulator &xavier = *st.sims[0];
    const soc::SocConfig &cfg = xavier.config();
    std::vector<model::PccsModel> pu_models;
    for (std::size_t p = 0; p < cfg.pus.size(); ++p)
        pu_models.push_back(model::buildModel(xavier, p));
    const model::DesignExplorer explorer(cfg, st.engine.get());
    report.set("pccs.explore_us",
               1e-3 * nsPerItem(stream.explores.size(), kReps, [&] {
        Span s("pccs", "explore");
        for (const ExploreQuery &q : stream.explores) {
            const soc::PuKind kind =
                q.pu == "gpu" ? soc::PuKind::Gpu : soc::PuKind::Cpu;
            const auto pi = static_cast<std::size_t>(cfg.puIndex(kind));
            std::vector<MHz> grid;
            const double fmax = cfg.pus[pi].maxFrequency;
            const unsigned steps = serve::DispatchOptions{}.exploreGridSteps;
            for (double f = 0.3 * fmax; f < fmax; f += fmax / steps)
                grid.push_back(f);
            grid.push_back(fmax);
            explorer.selectFrequency(
                pi, workloads::rodiniaKernel(q.bench, kind), q.external,
                q.allowed, pu_models[pi], grid);
        }
    }));
    std::vector<const model::SlowdownPredictor *> preds;
    for (const model::PccsModel &m : pu_models)
        preds.push_back(&m);
    report.set("pccs.place_us",
               1e-3 * nsPerItem(stream.places.size(), kReps, [&] {
        Span s("pccs", "place");
        for (const PlaceQuery &q : stream.places) {
            std::vector<model::PlacementTask> tasks;
            for (const std::string &b : q.benches) {
                model::PlacementTask t;
                t.name = b;
                for (const soc::PuParams &pu : cfg.pus)
                    t.options.push_back(
                        pu.kind == soc::PuKind::Dla
                            ? soc::PhasedWorkload{}
                            : soc::PhasedWorkload::single(
                                  workloads::rodiniaKernel(b, pu.kind)));
                tasks.push_back(std::move(t));
            }
            model::enumeratePlacements(xavier, preds, tasks);
        }
    }));

    // sched: admission decisions, each job completed before the next
    // arrives, as the stream pairs them.
    sched::QosController ctl(cfg, st.engine.get());
    std::vector<double> submits;
    for (int r = 0; r < 10; ++r) {
        for (const ScheduleQuery &q : stream.schedules) {
            sched::JobRequest job;
            job.name = q.bench;
            job.sloSlowdown = q.slo;
            for (const soc::PuParams &pu : cfg.pus)
                job.options.emplace_back(
                    pu.kind == soc::PuKind::Dla
                        ? std::nullopt
                        : std::optional(
                              workloads::rodiniaKernel(q.bench, pu.kind)));
            sched::Decision d;
            {
                Span s("sched", "submit");
                const std::int64_t t0 = nowNs();
                d = ctl.submit(job);
                submits.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
            }
            if (d.kind == sched::DecisionKind::Admitted)
                ctl.complete(d.handle);
        }
    }
    report.set("sched.submit_us", median(submits));
}

} // namespace


namespace {

/** Server and generator CPUs; both empty when fewer than 4 exist. */
struct CpuPlan
{
    std::vector<int> server;
    std::vector<int> generators;
};

CpuPlan
planCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    if (cpus.size() < 4)
        return {};
    return {{cpus[0], cpus[1]}, {cpus[2], cpus[3]}};
}

/**
 * Steal ticks so far of `cpus` (of all CPUs when empty), from
 * /proc/stat; 0 when unknown.
 */
double
stealTicks(const std::vector<int> &cpus)
{
    std::ifstream in("/proc/stat");
    std::string line;
    double sum = 0.0;
    while (std::getline(in, line) && line.compare(0, 3, "cpu") == 0) {
        std::istringstream fields(line);
        std::string name;
        double v[8] = {};
        fields >> name;
        for (double &x : v)
            fields >> x;
        const bool all = name == "cpu";
        if (cpus.empty() ? all
                         : !all && std::find(cpus.begin(), cpus.end(),
                                             std::stoi(name.substr(3))) !=
                                       cpus.end())
            sum += v[7];
    }
    return sum;
}

std::string
cpuList(const std::vector<int> &cpus)
{
    std::string out;
    for (int c : cpus) {
        if (!out.empty())
            out += ',';
        out += std::to_string(c);
    }
    return out.empty() ? "unpinned" : out;
}

} // namespace

void
runServe(const RunOptions &opts, bool mixed, Report &report)
{
    const LoadPlan plan = mixed ? kMixedPlan : kPredictPlan;
    const bool traced_run = tracing();

    // The server's shard threads inherit this thread's CPUs; the
    // generator threads pin themselves to the other two.
    const CpuPlan cpus = planCpus();
    pinThread(cpus.server);
    LoadShape shape = kShape;
    shape.cpus = cpus.generators;
    std::vector<int> bench_cpus = cpus.server;
    bench_cpus.insert(bench_cpus.end(), cpus.generators.begin(),
                      cpus.generators.end());
    report.setting("shards", kShards);
    report.setting("generator_threads", shape.threads);
    report.setting("connections", shape.connections());
    report.setting("engine_jobs", kEngineJobs);
    report.setting("server_cpus", cpuList(cpus.server));
    report.setting("generator_cpus", cpuList(cpus.generators));
    report.setting("rates", "wall");
    report.setting("loop", "open");
    report.setting("nominal_rate_rps", plan.nominalRate);
    report.setting("p99_limit_ms", plan.p99LimitMs);

    const std::vector<ServedPu> pus = servedPus();
    const ServeStream stream =
        makeServeStream(opts.seed, mixed, kStreamLength, shape.connections());

    // Set-up; this stack serves the load.
    std::vector<SetupTimes> setups(1);
    std::unique_ptr<ServeStack> st = setUp(pus, opts, 0, setups[0], report);
    const std::uint16_t port = st->server->port();

    // Warm the lazily built SoC bundles (simulator, per-PU models and
    // the QoS controller) that the mixed stream's requests use.
    if (mixed) {
        for (std::size_t i = 0; i < kPeriod; ++i) {
            const LoadRequest &r = stream.requests[i];
            if (!r.frame.empty() && r.op != kReload && r.op != kSchedule)
                st->dispatcher->handleFrame(
                    r.frame.substr(0, r.frame.size() - 1));
        }
    }

    // Expected answers: the served registry snapshot, evaluated here.
    std::vector<double> expected(stream.requests.size(), NAN);
    for (std::size_t i = 0; i < stream.requests.size(); ++i) {
        if (stream.requests[i].op != kPredict)
            continue;
        const StreamEntry &e = stream.entries[i];
        const model::PccsModel &m = st->models[e.model]->model;
        expected[i] = e.phases.size() == 1
                          ? m.relativeSpeed(e.phases[0].demand, e.external)
                          : model::predictPiecewise(m, e.phases, e.external);
    }

    std::uint64_t reload_version = 0, admitted = 0, submitted = 0;
    std::deque<std::string> promoted;
    std::size_t offset = 0;
    const auto run = [&](std::size_t n, double rate, bool trace,
                         const char *phase,
                         std::vector<LoadOutcome> &out) -> Checker {
        Checker c(stream, expected, offset, n, reload_version, promoted,
                  trace);
        out = runOpenLoop(port, stream.requests, offset, n, rate, shape,
                          c.hooks(), kDrainS);
        std::uint64_t bad = 0;
        for (const LoadOutcome &o : out)
            bad += (o.recvNs == 0 || !o.ok) ? 1 : 0;
        report.check(!out.empty(), std::string(phase) + ": no connection");
        report.fail(bad, std::string(phase) + ": unanswered or wrong answers");
        report.pass(out.size() - bad);
        admitted += c.admitted();
        submitted += c.submitted();
        offset += n;
        return c;
    };

    // Two phases: the nominal rate in kNominalRuns load runs, then
    // kLadderSearches searches of the rate ladder (after them, since
    // the ladder overloads the server). The traced run records a span
    // per request in every other nominal run, so the difference between
    // the two halves is the tracing overhead.
    // Whole periods, so no schedule/complete pair straddles two runs.
    std::size_t per_run = static_cast<std::size_t>(
        plan.nominalRate * opts.seconds * kNominalShare / kNominalRuns);
    per_run = std::max(kMinStepRequests, per_run - per_run % kPeriod);
    const double tick_cpus =
        static_cast<double>(sysconf(_SC_CLK_TCK)) *
        static_cast<double>(bench_cpus.empty() ? usableCpus()
                                               : bench_cpus.size());
    std::vector<double> run_p50, run_p99, lates, steals, traced_p50,
        plain_p50;
    std::vector<std::vector<double>> by_op(kOpCount);
    std::vector<double> rtt_predict;
    double err = 0.0;
    std::size_t err_n = 0;
    const auto nominalRun = [&](std::size_t r) {
        for (int k = 0; k < kSetupsPerRun; ++k) {
            SetupTimes t;
            setUp(pus, opts, static_cast<int>(setups.size()), t, report);
            setups.push_back(t);
        }
        const bool trace_run = traced_run && r % 2 == 0;
        const std::size_t first = offset;
        const double steal0 = stealTicks(bench_cpus);
        const std::int64_t t0 = nowNs();
        std::vector<LoadOutcome> out;
        const Checker c = run(per_run, plan.nominalRate, trace_run,
                              "nominal run", out);
        const double steal_pct =
            100.0 * (stealTicks(bench_cpus) - steal0) /
            (static_cast<double>(nowNs() - t0) * 1e-9 * tick_cpus);
        const Latency l = summarize(out, 0, out.size());
        run_p50.push_back(l.p50Ms);
        run_p99.push_back(l.p99Ms);
        lates.push_back(l.lateP99Ms);
        steals.push_back(steal_pct);
        (trace_run ? traced_p50 : plain_p50).push_back(l.p50Ms);
        for (std::size_t j = 0; j < out.size(); ++j) {
            const LoadOutcome &o = out[j];
            const std::size_t i = (first + j) % stream.requests.size();
            const std::uint8_t op = stream.requests[i].op;
            if (o.recvNs == 0)
                continue;
            by_op[op].push_back(static_cast<double>(o.recvNs - o.dueNs) *
                                1e-6);
            if (op != kPredict)
                continue;
            rtt_predict.push_back(static_cast<double>(o.recvNs - o.sentNs) *
                                  1e-3);
            // Accuracy: the served answer against the SoC simulator's
            // co-run speed for the same (demand, external) pair.
            const StreamEntry &e = stream.entries[i];
            if (err_n >= kErrorSamples || e.phases.size() != 1 ||
                std::isnan(c.served(j)))
                continue;
            const ServedPu &pu = pus[e.model];
            const soc::SocSimulator &sim =
                *st->sims[pu.soc == "xavier" ? 0 : 1];
            const soc::KernelProfile k = calib::makeCalibrator(
                sim.model(), sim.config().pus[pu.puIndex], e.phases[0].demand);
            err += std::abs(c.served(j) - sim.relativeSpeedUnderPressure(
                                              pu.puIndex, k, e.external));
            ++err_n;
        }
    };

    // A ladder step meets the limit when every answer arrived and
    // checked out, the p99 from due time stayed within the limit, the
    // answers kept up with the offered rate (no growing backlog) and
    // the generator sent on time.
    const double step_s = opts.seconds * kStepShare;
    std::vector<double> achieved(plan.ladderSteps, 0.0);
    std::string ladder_log;
    const auto meets = [&](std::size_t k) {
        const double rate =
            plan.ladderBase * std::pow(plan.ladderStep, static_cast<double>(k));
        std::size_t n = static_cast<std::size_t>(rate * step_s);
        n = std::max(kMinStepRequests, n - n % kPeriod);
        std::vector<LoadOutcome> out;
        run(n, rate, false, "ladder step", out);
        const Latency l = summarize(out, 0, out.size());
        const bool met = l.failed == 0 && l.p99Ms <= plan.p99LimitMs &&
                         l.achieved >= 0.95 * rate &&
                         l.lateP99Ms <= plan.p99LimitMs / 2;
        achieved[k] = l.achieved;
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s{\"rate\": %.0f, \"achieved\": %.1f, "
                      "\"p99_ms\": %.3f, \"late_p99_ms\": %.3f, "
                      "\"met\": %s}",
                      ladder_log.empty() ? "" : ", ", rate, l.achieved,
                      l.p99Ms, l.lateP99Ms, met ? "true" : "false");
        ladder_log += buf;
        return met;
    };

    for (std::size_t r = 0; r < kNominalRuns; ++r)
        nominalRun(r);
    // Memory and server statistics of set-up and the nominal load,
    // taken before the ladder overloads the server on purpose.
    const double rss_mb = peakRssMb();
    const serve::Json stats =
        traced_run ? requestOnce(port, "{\"op\":\"stats\"}") : serve::Json();
    const serve::Json sched_stats =
        traced_run
            ? requestOnce(port, "{\"op\":\"sched_stats\",\"soc\":\"xavier\"}")
            : serve::Json();
    // The ladder phase: bisection searches of the ladder until its
    // time is up (at least kMinSearches); max_rate_rps is the median of
    // what they found, a search whose lowest step missed counting 0.
    const std::int64_t ladder_end =
        nowNs() + static_cast<std::int64_t>((1.0 - kNominalShare) *
                                            opts.seconds * 1e9);
    std::vector<double> search_rates;
    bool top_met = false;
    while (search_rates.size() < kMinSearches || nowNs() < ladder_end) {
        const int best = searchLadder(plan.ladderSteps, meets);
        search_rates.push_back(
            best >= 0 ? achieved[static_cast<std::size_t>(best)] : 0.0);
        top_met = top_met || best + 1 == static_cast<int>(plan.ladderSteps);
    }
    const double max_rate = median(search_rates);
    report.check(max_rate > 0.0,
                 "most ladder searches missed the p99 limit at the lowest "
                 "step");
    report.check(err_n > 0, "no served predictions to score");
    report.setting("pccs_error_pp", err / static_cast<double>(err_n));
    report.setting("nominal_requests_per_run", static_cast<double>(per_run));
    const auto list = [](const std::vector<double> &values) {
        std::string out;
        for (double v : values) {
            if (!out.empty())
                out += ' ';
            out += std::to_string(v);
        }
        return out;
    };
    report.setting("run_p50_ms", list(run_p50));
    report.setting("run_p99_ms", list(run_p99));
    report.setting("run_steal_pct", list(steals));
    report.setting("run_late_p99_ms", list(lates));
    std::string op_p99;
    for (std::uint8_t op = 0; op < kOpCount; ++op)
        if (!by_op[op].empty())
            op_p99 += std::string(op_p99.empty() ? "" : " ") + kOpNames[op] +
                      "=" + std::to_string(percentile(by_op[op], 99));
    report.setting("op_p99_ms", op_p99);
    report.setting("ladder_search_rates", list(search_rates));
    // A search met the top step: the capacity is above the ladder's end.
    report.setting("ladder_top_met", top_met ? 1.0 : 0.0);
    report.setting("ladder", "[" + ladder_log + "]");

    std::vector<double> totals, regens, cal, fit, start, cover, regen_cover;
    const std::vector<SpanRecord> spans =
        traced_run ? collectSpans() : std::vector<SpanRecord>{};
    for (const SetupTimes &t : setups) {
        totals.push_back(t.total);
        regens.push_back(t.regen);
        cal.push_back(t.calibrate);
        fit.push_back(t.fit);
        start.push_back(t.start);
        if (traced_run) {
            cover.push_back(childCoverage(spans, t.span));
            regen_cover.push_back((t.calibrate + t.fit) / t.regen);
        }
    }

    report.setting("setup_runs_s", list(totals));

    if (!traced_run) {
        report.set("setup_s", median(totals));
        report.set("regen_s", median(regens));
        report.set("pccs_error_pp", err / static_cast<double>(err_n));
        report.set("latency_p50_ms", median(run_p50));
        report.set("max_rate_rps", max_rate);
        report.set("peak_rss_mb", rss_mb);
        return;
    }

    // Traced run: server-side figures from `stats`, then the replays.
    const auto endpointP50 = [&](const char *op) {
        const serve::Json *e = stats.find("endpoints");
        const serve::Json *o = e ? e->find(op) : nullptr;
        const serve::Json *l = o ? o->find("latency") : nullptr;
        const serve::Json *p = l ? l->find("p50Us") : nullptr;
        return p ? p->asNumber() : 0.0;
    };
    for (const char *op : {"predict", "corun", "place", "explore", "schedule",
                           "complete", "reload"})
        report.set(std::string("serve.server_p50_us.") + op, endpointP50(op));
    const serve::Json *batches = stats.find("batches");
    const serve::Json *mean = batches ? batches->find("meanSize") : nullptr;
    const double batch_mean = mean ? mean->asNumber() : 1.0;
    report.set("serve.batch_mean", batch_mean);
    const serve::Json *cache = stats.find("cache");
    const serve::Json *hit = cache ? cache->find("hitRate") : nullptr;
    report.set("runner.cache_hit_ratio", hit ? hit->asNumber() : 0.0);
    if (const serve::Json *counters = sched_stats.find("counters")) {
        const serve::Json *sub = counters->find("submitted");
        const serve::Json *adm = counters->find("admitted");
        if (sub && adm && sub->asNumber() > 0)
            report.set("sched.admitted_ratio",
                       adm->asNumber() / sub->asNumber());
    }
    report.setting("client_admitted", static_cast<double>(admitted));
    report.setting("client_submitted", static_cast<double>(submitted));

    for (std::uint8_t op = 0; op < kOpCount; ++op)
        if (op != kSchedStats)
            report.set(std::string("serve.op.") + kOpNames[op] + ".p50_ms",
                       median(by_op[op]));
    const double server_predict = endpointP50("predict");
    report.set("serve.transport_us", median(rtt_predict) - server_predict);
    const double client_predict_ms = median(by_op[kPredict]);
    report.set("share.latency_p50_ms",
               client_predict_ms > 0
                   ? server_predict * 1e-3 / client_predict_ms
                   : 0.0);
    report.set("serve.latency_p99_ms", median(run_p99));
    report.set("loadgen.late_p99_ms", median(lates));
    report.set("trace.overhead_pct",
               100.0 * (median(traced_p50) / median(plain_p50) - 1.0));
    report.set("setup.calibrate_s", median(cal));
    report.set("setup.fit_s", median(fit));
    report.set("setup.server_start_s", median(start));
    report.set("share.setup_s", median(cover));
    report.set("share.regen_s", median(regen_cover));

    replayLayers(*st, stream, pus, batch_mean, report);
}

} // namespace perfbench
