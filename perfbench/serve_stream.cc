#include "serve_stream.hh"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/rng.hh"

namespace perfbench {

using namespace pccs;

const char *const kOpNames[kOpCount] = {
    "predict", "corun", "place", "explore",
    "schedule", "complete", "sched_stats", "reload"};

namespace {

/** Benchmarks with CPU and GPU kernels (Fig. 9's set). */
const char *const kBenches[] = {"hotspot", "streamcluster", "pathfinder",
                                "k-means", "srad"};

/**
 * Share of predicts that carry a multi-phase `phases` list. Assumed,
 * not measured: the workload asks only for a minority. At 15 % the
 * fast scanner still takes most requests while the generic Json path
 * sees about 3 000 requests/s at serve-predict's nominal rate.
 */
constexpr double kPhasedShare = 0.15;

/**
 * Reads of one serve-mixed period besides predicts. Assumed, not
 * measured: the workload asks only that most requests be predicts.
 * With the schedule/complete pair, the sched_stats slot and the
 * periodic reload, about 12 of every 100 requests are something else,
 * and each non-predict op still runs dozens of times per nominal run.
 */
constexpr std::size_t kCorunsPerPeriod = 4;
constexpr std::size_t kPlacesPerPeriod = 2;
constexpr std::size_t kExploresPerPeriod = 3;

std::string
num(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/**
 * Largest demand, as a share of the PU's draw, of a phase or co-run
 * entry. Above it the calibrated Xavier GPU model predicts a speed of
 * 0 under heavy pressure, and the server's phase aggregation rejects
 * that with a panic instead of an error answer.
 */
constexpr double kPhaseDemandCap = 0.85;

double
demandOf(Rng &rng, const ServedPu &pu, double cap = 1.0)
{
    return rng.uniform(0.02, cap) * pu.maxDraw;
}

void
addPredict(ServeStream &s, Rng &rng, const std::vector<ServedPu> &pus,
           std::size_t id, std::uint32_t conn)
{
    StreamEntry e;
    e.model = rng.below(pus.size());
    const ServedPu &pu = pus[e.model];
    e.external = rng.uniform(0.0, 0.8) * pu.peak;
    std::string frame = "{\"op\":\"predict\",\"id\":" + std::to_string(id) +
                        ",\"model\":\"" + pu.name + "\"";
    if (rng.chance(kPhasedShare)) {
        const std::size_t n = 2 + rng.below(2);
        double total = 0.0;
        for (std::size_t k = 0; k < n; ++k) {
            e.phases.push_back({demandOf(rng, pu, kPhaseDemandCap),
                                rng.uniform(0.1, 1.0)});
            total += e.phases.back().timeShare;
        }
        frame += ",\"external\":" + num(e.external) + ",\"phases\":[";
        for (std::size_t k = 0; k < n; ++k) {
            e.phases[k].timeShare /= total;
            frame += std::string(k ? "," : "") + "{\"demand\":" +
                     num(e.phases[k].demand) + ",\"share\":" +
                     num(e.phases[k].timeShare) + "}";
        }
        frame += "]}\n";
    } else {
        e.phases.push_back({demandOf(rng, pu), 1.0});
        frame += ",\"demand\":" + num(e.phases[0].demand) +
                 ",\"external\":" + num(e.external) + "}\n";
    }
    s.requests.push_back({std::move(frame), conn, kPredict});
    s.entries.push_back(std::move(e));
}

void
addCorun(ServeStream &s, Rng &rng, const std::vector<ServedPu> &pus,
         std::size_t id, std::uint32_t conn)
{
    StreamEntry e;
    const std::string soc = rng.chance(0.5) ? "xavier" : "snapdragon";
    std::vector<std::size_t> same;
    for (std::size_t i = 0; i < pus.size(); ++i)
        if (pus[i].soc == soc)
            same.push_back(i);
    const std::size_t a = rng.below(same.size());
    const std::size_t b = (a + 1 + rng.below(same.size() - 1)) % same.size();
    std::string frame = "{\"op\":\"corun\",\"id\":" + std::to_string(id) +
                        ",\"entries\":[";
    for (const std::size_t k : {same[a], same[b]}) {
        e.corun.emplace_back(k, demandOf(rng, pus[k], kPhaseDemandCap));
        frame += std::string(e.corun.size() > 1 ? "," : "") +
                 "{\"model\":\"" + pus[k].name + "\",\"demand\":" +
                 num(e.corun.back().second) + "}";
    }
    frame += "]}\n";
    s.requests.push_back({std::move(frame), conn, kCorun});
    s.entries.push_back(std::move(e));
}

std::string
placeFrame(std::size_t id, const PlaceQuery &q)
{
    std::string frame = "{\"op\":\"place\",\"id\":" + std::to_string(id) +
                        ",\"soc\":\"xavier\",\"tasks\":[";
    for (std::size_t k = 0; k < q.benches.size(); ++k)
        frame += std::string(k ? "," : "") + "\"" + q.benches[k] + "\"";
    return frame + "]}\n";
}

std::string
exploreFrame(std::size_t id, const ExploreQuery &q)
{
    return "{\"op\":\"explore\",\"id\":" + std::to_string(id) +
           ",\"soc\":\"xavier\",\"pu\":\"" + q.pu + "\",\"bench\":\"" +
           q.bench + "\",\"external\":" + num(q.external) +
           ",\"allowed\":" + num(q.allowed) + "}\n";
}

std::string
scheduleFrame(std::size_t id, const ScheduleQuery &q)
{
    return "{\"op\":\"schedule\",\"id\":" + std::to_string(id) +
           ",\"soc\":\"xavier\",\"slo\":" + num(q.slo) + ",\"bench\":\"" +
           q.bench + "\"}\n";
}

} // namespace

std::vector<ServedPu>
servedPus()
{
    std::vector<ServedPu> out;
    const soc::SocConfig socs[] = {soc::xavierLike(), soc::snapdragonLike()};
    const char *const names[] = {"xavier", "snapdragon"};
    for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t p = 0; p < socs[s].pus.size(); ++p) {
            const soc::PuKind kind = socs[s].pus[p].kind;
            const char *kind_name = kind == soc::PuKind::Cpu   ? "cpu"
                                    : kind == soc::PuKind::Gpu ? "gpu"
                                                               : "dla";
            out.push_back({std::string(names[s]) + "." + kind_name, names[s],
                           p, socs[s].pus[p].drawBandwidth(),
                           socs[s].memory.peakBandwidth});
        }
    }
    return out;
}

std::string
completeFrame(std::size_t id, const std::string &job)
{
    if (job.empty())
        return "{\"op\":\"sched_stats\",\"id\":" + std::to_string(id) +
               ",\"soc\":\"xavier\"}\n";
    return "{\"op\":\"complete\",\"id\":" + std::to_string(id) +
           ",\"soc\":\"xavier\",\"job\":\"" + job + "\"}\n";
}

ServeStream
makeServeStream(std::uint64_t seed, bool mixed, std::size_t length,
                std::uint32_t connections)
{
    ServeStream s;
    Rng rng(seed * 0x2545F4914F6CDD1Dull + (mixed ? 2 : 1));
    const std::vector<ServedPu> pus = servedPus();
    if (!mixed) {
        for (std::size_t i = 0; i < length; ++i)
            addPredict(s, rng, pus, i,
                       static_cast<std::uint32_t>(i % connections));
        return s;
    }

    // Small fixed query sets, drawn from the seed.
    const std::size_t nb = std::size(kBenches);
    for (int q = 0; q < 3; ++q) {
        const std::size_t a = rng.below(nb);
        const std::size_t b = (a + 1 + rng.below(nb - 1)) % nb;
        s.places.push_back({{kBenches[a], kBenches[b]}});
    }
    for (int q = 0; q < 4; ++q)
        s.explores.push_back({q % 2 == 0 ? "gpu" : "cpu",
                              kBenches[rng.below(nb)],
                              rng.uniform(10.0, 80.0),
                              rng.uniform(5.0, 20.0)});
    for (int q = 0; q < 3; ++q)
        s.schedules.push_back({kBenches[rng.below(nb)], 2.0});

    length -= length % kPeriod;
    for (std::size_t base = 0; base < length; base += kPeriod) {
        // Seeded positions for this period's reads; writes sit at
        // fixed positions on connection 0.
        std::vector<Op> reads(kPeriod, kPredict);
        std::size_t at = 0;
        for (std::size_t k = 0; k < kCorunsPerPeriod; ++k)
            reads[at++] = kCorun;
        for (std::size_t k = 0; k < kPlacesPerPeriod; ++k)
            reads[at++] = kPlace;
        for (std::size_t k = 0; k < kExploresPerPeriod; ++k)
            reads[at++] = kExplore;
        for (std::size_t k = kPeriod - 1; k > 0; --k)
            std::swap(reads[k], reads[rng.below(k + 1)]);

        for (std::size_t k = 0; k < kPeriod; ++k) {
            const std::size_t id = base + k;
            const auto conn = static_cast<std::uint32_t>(id % connections);
            StreamEntry e;
            if (k == kSchedulePos) {
                e.query = (base / kPeriod) % s.schedules.size();
                s.requests.push_back(
                    {scheduleFrame(id, s.schedules[e.query]), 0, kSchedule});
            } else if (k == kCompletePos) {
                s.requests.push_back({"", 0, kComplete});
            } else if (k == kSchedStatsPos) {
                s.requests.push_back({"", 0, kSchedStats});
            } else if (k == kReloadPos &&
                       (base / kPeriod) % kReloadEvery == kReloadEvery - 1) {
                s.requests.push_back(
                    {"{\"op\":\"reload\",\"id\":" + std::to_string(id) +
                         ",\"model\":\"" + pus[kFileModel].name + "\"}\n",
                     0, kReload});
            } else if (reads[k] == kCorun) {
                addCorun(s, rng, pus, id, conn);
                continue;
            } else if (reads[k] == kPlace) {
                e.query = rng.below(s.places.size());
                s.requests.push_back(
                    {placeFrame(id, s.places[e.query]), conn, kPlace});
            } else if (reads[k] == kExplore) {
                e.query = rng.below(s.explores.size());
                s.requests.push_back(
                    {exploreFrame(id, s.explores[e.query]), conn, kExplore});
            } else {
                addPredict(s, rng, pus, id, conn);
                continue;
            }
            s.entries.push_back(std::move(e));
        }
    }
    return s;
}

} // namespace perfbench
