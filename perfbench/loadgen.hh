/**
 * @file
 * The open-loop load generator of the serve workloads.
 *
 * Requests are due on a fixed schedule (request j at start + j / rate)
 * whatever the server does, so a stall shows as latency on every
 * request due during it. Each request's latency is timed from its due
 * time, not from when it was sent; how late the generator itself sent
 * is reported beside it. Generator threads each own a fixed set of
 * connections and multiplex them with ppoll(): a thread sends every
 * request that has fallen due, in one write per connection, then waits
 * for responses or the next due time. Responses arrive in request
 * order per connection, so each is matched to its request by position.
 */

#ifndef PERFBENCH_LOADGEN_HH
#define PERFBENCH_LOADGEN_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** One request of the stream. */
struct LoadRequest
{
    /** The frame, '\n'-terminated; empty when built at send time. */
    std::string frame;
    /** Connection the request goes out on. */
    std::uint32_t conn = 0;
    /** Caller's operation tag (for per-op statistics). */
    std::uint8_t op = 0;
};

/** What happened to one request. */
struct LoadOutcome
{
    std::int64_t dueNs = 0;
    std::int64_t sentNs = 0;
    /** 0 when no answer arrived. */
    std::int64_t recvNs = 0;
    bool ok = false;
};

/** Fixed generator settings. */
struct LoadShape
{
    unsigned threads = 2;
    unsigned connsPerThread = 2;
    /** CPU each generator thread is pinned to; empty = not pinned. */
    std::vector<int> cpus;
    std::uint32_t connections() const { return threads * connsPerThread; }
};

/**
 * Hooks into the caller. Each request index is handled by exactly one
 * generator thread (the one owning its connection), so hooks may keep
 * per-request state without locks.
 */
struct LoadHooks
{
    /**
     * Build the frame of request j when its LoadRequest::frame is
     * empty. Return an empty string while the frame depends on an
     * answer not yet received: the request is then held back, without
     * delaying later ones, and sent as soon as build() succeeds; it is
     * timed from that moment (a dependent request, not a scheduled
     * one).
     */
    std::function<std::string(std::size_t j)> build;
    /**
     * Check the answer to request j (`line` without its newline);
     * `timing` has its due, send and receive times filled in.
     */
    std::function<bool(std::size_t j, std::string_view line,
                       const LoadOutcome &timing)>
        check;
};

/**
 * Pin the calling thread, and threads it starts later, to `cpus`
 * (no-op when empty).
 */
void pinThread(const std::vector<int> &cpus);

/**
 * Run `count` requests of `stream` against 127.0.0.1:port: request j
 * is stream[(offset + j) % stream.size()], due at start + j / rate.
 * Hooks and outcomes are indexed by j.
 * Returns once every request was answered or `drain_s` after the last
 * due time, whichever comes first.
 *
 * @return per-request outcomes, or an empty vector when connecting
 *         failed
 */
std::vector<LoadOutcome>
runOpenLoop(std::uint16_t port, const std::vector<LoadRequest> &stream,
            std::size_t offset, std::size_t count, double rate,
            const LoadShape &shape,
            const LoadHooks &hooks, double drain_s);

} // namespace perfbench

#endif // PERFBENCH_LOADGEN_HH
