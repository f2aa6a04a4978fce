#include "loadgen.hh"

#include <poll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <thread>

#include "serve/client.hh"
#include "trace.hh"

namespace perfbench {

namespace {

/** Longest sleep of a generator thread between checks. */
constexpr std::int64_t kSliceNs = 50'000;

/** One connection of a generator thread. */
struct Conn
{
    pccs::serve::TcpClient client;
    std::string out;
    std::size_t outPos = 0;
    std::string in;
    std::deque<std::size_t> waiting;
};

void
generatorThread(const std::vector<LoadRequest> &stream, std::size_t offset,
                const std::vector<std::size_t> &mine,
                std::vector<Conn> &all, const std::vector<Conn *> &conns,
                std::int64_t start_ns, double rate, const LoadHooks &hooks,
                std::int64_t stop_ns, int cpu,
                std::vector<LoadOutcome> &outcomes)
{
    const auto due = [&](std::size_t j) {
        return start_ns +
               static_cast<std::int64_t>(static_cast<double>(j) / rate * 1e9);
    };
    // Timed sleeps end within 1 us of their deadline, not the default
    // 50 us timer slack.
    ::prctl(PR_SET_TIMERSLACK, 1000UL, 0UL, 0UL, 0UL);
    if (cpu >= 0)
        pinThread({cpu});
    std::vector<pollfd> fds(conns.size());
    std::size_t next = 0;
    std::size_t open = 0;
    std::vector<std::size_t> held;
    char buf[64 * 1024];

    while (true) {
        const std::int64_t now = nowNs();
        const auto enqueue = [&](std::size_t j, const std::string &frame,
                                 std::int64_t due_ns) {
            const LoadRequest &req = stream[(offset + j) % stream.size()];
            Conn &c = all[req.conn % all.size()];
            c.out += frame;
            outcomes[j].dueNs = due_ns;
            outcomes[j].sentNs = now;
            c.waiting.push_back(j);
            ++open;
        };
        for (std::size_t k = 0; k < held.size();) {
            const std::string frame = hooks.build(held[k]);
            if (frame.empty()) {
                ++k;
                continue;
            }
            enqueue(held[k], frame, now);
            held.erase(held.begin() + static_cast<std::ptrdiff_t>(k));
        }
        while (next < mine.size() && due(mine[next]) <= now) {
            const std::size_t j = mine[next++];
            const LoadRequest &req = stream[(offset + j) % stream.size()];
            if (!req.frame.empty()) {
                enqueue(j, req.frame, due(j));
                continue;
            }
            const std::string frame = hooks.build(j);
            if (frame.empty())
                held.push_back(j);
            else
                enqueue(j, frame, due(j));
        }
        for (Conn *c : conns) {
            while (c->outPos < c->out.size()) {
                const ssize_t n =
                    ::send(c->client.fd(), c->out.data() + c->outPos,
                           c->out.size() - c->outPos,
                           MSG_DONTWAIT | MSG_NOSIGNAL);
                if (n > 0)
                    c->outPos += static_cast<std::size_t>(n);
                else if (n < 0 && errno == EINTR)
                    continue;
                else
                    break;
            }
            if (c->outPos == c->out.size()) {
                c->out.clear();
                c->outPos = 0;
            }
        }
        if (next == mine.size() && open == 0 && held.empty())
            return;
        if (now >= stop_ns)
            return;

        // Sleep in short slices: a virtual CPU that idles longer can
        // take milliseconds to be woken, which would show as lateness
        // the server did not cause.
        std::int64_t wait_ns = kSliceNs;
        if (next < mine.size())
            wait_ns = std::clamp<std::int64_t>(due(mine[next]) - now, 0,
                                               kSliceNs);
        for (std::size_t i = 0; i < conns.size(); ++i) {
            fds[i].fd = conns[i]->client.fd();
            fds[i].events = static_cast<short>(
                POLLIN | (conns[i]->out.empty() ? 0 : POLLOUT));
            fds[i].revents = 0;
        }
        const timespec ts{0, static_cast<long>(wait_ns)};
        const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
        if (ready <= 0)
            continue;
        for (std::size_t i = 0; i < conns.size(); ++i) {
            if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0)
                continue;
            Conn &c = *conns[i];
            while (true) {
                const ssize_t n =
                    ::recv(c.client.fd(), buf, sizeof(buf), MSG_DONTWAIT);
                if (n < 0 && errno == EINTR)
                    continue;
                if (n <= 0) {
                    if (n == 0) // peer closed: nothing more will come
                        return;
                    break;
                }
                const std::int64_t t = nowNs();
                c.in.append(buf, static_cast<std::size_t>(n));
                std::size_t pos = 0;
                while (true) {
                    const std::size_t nl = c.in.find('\n', pos);
                    if (nl == std::string::npos)
                        break;
                    if (!c.waiting.empty()) {
                        const std::size_t j = c.waiting.front();
                        c.waiting.pop_front();
                        --open;
                        outcomes[j].recvNs = t;
                        outcomes[j].ok = hooks.check(
                            j, std::string_view(c.in).substr(pos, nl - pos),
                            outcomes[j]);
                    }
                    pos = nl + 1;
                }
                c.in.erase(0, pos);
            }
        }
    }
}

} // namespace

void
pinThread(const std::vector<int> &cpus)
{
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus)
        CPU_SET(c, &set);
    ::sched_setaffinity(0, sizeof(set), &set);
}

std::vector<LoadOutcome>
runOpenLoop(std::uint16_t port, const std::vector<LoadRequest> &stream,
            std::size_t offset, std::size_t count, double rate,
            const LoadShape &shape,
            const LoadHooks &hooks, double drain_s)
{
    std::vector<Conn> conns(shape.connections());
    for (Conn &c : conns) {
        if (!c.client.connectTo("127.0.0.1", port))
            return {};
    }
    // Thread t owns connections t, t + threads, ...; a request goes to
    // the thread owning its connection.
    std::vector<std::vector<std::size_t>> mine(shape.threads);
    std::vector<std::vector<Conn *>> owned(shape.threads);
    for (std::size_t c = 0; c < conns.size(); ++c)
        owned[c % shape.threads].push_back(&conns[c]);
    for (std::size_t j = 0; j < count; ++j)
        mine[stream[(offset + j) % stream.size()].conn % conns.size() %
             shape.threads]
            .push_back(j);

    std::vector<LoadOutcome> outcomes(count);
    // Lead time for the threads to start and the server to accept.
    const std::int64_t start = nowNs() + 20'000'000;
    const std::int64_t last_due =
        start + static_cast<std::int64_t>(static_cast<double>(count) / rate *
                                          1e9);
    const std::int64_t stop =
        last_due + static_cast<std::int64_t>(drain_s * 1e9);
    {
        std::vector<std::jthread> threads;
        for (unsigned t = 0; t < shape.threads; ++t)
            threads.emplace_back([&, t] {
                generatorThread(stream, offset, mine[t], conns, owned[t],
                                start, rate, hooks, stop,
                                t < shape.cpus.size() ? shape.cpus[t] : -1,
                                outcomes);
            });
    }
    return outcomes;
}

} // namespace perfbench
