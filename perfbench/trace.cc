#include "trace.hh"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<bool> gTracing{false};
std::atomic<std::uint64_t> gNextId{1};

/** Owner of every thread's buffer; outlives all recording threads. */
struct Registry
{
    std::mutex mutex;
    std::vector<std::unique_ptr<std::vector<SpanRecord>>> buffers;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

std::vector<SpanRecord> &
threadBuffer()
{
    thread_local std::vector<SpanRecord> *buf = [] {
        Registry &r = registry();
        std::lock_guard lock(r.mutex);
        r.buffers.push_back(std::make_unique<std::vector<SpanRecord>>());
        r.buffers.back()->reserve(1024);
        return r.buffers.back().get();
    }();
    return *buf;
}

thread_local std::uint64_t tCurrent = 0;

/** Total length of the union of [start, end) intervals. */
std::int64_t
unionLength(std::vector<std::pair<std::int64_t, std::int64_t>> iv)
{
    std::sort(iv.begin(), iv.end());
    std::int64_t total = 0;
    std::int64_t curStart = 0, curEnd = 0;
    bool open = false;
    for (const auto &[s, e] : iv) {
        if (e <= s)
            continue;
        if (!open || s > curEnd) {
            if (open)
                total += curEnd - curStart;
            curStart = s;
            curEnd = e;
            open = true;
        } else {
            curEnd = std::max(curEnd, e);
        }
    }
    if (open)
        total += curEnd - curStart;
    return total;
}

/** Children's intervals clipped to their parent, by parent index. */
std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
clippedChildren(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const SpanRecord &s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent == 0 || it == index.end())
            continue;
        const SpanRecord &p = spans[it->second];
        kids[it->second].emplace_back(std::max(s.startNs, p.startNs),
                                      std::min(s.endNs, p.endNs));
    }
    return kids;
}

} // namespace

void
setTracing(bool on)
{
    gTracing.store(on, std::memory_order_relaxed);
}

bool
tracing()
{
    return gTracing.load(std::memory_order_relaxed);
}

Span::Span(const char *layer, const char *name)
    : Span(layer, name, tCurrent)
{
}

Span::Span(const char *layer, const char *name, std::uint64_t parent)
{
    if (!tracing())
        return;
    on_ = true;
    rec_.layer = layer;
    rec_.name = name;
    rec_.id = gNextId.fetch_add(1, std::memory_order_relaxed);
    rec_.parent = parent;
    saved_ = tCurrent;
    tCurrent = rec_.id;
    rec_.startNs = nowNs();
}

Span::~Span()
{
    if (!on_)
        return;
    rec_.endNs = nowNs();
    tCurrent = saved_;
    threadBuffer().push_back(rec_);
}

void
recordSpan(const char *layer, const char *name, std::int64_t start_ns,
           std::int64_t end_ns, std::uint64_t parent)
{
    if (!tracing())
        return;
    SpanRecord rec;
    rec.layer = layer;
    rec.name = name;
    rec.id = gNextId.fetch_add(1, std::memory_order_relaxed);
    rec.parent = parent;
    rec.startNs = start_ns;
    rec.endNs = end_ns;
    threadBuffer().push_back(rec);
}

std::vector<SpanRecord>
collectSpans()
{
    Registry &r = registry();
    std::lock_guard lock(r.mutex);
    std::vector<SpanRecord> all;
    for (const auto &b : r.buffers)
        all.insert(all.end(), b->begin(), b->end());
    return all;
}

void
clearSpans()
{
    Registry &r = registry();
    std::lock_guard lock(r.mutex);
    for (const auto &b : r.buffers)
        b->clear();
}

std::vector<std::int64_t>
selfTimes(const std::vector<SpanRecord> &spans)
{
    const auto kids = clippedChildren(spans);
    std::vector<std::int64_t> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[i] = (spans[i].endNs - spans[i].startNs) - unionLength(kids[i]);
    return out;
}

std::map<std::string, double>
layerSelfSeconds(const std::vector<SpanRecord> &spans)
{
    const std::vector<std::int64_t> self = selfTimes(spans);
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer] += static_cast<double>(self[i]) * 1e-9;
    return out;
}

double
childCoverage(const std::vector<SpanRecord> &spans, std::uint64_t root)
{
    std::int64_t start = 0, end = 0;
    bool found = false;
    std::vector<std::pair<std::int64_t, std::int64_t>> kids;
    for (const SpanRecord &s : spans) {
        if (s.id == root) {
            start = s.startNs;
            end = s.endNs;
            found = true;
        }
    }
    if (!found || end <= start)
        return 0.0;
    for (const SpanRecord &s : spans)
        if (s.parent == root)
            kids.emplace_back(std::max(s.startNs, start),
                              std::min(s.endNs, end));
    return static_cast<double>(unionLength(std::move(kids))) /
           static_cast<double>(end - start);
}

} // namespace perfbench
