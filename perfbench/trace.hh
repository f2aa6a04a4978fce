/**
 * @file
 * In-memory span recording for the traced run.
 *
 * A span is a named, timed interval on one thread, with the span that
 * caused it as its parent. Spans are recorded only while tracing is
 * on (`--trace 1`); otherwise `Span` costs one predictable branch.
 * Each thread appends to its own buffer, so recording takes no lock
 * after a thread's first span. The buffers are read once, after all
 * recording threads have been joined.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds on the steady clock. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/** One recorded interval. */
struct SpanRecord
{
    /** Layer the span times (dram, calib, pccs, runner, ...). */
    const char *layer = "";
    /** Span name within the layer (a string literal). */
    const char *name = "";
    std::uint64_t id = 0;
    /** Causing span, 0 for a root. */
    std::uint64_t parent = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Turn recording on or off (off by default). */
void setTracing(bool on);
bool tracing();

/**
 * RAII span: opens on construction, closes and records on
 * destruction. The parent defaults to the thread's innermost open
 * span; pass it explicitly for work handed to another thread.
 */
class Span
{
  public:
    Span(const char *layer, const char *name);
    Span(const char *layer, const char *name, std::uint64_t parent);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::uint64_t id() const { return rec_.id; }

  private:
    SpanRecord rec_;
    std::uint64_t saved_ = 0;
    bool on_ = false;
};

/**
 * Record a finished interval measured by the caller (for work whose
 * start and end fall in different places, such as a request sent in
 * one loop pass and answered in another). No-op while tracing is off.
 */
void recordSpan(const char *layer, const char *name, std::int64_t start_ns,
                std::int64_t end_ns, std::uint64_t parent);

/** Every span recorded so far, in no particular order. */
std::vector<SpanRecord> collectSpans();

/** Forget all recorded spans. */
void clearSpans();

/**
 * Self time of each span, nanoseconds: its duration minus the part of
 * its interval covered by its children (overlapping children counted
 * once). result[i] belongs to spans[i].
 */
std::vector<std::int64_t>
selfTimes(const std::vector<SpanRecord> &spans);

/** Summed self time per layer, seconds. */
std::map<std::string, double>
layerSelfSeconds(const std::vector<SpanRecord> &spans);

/**
 * Share of span `root`'s interval that the union of its children
 * covers, in [0, 1] (0 for an unknown or empty root).
 */
double childCoverage(const std::vector<SpanRecord> &spans,
                     std::uint64_t root);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
