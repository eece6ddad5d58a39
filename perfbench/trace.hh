/**
 * @file
 * In-memory span recorder for the campaign benchmark's traced runs.
 *
 * A span is one timed call into a library layer: name, start, end,
 * the span that caused it, and the cell or job it belongs to. Spans
 * are appended under a mutex (worker threads record engine cells
 * concurrently) and written out once, when the run ends, as JSON
 * Lines in start order plus a per-name / per-layer summary whose
 * self time excludes the part of each span its children cover.
 */

#ifndef DTANN_PERFBENCH_TRACE_HH
#define DTANN_PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** One finished span; times are ns since the tracer's origin. */
struct SpanRecord
{
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root
    std::string name;    ///< "<layer>.<call>", e.g. "core.inject"
    std::string cell;    ///< cell / job id ("" = run-level)
    int64_t startNs = 0;
    int64_t endNs = 0;
};

class Tracer
{
  public:
    Tracer() = default;
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Record a finished span; returns its id. */
    uint64_t add(const std::string &name, const std::string &cell,
                 uint64_t parent, Clock::time_point start,
                 Clock::time_point end);

    /** Reserve an id for a span that is still open. */
    uint64_t reserve();

    /** Record a span under an id from reserve(). */
    void finish(uint64_t id, const std::string &name,
                const std::string &cell, uint64_t parent,
                Clock::time_point start, Clock::time_point end);

    /**
     * Write the spans to @p spansPath (JSON Lines, start order) and
     * the self-time summary to @p summaryPath.
     */
    void write(const std::string &spansPath,
               const std::string &summaryPath) const;

  private:
    const Clock::time_point origin = Clock::now();
    mutable std::mutex mu;
    std::vector<SpanRecord> spans; // guarded by mu
    uint64_t nextId = 1;           // guarded by mu
};

/**
 * RAII span around one call. The parent defaults to the innermost
 * open Span on this thread. With a null tracer the span still times
 * its scope (seconds()) but records nothing.
 */
class Span
{
  public:
    static constexpr uint64_t kCurrent = UINT64_MAX;

    Span(Tracer *tracer, std::string name, std::string cell = "",
         uint64_t parent = kCurrent);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when untraced). */
    uint64_t id() const { return self; }

    /** Close the span now; returns its duration in seconds. */
    double stop();

  private:
    Tracer *tracer;
    std::string name, cell;
    uint64_t self = 0, parent = 0, saved = 0;
    Clock::time_point start;
    double elapsed = -1.0;
};

} // namespace perfbench

#endif // DTANN_PERFBENCH_TRACE_HH
