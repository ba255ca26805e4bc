/**
 * @file
 * Low-overhead request tracing for the serving stack.
 *
 * A TraceRecorder collects span / instant / counter events into
 * per-thread buffers. Every event carries *dual timestamps*:
 *
 *  - a virtual timestamp in model milliseconds — the deterministic
 *    clock every admission verdict, batch window, and critical-path
 *    fold already runs on, so the virtual projection of a trace is
 *    bit-identical for any --threads N (the repo-wide determinism
 *    contract, extended to observability); and
 *  - a wall-clock timestamp in microseconds since the recorder's
 *    epoch — genuinely nondeterministic, exported only by the wall
 *    projection (never cmp'd, like every other wall-clock surface).
 *
 * Request identity propagates as a TraceContext (trace id + parent
 * span id) created at RenderService::Submit / SubmitBatched (or the
 * cluster router above them) and carried across threads through the
 * thread-local ScopedTraceContext — the dispatch work lambda restores
 * it on the worker, so PlanCache instants and FramePlan per-op spans
 * land in the right request's trace without widening any plan-layer
 * signature.
 *
 * Span ids are content-addressed: SpanId(trace, name) hashes the pair,
 * so a parent recorded *after* its children (spans are recorded at
 * completion, when both virtual endpoints are known) still links up,
 * and ids are identical across runs by construction. Span names are
 * unique within a trace by convention (per-op span names embed the op
 * index).
 *
 * Disabled tracing (the default: no recorder installed) costs one
 * relaxed atomic load per probe — every instrumentation site guards on
 * TraceRecorder::Global() returning null. tests/trace_test.cpp asserts
 * the disabled path records nothing and bounds its probe cost.
 *
 * Export is Chrome trace-event JSON (chrome://tracing, Perfetto):
 * the virtual projection lays every request out as its own lane
 * (tid = trace id) on the model-time axis; the wall projection lays
 * events out per recording thread on the wall-clock axis.
 *
 * Thread-safety: Record* / BeginTrace / NowWallUs may be called from
 * any thread. InstallGlobal is not thread-safe against concurrent
 * Record* on the *previous* recorder — install/uninstall around, not
 * during, traced work. Export walks the buffers under their locks and
 * may run concurrently with recording (tests export after draining).
 */
#ifndef FLEXNERFER_OBS_TRACE_H_
#define FLEXNERFER_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace flexnerfer {

/** Request identity every instrumentation site keys events on. An
 *  inactive context (trace_id 0) records nothing. */
struct TraceContext {
    std::uint64_t trace_id = 0;
    /** Span id new child events attach under (0 = trace root). */
    std::uint64_t parent_span = 0;

    bool active() const { return trace_id != 0; }
};

/** Deterministic span id: a hash of (trace id, span name). Children
 *  can therefore reference a parent span that has not been recorded
 *  yet — spans are recorded at completion. */
std::uint64_t SpanId(std::uint64_t trace_id, const std::string& name);

/** Event flavor, mapping 1:1 onto Chrome trace-event phases
 *  ("X" complete, "i" instant, "C" counter). */
enum class TracePhase : std::uint8_t { kSpan, kInstant, kCounter };

/** Which timestamp axis an export projects (see file header). */
enum class TraceClock : std::uint8_t { kVirtual, kWall };

/** One key/value annotation on an event. Values are stored
 *  pre-formatted; `quoted` selects JSON string vs bare number. */
struct TraceArg {
    std::string key;
    std::string value;
    bool quoted = true;

    static TraceArg Str(std::string key, std::string value);
    static TraceArg Num(std::string key, double value);
    static TraceArg Int(std::string key, std::int64_t value);
};

/** One recorded event (see TracePhase). Virtual times are model ms;
 *  wall times are µs since the recorder's epoch. */
struct TraceEvent {
    TracePhase phase = TracePhase::kSpan;
    const char* category = "";
    std::string name;
    std::uint64_t trace_id = 0;
    std::uint64_t span_id = 0;
    std::uint64_t parent_span = 0;
    double virt_begin_ms = 0.0;
    double virt_end_ms = 0.0;  //!< == virt_begin_ms for instants/counters
    double wall_begin_us = 0.0;
    double wall_end_us = 0.0;
    /** Recording thread (wall-projection lane; registration order —
     *  nondeterministic, which is why the virtual projection never
     *  exports it). */
    std::uint32_t thread_index = 0;
    double value = 0.0;  //!< counter value (kCounter only)
    std::vector<TraceArg> args;
};

/**
 * Collects trace events into per-thread buffers and exports them as
 * Chrome trace-event JSON. One recorder is typically installed
 * process-wide (InstallGlobal); instrumentation sites fetch it with
 * Global() and skip all work when it is null.
 */
class TraceRecorder
{
  public:
    /** @p flight_capacity bounds the flight-recorder ring: the last N
     *  span/instant events kept for the FLEX_CHECK post-mortem dump. */
    explicit TraceRecorder(std::size_t flight_capacity = 64);
    ~TraceRecorder();

    TraceRecorder(const TraceRecorder&) = delete;
    TraceRecorder& operator=(const TraceRecorder&) = delete;

    /** The installed recorder, or null when tracing is disabled. One
     *  relaxed atomic load — the entire disabled-path cost. */
    static TraceRecorder* Global();

    /**
     * Installs @p recorder process-wide (null uninstalls) and routes
     * the FLEX_CHECK failure hook (common/logging.h) to the flight
     * recorder, so an aborting invariant dumps the last N spans to
     * stderr. The recorder must outlive its installation; the
     * destructor auto-uninstalls itself.
     */
    static void InstallGlobal(TraceRecorder* recorder);

    /** Opens a new trace lane and returns its id (>= 1). Ids are
     *  assigned in call order, so serialized submission sites (the
     *  benches submit from one thread) get deterministic ids. */
    std::uint64_t BeginTrace(const std::string& label);

    /**
     * Records a completed span. The span id is SpanId(ctx.trace_id,
     * @p name) and its parent is ctx.parent_span; returns the span id
     * so callers can parent children on it.
     */
    std::uint64_t RecordSpan(const TraceContext& ctx, const char* category,
                             std::string name, double virt_begin_ms,
                             double virt_end_ms, double wall_begin_us,
                             double wall_end_us,
                             std::vector<TraceArg> args = {});

    /** Records a point event under ctx.parent_span. */
    void RecordInstant(const TraceContext& ctx, const char* category,
                       std::string name, double virt_ms,
                       std::vector<TraceArg> args = {});

    /** Records a counter sample (one series per @p name; the context
     *  only tie-breaks the deterministic export order). */
    void RecordCounter(const TraceContext& ctx, const char* category,
                       std::string name, double virt_ms, double value);

    /** Wall-clock µs since the recorder's construction. */
    double NowWallUs() const;

    /** Total recorded events across all thread buffers. */
    std::size_t event_count() const;

    /** Trace count (the number of BeginTrace calls so far). */
    std::uint64_t trace_count() const;

    /**
     * Every recorded event in the canonical export order: (virtual
     * begin, trace id, longer-span-first, phase, name, value,
     * category, args). Every key is virtual-time-deterministic, and
     * events still tied differ in no field the virtual projection
     * exports, so that projection is bit-identical for any thread
     * count and any buffer an event landed in.
     */
    std::vector<TraceEvent> SortedEvents() const;

    /**
     * Serializes the Chrome trace-event JSON projection selected by
     * @p clock. kVirtual exports only deterministic fields (ts/dur
     * from virtual ms, µs scale, one lane per trace) and is the
     * artifact CI cmp's across --threads; kWall exports the wall
     * timeline per recording thread.
     */
    void WriteChromeTrace(std::ostream& out, TraceClock clock) const;

    /** WriteChromeTrace into @p path; false (with a warning) when the
     *  file cannot be opened. */
    bool WriteChromeTraceFile(const std::string& path,
                              TraceClock clock) const;

    /** Human-readable dump of the flight ring (the last N span /
     *  instant events, oldest first) for post-mortem debugging. */
    std::string FlightDump() const;

  private:
    struct Buffer {
        std::mutex mutex;
        std::uint32_t thread_index = 0;
        std::vector<TraceEvent> events;
    };

    Buffer& ThreadBuffer();
    void Append(TraceEvent event);

    const std::uint64_t serial_;  //!< distinguishes recorder instances
    const std::size_t flight_capacity_;
    const std::chrono::steady_clock::time_point epoch_;
    std::atomic<std::uint64_t> next_trace_{1};
    std::atomic<std::size_t> event_count_{0};

    mutable std::mutex mutex_;  //!< buffers_ / labels / flight ring
    std::vector<std::unique_ptr<Buffer>> buffers_;
    std::vector<std::pair<std::uint64_t, std::string>> trace_labels_;
    std::deque<TraceEvent> flight_;
};

/** The calling thread's current request context (inactive when no
 *  ScopedTraceContext is live on this thread). */
TraceContext CurrentTraceContext();

/** The virtual-time anchor (model ms) of the current scope: the
 *  timestamp instrumentation below the service layer (PlanCache,
 *  FramePlan) stamps its events with / offsets its spans from. */
double CurrentTraceAnchorMs();

/**
 * RAII propagation of a request context (plus its virtual anchor)
 * onto the calling thread — set around the dispatch work lambda, the
 * batched estimation run, and the cluster's shard Submit, so nested
 * layers inherit the request identity without signature changes.
 */
class ScopedTraceContext
{
  public:
    ScopedTraceContext(const TraceContext& ctx, double anchor_ms);
    ~ScopedTraceContext();

    ScopedTraceContext(const ScopedTraceContext&) = delete;
    ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

  private:
    TraceContext saved_ctx_;
    double saved_anchor_ms_;
};

/**
 * Bookkeeping one traced request threads from Submit to completion
 * (captured by the dispatch work lambda / batch member). Inactive —
 * all zeros, nothing recorded — when tracing is off.
 */
struct RequestTrace {
    /** trace id + the request span as parent for child events. */
    TraceContext ctx;
    /** The request span's own parent (a cluster root span, or 0). */
    std::uint64_t root_parent = 0;
    double arrival_ms = 0.0;
    double start_ms = 0.0;
    double completion_ms = 0.0;
    double wall_submit_us = 0.0;
    double wall_queued_us = 0.0;

    bool active() const { return ctx.active(); }
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_OBS_TRACE_H_
