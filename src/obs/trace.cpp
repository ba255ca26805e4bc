#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <tuple>

#include "common/logging.h"

namespace flexnerfer {
namespace {

std::atomic<TraceRecorder*> g_recorder{nullptr};
std::atomic<std::uint64_t> g_recorder_serial{1};

thread_local TraceContext tls_ctx;
thread_local double tls_anchor_ms = 0.0;

/** Dumps the installed recorder's flight ring to stderr; registered
 *  as the FLEX_CHECK failure hook while a recorder is installed. */
void
DumpGlobalFlightRecorder()
{
    TraceRecorder* const recorder = TraceRecorder::Global();
    if (recorder == nullptr) return;
    const std::string dump = recorder->FlightDump();
    std::fputs(dump.c_str(), stderr);
}

/** Fixed three-decimal formatting for exported timestamps: the same
 *  double always serializes to the same bytes, which is what makes
 *  the virtual projection cmp-able across runs. */
std::string
FormatFixed3(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f", value);
    return buffer;
}

std::string
EscapeJson(const std::string& raw)
{
    std::string out;
    out.reserve(raw.size());
    for (const char c : raw) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
AppendArgsJson(std::ostream& out, const std::vector<TraceArg>& args)
{
    out << "\"args\":{";
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out << ",";
        out << "\"" << EscapeJson(args[i].key) << "\":";
        if (args[i].quoted) {
            out << "\"" << EscapeJson(args[i].value) << "\"";
        } else {
            out << args[i].value;
        }
    }
    out << "}";
}

const char*
PhaseLetter(TracePhase phase)
{
    switch (phase) {
      case TracePhase::kSpan: return "X";
      case TracePhase::kInstant: return "i";
      case TracePhase::kCounter: return "C";
    }
    return "X";
}

}  // namespace

std::uint64_t
SpanId(std::uint64_t trace_id, const std::string& name)
{
    // FNV-1a over the trace id bytes then the name: stable across
    // runs, platforms, and recording order by construction.
    std::uint64_t hash = 1469598103934665603ull;
    for (int shift = 0; shift < 64; shift += 8) {
        hash ^= (trace_id >> shift) & 0xffull;
        hash *= 1099511628211ull;
    }
    for (const char c : name) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    // Never 0: 0 means "no parent".
    return hash == 0 ? 1 : hash;
}

TraceArg
TraceArg::Str(std::string key, std::string value)
{
    TraceArg arg;
    arg.key = std::move(key);
    arg.value = std::move(value);
    arg.quoted = true;
    return arg;
}

TraceArg
TraceArg::Num(std::string key, double value)
{
    TraceArg arg;
    arg.key = std::move(key);
    arg.value = FormatFixed3(value);
    arg.quoted = false;
    return arg;
}

TraceArg
TraceArg::Int(std::string key, std::int64_t value)
{
    TraceArg arg;
    arg.key = std::move(key);
    arg.value = std::to_string(value);
    arg.quoted = false;
    return arg;
}

TraceRecorder::TraceRecorder(std::size_t flight_capacity)
    : serial_(g_recorder_serial.fetch_add(1)),
      flight_capacity_(flight_capacity),
      epoch_(std::chrono::steady_clock::now())
{}

TraceRecorder::~TraceRecorder()
{
    // Auto-uninstall so a dying recorder never dangles behind the
    // global pointer (tests install stack-local recorders).
    TraceRecorder* expected = this;
    if (g_recorder.compare_exchange_strong(expected, nullptr)) {
        SetCheckFailureHook(nullptr);
    }
}

TraceRecorder*
TraceRecorder::Global()
{
    return g_recorder.load(std::memory_order_relaxed);
}

void
TraceRecorder::InstallGlobal(TraceRecorder* recorder)
{
    g_recorder.store(recorder, std::memory_order_release);
    // Route FLEX_CHECK failures through the flight recorder: an
    // aborting invariant dumps the last N spans post-mortem.
    SetCheckFailureHook(recorder != nullptr ? &DumpGlobalFlightRecorder
                                            : nullptr);
}

std::uint64_t
TraceRecorder::BeginTrace(const std::string& label)
{
    const std::uint64_t trace = next_trace_.fetch_add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    trace_labels_.emplace_back(trace, label);
    return trace;
}

TraceRecorder::Buffer&
TraceRecorder::ThreadBuffer()
{
    // Cache keyed by the recorder's serial so a thread outliving one
    // recorder never writes into a stale buffer of the next.
    struct Cache {
        std::uint64_t serial = 0;
        Buffer* buffer = nullptr;
    };
    thread_local Cache cache;
    if (cache.serial != serial_ || cache.buffer == nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto owned = std::make_unique<Buffer>();
        owned->thread_index = static_cast<std::uint32_t>(buffers_.size());
        cache.buffer = owned.get();
        cache.serial = serial_;
        buffers_.push_back(std::move(owned));
    }
    return *cache.buffer;
}

void
TraceRecorder::Append(TraceEvent event)
{
    if (event.phase != TracePhase::kCounter && flight_capacity_ > 0) {
        std::lock_guard<std::mutex> lock(mutex_);
        flight_.push_back(event);
        while (flight_.size() > flight_capacity_) flight_.pop_front();
    }
    Buffer& buffer = ThreadBuffer();
    event.thread_index = buffer.thread_index;
    std::lock_guard<std::mutex> lock(buffer.mutex);
    buffer.events.push_back(std::move(event));
    event_count_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t
TraceRecorder::RecordSpan(const TraceContext& ctx, const char* category,
                          std::string name, double virt_begin_ms,
                          double virt_end_ms, double wall_begin_us,
                          double wall_end_us, std::vector<TraceArg> args)
{
    if (!ctx.active()) return 0;
    TraceEvent event;
    event.phase = TracePhase::kSpan;
    event.category = category;
    event.trace_id = ctx.trace_id;
    event.span_id = SpanId(ctx.trace_id, name);
    event.parent_span = ctx.parent_span;
    event.name = std::move(name);
    event.virt_begin_ms = virt_begin_ms;
    event.virt_end_ms = virt_end_ms;
    event.wall_begin_us = wall_begin_us;
    event.wall_end_us = wall_end_us;
    event.args = std::move(args);
    const std::uint64_t span = event.span_id;
    Append(std::move(event));
    return span;
}

void
TraceRecorder::RecordInstant(const TraceContext& ctx, const char* category,
                             std::string name, double virt_ms,
                             std::vector<TraceArg> args)
{
    if (!ctx.active()) return;
    TraceEvent event;
    event.phase = TracePhase::kInstant;
    event.category = category;
    event.trace_id = ctx.trace_id;
    event.span_id = SpanId(ctx.trace_id, name);
    event.parent_span = ctx.parent_span;
    event.name = std::move(name);
    event.virt_begin_ms = virt_ms;
    event.virt_end_ms = virt_ms;
    const double now_us = NowWallUs();
    event.wall_begin_us = now_us;
    event.wall_end_us = now_us;
    event.args = std::move(args);
    Append(std::move(event));
}

void
TraceRecorder::RecordCounter(const TraceContext& ctx, const char* category,
                             std::string name, double virt_ms, double value)
{
    TraceEvent event;
    event.phase = TracePhase::kCounter;
    event.category = category;
    event.trace_id = ctx.trace_id;
    event.name = std::move(name);
    event.virt_begin_ms = virt_ms;
    event.virt_end_ms = virt_ms;
    const double now_us = NowWallUs();
    event.wall_begin_us = now_us;
    event.wall_end_us = now_us;
    event.value = value;
    Append(std::move(event));
}

double
TraceRecorder::NowWallUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

std::size_t
TraceRecorder::event_count() const
{
    return event_count_.load(std::memory_order_relaxed);
}

std::uint64_t
TraceRecorder::trace_count() const
{
    return next_trace_.load() - 1;
}

std::vector<TraceEvent>
TraceRecorder::SortedEvents() const
{
    std::vector<TraceEvent> events;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const std::unique_ptr<Buffer>& buffer : buffers_) {
            std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
            events.insert(events.end(), buffer->events.begin(),
                          buffer->events.end());
        }
    }
    // Canonical order: every key is virtual-time-deterministic (which
    // buffer an event landed in is not — that is exactly what this
    // sort erases). Longer spans first, so a parent recorded on a
    // different thread than its child still precedes it at equal
    // begin times. The order is total over everything the virtual
    // projection exports: events left tied differ in no exported
    // field, so their relative order cannot show.
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  if (a.virt_begin_ms != b.virt_begin_ms) {
                      return a.virt_begin_ms < b.virt_begin_ms;
                  }
                  if (a.trace_id != b.trace_id) {
                      return a.trace_id < b.trace_id;
                  }
                  if (a.virt_end_ms != b.virt_end_ms) {
                      return a.virt_end_ms > b.virt_end_ms;
                  }
                  if (a.phase != b.phase) return a.phase < b.phase;
                  if (a.name != b.name) return a.name < b.name;
                  if (a.value != b.value) return a.value < b.value;
                  const int category =
                      std::strcmp(a.category, b.category);
                  if (category != 0) return category < 0;
                  return std::lexicographical_compare(
                      a.args.begin(), a.args.end(), b.args.begin(),
                      b.args.end(),
                      [](const TraceArg& x, const TraceArg& y) {
                          return std::tie(x.key, x.value, x.quoted) <
                                 std::tie(y.key, y.value, y.quoted);
                      });
              });
    return events;
}

void
TraceRecorder::WriteChromeTrace(std::ostream& out, TraceClock clock) const
{
    const std::vector<TraceEvent> events = SortedEvents();
    std::vector<std::pair<std::uint64_t, std::string>> labels;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        labels = trace_labels_;
    }
    std::sort(labels.begin(), labels.end());

    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    const auto comma = [&first, &out]() {
        if (!first) out << ",\n";
        first = false;
    };

    comma();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
        << "\"args\":{\"name\":\""
        << (clock == TraceClock::kVirtual
                ? "flexnerfer serving (virtual model time)"
                : "flexnerfer serving (wall clock)")
        << "\"}}";
    if (clock == TraceClock::kVirtual) {
        // One lane per trace, labeled and ordered by trace id.
        for (const auto& label : labels) {
            comma();
            out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                << "\"tid\":" << label.first << ",\"args\":{\"name\":\""
                << EscapeJson(label.second) << "\"}}";
            comma();
            out << "{\"name\":\"thread_sort_index\",\"ph\":\"M\","
                << "\"pid\":0,\"tid\":" << label.first
                << ",\"args\":{\"sort_index\":" << label.first << "}}";
        }
    }

    for (const TraceEvent& event : events) {
        const bool virt = clock == TraceClock::kVirtual;
        // Virtual ts is model ms scaled to the trace format's µs; wall
        // ts is already µs (since the recorder epoch).
        const double ts =
            virt ? event.virt_begin_ms * 1000.0 : event.wall_begin_us;
        const double dur = virt
                               ? (event.virt_end_ms - event.virt_begin_ms) *
                                     1000.0
                               : event.wall_end_us - event.wall_begin_us;
        const std::uint64_t tid =
            virt ? (event.phase == TracePhase::kCounter ? 0
                                                        : event.trace_id)
                 : event.thread_index;
        comma();
        out << "{\"name\":\"" << EscapeJson(event.name) << "\",\"cat\":\""
            << event.category << "\",\"ph\":\""
            << PhaseLetter(event.phase) << "\",\"ts\":" << FormatFixed3(ts)
            << ",\"pid\":0,\"tid\":" << tid;
        switch (event.phase) {
          case TracePhase::kSpan:
            out << ",\"dur\":" << FormatFixed3(dur);
            break;
          case TracePhase::kInstant:
            out << ",\"s\":\"t\"";
            break;
          case TracePhase::kCounter:
            break;
        }
        out << ",";
        if (event.phase == TracePhase::kCounter) {
            out << "\"args\":{\"value\":" << FormatFixed3(event.value)
                << "}";
        } else {
            AppendArgsJson(out, event.args);
        }
        out << "}";
    }
    out << "\n]}\n";
}

bool
TraceRecorder::WriteChromeTraceFile(const std::string& path,
                                    TraceClock clock) const
{
    std::ofstream out(path);
    if (!out) {
        Warn("cannot open trace output file '" + path + "'");
        return false;
    }
    WriteChromeTrace(out, clock);
    return static_cast<bool>(out);
}

std::string
TraceRecorder::FlightDump() const
{
    std::deque<TraceEvent> flight;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        flight = flight_;
    }
    std::ostringstream out;
    out << "=== flight recorder: last " << flight.size()
        << " trace events (oldest first) ===\n";
    for (const TraceEvent& event : flight) {
        out << "  [trace " << event.trace_id << "] "
            << (event.phase == TracePhase::kSpan ? "span" : "instant")
            << " '" << event.name << "' cat=" << event.category
            << " virt=[" << FormatFixed3(event.virt_begin_ms) << ", "
            << FormatFixed3(event.virt_end_ms) << "] ms";
        for (const TraceArg& arg : event.args) {
            out << " " << arg.key << "=" << arg.value;
        }
        out << "\n";
    }
    return out.str();
}

TraceContext
CurrentTraceContext()
{
    return tls_ctx;
}

double
CurrentTraceAnchorMs()
{
    return tls_anchor_ms;
}

ScopedTraceContext::ScopedTraceContext(const TraceContext& ctx,
                                       double anchor_ms)
    : saved_ctx_(tls_ctx), saved_anchor_ms_(tls_anchor_ms)
{
    tls_ctx = ctx;
    tls_anchor_ms = anchor_ms;
}

ScopedTraceContext::~ScopedTraceContext()
{
    tls_ctx = saved_ctx_;
    tls_anchor_ms = saved_anchor_ms_;
}

}  // namespace flexnerfer
