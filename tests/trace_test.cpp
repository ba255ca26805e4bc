/**
 * @file
 * Tests for the observability layer (src/obs/): the virtual trace
 * projection's thread-count invariance, span nesting/parentage across
 * the serving path (single service, batch join, cluster spill, cluster
 * sessions), the unified MetricsRegistry against ServiceStats, the
 * disabled path's no-op guarantee, and the FLEX_CHECK flight-recorder
 * dump.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "serve/cluster.h"
#include "serve/render_service.h"

namespace flexnerfer {
namespace {

SweepPoint
NgpFlexScene()
{
    SweepPoint spec;
    spec.backend = Backend::kFlexNeRFer;
    spec.precision = Precision::kInt8;
    spec.model = "Instant-NGP";
    return spec;
}

SweepPoint
NerfGpuScene()
{
    SweepPoint spec;
    spec.backend = Backend::kGpu;
    spec.model = "NeRF";
    return spec;
}

/** Finds the first event matching (trace, phase, name), or null. */
const TraceEvent*
Find(const std::vector<TraceEvent>& events, std::uint64_t trace,
     TracePhase phase, const std::string& name)
{
    for (const TraceEvent& event : events) {
        if (event.trace_id == trace && event.phase == phase &&
            event.name == name) {
            return &event;
        }
    }
    return nullptr;
}

std::size_t
CountNamed(const std::vector<TraceEvent>& events, TracePhase phase,
           const std::string& name)
{
    std::size_t count = 0;
    for (const TraceEvent& event : events) {
        if (event.phase == phase && event.name == name) ++count;
    }
    return count;
}

/**
 * One deterministic traced serving run: two scenes, a mixed stream of
 * accepted / shed / rejected requests, exported as the virtual
 * Chrome-trace projection. Two runs must export identically.
 */
std::string
TracedServingRun()
{
    TraceRecorder recorder;
    TraceRecorder::InstallGlobal(&recorder);
    {
        ServeConfig config;
        config.admission.max_queue_depth = 8;
        RenderService service(config);
        service.RegisterScene("ngp", NgpFlexScene());
        service.RegisterScene("nerf", NerfGpuScene());
        service.WarmScene("ngp");
        service.WarmScene("nerf");
        double arrival = 0.0;
        for (int i = 0; i < 24; ++i) {
            SceneRequest request;
            request.scene = (i % 3 == 0) ? "nerf" : "ngp";
            request.arrival_ms = arrival;
            request.priority = i % 2;
            // Some hopeless deadlines so the shed path is traced too.
            request.deadline_ms = (i % 7 == 0) ? 1.0 : 0.0;
            arrival += 5.0;
            service.Submit(request);
        }
        service.WaitAll();
    }
    TraceRecorder::InstallGlobal(nullptr);
    std::ostringstream out;
    recorder.WriteChromeTrace(out, TraceClock::kVirtual);
    return out.str();
}

TEST(TraceExport, VirtualProjectionIsRerunInvariant)
{
    // The repo-wide determinism contract extended to observability:
    // every event's virtual timestamps, ids, and order derive from the
    // virtual clock only, so the serialized projection is bit-identical
    // run after run, whatever the wall clock read.
    const std::string first = TracedServingRun();
    const std::string second = TracedServingRun();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}

TEST(TraceExport, EventsTiedOnEveryTimeKeySortByTheirArgs)
{
    // Two instants equal in time, trace, phase, name and value — such
    // as two rpc hops at one kill-replay instant — recorded from two
    // threads in either order export identically: the args break the
    // tie, so buffer order never shows.
    const auto export_in_order = [](bool a_first) {
        TraceRecorder recorder;
        TraceContext ctx;
        ctx.trace_id = recorder.BeginTrace("drill");
        const auto record = [&](std::int64_t shard) {
            std::thread([&recorder, ctx, shard] {
                recorder.RecordInstant(ctx, "transport", "rpc", 5.0,
                                       {TraceArg::Int("shard", shard)});
            }).join();
        };
        record(a_first ? 0 : 1);
        record(a_first ? 1 : 0);
        std::ostringstream out;
        recorder.WriteChromeTrace(out, TraceClock::kVirtual);
        return out.str();
    };
    const std::string forward = export_in_order(true);
    EXPECT_EQ(forward, export_in_order(false));
    EXPECT_LT(forward.find("\"shard\":0"), forward.find("\"shard\":1"));
}

TEST(TraceExport, SpanNestingLinksRequestServiceFrameAndOps)
{
    TraceRecorder recorder;
    TraceRecorder::InstallGlobal(&recorder);
    {
        ServeConfig config;
        RenderService service(config);
        service.RegisterScene("ngp", NgpFlexScene());
        service.WarmScene("ngp");
        SceneRequest request;
        request.scene = "ngp";
        request.arrival_ms = 0.0;
        service.Submit(request);
        service.WaitAll();
    }
    TraceRecorder::InstallGlobal(nullptr);

    const std::vector<TraceEvent> events = recorder.SortedEvents();
    // Trace 1 is the warm-up (ids are assigned in call order); trace 2
    // is the request.
    ASSERT_EQ(recorder.trace_count(), 2u);
    const std::uint64_t trace = 2;

    const TraceEvent* request_span =
        Find(events, trace, TracePhase::kSpan, "request");
    ASSERT_NE(request_span, nullptr);
    EXPECT_EQ(request_span->parent_span, 0u);  // root of its lane
    EXPECT_EQ(request_span->span_id, SpanId(trace, "request"));
    EXPECT_DOUBLE_EQ(request_span->virt_begin_ms, 0.0);

    const TraceEvent* queue_wait =
        Find(events, trace, TracePhase::kSpan, "queue_wait");
    ASSERT_NE(queue_wait, nullptr);
    EXPECT_EQ(queue_wait->parent_span, SpanId(trace, "request"));

    const TraceEvent* service_span =
        Find(events, trace, TracePhase::kSpan, "service");
    ASSERT_NE(service_span, nullptr);
    EXPECT_EQ(service_span->parent_span, SpanId(trace, "request"));
    // The service span starts where the queue wait ends and closes the
    // request span.
    EXPECT_DOUBLE_EQ(service_span->virt_begin_ms, queue_wait->virt_end_ms);
    EXPECT_DOUBLE_EQ(service_span->virt_end_ms, request_span->virt_end_ms);

    const TraceEvent* accepted =
        Find(events, trace, TracePhase::kInstant, "accepted");
    ASSERT_NE(accepted, nullptr);
    EXPECT_STREQ(accepted->category, "admission");

    // The prepared path records its cache outcome into the request's
    // trace. A steady-state request replays the memoized frame — the
    // FramePlan only *executes* (and records frame/op spans) where the
    // frame actually runs: the warm-up trace.
    EXPECT_NE(Find(events, trace, TracePhase::kInstant, "frame_hit"),
              nullptr);
    EXPECT_EQ(Find(events, trace, TracePhase::kSpan, "frame:Instant-NGP"),
              nullptr);

    // The warm-up thread's ScopedTraceContext carried the warm trace's
    // identity into FramePlan::Execute: the frame span parents on the
    // warm_scene root span and every per-op span parents on the frame
    // span, nested inside it on the virtual axis.
    const std::uint64_t warm = 1;
    const TraceEvent* warm_span =
        Find(events, warm, TracePhase::kSpan, "warm_scene");
    ASSERT_NE(warm_span, nullptr);
    const TraceEvent* frame_span =
        Find(events, warm, TracePhase::kSpan, "frame:Instant-NGP");
    ASSERT_NE(frame_span, nullptr);
    EXPECT_EQ(frame_span->parent_span, SpanId(warm, "warm_scene"));

    std::size_t op_spans = 0;
    for (const TraceEvent& event : events) {
        if (event.trace_id != warm || event.phase != TracePhase::kSpan ||
            std::string(event.category) != "op") {
            continue;
        }
        ++op_spans;
        EXPECT_EQ(event.parent_span, SpanId(warm, "frame:Instant-NGP"));
        EXPECT_GE(event.virt_begin_ms, frame_span->virt_begin_ms);
        EXPECT_LE(event.virt_end_ms, frame_span->virt_end_ms);
    }
    EXPECT_GT(op_spans, 0u);
}

TEST(TraceExport, BatchJoinRecordsLifecycleInstantsForEveryMember)
{
    TraceRecorder recorder;
    TraceRecorder::InstallGlobal(&recorder);
    std::uint64_t traces = 0;
    {
        ServeConfig config;
        config.batch_window_ms = 1e6;
        RenderService service(config);
        service.RegisterScene("ngp", NgpFlexScene());
        service.WarmScene("ngp");
        SceneRequest request;
        request.scene = "ngp";
        request.arrival_ms = 0.0;
        service.Submit(request);  // opener
        service.Submit(request);  // joiner
        service.Submit(request);  // joiner
        service.WaitAll();        // flushes the open window
        traces = recorder.trace_count();
    }
    TraceRecorder::InstallGlobal(nullptr);

    // Warm trace + three request traces.
    EXPECT_EQ(traces, 4u);
    const std::vector<TraceEvent> events = recorder.SortedEvents();
    EXPECT_EQ(CountNamed(events, TracePhase::kInstant, "batch_open"), 1u);
    EXPECT_EQ(CountNamed(events, TracePhase::kInstant, "batch_join"), 2u);
    EXPECT_EQ(CountNamed(events, TracePhase::kInstant, "batch_flush"), 1u);
    // Every member gets its own request + service spans; the fused
    // execution runs once, under the opener's context.
    EXPECT_EQ(CountNamed(events, TracePhase::kSpan, "request"), 3u);
    EXPECT_EQ(CountNamed(events, TracePhase::kSpan, "service"), 3u);
    EXPECT_EQ(
        CountNamed(events, TracePhase::kSpan, "frame:Instant-NGP+batch3"),
        1u);
    // Its op spans name each element's ops by their interned "#e<k>"
    // views: the 8-op base frame's last op, in element 2, is op 23.
    EXPECT_EQ(CountNamed(events, TracePhase::kSpan,
                         "op23:occupancy_marching#e2"),
              1u);
    // The joiners' batch_join instants name the batch they joined: the
    // opener's trace (trace 2; 1 is the warm-up).
    for (const TraceEvent& event : events) {
        if (event.name != "batch_join") continue;
        bool found = false;
        for (const TraceArg& arg : event.args) {
            if (arg.key != "batch_trace") continue;
            EXPECT_EQ(arg.value, "2");
            found = true;
        }
        EXPECT_TRUE(found);
    }
}

TEST(TraceExport, AcceptedInstantReportsTheBookedEstimateWhenBatching)
{
    // An accepted instant's est_service_ms is what admission booked:
    // the rule's price plus the surcharge, for a batch opener and a
    // joiner just as for a solo or session frame.
    TraceRecorder recorder;
    TraceRecorder::InstallGlobal(&recorder);
    constexpr double kExtraMs = 0.5;
    double solo = 0.0;
    double marginal = 0.0;
    {
        ServeConfig config;
        config.batch_window_ms = 1e6;
        RenderService service(config);
        service.RegisterScene("ngp", NgpFlexScene());
        solo = EstimatedServiceMs(service.WarmScene("ngp"));
        SceneRequest request;
        request.scene = "ngp";
        SubmitOptions options;
        options.extra_service_ms = kExtraMs;
        service.Submit(request, options);  // opener
        const RequestPrice joiner = service.Preview(request, options);
        ASSERT_EQ(joiner.rule, PriceRule::kJoin);
        marginal = joiner.price_ms;
        service.Submit(request, options);  // joiner
        service.WaitAll();
    }
    TraceRecorder::InstallGlobal(nullptr);

    // Trace 1 is the warm-up; the opener is trace 2, the joiner 3.
    const std::vector<TraceEvent> events = recorder.SortedEvents();
    const auto booked = [&](std::uint64_t trace) {
        const TraceEvent* accepted =
            Find(events, trace, TracePhase::kInstant, "accepted");
        if (accepted == nullptr) return std::string("none");
        for (const TraceArg& arg : accepted->args) {
            if (arg.key == "est_service_ms") return arg.value;
        }
        return std::string("missing");
    };
    EXPECT_EQ(booked(2), TraceArg::Num("", solo + kExtraMs).value);
    EXPECT_EQ(booked(3), TraceArg::Num("", marginal + kExtraMs).value);
}

TEST(TraceExport, ClusterRoutingRecordsProbesAndSpills)
{
    TraceRecorder recorder;
    TraceRecorder::InstallGlobal(&recorder);
    std::size_t spilled = 0;
    std::size_t submitted = 0;
    {
        ClusterConfig config;
        config.shards = 2;
        config.admission.max_queue_depth = 1;  // force spills fast
        ShardedRenderService cluster(config);
        cluster.RegisterScene("ngp", NgpFlexScene());
        cluster.WarmScene("ngp");
        for (int i = 0; i < 6; ++i) {
            SceneRequest request;
            request.scene = "ngp";
            request.arrival_ms = 0.0;
            cluster.Submit(request);
            ++submitted;
        }
        for (const ClusterRenderResult& r : cluster.WaitAll()) {
            if (r.spilled) ++spilled;
        }
    }
    TraceRecorder::InstallGlobal(nullptr);

    ASSERT_GT(spilled, 0u) << "the tight queue must force a spill";
    const std::vector<TraceEvent> events = recorder.SortedEvents();
    // Every submission records its home probe, one route decision, and
    // a cluster_submit root span.
    EXPECT_EQ(CountNamed(events, TracePhase::kInstant, "route"), submitted);
    EXPECT_EQ(CountNamed(events, TracePhase::kSpan, "cluster_submit"),
              submitted);
    std::size_t probes = 0;
    std::size_t spilled_routes = 0;
    for (const TraceEvent& event : events) {
        if (event.phase != TracePhase::kInstant) continue;
        if (event.name.rfind("probe:shard", 0) == 0) ++probes;
        if (event.name != "route") continue;
        for (const TraceArg& arg : event.args) {
            if (arg.key == "spilled" && arg.value == "1") ++spilled_routes;
        }
    }
    EXPECT_GE(probes, submitted);  // home probe always, spills probe more
    EXPECT_EQ(spilled_routes, spilled);
    // The request span under a routed trace parents on the cluster's
    // root span.
    bool checked_parent = false;
    for (const TraceEvent& event : events) {
        if (event.phase != TracePhase::kSpan || event.name != "request") {
            continue;
        }
        EXPECT_EQ(event.parent_span,
                  SpanId(event.trace_id, "cluster_submit"));
        checked_parent = true;
    }
    EXPECT_TRUE(checked_parent);
}

/**
 * One traced run of trajectory sessions on a 2-shard cluster: sessions
 * on two scenes homed on different shards pan at a few speeds, so their
 * frames cross several cold delta shapes (one compile each, however
 * many frames or sessions reach it). Returns the virtual projection;
 * @p events receives the sorted events.
 */
std::string
TracedClusterSessionRun(std::vector<TraceEvent>* events)
{
    TraceRecorder recorder;
    TraceRecorder::InstallGlobal(&recorder);
    {
        ClusterConfig config;
        config.shards = 2;
        ShardedRenderService cluster(config);
        // A second scene homed on the other shard, so both replicas
        // compile delta shapes.
        const std::vector<std::string> names = {"ngp", "ngp-b", "ngp-c",
                                                "ngp-d", "ngp-e"};
        std::string second;
        for (const std::string& name : names) {
            if (cluster.router().Home(name) != cluster.router().Home("ngp")) {
                second = name;
                break;
            }
        }
        EXPECT_FALSE(second.empty());
        cluster.RegisterScene("ngp", NgpFlexScene());
        cluster.RegisterScene(second, NerfGpuScene());
        const std::vector<std::string> scenes = {"ngp", "ngp", second};
        std::vector<SessionId> sessions;
        for (const std::string& scene : scenes) {
            sessions.push_back(cluster.OpenSession(scene));
        }
        const double steps[] = {0.05, 0.1, 0.05, 0.2, 0.1, 0.3};
        double arrival = 0.0;
        for (std::size_t frame = 0; frame < 12; ++frame) {
            for (std::size_t s = 0; s < sessions.size(); ++s) {
                SceneRequest request;
                request.scene = scenes[s];
                request.arrival_ms = arrival;
                SubmitOptions options;
                options.session = sessions[s];
                options.pose.x = static_cast<double>(frame) * steps[frame % 6];
                cluster.Submit(request, options);
                arrival += 50.0;
            }
        }
        cluster.WaitAll();
    }
    TraceRecorder::InstallGlobal(nullptr);
    *events = recorder.SortedEvents();
    std::ostringstream out;
    recorder.WriteChromeTrace(out, TraceClock::kVirtual);
    return out.str();
}

TEST(TraceExport, ClusterSessionDeltaCompilesTraceOnce)
{
    // The router no longer previews a session frame's price before its
    // Submit, so a cold delta shape's compile and estimation run land
    // in the frame's own trace context, inside the shard's Submit. The
    // projection must still be identical run after run, and each cold
    // shape must compile (and trace) exactly once.
    std::vector<TraceEvent> events;
    std::vector<TraceEvent> unused;
    const std::string one = TracedClusterSessionRun(&events);
    EXPECT_EQ(one, TracedClusterSessionRun(&unused));

    std::vector<std::string> shapes;
    for (const TraceEvent& event : events) {
        if (event.phase == TracePhase::kSpan &&
            event.name.rfind("frame:", 0) == 0 &&
            event.name.find("+delta") != std::string::npos) {
            shapes.push_back(event.name);
        }
    }
    EXPECT_GE(shapes.size(), 3u);
    for (const std::string& shape : shapes) {
        EXPECT_EQ(CountNamed(events, TracePhase::kSpan, shape), 1u)
            << shape;
    }
    // Each traced delta frame names its ops by their interned "#d"
    // views, its appended warp pass included.
    const std::string warp = ":warp_validate#d";
    std::size_t warp_spans = 0;
    for (const TraceEvent& event : events) {
        if (event.phase == TracePhase::kSpan &&
            std::string(event.category) == "op" &&
            event.name.size() > warp.size() &&
            event.name.compare(event.name.size() - warp.size(),
                               warp.size(), warp) == 0) {
            ++warp_spans;
        }
    }
    EXPECT_EQ(warp_spans, shapes.size());
    // Each compile sits in a routed request's trace, under its request
    // context, not in an orphan lane.
    for (const TraceEvent& event : events) {
        if (event.phase != TracePhase::kSpan ||
            event.name.find("+delta") == std::string::npos ||
            event.name.rfind("frame:", 0) != 0) {
            continue;
        }
        EXPECT_NE(Find(events, event.trace_id, TracePhase::kSpan,
                       "cluster_submit"),
                  nullptr);
        EXPECT_EQ(event.parent_span, SpanId(event.trace_id, "request"));
    }
}

TEST(MetricsRegistry, SnapshotPublishMatchesServiceStats)
{
    ServeConfig config;
    config.admission.max_queue_depth = 4;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    service.RegisterScene("nerf", NerfGpuScene());
    service.WarmScene("ngp");
    service.WarmScene("nerf");
    for (int i = 0; i < 16; ++i) {
        SceneRequest request;
        request.scene = (i % 2 == 0) ? "ngp" : "nerf";
        request.arrival_ms = 2.0 * static_cast<double>(i);
        request.deadline_ms = (i % 5 == 0) ? 1.0 : 0.0;
        service.Submit(request);
    }
    service.WaitAll();

    const ServiceStats stats = service.Snapshot();
    MetricsRegistry registry;
    stats.PublishTo(registry);

    EXPECT_EQ(registry.Counter("serve.submitted"),
              static_cast<double>(stats.submitted));
    EXPECT_EQ(registry.Counter("serve.accepted"),
              static_cast<double>(stats.accepted));
    EXPECT_EQ(registry.Counter("serve.shed_deadline"),
              static_cast<double>(stats.shed_deadline));
    EXPECT_EQ(registry.Counter("serve.rejected_queue_full"),
              static_cast<double>(stats.rejected_queue_full));
    EXPECT_EQ(registry.Counter("serve.cache.frame_hits"),
              static_cast<double>(stats.cache.frame_hits));
    EXPECT_EQ(registry.Gauge("serve.shed_rate"), stats.ShedRate());
    EXPECT_EQ(registry.Gauge("serve.latency.p50_ms"), stats.p50_ms);
    EXPECT_EQ(registry.Gauge("serve.latency.p99_ms"), stats.p99_ms);
    EXPECT_EQ(registry.Gauge("serve.utilization"), stats.utilization);
    // Per-scene slices ride along.
    for (const SceneStats& scene : stats.scenes) {
        EXPECT_EQ(
            registry.Counter("serve.scene." + scene.name + ".requests"),
            static_cast<double>(scene.requests));
    }

    // The JSON export parses as one counters + one gauges object and
    // round-trips a spot value.
    const std::string json = registry.ToJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"serve.submitted\""), std::string::npos);
}

TEST(TraceDisabled, RecordsNothingAndKeepsProbesCheap)
{
    // The default: no recorder installed. Every instrumentation site
    // guards on this one relaxed load, so the whole serving path must
    // work — and record nothing — without one.
    ASSERT_EQ(TraceRecorder::Global(), nullptr);
    EXPECT_FALSE(CurrentTraceContext().active());

    ServeConfig config;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    service.WarmScene("ngp");
    SceneRequest request;
    request.scene = "ngp";
    request.arrival_ms = 0.0;
    service.Submit(request);
    service.WaitAll();
    EXPECT_EQ(TraceRecorder::Global(), nullptr);

    // Bound the disabled-path probe cost: 2M probes in well under a
    // (very generous, CI-noise-proof) second.
    const auto begin = std::chrono::steady_clock::now();
    std::size_t nulls = 0;
    for (int i = 0; i < 2000000; ++i) {
        if (TraceRecorder::Global() == nullptr) ++nulls;
    }
    const double elapsed_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - begin)
            .count();
    EXPECT_EQ(nulls, 2000000u);
    EXPECT_LT(elapsed_ms, 1000.0);
}

using FlightRecorderDeathTest = ::testing::Test;

TEST(FlightRecorderDeathTest, CheckFailureDumpsTheLastSpans)
{
    // A failing FLEX_CHECK must route through the logging hook into
    // the flight-recorder dump: the post-mortem shows the last spans
    // (here, the instant recorded just before the failure).
    EXPECT_DEATH(
        {
            TraceRecorder recorder(8);
            TraceRecorder::InstallGlobal(&recorder);
            const std::uint64_t trace = recorder.BeginTrace("doomed");
            TraceContext ctx;
            ctx.trace_id = trace;
            recorder.RecordInstant(ctx, "test", "about_to_fail", 1.0);
            FLEX_CHECK_MSG(1 == 2, "intentional trace_test failure");
        },
        "about_to_fail");
}

}  // namespace
}  // namespace flexnerfer
