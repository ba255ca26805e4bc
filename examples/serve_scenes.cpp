/**
 * @file
 * Walkthrough of the render-serving front-end (src/serve/): register
 * scenes, warm them into the prepared-frame registry, submit requests
 * with priorities and deadlines, and read the telemetry snapshot.
 *
 * With --shards N (N >= 2) the walkthrough instead drives the sharded
 * front-end (serve/cluster.h): rendezvous routing, overload spill with
 * its virtual recompile surcharge, merged cluster telemetry, and a
 * drain/rebalance to N+1 shards.
 *
 * With --trace-out PATH either mode records an end-to-end request
 * trace (obs/trace.h) — admission verdicts, queue waits, per-op
 * execution spans, routing probes — and exports it as Chrome
 * trace-event JSON loadable in chrome://tracing or Perfetto, plus a
 * unified-metrics demo (obs/metrics_registry.h).
 *
 * All request outcomes and latencies are in virtual (model) time, so
 * this walkthrough prints the same thing on any machine and any thread
 * count — the serving determinism contract (the trace's virtual
 * projection included).
 */
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/table.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "runtime/sweep_runner.h"
#include "serve/cluster.h"
#include "serve/render_service.h"

using namespace flexnerfer;

namespace {

/** The walkthrough's three scenes (shared by both modes). */
std::vector<std::pair<std::string, SweepPoint>>
WalkthroughScenes()
{
    SweepPoint ngp_edge;
    ngp_edge.backend = Backend::kFlexNeRFer;
    ngp_edge.precision = Precision::kInt8;
    ngp_edge.model = "Instant-NGP";

    SweepPoint nerf_gpu;
    nerf_gpu.backend = Backend::kGpu;
    nerf_gpu.model = "NeRF";

    SweepPoint tensorf_neurex;
    tensorf_neurex.backend = Backend::kNeuRex;
    tensorf_neurex.model = "TensoRF";

    return {{"ngp-edge", ngp_edge},
            {"nerf-gpu", nerf_gpu},
            {"tensorf-neurex", tensorf_neurex}};
}

/** The sharded walkthrough: routing, spill, merged telemetry, resize. */
int
RunSharded(std::size_t shards)
{
    ClusterConfig config;
    config.shards = shards;
    config.plan_cache_capacity = 8;
    config.admission.max_queue_depth = 4;
    config.spill_recompile_factor = 1.0;
    ShardedRenderService cluster(config);

    std::printf("== Scene routing over %zu shards (rendezvous "
                "hashing) ==\n",
                shards);
    Table routing({"Scene", "Est [ms]", "Home shard", "Spill candidate"});
    std::vector<std::string> names;
    for (const auto& [name, spec] : WalkthroughScenes()) {
        cluster.RegisterScene(name, spec);
        names.push_back(name);
    }
    for (const std::string& name : names) {
        const FrameCost cost = cluster.WarmScene(name);
        const std::vector<std::size_t> rank = cluster.router().Rank(name);
        // The estimate the router probes with: the frame's critical
        // path (pipelined plans overlap independent stages).
        routing.AddRow({name, FormatDouble(EstimatedServiceMs(cost), 3),
                        std::to_string(rank[0]),
                        rank.size() > 1 ? std::to_string(rank[1]) : "-"});
    }
    std::printf("%s\n", routing.ToString().c_str());

    // A simultaneous burst aimed at one scene: its home shard's tight
    // queue overflows, so later requests spill to the next-ranked shard
    // (paying the recompile surcharge on the first landing) and the
    // rest shed once every candidate is saturated.
    std::printf("== Burst on one scene: home fills, spill absorbs ==\n");
    std::vector<ClusterTicket> tickets;
    for (int i = 0; i < 12; ++i) {
        SceneRequest request;
        request.scene = "ngp-edge";
        request.arrival_ms = 0.0;
        tickets.push_back(cluster.Submit(request));
    }
    Table outcomes({"#", "Status", "Shard", "Home", "Spilled",
                    "Surcharge [ms]", "Latency [ms]"});
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        const ClusterRenderResult r = cluster.Wait(tickets[i]);
        outcomes.AddRow(
            {std::to_string(i), ToString(r.result.status),
             std::to_string(r.shard), std::to_string(r.home_shard),
             r.spilled ? "yes" : "no",
             r.spilled ? FormatDouble(r.spill_surcharge_ms, 3) : "-",
             r.result.status == RequestStatus::kCompleted
                 ? FormatDouble(r.result.latency_ms, 3)
                 : "-"});
    }
    std::printf("%s\n", outcomes.ToString().c_str());

    const ClusterStats stats = cluster.Snapshot();
    std::printf("== Cluster telemetry (merged histograms) ==\n");
    std::printf("  accepted %llu (spilled %llu, spill compiles %llu), "
                "shed %llu, rejected %llu\n",
                static_cast<unsigned long long>(stats.accepted),
                static_cast<unsigned long long>(stats.spilled),
                static_cast<unsigned long long>(stats.spill_recompiles),
                static_cast<unsigned long long>(stats.shed_deadline),
                static_cast<unsigned long long>(stats.rejected_queue_full));
    std::printf("  latency p50 %s ms, p90 %s ms, p99 %s ms\n",
                FormatDouble(stats.p50_ms, 3).c_str(),
                FormatDouble(stats.p90_ms, 3).c_str(),
                FormatDouble(stats.p99_ms, 3).c_str());
    for (std::size_t i = 0; i < stats.per_shard.size(); ++i) {
        const ShardTelemetry& shard = stats.per_shard[i];
        std::printf("  shard %zu: homed %llu, accepted %llu, spill in "
                    "%llu / out %llu, frame hits %llu\n",
                    i, static_cast<unsigned long long>(shard.homed),
                    static_cast<unsigned long long>(shard.service.accepted),
                    static_cast<unsigned long long>(shard.spill_in),
                    static_cast<unsigned long long>(shard.spill_out),
                    static_cast<unsigned long long>(
                        shard.service.cache.frame_hits));
    }

    // Drain and rebalance onto one more shard: rendezvous hashing moves
    // the provable minimum of scenes, and lifetime telemetry survives.
    const std::size_t moved = cluster.Resize(shards + 1);
    std::printf("\n== Rebalance %zu -> %zu shards: %zu of %zu scene(s) "
                "moved ==\n",
                shards, shards + 1, moved, names.size());
    for (const std::string& name : names) {
        std::printf("  %-15s home shard %zu\n", name.c_str(),
                    cluster.router().Home(name));
    }
    const ClusterStats after = cluster.Snapshot();
    std::printf("  lifetime accepted %llu (telemetry survives the "
                "rebalance)\n",
                static_cast<unsigned long long>(after.accepted));
    return 0;
}

/** The single-service walkthrough (the default mode). */
int
RunSingle()
{
    // A service with a tight queue and a default deadline, so this
    // walkthrough shows all three admission outcomes.
    ServeConfig config;
    config.plan_cache_capacity = 8;  // bounded LRU; scenes stay pinned
    config.admission.max_queue_depth = 4;
    RenderService service(config);

    // Scenes pair a workload with a device configuration (Instant-NGP
    // on the FlexNeRFer INT8 config is the paper's headline on-device
    // case; the GPU roofline serves as the datacenter fallback). The
    // catalogue is shared with the sharded walkthrough.
    for (const auto& [name, spec] : WalkthroughScenes()) {
        service.RegisterScene(name, spec);
    }

    // First touch compiles the scene and pins its prepared frame; the
    // printed estimate — the frame's dependency-DAG critical path — is
    // what admission control will schedule with.
    std::printf("== Scene warm-up (compile + pin + estimate) ==\n");
    for (const auto& [name, spec] : WalkthroughScenes()) {
        (void)spec;
        std::printf("  %-15s est %s ms/frame (critical path)\n",
                    name.c_str(),
                    FormatDouble(EstimatedServiceMs(service.WarmScene(name)),
                                 3)
                        .c_str());
    }

    // A burst of simultaneous requests: a high-priority AR client with
    // a real-time budget, background requests, and more work than the
    // queue admits. Arrivals share one virtual timestamp, so admission
    // order is exactly submission order.
    struct Spec {
        const char* scene;
        int priority;
        double deadline_ms;
    };
    const std::vector<Spec> burst = {
        {"ngp-edge", 2, 0.0},        // high priority, no deadline
        {"nerf-gpu", 0, 0.0},        // background
        {"ngp-edge", 1, 40.0},       // 25 FPS-ish budget
        {"tensorf-neurex", 0, 1.0},  // hopeless deadline -> shed
        {"ngp-edge", 0, 0.0},
        {"nerf-gpu", 0, 0.0},
        {"ngp-edge", 0, 0.0},        // queue full by now -> rejected
        {"ngp-edge", 2, 0.0},
    };
    std::vector<ServeTicket> tickets;
    for (const Spec& spec : burst) {
        SceneRequest request;
        request.scene = spec.scene;
        request.priority = spec.priority;
        request.deadline_ms = spec.deadline_ms;
        request.arrival_ms = 0.0;
        tickets.push_back(service.Submit(request).ticket);
    }

    std::printf("\n== Request outcomes (virtual time) ==\n");
    Table outcomes({"#", "Scene", "Prio", "Deadline [ms]", "Status",
                    "Wait [ms]", "Latency [ms]"});
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        const RenderResult r = service.Wait(tickets[i]);
        outcomes.AddRow(
            {std::to_string(i), std::string(r.scene),
             std::to_string(burst[i].priority),
             burst[i].deadline_ms > 0.0
                 ? FormatDouble(burst[i].deadline_ms, 1)
                 : "-",
             ToString(r.status), FormatDouble(r.queue_wait_ms, 3),
             r.status == RequestStatus::kCompleted
                 ? FormatDouble(r.latency_ms, 3)
                 : "-"});
    }
    std::printf("%s\n", outcomes.ToString().c_str());

    const ServiceStats stats = service.Snapshot();
    std::printf("== Telemetry snapshot ==\n");
    std::printf("  accepted %llu, shed %llu, rejected %llu "
                "(shed rate %s%%)\n",
                static_cast<unsigned long long>(stats.accepted),
                static_cast<unsigned long long>(stats.shed_deadline),
                static_cast<unsigned long long>(stats.rejected_queue_full),
                FormatDouble(100.0 * stats.ShedRate(), 1).c_str());
    std::printf("  latency p50 %s ms, p90 %s ms, p99 %s ms\n",
                FormatDouble(stats.p50_ms, 3).c_str(),
                FormatDouble(stats.p90_ms, 3).c_str(),
                FormatDouble(stats.p99_ms, 3).c_str());
    std::printf("  plan cache: %zu entries, %llu compiles, %llu prepared "
                "frame hits\n",
                stats.cache_entries,
                static_cast<unsigned long long>(stats.cache.plan_misses),
                static_cast<unsigned long long>(stats.cache.frame_hits));
    std::printf("  per-scene prepared replays:");
    for (const SceneStats& s : stats.scenes) {
        std::printf(" %s=%llu", s.name.c_str(),
                    static_cast<unsigned long long>(s.prepared_replays));
    }
    std::printf("\n");

    // The unified metrics surface: everything the snapshot above reads
    // off one-by-one publishes into a MetricsRegistry in one call (the
    // benches write it to --metrics-out as JSON). Demoed only when
    // tracing, to keep the default stdout stable.
    if (TraceRecorder::Global() != nullptr) {
        MetricsRegistry registry;
        service.Snapshot().PublishTo(registry);
        std::printf("  metrics registry: %zu counters, %zu gauges "
                    "(WriteJson exports them)\n",
                    registry.counter_count(), registry.gauge_count());
    }
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::int64_t shards = IntFromArgs(argc, argv, "--shards", 1);
    const char* const trace_out =
        StringFromArgs(argc, argv, "--trace-out", "");
    const bool tracing = trace_out != nullptr && trace_out[0] != '\0';

    // Tracing is opt-in and process-wide: install a recorder before
    // the first Submit and every layer below — admission, dispatch,
    // PlanCache, per-op FramePlan execution, cluster routing — records
    // into it through the thread-propagated TraceContext. Without the
    // flag nothing is installed and every probe is one atomic load.
    std::unique_ptr<TraceRecorder> recorder;
    if (tracing) {
        recorder = std::make_unique<TraceRecorder>();
        TraceRecorder::InstallGlobal(recorder.get());
    }

    const int rc = shards > 1
                       ? RunSharded(static_cast<std::size_t>(shards))
                       : RunSingle();

    if (tracing) {
        TraceRecorder::InstallGlobal(nullptr);
        std::printf("\n== Observability (--trace-out) ==\n");
        std::printf("  recorded %zu events across %zu request/warm "
                    "traces\n",
                    recorder->event_count(),
                    static_cast<std::size_t>(recorder->trace_count()));
        if (recorder->WriteChromeTraceFile(trace_out,
                                           TraceClock::kVirtual)) {
            std::printf("  wrote %s (virtual-time projection) — load it "
                        "in chrome://tracing or Perfetto; one lane per "
                        "request, byte-identical on any thread count\n",
                        trace_out);
        }
    }
    return rc;
}
