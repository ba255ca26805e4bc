/**
 * @file
 * Sharded-serving benchmark: the open-loop Poisson stream of
 * bench/serving, pushed through a ShardedRenderService at 1, 2, 4, and
 * 8 shards.
 *
 * Every shard count serves the byte-identical request stream (one seed,
 * shared generator — see open_loop.h), so the tables read as a scaling
 * study: as replicas absorb the offered load, the shed rate falls and
 * the sustained model-time QPS climbs toward the arrival rate. Routing
 * is scene-affine (rendezvous hashing), so each scene's prepared-frame
 * pin lives on exactly one home shard; overload spills to next-ranked
 * shards are separately counted, with their recompile surcharges
 * charged to the spill shard's virtual clock.
 *
 * The bench asserts the sharded serving invariants on every run: every
 * completed request replays its scene's pinned frame bit-identically
 * (spilled or not), per-shard PlanCache frame hits equal accepted
 * requests exactly (spill recompiles surface as plan misses, never as
 * broken hit accounting), and completed == accepted.
 *
 * stdout (wall-clock invariant): per-shard-count summary + per-shard
 * tables, all in virtual (model) time. stderr: wall-clock throughput.
 * --threads is validated and ignored: replicas start no threads.
 *
 * With --trace-out PATH every shard-count pass records request traces
 * (including routing probes and spills) into one Chrome trace-event
 * JSON export; --metrics-out PATH snapshots each pass's ClusterStats
 * into the unified MetricsRegistry under a cluster.shards<N> prefix.
 * See bench/trace_support.h.
 *
 * Usage: serving_sharded [--threads N] [--requests N] [--load F]
 *                        [--cache-cap N] [--seed N] [--spill-factor F]
 *                        [--trace-out PATH] [--trace-clock virtual|wall]
 *                        [--metrics-out PATH]
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/table.h"
#include "obs/metrics_registry.h"
#include "open_loop.h"
#include "runtime/sweep_runner.h"
#include "scene_repertoire.h"
#include "serve/cluster.h"
#include "trace_support.h"

using namespace flexnerfer;

int
main(int argc, char** argv)
{
    ThreadsFromArgs(argc, argv);
    const std::int64_t requests_arg =
        IntFromArgs(argc, argv, "--requests", 2000);
    if (requests_arg > 10000000) {
        Fatal("invalid --requests value " + std::to_string(requests_arg) +
              " (expected an integer in [0, 10000000])");
    }
    const auto requests = static_cast<std::size_t>(requests_arg);
    // Offered load relative to ONE modeled device: 2.5x overloads a
    // single shard badly and fits comfortably in eight.
    const double load = DoubleFromArgs(argc, argv, "--load", 2.5);
    const auto cache_cap =
        static_cast<std::size_t>(IntFromArgs(argc, argv, "--cache-cap", 16));
    const auto seed = static_cast<std::uint64_t>(
        IntFromArgs(argc, argv, "--seed", 20250730));
    const double spill_factor =
        DoubleFromArgs(argc, argv, "--spill-factor", 1.0);

    const std::vector<NamedScene> repertoire = PaperSceneRepertoire();

    BenchTraceSession trace_session(argc, argv);
    MetricsRegistry registry;

    Table scaling({"Shards", "Accepted", "Shed", "Rejected", "Spilled",
                   "Spill rate [%]", "Shed rate [%]", "QPS (model)",
                   "p50 [ms]", "p90 [ms]", "p99 [ms]", "Util [%]"});

    std::printf("== Sharded serving: open-loop %zu requests over %zu "
                "scenes (offered load %.2fx one device, spill factor "
                "%.2f) ==\n\n",
                requests, repertoire.size(), load, spill_factor);

    for (const std::size_t shard_count : {1u, 2u, 4u, 8u}) {
        ClusterConfig config;
        config.shards = shard_count;
        config.plan_cache_capacity = cache_cap;
        config.admission.max_queue_depth = 128;
        config.spill_recompile_factor = spill_factor;
        ShardedRenderService cluster(config);

        std::vector<std::string> scenes;
        std::vector<FrameCost> warm_costs;
        std::vector<double> est_ms;
        double mean_service_ms = 0.0;
        for (const NamedScene& scene : repertoire) {
            cluster.RegisterScene(scene.name, scene.spec);
            scenes.push_back(scene.name);
        }
        // Critical-path estimates: what the router probes and the spill
        // surcharge is priced from (see serve/cluster.h).
        for (const std::string& scene : scenes) {
            warm_costs.push_back(cluster.WarmScene(scene));
            est_ms.push_back(EstimatedServiceMs(warm_costs.back()));
            mean_service_ms += est_ms.back();
        }
        mean_service_ms /= static_cast<double>(scenes.size());

        // The identical stream for every shard count: same seed, same
        // estimates (scene costs are pure), so same arrivals/deadlines.
        OpenLoopPoissonStream stream(seed, load, mean_service_ms, est_ms);
        const auto wall_start = std::chrono::steady_clock::now();
        std::vector<ClusterTicket> tickets;
        tickets.reserve(requests);
        for (std::size_t i = 0; i < requests; ++i) {
            const OpenLoopRequest drawn = stream.Next();
            SceneRequest request;
            request.scene = scenes[drawn.scene_index];
            request.arrival_ms = drawn.arrival_ms;
            request.priority = drawn.priority;
            request.deadline_ms = drawn.deadline_ms;
            tickets.push_back(cluster.Submit(request));
        }
        const std::vector<ClusterRenderResult> results = cluster.WaitAll();
        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - wall_start)
                .count();

        // Invariants: every completed request — spilled or homed —
        // replays its scene's pinned frame bit-identically.
        FLEX_CHECK(results.size() == requests);
        for (const ClusterRenderResult& r : results) {
            if (r.result.status != RequestStatus::kCompleted) {
                FLEX_CHECK_MSG(!r.spilled,
                               "spills are only taken when the target "
                               "shard accepts");
                continue;
            }
            std::size_t scene_index = 0;
            while (scenes[scene_index] != r.result.scene) ++scene_index;
            FLEX_CHECK_MSG(r.result.cost == warm_costs[scene_index],
                           "completed request diverged from the prepared "
                           "replay of scene "
                               << r.result.scene);
        }

        const ClusterStats stats = cluster.Snapshot();
        FLEX_CHECK(stats.completed == stats.accepted);
        if (trace_session.metrics_requested()) {
            stats.PublishTo(registry, "cluster.shards" +
                                          std::to_string(shard_count));
        }
        for (const ShardTelemetry& shard : stats.per_shard) {
            FLEX_CHECK_MSG(
                shard.service.cache.frame_hits == shard.service.accepted,
                "per-shard prepared-path invariant broken: frame hits "
                    << shard.service.cache.frame_hits << " vs accepted "
                    << shard.service.accepted);
        }

        scaling.AddRow(
            {std::to_string(shard_count), std::to_string(stats.accepted),
             std::to_string(stats.shed_deadline),
             std::to_string(stats.rejected_queue_full),
             std::to_string(stats.spilled),
             FormatDouble(100.0 * stats.SpillRate(), 2),
             FormatDouble(100.0 * stats.ShedRate(), 2),
             FormatDouble(stats.sustained_qps, 2),
             FormatDouble(stats.p50_ms, 3), FormatDouble(stats.p90_ms, 3),
             FormatDouble(stats.p99_ms, 3),
             FormatDouble(100.0 * stats.utilization, 2)});

        std::printf("-- %zu shard(s): per-shard routing, admission, and "
                    "cache counters --\n",
                    shard_count);
        Table per_shard({"Shard", "Homed", "Accepted", "Shed", "Rejected",
                         "Spill in", "Spill out", "Spill compiles",
                         "Plan misses", "Frame hits", "Evictions",
                         "Cache entries"});
        for (std::size_t i = 0; i < stats.per_shard.size(); ++i) {
            const ShardTelemetry& shard = stats.per_shard[i];
            per_shard.AddRow(
                {std::to_string(i), std::to_string(shard.homed),
                 std::to_string(shard.service.accepted),
                 std::to_string(shard.service.shed_deadline),
                 std::to_string(shard.service.rejected_queue_full),
                 std::to_string(shard.spill_in),
                 std::to_string(shard.spill_out),
                 std::to_string(shard.spill_recompiles),
                 std::to_string(shard.service.cache.plan_misses),
                 std::to_string(shard.service.cache.frame_hits),
                 std::to_string(shard.service.cache.evictions),
                 std::to_string(shard.service.cache_entries)});
        }
        std::printf("%s\n", per_shard.ToString().c_str());

        std::fprintf(stderr,
                     "[serving_sharded] %zu requests, %zu shard(s): %.1f "
                     "ms wall (%.0f wall QPS; model-time QPS above is "
                     "wall-clock invariant)\n",
                     requests, shard_count, wall_ms,
                     wall_ms > 0.0 ? 1e3 * static_cast<double>(requests) /
                                         wall_ms
                                   : 0.0);
    }

    std::printf("== Scaling summary (same request stream per row) ==\n");
    std::printf("%s\n", scaling.ToString().c_str());
    std::printf("All completed requests replayed their scene's pinned "
                "prepared frame bit-identically; per-shard frame hits == "
                "accepted at every shard count.\n");
    trace_session.Finish();
    trace_session.WriteMetrics(registry);
    return 0;
}
