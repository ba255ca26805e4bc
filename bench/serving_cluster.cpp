/**
 * @file
 * Cross-host cluster drills: a ShardedRenderService with a SimTransport
 * attached (simulated RPC links + fault schedule) driven through three
 * deterministic scenarios, each asserting its headline claim as a hard
 * invariant.
 *
 *  1. parity — the same open-loop stream as bench/serving_sharded
 *     (same seed, load, cache cap, queue depth) through (a) the plain
 *     in-process ShardedRenderService and (b) the same cluster with a
 *     fault-free transport attached. Every verdict, shard choice, spill
 *     flag, latency, and merged counter must match field-for-field:
 *     crossing the simulated links and paying simulated RPC latency is
 *     verdict-transparent when nothing fails.
 *
 *  2. flash — a flash crowd hammering one hot scene, served twice from
 *     the identical stream: single-home HRW (replication off) versus
 *     hot-scene replication (top_k = 1, factor = 2) with
 *     power-of-two-choices routing. The bench asserts replication
 *     strictly cuts the shed count: the crowd's home shard stops being
 *     the only place its requests can live.
 *
 *  3. kill — a scheduled shard death mid-stream under heavy load, plus
 *     a loss window and a delay spike, then a rolling resize that
 *     revives the dead slot under continued traffic. The bench asserts
 *     the conservation identity (every ticket resolves exactly once:
 *     completed + shed + rejected + transport-failed == submitted, and
 *     shard-level submissions reconcile with router submissions via
 *     replays and transport failures), that in-flight tickets actually
 *     replayed, and that every live replica's own snapshot agrees
 *     with the merged cluster snapshot row-for-row.
 *
 * stdout (wall-clock invariant): human tables plus machine-readable
 * `[cluster] scenario=... key=value` lines for tools/bench_trajectory.sh.
 * stderr: wall-clock throughput. --threads is validated and ignored:
 * replicas start no threads.
 *
 * Usage: serving_cluster [--threads N] [--requests N] [--seed N]
 *                        [--load F] [--cache-cap N]
 *                        [--trace-out PATH] [--trace-clock virtual|wall]
 *                        [--metrics-out PATH]
 */
#include <algorithm>
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
#include "serve/transport.h"
#include "trace_support.h"

using namespace flexnerfer;

namespace {

/** Registers and warms the full repertoire; returns per-scene
 *  critical-path estimates (registration order). */
std::vector<double>
SetupScenes(ShardedRenderService& cluster,
            const std::vector<NamedScene>& repertoire)
{
    for (const NamedScene& scene : repertoire) {
        cluster.RegisterScene(scene.name, scene.spec);
    }
    std::vector<double> est_ms;
    est_ms.reserve(repertoire.size());
    for (const NamedScene& scene : repertoire) {
        est_ms.push_back(EstimatedServiceMs(cluster.WarmScene(scene.name)));
    }
    return est_ms;
}

double
MeanOf(const std::vector<double>& values)
{
    double total = 0.0;
    for (const double v : values) total += v;
    return total / static_cast<double>(values.size());
}

std::uint64_t
ShedOf(const ClusterStats& stats)
{
    return stats.rejected_queue_full + stats.shed_deadline;
}

/** The per-shard prepared-path invariant, skipping dead (zeroed) rows. */
void
CheckFrameHits(const ClusterStats& stats)
{
    for (const ShardTelemetry& shard : stats.per_shard) {
        if (!shard.alive) continue;
        FLEX_CHECK_MSG(
            shard.service.cache.frame_hits == shard.service.accepted,
            "per-shard prepared-path invariant broken: frame hits "
                << shard.service.cache.frame_hits << " vs accepted "
                << shard.service.accepted);
    }
}

/** Field-for-field equality of two merged snapshots, ignoring the
 *  transport-only telemetry the in-process run cannot have. */
void
CheckStatsParity(const ClusterStats& a, const ClusterStats& b)
{
    FLEX_CHECK(a.submitted == b.submitted);
    FLEX_CHECK(a.accepted == b.accepted);
    FLEX_CHECK(a.rejected_queue_full == b.rejected_queue_full);
    FLEX_CHECK(a.shed_deadline == b.shed_deadline);
    FLEX_CHECK(a.completed == b.completed);
    FLEX_CHECK(a.spilled == b.spilled);
    FLEX_CHECK(a.spill_recompiles == b.spill_recompiles);
    FLEX_CHECK(a.latency_samples == b.latency_samples);
    FLEX_CHECK(a.latency_sum_ms == b.latency_sum_ms);
    FLEX_CHECK(a.p50_ms == b.p50_ms && a.p90_ms == b.p90_ms &&
               a.p99_ms == b.p99_ms);
    FLEX_CHECK(a.mean_ms == b.mean_ms && a.max_ms == b.max_ms);
    FLEX_CHECK(a.makespan_ms == b.makespan_ms);
    FLEX_CHECK(a.sustained_qps == b.sustained_qps);
    FLEX_CHECK(a.utilization == b.utilization);
    FLEX_CHECK(a.per_shard.size() == b.per_shard.size());
    for (std::size_t i = 0; i < a.per_shard.size(); ++i) {
        const ShardTelemetry& sa = a.per_shard[i];
        const ShardTelemetry& sb = b.per_shard[i];
        FLEX_CHECK_MSG(sa.homed == sb.homed && sa.spill_in == sb.spill_in &&
                           sa.spill_out == sb.spill_out &&
                           sa.service.accepted == sb.service.accepted &&
                           sa.service.shed_deadline ==
                               sb.service.shed_deadline &&
                           sa.service.rejected_queue_full ==
                               sb.service.rejected_queue_full,
                       "wire transparency broke at shard " << i);
    }
}

}  // namespace

int
main(int argc, char** argv)
{
    ThreadsFromArgs(argc, argv);
    const std::int64_t requests_arg =
        IntFromArgs(argc, argv, "--requests", 2000);
    if (requests_arg <= 0 || requests_arg > 10000000) {
        Fatal("invalid --requests value " + std::to_string(requests_arg) +
              " (expected an integer in [1, 10000000])");
    }
    const auto requests = static_cast<std::size_t>(requests_arg);
    const double load = DoubleFromArgs(argc, argv, "--load", 2.5);
    const auto cache_cap =
        static_cast<std::size_t>(IntFromArgs(argc, argv, "--cache-cap", 16));
    const auto seed = static_cast<std::uint64_t>(
        IntFromArgs(argc, argv, "--seed", 20250730));

    const std::vector<NamedScene> repertoire = PaperSceneRepertoire();

    BenchTraceSession trace_session(argc, argv);
    MetricsRegistry registry;

    std::printf("== Cross-host cluster drills: %zu requests over %zu "
                "scenes, 4 shards ==\n\n",
                requests, repertoire.size());

    // The serving_sharded 4-shard configuration, reused by every
    // scenario as the base shape.
    ClusterConfig base;
    base.shards = 4;
    base.plan_cache_capacity = cache_cap;
    base.admission.max_queue_depth = 128;

    // ------------------------------------------------------------------
    // Scenario 1: parity — the wire is verdict-transparent.
    // ------------------------------------------------------------------
    {
        const auto wall_start = std::chrono::steady_clock::now();

        ShardedRenderService plain(base);
        const std::vector<double> est_ms = SetupScenes(plain, repertoire);
        const double mean_ms = MeanOf(est_ms);

        // Declared before its cluster: the cluster's destructor drains
        // through it.
        SimTransport transport(0x5EEDu);
        ClusterConfig wired_config = base;
        wired_config.transport = &transport;
        ShardedRenderService wired(wired_config);
        SetupScenes(wired, repertoire);

        OpenLoopPoissonStream stream_a(seed, load, mean_ms, est_ms);
        OpenLoopPoissonStream stream_b(seed, load, mean_ms, est_ms);
        for (std::size_t i = 0; i < requests; ++i) {
            const OpenLoopRequest a = stream_a.Next();
            const OpenLoopRequest b = stream_b.Next();
            SceneRequest request;
            request.scene = repertoire[a.scene_index].name;
            request.arrival_ms = a.arrival_ms;
            request.priority = a.priority;
            request.deadline_ms = a.deadline_ms;
            plain.Submit(request);
            request.scene = repertoire[b.scene_index].name;
            request.arrival_ms = b.arrival_ms;
            request.priority = b.priority;
            request.deadline_ms = b.deadline_ms;
            wired.Submit(request);
        }
        const std::vector<ClusterRenderResult> plain_results =
            plain.WaitAll();
        const std::vector<ClusterRenderResult> wire_results =
            wired.WaitAll();

        FLEX_CHECK(plain_results.size() == requests &&
                   wire_results.size() == requests);
        for (std::size_t i = 0; i < requests; ++i) {
            const ClusterRenderResult& p = plain_results[i];
            const ClusterRenderResult& w = wire_results[i];
            FLEX_CHECK_MSG(
                p.result.status == w.result.status &&
                    p.result.scene == w.result.scene &&
                    p.result.cost == w.result.cost &&
                    p.result.latency_ms == w.result.latency_ms &&
                    p.shard == w.shard && p.home_shard == w.home_shard &&
                    p.spilled == w.spilled &&
                    p.spill_surcharge_ms == w.spill_surcharge_ms,
                "wire transparency broke at request " << i);
            FLEX_CHECK(!w.replayed && !w.transport_failed);
            FLEX_CHECK(w.rpc_delay_ms > 0.0);  // both legs paid latency
        }

        const ClusterStats plain_stats = plain.Snapshot();
        const ClusterStats wire_stats = wired.Snapshot();
        CheckStatsParity(plain_stats, wire_stats);
        CheckFrameHits(wire_stats);
        FLEX_CHECK(wire_stats.cluster_submitted == requests);
        FLEX_CHECK(wire_stats.transport_failures == 0 &&
                   wire_stats.replayed == 0);
        const SimTransport::Stats net = transport.stats();
        FLEX_CHECK(net.failed == 0 && net.delivered == net.messages);

        if (trace_session.metrics_requested()) {
            wire_stats.PublishTo(registry, "cluster_drill.parity");
        }

        std::printf("-- parity: in-process vs wire, identical stream --\n");
        std::printf("   every verdict, shard, spill flag, latency, and "
                    "merged counter matched field-for-field\n");
        std::printf("   transport: %zu messages, %zu delivered, %zu bytes "
                    "on the wire\n\n",
                    static_cast<std::size_t>(net.messages),
                    static_cast<std::size_t>(net.delivered),
                    static_cast<std::size_t>(net.bytes));
        std::printf("[cluster] scenario=parity requests=%zu accepted=%zu "
                    "shed=%zu spilled=%zu wire_messages=%zu identical=1\n\n",
                    requests,
                    static_cast<std::size_t>(wire_stats.accepted),
                    static_cast<std::size_t>(ShedOf(wire_stats)),
                    static_cast<std::size_t>(wire_stats.spilled),
                    static_cast<std::size_t>(net.messages));

        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        std::fprintf(stderr,
                     "[serving_cluster] parity: %zu requests x 2 runs: "
                     "%.1f ms wall\n",
                     requests, wall_ms);
    }

    // ------------------------------------------------------------------
    // Scenario 2: flash crowd — replication vs single-home HRW.
    // ------------------------------------------------------------------
    {
        const auto wall_start = std::chrono::steady_clock::now();

        // A crowd that concentrates ~80% of a 3x burst on the
        // *costliest* scene: during the window its home shard is
        // offered several devices' worth of that one scene, which
        // single-home routing can only shed or spill to its one
        // next-ranked candidate. Replication at factor 3 pre-provisions
        // a third home — capacity a per-request spill probe walk never
        // reaches — which is the structural cut this drill measures.
        const std::vector<double> crowd_est_ms = [&] {
            ShardedRenderService probe(base);
            return SetupScenes(probe, repertoire);
        }();
        ZooScenarioConfig crowd;
        crowd.load = 1.0;
        crowd.flash_rate_boost = 1.8;
        crowd.flash_hot_share = 0.65;
        const double crowd_mean_ms = MeanOf(crowd_est_ms);
        // The costliest scene still under 3x the mean: expensive enough
        // that the crowd's ~3 device-loads of it swamp two shards,
        // cheap enough that three replicas can actually absorb it
        // (the repertoire's most expensive scenes are so far above the
        // mean that no replica count would).
        crowd.hot_scene = 0;
        for (std::size_t i = 0; i < crowd_est_ms.size(); ++i) {
            if (crowd_est_ms[i] <= 3.0 * crowd_mean_ms &&
                crowd_est_ms[i] > crowd_est_ms[crowd.hot_scene]) {
                crowd.hot_scene = i;
            }
        }
        const double expected_span_ms =
            static_cast<double>(requests) * crowd_mean_ms / crowd.load;
        crowd.flash_start_ms = expected_span_ms / 3.0;
        crowd.flash_end_ms = 2.0 * expected_span_ms / 3.0;

        const std::string hot_name = repertoire[crowd.hot_scene].name;
        std::vector<ClusterStats> runs;
        for (const bool replicated : {false, true}) {
            ClusterConfig config = base;
            // Zoo requests carry no deadline, so the queue bound is the
            // only pressure valve: shallow enough that the hot home
            // shard rejects under the burst. The burst grows with the
            // drill, so below 144 requests the bound shrinks with it.
            config.admission.max_queue_depth =
                std::clamp<std::size_t>(requests / 12, 1, 12);
            if (replicated) {
                config.replication.top_k = 1;
                config.replication.factor = 3;
                // Every 50 submissions, and at least three times per
                // drill: the first refresh lands no later than a third
                // of the way in, where the crowd's window opens, so the
                // crowd routes under census-built replica sets rather
                // than meeting its first refresh at the last request.
                config.replication.refresh_every =
                    std::clamp<std::uint64_t>(requests / 3, 1, 50);
            }
            SimTransport transport(0x5EEDu);
            config.transport = &transport;
            ShardedRenderService cluster(config);
            SetupScenes(cluster, repertoire);

            TrafficZooStream stream(seed, crowd_mean_ms, repertoire.size(),
                                    crowd);
            for (std::size_t i = 0; i < requests; ++i) {
                const OpenLoopRequest drawn = stream.Next();
                SceneRequest request;
                request.scene = repertoire[drawn.scene_index].name;
                request.arrival_ms = drawn.arrival_ms;
                request.priority = drawn.priority;
                cluster.Submit(request);
            }
            cluster.WaitAll();

            const ClusterStats stats = cluster.Snapshot();
            CheckFrameHits(stats);
            FLEX_CHECK(stats.completed == stats.accepted);
            if (replicated) {
                FLEX_CHECK_MSG(
                    cluster.ReplicasOf(hot_name).size() == 3,
                    "the hot scene should hold a 3-shard replica set");
                FLEX_CHECK(stats.p2c_routed > 0);
                FLEX_CHECK(stats.replication_refreshes > 0);
            }
            if (trace_session.metrics_requested()) {
                stats.PublishTo(registry,
                                replicated ? "cluster_drill.flash_replicated"
                                           : "cluster_drill.flash_single");
            }
            runs.push_back(stats);

            std::printf("[cluster] scenario=flash replication=%s "
                        "requests=%zu accepted=%zu shed=%zu shed_rate=%.4f "
                        "spilled=%zu p2c_routed=%zu replica_served=%zu\n",
                        replicated ? "on" : "off", requests,
                        static_cast<std::size_t>(stats.accepted),
                        static_cast<std::size_t>(ShedOf(stats)),
                        stats.ShedRate(),
                        static_cast<std::size_t>(stats.spilled),
                        static_cast<std::size_t>(stats.p2c_routed),
                        static_cast<std::size_t>(stats.replica_served));
        }

        const std::uint64_t shed_single = ShedOf(runs[0]);
        const std::uint64_t shed_replicated = ShedOf(runs[1]);
        FLEX_CHECK_MSG(shed_replicated < shed_single,
                       "hot-scene replication failed to cut the flash "
                       "crowd's shed count: "
                           << shed_replicated << " vs " << shed_single);
        const double cut =
            shed_single > 0
                ? 100.0 *
                      static_cast<double>(shed_single - shed_replicated) /
                      static_cast<double>(shed_single)
                : 0.0;

        std::printf("\n-- flash crowd on '%s': replication cut shed %zu "
                    "-> %zu (%.1f%%) --\n",
                    hot_name.c_str(),
                    static_cast<std::size_t>(shed_single),
                    static_cast<std::size_t>(shed_replicated), cut);
        std::printf("[cluster] scenario=flash shed_single=%zu "
                    "shed_replicated=%zu shed_cut_pct=%.2f\n\n",
                    static_cast<std::size_t>(shed_single),
                    static_cast<std::size_t>(shed_replicated), cut);

        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        std::fprintf(stderr,
                     "[serving_cluster] flash: %zu requests x 2 runs: "
                     "%.1f ms wall\n",
                     requests, wall_ms);
    }

    // ------------------------------------------------------------------
    // Scenario 3: kill mid-stream, loss window, rolling repair.
    // ------------------------------------------------------------------
    {
        const auto wall_start = std::chrono::steady_clock::now();

        // Heavy enough that every shard carries a backlog, so the dying
        // shard is guaranteed to hold accepted in-flight tickets. The
        // drill runs deadline-free with an unbounded queue: every
        // ticket either completes or fails in transport, which makes
        // the conservation arithmetic sharp and lets replayed tickets
        // finish so recovery is measurable (the flash drill covers
        // shedding).
        const double kill_load = 5.0;

        SimTransport transport(0x5EEDu);
        ClusterConfig config = base;
        config.admission.max_queue_depth = 0;
        config.transport = &transport;
        ShardedRenderService cluster(config);
        const std::vector<double> est_ms = SetupScenes(cluster, repertoire);
        const double mean_ms = MeanOf(est_ms);
        const double expected_span_ms =
            static_cast<double>(requests) * mean_ms / kill_load;

        // The drill: a loss window early, a delay spike on one link
        // throughout, and shard 1 dying from a third of the way in.
        const std::size_t victim = 1;
        FaultEvent loss;
        loss.kind = FaultEvent::Kind::kLoss;
        loss.link = SimTransport::kAllLinks;
        loss.start_ms = 0.10 * expected_span_ms;
        loss.end_ms = 0.20 * expected_span_ms;
        loss.magnitude = 0.6;
        transport.Schedule(loss);
        FaultEvent spike;
        spike.kind = FaultEvent::Kind::kDelaySpike;
        spike.link = 0;
        spike.start_ms = 0.0;
        spike.end_ms = expected_span_ms;
        spike.magnitude = 0.25;
        transport.Schedule(spike);
        // The death instant comes from the victim's observed backlog: the
        // first instant, from a third of the way in, at which the victim
        // still holds an accepted ticket completing beyond it. A fixed
        // instant can land while the victim idles between bursts and
        // replay nothing; this one replays at least one ticket by
        // construction. The death is scheduled just before the first
        // submission that reaches its instant, which applies it — the
        // same point a death scheduled up front would fire.
        const double death_after_ms = expected_span_ms / 3.0;
        FaultEvent death;
        death.kind = FaultEvent::Kind::kShardDeath;
        death.link = victim;
        bool death_scheduled = false;
        double observed_ms = 0.0;  // latest arrival submitted so far

        OpenLoopPoissonStream stream(seed, kill_load, mean_ms, est_ms);
        const std::size_t resize_at = 2 * requests / 3;
        std::size_t live_after_kill = 0;
        for (std::size_t i = 0; i < requests; ++i) {
            if (i == resize_at) {
                // Rolling repair under load: revive the dead slot.
                // Outstanding tickets are drained and stay claimable.
                FLEX_CHECK_MSG(death_scheduled,
                               "the victim never held a backlog before "
                               "the rolling repair");
                live_after_kill = cluster.live_shards();
                cluster.Resize(base.shards);
            }
            const OpenLoopRequest drawn = stream.Next();
            if (!death_scheduled && i < resize_at &&
                drawn.arrival_ms >= death_after_ms) {
                const double instant = std::max(death_after_ms, observed_ms);
                const double backlog_until_ms =
                    cluster.shard(victim).Ledger().last_completion_ms;
                if (backlog_until_ms > instant) {
                    death.start_ms = instant;
                    transport.Schedule(death);
                    death_scheduled = true;
                }
            }
            observed_ms = drawn.arrival_ms;
            SceneRequest request;
            request.scene = repertoire[drawn.scene_index].name;
            request.arrival_ms = drawn.arrival_ms;
            request.priority = drawn.priority;
            cluster.Submit(request);
        }
        const std::vector<ClusterRenderResult> results = cluster.WaitAll();
        FLEX_CHECK(results.size() == requests);

        // Conservation: every ticket resolved exactly once, into
        // exactly one terminal status.
        std::size_t completed = 0, shed = 0, rejected = 0, failed = 0;
        std::size_t replayed_flags = 0, failed_flags = 0;
        double recovery_ms = 0.0;
        bool saw_replayed_completion = false;
        for (const ClusterRenderResult& r : results) {
            switch (r.result.status) {
                case RequestStatus::kCompleted: ++completed; break;
                case RequestStatus::kShedDeadline: ++shed; break;
                case RequestStatus::kRejectedQueueFull: ++rejected; break;
                case RequestStatus::kFailedTransport: ++failed; break;
            }
            if (r.replayed) ++replayed_flags;
            if (r.transport_failed) ++failed_flags;
            if (r.replayed && r.result.status == RequestStatus::kCompleted) {
                const double end_to_end = r.result.latency_ms;
                if (!saw_replayed_completion ||
                    end_to_end < recovery_ms) {
                    recovery_ms = end_to_end;
                }
                saw_replayed_completion = true;
            }
        }
        FLEX_CHECK_MSG(completed + shed + rejected + failed == requests,
                       "ticket conservation broken: "
                           << completed << " + " << shed << " + " << rejected
                           << " + " << failed << " != " << requests);
        // Deadline-free with an unbounded queue: the only way a ticket
        // does not complete is dying on the wire.
        FLEX_CHECK(shed == 0 && rejected == 0);
        FLEX_CHECK_MSG(saw_replayed_completion && recovery_ms > 0.0,
                       "no replayed ticket completed — recovery is "
                       "unmeasurable");

        const ClusterStats stats = cluster.Snapshot();
        FLEX_CHECK(stats.cluster_submitted == requests);
        FLEX_CHECK(stats.killed_shards == 1);
        FLEX_CHECK(live_after_kill == base.shards - 1);
        FLEX_CHECK(stats.live_shards == base.shards);  // repaired
        FLEX_CHECK_MSG(stats.replayed >= 1,
                       "the kill drill replayed nothing — the victim held "
                       "no in-flight tickets");
        FLEX_CHECK(stats.replayed == replayed_flags);
        FLEX_CHECK(stats.transport_failures ==
                   static_cast<std::uint64_t>(failed));
        FLEX_CHECK(failed_flags == failed);
        // Shard-level admissions reconcile with router submissions.
        FLEX_CHECK_MSG(stats.submitted == stats.cluster_submitted -
                                              stats.transport_failures +
                                              stats.replayed,
                       "shard/router reconciliation broken: "
                           << stats.submitted << " vs " << requests << " - "
                           << stats.transport_failures << " + "
                           << stats.replayed);
        FLEX_CHECK(stats.latency_samples == stats.accepted);
        CheckFrameHits(stats);

        // Reconcile each live replica's own snapshot against the merged
        // snapshot's current-epoch rows.
        std::size_t live_rows = 0;
        for (std::size_t i = 0; i < cluster.shards(); ++i) {
            if (!cluster.alive(i)) continue;
            ++live_rows;
            const ServiceStats local = cluster.shard(i).Snapshot();
            const ShardTelemetry& shard = stats.per_shard[i];
            FLEX_CHECK_MSG(local.submitted == shard.service.submitted &&
                               local.accepted == shard.service.accepted &&
                               local.rejected_queue_full ==
                                   shard.service.rejected_queue_full &&
                               local.shed_deadline ==
                                   shard.service.shed_deadline &&
                               local.completed == shard.service.completed,
                           "shard snapshot disagrees with the merged view "
                           "at shard "
                               << i);
        }
        FLEX_CHECK(live_rows == stats.live_shards);

        if (trace_session.metrics_requested()) {
            stats.PublishTo(registry, "cluster_drill.kill");
        }

        std::printf("-- kill drill: shard %zu died at %.1f ms, %zu "
                    "ticket(s) replayed, slot revived by rolling resize "
                    "--\n",
                    victim, death.start_ms,
                    static_cast<std::size_t>(stats.replayed));
        Table drill({"Outcome", "Count"});
        drill.AddRow({"completed", std::to_string(completed)});
        drill.AddRow({"shed (deadline)", std::to_string(shed)});
        drill.AddRow({"rejected (queue)", std::to_string(rejected)});
        drill.AddRow({"failed (transport)", std::to_string(failed)});
        drill.AddRow({"replayed (of the above)",
                      std::to_string(replayed_flags)});
        std::printf("%s\n", drill.ToString().c_str());

        std::printf("[cluster] scenario=kill requests=%zu completed=%zu "
                    "shed=%zu rejected=%zu transport_failed=%zu "
                    "replayed=%zu recovery_ms=%.3f conservation=ok\n\n",
                    requests, completed, shed, rejected, failed,
                    static_cast<std::size_t>(stats.replayed),
                    saw_replayed_completion ? recovery_ms : 0.0);

        const double wall_ms =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - wall_start)
                .count();
        std::fprintf(stderr,
                     "[serving_cluster] kill: %zu requests: %.1f ms "
                     "wall\n",
                     requests, wall_ms);
    }

    std::printf("All drills held their invariants: wire transparency, "
                "replication's shed cut, and exactly-once ticket "
                "conservation under kill + loss + repair.\n");
    trace_session.Finish();
    trace_session.WriteMetrics(registry);
    return 0;
}
