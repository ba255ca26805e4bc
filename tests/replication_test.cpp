/**
 * @file
 * Hot-scene replication tests: replica sets are a pure function of the
 * popularity census and the live shard set (two identical histories
 * derive identical sets, demotion clears them), power-of-two-choices
 * routing stays inside the replica set and never touches a dead
 * replica, the per-replica prepared-path invariants hold (frame hits ==
 * accepted solo, == dispatched batches when fusion is on), the
 * auto-refresh cadence fires on the configured submission count, and
 * the whole feature is thread-count invariant.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "serve/cluster.h"

namespace flexnerfer {
namespace {

SweepPoint
FlexScene(const std::string& model)
{
    SweepPoint spec;
    spec.backend = Backend::kFlexNeRFer;
    spec.precision = Precision::kInt8;
    spec.model = model;
    return spec;
}

const std::vector<std::string>&
Models()
{
    static const std::vector<std::string> models = {"Instant-NGP",
                                                    "KiloNeRF", "NSVF"};
    return models;
}

ClusterConfig
ReplicatedConfig(std::size_t factor, std::uint64_t refresh_every = 0)
{
    ClusterConfig config;
    config.shards = 4;
    config.replication.top_k = 1;
    config.replication.factor = factor;
    config.replication.refresh_every = refresh_every;
    return config;
}

void
SetupScenes(ShardedRenderService& cluster)
{
    for (const std::string& model : Models()) {
        cluster.RegisterScene(model, FlexScene(model));
    }
    for (const std::string& model : Models()) cluster.WarmScene(model);
}

/** Submits @p count well-spaced requests for @p scene from @p start. */
void
SubmitSpaced(ShardedRenderService& cluster, const std::string& scene,
             std::size_t count, double start_ms, double gap_ms)
{
    for (std::size_t i = 0; i < count; ++i) {
        SceneRequest request;
        request.scene = scene;
        request.arrival_ms = start_ms + static_cast<double>(i) * gap_ms;
        cluster.Submit(request);
    }
}

TEST(Replication, ReplicaSetsArePureFunctionsOfTheCensus)
{
    // Two clusters with identical histories derive identical replica
    // sets: the census (submission counts) and the live set are the
    // only inputs.
    ShardedRenderService a(ReplicatedConfig(2));
    ShardedRenderService b(ReplicatedConfig(2));
    SetupScenes(a);
    SetupScenes(b);

    SubmitSpaced(a, "Instant-NGP", 6, 0.0, 50.0);
    SubmitSpaced(b, "Instant-NGP", 6, 0.0, 50.0);
    SubmitSpaced(a, "KiloNeRF", 2, 1.0, 50.0);
    SubmitSpaced(b, "KiloNeRF", 2, 1.0, 50.0);
    a.WaitAll();
    b.WaitAll();

    const std::vector<std::string> hot_a = a.RefreshReplication();
    const std::vector<std::string> hot_b = b.RefreshReplication();
    ASSERT_EQ(hot_a, hot_b);
    ASSERT_EQ(hot_a, std::vector<std::string>{"Instant-NGP"});

    // The replica set is the first `factor` live shards of the scene's
    // HRW rank — a deterministic prefix.
    const std::vector<std::size_t> replicas = a.ReplicasOf("Instant-NGP");
    ASSERT_EQ(replicas.size(), 2u);
    const std::vector<std::size_t> rank = a.router().Rank("Instant-NGP");
    EXPECT_EQ(replicas[0], rank[0]);
    EXPECT_EQ(replicas[1], rank[1]);
    EXPECT_EQ(replicas, b.ReplicasOf("Instant-NGP"));
    // Non-hot scenes hold no replica set.
    EXPECT_TRUE(a.ReplicasOf("KiloNeRF").empty());

    // Demotion: once another scene overtakes the census, the old hot
    // scene's replica set is cleared.
    SubmitSpaced(a, "KiloNeRF", 10, 1000.0, 50.0);
    a.WaitAll();
    const std::vector<std::string> hot_after = a.RefreshReplication();
    ASSERT_EQ(hot_after, std::vector<std::string>{"KiloNeRF"});
    EXPECT_TRUE(a.ReplicasOf("Instant-NGP").empty());
    EXPECT_EQ(a.ReplicasOf("KiloNeRF").size(), 2u);
}

TEST(Replication, P2cRoutesWithinTheReplicaSetAndBalances)
{
    ShardedRenderService cluster(ReplicatedConfig(2));
    SetupScenes(cluster);

    // Make Instant-NGP hot, then derive its replica set.
    SubmitSpaced(cluster, "Instant-NGP", 5, 0.0, 100.0);
    cluster.WaitAll();
    cluster.RefreshReplication();
    const std::vector<std::size_t> replicas =
        cluster.ReplicasOf("Instant-NGP");
    ASSERT_EQ(replicas.size(), 2u);
    const std::uint64_t p2c_before = cluster.Snapshot().p2c_routed;

    // A same-instant burst: p2c must spread it over both replicas
    // (the first keeps the home busy, the second probe wins on
    // completion time), and never leave the set.
    std::vector<ClusterTicket> tickets;
    for (int i = 0; i < 8; ++i) {
        SceneRequest request;
        request.scene = "Instant-NGP";
        request.arrival_ms = 10000.0;
        tickets.push_back(cluster.Submit(request));
    }
    std::set<std::size_t> used;
    for (const ClusterTicket ticket : tickets) {
        const ClusterRenderResult result = cluster.Wait(ticket);
        EXPECT_EQ(result.result.status, RequestStatus::kCompleted);
        EXPECT_NE(std::find(replicas.begin(), replicas.end(), result.shard),
                  replicas.end())
            << "p2c routed outside the replica set, to shard "
            << result.shard;
        EXPECT_FALSE(result.spilled);
        used.insert(result.shard);
    }
    EXPECT_EQ(used.size(), 2u) << "p2c failed to balance the burst";

    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.p2c_routed - p2c_before, 8u);
    EXPECT_GE(stats.replica_served, 1u);
    // Prepared-path invariant per replica: serving away from home still
    // replays the pinned frame (the administrative warm pinned it).
    std::uint64_t replica_in_total = 0;
    for (const ShardTelemetry& shard : stats.per_shard) {
        EXPECT_EQ(shard.service.cache.frame_hits, shard.service.accepted);
        replica_in_total += shard.replica_in;
    }
    EXPECT_EQ(replica_in_total, stats.replica_served);
}

TEST(Replication, NeverRoutesToADeadReplica)
{
    ShardedRenderService cluster(ReplicatedConfig(3));
    SetupScenes(cluster);

    SubmitSpaced(cluster, "Instant-NGP", 5, 0.0, 100.0);
    cluster.WaitAll();
    cluster.RefreshReplication();
    const std::vector<std::size_t> replicas =
        cluster.ReplicasOf("Instant-NGP");
    ASSERT_EQ(replicas.size(), 3u);

    // Kill the middle replica once everything drained: the kill prunes
    // it from the replica set immediately.
    const std::size_t victim = replicas[1];
    cluster.KillShard(victim, 5000.0);
    EXPECT_FALSE(cluster.alive(victim));
    const std::vector<std::size_t> survivors =
        cluster.ReplicasOf("Instant-NGP");
    ASSERT_EQ(survivors.size(), 2u);
    EXPECT_EQ(std::find(survivors.begin(), survivors.end(), victim),
              survivors.end());

    // A post-kill burst routes p2c over the survivors only.
    std::vector<ClusterTicket> tickets;
    for (int i = 0; i < 6; ++i) {
        SceneRequest request;
        request.scene = "Instant-NGP";
        request.arrival_ms = 10000.0;
        tickets.push_back(cluster.Submit(request));
    }
    for (const ClusterTicket ticket : tickets) {
        const ClusterRenderResult result = cluster.Wait(ticket);
        EXPECT_EQ(result.result.status, RequestStatus::kCompleted);
        EXPECT_NE(result.shard, victim)
            << "p2c routed to a dead replica";
        EXPECT_NE(
            std::find(survivors.begin(), survivors.end(), result.shard),
            survivors.end());
    }
    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.killed_shards, 1u);
    EXPECT_EQ(stats.live_shards, 3u);
}

TEST(Replication, AutoRefreshFiresOnTheConfiguredCadence)
{
    ShardedRenderService cluster(ReplicatedConfig(2, /*refresh_every=*/10));
    SetupScenes(cluster);

    SubmitSpaced(cluster, "Instant-NGP", 35, 0.0, 50.0);
    cluster.WaitAll();

    const ClusterStats stats = cluster.Snapshot();
    // Submissions 10, 20, and 30 each re-derived the sets.
    EXPECT_EQ(stats.replication_refreshes, 3u);
    EXPECT_EQ(cluster.ReplicasOf("Instant-NGP").size(), 2u);
    EXPECT_EQ(stats.replicated_scenes, 1u);
    // The census ignores nothing: the first refresh already saw
    // Instant-NGP leading, so p2c routing kicked in mid-stream.
    EXPECT_GE(stats.p2c_routed, 1u);
}

TEST(Replication, BatchedReplicasKeepFrameHitsEqualToDispatches)
{
    // Fusion on a replicated scene: each replica's frame hits equal its
    // dispatched batches (the fused execution touches the prepared
    // frame once per batch, not per request).
    ClusterConfig config = ReplicatedConfig(2);
    config.batch_window_ms = 5.0;
    config.max_batch_elements = 4;
    ShardedRenderService cluster(config);
    SetupScenes(cluster);

    SubmitSpaced(cluster, "Instant-NGP", 5, 0.0, 100.0);
    cluster.WaitAll();
    cluster.RefreshReplication();
    ASSERT_EQ(cluster.ReplicasOf("Instant-NGP").size(), 2u);

    // Two same-instant pairs land as fused batches on the replicas.
    for (int i = 0; i < 4; ++i) {
        SceneRequest request;
        request.scene = "Instant-NGP";
        request.arrival_ms = 10000.0 + static_cast<double>(i / 2);
        cluster.Submit(request);
    }
    cluster.WaitAll();

    const ClusterStats stats = cluster.Snapshot();
    EXPECT_GE(stats.batches_dispatched, 1u);
    for (const ShardTelemetry& shard : stats.per_shard) {
        EXPECT_EQ(shard.service.cache.frame_hits,
                  shard.service.batches_dispatched);
    }
}

TEST(Replication, RerunsAreIdentical)
{
    // The full feature — census, refresh cadence, p2c burst, a kill —
    // replays field-identically on a fresh cluster.
    const auto run = [] {
        ShardedRenderService cluster(
            ReplicatedConfig(3, /*refresh_every=*/5));
        SetupScenes(cluster);
        SubmitSpaced(cluster, "Instant-NGP", 10, 0.0, 50.0);
        cluster.WaitAll();
        cluster.KillShard(cluster.ReplicasOf("Instant-NGP")[2], 2000.0);
        std::vector<ClusterTicket> tickets;
        for (int i = 0; i < 8; ++i) {
            SceneRequest request;
            request.scene = "Instant-NGP";
            request.arrival_ms = 10000.0;
            tickets.push_back(cluster.Submit(request));
        }
        struct Outcome {
            std::vector<std::size_t> shards;
            std::vector<double> latencies;
            std::vector<std::size_t> replicas;
            std::uint64_t p2c_routed;
            std::uint64_t replica_served;
            double p99_ms;
        } outcome;
        for (const ClusterTicket ticket : tickets) {
            const ClusterRenderResult result = cluster.Wait(ticket);
            outcome.shards.push_back(result.shard);
            outcome.latencies.push_back(result.result.latency_ms);
        }
        outcome.replicas = cluster.ReplicasOf("Instant-NGP");
        const ClusterStats stats = cluster.Snapshot();
        outcome.p2c_routed = stats.p2c_routed;
        outcome.replica_served = stats.replica_served;
        outcome.p99_ms = stats.p99_ms;
        return outcome;
    };

    const auto narrow = run();
    const auto wide = run();
    EXPECT_EQ(narrow.shards, wide.shards);
    EXPECT_EQ(narrow.latencies, wide.latencies);
    EXPECT_EQ(narrow.replicas, wide.replicas);
    EXPECT_EQ(narrow.p2c_routed, wide.p2c_routed);
    EXPECT_EQ(narrow.replica_served, wide.replica_served);
    EXPECT_EQ(narrow.p99_ms, wide.p99_ms);
}

}  // namespace
}  // namespace flexnerfer
