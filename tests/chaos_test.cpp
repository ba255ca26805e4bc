/**
 * @file
 * Deterministic chaos drills for the cross-host cluster: a seeded
 * sweep of kill / partition / loss fault schedules, each asserting the
 * conservation identities (every ticket resolves exactly once, shard
 * admissions reconcile with router submissions via replays and
 * transport failures, the merged latency histogram's count equals the
 * lifetime accepted count) and rerun invariance (two runs of one seed
 * produce field-identical verdicts and telemetry),
 * plus the message-size model pinned against its hand-computed frame
 * layout.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "serve/cluster.h"
#include "serve/transport.h"
#include "serve/wire.h"

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

/** Cheap models only: the drills care about routing, not rendering. */
const std::vector<std::string>&
ChaosModels()
{
    static const std::vector<std::string> models = {
        "Instant-NGP", "KiloNeRF", "NSVF", "TensoRF", "IBRNet"};
    return models;
}

/** Fixed overloaded schedule, a pure function of @p seed. */
std::vector<SceneRequest>
ChaosSchedule(std::uint64_t seed, const std::vector<double>& est_ms,
              double mean_est_ms, std::size_t requests)
{
    Rng rng(seed);
    std::vector<SceneRequest> schedule;
    double arrival = 0.0;
    const double mean_interarrival = mean_est_ms / 3.0;  // overloaded
    for (std::size_t i = 0; i < requests; ++i) {
        arrival += -mean_interarrival *
                   std::log(1.0 - rng.Uniform(0.0, 1.0));
        const auto scene = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(est_ms.size()) - 1));
        SceneRequest request;
        request.scene = ChaosModels()[scene];
        request.arrival_ms = arrival;
        request.priority = static_cast<int>(rng.UniformInt(0, 2));
        request.deadline_ms = 1.5 * est_ms[scene] +
                              mean_est_ms * rng.Uniform(0.0, 4.0);
        schedule.push_back(std::move(request));
    }
    return schedule;
}

enum class FaultPlan { kKill, kPartition, kLoss };

/** The fault schedule: a pure function of (seed, plan, span). */
void
ScheduleFaults(SimTransport& transport, FaultPlan plan,
               std::uint64_t seed, double span_ms, std::size_t shards)
{
    switch (plan) {
        case FaultPlan::kKill: {
            // One death a third in, a second (possibly redundant —
            // the cluster skips unsafe kills) two thirds in.
            FaultEvent death;
            death.kind = FaultEvent::Kind::kShardDeath;
            death.link = seed % shards;
            death.start_ms = span_ms / 3.0;
            transport.Schedule(death);
            death.link = (seed / 7) % shards;
            death.start_ms = 2.0 * span_ms / 3.0;
            transport.Schedule(death);
            break;
        }
        case FaultPlan::kPartition: {
            FaultEvent partition;
            partition.kind = FaultEvent::Kind::kPartition;
            partition.link = seed % shards;
            partition.start_ms = span_ms / 4.0;
            partition.end_ms = span_ms / 2.0;
            transport.Schedule(partition);
            break;
        }
        case FaultPlan::kLoss: {
            FaultEvent loss;
            loss.kind = FaultEvent::Kind::kLoss;
            loss.link = SimTransport::kAllLinks;
            loss.start_ms = span_ms / 5.0;
            loss.end_ms = 3.0 * span_ms / 5.0;
            loss.magnitude = 0.55;
            transport.Schedule(loss);
            FaultEvent spike;
            spike.kind = FaultEvent::Kind::kDelaySpike;
            spike.link = (seed + 1) % shards;
            spike.start_ms = 0.0;
            spike.end_ms = span_ms;
            spike.magnitude = 0.2;
            transport.Schedule(spike);
            break;
        }
    }
}

struct ChaosRun {
    std::vector<ClusterRenderResult> results;
    ClusterStats stats;
    std::uint64_t transport_failed_messages = 0;
};

ChaosRun
RunChaos(std::uint64_t seed, FaultPlan plan, std::size_t requests = 120)
{
    SimTransport transport(seed);
    ClusterConfig config;
    config.shards = 4;
    config.admission.max_queue_depth = 8;
    config.transport = &transport;
    ShardedRenderService cluster(config);

    std::vector<double> est_ms;
    double mean = 0.0;
    for (const std::string& model : ChaosModels()) {
        cluster.RegisterScene(model, FlexScene(model));
    }
    for (const std::string& model : ChaosModels()) {
        est_ms.push_back(EstimatedServiceMs(cluster.WarmScene(model)));
        mean += est_ms.back();
    }
    mean /= static_cast<double>(est_ms.size());

    const std::vector<SceneRequest> schedule =
        ChaosSchedule(seed, est_ms, mean, requests);
    const double span_ms = schedule.back().arrival_ms;
    ScheduleFaults(transport, plan, seed, span_ms, 4);

    for (const SceneRequest& request : schedule) {
        cluster.Submit(request);
    }
    ChaosRun run;
    run.results = cluster.WaitAll();
    run.stats = cluster.Snapshot();
    run.transport_failed_messages = transport.stats().failed;
    return run;
}

/** The conservation identities every drill must satisfy. */
void
CheckConservation(const ChaosRun& run, std::size_t requests)
{
    ASSERT_EQ(run.results.size(), requests);
    std::uint64_t completed = 0, shed = 0, rejected = 0, failed = 0;
    std::uint64_t replayed = 0;
    for (const ClusterRenderResult& r : run.results) {
        switch (r.result.status) {
            case RequestStatus::kCompleted: ++completed; break;
            case RequestStatus::kShedDeadline: ++shed; break;
            case RequestStatus::kRejectedQueueFull: ++rejected; break;
            case RequestStatus::kFailedTransport: ++failed; break;
        }
        if (r.replayed) ++replayed;
        // A transport failure never carries a rendered result and is
        // flagged consistently.
        EXPECT_EQ(r.transport_failed,
                  r.result.status == RequestStatus::kFailedTransport);
    }
    // Every ticket resolved exactly once, into exactly one status.
    EXPECT_EQ(completed + shed + rejected + failed, requests);

    const ClusterStats& stats = run.stats;
    EXPECT_EQ(stats.cluster_submitted, requests);
    EXPECT_EQ(stats.completed, completed);
    EXPECT_EQ(stats.shed_deadline, shed);
    EXPECT_EQ(stats.rejected_queue_full, rejected);
    EXPECT_EQ(stats.transport_failures, failed);
    EXPECT_EQ(stats.replayed, replayed);
    // Shard-level admissions reconcile with router submissions: a
    // replayed ticket admits twice, a transport failure never admits.
    EXPECT_EQ(stats.submitted,
              stats.cluster_submitted - stats.transport_failures +
                  stats.replayed);
    // The merged histogram folds every epoch, dead shards included:
    // its exact count must equal the lifetime accepted count.
    EXPECT_EQ(stats.latency_samples, stats.accepted);
    EXPECT_EQ(stats.completed, stats.accepted);
    // Live per-shard rows keep the prepared-path invariant; dead rows
    // are zeroed.
    for (const ShardTelemetry& shard : stats.per_shard) {
        if (shard.alive) {
            EXPECT_EQ(shard.service.cache.frame_hits,
                      shard.service.accepted);
        } else {
            EXPECT_EQ(shard.service.submitted, 0u);
            EXPECT_EQ(shard.service.accepted, 0u);
        }
    }
    EXPECT_EQ(run.transport_failed_messages, failed);
}

void
ExpectIdenticalRuns(const ChaosRun& a, const ChaosRun& b)
{
    ASSERT_EQ(a.results.size(), b.results.size());
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        const ClusterRenderResult& ra = a.results[i];
        const ClusterRenderResult& rb = b.results[i];
        EXPECT_EQ(ra.result.status, rb.result.status) << "request " << i;
        EXPECT_EQ(ra.result.scene, rb.result.scene) << "request " << i;
        EXPECT_EQ(ra.result.latency_ms, rb.result.latency_ms)
            << "request " << i;
        EXPECT_EQ(ra.shard, rb.shard) << "request " << i;
        EXPECT_EQ(ra.home_shard, rb.home_shard) << "request " << i;
        EXPECT_EQ(ra.spilled, rb.spilled) << "request " << i;
        EXPECT_EQ(ra.spill_surcharge_ms, rb.spill_surcharge_ms)
            << "request " << i;
        EXPECT_EQ(ra.replayed, rb.replayed) << "request " << i;
        EXPECT_EQ(ra.transport_failed, rb.transport_failed)
            << "request " << i;
        EXPECT_EQ(ra.rpc_delay_ms, rb.rpc_delay_ms) << "request " << i;
    }
    EXPECT_EQ(a.stats.submitted, b.stats.submitted);
    EXPECT_EQ(a.stats.accepted, b.stats.accepted);
    EXPECT_EQ(a.stats.rejected_queue_full, b.stats.rejected_queue_full);
    EXPECT_EQ(a.stats.shed_deadline, b.stats.shed_deadline);
    EXPECT_EQ(a.stats.spilled, b.stats.spilled);
    EXPECT_EQ(a.stats.transport_failures, b.stats.transport_failures);
    EXPECT_EQ(a.stats.replayed, b.stats.replayed);
    EXPECT_EQ(a.stats.killed_shards, b.stats.killed_shards);
    EXPECT_EQ(a.stats.p50_ms, b.stats.p50_ms);
    EXPECT_EQ(a.stats.p99_ms, b.stats.p99_ms);
    EXPECT_EQ(a.stats.mean_ms, b.stats.mean_ms);
    EXPECT_EQ(a.stats.latency_sum_ms, b.stats.latency_sum_ms);
    EXPECT_EQ(a.stats.makespan_ms, b.stats.makespan_ms);
    EXPECT_EQ(a.stats.utilization, b.stats.utilization);
    EXPECT_EQ(a.transport_failed_messages, b.transport_failed_messages);
}

// ---------------------------------------------------------------------
// The seeded sweep: 10 seeds x {kill, partition, loss}.
// ---------------------------------------------------------------------

class ChaosSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, FaultPlan>>
{};

TEST_P(ChaosSweep, ConservationHoldsAndRerunsAreIdentical)
{
    const std::uint64_t seed = std::get<0>(GetParam());
    const FaultPlan plan = std::get<1>(GetParam());

    const ChaosRun single = RunChaos(seed, plan);
    CheckConservation(single, 120);

    const ChaosRun rerun = RunChaos(seed, plan);
    CheckConservation(rerun, 120);
    ExpectIdenticalRuns(single, rerun);

    // Kill plans must actually exercise the replay path for at least
    // one seed-independent guarantee: the first death always lands
    // (the cluster starts with 4 live shards).
    if (plan == FaultPlan::kKill) {
        EXPECT_GE(single.stats.killed_shards, 1u);
    }
    // Loss plans must actually drop traffic terminally for the
    // conservation identity to be load-bearing.
    if (plan == FaultPlan::kLoss) {
        EXPECT_GE(single.stats.transport_failures, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeededFaults, ChaosSweep,
    ::testing::Combine(::testing::Values(11u, 12u, 13u, 14u, 15u, 16u,
                                         17u, 18u, 19u, 20u),
                       ::testing::Values(FaultPlan::kKill,
                                         FaultPlan::kPartition,
                                         FaultPlan::kLoss)),
    [](const ::testing::TestParamInfo<ChaosSweep::ParamType>& info) {
        const char* plan = "";
        switch (std::get<1>(info.param)) {
            case FaultPlan::kKill: plan = "Kill"; break;
            case FaultPlan::kPartition: plan = "Partition"; break;
            case FaultPlan::kLoss: plan = "Loss"; break;
        }
        return std::string(plan) + "Seed" +
               std::to_string(std::get<0>(info.param));
    });

// ---------------------------------------------------------------------
// Quick non-parameterized drills (the smoke slice).
// ---------------------------------------------------------------------

TEST(ChaosQuick, KillReplaysInFlightTicketsExactlyOnce)
{
    const ChaosRun run = RunChaos(11u, FaultPlan::kKill);
    CheckConservation(run, 120);
    EXPECT_GE(run.stats.killed_shards, 1u);
    // Replays re-admit on a live shard: every replayed ticket still
    // resolved, and none resolved twice (conservation above), so the
    // replay count is exactly the number of flagged results.
    std::uint64_t flagged = 0;
    for (const ClusterRenderResult& r : run.results) {
        if (r.replayed) {
            ++flagged;
            EXPECT_NE(r.result.status, RequestStatus::kFailedTransport);
        }
    }
    EXPECT_EQ(run.stats.replayed, flagged);
}

TEST(ChaosQuick, PartitionFailsRequestsTerminallyAndDeterministically)
{
    const ChaosRun run = RunChaos(13u, FaultPlan::kPartition);
    CheckConservation(run, 120);
    // A partition outlasting the retry budget is a terminal failure:
    // the partitioned link's home traffic dies on the wire.
    EXPECT_GE(run.stats.transport_failures, 1u);
    for (const ClusterRenderResult& r : run.results) {
        if (r.transport_failed) {
            EXPECT_EQ(r.result.latency_ms, 0.0);
            EXPECT_FALSE(r.replayed);
        }
    }
}

TEST(ChaosQuick, FaultFreeTransportMatchesInProcessCluster)
{
    // The transport is verdict-transparent without faults: the same
    // schedule through a transport-attached cluster and a plain one
    // produces identical verdicts and telemetry (rpc_delay_ms aside),
    // and the link carries exactly the size model's bytes.
    ClusterConfig plain_config;
    plain_config.shards = 4;
    plain_config.admission.max_queue_depth = 8;
    ShardedRenderService plain(plain_config);

    SimTransport transport(0x5EEDu);
    ClusterConfig wired_config = plain_config;
    wired_config.transport = &transport;
    ShardedRenderService wired(wired_config);

    std::vector<double> est_ms;
    double mean = 0.0;
    for (const std::string& model : ChaosModels()) {
        plain.RegisterScene(model, FlexScene(model));
        wired.RegisterScene(model, FlexScene(model));
    }
    for (const std::string& model : ChaosModels()) {
        est_ms.push_back(EstimatedServiceMs(plain.WarmScene(model)));
        wired.WarmScene(model);
        mean += est_ms.back();
    }
    mean /= static_cast<double>(est_ms.size());

    std::uint64_t model_bytes = 0;
    for (const SceneRequest& request :
         ChaosSchedule(42u, est_ms, mean, 100)) {
        plain.Submit(request);
        wired.Submit(request);
        model_bytes += wire::RequestBytes(request);
    }
    const std::vector<ClusterRenderResult> a = plain.WaitAll();
    const std::vector<ClusterRenderResult> b = wired.WaitAll();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].result.status, b[i].result.status);
        EXPECT_EQ(a[i].result.latency_ms, b[i].result.latency_ms);
        EXPECT_EQ(a[i].shard, b[i].shard);
        EXPECT_EQ(a[i].spilled, b[i].spilled);
        EXPECT_EQ(b[i].rpc_delay_ms > 0.0, true) << "request " << i;
        model_bytes += wire::ResultBytes(b[i].result);
    }
    EXPECT_EQ(plain.Snapshot().accepted, wired.Snapshot().accepted);
    EXPECT_EQ(wired.Snapshot().transport_failures, 0u);
    EXPECT_EQ(transport.stats().bytes, model_bytes);
}

TEST(ChaosQuick, TransportDeathsApplyAtTheirScheduledInstant)
{
    SimTransport transport(0x5EEDu);
    ClusterConfig config;
    config.shards = 3;
    config.transport = &transport;
    ShardedRenderService cluster(config);
    const std::string scene = ChaosModels()[0];
    cluster.RegisterScene(scene, FlexScene(scene));
    const double est = EstimatedServiceMs(cluster.WarmScene(scene));
    const std::size_t victim = cluster.router().Home(scene);

    // Alone on its home, this ticket completes at est.
    SceneRequest request;
    request.scene = scene;
    const ClusterTicket in_flight = cluster.Submit(request);

    // A death at est / 2, first observed by an arrival at 2 est: killed
    // at its own instant, the victim still held the ticket in flight,
    // so it replays. Killed at the observing arrival, it would not.
    FaultEvent death;
    death.kind = FaultEvent::Kind::kShardDeath;
    death.link = victim;
    death.start_ms = 0.5 * est;
    transport.Schedule(death);
    request.arrival_ms = 2.0 * est;
    cluster.Submit(request);
    EXPECT_FALSE(cluster.alive(victim));
    EXPECT_EQ(cluster.Snapshot().killed_shards, 1u);
    const ClusterRenderResult replayed = cluster.Wait(in_flight);
    EXPECT_TRUE(replayed.replayed);
    EXPECT_NE(replayed.shard, victim);
    EXPECT_EQ(replayed.result.status, RequestStatus::kCompleted);

    // A second death of the same shard is skipped, not fatal.
    death.start_ms = 3.0 * est;
    transport.Schedule(death);
    request.arrival_ms = 4.0 * est;
    cluster.Submit(request);
    EXPECT_EQ(cluster.live_shards(), 2u);
    EXPECT_EQ(cluster.Snapshot().killed_shards, 1u);

    // Deaths of both survivors at one instant apply in link order: the
    // first kills its shard, the second names the last live shard and
    // is skipped.
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < cluster.shards(); ++i) {
        if (cluster.alive(i)) survivors.push_back(i);
    }
    ASSERT_EQ(survivors.size(), 2u);
    death.start_ms = 5.0 * est;
    for (const std::size_t link : survivors) {
        death.link = link;
        transport.Schedule(death);
    }
    request.arrival_ms = 6.0 * est;
    cluster.Submit(request);
    EXPECT_FALSE(cluster.alive(survivors[0]));
    EXPECT_TRUE(cluster.alive(survivors[1]));
    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.killed_shards, 2u);
    EXPECT_EQ(stats.live_shards, 1u);

    const std::vector<ClusterRenderResult> rest = cluster.WaitAll();
    ASSERT_EQ(rest.size(), 3u);
    for (const ClusterRenderResult& r : rest) {
        EXPECT_EQ(r.result.status, RequestStatus::kCompleted);
    }
}

// ---------------------------------------------------------------------
// Message-size model: each size is the frame the message would travel
// in, counted field by field from the documented layout.
// ---------------------------------------------------------------------

TEST(WireSize, MatchesHandComputedFrameLayout)
{
    constexpr std::size_t kHeader = 4 + 2 + 1 + 1 + 4;  // magic..payload
    ASSERT_EQ(wire::kHeaderSize, kHeader);

    // 27 bytes: longer than the small-string buffer.
    const std::string long_name = "Instant-NGP/flexnerfer-int8";
    ASSERT_EQ(long_name.size(), 27u);
    ASSERT_GT(long_name.size(), std::string().capacity());

    constexpr std::size_t kRequestFixed = kHeader + 4  // name length
                                          + 8          // tier
                                          + 8          // priority
                                          + 8          // deadline
                                          + 8;         // arrival
    SceneRequest request;
    EXPECT_EQ(wire::RequestBytes(request), kRequestFixed);
    EXPECT_EQ(wire::RequestBytes(request), 48u);
    request.scene = long_name;
    request.tier = 3;
    request.priority = 2;
    request.deadline_ms = 7.5;
    EXPECT_EQ(wire::RequestBytes(request), kRequestFixed + 27);
    EXPECT_EQ(wire::RequestBytes(request), 75u);

    constexpr std::size_t kResultFixed = kHeader + 1  // status
                                         + 4          // name length
                                         + 8          // tier
                                         + 10 * 8     // FrameCost
                                         + 8          // queue wait
                                         + 8          // latency
                                         + 8;         // batch elements
    RenderResult result;
    EXPECT_EQ(wire::ResultBytes(result), kResultFixed);
    EXPECT_EQ(wire::ResultBytes(result), 129u);
    result.scene = long_name;
    result.status = RequestStatus::kShedDeadline;
    result.batch_elements = 4;
    EXPECT_EQ(wire::ResultBytes(result), kResultFixed + 27);
    EXPECT_EQ(wire::ResultBytes(result), 156u);
}

}  // namespace
}  // namespace flexnerfer
