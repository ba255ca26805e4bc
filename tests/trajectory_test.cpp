/**
 * @file
 * Unit tests for temporal-coherence serving: the CoherenceModel's
 * quantized reuse mapping, the DeltaWorkload transform (fingerprints,
 * preserved dependency edges, op floors), the PlanCache predecessor-
 * keyed delta path (including the race between delta lookups and LRU
 * eviction — pin semantics), the delta estimator's floor at the full
 * frame, the unified Submit(request, SubmitOptions) API, trajectory
 * sessions through RenderService (delta pricing, previews,
 * coherence-break fallback, thread-count determinism), and sticky
 * sessions on the sharded cluster (home routing and KillShard
 * re-homing).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/flexnerfer.h"
#include "models/trajectory.h"
#include "models/workload.h"
#include "plan/plan_cache.h"
#include "runtime/sweep_runner.h"
#include "serve/cluster.h"
#include "serve/render_service.h"
#include "frame_cost_matchers.h"

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

Pose
PoseAt(double x, double yaw_deg = 0.0)
{
    Pose pose;
    pose.x = x;
    pose.yaw_deg = yaw_deg;
    return pose;
}

TEST(CoherenceModel, QuantizesReuseDownAndFlagsBreaks)
{
    const CoherenceModel model;  // translation 1.0, rotation 90, 1/64ths

    // A static camera reuses everything: the full quantum, no break.
    EXPECT_EQ(model.ReuseQuantum(PoseAt(0.0), PoseAt(0.0)),
              model.reuse_quanta);
    EXPECT_DOUBLE_EQ(model.ReuseFraction(PoseAt(0.0), PoseAt(0.0)), 1.0);
    EXPECT_FALSE(model.IsCoherenceBreak(model.reuse_quanta));

    // Quantization rounds DOWN (conservative): reuse 0.95 on a 1/64
    // grid is floor(60.8) = 60, never 61.
    EXPECT_EQ(model.ReuseQuantum(PoseAt(0.0), PoseAt(0.05)), 60u);

    // Translation and rotation invalidate additively: 0.25 units plus
    // 22.5 degrees (a quarter of the 90-degree scale) each cost a
    // quarter of the view -> reuse 0.5 -> quantum 32.
    EXPECT_EQ(model.ReuseQuantum(PoseAt(0.0), PoseAt(0.25, 22.5)), 32u);

    // A jump past the scale clamps to zero overlap.
    EXPECT_EQ(model.ReuseQuantum(PoseAt(0.0), PoseAt(10.0)), 0u);

    // The break boundary is exact on the grid: threshold 0.25 of 64
    // quanta means 15/64 breaks and 16/64 does not.
    EXPECT_TRUE(model.IsCoherenceBreak(15));
    EXPECT_FALSE(model.IsCoherenceBreak(16));
    EXPECT_TRUE(model.IsCoherenceBreak(0));

    // Pure function: replaying the same delta gives the same quantum.
    EXPECT_EQ(model.ReuseQuantum(PoseAt(1.0), PoseAt(1.03)),
              model.ReuseQuantum(PoseAt(1.0), PoseAt(1.03)));
}

TEST(DeltaWorkload, PreservesEdgesSeparatesFingerprintsAndFloorsOps)
{
    const NerfWorkload base = BuildWorkload("Instant-NGP");

    // Zero overlap is a full recompute: the base workload unchanged,
    // same fingerprint, same cache identity.
    const NerfWorkload full = DeltaWorkload(base, 0, 64);
    EXPECT_EQ(WorkloadFingerprint(full), WorkloadFingerprint(base));

    // A real delta separates from the base and from every other
    // quantum: one plan-cache entry per (scene, quantum).
    const NerfWorkload d32 = DeltaWorkload(base, 32, 64);
    const NerfWorkload d60 = DeltaWorkload(base, 60, 64);
    EXPECT_NE(WorkloadFingerprint(d32), WorkloadFingerprint(base));
    EXPECT_NE(WorkloadFingerprint(d32), WorkloadFingerprint(d60));
    EXPECT_NE(d32.name.find("+delta32of64"), std::string::npos);

    // The DAG keeps the base frame's shape: one appended warp_validate
    // source op, every base op (and its dependency edges) intact, no op
    // shrunk to nothing even at full reuse.
    const NerfWorkload d64 = DeltaWorkload(base, 64, 64);
    ASSERT_EQ(d64.ops.size(), base.ops.size() + 1);
    for (std::size_t i = 0; i < base.ops.size(); ++i) {
        EXPECT_EQ(d64.ops[i].deps, base.ops[i].deps) << "op " << i;
        EXPECT_NE(d64.ops[i].name.find("#d"), std::string::npos);
    }
    EXPECT_NE(d64.ops.back().name.find("warp_validate"), std::string::npos);
    EXPECT_TRUE(d64.ops.back().deps.empty());  // a source op

    // The delta prices below the full frame, and the warp pass makes
    // even the static-camera delta non-free.
    const FlexNeRFerModel accel;
    const double full_ms = EstimatedServiceMs(accel.RunWorkload(base));
    const double d32_ms = EstimatedServiceMs(accel.RunWorkload(d32));
    const double d64_ms = EstimatedServiceMs(accel.RunWorkload(d64));
    EXPECT_LT(d64_ms, d32_ms);
    EXPECT_LT(d32_ms, full_ms);
    EXPECT_GT(d64_ms, 0.0);
}

TEST(PlanCache, DeltaLookupsTelescopeAndCountDistinctly)
{
    const FlexNeRFerModel accel;
    const NerfWorkload base = BuildWorkload("NeRF");
    const NerfWorkload shape = DeltaWorkload(base, 48, 64);

    PlanCache cache;
    const PlanCache::PreparedFrame frame = cache.Prepare(accel, base);
    const FrameCost full = cache.Run(frame);

    // First delta lookup compiles (a delta miss on top of the plan
    // miss); the replay is a delta hit and replays bit-identically.
    const FrameCost first = cache.Run(cache.PrepareDelta(frame, accel, shape));
    EXPECT_EQ(cache.stats().delta_misses, 1u);
    EXPECT_EQ(cache.stats().delta_hits, 0u);
    const FrameCost again = cache.Run(cache.PrepareDelta(frame, accel, shape));
    EXPECT_EQ(cache.stats().delta_hits, 1u);
    ExpectBitIdentical(again, first);
    EXPECT_LT(EstimatedServiceMs(first), EstimatedServiceMs(full));

    // The key is predecessor-scoped: the same delta shape hanging off a
    // different base frame is a different entry, and a delta handle is
    // itself a valid predecessor (the trajectory telescopes).
    const PlanCache::PreparedFrame other =
        cache.Prepare(accel, BuildWorkload("TensoRF"));
    const std::size_t before = cache.size();
    cache.PrepareDelta(other, accel,
                       DeltaWorkload(BuildWorkload("TensoRF"), 48, 64));
    EXPECT_EQ(cache.size(), before + 1);
    const PlanCache::PreparedFrame chained =
        cache.PrepareDelta(frame, accel, shape);
    cache.Run(cache.PrepareDelta(chained, accel, shape));
    EXPECT_EQ(cache.stats().delta_misses, 3u);
}

TEST(PlanCache, DeltaLookupsSurviveLruEvictionThroughPins)
{
    // Satellite: the race between predecessor-keyed lookups and LRU
    // eviction. A capacity-2 cache churns both the predecessor and the
    // delta entry out of the key table; the predecessor *handle* pins
    // its entry (and key) through eviction, so PrepareDelta stays
    // valid, and the evicted delta entry recompiles byte-identically as
    // a fresh delta miss.
    const FlexNeRFerModel accel;
    const NerfWorkload base = BuildWorkload("Instant-NGP");
    const NerfWorkload shape = DeltaWorkload(base, 56, 64);

    PlanCache cache(/*capacity=*/2);
    const PlanCache::PreparedFrame frame = cache.Prepare(accel, base);
    const FrameCost first = cache.Run(cache.PrepareDelta(frame, accel, shape));
    EXPECT_EQ(cache.stats().delta_misses, 1u);

    // Churn two unrelated frames through the bounded cache: both the
    // base entry and the delta entry leave the key table.
    cache.Run(accel, BuildWorkload("NeRF"));
    cache.Run(accel, BuildWorkload("TensoRF"));
    EXPECT_GE(cache.stats().evictions, 2u);
    EXPECT_EQ(cache.size(), 2u);

    // The pinned predecessor still replays bit-identically, and the
    // delta path recompiles into the same plan: same cost, one more
    // delta miss (distinctly counted), zero delta hits wasted.
    const FrameCost replayed =
        cache.Run(cache.PrepareDelta(frame, accel, shape));
    ExpectBitIdentical(replayed, first);
    EXPECT_EQ(cache.stats().delta_misses, 2u);
    EXPECT_EQ(cache.stats().delta_hits, 0u);

    // Once resident again it hits like any entry.
    cache.Run(cache.PrepareDelta(frame, accel, shape));
    EXPECT_EQ(cache.stats().delta_hits, 1u);
}

TEST(Accelerator, DeltaEstimateNeverPricesAboveTheFullFrame)
{
    const FlexNeRFerModel accel;
    const NerfWorkload base = BuildWorkload("Instant-NGP");
    const FrameCost full = accel.RunWorkload(base);
    const FrameCost delta = accel.RunWorkload(DeltaWorkload(base, 48, 64));

    // The delta rule is min(delta, full), from either side.
    const double full_ms = EstimatedServiceMs(full);
    const double delta_ms = EstimatedDeltaServiceMs(delta, full);
    EXPECT_EQ(delta_ms, std::min(EstimatedServiceMs(delta), full_ms));
    EXPECT_EQ(EstimatedDeltaServiceMs(full, delta), delta_ms);
    EXPECT_EQ(EstimatedDeltaServiceMs(full, full), full_ms);
    // Reusing 48/64 of the view prices strictly below the full frame.
    EXPECT_LT(delta_ms, full_ms);
    EXPECT_GT(delta_ms, 0.0);
}

TEST(RenderService, UnifiedSubmitMatchesDefaults)
{
    // Submit(request) and Submit(request, SubmitOptions{}) must produce
    // byte-identical results — default options are the legacy
    // single-argument path exactly — and a surcharge must ride the
    // admitted latency one for one.
    enum class Variant { kBare, kDefaultOptions, kSurcharged };
    const auto run = [](Variant variant) {
        ServeConfig config;
        RenderService service(config);
        service.RegisterScene("ngp", FlexScene("Instant-NGP"));
        const double est = EstimatedServiceMs(service.WarmScene("ngp"));
        for (int i = 0; i < 8; ++i) {
            SceneRequest request;
            request.scene = "ngp";
            request.arrival_ms = 0.6 * est * i;
            request.deadline_ms = 2.0 * est;
            if (variant == Variant::kBare) {
                service.Submit(request);
            } else {
                SubmitOptions options;
                if (variant == Variant::kSurcharged) {
                    options.extra_service_ms = 9.0;
                    request.deadline_ms += 9.0;
                }
                service.Submit(request, options);
            }
        }
        return service.WaitAll();
    };

    const std::vector<RenderResult> bare_run = run(Variant::kBare);
    const std::vector<RenderResult> options_run =
        run(Variant::kDefaultOptions);
    ASSERT_EQ(bare_run.size(), 8u);
    ASSERT_EQ(options_run.size(), bare_run.size());
    for (std::size_t i = 0; i < bare_run.size(); ++i) {
        EXPECT_EQ(options_run[i].status, bare_run[i].status) << i;
        EXPECT_EQ(options_run[i].latency_ms, bare_run[i].latency_ms) << i;
        EXPECT_EQ(options_run[i].queue_wait_ms, bare_run[i].queue_wait_ms)
            << i;
        EXPECT_EQ(options_run[i].cost, bare_run[i].cost) << i;
    }
    // The first request meets an idle device: the surcharge is exactly
    // the extra latency it books.
    const std::vector<RenderResult> taxed_run = run(Variant::kSurcharged);
    ASSERT_EQ(taxed_run.size(), bare_run.size());
    ASSERT_EQ(taxed_run[0].status, RequestStatus::kCompleted);
    EXPECT_DOUBLE_EQ(taxed_run[0].latency_ms, bare_run[0].latency_ms + 9.0);
}

/** Replays a fixed pose path through a fresh service, each frame
 *  surcharged by @p surcharge_share x the scene's estimate (its deadline
 *  extended to match); returns results and the snapshot for determinism
 *  comparisons. */
std::pair<std::vector<RenderResult>, ServiceStats>
ReplayTrajectory(const std::vector<Pose>& poses,
                 double surcharge_share = 0.0)
{
    RenderService service(ServeConfig{});
    service.RegisterScene("ngp", FlexScene("Instant-NGP"));
    const double est = EstimatedServiceMs(service.WarmScene("ngp"));
    const SessionId session = service.OpenSession("ngp");
    for (std::size_t k = 0; k < poses.size(); ++k) {
        SceneRequest request;
        request.scene = "ngp";
        request.arrival_ms = 1.1 * est * static_cast<double>(k);
        SubmitOptions options;
        options.session = session;
        options.pose = poses[k];
        options.extra_service_ms = surcharge_share * est;
        request.deadline_ms = 4.0 * est + options.extra_service_ms;
        service.Submit(request, options);
    }
    auto results = service.WaitAll();
    return {std::move(results), service.Snapshot()};
}

TEST(RenderService, SessionsPriceDeltasAndFallBackOnBreaks)
{
    // A smooth walk with one mid-path teleport: frame 0 is full (no
    // predecessor), smooth frames are deltas, the teleport is a
    // coherence break priced as a full recompute, and the walk resumes
    // on the delta path afterwards.
    std::vector<Pose> poses;
    for (int k = 0; k < 12; ++k) {
        poses.push_back(PoseAt(0.05 * k + (k >= 6 ? 10.0 : 0.0)));
    }
    const auto [results, stats] = ReplayTrajectory(poses);

    ASSERT_EQ(stats.sessions.size(), 1u);
    const SessionStats& session = stats.sessions.front();
    EXPECT_EQ(session.frames, poses.size());
    EXPECT_EQ(session.coherence_breaks, 1u);
    EXPECT_EQ(session.full_frames, 2u);
    EXPECT_EQ(session.delta_frames, poses.size() - 2);
    EXPECT_GT(session.delta_savings_ms, 0.0);
    EXPECT_NEAR(session.DeltaHitRate(),
                static_cast<double>(poses.size() - 2) /
                    static_cast<double>(poses.size()),
                1e-12);

    // One scene compile plus one delta shape (the smooth 0.05 step is
    // one quantum): the break replays the pinned full frame, it does
    // not recompile anything.
    EXPECT_EQ(stats.cache.plan_misses, 2u);
    EXPECT_EQ(stats.cache.delta_misses, 1u);

    // Delta frames are cheaper than the two full frames.
    const double full_latency = results[0].latency_ms;
    EXPECT_DOUBLE_EQ(results[6].latency_ms, full_latency);  // the break
    for (std::size_t k : {1u, 5u, 7u, 11u}) {
        EXPECT_LT(results[k].latency_ms, full_latency) << "frame " << k;
    }

    // Aggregate rollup matches the per-session row.
    EXPECT_EQ(stats.sessions_opened, 1u);
    EXPECT_EQ(stats.session_frames, poses.size());
    EXPECT_EQ(stats.delta_frames, session.delta_frames);
    EXPECT_EQ(stats.coherence_breaks, 1u);

    // A surcharge rides the delta and the full price alike: the savings
    // are the delta rule's alone.
    const auto [taxed_results, taxed] = ReplayTrajectory(poses, 0.25);
    ASSERT_EQ(taxed.sessions.size(), 1u);
    EXPECT_EQ(taxed.sessions.front().delta_frames, session.delta_frames);
    EXPECT_NEAR(taxed.sessions.front().delta_savings_ms,
                session.delta_savings_ms, 1e-9 * session.delta_savings_ms);
    EXPECT_GT(taxed_results[0].latency_ms, full_latency);

    // A preview of a scene no request touched compiles it as its first
    // Submit would, but counts no request: both Submits below find the
    // scene prepared and admit at the previewed prices.
    RenderService cold;
    cold.RegisterScene("ngp", FlexScene("Instant-NGP"));
    SceneRequest request;
    request.scene = "ngp";
    SubmitOptions options;
    options.session = cold.OpenSession("ngp");
    options.pose = poses[0];
    const RequestPrice first = cold.Preview(request, options);
    EXPECT_EQ(first.rule, PriceRule::kFrame);
    EXPECT_EQ(first.price_ms, full_latency);
    EXPECT_FALSE(first.session_frame.delta);
    ServiceStats previewed = cold.Snapshot();
    EXPECT_EQ(previewed.submitted, 0u);
    EXPECT_EQ(previewed.scenes[0].requests, 0u);
    EXPECT_EQ(previewed.cache.plan_misses, 1u);
    cold.Submit(request, options);

    request.arrival_ms = 2.0 * full_latency;
    options.pose = poses[1];
    const RequestPrice next = cold.Preview(request, options);
    EXPECT_EQ(next.rule, PriceRule::kDelta);
    EXPECT_LT(next.price_ms, first.price_ms);
    const SubmitReceipt receipt = cold.Submit(request, options);
    EXPECT_TRUE(receipt.session_frame.delta);
    EXPECT_EQ(receipt.session_frame.reuse, next.session_frame.reuse);
    EXPECT_EQ(receipt.session_frame.savings_ms,
              next.session_frame.savings_ms);
    const std::vector<RenderResult> served = cold.WaitAll();
    ASSERT_EQ(served.size(), 2u);
    EXPECT_EQ(served[0].latency_ms, first.price_ms);
    EXPECT_NEAR(served[1].latency_ms, next.price_ms, 1e-9 * next.price_ms);
    previewed = cold.Snapshot();
    EXPECT_EQ(previewed.scenes[0].requests, 2u);
    EXPECT_EQ(previewed.scenes[0].prepared_replays, 2u);
    EXPECT_EQ(previewed.cache.delta_misses, 1u);
}

TEST(RenderService, SessionVerdictsAreRerunInvariant)
{
    std::vector<Pose> poses;
    for (int k = 0; k < 16; ++k) {
        poses.push_back(PoseAt(0.03 * k, 1.5 * k));
    }
    const auto [one, stats_one] = ReplayTrajectory(poses);
    const auto [again, stats_again] = ReplayTrajectory(poses);

    ASSERT_EQ(one.size(), again.size());
    for (std::size_t k = 0; k < one.size(); ++k) {
        EXPECT_EQ(one[k].status, again[k].status) << k;
        EXPECT_DOUBLE_EQ(one[k].latency_ms, again[k].latency_ms) << k;
        ExpectBitIdentical(one[k].cost, again[k].cost);
    }
    EXPECT_EQ(stats_one.delta_frames, stats_again.delta_frames);
    EXPECT_EQ(stats_one.coherence_breaks, stats_again.coherence_breaks);
    EXPECT_DOUBLE_EQ(stats_one.delta_savings_ms,
                     stats_again.delta_savings_ms);
    EXPECT_DOUBLE_EQ(stats_one.session_mean_reuse,
                     stats_again.session_mean_reuse);
}

/** What a service shows for one session's second frame. */
struct StepFrame {
    double peek_ms = 0.0;     //!< the Preview price before submitting
    double frame_ms = 0.0;    //!< the rendered frame's modeled latency
};

/**
 * One Instant-NGP service with a session per @p models entry: every
 * session renders a frame at x = 0, then one at its @p steps entry.
 */
std::vector<StepFrame>
StepSessions(const std::vector<CoherenceModel>& models,
             const std::vector<Pose>& steps)
{
    RenderService service;
    service.RegisterScene("ngp", FlexScene("Instant-NGP"));
    const double est = EstimatedServiceMs(service.WarmScene("ngp"));
    std::vector<SessionId> sessions;
    for (const CoherenceModel& model : models) {
        sessions.push_back(service.OpenSession("ngp", model));
    }
    double arrival_ms = 0.0;
    const auto submit = [&](SessionId session, const Pose& pose) {
        SceneRequest request;
        request.scene = "ngp";
        request.arrival_ms = arrival_ms;
        request.deadline_ms = 4.0 * est;
        arrival_ms += 2.0 * est;
        SubmitOptions options;
        options.session = session;
        options.pose = pose;
        const double price_ms = service.Preview(request, options).price_ms;
        service.Submit(request, options);
        return price_ms;
    };
    for (const SessionId session : sessions) submit(session, PoseAt(0.0));
    std::vector<StepFrame> frames(sessions.size());
    for (std::size_t s = 0; s < sessions.size(); ++s) {
        frames[s].peek_ms = submit(sessions[s], steps[s]);
    }
    const std::vector<RenderResult> results = service.WaitAll();
    for (std::size_t s = 0; s < sessions.size(); ++s) {
        const RenderResult& result = results[sessions.size() + s];
        EXPECT_EQ(result.status, RequestStatus::kCompleted)
            << "session " << s;
        frames[s].frame_ms = result.cost.latency_ms;
    }
    return frames;
}

TEST(RenderService, SessionsOnDifferentReuseGridsNeverShareDeltaShapes)
{
    // Two sessions of one scene reuse 4/64 and 4/8 of their previous
    // frame: the same quantum, different fractions. Each must price and
    // render at its own fraction, as it does alone, whichever shape
    // compiled first.
    CoherenceModel fine;
    fine.reuse_quanta = 64;
    fine.break_threshold = 0.0;
    CoherenceModel coarse = fine;
    coarse.reuse_quanta = 8;
    const Pose fine_step = PoseAt(0.9375);  // overlap 1/16
    const Pose coarse_step = PoseAt(0.5);   // overlap 1/2
    ASSERT_EQ(fine.ReuseQuantum(PoseAt(0.0), fine_step), 4u);
    ASSERT_EQ(coarse.ReuseQuantum(PoseAt(0.0), coarse_step), 4u);

    const StepFrame fine_alone = StepSessions({fine}, {fine_step})[0];
    const StepFrame coarse_alone = StepSessions({coarse}, {coarse_step})[0];
    ASSERT_NE(fine_alone.peek_ms, coarse_alone.peek_ms);
    ASSERT_NE(fine_alone.frame_ms, coarse_alone.frame_ms);

    for (const bool fine_first : {true, false}) {
        const std::vector<StepFrame> both =
            fine_first
                ? StepSessions({fine, coarse}, {fine_step, coarse_step})
                : StepSessions({coarse, fine}, {coarse_step, fine_step});
        const StepFrame& f = both[fine_first ? 0 : 1];
        const StepFrame& c = both[fine_first ? 1 : 0];
        EXPECT_EQ(f.peek_ms, fine_alone.peek_ms) << fine_first;
        EXPECT_EQ(c.peek_ms, coarse_alone.peek_ms) << fine_first;
        EXPECT_EQ(f.frame_ms, fine_alone.frame_ms) << fine_first;
        EXPECT_EQ(c.frame_ms, coarse_alone.frame_ms) << fine_first;
    }
}

TEST(ShardedRenderService, SessionsStickToTheirHomeAndRehomeOnKill)
{
    ClusterConfig config;
    config.shards = 3;
    ShardedRenderService cluster(config);
    cluster.RegisterScene("ngp", FlexScene("Instant-NGP"));
    const double est = EstimatedServiceMs(cluster.WarmScene("ngp"));
    const std::size_t home = cluster.router().Home("ngp");

    const SessionId session = cluster.OpenSession("ngp");
    const auto submit = [&](std::size_t k, double x) {
        SceneRequest request;
        request.scene = "ngp";
        request.arrival_ms = 1.1 * est * static_cast<double>(k);
        request.deadline_ms = 4.0 * est;
        SubmitOptions options;
        options.session = session;
        options.pose = PoseAt(x);
        return cluster.Submit(request, options);
    };

    // Smooth frames all land on the scene's home shard — sessions are
    // sticky (no p2c, no spill): coherence state lives in the home
    // replica's plan cache.
    for (std::size_t k = 0; k < 6; ++k) submit(k, 0.04 * k);
    std::vector<ClusterRenderResult> results = cluster.WaitAll();
    ASSERT_EQ(results.size(), 6u);
    for (const ClusterRenderResult& r : results) {
        EXPECT_EQ(r.shard, home);
        EXPECT_FALSE(r.spilled);
        EXPECT_EQ(r.result.status, RequestStatus::kCompleted);
    }

    // Killing the home re-homes the session with its scene: the next
    // frame replays from the last full frame (a full recompute on the
    // new home), then the trajectory resumes on the delta path there.
    cluster.KillShard(home, /*now_ms=*/1.1 * est * 6.0);
    for (std::size_t k = 6; k < 9; ++k) submit(k, 0.04 * k);
    results = cluster.WaitAll();
    ASSERT_EQ(results.size(), 3u);
    const std::size_t new_home = results.front().shard;
    EXPECT_NE(new_home, home);
    for (const ClusterRenderResult& r : results) {
        EXPECT_EQ(r.shard, new_home);
        EXPECT_EQ(r.result.status, RequestStatus::kCompleted);
    }

    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.sessions_opened, 1u);
    EXPECT_EQ(stats.session_rehomes, 1u);
    EXPECT_EQ(stats.session_frames, 9u);
    // Full frames: the opener and the post-re-home replay; everything
    // else priced as a delta, folded across the dead shard's epoch.
    EXPECT_EQ(stats.session_full_frames, 2u);
    EXPECT_EQ(stats.delta_frames, 7u);
    EXPECT_EQ(stats.coherence_breaks, 0u);
    EXPECT_GT(stats.delta_savings_ms, 0.0);
}

}  // namespace
}  // namespace flexnerfer
