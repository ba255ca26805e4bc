/**
 * @file
 * Unit tests for the sharded serving layer: rendezvous routing (ranking
 * determinism and the minimal-movement property), side-effect-free
 * admission probes, spill mechanics (surcharge, pinning, counters), the
 * thread-count determinism of the whole cluster at 1/2/4/8 shards, the
 * per-shard "frame hits == accepted" invariant under spills, histogram
 * merge bounds, drain/rebalance, per-shard scene ids, and the verdict a
 * RenderService Submit reports against a probe at the routing price.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <iomanip>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "models/trajectory.h"
#include "models/workload.h"
#include "runtime/sweep_runner.h"
#include "serve/admission.h"
#include "serve/cluster.h"
#include "serve/shard_router.h"
#include "serve/transport.h"
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

std::vector<std::string>
SceneNames(std::size_t count)
{
    std::vector<std::string> names;
    for (std::size_t i = 0; i < count; ++i) {
        names.push_back("scene-" + std::to_string(i));
    }
    return names;
}

TEST(ShardRouter, RankIsAStableHomeLedPermutation)
{
    const ShardRouter router(8);
    for (const std::string& scene : SceneNames(50)) {
        const std::vector<std::size_t> rank = router.Rank(scene);
        ASSERT_EQ(rank.size(), 8u);
        // A permutation of 0..7, led by the home shard, in strictly
        // descending weight order.
        std::set<std::size_t> unique(rank.begin(), rank.end());
        EXPECT_EQ(unique.size(), 8u);
        EXPECT_EQ(rank.front(), router.Home(scene));
        for (std::size_t i = 1; i < rank.size(); ++i) {
            EXPECT_GE(ShardRouter::Weight(scene, rank[i - 1]),
                      ShardRouter::Weight(scene, rank[i]));
        }
        // Stable across calls and router instances.
        EXPECT_EQ(rank, ShardRouter(8).Rank(scene));
    }
}

TEST(ShardRouter, SpreadsScenesAcrossShards)
{
    // Not a statistical test — just that rendezvous hashing does not
    // degenerate (every shard homes something, given enough scenes).
    const ShardRouter router(4);
    std::vector<std::size_t> homed(4, 0);
    for (const std::string& scene : SceneNames(200)) {
        ++homed[router.Home(scene)];
    }
    for (std::size_t shard = 0; shard < 4; ++shard) {
        EXPECT_GT(homed[shard], 0u) << "shard " << shard;
    }
}

TEST(ShardRouter, ResizeMovesTheProvableMinimum)
{
    const std::vector<std::string> scenes = SceneNames(300);
    // Growing N -> N+1: a scene moves iff its new top weight is on the
    // added shard — so every moved scene's new home IS the new shard.
    for (std::size_t n = 1; n <= 8; ++n) {
        const ShardRouter before(n);
        const ShardRouter after(n + 1);
        for (const std::string& scene : scenes) {
            const std::size_t old_home = before.Home(scene);
            const std::size_t new_home = after.Home(scene);
            if (new_home != old_home) {
                EXPECT_EQ(new_home, n);
            }
        }
    }
    // Shrinking N -> M: survivors' weights are untouched, so only
    // scenes homed on removed shards move.
    const ShardRouter eight(8);
    const ShardRouter three(3);
    for (const std::string& scene : scenes) {
        if (eight.Home(scene) < 3) {
            EXPECT_EQ(three.Home(scene), eight.Home(scene));
        }
    }
}

/** Three-tier WFQ policy shared by the tiered tests below. */
std::vector<TierPolicy>
DeterminismTiers()
{
    TierPolicy vip;
    vip.name = "vip";
    vip.weight = 4.0;
    TierPolicy mid;
    mid.name = "mid";
    mid.weight = 2.0;
    TierPolicy bulk;
    bulk.name = "bulk";
    bulk.weight = 1.0;
    return {vip, mid, bulk};
}

bool
BitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Every Verdict field, doubles compared bit for bit. */
::testing::AssertionResult
SameVerdict(const AdmissionController::Verdict& a,
            const AdmissionController::Verdict& b)
{
    if (a.outcome == b.outcome && BitEqual(a.arrival_ms, b.arrival_ms) &&
        BitEqual(a.start_ms, b.start_ms) &&
        BitEqual(a.completion_ms, b.completion_ms) &&
        BitEqual(a.wait_ms, b.wait_ms) && a.queue_depth == b.queue_depth &&
        a.tier_queue_depth == b.tier_queue_depth &&
        BitEqual(a.deadline_ms, b.deadline_ms) && a.tier == b.tier &&
        BitEqual(a.start_tag, b.start_tag) &&
        BitEqual(a.finish_tag, b.finish_tag)) {
        return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << std::setprecision(17) << "outcome "
           << static_cast<int>(a.outcome) << "/"
           << static_cast<int>(b.outcome) << " arrival " << a.arrival_ms
           << "/" << b.arrival_ms << " start " << a.start_ms << "/"
           << b.start_ms << " completion " << a.completion_ms << "/"
           << b.completion_ms << " depth " << a.queue_depth << "/"
           << b.queue_depth << " tier depth " << a.tier_queue_depth << "/"
           << b.tier_queue_depth << " deadline " << a.deadline_ms << "/"
           << b.deadline_ms << " tags " << a.start_tag << "/"
           << b.start_tag << ", " << a.finish_tag << "/" << b.finish_tag;
}

/** Every Counters field, doubles compared bit for bit. */
::testing::AssertionResult
SameCounters(const AdmissionController::Counters& a,
             const AdmissionController::Counters& b)
{
    bool same = a.accepted == b.accepted &&
                a.rejected_queue_full == b.rejected_queue_full &&
                a.shed_deadline == b.shed_deadline &&
                BitEqual(a.busy_ms, b.busy_ms) &&
                BitEqual(a.first_arrival_ms, b.first_arrival_ms) &&
                BitEqual(a.last_completion_ms, b.last_completion_ms) &&
                a.tiers.size() == b.tiers.size();
    for (std::size_t t = 0; same && t < a.tiers.size(); ++t) {
        same = a.tiers[t].submitted == b.tiers[t].submitted &&
               a.tiers[t].accepted == b.tiers[t].accepted &&
               a.tiers[t].rejected_queue_full ==
                   b.tiers[t].rejected_queue_full &&
               a.tiers[t].shed_deadline == b.tiers[t].shed_deadline &&
               BitEqual(a.tiers[t].busy_ms, b.tiers[t].busy_ms);
    }
    if (same) return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << "counters differ: accepted " << a.accepted << "/"
           << b.accepted << " rejected " << a.rejected_queue_full << "/"
           << b.rejected_queue_full << " shed " << a.shed_deadline << "/"
           << b.shed_deadline;
}

/**
 * One configuration of the probe/admit sweep. Variant 0 sets no caps
 * and no defaults (only the calls' own deadlines); 1 adds a global
 * depth cap and a policy deadline; 2 adds per-tier depth caps and tier
 * deadlines, with the last tier falling back to the policy deadline.
 */
AdmissionPolicy
SweepPolicy(AdmissionDiscipline discipline, std::size_t tiers, int variant)
{
    const double weights[] = {4.0, 2.0, 1.0, 0.5};
    AdmissionPolicy policy;
    policy.discipline = discipline;
    policy.max_queue_depth = variant == 1 ? 12 : 0;
    policy.default_deadline_ms = variant == 0 ? 0.0 : 80.0;
    for (std::size_t t = 0; t < tiers; ++t) {
        TierPolicy tier;
        tier.weight = weights[t];
        if (variant == 2) {
            tier.max_queue_depth = 2 + t;
            tier.default_deadline_ms =
                t + 1 < tiers ? 20.0 * static_cast<double>(t + 1) : 0.0;
        }
        policy.tiers.push_back(tier);
    }
    return policy;
}

/** What the sweep reached, summed over its configurations. */
struct SweepTally {
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
    std::uint64_t clamped = 0;  //!< arrivals the monotone clamp moved
    /** Most queued requests one arrival retired at once. */
    std::size_t max_retired = 0;
};

/**
 * How one sweep call probes around its Admit. An Admit commits the
 * latest probe's state when its arguments match (serve/admission.h), so
 * every way a quote can go stale must still leave Admit exact.
 */
enum class ProbeCase {
    kTwoProbes,       //!< two matching probes, then the Admit
    kOtherArgs,       //!< a probe with other arguments, then the Admit
    kNoAdmit,         //!< a probe that no Admit follows
    kMatchThenOther,  //!< a matching probe, another one, then the Admit
    kAdmitTwice,      //!< a matching probe, the Admit, the same Admit
};

/** Arguments of one Admit or Probe call. */
struct AdmitArgs {
    double arrival = 0.0;
    double est = 0.0;
    double deadline = 0.0;
    std::size_t tier = 0;
};

/** @p args with one argument moved, so a probe at them is not the
 *  Admit's quote (an arrival move also drains a different state). */
AdmitArgs
OtherArgs(AdmitArgs args, std::size_t tiers, Rng& rng)
{
    switch (rng.UniformInt(0, 3)) {
      case 0: args.arrival += rng.Uniform(1.0, 20.0); break;
      case 1: args.est += rng.Uniform(0.5, 3.0); break;
      case 2: args.deadline = args.deadline > 0.0 ? 0.0 : 30.0; break;
      default:
        if (tiers > 1) {
            args.tier = (args.tier + 1) % tiers;
        } else {
            args.arrival += 5.0;
        }
    }
    return args;
}

/**
 * Drives @p calls seeded calls through a probed controller and a
 * probe-free reference, both under @p policy. Most calls probe twice
 * before each Admit; the rest take one of the stale-quote cases above
 * (drawn from their own stream, so the call sequence is unchanged).
 * Arrivals mostly come 0-8 ms apart against 1-10 ms of work, with idle
 * gaps that drain every queue and out-of-order arrivals the clamp must
 * move.
 */
void
SweepProbeAgainstAdmit(const AdmissionPolicy& policy, std::uint64_t seed,
                       int calls, SweepTally* tally)
{
    AdmissionController probed(policy);
    AdmissionController reference(policy);
    const auto tiers = static_cast<std::int64_t>(probed.tiers().size());
    Rng rng(seed);
    Rng cases(seed ^ 0x5DEECE66Dull);
    double clock = 0.0;
    std::size_t depth_after = 0;  // depth once the last call committed
    for (int i = 0; i < calls; ++i) {
        clock += rng.Bernoulli(0.02) ? rng.Uniform(150.0, 400.0)
                                     : rng.Uniform(0.0, 8.0);
        const double arrival =
            rng.Bernoulli(0.05)
                ? std::max(0.0, clock - rng.Uniform(0.0, 30.0))
                : clock;
        const double est =
            rng.Bernoulli(0.03) ? 0.0 : rng.Uniform(1.0, 10.0);
        const double deadline =
            rng.Bernoulli(0.3) ? rng.Uniform(5.0, 60.0) : 0.0;
        const auto tier =
            static_cast<std::size_t>(rng.UniformInt(0, tiers - 1));

        const double pick = cases.Uniform();
        const ProbeCase kind =
            pick < 0.6    ? ProbeCase::kTwoProbes
            : pick < 0.7  ? ProbeCase::kOtherArgs
            : pick < 0.8  ? ProbeCase::kNoAdmit
            : pick < 0.9  ? ProbeCase::kMatchThenOther
                          : ProbeCase::kAdmitTwice;
        const AdmitArgs other =
            OtherArgs({arrival, est, deadline, tier},
                      static_cast<std::size_t>(tiers), cases);
        const auto probe_other = [&] {
            probed.Probe(other.arrival, other.est, other.deadline,
                         other.tier);
        };
        const auto first = probed.Probe(arrival, est, deadline, tier);
        if (kind == ProbeCase::kOtherArgs ||
            kind == ProbeCase::kMatchThenOther) {
            probe_other();
        } else if (kind == ProbeCase::kTwoProbes) {
            const auto second = probed.Probe(arrival, est, deadline, tier);
            ASSERT_TRUE(SameVerdict(first, second))
                << "seed " << seed << " call " << i;
        } else if (kind == ProbeCase::kNoAdmit) {
            continue;  // neither controller admits this call
        }
        const auto admitted = probed.Admit(arrival, est, deadline, tier);
        const auto want = reference.Admit(arrival, est, deadline, tier);
        ASSERT_TRUE(SameVerdict(first, admitted))
            << "seed " << seed << " call " << i;
        ASSERT_TRUE(SameVerdict(admitted, want))
            << "seed " << seed << " call " << i;
        if (admitted.arrival_ms > arrival) ++tally->clamped;
        if (depth_after > admitted.queue_depth) {
            tally->max_retired = std::max(
                tally->max_retired, depth_after - admitted.queue_depth);
        }
        const auto depth_once = [](const AdmissionController::Verdict& v) {
            const bool accepted =
                v.outcome == AdmissionController::Outcome::kAccepted;
            return v.queue_depth + (accepted ? 1 : 0);
        };
        depth_after = depth_once(admitted);
        if (kind == ProbeCase::kAdmitTwice) {
            // The quote went stale with the first Admit.
            const auto again = probed.Admit(arrival, est, deadline, tier);
            ASSERT_TRUE(SameVerdict(
                again, reference.Admit(arrival, est, deadline, tier)))
                << "seed " << seed << " call " << i << " (second Admit)";
            depth_after = depth_once(again);
        }
    }
    const auto counters = reference.counters();
    ASSERT_TRUE(SameCounters(probed.counters(), counters))
        << "seed " << seed;
    tally->accepted += counters.accepted;
    tally->rejected += counters.rejected_queue_full;
    tally->shed += counters.shed_deadline;
}

TEST(AdmissionController, ProbeMatchesAdmitAcrossSeededSweep)
{
    // The router's routing decisions hang on Probe/Admit agreement.
    // Across both disciplines, 1-4 tiers and every cap/deadline level,
    // two probes before each Admit must return its verdict field for
    // field, and a probe-free reference controller fed the same Admits
    // must end with bit-equal verdicts and counters.
    SweepTally tally;
    std::uint64_t seed = 1;
    for (const AdmissionDiscipline discipline :
         {AdmissionDiscipline::kFifo, AdmissionDiscipline::kWeightedFair}) {
        for (std::size_t tiers = 1; tiers <= 4; ++tiers) {
            for (int variant = 0; variant < 3; ++variant) {
                SweepProbeAgainstAdmit(
                    SweepPolicy(discipline, tiers, variant), seed++,
                    /*calls=*/1500, &tally);
                if (HasFatalFailure()) return;
            }
        }
    }
    // The sweep reached every verdict, the clamp, and mass retirements.
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
    EXPECT_GT(tally.shed, 0u);
    EXPECT_GT(tally.clamped, 0u);
    EXPECT_GE(tally.max_retired, 10u);
}

/** What the Submit-verdict sweep exercised. */
struct PathTally {
    std::uint64_t solo = 0;
    std::uint64_t opens = 0;
    std::uint64_t joins = 0;
    std::uint64_t full_flushes = 0;  //!< a full batch closed by a joiner
    std::uint64_t expiries = 0;      //!< a window closed by time
    std::uint64_t session_frames = 0;
};

/**
 * Drives @p calls seeded requests through a batching, three-tier
 * RenderService and checks each Submit's verdict against a
 * RenderService::Quote taken just before it with the same scene id,
 * request and options, as a cluster router quotes. A test-side mirror
 * of the batch windows classifies every batching request (open, join,
 * or open after a full or expired batch) and checks it against the
 * Preview's rule and, once accepted, the batch the receipt names.
 */
void
SweepSubmitVerdicts(std::uint64_t seed, int calls, PathTally* tally)
{
    const std::vector<std::string> models = {"Instant-NGP", "KiloNeRF",
                                             "TensoRF"};
    std::vector<double> est;
    {
        RenderService probe;
        for (std::size_t i = 0; i < models.size(); ++i) {
            probe.RegisterScene(models[i], FlexScene(models[i]));
            est.push_back(EstimatedServiceMs(probe.WarmScene(models[i])));
        }
    }
    double mean_est = 0.0;
    for (const double e : est) mean_est += e / static_cast<double>(est.size());

    ServeConfig config;
    config.batch_window_ms = 2.0 * mean_est;
    config.max_batch_elements = 3;
    config.admission.max_queue_depth = 10;
    config.admission.tiers = DeterminismTiers();
    RenderService service(config);
    std::vector<SceneId> ids;
    for (const std::string& model : models) {
        ids.push_back(service.RegisterScene(model, FlexScene(model)));
        service.WarmScene(model);
    }
    // Two sessions: one per end of the scene list.
    const std::vector<std::size_t> session_scene = {0, 2};
    std::vector<SessionId> sessions;
    std::vector<Pose> poses(session_scene.size());
    for (const std::size_t scene : session_scene) {
        sessions.push_back(service.OpenSession(models[scene]));
    }

    struct Window {
        bool open = false;
        std::size_t members = 0;
        double close_ms = 0.0;
        std::uint32_t batch = 0;  //!< SubmitReceipt::batch
    };
    std::vector<Window> windows(models.size());
    Rng rng(seed);
    double clock = 0.0;
    for (int i = 0; i < calls; ++i) {
        if (rng.Bernoulli(0.03)) {
            clock += rng.Uniform(3.0, 12.0) * mean_est;  // idle: drain
        } else if (!rng.Bernoulli(0.4)) {
            clock += rng.Uniform(0.0, 0.8) * mean_est;
        }
        SceneRequest request;
        request.arrival_ms = clock;
        request.tier = static_cast<std::size_t>(rng.UniformInt(0, 2));
        request.deadline_ms =
            rng.Bernoulli(0.4) ? rng.Uniform(0.5, 8.0) * mean_est : 0.0;
        SubmitOptions options;
        options.extra_service_ms =
            rng.Bernoulli(0.2) ? rng.Uniform(0.0, 0.5) * mean_est : 0.0;
        const double kind = rng.Uniform();
        std::size_t scene = 0;
        bool join = false;
        if (kind < 0.25) {
            // A session frame: a short pan (a delta) or, now and then,
            // a teleport (a coherence break).
            const auto s = static_cast<std::size_t>(rng.UniformInt(0, 1));
            scene = session_scene[s];
            poses[s].x += rng.Bernoulli(0.1) ? 5.0
                                             : 0.05 * static_cast<double>(
                                                          rng.UniformInt(1, 3));
            options.session = sessions[s];
            options.pose = poses[s];
            ++tally->session_frames;
        } else {
            scene = static_cast<std::size_t>(rng.UniformInt(0, 2));
            options.batching = kind >= 0.45;
            if (!options.batching) {
                ++tally->solo;
            } else {
                const Window& window = windows[scene];
                const bool live = window.open && window.close_ms > clock;
                join = live && window.members < 3;
                if (join) {
                    ++tally->joins;
                } else {
                    ++tally->opens;
                    if (live) ++tally->full_flushes;
                    if (window.open && !live) ++tally->expiries;
                }
            }
        }
        request.scene = models[scene];

        const RequestPrice price = service.Preview(request, options);
        EXPECT_EQ(price.rule == PriceRule::kJoin, join)
            << "seed " << seed << " call " << i;
        const AdmissionController::Verdict probed =
            service.Quote(ids[scene], request, est[scene], options);
        const SubmitReceipt receipt = service.Submit(request, options);
        ASSERT_TRUE(SameVerdict(probed, receipt.verdict))
            << "seed " << seed << " call " << i;
        const bool accepted = receipt.verdict.outcome ==
                              AdmissionController::Outcome::kAccepted;
        if (accepted && options.session != 0) {
            EXPECT_EQ(receipt.session_frame.delta, price.session_frame.delta);
            EXPECT_EQ(receipt.session_frame.savings_ms,
                      price.session_frame.savings_ms);
        }

        if (options.session == 0 && options.batching) {
            // Mirror the batch windows: a joiner rides the window's
            // batch; a non-joiner always closes the scene's old batch,
            // and an accepted one opens the next.
            Window& window = windows[scene];
            if (accepted) {
                EXPECT_EQ(receipt.batch == window.batch, join)
                    << "seed " << seed << " call " << i;
            }
            if (!join) window.open = false;
            if (accepted && join) ++window.members;
            if (accepted && !join) {
                window = Window{true, 1, clock + config.batch_window_ms,
                                receipt.batch};
            }
        }
    }
    service.WaitAll();
    const ServiceStats stats = service.Snapshot();
    EXPECT_GT(stats.accepted, 0u);
    EXPECT_GT(stats.rejected_queue_full + stats.shed_deadline, 0u);
    EXPECT_GT(stats.delta_frames, 0u) << "seed " << seed;
    EXPECT_GT(stats.coherence_breaks, 0u) << "seed " << seed;
    // Each session's first accepted frame is a full recompute.
    EXPECT_GT(stats.session_full_frames, stats.coherence_breaks);
}

TEST(RenderService, SubmitVerdictMatchesProbeAtTheRoutingPrice)
{
    // The cluster books its KillShard replay state from the verdict
    // Submit returns; nothing else would catch it drifting from what a
    // router's probe at the same price promised.
    PathTally tally;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SweepSubmitVerdicts(seed, 400, &tally);
    }
    EXPECT_GT(tally.solo, 0u);
    EXPECT_GT(tally.opens, 0u);
    EXPECT_GT(tally.joins, 0u);
    EXPECT_GT(tally.full_flushes, 0u);
    EXPECT_GT(tally.expiries, 0u);
    EXPECT_GT(tally.session_frames, 0u);
}

TEST(LatencyHistogram, MergeMatchesConcatenationWithinBucketBound)
{
    // Merged-vs-concatenated: folding two histograms must equal
    // recording the concatenated samples into one (bucket counts add),
    // and both must sit within the documented ~2% of the exact sorted
    // quantiles of the concatenation.
    Rng rng(23);
    std::vector<double> left, right;
    for (int i = 0; i < 3000; ++i) {
        left.push_back(std::pow(10.0, rng.Uniform(0.0, 2.0)));
    }
    for (int i = 0; i < 1500; ++i) {
        right.push_back(std::pow(10.0, rng.Uniform(1.0, 3.0)));
    }
    LatencyHistogram a, b, concatenated;
    for (double s : left) {
        a.Record(s);
        concatenated.Record(s);
    }
    for (double s : right) {
        b.Record(s);
        concatenated.Record(s);
    }
    LatencyHistogram merged;
    merged.Merge(a);
    merged.Merge(b);

    std::vector<double> sorted = left;
    sorted.insert(sorted.end(), right.begin(), right.end());
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.01, 0.10, 0.50, 0.90, 0.99, 1.0}) {
        EXPECT_EQ(merged.Quantile(q), concatenated.Quantile(q)) << q;
        const auto rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(sorted.size()))));
        const double exact = sorted[rank - 1];
        EXPECT_NEAR(merged.Quantile(q), exact, 0.025 * exact) << q;
    }
    EXPECT_EQ(merged.count(), sorted.size());
    EXPECT_EQ(merged.Min(), sorted.front());
    EXPECT_EQ(merged.Max(), sorted.back());
    EXPECT_NEAR(merged.Mean(), concatenated.Mean(), 1e-12);
}

TEST(LatencyHistogram, MergeEdgeCasesEmptyAndSingleton)
{
    // Empty into empty: still empty.
    LatencyHistogram empty_a, empty_b;
    empty_a.Merge(empty_b);
    EXPECT_EQ(empty_a.count(), 0u);
    EXPECT_EQ(empty_a.Quantile(0.5), 0.0);

    // Empty into nonempty: unchanged (including exact min/max).
    LatencyHistogram single;
    single.Record(7.0);
    single.Merge(empty_b);
    EXPECT_EQ(single.count(), 1u);
    EXPECT_EQ(single.Min(), 7.0);
    EXPECT_EQ(single.Max(), 7.0);
    EXPECT_EQ(single.Quantile(0.5), 7.0);

    // Nonempty into empty: adopts the source exactly.
    LatencyHistogram adopted;
    adopted.Merge(single);
    EXPECT_EQ(adopted.count(), 1u);
    EXPECT_EQ(adopted.Min(), 7.0);
    EXPECT_EQ(adopted.Max(), 7.0);
    EXPECT_EQ(adopted.Quantile(0.01), 7.0);
    EXPECT_EQ(adopted.Quantile(1.0), 7.0);

    // Singleton into singleton: count 2, exact extremes.
    LatencyHistogram other;
    other.Record(3.0);
    other.Merge(single);
    EXPECT_EQ(other.count(), 2u);
    EXPECT_EQ(other.Min(), 3.0);
    EXPECT_EQ(other.Max(), 7.0);
    EXPECT_EQ(other.sum(), 10.0);
}

TEST(ShardedRenderService, SpillPaysRecompileOnceAndKeepsInvariants)
{
    // One scene, two shards, a queue deep enough that the deadline is
    // the binding constraint. With estimate E and deadline 2.5E, the
    // home accepts until its backlog reaches 2E; the next request
    // spills to the other shard, paying the recompile surcharge
    // (factor 1.0 -> E) exactly once — later spills find the pin.
    ClusterConfig config;
    config.shards = 2;
    config.spill_recompile_factor = 1.0;
    ShardedRenderService cluster(config);
    cluster.RegisterScene("ngp", FlexScene("Instant-NGP"));
    const double est = EstimatedServiceMs(cluster.WarmScene("ngp"));
    const std::size_t home = cluster.router().Home("ngp");
    const std::size_t other = 1 - home;

    std::vector<ClusterTicket> tickets;
    for (int i = 0; i < 6; ++i) {
        SceneRequest request;
        request.scene = "ngp";
        request.arrival_ms = 0.0;
        request.deadline_ms = 2.5 * est;
        tickets.push_back(cluster.Submit(request));
    }
    std::vector<ClusterRenderResult> results;
    results.reserve(tickets.size());
    for (const ClusterTicket ticket : tickets) {
        results.push_back(cluster.Wait(ticket));
    }

    // Home absorbs 0..1 (completion E, 2E); 2 would complete at 3E >
    // 2.5E, so it spills cold: surcharge E, completion E + E = 2E on
    // the idle shard. 3 spills warm (no surcharge, completion 3E >
    // 2.5E? no: backlog 2E + E = 3E > 2.5E -> the spill shard now also
    // sheds), so 3+ shed at home after failing every candidate.
    EXPECT_EQ(results[0].shard, home);
    EXPECT_FALSE(results[0].spilled);
    EXPECT_EQ(results[1].shard, home);
    EXPECT_EQ(results[2].shard, other);
    EXPECT_TRUE(results[2].spilled);
    EXPECT_EQ(results[2].spill_surcharge_ms, est);
    EXPECT_EQ(results[2].result.status, RequestStatus::kCompleted);
    // Virtual latency includes the surcharge: idle shard, so 2E.
    EXPECT_DOUBLE_EQ(results[2].result.latency_ms, 2.0 * est);
    // The next spill would find the pin (no surcharge), but the spill
    // shard's backlog is now 2E: completion 3E > 2.5E, so it sheds at
    // home instead.
    EXPECT_EQ(results[3].result.status, RequestStatus::kShedDeadline);
    EXPECT_FALSE(results[3].spilled);
    EXPECT_EQ(results[3].shard, home);

    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.spilled, 1u);
    EXPECT_EQ(stats.spill_recompiles, 1u);
    EXPECT_EQ(stats.shed_deadline, 3u);
    EXPECT_EQ(stats.per_shard[home].spill_out, 1u);
    EXPECT_EQ(stats.per_shard[other].spill_in, 1u);
    EXPECT_EQ(stats.per_shard[other].spill_recompiles, 1u);
    // The prepared-path invariant holds on both shards, spills and all.
    for (const ShardTelemetry& shard : stats.per_shard) {
        EXPECT_EQ(shard.service.cache.frame_hits, shard.service.accepted);
    }
    // Completed requests replay bit-identically wherever they ran.
    for (const ClusterRenderResult& r : results) {
        if (r.result.status == RequestStatus::kCompleted) {
            ExpectBitIdentical(r.result.cost, results[0].result.cost);
        }
    }
}

TEST(ShardedRenderService, WarmSpillPaysNoSurcharge)
{
    // Once a spill pinned the scene on a shard, later spills there are
    // surcharge-free. Same setup, but requests arrive spaced so the
    // spill shard drains between bursts.
    ClusterConfig config;
    config.shards = 2;
    config.spill_recompile_factor = 1.0;
    ShardedRenderService cluster(config);
    cluster.RegisterScene("ngp", FlexScene("Instant-NGP"));
    const double est = EstimatedServiceMs(cluster.WarmScene("ngp"));

    const auto burst = [&cluster, est](double arrival) {
        std::vector<ClusterRenderResult> results;
        for (int i = 0; i < 3; ++i) {
            SceneRequest request;
            request.scene = "ngp";
            request.arrival_ms = arrival;
            request.deadline_ms = 2.5 * est;
            results.push_back(cluster.Wait(cluster.Submit(request)));
        }
        return results;
    };
    const auto first = burst(0.0);
    EXPECT_TRUE(first[2].spilled);
    EXPECT_EQ(first[2].spill_surcharge_ms, est);
    // Far later (everything drained): the same pattern spills again,
    // but the pin is warm now — no recompile surcharge.
    const auto second = burst(100.0 * est);
    EXPECT_TRUE(second[2].spilled);
    EXPECT_EQ(second[2].spill_surcharge_ms, 0.0);
    // (100E + E) - 100E reassociates: exact up to rounding only.
    EXPECT_NEAR(second[2].result.latency_ms, est, 1e-9 * est);

    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.spilled, 2u);
    EXPECT_EQ(stats.spill_recompiles, 1u);
}

/** Fixed mixed-scene request schedule used by the determinism tests. */
std::vector<SceneRequest>
FixedSchedule(const std::vector<std::string>& scenes,
              const std::vector<double>& est_ms, double mean_est_ms,
              std::size_t requests)
{
    Rng rng(99);
    std::vector<SceneRequest> schedule;
    double arrival = 0.0;
    const double mean_interarrival = mean_est_ms / 2.5;  // overloaded
    for (std::size_t i = 0; i < requests; ++i) {
        arrival += -mean_interarrival *
                   std::log(1.0 - rng.Uniform(0.0, 1.0));
        const auto scene = static_cast<std::size_t>(rng.UniformInt(
            0, static_cast<std::int64_t>(scenes.size()) - 1));
        SceneRequest request;
        request.scene = scenes[scene];
        request.arrival_ms = arrival;
        request.tier = static_cast<std::size_t>(rng.UniformInt(0, 2));
        request.priority = static_cast<int>(rng.UniformInt(0, 2));
        request.deadline_ms = 1.5 * est_ms[scene] +
                              mean_est_ms * rng.Uniform(0.0, 4.0);
        schedule.push_back(std::move(request));
    }
    return schedule;
}

struct ClusterRun {
    std::vector<ClusterRenderResult> results;
    ClusterStats stats;
};

ClusterRun
RunCluster(std::size_t shards, const std::vector<std::string>& scenes,
           const std::vector<SceneRequest>& schedule)
{
    ClusterConfig config;
    config.shards = shards;
    config.plan_cache_capacity = 4;  // bounded: pins must survive LRU
    config.admission.max_queue_depth = 8;
    config.admission.tiers = DeterminismTiers();
    ShardedRenderService cluster(config);
    for (const std::string& scene : scenes) {
        cluster.RegisterScene(scene, FlexScene(scene));
    }
    for (const std::string& scene : scenes) cluster.WarmScene(scene);
    std::vector<ClusterTicket> tickets;
    tickets.reserve(schedule.size());
    for (const SceneRequest& request : schedule) {
        tickets.push_back(cluster.Submit(request));
    }
    ClusterRun run;
    run.results = cluster.WaitAll();
    run.stats = cluster.Snapshot();
    return run;
}

TEST(ShardedRenderService, DeterministicAcrossRerunsAndInvariant)
{
    // The acceptance-criteria test: for a fixed tiered submission
    // sequence under the three-queue WFQ policy, every verdict, routed
    // shard, spill decision, surcharge, latency, per-shard counter,
    // per-tier counter, and merged percentile is bit-identical across
    // two fresh clusters, at every shard count; and per-shard frame hits
    // == accepted (spill recompiles are explicit plan misses, never
    // phantom hits) at 1, 2, 4, and 8 shards.
    const std::vector<std::string> scenes = {
        "Instant-NGP", "KiloNeRF", "TensoRF", "NeRF", "NSVF"};
    std::vector<double> est_ms;
    double mean_est = 0.0;
    {
        // One throwaway cluster just to learn the estimates.
        ClusterConfig config;
        config.shards = 1;
        ShardedRenderService probe(config);
        for (const std::string& scene : scenes) {
            probe.RegisterScene(scene, FlexScene(scene));
            est_ms.push_back(EstimatedServiceMs(probe.WarmScene(scene)));
            mean_est += est_ms.back();
        }
        mean_est /= static_cast<double>(scenes.size());
    }
    const std::vector<SceneRequest> schedule =
        FixedSchedule(scenes, est_ms, mean_est, 160);

    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
        const ClusterRun serial = RunCluster(shards, scenes, schedule);
        const ClusterRun parallel = RunCluster(shards, scenes, schedule);

        ASSERT_EQ(serial.results.size(), schedule.size());
        ASSERT_EQ(parallel.results.size(), schedule.size());
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const ClusterRenderResult& a = serial.results[i];
            const ClusterRenderResult& b = parallel.results[i];
            EXPECT_EQ(a.result.status, b.result.status) << i;
            EXPECT_EQ(a.shard, b.shard) << i;
            EXPECT_EQ(a.home_shard, b.home_shard) << i;
            EXPECT_EQ(a.spilled, b.spilled) << i;
            EXPECT_EQ(a.spill_surcharge_ms, b.spill_surcharge_ms) << i;
            EXPECT_EQ(a.result.tier, b.result.tier) << i;
            EXPECT_EQ(a.result.latency_ms, b.result.latency_ms) << i;
            EXPECT_EQ(a.result.queue_wait_ms, b.result.queue_wait_ms)
                << i;
        }
        const ClusterStats& sa = serial.stats;
        const ClusterStats& sb = parallel.stats;
        EXPECT_EQ(sa.accepted, sb.accepted);
        EXPECT_EQ(sa.rejected_queue_full, sb.rejected_queue_full);
        EXPECT_EQ(sa.shed_deadline, sb.shed_deadline);
        EXPECT_EQ(sa.spilled, sb.spilled);
        EXPECT_EQ(sa.spill_recompiles, sb.spill_recompiles);
        EXPECT_EQ(sa.p50_ms, sb.p50_ms);
        EXPECT_EQ(sa.p90_ms, sb.p90_ms);
        EXPECT_EQ(sa.p99_ms, sb.p99_ms);
        EXPECT_EQ(sa.mean_ms, sb.mean_ms);
        EXPECT_EQ(sa.max_ms, sb.max_ms);
        EXPECT_EQ(sa.sustained_qps, sb.sustained_qps);
        EXPECT_EQ(sa.utilization, sb.utilization);

        // Per-tier telemetry — counters and merged latency digests —
        // is part of the determinism contract too.
        ASSERT_EQ(sa.tiers.size(), 3u);
        ASSERT_EQ(sb.tiers.size(), 3u);
        for (std::size_t t = 0; t < sa.tiers.size(); ++t) {
            EXPECT_EQ(sa.tiers[t].submitted, sb.tiers[t].submitted) << t;
            EXPECT_EQ(sa.tiers[t].accepted, sb.tiers[t].accepted) << t;
            EXPECT_EQ(sa.tiers[t].shed_deadline,
                      sb.tiers[t].shed_deadline)
                << t;
            EXPECT_EQ(sa.tiers[t].rejected_queue_full,
                      sb.tiers[t].rejected_queue_full)
                << t;
            EXPECT_EQ(sa.tiers[t].busy_ms, sb.tiers[t].busy_ms) << t;
            EXPECT_EQ(sa.tiers[t].latency.p50_ms,
                      sb.tiers[t].latency.p50_ms)
                << t;
            EXPECT_EQ(sa.tiers[t].latency.p99_ms,
                      sb.tiers[t].latency.p99_ms)
                << t;
        }

        // The sequence must actually exercise the machinery to prove
        // anything: overload sheds at every count; spills need a 2nd
        // shard.
        EXPECT_GT(sa.shed_deadline + sa.rejected_queue_full, 0u);
        if (shards > 1) {
            EXPECT_GT(sa.spilled, 0u);
        }

        EXPECT_EQ(sa.completed, sa.accepted);
        ASSERT_EQ(sa.per_shard.size(), shards);
        for (std::size_t i = 0; i < shards; ++i) {
            EXPECT_EQ(sa.per_shard[i].service.cache.frame_hits,
                      sa.per_shard[i].service.accepted)
                << "shard " << i << " of " << shards;
            EXPECT_EQ(sa.per_shard[i].homed, sb.per_shard[i].homed);
            EXPECT_EQ(sa.per_shard[i].spill_in, sb.per_shard[i].spill_in);
            EXPECT_EQ(sa.per_shard[i].spill_out,
                      sb.per_shard[i].spill_out);
        }
    }
}

TEST(ShardedRenderService, ResizeDrainsRebalancesAndKeepsTelemetry)
{
    const std::vector<std::string> scenes = {"Instant-NGP", "KiloNeRF",
                                             "TensoRF", "NeRF"};
    ClusterConfig config;
    config.shards = 3;
    ShardedRenderService cluster(config);
    for (const std::string& scene : scenes) {
        cluster.RegisterScene(scene, FlexScene(scene));
        cluster.WarmScene(scene);
    }

    // Outstanding tickets at resize time must survive the drain.
    std::vector<ClusterTicket> tickets;
    for (int i = 0; i < 8; ++i) {
        SceneRequest request;
        request.scene = scenes[static_cast<std::size_t>(i) %
                               scenes.size()];
        request.arrival_ms = static_cast<double>(i);
        tickets.push_back(cluster.Submit(request));
    }
    const ClusterStats before = cluster.Snapshot();
    EXPECT_EQ(before.submitted, 8u);

    // The moved count is exactly what the routers predict, and HRW
    // keeps every survivor-homed scene in place on both directions.
    const std::size_t moved = cluster.Resize(5);
    const ShardRouter old_router(3);
    const ShardRouter new_router(5);
    std::size_t expected_moved = 0;
    for (const std::string& scene : scenes) {
        if (old_router.Home(scene) != new_router.Home(scene)) {
            ++expected_moved;
            EXPECT_GE(new_router.Home(scene), 3u);  // to an added shard
        }
    }
    EXPECT_EQ(moved, expected_moved);
    EXPECT_EQ(cluster.shards(), 5u);

    // Tickets issued before the resize still resolve.
    for (const ClusterTicket ticket : tickets) {
        const ClusterRenderResult result = cluster.Wait(ticket);
        EXPECT_EQ(result.result.status, RequestStatus::kCompleted);
    }

    // Lifetime telemetry survived the replica swap...
    const ClusterStats after = cluster.Snapshot();
    EXPECT_EQ(after.submitted, 8u);
    EXPECT_EQ(after.accepted, before.accepted);
    EXPECT_EQ(after.completed, after.accepted);
    EXPECT_EQ(after.p50_ms, before.p50_ms);
    EXPECT_EQ(after.p99_ms, before.p99_ms);

    // ...and the rebalanced cluster serves on the new homes with the
    // invariant intact.
    std::vector<ClusterTicket> more;
    for (int i = 0; i < 6; ++i) {
        SceneRequest request;
        request.scene = scenes[static_cast<std::size_t>(i) %
                               scenes.size()];
        request.arrival_ms = 1000.0 + static_cast<double>(i);
        more.push_back(cluster.Submit(request));
    }
    for (const ClusterTicket ticket : more) {
        const ClusterRenderResult result = cluster.Wait(ticket);
        EXPECT_EQ(result.result.status, RequestStatus::kCompleted);
        EXPECT_EQ(result.shard,
                  new_router.Home(std::string(result.result.scene)));
    }
    const ClusterStats final_stats = cluster.Snapshot();
    EXPECT_EQ(final_stats.submitted, 14u);
    EXPECT_EQ(final_stats.completed, final_stats.accepted);
    for (const ShardTelemetry& shard : final_stats.per_shard) {
        EXPECT_EQ(shard.service.cache.frame_hits, shard.service.accepted);
    }

    // Utilization stays a fraction across a shrink: the 5-shard epoch's
    // busy time is weighed against 5-shard capacity even after the
    // cluster drops to one replica (each epoch contributes its own
    // shard count x span to the denominator).
    cluster.Resize(1);
    const ClusterStats shrunk = cluster.Snapshot();
    EXPECT_GT(shrunk.utilization, 0.0);
    EXPECT_LE(shrunk.utilization, 1.0);
    EXPECT_EQ(shrunk.accepted, final_stats.accepted);
}

TEST(ShardedRenderService, TierTelemetryMergesAcrossShardsAndResize)
{
    const std::vector<std::string> scenes = {"Instant-NGP", "KiloNeRF",
                                             "TensoRF", "NeRF"};
    ClusterConfig config;
    config.shards = 2;
    config.admission.max_queue_depth = 0;
    config.admission.tiers = DeterminismTiers();
    ShardedRenderService cluster(config);
    for (const std::string& scene : scenes) {
        cluster.RegisterScene(scene, FlexScene(scene));
        cluster.WarmScene(scene);
    }

    // Twelve requests round-robining scenes and tiers; no deadlines and
    // no depth caps, so every one is accepted somewhere.
    for (int i = 0; i < 12; ++i) {
        SceneRequest request;
        request.scene = scenes[static_cast<std::size_t>(i) %
                               scenes.size()];
        request.arrival_ms = static_cast<double>(i);
        request.tier = static_cast<std::size_t>(i) % 3;
        cluster.Submit(request);
    }
    cluster.WaitAll();

    const ClusterStats before = cluster.Snapshot();
    ASSERT_EQ(before.tiers.size(), 3u);
    for (std::size_t t = 0; t < 3; ++t) {
        // Cluster tier rows are the sums of the live shard rows (no
        // retired epoch yet) — and the merged latency digest spans the
        // shards, so its max is the max over the shard maxima.
        std::uint64_t submitted = 0, accepted = 0;
        double max_ms = 0.0;
        for (const ShardTelemetry& shard : before.per_shard) {
            submitted += shard.service.tiers[t].submitted;
            accepted += shard.service.tiers[t].accepted;
            max_ms = std::max(max_ms,
                              shard.service.tiers[t].latency.max_ms);
        }
        EXPECT_EQ(before.tiers[t].submitted, submitted) << t;
        EXPECT_EQ(before.tiers[t].accepted, accepted) << t;
        EXPECT_EQ(before.tiers[t].submitted, 4u) << t;
        EXPECT_EQ(before.tiers[t].accepted, 4u) << t;
        EXPECT_EQ(before.tiers[t].latency.max_ms, max_ms) << t;
        EXPECT_EQ(before.tiers[t].name,
                  config.admission.tiers[t].name);
    }

    // A resize retires the old replicas; their per-tier counters and
    // histograms fold into the lifetime telemetry, bit-preserved.
    cluster.Resize(3);
    const ClusterStats after = cluster.Snapshot();
    ASSERT_EQ(after.tiers.size(), 3u);
    for (std::size_t t = 0; t < 3; ++t) {
        EXPECT_EQ(after.tiers[t].submitted, before.tiers[t].submitted);
        EXPECT_EQ(after.tiers[t].accepted, before.tiers[t].accepted);
        EXPECT_EQ(after.tiers[t].busy_ms, before.tiers[t].busy_ms);
        EXPECT_EQ(after.tiers[t].latency.p50_ms,
                  before.tiers[t].latency.p50_ms);
        EXPECT_EQ(after.tiers[t].latency.max_ms,
                  before.tiers[t].latency.max_ms);
    }

    // And the merged view keeps accruing on the new replicas.
    SceneRequest request;
    request.scene = scenes[0];
    request.arrival_ms = 1000.0;
    request.tier = 2;
    cluster.Wait(cluster.Submit(request));
    const ClusterStats final_stats = cluster.Snapshot();
    EXPECT_EQ(final_stats.tiers[2].submitted,
              before.tiers[2].submitted + 1);
    EXPECT_EQ(final_stats.tiers[2].accepted,
              before.tiers[2].accepted + 1);
}

TEST(ShardedRenderService, FleetLedgerIsExactAcrossKillAndResize)
{
    // Two shards with batching and one trajectory session. Killing the
    // session's home and then resizing re-home it twice, so its frames
    // spread over three replica ledgers: 11 frames on the killed shard
    // (a full opener, then ten deltas at quantum 40), and two frames on
    // each later home. Every reuse is a multiple of 1/64, so the sums
    // below are exact in any order; the fleet ratios must equal their
    // Σ/Σ bit for bit. Rebuilding a replica's reuse sum as mean x count
    // fails here: 6.25 / 11 x 11 is 6.250000000000001, which moves the
    // fleet mean off 0.5.
    ClusterConfig config;
    config.shards = 2;
    config.enable_spill = false;
    // Bursts share one arrival instant, so any positive window fuses
    // each burst and none of the next.
    config.batch_window_ms = 1e-3;
    ShardedRenderService cluster(config);
    cluster.RegisterScene("ngp", FlexScene("Instant-NGP"));
    cluster.RegisterScene("bulk", FlexScene("KiloNeRF"));
    const double est = EstimatedServiceMs(cluster.WarmScene("ngp"));
    cluster.WarmScene("bulk");

    const CoherenceModel model;
    const SessionId session = cluster.OpenSession("ngp", model);
    std::vector<SceneRequest> submitted;  //!< in ticket order
    std::vector<Pose> poses;              //!< per ticket (session only)
    std::vector<char> is_session;
    const auto frame = [&](double x, double arrival_ms) {
        SceneRequest request;
        request.scene = "ngp";
        request.arrival_ms = arrival_ms;
        SubmitOptions options;
        options.session = session;
        options.pose.x = x;
        cluster.Submit(request, options);
        submitted.push_back(request);
        poses.push_back(options.pose);
        is_session.push_back(1);
    };
    const auto burst = [&](int count, double arrival_ms) {
        for (int i = 0; i < count; ++i) {
            SceneRequest request;
            request.scene = "bulk";
            request.arrival_ms = arrival_ms;
            cluster.Submit(request);
            submitted.push_back(request);
            poses.emplace_back();
            is_session.push_back(0);
        }
    };
    std::vector<ClusterRenderResult> results;
    /** Drains a phase; returns the instant after its last completion. */
    const auto drain = [&] {
        double done_ms = 0.0;
        for (ClusterRenderResult& r : cluster.WaitAll()) {
            const SceneRequest& request = submitted[results.size()];
            done_ms = std::max(done_ms,
                               request.arrival_ms + r.result.latency_ms);
            results.push_back(std::move(r));
        }
        return done_ms + 1.0;
    };

    // The pan step 0.37 keeps 63% of the view: quantum floor(40.32).
    const double step = 0.37;
    ASSERT_EQ(model.ReuseQuantum(Pose{}, Pose{step}), 40u);
    double x = 0.0;
    for (int k = 0; k < 11; ++k) {
        frame(x, est * k);
        if (k == 2) burst(3, est * k);
        if (k == 5) burst(1, est * k);
        if (k == 8) burst(4, est * k);
        x += step;
    }
    double now_ms = drain();
    const std::size_t home = results.front().shard;
    cluster.KillShard(home, now_ms);
    for (int k = 0; k < 2; ++k, x += step) frame(x, now_ms + est * k);
    burst(2, now_ms);
    now_ms = drain();
    cluster.Resize(2);
    burst(3, now_ms);
    for (int k = 0; k < 2; ++k, x += step) frame(x, now_ms + est * k);
    drain();
    ASSERT_EQ(results.size(), submitted.size());

    // Σ and counts from the submitted poses and the batches that served
    // them. Each re-home reopens the session: its next frame is a full
    // recompute, so a phase starts without a predecessor.
    std::uint64_t delta = 0, full = 0, batched = 0, batches = 0;
    double reuse_sum = 0.0;
    std::size_t batch_left = 0;
    const std::set<std::size_t> phase_starts = {0, 15, 20};
    bool has_last = false;
    Pose last;
    for (std::size_t i = 0; i < results.size(); ++i) {
        ASSERT_EQ(results[i].result.status, RequestStatus::kCompleted) << i;
        if (phase_starts.count(i) != 0) has_last = false;
        if (!is_session[i]) {
            // A batch's members are consecutive bulk tickets: its
            // first member counts the batch.
            if (batch_left == 0) {
                ++batches;
                batch_left = results[i].result.batch_elements;
            }
            --batch_left;
            ++batched;
            continue;
        }
        const std::size_t quantum =
            has_last ? model.ReuseQuantum(last, poses[i]) : 0;
        if (has_last && !model.IsCoherenceBreak(quantum) && quantum > 0) {
            ++delta;
            reuse_sum += static_cast<double>(quantum) /
                         static_cast<double>(model.reuse_quanta);
        } else {
            ++full;
        }
        has_last = true;
        last = poses[i];
    }
    ASSERT_EQ(delta, 12u);
    ASSERT_EQ(full, 3u);
    ASSERT_EQ(reuse_sum, 7.5);

    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.killed_shards, 1u);
    EXPECT_EQ(stats.session_frames, delta + full);
    EXPECT_EQ(stats.delta_frames, delta);
    EXPECT_EQ(stats.session_full_frames, full);
    EXPECT_EQ(stats.delta_hit_rate, static_cast<double>(delta) /
                                        static_cast<double>(delta + full));
    EXPECT_EQ(stats.session_mean_reuse,
              reuse_sum / static_cast<double>(delta + full));
    EXPECT_EQ(stats.session_mean_reuse, 0.5);
    EXPECT_EQ(stats.batches_dispatched, batches);
    EXPECT_EQ(stats.fused_batches, 4u);
    EXPECT_EQ(stats.batch_occupancy, static_cast<double>(batched) /
                                         static_cast<double>(batches));
    // Cluster OpenSession calls, not the replicas' three opens (the
    // original and one per re-home).
    EXPECT_EQ(stats.sessions_opened, 1u);
    EXPECT_EQ(stats.session_rehomes, 2u);
}

/** A 2-shard cluster whose batch window fuses arrivals at one instant
 *  and whose router never spills. */
ClusterConfig
KillDrillConfig()
{
    ClusterConfig config;
    config.shards = 2;
    config.enable_spill = false;
    config.batch_window_ms = 1e-3;
    return config;
}

TEST(ShardedRenderService, KillShardTakesBackReplayedSessionFrames)
{
    // Six session frames are in flight when their home dies at
    // 0.01 x est: all six replay on the new home, where the re-homed
    // session restarts with a full frame and five deltas. The dead
    // replica booked the same six frames; the fleet ledger must count
    // only the frames that rendered, so the ratios average over them.
    ShardedRenderService cluster(KillDrillConfig());
    cluster.RegisterScene("ngp", FlexScene("Instant-NGP"));
    const double est = EstimatedServiceMs(cluster.WarmScene("ngp"));
    const CoherenceModel model;
    const SessionId session = cluster.OpenSession("ngp", model);
    const double step = 0.37;  // quantum 40 of 64 per pan
    ASSERT_EQ(model.ReuseQuantum(Pose{}, Pose{step}), 40u);
    for (int k = 0; k < 6; ++k) {
        SceneRequest request;
        request.scene = "ngp";
        SubmitOptions options;
        options.session = session;
        options.pose.x = step * k;
        cluster.Submit(request, options);
    }
    EXPECT_EQ(cluster.KillShard(cluster.router().Home("ngp"), 0.01 * est),
              6u);
    for (const ClusterRenderResult& r : cluster.WaitAll()) {
        EXPECT_EQ(r.result.status, RequestStatus::kCompleted);
        EXPECT_TRUE(r.replayed);
    }

    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.accepted, 6u);
    EXPECT_EQ(stats.session_frames, 6u);
    EXPECT_EQ(stats.delta_frames, 5u);
    EXPECT_EQ(stats.session_full_frames, 1u);
    EXPECT_EQ(stats.delta_hit_rate, 5.0 / 6.0);
    EXPECT_EQ(stats.session_mean_reuse, 5 * (40.0 / 64.0) / 6.0);
}

TEST(ShardedRenderService, KillShardTakesBackReplayedBatches)
{
    // A fused batch of three is in flight when its shard dies: the
    // members replay on the new home, where they fuse again. The dead
    // replica's batch served nobody, so the fleet counts one batch.
    ShardedRenderService cluster(KillDrillConfig());
    cluster.RegisterScene("ngp", FlexScene("Instant-NGP"));
    const double est = EstimatedServiceMs(cluster.WarmScene("ngp"));
    for (int k = 0; k < 3; ++k) {
        SceneRequest request;
        request.scene = "ngp";
        cluster.Submit(request);
    }
    EXPECT_EQ(cluster.KillShard(cluster.router().Home("ngp"), 0.01 * est),
              3u);
    for (const ClusterRenderResult& r : cluster.WaitAll()) {
        EXPECT_EQ(r.result.status, RequestStatus::kCompleted);
        EXPECT_EQ(r.result.batch_elements, 3u);
    }

    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.batches_dispatched, 1u);
    EXPECT_EQ(stats.fused_batches, 1u);
    EXPECT_EQ(stats.batched_requests, 3u);
    EXPECT_EQ(stats.batch_occupancy, 3.0);
}

TEST(ShardedRenderService, SingleShardMatchesPlainRenderService)
{
    // A 1-shard cluster is a RenderService with routing overhead only:
    // identical verdicts, latencies, and telemetry for the same
    // sequence.
    ServeConfig serve_config;
    serve_config.admission.max_queue_depth = 4;
    RenderService plain(serve_config);
    ClusterConfig cluster_config;
    cluster_config.shards = 1;
    cluster_config.admission.max_queue_depth = 4;
    ShardedRenderService cluster(cluster_config);

    plain.RegisterScene("ngp", FlexScene("Instant-NGP"));
    cluster.RegisterScene("ngp", FlexScene("Instant-NGP"));
    const double est = plain.WarmScene("ngp").latency_ms;
    EXPECT_EQ(cluster.WarmScene("ngp").latency_ms, est);

    std::vector<ServeTicket> plain_tickets;
    std::vector<ClusterTicket> cluster_tickets;
    for (int i = 0; i < 8; ++i) {
        SceneRequest request;
        request.scene = "ngp";
        request.arrival_ms = 0.0;
        request.deadline_ms = (i % 2 == 0) ? 0.0 : 3.5 * est;
        plain_tickets.push_back(plain.Submit(request).ticket);
        cluster_tickets.push_back(cluster.Submit(request));
    }
    for (std::size_t i = 0; i < plain_tickets.size(); ++i) {
        const RenderResult a = plain.Wait(plain_tickets[i]);
        const ClusterRenderResult b = cluster.Wait(cluster_tickets[i]);
        EXPECT_EQ(a.status, b.result.status) << i;
        EXPECT_EQ(a.latency_ms, b.result.latency_ms) << i;
        EXPECT_EQ(a.queue_wait_ms, b.result.queue_wait_ms) << i;
        EXPECT_FALSE(b.spilled);
    }
    const ServiceStats plain_stats = plain.Snapshot();
    const ClusterStats cluster_stats = cluster.Snapshot();
    EXPECT_EQ(cluster_stats.accepted, plain_stats.accepted);
    EXPECT_EQ(cluster_stats.p50_ms, plain_stats.p50_ms);
    EXPECT_EQ(cluster_stats.p99_ms, plain_stats.p99_ms);
    EXPECT_EQ(cluster_stats.sustained_qps, plain_stats.sustained_qps);
}

TEST(ShardedRenderService, MarginalAwareProbeKeepsBatchJoinersHome)
{
    // The probe/pricing seam: with fusion on, a joiner is *admitted* at
    // the batch-join marginal, so the router's probe must price it the
    // same way — otherwise a deadline between the marginal and the solo
    // estimate makes the probe refuse the home shard and spill (or
    // shed) a request the home would have accepted. Schedule: A opens a
    // batch at t = 0; B arrives inside the window with a deadline below
    // the solo price (backlogged home: ~2E; cold spill: ~2E as well)
    // but above the fused batch's completion.
    // The window is a fraction of the scene's estimate, resolved after
    // warming (the estimate is a pure scene property).
    const double est_probe = [] {
        ClusterConfig config;
        config.shards = 2;
        ShardedRenderService probe(config);
        probe.RegisterScene("ngp", FlexScene("Instant-NGP"));
        return EstimatedServiceMs(probe.WarmScene("ngp"));
    }();

    const auto run = [est_probe](double window_fraction) {
        ClusterConfig config;
        config.shards = 2;
        config.spill_recompile_factor = 1.0;
        config.batch_window_ms = window_fraction * est_probe;
        ShardedRenderService cluster(config);
        cluster.RegisterScene("ngp", FlexScene("Instant-NGP"));
        const double est = EstimatedServiceMs(cluster.WarmScene("ngp"));
        const double batch_window_ms = config.batch_window_ms;

        SceneRequest opener;
        opener.scene = "ngp";
        opener.arrival_ms = 0.0;
        const ClusterTicket a = cluster.Submit(opener);

        SceneRequest joiner;
        joiner.scene = "ngp";
        joiner.arrival_ms = 0.1 * est;
        joiner.deadline_ms = 1.6 * est;

        // With the window on, preview the exact price Submit would
        // admit B at: the preview must see the open batch and price the
        // marginal, strictly below the solo estimate.
        const std::size_t home = cluster.router().Home("ngp");
        const RequestPrice price = cluster.shard(home).Preview(joiner);
        if (batch_window_ms > 0.0) {
            EXPECT_EQ(price.rule, PriceRule::kJoin);
            EXPECT_LT(price.price_ms, est);
            EXPECT_GT(price.price_ms, 0.0);
        } else {
            EXPECT_EQ(price.rule, PriceRule::kFrame);
            EXPECT_EQ(price.price_ms, est);
        }
        const ClusterTicket b = cluster.Submit(joiner);

        struct Outcome {
            ClusterRenderResult a;
            ClusterRenderResult b;
            ClusterStats stats;
        } outcome;
        outcome.a = cluster.Wait(a);
        outcome.b = cluster.Wait(b);
        outcome.stats = cluster.Snapshot();
        return outcome;
    };

    // Fusion on (window 0.25E): the probe prices the join at the
    // marginal, B stays home, and probe-accept implied submit-accept.
    {
        const auto fused = run(0.25);
        EXPECT_EQ(fused.b.result.status, RequestStatus::kCompleted);
        EXPECT_EQ(fused.b.shard, fused.b.home_shard);
        EXPECT_FALSE(fused.b.spilled);
        EXPECT_EQ(fused.b.result.batch_elements, 2u);
        EXPECT_GE(fused.stats.fused_batches, 1u);
        EXPECT_EQ(fused.stats.spilled, 0u);
        EXPECT_EQ(fused.stats.shed_deadline, 0u);
    }

    // Fusion off: the same schedule prices B solo everywhere — the
    // home is backlogged past the deadline and the cold spill pays the
    // surcharge past it too, so B sheds. This is exactly the request
    // the marginal-aware probe saves.
    {
        const auto solo = run(0.0);
        EXPECT_EQ(solo.b.result.status, RequestStatus::kShedDeadline);
        EXPECT_FALSE(solo.b.spilled);
        EXPECT_EQ(solo.stats.fused_batches, 0u);
    }
}

/**
 * Registers one scene per model ("rep-0", "rep-1", ...) on @p cluster,
 * in model order; returns their names.
 */
std::vector<std::string>
RegisterRepertoire(ShardedRenderService& cluster)
{
    std::vector<std::string> names;
    for (const std::string& model : AllModelNames()) {
        names.push_back("rep-" + std::to_string(names.size()));
        cluster.RegisterScene(names.back(), FlexScene(model));
    }
    return names;
}

/** @p scene's id on live shard @p shard (kNoScene if not there): its
 *  row index in the replica's snapshot. */
SceneId
IdOn(ShardedRenderService& cluster, std::size_t shard,
     const std::string& scene)
{
    const std::vector<SceneStats> rows = cluster.shard(shard).Snapshot().scenes;
    for (std::size_t id = 0; id < rows.size(); ++id) {
        if (rows[id].name == scene) return static_cast<SceneId>(id);
    }
    return kNoScene;
}

/** Every result names @p scene; every completed one carries its warm
 *  frame cost, bit for bit. */
void
ExpectSceneAndWarmCost(const std::vector<ClusterRenderResult>& results,
                       const std::string& scene, const FrameCost& warm)
{
    for (const ClusterRenderResult& r : results) {
        EXPECT_EQ(r.result.scene, scene);
        if (r.result.status == RequestStatus::kCompleted) {
            ExpectBitIdentical(r.result.cost, warm);
        }
    }
}

/** Submits @p count requests for @p scene at virtual @p arrival_ms. */
std::vector<ClusterTicket>
SubmitBurst(ShardedRenderService& cluster, const std::string& scene,
            int count, double arrival_ms, double deadline_ms = 0.0)
{
    std::vector<ClusterTicket> tickets;
    for (int i = 0; i < count; ++i) {
        SceneRequest request;
        request.scene = scene;
        request.arrival_ms = arrival_ms;
        request.deadline_ms = deadline_ms;
        tickets.push_back(cluster.Submit(request));
    }
    return tickets;
}

TEST(ShardedRenderService, SpillShardServesTheSceneUnderItsOwnId)
{
    // rep-0 registers first, so it is id 0 on its home; the spill shard
    // registers it lazily, after the scenes homed there.
    ClusterConfig config;
    config.shards = 2;
    ShardedRenderService cluster(config);
    const std::vector<std::string> names = RegisterRepertoire(cluster);
    const std::string& scene = names[0];
    const std::size_t home = cluster.router().Home(scene);
    const std::size_t other = 1 - home;
    const FrameCost warm = cluster.WarmScene(scene);
    const double est = EstimatedServiceMs(warm);
    EXPECT_EQ(IdOn(cluster, home, scene), 0u);
    ASSERT_EQ(IdOn(cluster, other, scene), kNoScene);
    const std::size_t homed_there =
        cluster.shard(other).Snapshot().scenes.size();
    ASSERT_GT(homed_there, 0u);

    // As in SpillPaysRecompileOnceAndKeepsInvariants: the third request
    // spills cold, the rest shed.
    const std::vector<ClusterTicket> tickets =
        SubmitBurst(cluster, scene, 6, 0.0, 2.5 * est);
    std::vector<ClusterRenderResult> results;
    for (const ClusterTicket ticket : tickets) {
        results.push_back(cluster.Wait(ticket));
    }
    EXPECT_TRUE(results[2].spilled);
    EXPECT_EQ(results[2].shard, other);
    EXPECT_EQ(results[2].result.status, RequestStatus::kCompleted);
    EXPECT_EQ(IdOn(cluster, other, scene), homed_there);
    EXPECT_EQ(IdOn(cluster, home, scene), 0u);
    ExpectSceneAndWarmCost(results, scene, warm);
    EXPECT_EQ(cluster.Snapshot().per_shard[other].service.scenes.at(
                  homed_there).accepted,
              1u);
}

TEST(ShardedRenderService, P2cReplicasServeTheSceneUnderTheirOwnIds)
{
    ClusterConfig config;
    config.shards = 2;
    config.replication.top_k = 1;
    config.replication.factor = 2;
    ShardedRenderService cluster(config);
    const std::vector<std::string> names = RegisterRepertoire(cluster);
    const std::string& scene = names[0];
    const std::size_t home = cluster.router().Home(scene);
    const std::size_t other = 1 - home;
    const FrameCost warm = cluster.WarmScene(scene);

    // One submit tops the census; the refresh registers the scene on
    // the second replica after the scenes homed there.
    std::vector<ClusterTicket> tickets = SubmitBurst(cluster, scene, 1, 0.0);
    ASSERT_EQ(cluster.RefreshReplication(),
              std::vector<std::string>{scene});
    ASSERT_EQ(cluster.ReplicasOf(scene).size(), 2u);
    EXPECT_EQ(IdOn(cluster, home, scene), 0u);
    EXPECT_NE(IdOn(cluster, other, scene), kNoScene);
    EXPECT_NE(IdOn(cluster, other, scene), 0u);

    const std::vector<ClusterTicket> burst =
        SubmitBurst(cluster, scene, 12, 0.0);
    tickets.insert(tickets.end(), burst.begin(), burst.end());
    std::vector<ClusterRenderResult> results;
    for (const ClusterTicket ticket : tickets) {
        results.push_back(cluster.Wait(ticket));
    }
    ExpectSceneAndWarmCost(results, scene, warm);
    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.p2c_routed, 12u);
    EXPECT_GT(stats.replica_served, 0u);
    EXPECT_GT(stats.per_shard[home].service.accepted, 0u);
    EXPECT_GT(stats.per_shard[other].service.accepted, 0u);
}

TEST(ShardedRenderService, SceneCountersFollowTheIdPath)
{
    // The router submits by per-replica id and each replica counts its
    // scene rows under its own lock: every row's requests must equal
    // the requests routed to that replica for that scene, and its
    // prepared replays all of them but a cold first touch — here, the
    // spill that compiles a scene on the shard that never held it.
    ClusterConfig config;
    config.shards = 2;
    config.replication.top_k = 1;
    config.replication.factor = 2;
    ShardedRenderService cluster(config);
    const std::vector<std::string> names = RegisterRepertoire(cluster);
    const std::string& hot = names[0];
    const std::string& spilling = names[1];
    cluster.WarmScene(hot);
    const double est = EstimatedServiceMs(cluster.WarmScene(spilling));
    ASSERT_EQ(IdOn(cluster, 1 - cluster.router().Home(spilling), spilling),
              kNoScene);

    // The hot scene tops the census and is replicated on both shards;
    // its burst routes by power-of-two choices. Much later, when every
    // queue has drained, the other scene's burst spills cold to the
    // shard without its pin (as in SpillPaysRecompileOnceAndKeepsInvariants).
    SubmitBurst(cluster, hot, 1, 0.0);
    ASSERT_EQ(cluster.RefreshReplication(), std::vector<std::string>{hot});
    SubmitBurst(cluster, hot, 12, 0.0);
    SubmitBurst(cluster, spilling, 6, 1000.0 * est, 2.5 * est);
    const std::vector<ClusterRenderResult> results = cluster.WaitAll();
    ASSERT_EQ(results.size(), 19u);

    std::map<std::pair<std::size_t, std::string>, std::uint64_t> routed;
    std::map<std::pair<std::size_t, std::string>, std::uint64_t> cold;
    for (const ClusterRenderResult& r : results) {
        const auto key = std::make_pair(r.shard, std::string(r.result.scene));
        ++routed[key];
        if (r.spill_surcharge_ms > 0.0) ++cold[key];
    }
    const ClusterStats stats = cluster.Snapshot();
    EXPECT_EQ(stats.p2c_routed, 12u);
    EXPECT_GT(stats.replica_served, 0u);
    EXPECT_EQ(stats.spill_recompiles, 1u);
    std::uint64_t rows_checked = 0;
    for (std::size_t shard = 0; shard < 2; ++shard) {
        EXPECT_GT((routed[{shard, hot}]), 0u) << "shard " << shard;
        for (const SceneStats& row : cluster.shard(shard).Snapshot().scenes) {
            const auto key = std::make_pair(shard, row.name);
            EXPECT_EQ(row.requests, routed[key])
                << "shard " << shard << " scene " << row.name;
            ASSERT_LE(cold[key], 1u);
            EXPECT_EQ(row.prepared_replays, routed[key] - cold[key])
                << "shard " << shard << " scene " << row.name;
            rows_checked += routed[key];
        }
    }
    // Every routed request landed on a row that was checked.
    EXPECT_EQ(rows_checked, results.size());
}

TEST(ShardedRenderService, KillShardReplaysUnderTheNewHomesId)
{
    ClusterConfig config;
    config.shards = 2;
    config.enable_spill = false;
    ShardedRenderService cluster(config);
    const std::vector<std::string> names = RegisterRepertoire(cluster);
    const std::string& scene = names[0];
    const std::size_t home = cluster.router().Home(scene);
    const std::size_t other = 1 - home;
    const FrameCost warm = cluster.WarmScene(scene);
    const double est = EstimatedServiceMs(warm);
    ASSERT_EQ(IdOn(cluster, other, scene), kNoScene);

    // Completions at E, 2E, 3E, 4E: a death at 1.5E replays three.
    const std::vector<ClusterTicket> tickets =
        SubmitBurst(cluster, scene, 4, 0.0);
    EXPECT_EQ(cluster.KillShard(home, 1.5 * est), 3u);
    const SceneId rehomed = IdOn(cluster, other, scene);
    EXPECT_NE(rehomed, kNoScene);
    EXPECT_NE(rehomed, 0u);  // the old home's id for it

    std::vector<ClusterRenderResult> results = cluster.WaitAll();
    ASSERT_EQ(results.size(), tickets.size());
    EXPECT_FALSE(results[0].replayed);
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_TRUE(results[i].replayed);
        EXPECT_EQ(results[i].shard, other);
        EXPECT_EQ(results[i].result.status, RequestStatus::kCompleted);
    }
    ExpectSceneAndWarmCost(results, scene, warm);
    EXPECT_EQ(cluster.Snapshot().per_shard[other].service.scenes.at(
                  rehomed).accepted,
              3u);
}

TEST(ShardedRenderService, ResizeReissuesSceneIds)
{
    ClusterConfig config;
    config.shards = 2;
    ShardedRenderService cluster(config);
    const std::vector<std::string> names = RegisterRepertoire(cluster);
    std::vector<FrameCost> warm;
    for (const std::string& name : names) {
        warm.push_back(cluster.WarmScene(name));
    }
    cluster.Resize(3);

    // Every new replica numbers the scenes it homes from 0, in cluster
    // registration order.
    std::size_t registered = 0;
    for (std::size_t shard = 0; shard < 3; ++shard) {
        SceneId next = 0;
        for (const std::string& name : names) {
            const SceneId id = IdOn(cluster, shard, name);
            if (id == kNoScene) continue;
            EXPECT_EQ(id, next++) << name << " on shard " << shard;
            EXPECT_EQ(cluster.router().Home(name), shard);
        }
        EXPECT_EQ(cluster.shard(shard).Snapshot().scenes.size(), next);
        registered += next;
    }
    EXPECT_EQ(registered, names.size());

    for (std::size_t i = 0; i < names.size(); ++i) {
        const std::vector<ClusterTicket> tickets =
            SubmitBurst(cluster, names[i], 2, 0.0);
        std::vector<ClusterRenderResult> results;
        for (const ClusterTicket ticket : tickets) {
            results.push_back(cluster.Wait(ticket));
        }
        ExpectSceneAndWarmCost(results, names[i], warm[i]);
        EXPECT_EQ(results[0].result.status, RequestStatus::kCompleted);
    }
}

TEST(ShardedRenderService, ResultsKeepTheirSceneNamePastTheirOwners)
{
    // A result views the process-lifetime interned scene name, never a
    // string its service or cluster owns: it must still read its scene
    // once that owner is destroyed, has lost the shard that served it,
    // or was rebuilt (ASan checks every read below).
    const std::string name = "lifetime/Instant-NGP/flexnerfer-int8";
    SceneRequest request;
    request.scene = name;
    std::vector<RenderResult> solo;
    {
        RenderService service;
        service.RegisterScene(name, FlexScene("Instant-NGP"));
        solo.push_back(service.Wait(service.Submit(request).ticket));
    }
    std::vector<ClusterRenderResult> fleet;
    {
        ClusterConfig config;
        config.shards = 2;
        config.enable_spill = false;
        ShardedRenderService cluster(config);
        cluster.RegisterScene(name, FlexScene("Instant-NGP"));
        const double est = EstimatedServiceMs(cluster.WarmScene(name));
        // Completions at E, 2E, 3E, 4E: a death at 1.5E replays three.
        const std::vector<ClusterTicket> killed =
            SubmitBurst(cluster, name, 4, 0.0);
        ASSERT_EQ(cluster.KillShard(cluster.router().Home(name), 1.5 * est),
                  3u);
        for (const ClusterTicket ticket : killed) {
            fleet.push_back(cluster.Wait(ticket));
        }
        // Resize drains these into results it retains, then destroys
        // every replica that produced them.
        const std::vector<ClusterTicket> resized =
            SubmitBurst(cluster, name, 2, 10.0 * est);
        cluster.Resize(3);
        for (const ClusterTicket ticket : resized) {
            fleet.push_back(cluster.Wait(ticket));
        }
        // A WaitAll result too, read like the rest after the cluster dies.
        SubmitBurst(cluster, name, 1, 20.0 * est);
        std::vector<ClusterRenderResult> rest = cluster.WaitAll();
        fleet.insert(fleet.end(), rest.begin(), rest.end());
    }
    {
        // A partition on every link from virtual 0: the request never
        // reaches a shard and the cluster resolves it itself.
        SimTransport transport(7);
        FaultEvent partition;
        partition.kind = FaultEvent::Kind::kPartition;
        partition.link = SimTransport::kAllLinks;
        partition.end_ms = 1e9;
        transport.Schedule(partition);
        ClusterConfig config;
        config.shards = 2;
        config.transport = &transport;
        ShardedRenderService cluster(config);
        cluster.RegisterScene(name, FlexScene("Instant-NGP"));
        fleet.push_back(cluster.Wait(cluster.Submit(request)));
        EXPECT_TRUE(fleet.back().transport_failed);
    }
    ASSERT_EQ(solo.size(), 1u);
    EXPECT_EQ(solo[0].scene, name);
    ASSERT_EQ(fleet.size(), 8u);
    std::size_t replayed = 0;
    for (const ClusterRenderResult& r : fleet) {
        EXPECT_EQ(r.result.scene, name);
        if (r.replayed) ++replayed;
    }
    EXPECT_EQ(replayed, 3u);
    EXPECT_EQ(fleet.back().result.status, RequestStatus::kFailedTransport);
}

/** This process's threads: one entry each in /proc/self/task. */
std::size_t
ThreadCount()
{
    std::size_t count = 0;
    for (const auto& task :
         std::filesystem::directory_iterator("/proc/self/task")) {
        count += task.is_directory() ? 1 : 0;
    }
    return count;
}

TEST(ShardedRenderService, ReplicasStartNoThreads)
{
    // Every frame a replica runs — warm-ups, cold compiles, estimation
    // runs — executes on the calling thread, so neither a default
    // RenderService nor a cluster of them starts a thread of its own.
    if (!std::filesystem::exists("/proc/self/task")) {
        GTEST_SKIP() << "no /proc/self/task to count threads in";
    }
    const std::size_t before = ThreadCount();
    ClusterConfig cluster_config;
    cluster_config.shards = 2;
    ShardedRenderService cluster(cluster_config);
    RenderService service(ServeConfig{});
    for (const std::string& model : AllModelNames()) {
        cluster.RegisterScene(model, FlexScene(model));
        service.RegisterScene(model, FlexScene(model));
        cluster.WarmScene(model);
        service.WarmScene(model);
    }
    EXPECT_EQ(ThreadCount(), before);
}

TEST(ShardedRenderServiceDeathTest, UnknownSceneAndSessionMismatchAreFatal)
{
    ClusterConfig config;
    config.shards = 2;
    ShardedRenderService cluster(config);
    const std::vector<std::string> names = RegisterRepertoire(cluster);
    SceneRequest unknown;
    unknown.scene = "nope";
    EXPECT_DEATH(cluster.Submit(unknown),
                 "request names scene 'nope' not registered with the "
                 "cluster");
    SubmitOptions options;
    options.session = cluster.OpenSession(names[0]);
    SceneRequest wrong;
    wrong.scene = names[1];
    EXPECT_DEATH(cluster.Submit(wrong, options),
                 "cluster session 1 belongs to scene 'rep-0', not "
                 "'rep-1'");

    ServeConfig serve_config;
    RenderService service(serve_config);
    service.RegisterScene("a", FlexScene("Instant-NGP"));
    service.RegisterScene("b", FlexScene("KiloNeRF"));
    EXPECT_DEATH(service.Submit(unknown),
                 "request names unregistered scene 'nope'");
    SubmitOptions service_options;
    service_options.session = service.OpenSession("a");
    SceneRequest b;
    b.scene = "b";
    EXPECT_DEATH(service.Submit(b, service_options),
                 "session 1 is bound to scene 'a', not 'b'");
}

TEST(ShardedRenderServiceDeathTest, TransportDeathOutsideTheClusterIsFatal)
{
    SimTransport transport(0x5EEDu);
    ClusterConfig config;
    config.shards = 3;
    config.transport = &transport;
    ShardedRenderService cluster(config);
    cluster.RegisterScene("a", FlexScene("Instant-NGP"));
    FaultEvent death;
    death.kind = FaultEvent::Kind::kShardDeath;
    death.link = 3;
    death.start_ms = 1.0;
    transport.Schedule(death);
    SceneRequest request;
    request.scene = "a";
    request.arrival_ms = 2.0;
    EXPECT_DEATH(cluster.Submit(request),
                 "chaos drill names shard 3 but the cluster has 3");
}

}  // namespace
}  // namespace flexnerfer
