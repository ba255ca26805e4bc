/**
 * @file
 * Unit tests for the serving front-end: LatencyHistogram percentiles vs
 * exact sorted quantiles, admission accept/reject/shed paths, per-scene
 * prepared-frame reuse, the resolve-inside-Submit contract on the solo,
 * batched and session paths, a multi-threaded soak of the whole
 * RenderService, consistent snapshots under concurrent submits, and
 * cold shape compiles under the service lock racing every other
 * service call (TSan/ASan targets).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <condition_variable>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "accel/flexnerfer.h"
#include "common/rng.h"
#include "common/stats.h"
#include "models/workload.h"
#include "runtime/sweep_runner.h"
#include "runtime/thread_pool.h"
#include "serve/admission.h"
#include "serve/render_service.h"
#include "serve/scene_registry.h"
#include "frame_cost_matchers.h"

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

/** Serial reference for a scene spec: cold compile + execute. */
FrameCost
Reference(const std::string& model)
{
    FlexNeRFerModel::Config config;
    config.precision = Precision::kInt8;
    return FlexNeRFerModel(config).RunWorkload(BuildWorkload(model));
}

TEST(LatencyHistogram, TracksExactQuantilesWithinBucketError)
{
    // Three decades of latencies in randomized order: every reported
    // quantile must sit within the documented ~2% bucket ratio of the
    // exact order statistic computed from the sorted samples.
    Rng rng(7);
    std::vector<double> samples;
    for (int i = 0; i < 5000; ++i) {
        samples.push_back(std::pow(10.0, rng.Uniform(0.0, 3.0)));
    }
    LatencyHistogram histogram;
    for (double s : samples) histogram.Record(s);

    std::vector<double> sorted = samples;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.01, 0.10, 0.50, 0.90, 0.99, 1.0}) {
        const auto rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(sorted.size()))));
        const double exact = sorted[rank - 1];
        const double estimated = histogram.Quantile(q);
        EXPECT_NEAR(estimated, exact, 0.025 * exact)
            << "q = " << q;
    }
    EXPECT_EQ(histogram.count(), samples.size());
    EXPECT_EQ(histogram.Min(), sorted.front());
    EXPECT_EQ(histogram.Max(), sorted.back());
    const double mean =
        std::accumulate(sorted.begin(), sorted.end(), 0.0) /
        static_cast<double>(sorted.size());
    EXPECT_NEAR(histogram.Mean(), mean, 1e-9 * mean);
}

TEST(LatencyHistogram, QuantileIsOrderIndependent)
{
    // The estimator is a pure function of the recorded multiset — the
    // property serving telemetry's thread-invariance rests on.
    Rng rng(11);
    std::vector<double> samples;
    for (int i = 0; i < 1000; ++i) samples.push_back(rng.Uniform(0.1, 50.0));

    LatencyHistogram forward, shuffled;
    for (double s : samples) forward.Record(s);
    std::shuffle(samples.begin(), samples.end(), rng.engine());
    for (double s : samples) shuffled.Record(s);

    for (double q : {0.5, 0.9, 0.99}) {
        EXPECT_EQ(forward.Quantile(q), shuffled.Quantile(q));
    }
}

TEST(LatencyHistogram, ConcurrentRecordsAndMerge)
{
    LatencyHistogram histogram;
    ThreadPool pool(8);
    constexpr int kPerTask = 500;
    pool.ParallelFor(16, [&histogram](std::int64_t task) {
        for (int i = 0; i < kPerTask; ++i) {
            histogram.Record(static_cast<double>(task + 1));
        }
    });
    EXPECT_EQ(histogram.count(), 16u * kPerTask);
    EXPECT_EQ(histogram.Min(), 1.0);
    EXPECT_EQ(histogram.Max(), 16.0);

    LatencyHistogram other;
    other.Record(100.0);
    other.Merge(histogram);
    EXPECT_EQ(other.count(), 16u * kPerTask + 1);
    EXPECT_EQ(other.Max(), 100.0);
    EXPECT_EQ(other.Min(), 1.0);

    histogram.Clear();
    EXPECT_EQ(histogram.count(), 0u);
    EXPECT_EQ(histogram.Quantile(0.5), 0.0);

    // Self-merge is a no-op, not a doubling.
    other.Merge(other);
    EXPECT_EQ(other.count(), 16u * kPerTask + 1);

    // Pathological samples clamp instead of hitting the float-to-int
    // UB in the bucket index: NaN/-inf to the floor, +inf to the
    // (finite) overflow bucket.
    LatencyHistogram weird;
    weird.Record(std::numeric_limits<double>::quiet_NaN());
    weird.Record(-std::numeric_limits<double>::infinity());
    weird.Record(std::numeric_limits<double>::infinity());
    EXPECT_EQ(weird.count(), 3u);
    EXPECT_EQ(weird.Min(), LatencyHistogram::kMinValue);
    EXPECT_TRUE(std::isfinite(weird.Max()));
    EXPECT_TRUE(std::isfinite(weird.Quantile(1.0)));
}

TEST(AdmissionController, AcceptsUntilQueueDepthThenRejects)
{
    AdmissionPolicy policy;
    policy.max_queue_depth = 2;
    AdmissionController admission(policy);
    using Outcome = AdmissionController::Outcome;

    // Three simultaneous arrivals, 10 ms of service each: the first two
    // occupy the virtual queue, the third bounces.
    EXPECT_EQ(admission.Admit(0.0, 10.0).outcome, Outcome::kAccepted);
    EXPECT_EQ(admission.Admit(0.0, 10.0).outcome, Outcome::kAccepted);
    EXPECT_EQ(admission.Admit(0.0, 10.0).outcome,
              Outcome::kRejectedQueueFull);

    // Once virtual work retires, capacity frees up again.
    const auto verdict = admission.Admit(15.0, 10.0);
    EXPECT_EQ(verdict.outcome, Outcome::kAccepted);
    // The device is busy until 20 ms, so this arrival waits 5 ms.
    EXPECT_EQ(verdict.start_ms, 20.0);
    EXPECT_EQ(verdict.wait_ms, 5.0);
    EXPECT_EQ(verdict.completion_ms, 30.0);

    const auto counters = admission.counters();
    EXPECT_EQ(counters.accepted, 3u);
    EXPECT_EQ(counters.rejected_queue_full, 1u);
    EXPECT_EQ(counters.busy_ms, 30.0);
    EXPECT_EQ(counters.last_completion_ms, 30.0);
}

TEST(AdmissionController, ShedsWhenEstimatedCompletionMissesDeadline)
{
    AdmissionController admission;
    using Outcome = AdmissionController::Outcome;

    // An empty device meets a feasible deadline...
    EXPECT_EQ(admission.Admit(0.0, 10.0, 15.0).outcome,
              Outcome::kAccepted);
    // ...but with 10 ms of backlog, a 12 ms deadline on a 10 ms frame
    // is infeasible (estimated completion 20 ms) and sheds on arrival.
    EXPECT_EQ(admission.Admit(0.0, 10.0, 12.0).outcome,
              Outcome::kShedDeadline);
    // A sheddable request leaves no residue: the backlog still ends at
    // 10 ms, so a 25 ms-deadline request fits.
    EXPECT_EQ(admission.Admit(0.0, 10.0, 25.0).outcome,
              Outcome::kAccepted);
    EXPECT_EQ(admission.counters().shed_deadline, 1u);
}

TEST(AdmissionController, DefaultDeadlineAppliesWhenRequestHasNone)
{
    AdmissionPolicy policy;
    policy.default_deadline_ms = 5.0;
    AdmissionController admission(policy);
    using Outcome = AdmissionController::Outcome;
    EXPECT_EQ(admission.Admit(0.0, 4.0).outcome, Outcome::kAccepted);
    // Backlog 4 ms + service 4 ms > default deadline 5 ms.
    EXPECT_EQ(admission.Admit(0.0, 4.0).outcome, Outcome::kShedDeadline);
    // An explicit per-request deadline overrides the default.
    EXPECT_EQ(admission.Admit(0.0, 4.0, 20.0).outcome,
              Outcome::kAccepted);
}

TEST(AdmissionController, SingleTierWfqReducesToLegacyFifo)
{
    // With one (implicit) tier there is nothing to weigh: the fluid
    // device serializes, and every weighted-fair verdict must be
    // bit-identical to the kFifo discipline's — the backward
    // compatibility contract of the tier rework.
    AdmissionPolicy wfq_policy;
    wfq_policy.max_queue_depth = 2;
    wfq_policy.default_deadline_ms = 40.0;
    AdmissionPolicy fifo_policy = wfq_policy;
    fifo_policy.discipline = AdmissionDiscipline::kFifo;
    AdmissionController wfq(wfq_policy);
    AdmissionController fifo(fifo_policy);

    struct Call {
        double arrival, est, deadline;
    };
    const std::vector<Call> calls = {
        {0.0, 10.0, 0.0},  {0.0, 10.0, 0.0},  {0.0, 10.0, 0.0},
        {5.0, 10.0, 18.0}, {25.0, 10.0, 0.0}, {26.0, 4.0, 30.0},
    };
    for (const Call& call : calls) {
        const auto a = wfq.Admit(call.arrival, call.est, call.deadline);
        const auto b = fifo.Admit(call.arrival, call.est, call.deadline);
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.start_ms, b.start_ms);
        EXPECT_EQ(a.completion_ms, b.completion_ms);
        EXPECT_EQ(a.wait_ms, b.wait_ms);
        EXPECT_EQ(a.queue_depth, b.queue_depth);
        EXPECT_EQ(a.tier_queue_depth, b.tier_queue_depth);
        EXPECT_EQ(a.deadline_ms, b.deadline_ms);
        EXPECT_EQ(a.start_tag, b.start_tag);
        EXPECT_EQ(a.finish_tag, b.finish_tag);
    }
    const auto ca = wfq.counters();
    const auto cb = fifo.counters();
    EXPECT_EQ(ca.accepted, cb.accepted);
    EXPECT_EQ(ca.rejected_queue_full, cb.rejected_queue_full);
    EXPECT_EQ(ca.shed_deadline, cb.shed_deadline);
    EXPECT_EQ(ca.busy_ms, cb.busy_ms);
    EXPECT_EQ(ca.last_completion_ms, cb.last_completion_ms);
}

TEST(AdmissionController, WfqSplitsCapacityByWeight)
{
    // The hand-computable GPS-fluid case: tiers at weights 3 and 1.
    AdmissionPolicy policy;
    policy.max_queue_depth = 0;
    TierPolicy heavy;
    heavy.name = "heavy";
    heavy.weight = 3.0;
    TierPolicy light;
    light.name = "light";
    light.weight = 1.0;
    policy.tiers = {heavy, light};
    AdmissionController admission(policy);
    using Outcome = AdmissionController::Outcome;

    // A lone light-tier request owns the whole device: 12 ms of work
    // completes at 12 ms despite weight 1 (work-conserving, not a hard
    // 25% slice).
    const auto first = admission.Admit(0.0, 12.0, 0.0, 1);
    EXPECT_EQ(first.outcome, Outcome::kAccepted);
    EXPECT_EQ(first.start_ms, 0.0);
    EXPECT_DOUBLE_EQ(first.completion_ms, 12.0);

    // A heavy-tier request joins: both queues backlogged, so heavy
    // drains at 3/4 of the device — 12 / (3/4) = 16 ms.
    const auto second = admission.Admit(0.0, 12.0, 0.0, 0);
    EXPECT_EQ(second.outcome, Outcome::kAccepted);
    EXPECT_EQ(second.start_ms, 0.0);
    EXPECT_DOUBLE_EQ(second.completion_ms, 16.0);

    // A second light request queues behind the first: light drains at
    // 1/4 until heavy empties at 16 ms (4 ms of light done by then),
    // then at the full rate — start once the prior 12 ms drains
    // (t = 24), the remaining work finishes at 36 ms.
    const auto third = admission.Admit(0.0, 12.0, 0.0, 1);
    EXPECT_EQ(third.outcome, Outcome::kAccepted);
    EXPECT_DOUBLE_EQ(third.start_ms, 24.0);
    EXPECT_DOUBLE_EQ(third.completion_ms, 36.0);

    // WFQ virtual tags: service-per-weight, not wall time. Heavy's
    // 12 / 3 = 4 undercuts light's 12 / 1 = 12; the second light
    // request stacks on its queue's finish tag.
    EXPECT_DOUBLE_EQ(first.finish_tag, 12.0);
    EXPECT_DOUBLE_EQ(second.finish_tag, 4.0);
    EXPECT_DOUBLE_EQ(third.start_tag, 12.0);
    EXPECT_DOUBLE_EQ(third.finish_tag, 24.0);

    const auto counters = admission.counters();
    EXPECT_EQ(counters.tiers[0].busy_ms, 12.0);
    EXPECT_EQ(counters.tiers[1].busy_ms, 24.0);
}

TEST(AdmissionController, TierDefaultsResolveDeadlinesAndCapDepth)
{
    AdmissionPolicy policy;
    policy.max_queue_depth = 0;
    policy.default_deadline_ms = 100.0;
    TierPolicy strict;
    strict.name = "strict";
    strict.default_deadline_ms = 5.0;
    TierPolicy capped;
    capped.name = "capped";
    capped.max_queue_depth = 1;
    policy.tiers = {strict, capped};
    AdmissionController admission(policy);
    using Outcome = AdmissionController::Outcome;

    // The strict tier's 5 ms default beats the policy's 100 ms: 4 ms
    // fits an idle device...
    EXPECT_EQ(admission.Admit(0.0, 4.0, 0.0, 0).outcome,
              Outcome::kAccepted);
    // ...but behind 4 ms of backlog the completion (8 ms) misses it,
    // and the verdict reports the tier default it was judged against.
    const auto shed = admission.Admit(0.0, 4.0, 0.0, 0);
    EXPECT_EQ(shed.outcome, Outcome::kShedDeadline);
    EXPECT_EQ(shed.deadline_ms, 5.0);
    // An explicit per-request deadline still overrides the tier's.
    EXPECT_EQ(admission.Admit(0.0, 4.0, 50.0, 0).outcome,
              Outcome::kAccepted);

    // The capped tier has no deadline of its own, so the policy
    // default (100 ms) applies — and its depth cap of 1 bounces the
    // second in-flight request with the legacy deadline-0 verdict.
    EXPECT_EQ(admission.Admit(0.0, 4.0, 0.0, 1).outcome,
              Outcome::kAccepted);
    const auto rejected = admission.Admit(0.0, 4.0, 0.0, 1);
    EXPECT_EQ(rejected.outcome, Outcome::kRejectedQueueFull);
    EXPECT_EQ(rejected.deadline_ms, 0.0);
    EXPECT_EQ(rejected.tier_queue_depth, 1u);

    const auto counters = admission.counters();
    EXPECT_EQ(counters.tiers[0].submitted, 3u);
    EXPECT_EQ(counters.tiers[0].accepted, 2u);
    EXPECT_EQ(counters.tiers[0].shed_deadline, 1u);
    EXPECT_EQ(counters.tiers[1].submitted, 2u);
    EXPECT_EQ(counters.tiers[1].accepted, 1u);
    EXPECT_EQ(counters.tiers[1].rejected_queue_full, 1u);

    // Tiers are policy, not data: an unresolved tier index is a bug in
    // the caller, not a request to shed.
    EXPECT_DEATH(admission.Admit(0.0, 1.0, 0.0, 7), "out of range");
}

TEST(AdmissionController, WfqShieldsPaidTierFromLowTierFlood)
{
    // The starvation regression: a sustained 2x-overload flood of
    // free-tier work with a trickle of paid traffic. Under WFQ the
    // paid tier's 6/7 guaranteed share keeps its queue near-empty and
    // its tight deadline always feasible; under FIFO the shared queue
    // runs at the free tier's loose deadline depth and starves paid.
    AdmissionPolicy policy;
    policy.max_queue_depth = 0;
    TierPolicy paid;
    paid.name = "paid";
    paid.weight = 6.0;
    paid.default_deadline_ms = 10.0;
    paid.shed_budget = 0.02;
    TierPolicy free_tier;
    free_tier.name = "free";
    free_tier.weight = 1.0;
    free_tier.default_deadline_ms = 1000.0;
    free_tier.max_queue_depth = 64;
    policy.tiers = {paid, free_tier};
    AdmissionPolicy fifo_policy = policy;
    fifo_policy.discipline = AdmissionDiscipline::kFifo;

    const auto flood = [](AdmissionController& admission) {
        for (int i = 0; i < 20000; ++i) {
            const double t = 0.5 * i;  // free offered load: 2 devices
            admission.Admit(t, 1.0, 0.0, 1);
            if (i % 5 == 0) {
                admission.Admit(t, 1.0, 0.0, 0);  // paid load: 0.4
            }
        }
    };
    AdmissionController wfq(policy);
    AdmissionController fifo(fifo_policy);
    flood(wfq);
    flood(fifo);

    const auto wfq_paid = wfq.counters().tiers[0];
    const auto fifo_paid = fifo.counters().tiers[0];
    ASSERT_GT(wfq_paid.submitted, 0u);
    // WFQ: zero paid sheds — trivially within the 2% budget.
    EXPECT_EQ(wfq_paid.shed_deadline + wfq_paid.rejected_queue_full, 0u);
    // FIFO: the same paid stream starves behind the flood.
    const double fifo_shed_rate =
        static_cast<double>(fifo_paid.shed_deadline +
                            fifo_paid.rejected_queue_full) /
        static_cast<double>(fifo_paid.submitted);
    EXPECT_GT(fifo_shed_rate, 0.5);

    // WFQ is work-conserving, not capacity-reserving: the flood still
    // gets served, it just cannot displace paid work.
    EXPECT_GT(wfq.counters().tiers[1].accepted, 0u);
}

TEST(SceneRegistry, FirstTouchPreparesLaterTouchesReplay)
{
    PlanCache cache;
    SceneRegistry registry(cache);
    const SceneId ngp = registry.Register("ngp", NgpFlexScene());
    EXPECT_EQ(ngp, 0u);  // ids are registration indices
    EXPECT_EQ(registry.Find("ngp"), ngp);
    EXPECT_EQ(registry.Find("missing"), kNoScene);
    EXPECT_EQ(registry.Name(ngp), "ngp");

    // First touch compiles and pins; the estimate is the executed cost.
    const auto first = registry.Touch(ngp);
    EXPECT_EQ(cache.stats().plan_misses, 1u);
    EXPECT_EQ(cache.stats().frame_hits, 0u);
    ExpectBitIdentical(first->cost, Reference("Instant-NGP"));

    // Second touch returns the same pinned entry; replaying its frame
    // hits the memoized result, not a recompile.
    const auto second = registry.Touch(ngp);
    EXPECT_EQ(second.get(), first.get());
    ExpectBitIdentical(cache.Run(second->frame), first->cost);
    EXPECT_EQ(cache.stats().plan_misses, 1u);
    EXPECT_EQ(cache.stats().frame_hits, 1u);

    const std::vector<SceneStats> stats = registry.Stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].requests, 2u);
    EXPECT_EQ(stats[0].prepared_replays, 1u);
    // The recorded estimate is the critical path — what admission
    // schedules with — not the flat op sum.
    EXPECT_EQ(stats[0].est_latency_ms, EstimatedServiceMs(first->cost));
}

TEST(RenderService, SteadyStateRequestsHitThePreparedPath)
{
    ServeConfig config;
    config.threads = 2;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());

    std::vector<ServeTicket> tickets;
    for (int i = 0; i < 6; ++i) {
        SceneRequest request;
        request.scene = "ngp";
        tickets.push_back(service.Submit(request).ticket);
    }
    const FrameCost reference = Reference("Instant-NGP");
    for (ServeTicket ticket : tickets) {
        const RenderResult result = service.Wait(ticket);
        EXPECT_EQ(result.status, RequestStatus::kCompleted);
        ExpectBitIdentical(result.cost, reference);
    }

    const ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.submitted, 6u);
    EXPECT_EQ(stats.accepted, 6u);
    EXPECT_EQ(stats.completed, 6u);
    // One compile (the first touch memoizes the frame result), so all
    // six requests replay from the memo — the steady-state path.
    EXPECT_EQ(stats.cache.plan_misses, 1u);
    EXPECT_EQ(stats.cache.frame_hits, 6u);
    ASSERT_EQ(stats.scenes.size(), 1u);
    EXPECT_EQ(stats.scenes[0].prepared_replays, 5u);
    // Back-to-back arrivals at t = 0 queue behind each other: latency
    // percentiles reflect the virtual backlog, not wall clock.
    EXPECT_GT(stats.p99_ms, stats.p50_ms);
    // The virtual device serves each request for its critical-path
    // estimate, so six back-to-back requests span 6 x that.
    const double expected_qps =
        1e3 * 6.0 / (6.0 * EstimatedServiceMs(reference));
    EXPECT_NEAR(stats.sustained_qps, expected_qps, 1e-9 * expected_qps);
}

TEST(RenderService, DeadlineAndQueueDepthPoliciesShedAndReject)
{
    ServeConfig config;
    config.threads = 2;
    config.admission.max_queue_depth = 3;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    const double est = EstimatedServiceMs(service.WarmScene("ngp"));

    // Simultaneous arrivals: two queue up; a backlogged infeasible
    // deadline sheds (queue depth 2 of 3, so it reaches the deadline
    // check); a third fills the queue; a fourth bounces off the depth
    // limit (depth is checked before the deadline — a full queue
    // rejects even requests that could otherwise be deadline-judged).
    SceneRequest request;
    request.scene = "ngp";
    const ServeTicket a = service.Submit(request).ticket;
    const ServeTicket b = service.Submit(request).ticket;
    SceneRequest tight = request;
    tight.deadline_ms = 0.5 * est;
    const ServeTicket c = service.Submit(tight).ticket;
    const ServeTicket d = service.Submit(request).ticket;
    const ServeTicket e = service.Submit(request).ticket;

    EXPECT_EQ(service.Wait(a).status, RequestStatus::kCompleted);
    EXPECT_EQ(service.Wait(b).status, RequestStatus::kCompleted);
    EXPECT_EQ(service.Wait(c).status, RequestStatus::kShedDeadline);
    EXPECT_EQ(service.Wait(d).status, RequestStatus::kCompleted);
    EXPECT_EQ(service.Wait(e).status, RequestStatus::kRejectedQueueFull);

    const ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.shed_deadline, 1u);
    EXPECT_EQ(stats.rejected_queue_full, 1u);
    EXPECT_DOUBLE_EQ(stats.ShedRate(), 0.4);
    ASSERT_EQ(stats.scenes.size(), 1u);
    EXPECT_EQ(stats.scenes[0].accepted, 3u);
    EXPECT_EQ(stats.scenes[0].shed, 1u);
    EXPECT_EQ(stats.scenes[0].rejected, 1u);
}

TEST(RenderService, SnapshotReportsPerTierVerdictsAndLatency)
{
    ServeConfig config;
    config.threads = 2;
    config.admission.max_queue_depth = 0;
    TierPolicy gold;
    gold.name = "gold";
    gold.weight = 4.0;
    gold.shed_budget = 0.5;
    TierPolicy bulk;
    bulk.name = "bulk";
    bulk.weight = 1.0;
    config.admission.tiers = {gold, bulk};
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    const double est = EstimatedServiceMs(service.WarmScene("ngp"));

    const auto submit = [&service](std::size_t tier, double deadline) {
        SceneRequest request;
        request.scene = "ngp";
        request.tier = tier;
        request.deadline_ms = deadline;
        return service.Submit(request).ticket;
    };
    for (int i = 0; i < 3; ++i) submit(0, 0.0);
    for (int i = 0; i < 2; ++i) submit(1, 0.0);
    // Infeasible even on an idle device: this bulk request sheds, and
    // the result still reports the tier it was judged in.
    const RenderResult shed = service.Wait(submit(1, 0.5 * est));
    EXPECT_EQ(shed.status, RequestStatus::kShedDeadline);
    EXPECT_EQ(shed.tier, 1u);
    service.WaitAll();

    const ServiceStats stats = service.Snapshot();
    ASSERT_EQ(stats.tiers.size(), 2u);
    const TierStats& gold_row = stats.tiers[0];
    const TierStats& bulk_row = stats.tiers[1];
    EXPECT_EQ(gold_row.name, "gold");
    EXPECT_EQ(gold_row.weight, 4.0);
    EXPECT_EQ(gold_row.shed_budget, 0.5);
    EXPECT_EQ(gold_row.submitted, 3u);
    EXPECT_EQ(gold_row.accepted, 3u);
    EXPECT_EQ(gold_row.shed_deadline, 0u);
    EXPECT_EQ(gold_row.ShedRate(), 0.0);
    EXPECT_TRUE(gold_row.WithinShedBudget());
    EXPECT_EQ(bulk_row.name, "bulk");
    EXPECT_EQ(bulk_row.submitted, 3u);
    EXPECT_EQ(bulk_row.accepted, 2u);
    EXPECT_EQ(bulk_row.shed_deadline, 1u);
    EXPECT_DOUBLE_EQ(bulk_row.ShedRate(), 1.0 / 3.0);

    // Per-tier latency digests are recorded at admission, over accepted
    // requests only, and add up to the global histogram.
    EXPECT_GT(gold_row.latency.p50_ms, 0.0);
    EXPECT_GT(bulk_row.latency.p50_ms, 0.0);
    EXPECT_EQ(service.tier_latency_histogram(0).count() +
                  service.tier_latency_histogram(1).count(),
              stats.accepted);
    EXPECT_GE(stats.max_ms, std::max(gold_row.latency.max_ms,
                                     bulk_row.latency.max_ms));

    // Tier totals reconcile with the global counters.
    EXPECT_EQ(gold_row.submitted + bulk_row.submitted, stats.submitted);
    EXPECT_EQ(gold_row.accepted + bulk_row.accepted, stats.accepted);
    EXPECT_DOUBLE_EQ(gold_row.busy_ms + bulk_row.busy_ms, 5.0 * est);
}

TEST(SceneRegistry, RejectsAliasScenesAndDuplicateNames)
{
    PlanCache cache;
    SceneRegistry registry(cache);
    registry.Register("ngp", NgpFlexScene());
    // Same spec under a second name would double-count the estimation
    // run and split one frame across two stat rows — rejected outright
    // (the label is presentation only and does not de-alias).
    SweepPoint alias = NgpFlexScene();
    alias.label = "different label";
    EXPECT_DEATH(registry.Register("ngp-alias", alias),
                 "duplicates the spec");
    EXPECT_DEATH(registry.Register("ngp", NgpFlexScene()),
                 "duplicates the spec");
    // A genuinely different spec registers fine.
    SweepPoint other = NgpFlexScene();
    other.precision = Precision::kInt4;
    registry.Register("ngp-int4", other);
    EXPECT_EQ(registry.size(), 2u);

    // The guard keys on the frame the spec lowers to, not on raw spec
    // fields: the GPU model ignores precision, so two GPU scenes
    // differing only there are aliases of one frame and are rejected.
    SweepPoint gpu16 = NgpFlexScene();
    gpu16.backend = Backend::kGpu;
    gpu16.precision = Precision::kInt16;
    registry.Register("ngp-gpu", gpu16);
    SweepPoint gpu8 = gpu16;
    gpu8.precision = Precision::kInt8;
    EXPECT_DEATH(registry.Register("ngp-gpu-int8", gpu8),
                 "duplicates the spec");
}

TEST(SceneRegistry, RacingFirstTouchesConvergeToOneEntry)
{
    // Many workers touch one cold scene at once: duplicate prepares may
    // race, but exactly one compile is counted, one entry survives, and
    // every caller observes the same estimate.
    PlanCache cache;
    SceneRegistry registry(cache);
    const SceneId ngp = registry.Register("ngp", NgpFlexScene());

    ThreadPool pool(8);
    std::vector<double> estimates(16, 0.0);
    pool.ParallelFor(16, [&registry, &estimates, ngp](std::int64_t i) {
        estimates[static_cast<std::size_t>(i)] =
            registry.Touch(ngp)->cost.latency_ms;
    });
    const FrameCost reference = Reference("Instant-NGP");
    for (double estimate : estimates) {
        EXPECT_EQ(estimate, reference.latency_ms);
    }
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().plan_misses, 1u);
    // Exactly one estimation run executed (racers serialize on the
    // per-scene mutex and adopt the winner's entry), so no touch ever
    // replays from the result memo — frame hits stay reserved for
    // actual requests.
    EXPECT_EQ(cache.stats().frame_hits, 0u);
    const std::vector<SceneStats> stats = registry.Stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].requests, 16u);
    EXPECT_EQ(stats[0].prepared_replays, 15u);
}

TEST(RenderService, SnapshotIsZeroSafeWhenNothingWasAccepted)
{
    ServeConfig config;
    config.threads = 1;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    const double est = EstimatedServiceMs(service.WarmScene("ngp"));

    SceneRequest hopeless;
    hopeless.scene = "ngp";
    hopeless.arrival_ms = 100.0;
    hopeless.deadline_ms = 0.5 * est;  // infeasible even when idle
    EXPECT_EQ(service.Wait(service.Submit(hopeless).ticket).status,
              RequestStatus::kShedDeadline);

    const ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.accepted, 0u);
    EXPECT_EQ(stats.makespan_ms, 0.0);  // not -100 (no completion ever)
    EXPECT_EQ(stats.sustained_qps, 0.0);
    EXPECT_EQ(stats.utilization, 0.0);
    EXPECT_EQ(stats.p50_ms, 0.0);
}

TEST(RenderService, MultiThreadedSoakKeepsEveryInvariant)
{
    // Hammer one service from several submitter threads while first
    // touches compile on its pool: the TSan/ASan target for the whole
    // subsystem.
    // Admission order is nondeterministic here, so the assertions are
    // the order-free invariants.
    ServeConfig config;
    config.threads = 4;
    config.plan_cache_capacity = 2;  // force evictions under load
    config.admission.max_queue_depth = 16;
    config.admission.default_deadline_ms = 1e7;
    RenderService service(config);

    const std::vector<std::string> models = {"Instant-NGP", "KiloNeRF",
                                             "TensoRF"};
    std::vector<FrameCost> references;
    for (const std::string& model : models) {
        SweepPoint spec = NgpFlexScene();
        spec.model = model;
        service.RegisterScene(model, spec);
        references.push_back(Reference(model));
    }
    // No warm-up on purpose: first touches race between submitters, and
    // the frame-hit accounting below must stay exact regardless.

    constexpr int kThreads = 4;
    constexpr int kPerThread = 40;
    std::vector<std::thread> submitters;
    std::mutex tickets_mutex;
    std::vector<ServeTicket> tickets;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&service, &models, &tickets,
                                 &tickets_mutex, t] {
            for (int i = 0; i < kPerThread; ++i) {
                SceneRequest request;
                request.scene = models[static_cast<std::size_t>(
                    (t + i) % static_cast<int>(models.size()))];
                request.priority = i % 3;
                request.arrival_ms = static_cast<double>(i);
                const ServeTicket ticket = service.Submit(request).ticket;
                std::lock_guard<std::mutex> lock(tickets_mutex);
                tickets.push_back(ticket);
            }
        });
    }
    for (std::thread& submitter : submitters) submitter.join();
    const std::vector<RenderResult> results = service.WaitAll();

    ASSERT_EQ(results.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    std::uint64_t completed = 0;
    for (const RenderResult& result : results) {
        if (result.status != RequestStatus::kCompleted) continue;
        ++completed;
        std::size_t m = 0;
        while (models[m] != result.scene) ++m;
        ExpectBitIdentical(result.cost, references[m]);
    }
    const ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.submitted,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(stats.submitted, stats.accepted + stats.rejected_queue_full +
                                   stats.shed_deadline);
    EXPECT_EQ(stats.completed, stats.accepted);
    EXPECT_EQ(completed, stats.accepted);
    // Pinned scenes ride out LRU eviction: three scenes in a
    // two-entry cache still serve every accepted request prepared.
    EXPECT_EQ(stats.cache.plan_misses, 3u);
    EXPECT_EQ(stats.cache.evictions, 1u);
    EXPECT_EQ(stats.cache.frame_hits, stats.accepted);
}

/** The three Submit paths the inline-resolution contract covers. */
enum class ServePath { kSolo, kBatched, kSession };

/** What one fixed stream through a fresh service produced. */
struct PathRun {
    std::vector<RenderResult> results;  //!< WaitAll, in ticket order
    ServiceStats stats;                 //!< Snapshot after WaitAll
    /** Whether completed == accepted held right after every Submit,
     *  before any Wait. */
    bool resolved_in_submit = true;
};

/**
 * Submits a fixed stream of 24 requests at 2.5x one device's full-frame
 * load (10x for session frames) through a fresh service on @p path. The depth cap and deadline make
 * the stream mix accepted, shed and rejected verdicts; the session
 * path teleports once to force a coherence break.
 */
PathRun
RunPath(ServePath path, int threads)
{
    const double est = EstimatedServiceMs(Reference("Instant-NGP"));
    ServeConfig config;
    config.threads = threads;
    config.admission.max_queue_depth = 4;
    if (path == ServePath::kBatched) config.batch_window_ms = 2.0 * est;
    RenderService service(config);
    SweepPoint kilo = NgpFlexScene();
    kilo.model = "KiloNeRF";
    service.RegisterScene("ngp", NgpFlexScene());
    service.RegisterScene("kilo", kilo);
    service.WarmScene("ngp");
    service.WarmScene("kilo");
    const SessionId session =
        path == ServePath::kSession ? service.OpenSession("ngp") : 0;

    PathRun run;
    for (int i = 0; i < 24; ++i) {
        SceneRequest request;
        request.scene =
            path == ServePath::kSession || i % 3 != 0 ? "ngp" : "kilo";
        // Session deltas are far cheaper than full frames, so session
        // traffic arrives denser to meet the same backlog.
        request.arrival_ms =
            (path == ServePath::kSession ? 0.1 : 0.4) * est * i;
        request.deadline_ms = 3.0 * est;
        SubmitOptions options;
        options.session = session;
        options.pose.x = 0.02 * i + (i >= 12 ? 100.0 : 0.0);
        service.Submit(request, options);
        const ServiceStats stats = service.Snapshot();
        run.resolved_in_submit =
            run.resolved_in_submit && stats.completed == stats.accepted;
    }
    run.results = service.WaitAll();
    run.stats = service.Snapshot();
    return run;
}

TEST(RenderService, SoloAndSessionRequestsResolveInsideSubmit)
{
    for (const ServePath path : {ServePath::kSolo, ServePath::kSession}) {
        const PathRun run = RunPath(path, 2);
        EXPECT_TRUE(run.resolved_in_submit);
        EXPECT_EQ(run.stats.completed, run.stats.accepted);
        EXPECT_EQ(run.stats.cache.frame_hits, run.stats.accepted);
        EXPECT_GT(run.stats.accepted, 0u);
        EXPECT_GT(run.stats.rejected_queue_full + run.stats.shed_deadline,
                  0u);
    }
    const ServiceStats session = RunPath(ServePath::kSession, 2).stats;
    EXPECT_GT(session.delta_frames, 0u);
    EXPECT_GT(session.coherence_breaks, 0u);
}

TEST(BatchedRenderService, MembersResolveWhenTheirBatchFlushes)
{
    const PathRun run = RunPath(ServePath::kBatched, 2);
    // Open batches hold their members' results until they flush.
    EXPECT_FALSE(run.resolved_in_submit);
    EXPECT_EQ(run.stats.completed, run.stats.accepted);
    EXPECT_EQ(run.stats.cache.frame_hits, run.stats.batches_dispatched);
    EXPECT_GT(run.stats.fused_batches, 0u);
}

TEST(BatchedRenderService, WaitOnAnOpenBatchMemberReturnsItsFlushedResult)
{
    ServeConfig config;
    config.threads = 2;
    config.batch_window_ms = 1e6;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    const FrameCost warm = service.WarmScene("ngp");

    std::vector<ServeTicket> tickets;
    for (int i = 0; i < 3; ++i) {
        SceneRequest request;
        request.scene = "ngp";
        tickets.push_back(service.Submit(request).ticket);
    }
    EXPECT_EQ(service.Snapshot().accepted, 3u);
    EXPECT_EQ(service.Snapshot().completed, 0u);

    const RenderResult joiner = service.Wait(tickets[1]);
    EXPECT_EQ(joiner.status, RequestStatus::kCompleted);
    EXPECT_EQ(joiner.batch_elements, 3u);
    ExpectBitIdentical(joiner.cost, warm);
    EXPECT_EQ(service.Snapshot().completed, 3u);

    // The flush resolved the other members too; they stay claimable.
    const std::vector<RenderResult> rest = service.WaitAll();
    ASSERT_EQ(rest.size(), 2u);
    for (const RenderResult& result : rest) {
        EXPECT_EQ(result.batch_elements, 3u);
    }
}

TEST(RenderService, EveryPathIsThreadCountInvariant)
{
    for (const ServePath path :
         {ServePath::kSolo, ServePath::kBatched, ServePath::kSession}) {
        const PathRun reference = RunPath(path, 1);
        ASSERT_EQ(reference.results.size(), 24u);
        for (const int threads : {2, 8}) {
            const PathRun run = RunPath(path, threads);
            ASSERT_EQ(run.results.size(), reference.results.size());
            for (std::size_t i = 0; i < run.results.size(); ++i) {
                const RenderResult& got = run.results[i];
                const RenderResult& want = reference.results[i];
                EXPECT_EQ(got.status, want.status) << i;
                EXPECT_EQ(got.scene, want.scene) << i;
                EXPECT_EQ(got.tier, want.tier) << i;
                ExpectBitIdentical(got.cost, want.cost);
                EXPECT_EQ(got.queue_wait_ms, want.queue_wait_ms) << i;
                EXPECT_EQ(got.latency_ms, want.latency_ms) << i;
                EXPECT_EQ(got.batch_elements, want.batch_elements) << i;
            }
            EXPECT_EQ(run.stats.completed, reference.stats.completed);
            EXPECT_EQ(run.stats.p99_ms, reference.stats.p99_ms);
        }
    }
}

TEST(BatchedRenderService, DestroysWithUnclaimedTicketsAndAnOpenBatch)
{
    // Nothing is waited on: the service goes out of scope holding an
    // unclaimed solo result and a still-open batch (the ASan target).
    ServeConfig config;
    config.threads = 2;
    config.batch_window_ms = 1e6;
    auto service = std::make_unique<RenderService>(config);
    service->RegisterScene("ngp", NgpFlexScene());
    service->WarmScene("ngp");
    SceneRequest request;
    request.scene = "ngp";
    SubmitOptions solo;
    solo.batching = false;
    service->Submit(request, solo);
    service->Submit(request);
    service->Submit(request);
    const ServiceStats stats = service->Snapshot();
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.completed, 1u);
    service.reset();
}

TEST(RenderService, SnapshotsAreAConsistentCut)
{
    // Four threads submit solo requests to warmed scenes while a fifth
    // snapshots in a loop. One lock guards every counter a snapshot
    // reads, so each snapshot falls between whole requests.
    const double est = EstimatedServiceMs(Reference("Instant-NGP"));
    ServeConfig config;
    config.threads = 2;
    config.admission.max_queue_depth = 6;
    config.admission.tiers.resize(2);
    config.admission.tiers[0].weight = 3.0;
    config.admission.tiers[0].default_deadline_ms = 4.0 * est;
    config.admission.tiers[1].default_deadline_ms = 2.0 * est;
    RenderService service(config);
    const std::vector<std::string> models = {"Instant-NGP", "KiloNeRF"};
    for (const std::string& model : models) {
        SweepPoint spec = NgpFlexScene();
        spec.model = model;
        service.RegisterScene(model, spec);
        service.WarmScene(model);
    }

    std::atomic<bool> done{false};
    std::uint64_t snapshots = 0;
    std::string violation;  // the first inconsistent snapshot, if any
    std::thread snapshotter([&] {
        do {
            const ServiceStats stats = service.Snapshot();
            ++snapshots;
            std::uint64_t tier_accepted = 0;
            for (const TierStats& tier : stats.tiers) {
                tier_accepted += tier.accepted;
            }
            std::uint64_t scene_accepted = 0;
            for (const SceneStats& scene : stats.scenes) {
                scene_accepted += scene.accepted;
            }
            const bool consistent =
                stats.submitted == stats.accepted +
                                       stats.rejected_queue_full +
                                       stats.shed_deadline &&
                stats.completed == stats.accepted &&
                tier_accepted == stats.accepted &&
                scene_accepted == stats.accepted;
            if (!consistent && violation.empty()) {
                violation = "submitted " + std::to_string(stats.submitted) +
                            " accepted " + std::to_string(stats.accepted) +
                            " completed " + std::to_string(stats.completed) +
                            " tiers " + std::to_string(tier_accepted) +
                            " scenes " + std::to_string(scene_accepted);
            }
        } while (!done.load());
    });

    constexpr int kThreads = 4;
    constexpr int kPerThread = 300;
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&service, &models, est, t] {
            for (int i = 0; i < kPerThread; ++i) {
                SceneRequest request;
                request.scene = models[static_cast<std::size_t>(i % 2)];
                request.tier = static_cast<std::size_t>((t + i) % 2);
                request.arrival_ms = 0.5 * est * i;
                service.Submit(request);
            }
        });
    }
    for (std::thread& submitter : submitters) submitter.join();
    done = true;
    snapshotter.join();

    EXPECT_TRUE(violation.empty()) << violation;
    EXPECT_GT(snapshots, 0u);
    const ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.submitted,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_GT(stats.accepted, 0u);
    EXPECT_GT(stats.rejected_queue_full + stats.shed_deadline, 0u);
}

/** Every result of one cold-shape stream by ticket, and its snapshot. */
struct ColdShapeRun {
    std::map<ServeTicket, RenderResult> results;
    ServiceStats stats;
};

/**
 * One submitter drives a batch-window service with one open session
 * through two phases: same-scene bursts of 2..5 requests (each burst
 * compiles the next cold fused shape), then session frames panning at
 * growing steps (each step compiles a cold delta shape). Both compile
 * on the pool under the service lock. With @p contend, other threads
 * meanwhile loop on Snapshot and Probe, and in the session phase a
 * waiter claims each frame's ticket as soon as it is issued. A Wait
 * flushes every open batch, so the waiter starts only once no batch can
 * gain a member, where an early flush changes nothing.
 */
ColdShapeRun
RunColdShapeStream(bool contend)
{
    const double est = EstimatedServiceMs(Reference("Instant-NGP"));
    ServeConfig config;
    config.threads = 4;
    config.batch_window_ms = 1e-3;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    service.WarmScene("ngp");
    const SessionId session = service.OpenSession("ngp");

    std::atomic<bool> done{false};
    std::vector<std::thread> contenders;
    if (contend) {
        contenders.emplace_back([&] {
            while (!done.load()) service.Snapshot();
        });
        contenders.emplace_back([&] {
            while (!done.load()) service.Probe(0.0, est);
        });
    }

    ColdShapeRun run;
    double arrival_ms = 0.0;
    for (int burst = 2; burst <= 5; ++burst, arrival_ms += 10.0 * est) {
        for (int i = 0; i < burst; ++i) {
            SceneRequest request;
            request.scene = "ngp";
            request.arrival_ms = arrival_ms;
            service.Submit(request);
        }
    }

    std::mutex handoff_mutex;
    std::condition_variable handoff;
    std::vector<ServeTicket> issued;
    bool issuing = true;
    std::thread waiter;
    if (contend) {
        waiter = std::thread([&] {
            for (std::size_t next = 0;; ++next) {
                ServeTicket ticket = 0;
                {
                    std::unique_lock<std::mutex> lock(handoff_mutex);
                    handoff.wait(lock, [&] {
                        return next < issued.size() || !issuing;
                    });
                    if (next == issued.size()) return;
                    ticket = issued[next];
                }
                RenderResult result = service.Wait(ticket);
                std::lock_guard<std::mutex> lock(handoff_mutex);
                run.results.emplace(ticket, std::move(result));
            }
        });
    }
    Pose pose;
    for (const double step : {0.0, 0.05, 0.1, 0.15, 0.2, 0.3}) {
        pose.x += step;
        SceneRequest request;
        request.scene = "ngp";
        request.arrival_ms = arrival_ms;
        arrival_ms += 10.0 * est;
        SubmitOptions options;
        options.session = session;
        options.pose = pose;
        const ServeTicket ticket = service.Submit(request, options).ticket;
        std::lock_guard<std::mutex> lock(handoff_mutex);
        issued.push_back(ticket);
        handoff.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(handoff_mutex);
        issuing = false;
        handoff.notify_one();
    }
    if (waiter.joinable()) waiter.join();
    done = true;
    for (std::thread& contender : contenders) contender.join();

    // WaitAll returns the unclaimed tickets in ticket order.
    std::vector<RenderResult> rest = service.WaitAll();
    std::size_t next = 0;
    for (ServeTicket ticket = 0; next < rest.size(); ++ticket) {
        if (run.results.count(ticket) != 0) continue;
        run.results.emplace(ticket, std::move(rest[next++]));
    }
    run.stats = service.Snapshot();
    return run;
}

TEST(RenderService, ColdShapeCompilesUnderTheLockRaceEveryServiceCall)
{
    const ColdShapeRun reference = RunColdShapeStream(/*contend=*/false);
    // The warm frame, four fused shapes (2..5 elements) and five delta
    // shapes compiled.
    EXPECT_EQ(reference.stats.cache.plan_misses, 1u + 4u + 5u);
    EXPECT_EQ(reference.stats.cache.delta_misses, 5u);
    EXPECT_EQ(reference.stats.fused_batches, 4u);
    EXPECT_EQ(reference.stats.delta_frames, 5u);

    const ColdShapeRun run = RunColdShapeStream(/*contend=*/true);
    ASSERT_EQ(run.results.size(), reference.results.size());
    for (const auto& [ticket, want] : reference.results) {
        const auto found = run.results.find(ticket);
        ASSERT_NE(found, run.results.end()) << ticket;
        const RenderResult& got = found->second;
        EXPECT_EQ(got.status, want.status) << ticket;
        ExpectBitIdentical(got.cost, want.cost);
        EXPECT_EQ(got.queue_wait_ms, want.queue_wait_ms) << ticket;
        EXPECT_EQ(got.latency_ms, want.latency_ms) << ticket;
        EXPECT_EQ(got.batch_elements, want.batch_elements) << ticket;
    }
    EXPECT_EQ(run.stats.accepted, reference.stats.accepted);
    EXPECT_EQ(run.stats.batches_dispatched,
              reference.stats.batches_dispatched);
    EXPECT_EQ(run.stats.session_mean_reuse,
              reference.stats.session_mean_reuse);
    EXPECT_EQ(run.stats.cache.plan_misses, reference.stats.cache.plan_misses);
    EXPECT_EQ(run.stats.cache.delta_misses,
              reference.stats.cache.delta_misses);
}

}  // namespace
}  // namespace flexnerfer
