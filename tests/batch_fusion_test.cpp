/**
 * @file
 * Tests for same-scene batch fusion: the FuseBatch workload transform
 * (structure, fingerprints, cache separation), the fused plan's
 * determinism and marginal-cost shape, the batched RenderService path
 * (per-element parity, counters, rerun-invariant verdicts), and the
 * batch-window edge cases (solo cap, mixed tiers, mid-window sheds).
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "accel/accelerator.h"
#include "accel/flexnerfer.h"
#include "models/workload.h"
#include "plan/frame_plan.h"
#include "plan/plan_cache.h"
#include "serve/admission.h"
#include "serve/render_service.h"
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

FlexNeRFerModel
Flex()
{
    FlexNeRFerModel::Config config;
    config.precision = Precision::kInt8;
    return FlexNeRFerModel(config);
}

TEST(FuseBatch, SingleElementIsTheIdentity)
{
    const NerfWorkload base = BuildWorkload("Instant-NGP");
    const NerfWorkload fused = FuseBatch(base, 1);
    EXPECT_EQ(fused.name, base.name);
    EXPECT_EQ(fused.ops.size(), base.ops.size());
    // Same fingerprint => same PlanCache key: a batch of one reuses the
    // solo frame instead of compiling a twin under another name.
    EXPECT_EQ(WorkloadFingerprint(fused), WorkloadFingerprint(base));
}

TEST(FuseBatch, ReplicatesOpsAndAddsCrossElementStageEdges)
{
    const NerfWorkload base = BuildWorkload("Instant-NGP");
    const std::size_t stride = base.ops.size();
    const NerfWorkload fused = FuseBatch(base, 3);

    EXPECT_EQ(fused.name, std::string(base.name) + "+batch3");
    ASSERT_EQ(fused.ops.size(), 3 * stride);
    EXPECT_EQ(fused.samples_per_frame, 3.0 * base.samples_per_frame);
    EXPECT_EQ(fused.batch_size, base.batch_size);

    for (std::size_t element = 0; element < 3; ++element) {
        for (std::size_t i = 0; i < stride; ++i) {
            const WorkloadOp& op = fused.ops[element * stride + i];
            EXPECT_EQ(op.name, std::string(base.ops[i].name) + "#e" +
                                   std::to_string(element));
            // Intra-element deps shift with the element...
            const std::size_t base_deps = base.ops[i].deps.size();
            ASSERT_EQ(op.deps.size(),
                      base_deps + (element > 0 ? 1u : 0u));
            for (std::size_t d = 0; d < base_deps; ++d) {
                EXPECT_EQ(op.deps[d],
                          base.ops[i].deps[d] + element * stride);
            }
            // ...and every op past element 0 waits on the *same stage*
            // of the previous element: unit stage occupancy, the edge
            // that makes the critical path overlap element N's tail
            // with element N+1's head.
            if (element > 0) {
                EXPECT_EQ(op.deps.back(), (element - 1) * stride + i);
            }
        }
    }
}

TEST(FuseBatch, FingerprintsSeparateBatchShapesInThePlanCache)
{
    const NerfWorkload base = BuildWorkload("Instant-NGP");
    const std::string solo = WorkloadFingerprint(base);
    const std::string two = WorkloadFingerprint(FuseBatch(base, 2));
    const std::string three = WorkloadFingerprint(FuseBatch(base, 3));
    EXPECT_NE(solo, two);
    EXPECT_NE(solo, three);
    EXPECT_NE(two, three);

    // Each shape compiles its own entry — no fused frame ever replays
    // a differently-shaped batch's memo.
    PlanCache cache;
    const FlexNeRFerModel flex = Flex();
    cache.Prepare(flex, base);
    cache.Prepare(flex, FuseBatch(base, 2));
    cache.Prepare(flex, FuseBatch(base, 3));
    EXPECT_EQ(cache.size(), 3u);
    EXPECT_EQ(cache.stats().plan_misses, 3u);
}

TEST(FuseBatch, MarginalCostStaysBelowTheSoloCriticalPath)
{
    // The economics the admission controller prices: growing a fused
    // frame by one element costs at most one bottleneck stage, so the
    // marginal critical path is positive yet below the solo frame's,
    // and the marginals telescope back to the fused total.
    const FlexNeRFerModel flex = Flex();
    const NerfWorkload base = BuildWorkload("Instant-NGP");
    std::vector<FrameCost> costs;
    for (std::size_t elements = 1; elements <= 4; ++elements) {
        costs.push_back(flex.Plan(FuseBatch(base, elements)).Execute());
    }
    const double solo = EstimatedServiceMs(costs[0]);
    double telescoped = solo;
    for (std::size_t k = 1; k < costs.size(); ++k) {
        const double marginal =
            EstimatedMarginalServiceMs(costs[k], costs[k - 1]);
        EXPECT_GT(marginal, 0.0) << "k = " << k;
        EXPECT_LT(marginal, solo) << "k = " << k;
        telescoped += marginal;
    }
    EXPECT_DOUBLE_EQ(telescoped, EstimatedServiceMs(costs.back()));
}

/** Submits @p count same-scene requests at one arrival instant. */
std::vector<ServeTicket>
SubmitBurst(RenderService* service, const std::string& scene,
            int count, double arrival_ms)
{
    std::vector<ServeTicket> tickets;
    for (int i = 0; i < count; ++i) {
        SceneRequest request;
        request.scene = scene;
        request.arrival_ms = arrival_ms;
        tickets.push_back(service->Submit(request).ticket);
    }
    return tickets;
}

TEST(BatchedRenderService, SingletonsCompileNothingAndEachShapeCompilesOnce)
{
    ServeConfig config;
    config.batch_window_ms = 10.0;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    const FrameCost warm = service.WarmScene("ngp");
    EXPECT_EQ(service.cache().stats().plan_misses, 1u);

    // A batch that flushes with one member is the scene frame itself:
    // it replays the pinned entry and compiles nothing.
    SubmitBurst(&service, "ngp", 1, 0.0);
    service.WaitAll();
    ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.batches_dispatched, 1u);
    EXPECT_EQ(stats.fused_batches, 0u);
    EXPECT_EQ(stats.cache.plan_misses, 1u);

    // The first two-element batch compiles (and estimation-runs) the
    // fused shape once; later two-element batches replay it.
    for (int window = 1; window <= 3; ++window) {
        const double arrival = 100.0 * window;
        for (const ServeTicket ticket :
             SubmitBurst(&service, "ngp", 2, arrival)) {
            const RenderResult result = service.Wait(ticket);
            EXPECT_EQ(result.batch_elements, 2u);
            ExpectBitIdentical(result.cost, warm);
        }
        EXPECT_EQ(service.cache().stats().plan_misses, 2u)
            << "window " << window;
    }
    stats = service.Snapshot();
    EXPECT_EQ(stats.fused_batches, 3u);
    EXPECT_EQ(stats.cache.frame_hits, stats.batches_dispatched);

    // The fused frame outgrows the solo one: a joiner's marginal price
    // is positive and below a whole frame.
    SceneRequest request;
    request.scene = "ngp";
    request.arrival_ms = 1000.0;
    service.Submit(request);
    const RequestPrice joiner = service.Preview(request);
    EXPECT_EQ(joiner.rule, PriceRule::kJoin);
    EXPECT_GT(joiner.price_ms, 0.0);
    EXPECT_LT(joiner.price_ms, EstimatedServiceMs(warm));
}

TEST(BatchedRenderService, FusedRequestsKeepPerElementParity)
{
    ServeConfig config;
    config.batch_window_ms = 1e6;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    const FrameCost warm = service.WarmScene("ngp");

    const std::vector<ServeTicket> tickets =
        SubmitBurst(&service, "ngp", 4, 0.0);
    for (ServeTicket ticket : tickets) {
        const RenderResult result = service.Wait(ticket);
        EXPECT_EQ(result.status, RequestStatus::kCompleted);
        // Every element of the fused execution reports the *solo* warm
        // cost: fusion is an execution strategy, not a result change.
        ExpectBitIdentical(result.cost, warm);
        EXPECT_EQ(result.batch_elements, 4u);
    }

    const ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.accepted, 4u);
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.batches_dispatched, 1u);
    EXPECT_EQ(stats.fused_batches, 1u);
    EXPECT_EQ(stats.batched_requests, 4u);
    EXPECT_EQ(stats.max_batch_elements, 4u);
    EXPECT_DOUBLE_EQ(stats.batch_occupancy, 4.0);
    // One fused dispatch replays one memoized frame — hit accounting
    // follows batches in fused mode.
    EXPECT_EQ(stats.cache.frame_hits, stats.batches_dispatched);
}

TEST(BatchedRenderService, FullBatchDispatchesAndReopens)
{
    ServeConfig config;
    config.batch_window_ms = 1e6;
    config.max_batch_elements = 2;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    service.WarmScene("ngp");

    SubmitBurst(&service, "ngp", 5, 0.0);
    service.WaitAll();
    const ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.accepted, 5u);
    // Cap 2 over 5 requests: two full batches plus a solo remainder.
    EXPECT_EQ(stats.batches_dispatched, 3u);
    EXPECT_EQ(stats.fused_batches, 2u);
    EXPECT_EQ(stats.max_batch_elements, 2u);
    EXPECT_EQ(stats.batched_requests, 4u);
}

TEST(BatchedRenderService, SoloCapKeepsEveryBatchASingleFrame)
{
    // max_batch_elements = 1: windows open and close but nothing ever
    // fuses — the degenerate configuration must still drain cleanly.
    ServeConfig config;
    config.batch_window_ms = 1e6;
    config.max_batch_elements = 1;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    const FrameCost warm = service.WarmScene("ngp");

    const std::vector<ServeTicket> tickets =
        SubmitBurst(&service, "ngp", 3, 0.0);
    for (ServeTicket ticket : tickets) {
        const RenderResult result = service.Wait(ticket);
        EXPECT_EQ(result.status, RequestStatus::kCompleted);
        EXPECT_EQ(result.batch_elements, 1u);
        ExpectBitIdentical(result.cost, warm);
    }
    const ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.batches_dispatched, 3u);
    EXPECT_EQ(stats.fused_batches, 0u);
    EXPECT_EQ(stats.max_batch_elements, 1u);
    EXPECT_DOUBLE_EQ(stats.batch_occupancy, 1.0);
}

TEST(BatchedRenderService, MixedTiersFuseIntoOneExecution)
{
    ServeConfig config;
    config.batch_window_ms = 1e6;
    TierPolicy paid;
    paid.name = "paid";
    paid.weight = 4.0;
    TierPolicy free_tier;
    free_tier.name = "free";
    free_tier.weight = 1.0;
    config.admission.tiers = {paid, free_tier};
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    service.WarmScene("ngp");

    std::vector<ServeTicket> tickets;
    for (int i = 0; i < 4; ++i) {
        SceneRequest request;
        request.scene = "ngp";
        request.tier = static_cast<std::size_t>(i % 2);
        request.arrival_ms = 0.0;
        tickets.push_back(service.Submit(request).ticket);
    }
    // Tiers shape verdicts, not batch membership: all four ride one
    // fused execution yet keep their own tier in the result.
    for (std::size_t i = 0; i < tickets.size(); ++i) {
        const RenderResult result = service.Wait(tickets[i]);
        EXPECT_EQ(result.status, RequestStatus::kCompleted);
        EXPECT_EQ(result.tier, i % 2);
        EXPECT_EQ(result.batch_elements, 4u);
    }
    const ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.batches_dispatched, 1u);
    ASSERT_EQ(stats.tiers.size(), 2u);
    EXPECT_EQ(stats.tiers[0].accepted, 2u);
    EXPECT_EQ(stats.tiers[1].accepted, 2u);
}

TEST(BatchedRenderService, MidWindowShedConsumesNoBatchSlot)
{
    ServeConfig config;
    config.batch_window_ms = 1e6;
    config.max_batch_elements = 3;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    const double est = EstimatedServiceMs(service.WarmScene("ngp"));

    SceneRequest request;
    request.scene = "ngp";
    request.arrival_ms = 0.0;
    const ServeTicket opener = service.Submit(request).ticket;
    // Infeasible even at the marginal price: sheds, and must leave the
    // open batch untouched.
    SceneRequest hopeless = request;
    hopeless.deadline_ms = 1e-6 * est;
    const ServeTicket shed = service.Submit(hopeless).ticket;
    const ServeTicket joiner_a = service.Submit(request).ticket;
    const ServeTicket joiner_b = service.Submit(request).ticket;

    const RenderResult shed_result = service.Wait(shed);
    EXPECT_EQ(shed_result.status, RequestStatus::kShedDeadline);
    EXPECT_EQ(shed_result.batch_elements, 1u);
    // All three accepted requests fit the 3-slot batch — the shed in
    // the middle did not burn a slot or split the batch.
    for (ServeTicket ticket : {opener, joiner_a, joiner_b}) {
        const RenderResult result = service.Wait(ticket);
        EXPECT_EQ(result.status, RequestStatus::kCompleted);
        EXPECT_EQ(result.batch_elements, 3u);
    }
    const ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.accepted, 3u);
    EXPECT_EQ(stats.shed_deadline, 1u);
    EXPECT_EQ(stats.batches_dispatched, 1u);
}

TEST(BatchedRenderService, WindowExpiryClosesTheBatchDeterministically)
{
    ServeConfig config;
    config.batch_window_ms = 10.0;
    RenderService service(config);
    service.RegisterScene("ngp", NgpFlexScene());
    service.WarmScene("ngp");

    SceneRequest request;
    request.scene = "ngp";
    request.arrival_ms = 0.0;
    const ServeTicket first = service.Submit(request).ticket;
    // Arrives after the 10 ms window closed: flushes the first batch
    // and opens its own.
    request.arrival_ms = 25.0;
    const ServeTicket second = service.Submit(request).ticket;

    EXPECT_EQ(service.Wait(first).batch_elements, 1u);
    EXPECT_EQ(service.Wait(second).batch_elements, 1u);
    const ServiceStats stats = service.Snapshot();
    EXPECT_EQ(stats.batches_dispatched, 2u);
    EXPECT_EQ(stats.fused_batches, 0u);
}

/** One deterministic mixed stream: bursts over three scenes with a
 *  tight-deadline shed salted in, submitted in a fixed order. */
std::vector<RenderResult>
RunDeterministicStream()
{
    ServeConfig config;
    config.batch_window_ms = 5e4;
    config.admission.max_queue_depth = 12;
    RenderService service(config);
    const std::vector<std::string> scenes = {"Instant-NGP", "KiloNeRF",
                                             "TensoRF"};
    for (const std::string& model : scenes) {
        SweepPoint spec = NgpFlexScene();
        spec.model = model;
        service.RegisterScene(model, spec);
        service.WarmScene(model);
    }

    std::vector<ServeTicket> tickets;
    for (int i = 0; i < 48; ++i) {
        SceneRequest request;
        request.scene = scenes[static_cast<std::size_t>(i) % 3];
        request.arrival_ms = 400.0 * (i / 6);  // bursts of six
        request.priority = i % 2;
        if (i % 11 == 7) request.deadline_ms = 1.0;  // forced shed
        tickets.push_back(service.Submit(request).ticket);
    }
    std::vector<RenderResult> results;
    for (ServeTicket ticket : tickets) {
        results.push_back(service.Wait(ticket));
    }
    return results;
}

TEST(BatchedRenderService, VerdictsAreInvariantAcrossReruns)
{
    // The determinism contract, batched edition: verdicts, latencies,
    // and batch shapes are pure functions of the admission order in
    // virtual time — a fresh service reproduces them exactly.
    const std::vector<RenderResult> one = RunDeterministicStream();
    const std::vector<RenderResult> again = RunDeterministicStream();
    ASSERT_EQ(one.size(), again.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].status, again[i].status) << "i = " << i;
        EXPECT_EQ(one[i].tier, again[i].tier) << "i = " << i;
        EXPECT_EQ(one[i].latency_ms, again[i].latency_ms) << "i = " << i;
        EXPECT_EQ(one[i].queue_wait_ms, again[i].queue_wait_ms)
            << "i = " << i;
        EXPECT_EQ(one[i].batch_elements, again[i].batch_elements)
            << "i = " << i;
        ExpectBitIdentical(one[i].cost, again[i].cost);
    }
}

}  // namespace
}  // namespace flexnerfer
