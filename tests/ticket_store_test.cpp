/**
 * @file
 * Tests for the dense ticket -> result stores of RenderService and
 * ShardedRenderService: out-of-order Wait with fused-batch members
 * resolving at their flush, Wait/WaitAll interleavings returning
 * results in ticket order, fatal double-consumed and never-issued
 * tickets, tickets claimed ahead of KillShard/Resize, and concurrent
 * submitters waiting on their own tickets (the TSan target).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "runtime/sweep_runner.h"
#include "serve/cluster.h"
#include "serve/render_service.h"
#include "serve/shard_router.h"
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

/** The two scenes the scripts run on, by model. */
const char* const kModels[] = {"Instant-NGP", "KiloNeRF"};

/**
 * Names for the two scenes that home on the same shard of a 2-shard
 * cluster. A cluster Wait flushes only its ticket's replica, a WaitAll
 * every replica holding unclaimed tickets; with one home both close
 * the same batches, so a script and its WaitAll-only reference fuse
 * identically.
 */
std::vector<std::string>
CoHomedNames()
{
    const ShardRouter router(2);
    for (int i = 1;; ++i) {
        const std::string name = "scene-" + std::to_string(i);
        if (router.Home(name) == router.Home("scene-0")) {
            return {"scene-0", name};
        }
    }
}

std::unique_ptr<RenderService>
MakeService(bool batching)
{
    ServeConfig config;
    config.admission.max_queue_depth = 0;
    if (batching) config.batch_window_ms = 1e6;
    auto service = std::make_unique<RenderService>(config);
    const std::vector<std::string> names = CoHomedNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        service->RegisterScene(names[i], FlexScene(kModels[i]));
        service->WarmScene(names[i]);
    }
    return service;
}

std::unique_ptr<ShardedRenderService>
MakeCluster(bool batching)
{
    ClusterConfig config;
    config.shards = 2;
    config.admission.max_queue_depth = 0;
    if (batching) config.batch_window_ms = 1e6;
    auto cluster = std::make_unique<ShardedRenderService>(config);
    const std::vector<std::string> names = CoHomedNames();
    for (std::size_t i = 0; i < names.size(); ++i) {
        cluster->RegisterScene(names[i], FlexScene(kModels[i]));
        cluster->WarmScene(names[i]);
    }
    return cluster;
}

const RenderResult&
ResultOf(const RenderResult& result)
{
    return result;
}

/** The ticket a Submit returned: a RenderService hands back a receipt,
 *  a cluster the bare ticket. */
std::uint64_t
TicketOf(const SubmitReceipt& receipt)
{
    return receipt.ticket;
}

std::uint64_t
TicketOf(ClusterTicket ticket)
{
    return ticket;
}

const RenderResult&
ResultOf(const ClusterRenderResult& result)
{
    return result.result;
}

/** One step of a ticket script. */
struct Step {
    enum class Kind { kSubmit, kWait, kWaitAll };
    Kind kind = Kind::kSubmit;
    std::size_t scene = 0;     //!< kSubmit: index into CoHomedNames
    bool batching = true;      //!< kSubmit: may join a fused batch
    std::uint64_t ticket = 0;  //!< kWait
};

Step
Submit(std::size_t scene, bool batching)
{
    Step step;
    step.scene = scene;
    step.batching = batching;
    return step;
}

Step
WaitOn(std::uint64_t ticket)
{
    Step step;
    step.kind = Step::Kind::kWait;
    step.ticket = ticket;
    return step;
}

Step
WaitAllStep()
{
    Step step;
    step.kind = Step::Kind::kWaitAll;
    return step;
}

using ResultsByTicket = std::map<std::uint64_t, RenderResult>;

/**
 * Runs @p steps against @p service and returns every claimed result by
 * ticket. Every request arrives at virtual 0, so each queues behind
 * the last and every ticket's latency is distinct. With @p as_written
 * false, each run of consecutive Wait/WaitAll steps collapses to one
 * WaitAll: every wait flushes the open batches, so the reference
 * closes the same batches and resolves each ticket identically.
 */
template <typename Service>
ResultsByTicket
RunScript(Service& service, const std::vector<Step>& steps, bool as_written)
{
    const std::vector<std::string> names = CoHomedNames();
    ResultsByTicket got;
    std::set<std::uint64_t> unclaimed;
    std::uint64_t next_ticket = 0;
    for (std::size_t i = 0; i < steps.size(); ++i) {
        Step::Kind kind = steps[i].kind;
        if (kind == Step::Kind::kSubmit) {
            SceneRequest request;
            request.scene = names[steps[i].scene];
            SubmitOptions options;
            options.batching = steps[i].batching;
            const std::uint64_t ticket =
                TicketOf(service.Submit(request, options));
            EXPECT_EQ(ticket, next_ticket++);  // issued sequentially
            unclaimed.insert(ticket);
            continue;
        }
        if (!as_written) {
            const bool last_of_run =
                i + 1 == steps.size() ||
                steps[i + 1].kind == Step::Kind::kSubmit;
            if (!last_of_run) continue;
            kind = Step::Kind::kWaitAll;
        }
        if (kind == Step::Kind::kWait) {
            got[steps[i].ticket] = ResultOf(service.Wait(steps[i].ticket));
            unclaimed.erase(steps[i].ticket);
            continue;
        }
        // WaitAll returns every unclaimed ticket, in ticket order.
        const auto all = service.WaitAll();
        EXPECT_EQ(all.size(), unclaimed.size()) << "step " << i;
        auto ticket = unclaimed.begin();
        for (std::size_t r = 0; r < all.size() && ticket != unclaimed.end();
             ++r, ++ticket) {
            got[*ticket] = ResultOf(all[r]);
        }
        unclaimed.clear();
    }
    EXPECT_TRUE(unclaimed.empty()) << "scripts end drained";
    return got;
}

void
ExpectSameResults(const ResultsByTicket& got, const ResultsByTicket& want)
{
    ASSERT_EQ(got.size(), want.size());
    std::set<double> latencies;
    for (const auto& [ticket, result] : got) {
        const RenderResult& expected = want.at(ticket);
        EXPECT_EQ(result.status, expected.status) << ticket;
        EXPECT_EQ(result.scene, expected.scene) << ticket;
        EXPECT_EQ(result.latency_ms, expected.latency_ms) << ticket;
        EXPECT_EQ(result.queue_wait_ms, expected.queue_wait_ms) << ticket;
        EXPECT_EQ(result.batch_elements, expected.batch_elements) << ticket;
        ExpectBitIdentical(result.cost, expected.cost,
                           "ticket " + std::to_string(ticket));
        latencies.insert(expected.latency_ms);
    }
    // Distinct per ticket, so a result returned under the wrong ticket
    // cannot match by accident.
    EXPECT_EQ(latencies.size(), want.size());
}

/** Runs @p steps as written and as its WaitAll-only reference on fresh
 *  instances from @p make, and checks they resolved identically. */
template <typename Make>
ResultsByTicket
CheckScript(Make make, const std::vector<Step>& steps)
{
    const auto service = make();
    const ResultsByTicket got = RunScript(*service, steps, true);
    const auto reference = make();
    const ResultsByTicket want = RunScript(*reference, steps, false);
    ExpectSameResults(got, want);
    return got;
}

/** Batched and solo tickets waited out of submission order: batch
 *  members resolve at the flush the first Wait forces, after later
 *  solo tickets. */
std::vector<Step>
OutOfOrderScript()
{
    return {
        Submit(0, true),   // t0 opens scene 0's batch
        Submit(0, false),  // t1 solo
        Submit(0, true),   // t2 joins t0
        Submit(1, true),   // t3 opens scene 1's batch
        Submit(0, false),  // t4 solo
        WaitOn(4),         // a later solo ticket first: flushes both
        WaitOn(2),
        WaitOn(0),
        Submit(0, true),   // t5 opens a fresh batch
        Submit(0, true),   // t6 joins t5
        Submit(1, false),  // t7 solo
        WaitOn(6),
        WaitOn(3),
        WaitAllStep(),     // t1, t5, t7
    };
}

void
ExpectOutOfOrderBatching(const ResultsByTicket& got)
{
    const std::map<std::uint64_t, std::size_t> elements = {
        {0, 2}, {1, 1}, {2, 2}, {3, 1}, {4, 1}, {5, 2}, {6, 2}, {7, 1}};
    for (const auto& [ticket, want] : elements) {
        EXPECT_EQ(got.at(ticket).status, RequestStatus::kCompleted) << ticket;
        EXPECT_EQ(got.at(ticket).batch_elements, want) << ticket;
    }
}

/** Wait -> WaitAll -> Wait interleavings across three submit bursts. */
std::vector<Step>
InterleavedScript()
{
    return {
        Submit(0, true), Submit(1, false), Submit(0, true),  // t0-t2
        Submit(1, true), Submit(0, false), Submit(1, true),  // t3-t5
        WaitOn(2),
        WaitAllStep(),  // t0, t1, t3, t4, t5
        Submit(0, false), Submit(1, true), Submit(0, true),  // t6-t8
        Submit(1, false),                                    // t9
        WaitOn(9),
        WaitOn(6),
        WaitAllStep(),  // t7, t8
        Submit(0, true), Submit(1, false),  // t10-t11
        WaitOn(10),
        WaitOn(11),
        WaitAllStep(),  // nothing left
    };
}

TEST(TicketStore, RenderServiceWaitsOutOfOrderWithBatchesOpen)
{
    ExpectOutOfOrderBatching(
        CheckScript([] { return MakeService(true); }, OutOfOrderScript()));
}

TEST(TicketStore, ClusterWaitsOutOfOrderWithBatchesOpen)
{
    ExpectOutOfOrderBatching(
        CheckScript([] { return MakeCluster(true); }, OutOfOrderScript()));
}

TEST(TicketStore, RenderServiceInterleavesWaitAndWaitAllInTicketOrder)
{
    EXPECT_EQ(CheckScript([] { return MakeService(true); },
                          InterleavedScript())
                  .size(),
              12u);
}

TEST(TicketStore, ClusterInterleavesWaitAndWaitAllInTicketOrder)
{
    EXPECT_EQ(CheckScript([] { return MakeCluster(true); },
                          InterleavedScript())
                  .size(),
              12u);
}

/** Submits three requests; claims the middle one, then the rest via
 *  WaitAll, and checks every consumed or never-issued ticket is fatal. */
template <typename Service>
void
ExpectConsumedTicketsAreFatal(Service& service, const char* message)
{
    SceneRequest request;
    request.scene = CoHomedNames()[0];
    const std::uint64_t first = TicketOf(service.Submit(request));
    const std::uint64_t middle = TicketOf(service.Submit(request));
    service.Submit(request);
    service.Wait(middle);
    // Claimed but not yet popped: an older ticket is still unclaimed.
    EXPECT_DEATH(service.Wait(middle), message);
    service.Wait(first);
    EXPECT_DEATH(service.Wait(first), message);  // popped off the front
    EXPECT_EQ(service.WaitAll().size(), 1u);
    EXPECT_DEATH(service.Wait(middle + 1), message);  // claimed by WaitAll
    EXPECT_DEATH(service.Wait(middle + 2), message);  // never issued
    EXPECT_DEATH(service.Wait(1u << 30), message);
}

TEST(TicketStoreDeathTest, RenderServiceRejectsConsumedAndUnissuedTickets)
{
    const auto service = MakeService(true);
    ExpectConsumedTicketsAreFatal(*service,
                                  "unknown or already-consumed serve ticket");
}

TEST(TicketStoreDeathTest, ClusterRejectsConsumedAndUnissuedTickets)
{
    const auto cluster = MakeCluster(true);
    ExpectConsumedTicketsAreFatal(
        *cluster, "unknown or already-consumed cluster ticket");
}

/** A 2-shard cluster of four warmed scenes, no batching, no caps. */
std::unique_ptr<ShardedRenderService>
MakeDrillCluster()
{
    ClusterConfig config;
    config.shards = 2;
    config.admission.max_queue_depth = 0;
    auto cluster = std::make_unique<ShardedRenderService>(config);
    for (const char* model :
         {"Instant-NGP", "KiloNeRF", "TensoRF", "NeRF"}) {
        cluster->RegisterScene(model, FlexScene(model));
        cluster->WarmScene(model);
    }
    return cluster;
}

/** Submits 24 requests at virtual 0, round-robin over the scenes, so
 *  every home shard builds a backlog. */
void
SubmitBacklog(ShardedRenderService& cluster)
{
    const char* const scenes[] = {"Instant-NGP", "KiloNeRF", "TensoRF",
                                  "NeRF"};
    for (std::uint64_t i = 0; i < 24; ++i) {
        SceneRequest request;
        request.scene = scenes[i % 4];
        EXPECT_EQ(cluster.Submit(request), i);
    }
}

/** What a disruption drill left: its return value and every result. */
struct DrillRun {
    std::size_t returned = 0;  //!< replay count or moved scenes
    std::map<std::uint64_t, ClusterRenderResult> results;
};

/**
 * Submits the backlog, claims @p early first, runs @p disrupt, then
 * drains the rest and one post-disruption ticket.
 */
template <typename Disrupt>
DrillRun
RunDrill(const std::set<std::uint64_t>& early, Disrupt disrupt)
{
    const auto cluster = MakeDrillCluster();
    SubmitBacklog(*cluster);
    DrillRun run;
    for (const std::uint64_t ticket : early) {
        run.results[ticket] = cluster->Wait(ticket);
    }
    run.returned = disrupt(*cluster);
    SceneRequest request;
    request.scene = "KiloNeRF";
    request.arrival_ms = 1e6;
    EXPECT_EQ(cluster->Submit(request), 24u);  // numbering carries on
    std::uint64_t ticket = 0;
    for (ClusterRenderResult& result : cluster->WaitAll()) {
        while (early.count(ticket) != 0) ++ticket;
        run.results[ticket++] = std::move(result);
    }
    EXPECT_EQ(run.results.size(), 25u);
    return run;
}

void
ExpectSameDrill(const DrillRun& got, const DrillRun& want)
{
    EXPECT_EQ(got.returned, want.returned);
    ASSERT_EQ(got.results.size(), want.results.size());
    for (const auto& [ticket, result] : got.results) {
        const ClusterRenderResult& expected = want.results.at(ticket);
        EXPECT_EQ(result.shard, expected.shard) << ticket;
        EXPECT_EQ(result.home_shard, expected.home_shard) << ticket;
        EXPECT_EQ(result.replayed, expected.replayed) << ticket;
        EXPECT_EQ(result.spill_surcharge_ms, expected.spill_surcharge_ms)
            << ticket;
        EXPECT_EQ(result.result.status, expected.result.status) << ticket;
        EXPECT_EQ(result.result.scene, expected.result.scene) << ticket;
        EXPECT_EQ(result.result.latency_ms, expected.result.latency_ms)
            << ticket;
        ExpectBitIdentical(result.result.cost, expected.result.cost,
                           "ticket " + std::to_string(ticket));
    }
}

/**
 * Early claims for a drill, among the tickets @p reference did not
 * replay (an early claim takes a ticket out of any replay): ticket 0,
 * which pops off the front of the store, then every third ticket and
 * every ticket @p reference resolved on @p shard. Ticket 1 stays
 * unclaimed, so those later claims sit mid-store during the drill.
 */
std::set<std::uint64_t>
EarlyClaims(const DrillRun& reference, std::size_t shard)
{
    std::set<std::uint64_t> early;
    for (std::uint64_t ticket = 0; ticket < 24; ++ticket) {
        const ClusterRenderResult& result = reference.results.at(ticket);
        if (ticket == 1 || result.replayed) continue;
        if (ticket == 0 || ticket % 3 == 0 || result.shard == shard) {
            early.insert(ticket);
        }
    }
    return early;
}

TEST(TicketStore, KillShardAfterEarlyClaimsReplaysTheSameTickets)
{
    std::size_t victim = 0;
    double now_ms = 0.0;
    {
        const auto probe = MakeDrillCluster();
        victim = probe->router().Home("Instant-NGP");
        now_ms = 2.5 * EstimatedServiceMs(probe->WarmScene("Instant-NGP"));
    }
    const auto kill = [victim, now_ms](ShardedRenderService& cluster) {
        return cluster.KillShard(victim, now_ms);
    };
    const DrillRun reference = RunDrill({}, kill);
    ASSERT_GE(reference.returned, 1u) << "the drill must replay";
    const std::set<std::uint64_t> early = EarlyClaims(reference, victim);
    // The kill must walk past claimed slots of its own shard.
    ASSERT_TRUE(std::any_of(early.begin(), early.end(),
                            [&](std::uint64_t ticket) {
                                return ticket > 1 &&
                                       reference.results.at(ticket).shard ==
                                           victim;
                            }));
    ExpectSameDrill(RunDrill(early, kill), reference);
}

TEST(TicketStore, ResizeAfterEarlyClaimsResolvesTheSameResults)
{
    const auto resize = [](ShardedRenderService& cluster) {
        return cluster.Resize(3);
    };
    const DrillRun reference = RunDrill({}, resize);
    ExpectSameDrill(RunDrill(EarlyClaims(reference, 0), resize), reference);
}

/**
 * Several threads each submit bursts and Wait on their own tickets, in
 * reverse order, never through WaitAll. Every result must carry the
 * scene its own ticket asked for, and nothing may be left unclaimed.
 */
template <typename Service>
void
SubmitAndWaitConcurrently(Service& service)
{
    constexpr int kThreads = 4;
    constexpr int kRounds = 10;
    constexpr int kBurst = 4;
    const std::vector<std::string> names = CoHomedNames();
    std::atomic<int> completed{0};
    std::atomic<int> mismatched{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                std::vector<std::pair<std::uint64_t, std::size_t>> mine;
                for (int i = 0; i < kBurst; ++i) {
                    SceneRequest request;
                    const std::size_t scene =
                        static_cast<std::size_t>(t + i) % names.size();
                    request.scene = names[scene];
                    request.arrival_ms = static_cast<double>(round);
                    SubmitOptions options;
                    options.batching = i % 2 == 0;
                    mine.emplace_back(
                        TicketOf(service.Submit(request, options)), scene);
                }
                std::reverse(mine.begin(), mine.end());
                for (const auto& [ticket, scene] : mine) {
                    const RenderResult result =
                        ResultOf(service.Wait(ticket));
                    if (result.scene != names[scene]) ++mismatched;
                    if (result.status == RequestStatus::kCompleted) {
                        ++completed;
                    }
                }
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatched.load(), 0);
    EXPECT_TRUE(service.WaitAll().empty());
    EXPECT_EQ(static_cast<std::uint64_t>(completed.load()),
              service.Snapshot().completed);
    EXPECT_EQ(service.Snapshot().submitted,
              static_cast<std::uint64_t>(kThreads * kRounds * kBurst));
}

TEST(TicketStore, ConcurrentSubmittersWaitOnTheirOwnTicketsBatched)
{
    const auto service = MakeService(true);
    SubmitAndWaitConcurrently(*service);
    EXPECT_GT(service->Snapshot().fused_batches, 0u);
}

TEST(TicketStore, ConcurrentSubmittersWaitOnTheirOwnTicketsInACluster)
{
    const auto cluster = MakeCluster(true);
    SubmitAndWaitConcurrently(*cluster);
}

}  // namespace
}  // namespace flexnerfer
