/**
 * @file
 * Traffic-zoo benchmark: production-shaped workloads pushed through the
 * tiered WFQ admission path and through the legacy FIFO discipline,
 * side by side, with per-tier verdict and latency telemetry.
 *
 * Every scenario is a deterministic stream (see open_loop.h): a steady
 * overload, a diurnal ramp, a flash crowd on one hot scene (the worst
 * case for scene-affine HRW routing), a Zipf-skewed catalogue, a
 * low-tier flood, and a closed-loop client population. Each runs twice
 * against the same three-tier policy — paid / standard / free with
 * weights 6 / 3 / 1 — once under AdmissionDiscipline::kWeightedFair
 * and once under kFifo (all tiers collapsed onto one queue; deadlines,
 * caps, budgets and telemetry unchanged), so the tables read as an
 * apples-to-apples policy comparison on byte-identical arrivals.
 *
 * The bench asserts the PR's headline property on the flood scenario:
 * weighted fair queueing keeps the paid tier's shed rate within its 2%
 * budget while the FIFO baseline visibly breaches it. A final sharded
 * section replays the flash crowd against a 4-shard cluster to show
 * the hot scene's home shard absorbing the burst.
 *
 * stdout (thread-count invariant): per-scenario, per-tier tables plus
 * one machine-readable "[zoo] ..." line per (scenario, policy, tier),
 * which tools/bench_trajectory.sh folds into BENCH_ci.json. All values
 * are virtual (model) time. stderr: wall-clock throughput. --threads is
 * validated and ignored: every request runs on the submitting thread.
 *
 * With --batch-window-ms > 0 every service (and the sharded section's
 * replicas) fuses same-scene arrivals within the window into single
 * batched executions with marginal-cost admission
 * (serve/render_service.h); the per-run batching lines then report
 * batch occupancy and fused-frame counts. The default (0) preserves the
 * legacy single-frame path and its stdout byte-for-byte.
 *
 * With --trace-out PATH every (scenario, policy) run and the sharded
 * flash replay record into one Chrome trace-event JSON export;
 * --metrics-out PATH snapshots each run's ServiceStats into the
 * unified MetricsRegistry under a zoo.<scenario>.<policy> prefix. See
 * bench/trace_support.h.
 *
 * Usage: traffic_zoo [--threads N] [--requests N] [--seed N]
 *                    [--batch-window-ms F] [--trace-out PATH]
 *                    [--trace-clock virtual|wall] [--metrics-out PATH]
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/table.h"
#include "obs/metrics_registry.h"
#include "open_loop.h"
#include "runtime/sweep_runner.h"
#include "scene_repertoire.h"
#include "serve/cluster.h"
#include "serve/render_service.h"
#include "trace_support.h"

using namespace flexnerfer;

namespace {

/** The shared catalogue with its warm costs and estimates. */
struct Repertoire {
    std::vector<NamedScene> scenes;
    std::vector<double> est_ms;
    double mean_est_ms = 0.0;
    double max_est_ms = 0.0;
};

/** One zoo scenario: a name plus its stream configuration. */
struct Scenario {
    std::string name;
    ZooScenarioConfig config;
    bool closed_loop = false;
};

/** Per-tier outcome digest of one (scenario, policy) run. */
struct TierOutcome {
    double shed_rate = 0.0;
    bool within_budget = true;
};

constexpr std::size_t kPaid = 0;
constexpr std::size_t kStandard = 1;
constexpr std::size_t kFree = 2;

/**
 * The zoo's three-tier policy: paid gets a 6x capacity weight, a tight
 * deadline and a 2% shed budget; free rides on weight 1 with a loose
 * deadline and no budget. The global depth cap is off — per-tier caps
 * bound each queue, so a free-tier flood can never crowd the shared
 * table (that is the failure mode the FIFO baseline demonstrates).
 *
 * Deadline defaults are multiples of the catalogue's *heaviest*
 * critical-path estimate: scene costs span orders of magnitude, so a
 * mean-based deadline would shed heavy scenes on an idle device. 3x
 * the max leaves the paid tier, draining at >= 60% of the device,
 * headroom of well over one max-sized frame of queueing.
 */
AdmissionPolicy
ZooPolicy(double max_est_ms, AdmissionDiscipline discipline)
{
    AdmissionPolicy policy;
    policy.max_queue_depth = 0;
    policy.discipline = discipline;
    TierPolicy paid;
    paid.name = "paid";
    paid.weight = 6.0;
    paid.default_deadline_ms = 3.0 * max_est_ms;
    paid.shed_budget = 0.02;
    paid.max_queue_depth = 256;
    TierPolicy standard;
    standard.name = "standard";
    standard.weight = 3.0;
    standard.default_deadline_ms = 6.0 * max_est_ms;
    standard.shed_budget = 0.10;
    standard.max_queue_depth = 128;
    TierPolicy free_tier;
    free_tier.name = "free";
    free_tier.weight = 1.0;
    free_tier.default_deadline_ms = 12.0 * max_est_ms;
    free_tier.shed_budget = 1.0;
    free_tier.max_queue_depth = 64;
    policy.tiers = {paid, standard, free_tier};
    return policy;
}

/** The zoo's default traffic mix: 10% paid, 30% standard, 60% free. */
std::vector<TierMixEntry>
DefaultMix()
{
    return {{kPaid, /*priority=*/2, 0.10},
            {kStandard, /*priority=*/1, 0.30},
            {kFree, /*priority=*/0, 0.60}};
}

Repertoire
BuildRepertoire()
{
    // A throwaway single-thread service compiles every scene once so
    // the scenario schedules (deadline defaults, diurnal periods) can
    // be derived from the estimates. Scene costs are pure, so every
    // per-run service warms to the identical numbers.
    ServeConfig config;
    RenderService probe(config);
    Repertoire repertoire;
    repertoire.scenes = PaperSceneRepertoire();
    for (const NamedScene& scene : repertoire.scenes) {
        probe.RegisterScene(scene.name, scene.spec);
        repertoire.est_ms.push_back(
            EstimatedServiceMs(probe.WarmScene(scene.name)));
        repertoire.mean_est_ms += repertoire.est_ms.back();
        repertoire.max_est_ms =
            std::max(repertoire.max_est_ms, repertoire.est_ms.back());
    }
    repertoire.mean_est_ms /=
        static_cast<double>(repertoire.scenes.size());
    return repertoire;
}

std::vector<Scenario>
BuildScenarios(double mean_est_ms, std::size_t requests)
{
    // Nominal span of an open-loop run at its base load, used to place
    // windows and periods; rate boosts compress the realized span,
    // which only makes the windows proportionally wider.
    const auto span = [&](double load) {
        return static_cast<double>(requests) * mean_est_ms / load;
    };
    std::vector<Scenario> scenarios;

    Scenario steady;
    steady.name = "steady";
    steady.config.load = 1.3;
    steady.config.mix = DefaultMix();
    scenarios.push_back(steady);

    Scenario diurnal;
    diurnal.name = "diurnal";
    diurnal.config.load = 1.6;
    diurnal.config.diurnal_amplitude = 0.75;
    diurnal.config.diurnal_period_ms = span(1.6) / 2.0;
    diurnal.config.mix = DefaultMix();
    scenarios.push_back(diurnal);

    Scenario flash;
    flash.name = "flash";
    flash.config.load = 1.0;
    flash.config.flash_start_ms = span(1.0) / 3.0;
    flash.config.flash_end_ms = 2.0 * span(1.0) / 3.0;
    flash.config.flash_rate_boost = 3.0;
    flash.config.flash_hot_share = 0.8;
    flash.config.hot_scene = 0;
    flash.config.mix = DefaultMix();
    scenarios.push_back(flash);

    Scenario zipf;
    zipf.name = "zipf";
    zipf.config.load = 1.3;
    zipf.config.zipf_exponent = 1.1;
    zipf.config.mix = DefaultMix();
    scenarios.push_back(zipf);

    // The starvation stressor: sustained 1.7x overload, a 3x flash in
    // the middle half, and a mix skewed even further toward free. The
    // paid tier's peak offered load (0.10 x 1.7 x 3 = 0.51 devices)
    // stays under its guaranteed 60% capacity share — the provisioning
    // contract that makes its 2% shed budget holdable under WFQ while
    // the same stream buries the FIFO baseline.
    Scenario flood;
    flood.name = "flood";
    flood.config.load = 1.7;
    flood.config.flash_start_ms = span(1.7) / 4.0;
    flood.config.flash_end_ms = 3.0 * span(1.7) / 4.0;
    flood.config.flash_rate_boost = 3.0;
    flood.config.flash_hot_share = 0.9;
    flood.config.hot_scene = 0;
    flood.config.mix = {{kPaid, 2, 0.10},
                        {kStandard, 1, 0.15},
                        {kFree, 0, 0.75}};
    scenarios.push_back(flood);

    Scenario closed;
    closed.name = "closed";
    closed.closed_loop = true;
    scenarios.push_back(closed);

    return scenarios;
}

const char*
PolicyLabel(AdmissionDiscipline discipline)
{
    return discipline == AdmissionDiscipline::kWeightedFair ? "wfq"
                                                            : "fifo";
}

/**
 * Prints the per-tier table and the machine lines for one run and
 * returns the per-tier outcomes for the cross-policy assertions.
 */
std::vector<TierOutcome>
ReportRun(const std::string& scenario, AdmissionDiscipline discipline,
          const ServiceStats& stats, bool batching)
{
    std::printf("-- scenario=%s policy=%s: %zu submitted, %zu accepted, "
                "%.2f%% shed overall --\n",
                scenario.c_str(), PolicyLabel(discipline),
                stats.submitted, stats.accepted,
                100.0 * stats.ShedRate());
    if (batching) {
        std::printf("   batching: %zu batches dispatched (%zu fused, "
                    "occupancy %.3f, max %zu elements)\n",
                    static_cast<std::size_t>(stats.batches_dispatched),
                    static_cast<std::size_t>(stats.fused_batches),
                    stats.batch_occupancy, stats.max_batch_elements);
        std::printf("[zoo-batching] scenario=%s policy=%s batches=%zu "
                    "fused=%zu batched_requests=%zu occupancy=%.3f "
                    "max_elements=%zu\n",
                    scenario.c_str(), PolicyLabel(discipline),
                    static_cast<std::size_t>(stats.batches_dispatched),
                    static_cast<std::size_t>(stats.fused_batches),
                    static_cast<std::size_t>(stats.batched_requests),
                    stats.batch_occupancy, stats.max_batch_elements);
    }
    Table table({"Tier", "Weight", "Deadline [ms]", "Submitted",
                 "Accepted", "Rejected", "Shed", "Shed rate [%]",
                 "Budget [%]", "Within", "p50 [ms]", "p99 [ms]",
                 "QPS (model)"});
    std::vector<TierOutcome> outcomes;
    for (const TierStats& tier : stats.tiers) {
        const double qps =
            stats.makespan_ms > 0.0
                ? 1e3 * static_cast<double>(tier.accepted) /
                      stats.makespan_ms
                : 0.0;
        table.AddRow({tier.name, FormatDouble(tier.weight, 0),
                      FormatDouble(tier.default_deadline_ms, 3),
                      std::to_string(tier.submitted),
                      std::to_string(tier.accepted),
                      std::to_string(tier.rejected_queue_full),
                      std::to_string(tier.shed_deadline),
                      FormatDouble(100.0 * tier.ShedRate(), 2),
                      FormatDouble(100.0 * tier.shed_budget, 2),
                      tier.WithinShedBudget() ? "yes" : "NO",
                      FormatDouble(tier.latency.p50_ms, 3),
                      FormatDouble(tier.latency.p99_ms, 3),
                      FormatDouble(qps, 2)});
        std::printf("[zoo] scenario=%s policy=%s tier=%s submitted=%zu "
                    "accepted=%zu rejected=%zu shed=%zu "
                    "shed_rate_pct=%.2f budget_pct=%.2f "
                    "within_budget=%d p50_ms=%.3f p99_ms=%.3f "
                    "qps=%.2f\n",
                    scenario.c_str(), PolicyLabel(discipline),
                    tier.name.c_str(), tier.submitted, tier.accepted,
                    tier.rejected_queue_full, tier.shed_deadline,
                    100.0 * tier.ShedRate(), 100.0 * tier.shed_budget,
                    tier.WithinShedBudget() ? 1 : 0, tier.latency.p50_ms,
                    tier.latency.p99_ms, qps);
        outcomes.push_back({tier.ShedRate(), tier.WithinShedBudget()});
    }
    std::printf("%s\n", table.ToString().c_str());
    return outcomes;
}

/** Asserts the serving invariants every zoo run must uphold. */
void
CheckInvariants(const ServiceStats& stats, bool batching)
{
    FLEX_CHECK(stats.completed == stats.accepted);
    if (batching) {
        // Batched mode dispatches one fused (memoized) execution per
        // batch: the hit accounting follows batches, not requests.
        FLEX_CHECK_MSG(
            stats.cache.frame_hits == stats.batches_dispatched,
            "every dispatched batch must replay a prepared fused frame "
            "(frame hits "
                << stats.cache.frame_hits << " vs batches "
                << stats.batches_dispatched << ")");
        return;
    }
    FLEX_CHECK_MSG(stats.cache.frame_hits == stats.accepted,
                   "every accepted request must hit the prepared frame "
                   "path (frame hits "
                       << stats.cache.frame_hits << " vs accepted "
                       << stats.accepted << ")");
}

std::unique_ptr<RenderService>
MakeService(const Repertoire& repertoire,
            AdmissionDiscipline discipline, double batch_window_ms)
{
    ServeConfig config;
    config.admission = ZooPolicy(repertoire.max_est_ms, discipline);
    config.batch_window_ms = batch_window_ms;
    auto service = std::make_unique<RenderService>(config);
    for (const NamedScene& scene : repertoire.scenes) {
        service->RegisterScene(scene.name, scene.spec);
    }
    for (const NamedScene& scene : repertoire.scenes) {
        service->WarmScene(scene.name);
    }
    return service;
}

/** Drives one open-loop scenario through one policy. */
ServiceStats
RunOpenLoop(const Repertoire& repertoire, const Scenario& scenario,
            AdmissionDiscipline discipline, std::size_t requests,
            std::uint64_t seed, double batch_window_ms)
{
    const std::unique_ptr<RenderService> service =
        MakeService(repertoire, discipline, batch_window_ms);

    TrafficZooStream stream(seed, repertoire.mean_est_ms,
                            repertoire.scenes.size(), scenario.config);
    const auto wall_start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < requests; ++i) {
        const OpenLoopRequest drawn = stream.Next();
        SceneRequest request;
        request.scene = repertoire.scenes[drawn.scene_index].name;
        request.arrival_ms = drawn.arrival_ms;
        request.tier = drawn.tier;
        request.priority = drawn.priority;
        request.deadline_ms = 0.0;  // per-tier defaults rule the zoo
        service->Submit(request);
    }
    service->WaitAll();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    std::fprintf(stderr,
                 "[traffic_zoo] scenario=%s policy=%s: %zu requests, "
                 "%.1f ms wall\n",
                 scenario.name.c_str(), PolicyLabel(discipline), requests,
                 wall_ms);

    const ServiceStats stats = service->Snapshot();
    CheckInvariants(stats, batch_window_ms > 0.0);
    return stats;
}

/**
 * Drives the closed-loop scenario: a fixed client population per tier,
 * each client submitting, waiting for its verdict latency (shed
 * requests resolve instantly), thinking an exponential pause, then
 * submitting again. Feedback makes the arrival process self-pacing —
 * the population, not an offered-load knob, sets the pressure.
 */
ServiceStats
RunClosedLoop(const Repertoire& repertoire,
              AdmissionDiscipline discipline, std::size_t requests,
              std::uint64_t seed, double batch_window_ms)
{
    const std::unique_ptr<RenderService> service =
        MakeService(repertoire, discipline, batch_window_ms);

    struct Client {
        std::size_t tier = 0;
        int priority = 0;
        double next_ms = 0.0;
        Rng rng;
        Client(std::size_t t, int p, std::uint64_t s)
            : tier(t), priority(p), rng(s)
        {}
    };
    // 2 paid, 6 standard, 12 free clients; per-client seeds keep every
    // think-time stream independent of submission interleaving.
    std::vector<Client> clients;
    const std::size_t population[] = {2, 6, 12};
    const int priorities[] = {2, 1, 0};
    for (std::size_t tier = 0; tier < 3; ++tier) {
        for (std::size_t i = 0; i < population[tier]; ++i) {
            clients.emplace_back(
                tier, priorities[tier],
                seed + 1000 * (tier + 1) + clients.size());
        }
    }
    const double mean_think_ms = 2.0 * repertoire.mean_est_ms;

    const auto wall_start = std::chrono::steady_clock::now();
    for (std::size_t submitted = 0; submitted < requests; ++submitted) {
        // Next event: the client with the earliest wake-up, index as
        // the deterministic tiebreak.
        std::size_t pick = 0;
        for (std::size_t i = 1; i < clients.size(); ++i) {
            if (clients[i].next_ms < clients[pick].next_ms) pick = i;
        }
        Client& client = clients[pick];

        SceneRequest request;
        const auto scene_index = static_cast<std::size_t>(
            client.rng.UniformInt(
                0,
                static_cast<std::int64_t>(repertoire.scenes.size()) - 1));
        request.scene = repertoire.scenes[scene_index].name;
        request.arrival_ms = client.next_ms;
        request.tier = client.tier;
        request.priority = client.priority;
        const RenderResult result =
            service->Wait(service->Submit(request).ticket);

        // The client observes its virtual latency (0 when shed) and
        // thinks before the next request.
        const double think_ms =
            -mean_think_ms *
            std::log(1.0 - client.rng.Uniform(0.0, 1.0));
        client.next_ms += result.latency_ms + think_ms;
    }
    service->WaitAll();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - wall_start)
            .count();
    std::fprintf(stderr,
                 "[traffic_zoo] scenario=closed policy=%s: %zu requests "
                 "from %zu clients, %.1f ms wall\n",
                 PolicyLabel(discipline), requests, clients.size(),
                 wall_ms);

    const ServiceStats stats = service->Snapshot();
    CheckInvariants(stats, batch_window_ms > 0.0);
    return stats;
}

/**
 * Replays the flash crowd against a 4-shard cluster: scene-affine HRW
 * routing concentrates the hot scene on its one home shard, which is
 * exactly where the burst lands — the spill path and the tier table
 * show how the cluster absorbs it.
 */
void
RunShardedFlash(const Repertoire& repertoire, const Scenario& flash,
                std::size_t requests, std::uint64_t seed,
                double batch_window_ms)
{
    ClusterConfig config;
    config.shards = 4;
    config.admission =
        ZooPolicy(repertoire.max_est_ms, AdmissionDiscipline::kWeightedFair);
    config.batch_window_ms = batch_window_ms;
    ShardedRenderService cluster(config);
    for (const NamedScene& scene : repertoire.scenes) {
        cluster.RegisterScene(scene.name, scene.spec);
    }
    for (const NamedScene& scene : repertoire.scenes) {
        cluster.WarmScene(scene.name);
    }

    TrafficZooStream stream(seed, repertoire.mean_est_ms,
                            repertoire.scenes.size(), flash.config);
    for (std::size_t i = 0; i < requests; ++i) {
        const OpenLoopRequest drawn = stream.Next();
        SceneRequest request;
        request.scene = repertoire.scenes[drawn.scene_index].name;
        request.arrival_ms = drawn.arrival_ms;
        request.tier = drawn.tier;
        request.priority = drawn.priority;
        cluster.Submit(request);
    }
    cluster.WaitAll();

    const ClusterStats stats = cluster.Snapshot();
    FLEX_CHECK(stats.completed == stats.accepted);

    std::printf("== Sharded flash crowd: 4 shards, WFQ tiers, hot scene "
                "'%s' ==\n",
                repertoire.scenes[flash.config.hot_scene].name.c_str());
    Table per_shard({"Shard", "Homed", "Accepted", "Shed", "Rejected",
                     "Spill in", "Spill out"});
    std::size_t max_homed = 0;
    for (std::size_t i = 0; i < stats.per_shard.size(); ++i) {
        const ShardTelemetry& shard = stats.per_shard[i];
        max_homed = std::max(max_homed, shard.homed);
        per_shard.AddRow({std::to_string(i), std::to_string(shard.homed),
                          std::to_string(shard.service.accepted),
                          std::to_string(shard.service.shed_deadline),
                          std::to_string(shard.service.rejected_queue_full),
                          std::to_string(shard.spill_in),
                          std::to_string(shard.spill_out)});
    }
    if (batch_window_ms > 0.0) {
        std::printf("   batching: %zu batches dispatched across the "
                    "cluster (%zu fused, occupancy %.3f, max %zu "
                    "elements)\n",
                    static_cast<std::size_t>(stats.batches_dispatched),
                    static_cast<std::size_t>(stats.fused_batches),
                    stats.batch_occupancy,
                    static_cast<std::size_t>(stats.max_batch_elements));
    }
    std::printf("%s\n", per_shard.ToString().c_str());
    // The crowd hammers one scene, so one home shard must dominate the
    // homed counts: strictly more than an even split.
    FLEX_CHECK_MSG(
        max_homed > requests / stats.per_shard.size(),
        "flash crowd failed to concentrate on the hot scene's home "
        "shard (max homed "
            << max_homed << " of " << requests << ")");

    Table tiers({"Tier", "Submitted", "Accepted", "Rejected", "Shed",
                 "Shed rate [%]", "Within", "p50 [ms]", "p99 [ms]"});
    for (const TierStats& tier : stats.tiers) {
        tiers.AddRow({tier.name, std::to_string(tier.submitted),
                      std::to_string(tier.accepted),
                      std::to_string(tier.rejected_queue_full),
                      std::to_string(tier.shed_deadline),
                      FormatDouble(100.0 * tier.ShedRate(), 2),
                      tier.WithinShedBudget() ? "yes" : "NO",
                      FormatDouble(tier.latency.p50_ms, 3),
                      FormatDouble(tier.latency.p99_ms, 3)});
    }
    std::printf("%s\n", tiers.ToString().c_str());
}

}  // namespace

int
main(int argc, char** argv)
{
    ThreadsFromArgs(argc, argv);
    const std::int64_t requests_arg =
        IntFromArgs(argc, argv, "--requests", 800);
    if (requests_arg <= 0 || requests_arg > 10000000) {
        Fatal("invalid --requests value " + std::to_string(requests_arg) +
              " (expected an integer in [1, 10000000])");
    }
    const auto requests = static_cast<std::size_t>(requests_arg);
    const auto seed = static_cast<std::uint64_t>(
        IntFromArgs(argc, argv, "--seed", 20250806));
    const double batch_window_ms =
        DoubleFromArgs(argc, argv, "--batch-window-ms", 0.0);
    if (batch_window_ms < 0.0) {
        Fatal("invalid --batch-window-ms value (must be >= 0)");
    }
    const bool batching = batch_window_ms > 0.0;

    BenchTraceSession trace_session(argc, argv);
    MetricsRegistry registry;

    const Repertoire repertoire = BuildRepertoire();
    const std::vector<Scenario> scenarios =
        BuildScenarios(repertoire.mean_est_ms, requests);

    std::printf("== Traffic zoo: %zu requests per scenario over %zu "
                "scenes, tiers paid/standard/free at weights 6/3/1 ==\n\n",
                requests, repertoire.scenes.size());

    const Scenario* flash = nullptr;
    for (const Scenario& scenario : scenarios) {
        std::vector<TierOutcome> wfq;
        std::vector<TierOutcome> fifo;
        for (const AdmissionDiscipline discipline :
             {AdmissionDiscipline::kWeightedFair,
              AdmissionDiscipline::kFifo}) {
            const ServiceStats stats =
                scenario.closed_loop
                    ? RunClosedLoop(repertoire, discipline, requests,
                                    seed, batch_window_ms)
                    : RunOpenLoop(repertoire, scenario, discipline,
                                  requests, seed, batch_window_ms);
            std::vector<TierOutcome>& outcomes =
                discipline == AdmissionDiscipline::kWeightedFair ? wfq
                                                                 : fifo;
            outcomes =
                ReportRun(scenario.name, discipline, stats, batching);
            if (trace_session.metrics_requested()) {
                stats.PublishTo(registry, "zoo." + scenario.name + "." +
                                              PolicyLabel(discipline));
            }
        }
        if (scenario.name == "flash") flash = &scenario;
        if (scenario.name == "flood" && !batching) {
            // The headline property: under a low-tier flood, WFQ keeps
            // the paid tier within its 2% shed budget while the FIFO
            // baseline breaches it. Calibrated for the unbatched
            // stream — fused batching lowers shed on both sides, so
            // the FIFO-must-breach half no longer applies.
            FLEX_CHECK_MSG(wfq[kPaid].within_budget,
                           "WFQ must keep the paid tier within its shed "
                           "budget under the flood (shed rate "
                               << 100.0 * wfq[kPaid].shed_rate << "%)");
            FLEX_CHECK_MSG(!fifo[kPaid].within_budget,
                           "the FIFO baseline should breach the paid "
                           "tier's shed budget under the flood (shed "
                           "rate "
                               << 100.0 * fifo[kPaid].shed_rate << "%)");
            FLEX_CHECK(wfq[kPaid].shed_rate < fifo[kPaid].shed_rate);
        }
    }

    FLEX_CHECK(flash != nullptr);
    RunShardedFlash(repertoire, *flash, requests, seed, batch_window_ms);

    if (batching) {
        std::printf("Batched zoo complete: every scenario ran with a "
                    "%.0f model-ms fusion window; per-policy batching "
                    "lines above carry the occupancy evidence.\n",
                    batch_window_ms);
    } else {
        std::printf("Flood verdicts: WFQ held the paid tier within its "
                    "shed budget; the FIFO baseline breached it on the "
                    "identical stream.\n");
    }
    trace_session.Finish();
    trace_session.WriteMetrics(registry);
    return 0;
}
