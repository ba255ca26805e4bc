/**
 * @file
 * Allocation budgets: zero heap allocations per warmed request, and
 * four per cold frame.
 *
 * This binary replaces the global operator new with a counting one (no
 * LD_PRELOAD, and no test framework, which would allocate on its own).
 * It warms a RenderService, then counts every allocation across 12k
 * solo Submits plus a Wait on each ticket, and fails unless the count
 * is zero. It does the same for a 2-shard cluster with spill and one
 * replicated scene (so home probes, spill probes and power-of-two
 * choices all run) and no transport. Both run again with a batch
 * window and trajectory sessions, so batches open, join and flush and
 * every fourth request is a session frame priced as a delta: once the
 * warm-up compiled every fused and delta shape the stream reaches,
 * those must not allocate either. Each window must hold accepted and
 * refused verdicts alike. The warm-up window before each count runs
 * the same traffic, so every store has seen its high-water mark.
 *
 * Cold frames run the Fig. 19 design grid (147 frames) through
 * BuildWorkload, FramePlanner::Compile and a serial FramePlan::Execute,
 * and every frame must allocate exactly once, twice and once: the op
 * list, the plan's op list and index block, and Execute's slots. A
 * second batch fuse or delta derivation of a workload, which finds
 * every derived op name already interned, must stay under a fixed
 * ceiling.
 */
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "models/trajectory.h"
#include "models/workload.h"
#include "plan/frame_planner.h"
#include "runtime/sweep_runner.h"
#include "serve/cluster.h"
#include "serve/render_service.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocations{0};

void*
Allocate(std::size_t size, std::size_t alignment = 0)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    size = std::max<std::size_t>(size, 1);
    void* p = nullptr;
    if (alignment == 0) {
        p = std::malloc(size);
    } else {
        // aligned_alloc wants a size that is a multiple of the alignment.
        p = std::aligned_alloc(alignment,
                               (size + alignment - 1) / alignment * alignment);
    }
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void*
operator new(std::size_t size, std::align_val_t alignment)
{
    return Allocate(size, static_cast<std::size_t>(alignment));
}
void*
operator new[](std::size_t size, std::align_val_t alignment)
{
    return Allocate(size, static_cast<std::size_t>(alignment));
}
void*
operator new(std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return Allocate(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}
void*
operator new[](std::size_t size, const std::nothrow_t&) noexcept
{
    try {
        return Allocate(size);
    } catch (const std::bad_alloc&) {
        return nullptr;
    }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace flexnerfer {
namespace {

/** Submits per round before the round waits on every ticket. */
constexpr std::size_t kRound = 100;
constexpr std::size_t kWarmRounds = 30;
/** 120 rounds: 12k counted requests. */
constexpr std::size_t kCountedRounds = 120;

/** Three scenes whose names outgrow the small-string buffer. */
struct Scene {
    std::string name;
    SweepPoint spec;
};

std::vector<Scene>
Scenes()
{
    std::vector<Scene> scenes;
    for (const char* model : {"Instant-NGP", "KiloNeRF", "TensoRF"}) {
        Scene scene;
        scene.name = std::string(model) + "/flexnerfer-int8";
        scene.spec.backend = Backend::kFlexNeRFer;
        scene.spec.precision = Precision::kInt8;
        scene.spec.model = model;
        scenes.push_back(scene);
    }
    return scenes;
}

/** Each scene's admission estimate, priced on a throwaway service. */
std::vector<double>
Estimates(const std::vector<Scene>& scenes)
{
    RenderService probe;
    std::vector<double> est_ms;
    for (const Scene& scene : scenes) {
        probe.RegisterScene(scene.name, scene.spec);
        est_ms.push_back(EstimatedServiceMs(probe.WarmScene(scene.name)));
    }
    return est_ms;
}

/** A short queue bound and a deadline: 2.5x load then refuses some
 *  requests and accepts the rest. */
AdmissionPolicy
Policy(const std::vector<double>& est_ms)
{
    AdmissionPolicy policy;
    policy.max_queue_depth = 4;
    policy.default_deadline_ms =
        3.0 * *std::max_element(est_ms.begin(), est_ms.end());
    return policy;
}

/** Round-robin requests arriving every 0.4 mean estimates. */
std::vector<SceneRequest>
Stream(const std::vector<Scene>& scenes, const std::vector<double>& est_ms)
{
    double mean_ms = 0.0;
    for (double est : est_ms) mean_ms += est;
    mean_ms /= static_cast<double>(est_ms.size());
    std::vector<SceneRequest> requests((kWarmRounds + kCountedRounds) *
                                       kRound);
    for (std::size_t i = 0; i < requests.size(); ++i) {
        requests[i].scene = scenes[i % scenes.size()].name;
        requests[i].arrival_ms = 0.4 * mean_ms * static_cast<double>(i);
    }
    return requests;
}

/** One request of the batched stream: a session frame when `session`
 *  (1-based, into the scene list) is set. */
struct MixedRequest {
    SceneRequest request;
    std::size_t session = 0;
    Pose pose;
};

/** Stream(), with every fourth request a frame of one of the scenes'
 *  trajectory sessions. A session sways between two poses a short pan
 *  apart (deltas) and every 16th frame jumps across the coherence break
 *  (a full frame), so however admission thins its frames, the reuse
 *  quanta it reaches stay a small closed set the warm-up compiles. */
std::vector<MixedRequest>
MixedStream(const std::vector<Scene>& scenes,
            const std::vector<double>& est_ms)
{
    const std::vector<SceneRequest> base = Stream(scenes, est_ms);
    std::vector<MixedRequest> requests(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
        MixedRequest& r = requests[i];
        r.request = base[i];
        if (i % 4 != 3) continue;
        const std::size_t slot = (i / 4) % scenes.size();
        const std::size_t frame = i / 4 / scenes.size();  // session's own
        r.session = slot + 1;
        r.request.scene = scenes[slot].name;
        r.pose.x = frame % 16 == 15 ? 1.0 : 0.05 * static_cast<double>(
                                                       frame % 2);
    }
    return requests;
}

/** @p r's submit options against @p sessions (one per scene). */
template <typename Sessions>
SubmitOptions
OptionsOf(const MixedRequest& r, const Sessions& sessions)
{
    SubmitOptions options;
    if (r.session != 0) {
        options.session = sessions[r.session - 1];
        options.pose = r.pose;
    }
    return options;
}

/** A batch window of two mean estimates, three elements at most. */
double
BatchWindowMs(const std::vector<double>& est_ms)
{
    double mean_ms = 0.0;
    for (double est : est_ms) mean_ms += est;
    return 2.0 * mean_ms / static_cast<double>(est_ms.size());
}
constexpr std::size_t kMaxBatch = 3;

/** What one window of rounds saw. */
struct Window {
    std::uint64_t allocations = 0;
    std::size_t accepted = 0;
    std::size_t refused = 0;
};

/**
 * Runs rounds [first, last) of @p requests: kRound Submits, then a Wait
 * on each ticket. @p submit returns a ticket; @p wait returns the
 * result's RenderResult. Counts allocations while @p counted.
 */
template <typename Request, typename Submit, typename Wait>
Window
RunRounds(const std::vector<Request>& requests, std::size_t first,
          std::size_t last, bool counted, Submit submit, Wait wait)
{
    Window window;
    std::uint64_t tickets[kRound];
    const std::uint64_t before = g_allocations.load();
    g_counting.store(counted);
    for (std::size_t round = first; round < last; ++round) {
        for (std::size_t i = 0; i < kRound; ++i) {
            tickets[i] = submit(requests[round * kRound + i]);
        }
        for (std::size_t i = 0; i < kRound; ++i) {
            const RenderResult result = wait(tickets[i]);
            ++(result.status == RequestStatus::kCompleted ? window.accepted
                                                          : window.refused);
        }
    }
    g_counting.store(false);
    window.allocations = g_allocations.load() - before;
    return window;
}

/** Checks one counted window; prints it and returns whether it held. */
bool
Check(const char* what, const Window& window)
{
    const std::size_t requests = window.accepted + window.refused;
    std::printf("%s: %zu requests (%zu accepted, %zu refused), "
                "%llu allocations\n",
                what, requests, window.accepted, window.refused,
                static_cast<unsigned long long>(window.allocations));
    bool ok = true;
    if (window.accepted == 0 || window.refused == 0) {
        std::printf("FAIL %s: the window needs accepted and refused "
                    "verdicts\n", what);
        ok = false;
    }
    if (window.allocations != 0) {
        std::printf("FAIL %s: a warmed request must not allocate\n", what);
        ok = false;
    }
    return ok;
}

bool
ServiceHoldsBudget(const std::vector<Scene>& scenes)
{
    const std::vector<double> est_ms = Estimates(scenes);
    ServeConfig config;
    config.admission = Policy(est_ms);
    RenderService service(config);
    for (const Scene& scene : scenes) {
        service.RegisterScene(scene.name, scene.spec);
        service.WarmScene(scene.name);
    }
    const std::vector<SceneRequest> requests = Stream(scenes, est_ms);
    const auto submit = [&](const SceneRequest& request) {
        return service.Submit(request).ticket;
    };
    const auto wait = [&](ServeTicket ticket) { return service.Wait(ticket); };
    RunRounds(requests, 0, kWarmRounds, false, submit, wait);
    return Check("RenderService",
                 RunRounds(requests, kWarmRounds,
                           kWarmRounds + kCountedRounds, true, submit, wait));
}

bool
ClusterHoldsBudget(const std::vector<Scene>& scenes)
{
    const std::vector<double> est_ms = Estimates(scenes);
    ClusterConfig config;
    config.shards = 2;
    config.admission = Policy(est_ms);
    config.replication.top_k = 1;
    config.replication.factor = 2;
    ShardedRenderService fleet(config);
    for (const Scene& scene : scenes) {
        fleet.RegisterScene(scene.name, scene.spec);
        fleet.WarmScene(scene.name);
    }
    const std::vector<SceneRequest> requests = Stream(scenes, est_ms);
    const auto submit = [&](const SceneRequest& request) {
        return fleet.Submit(request);
    };
    const auto wait = [&](ClusterTicket ticket) {
        return fleet.Wait(ticket).result;
    };
    // One census refresh after a few requests replicates the hottest
    // scene; replica sets then stay put (no refresh cadence).
    RunRounds(requests, 0, 1, false, submit, wait);
    fleet.RefreshReplication();
    RunRounds(requests, 1, kWarmRounds, false, submit, wait);
    const Window window =
        RunRounds(requests, kWarmRounds, kWarmRounds + kCountedRounds, true,
                  submit, wait);
    const ClusterStats stats = fleet.Snapshot();
    std::printf("cluster routing: %llu p2c-routed, %llu spilled\n",
                static_cast<unsigned long long>(stats.p2c_routed),
                static_cast<unsigned long long>(stats.spilled));
    bool ok = Check("ShardedRenderService", window);
    if (stats.p2c_routed == 0 || stats.spilled == 0) {
        std::printf("FAIL ShardedRenderService: the stream must exercise "
                    "power-of-two choices and spill\n");
        ok = false;
    }
    return ok;
}

/** Checks that a batched window fused batches and priced delta
 *  frames: @p before and @p after are snapshots around it. */
bool
CheckBatched(const char* what, const ServingStats& before,
             const ServingStats& after)
{
    const auto fused = after.fused_batches - before.fused_batches;
    const auto deltas = after.delta_frames - before.delta_frames;
    std::printf("%s: %llu fused batches, %llu delta frames\n", what,
                static_cast<unsigned long long>(fused),
                static_cast<unsigned long long>(deltas));
    if (fused == 0 || deltas == 0) {
        std::printf("FAIL %s: the window must fuse batches and price "
                    "delta frames\n", what);
        return false;
    }
    return true;
}

bool
BatchedServiceHoldsBudget(const std::vector<Scene>& scenes)
{
    const std::vector<double> est_ms = Estimates(scenes);
    ServeConfig config;
    config.admission = Policy(est_ms);
    config.batch_window_ms = BatchWindowMs(est_ms);
    config.max_batch_elements = kMaxBatch;
    RenderService service(config);
    std::vector<SessionId> sessions;
    for (const Scene& scene : scenes) {
        service.RegisterScene(scene.name, scene.spec);
        service.WarmScene(scene.name);
        sessions.push_back(service.OpenSession(scene.name));
    }
    const std::vector<MixedRequest> requests = MixedStream(scenes, est_ms);
    const auto submit = [&](const MixedRequest& r) {
        return service.Submit(r.request, OptionsOf(r, sessions)).ticket;
    };
    const auto wait = [&](ServeTicket ticket) { return service.Wait(ticket); };
    RunRounds(requests, 0, kWarmRounds, false, submit, wait);
    const ServiceStats before = service.Snapshot();
    const Window window =
        RunRounds(requests, kWarmRounds, kWarmRounds + kCountedRounds, true,
                  submit, wait);
    const bool ok = Check("RenderService (batched + sessions)", window);
    return CheckBatched("RenderService (batched + sessions)", before,
                        service.Snapshot()) &&
           ok;
}

bool
BatchedClusterHoldsBudget(const std::vector<Scene>& scenes)
{
    const std::vector<double> est_ms = Estimates(scenes);
    ClusterConfig config;
    config.shards = 2;
    config.admission = Policy(est_ms);
    config.batch_window_ms = BatchWindowMs(est_ms);
    config.max_batch_elements = kMaxBatch;
    config.replication.top_k = 1;
    config.replication.factor = 2;
    ShardedRenderService fleet(config);
    std::vector<SessionId> sessions;
    for (const Scene& scene : scenes) {
        fleet.RegisterScene(scene.name, scene.spec);
        fleet.WarmScene(scene.name);
        sessions.push_back(fleet.OpenSession(scene.name));
    }
    const std::vector<MixedRequest> requests = MixedStream(scenes, est_ms);
    const auto submit = [&](const MixedRequest& r) {
        return fleet.Submit(r.request, OptionsOf(r, sessions));
    };
    const auto wait = [&](ClusterTicket ticket) {
        return fleet.Wait(ticket).result;
    };
    RunRounds(requests, 0, 1, false, submit, wait);
    fleet.RefreshReplication();
    RunRounds(requests, 1, kWarmRounds, false, submit, wait);
    const ClusterStats before = fleet.Snapshot();
    const Window window =
        RunRounds(requests, kWarmRounds, kWarmRounds + kCountedRounds, true,
                  submit, wait);
    const ClusterStats after = fleet.Snapshot();
    std::printf("batched cluster routing: %llu p2c-routed, %llu spilled\n",
                static_cast<unsigned long long>(after.p2c_routed -
                                                before.p2c_routed),
                static_cast<unsigned long long>(after.spilled -
                                                before.spilled));
    const bool ok = Check("ShardedRenderService (batched + sessions)", window);
    return CheckBatched("ShardedRenderService (batched + sessions)", before,
                        after) &&
           ok;
}

/** Allocations made while @p fn runs. */
template <typename Fn>
std::uint64_t
Counted(Fn fn)
{
    const std::uint64_t before = g_allocations.load();
    g_counting.store(true);
    fn();
    g_counting.store(false);
    return g_allocations.load() - before;
}

/** The 21 design points of Fig. 19: the GPU, NeuRex x 5 prune ratios
 *  and FlexNeRFer x 3 precisions x 5 prune ratios. */
std::vector<SweepPoint>
DesignPoints()
{
    constexpr double kPrunes[] = {0.0, 0.3, 0.5, 0.7, 0.9};
    std::vector<SweepPoint> points(1);
    points[0].backend = Backend::kGpu;
    for (double prune : kPrunes) {
        SweepPoint point;
        point.backend = Backend::kNeuRex;
        point.params.weight_prune_ratio = prune;
        points.push_back(point);
    }
    for (Precision precision :
         {Precision::kInt16, Precision::kInt8, Precision::kInt4}) {
        for (double prune : kPrunes) {
            SweepPoint point;
            point.backend = Backend::kFlexNeRFer;
            point.precision = precision;
            point.params.weight_prune_ratio = prune;
            points.push_back(point);
        }
    }
    return points;
}

/** Per-stage allocation counts of one pass over the grid. */
struct ColdPass {
    std::size_t frames = 0;
    std::uint64_t build = 0;
    std::uint64_t compile = 0;
    std::uint64_t execute = 0;
    /** Frames whose counts were not exactly 1 / 2 / 1. */
    std::size_t off_budget = 0;
};

ColdPass
RunColdGrid(const std::vector<std::unique_ptr<Accelerator>>& accels,
            const std::vector<SweepPoint>& points)
{
    ColdPass pass;
    NerfWorkload workload;
    FramePlan plan;
    for (std::size_t design = 0; design < points.size(); ++design) {
        for (const std::string& model : AllModelNames()) {
            const std::uint64_t build = Counted([&] {
                workload = BuildWorkload(model, points[design].params);
            });
            const std::uint64_t compile = Counted([&] {
                plan = FramePlanner::Compile(*accels[design], workload);
            });
            FrameCost cost;
            const std::uint64_t execute =
                Counted([&] { cost = plan.Execute(); });
            ++pass.frames;
            pass.build += build;
            pass.compile += compile;
            pass.execute += execute;
            if (build != 1 || compile != 2 || execute != 1) {
                ++pass.off_budget;
            }
        }
    }
    return pass;
}

/** Most allocations a repeated fuse or delta derivation plus its
 *  compile may make: the op list and the plan's op list and index
 *  block. The derived workload name ("Instant-NGP+batch3") is interned,
 *  and the plan views it, so neither allocates. */
constexpr std::uint64_t kDerivedCeiling = 3;

bool
ColdFramesHoldBudget()
{
    const std::vector<SweepPoint> points = DesignPoints();
    std::vector<std::unique_ptr<Accelerator>> accels;
    for (const SweepPoint& point : points) {
        accels.push_back(MakeAccelerator(point));
    }
    RunColdGrid(accels, points);  // warm any lazily built statics
    const ColdPass pass = RunColdGrid(accels, points);
    const double frames = static_cast<double>(pass.frames);
    std::printf("cold frames: %zu frames, %llu build + %llu compile + "
                "%llu execute allocations (%.2f / %.2f / %.2f per "
                "frame)\n",
                pass.frames, static_cast<unsigned long long>(pass.build),
                static_cast<unsigned long long>(pass.compile),
                static_cast<unsigned long long>(pass.execute),
                static_cast<double>(pass.build) / frames,
                static_cast<double>(pass.compile) / frames,
                static_cast<double>(pass.execute) / frames);
    bool ok = true;
    if (pass.frames != 147 || pass.off_budget != 0) {
        std::printf("FAIL cold frames: %zu of %zu frames are not exactly "
                    "1 / 2 / 1 allocations\n",
                    pass.off_budget, pass.frames);
        ok = false;
    }

    // Repeated derivations find every "#e<k>" / "#d" name interned.
    const Accelerator& accel = *accels.back();
    std::uint64_t worst_fuse = 0;
    std::uint64_t worst_delta = 0;
    for (const std::string& model : AllModelNames()) {
        const NerfWorkload base = BuildWorkload(model);
        FramePlanner::Compile(accel, FuseBatch(base, 3));
        FramePlanner::Compile(accel, DeltaWorkload(base, 5, 8));
        NerfWorkload derived;
        FramePlan plan;
        const std::uint64_t fuse = Counted([&] {
            derived = FuseBatch(base, 3);
            plan = FramePlanner::Compile(accel, derived);
        });
        const std::uint64_t delta = Counted([&] {
            derived = DeltaWorkload(base, 5, 8);
            plan = FramePlanner::Compile(accel, derived);
        });
        worst_fuse = std::max(worst_fuse, fuse);
        worst_delta = std::max(worst_delta, delta);
    }
    std::printf("repeated derivations: FuseBatch(w, 3) + Compile at most "
                "%llu, DeltaWorkload + Compile at most %llu allocations "
                "(ceiling %llu)\n",
                static_cast<unsigned long long>(worst_fuse),
                static_cast<unsigned long long>(worst_delta),
                static_cast<unsigned long long>(kDerivedCeiling));
    if (worst_fuse > kDerivedCeiling || worst_delta > kDerivedCeiling) {
        std::printf("FAIL repeated derivations: over the ceiling\n");
        ok = false;
    }
    return ok;
}

}  // namespace
}  // namespace flexnerfer

int
main()
{
    const std::vector<flexnerfer::Scene> scenes = flexnerfer::Scenes();
    const bool service = flexnerfer::ServiceHoldsBudget(scenes);
    const bool cluster = flexnerfer::ClusterHoldsBudget(scenes);
    const bool batched_service =
        flexnerfer::BatchedServiceHoldsBudget(scenes);
    const bool batched_cluster =
        flexnerfer::BatchedClusterHoldsBudget(scenes);
    const bool cold = flexnerfer::ColdFramesHoldBudget();
    if (!service || !cluster || !batched_service || !batched_cluster ||
        !cold) {
        return 1;
    }
    std::printf("alloc budget OK\n");
    return 0;
}
