/**
 * @file
 * Allocation budget of a warmed request: zero heap allocations.
 *
 * This binary replaces the global operator new with a counting one (no
 * LD_PRELOAD, and no test framework, which would allocate on its own).
 * It warms a RenderService, then counts every allocation across 12k
 * solo Submits plus a Wait on each ticket, and fails unless the count
 * is zero. It does the same for a 2-shard cluster with spill and one
 * replicated scene (so home probes, spill probes and power-of-two
 * choices all run) and no transport. Each window must hold accepted
 * and refused verdicts alike. The warm-up window before each count runs
 * the same traffic, so every store has seen its high-water mark.
 */
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

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
template <typename Submit, typename Wait>
Window
RunRounds(const std::vector<SceneRequest>& requests, std::size_t first,
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
    config.threads = 1;
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
    config.threads_per_shard = 1;
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

}  // namespace
}  // namespace flexnerfer

int
main()
{
    const std::vector<flexnerfer::Scene> scenes = flexnerfer::Scenes();
    const bool service = flexnerfer::ServiceHoldsBudget(scenes);
    const bool cluster = flexnerfer::ClusterHoldsBudget(scenes);
    if (!service || !cluster) return 1;
    std::printf("alloc budget OK\n");
    return 0;
}
