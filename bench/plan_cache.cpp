/**
 * @file
 * Plan-cache micro-benchmark: cold compile+execute vs cached replay of
 * repeated frames — the serving hot path.
 *
 * Every request renders one of 7 NeRF workloads on one of 5 device
 * configurations. The cold path does what the legacy frame loop did on
 * every frame: re-derive all per-op decisions (compile) and run the
 * engines (execute). The cached path compiles each distinct frame once
 * into a PlanCache and replays it afterwards. Every frame runs on the
 * calling thread.
 *
 * stdout (cache invariant): the per-frame metric table, printed only
 * after verifying the cold and cached passes rendered byte-identical
 * tables. stderr: wall-clock numbers and the speedup.
 *
 * Usage: plan_cache [--threads N] [--rounds N]
 * (--threads is validated and ignored, like the serving benches'.)
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "accel/flexnerfer.h"
#include "accel/gpu_model.h"
#include "accel/neurex.h"
#include "common/logging.h"
#include "common/table.h"
#include "plan/frame_planner.h"
#include "plan/plan_cache.h"
#include "runtime/sweep_runner.h"
#include "obs/metrics.h"

using namespace flexnerfer;

namespace {

double
WallMs(const std::chrono::steady_clock::time_point& start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

int
main(int argc, char** argv)
{
    ThreadsFromArgs(argc, argv);
    const std::int64_t rounds_arg = IntFromArgs(argc, argv, "--rounds", 64);
    if (rounds_arg > 1000000) {
        Fatal("invalid --rounds value " + std::to_string(rounds_arg) +
              " (expected an integer in [0, 1000000])");
    }
    const int rounds = static_cast<int>(rounds_arg);

    std::vector<std::unique_ptr<Accelerator>> accels;
    for (Precision p : {Precision::kInt16, Precision::kInt8,
                        Precision::kInt4}) {
        FlexNeRFerModel::Config config;
        config.precision = p;
        accels.push_back(std::make_unique<FlexNeRFerModel>(config));
    }
    accels.push_back(std::make_unique<NeuRexModel>());
    accels.push_back(std::make_unique<GpuModel>());

    std::vector<NerfWorkload> workloads;
    for (const std::string& name : AllModelNames()) {
        workloads.push_back(BuildWorkload(name));
    }
    const std::size_t frames_per_round = accels.size() * workloads.size();

    const auto render_table = [&](const std::vector<FrameCost>& costs) {
        Table t({"Model", "Device", "Latency [ms]", "Energy [mJ]",
                 "GEMM util [%]"});
        std::size_t i = 0;
        for (const auto& w : workloads) {
            for (const auto& accel : accels) {
                const FrameCost& c = costs[i++];
                t.AddRow({std::string(w.name), accel->name(),
                          FormatDouble(c.latency_ms, 3),
                          FormatDouble(c.energy_mj, 3),
                          FormatDouble(100.0 * c.gemm_utilization, 2)});
            }
        }
        return t.ToString();
    };

    // --- Cold: compile+execute every frame from scratch (legacy loop). -
    std::vector<FrameCost> cold_costs;
    cold_costs.reserve(frames_per_round);
    const auto cold_start = std::chrono::steady_clock::now();
    for (int round = 0; round < rounds; ++round) {
        for (const auto& w : workloads) {
            for (const auto& accel : accels) {
                const FrameCost cost =
                    FramePlanner::Compile(*accel, w).Execute();
                if (round == 0) cold_costs.push_back(cost);
            }
        }
    }
    const double cold_ms = WallMs(cold_start);

    // --- Cached: same requests through the PlanCache hot path. --------
    PlanCache cache;
    std::vector<FrameCost> warm_costs;
    warm_costs.reserve(frames_per_round);
    // Untimed warm-up round: compiles each distinct frame once.
    for (const auto& w : workloads) {
        for (const auto& accel : accels) {
            cache.Run(*accel, w);
        }
    }
    const auto warm_start = std::chrono::steady_clock::now();
    for (int round = 0; round < rounds; ++round) {
        for (const auto& w : workloads) {
            for (const auto& accel : accels) {
                const FrameCost cost = cache.Run(*accel, w);
                if (round == 0) warm_costs.push_back(cost);
            }
        }
    }
    const double warm_ms = WallMs(warm_start);

    // --- Prepared: handle-based replay (steady-state serving). --------
    std::vector<PlanCache::PreparedFrame> prepared;
    prepared.reserve(frames_per_round);
    for (const auto& w : workloads) {
        for (const auto& accel : accels) {
            prepared.push_back(cache.Prepare(*accel, w));
        }
    }
    std::vector<FrameCost> prepared_costs;
    prepared_costs.reserve(frames_per_round);
    const auto prepared_start = std::chrono::steady_clock::now();
    for (int round = 0; round < rounds; ++round) {
        for (std::size_t i = 0; i < prepared.size(); ++i) {
            const FrameCost cost = cache.Run(prepared[i]);
            if (round == 0) prepared_costs.push_back(cost);
        }
    }
    const double prepared_ms = WallMs(prepared_start);

    // Every replay mode must render a byte-identical table.
    const std::string cold_table = render_table(cold_costs);
    const std::string warm_table = render_table(warm_costs);
    const std::string prepared_table = render_table(prepared_costs);
    FLEX_CHECK_MSG(cold_table == warm_table,
                   "keyed cached replay diverged from cold execution");
    FLEX_CHECK_MSG(cold_table == prepared_table,
                   "prepared replay diverged from cold execution");

    std::printf("== Plan cache: cold compile+execute vs cached replay ==\n");
    std::printf("%s\n", cold_table.c_str());
    std::printf("Cached replay (keyed and prepared) verified "
                "byte-identical to cold compile+execute over %zu "
                "frames.\n",
                frames_per_round);

    const double total_frames =
        static_cast<double>(rounds) * static_cast<double>(frames_per_round);
    const PlanCache::Stats stats = cache.stats();
    std::fprintf(stderr,
                 "[plan_cache] %d rounds x %zu frames\n", rounds,
                 frames_per_round);
    std::fprintf(stderr,
                 "[plan_cache] cold:   %10.1f ms  (%8.2f us/frame)\n",
                 cold_ms, 1e3 * cold_ms / total_frames);
    std::fprintf(stderr,
                 "[plan_cache] cached (keyed):    %10.1f ms  "
                 "(%8.2f us/frame, %.1fx)\n",
                 warm_ms, 1e3 * warm_ms / total_frames,
                 cold_ms / warm_ms);
    std::fprintf(stderr,
                 "[plan_cache] cached (prepared): %10.1f ms  "
                 "(%8.2f us/frame, %.1fx)\n",
                 prepared_ms, 1e3 * prepared_ms / total_frames,
                 cold_ms / prepared_ms);
    std::fprintf(stderr, "[plan_cache] speedup: %.1fx\n",
                 cold_ms / prepared_ms);
    std::fprintf(stderr,
                 "[plan_cache] cache: %zu plans, %llu plan hits, "
                 "%llu frame hits; memo: %zu entries, %llu hits\n",
                 cache.size(),
                 static_cast<unsigned long long>(stats.plan_hits),
                 static_cast<unsigned long long>(stats.frame_hits),
                 cache.memo().size(),
                 static_cast<unsigned long long>(cache.memo().hits()));
    return 0;
}
