/**
 * @file
 * Fig. 20(b): speedup over the GPU for a simple scene (Mic) and a complex
 * scene (Palace) across batch sizes — driven by the real plan layer, not
 * an analytic formula. Each batch point fuses batch/2048 same-scene
 * frames into one FramePlan (models/workload.h, FuseBatch) and executes
 * it through Accelerator::Plan: the fused DAG's cross-element pipeline
 * edges let the critical path overlap element N's color/compositing with
 * element N+1's sampling, so the per-frame critical path amortizes
 * toward the bottleneck stage and gains plateau — the paper's saturation
 * shape, now produced by the same plans the serving stack dispatches.
 *
 * The (batch x scene x device) grid runs as one SweepRunner sweep. Metric
 * output (stdout) is byte-identical for any thread count; wall-clock
 * timing goes to stderr. Usage: [--threads N].
 */
#include <cstdio>
#include <vector>

#include "accel/flexnerfer.h"
#include "accel/gpu_model.h"
#include "common/logging.h"
#include "common/table.h"
#include "plan/frame_plan.h"
#include "runtime/sweep_runner.h"

using namespace flexnerfer;

namespace {

/** The accelerator's native ray-batch grain: each fused batch element
 *  carries one 2048-sample frame, so "batch 8192" executes as a fused
 *  4-element plan with per-stage overlap between elements. */
constexpr int kElementBatch = 2048;

/** One cell: GPU and accelerator per-frame latency for a (scene, batch)
 *  pair. */
struct CellLatency {
    double gpu_ms = 0.0;
    double accel_ms = 0.0;
};

/**
 * Per-frame accelerator latency at @p elements frames in flight: the
 * fused plan's executed critical path, amortized over the elements it
 * renders. The plan is the product the serving stack replays — no
 * side-channel latency model.
 */
double
AcceleratorPerFrameMs(const NerfWorkload& base, std::size_t elements)
{
    const FlexNeRFerModel flex;
    const FrameCost fused =
        flex.Plan(FuseBatch(base, elements)).Execute();
    return EstimatedServiceMs(fused) / static_cast<double>(elements);
}

}  // namespace

int
main(int argc, char** argv)
{
    std::printf("== Fig. 20(b): speedup over GPU vs batch size ==\n");
    ThreadPool pool(ThreadsFromArgs(argc, argv));
    const SweepRunner runner(pool);

    const std::vector<double> batches = {2048.0, 4096.0, 8192.0, 16384.0};
    struct Cell {
        double batch;
        double complexity;
    };
    std::vector<Cell> grid;
    for (double batch : batches) {
        grid.push_back({batch, 0.9});   // Mic
        grid.push_back({batch, 1.08});  // Palace
    }

    const GpuModel gpu;  // deeply const: shared across all cells
    std::vector<CellLatency> cells;
    {
        const SweepTimer timer(grid.size(), "cells", pool.n_threads());
        cells = runner.Map<CellLatency>(
            static_cast<std::int64_t>(grid.size()),
            [&grid, &gpu](std::int64_t i) {
                const Cell& cell = grid[static_cast<std::size_t>(i)];
                CellLatency out;
                // GPU baseline: one kernel launch over the whole batch —
                // larger batches re-stream the weights across fewer
                // chunks (accel/gpu_model.cpp reads workload.batch_size).
                WorkloadParams gpu_params;
                gpu_params.scene_complexity = cell.complexity;
                gpu_params.batch_size = static_cast<int>(cell.batch);
                out.gpu_ms =
                    gpu.RunWorkload(BuildWorkload("Instant-NGP", gpu_params))
                        .latency_ms;
                // Accelerator: the batch is batch/2048 fused frames of
                // the native 2048-sample grain, one pipelined plan.
                WorkloadParams accel_params;
                accel_params.scene_complexity = cell.complexity;
                accel_params.batch_size = kElementBatch;
                const NerfWorkload base =
                    BuildWorkload("Instant-NGP", accel_params);
                const auto elements = static_cast<std::size_t>(
                    cell.batch / kElementBatch);
                out.accel_ms = AcceleratorPerFrameMs(base, elements);
                return out;
            });
    }

    Table t({"Batch", "Mic speedup (x)", "Palace speedup (x)",
             "Mic/Palace latency ratio"});
    for (std::size_t b = 0; b < batches.size(); ++b) {
        const CellLatency& mic = cells[2 * b];
        const CellLatency& palace = cells[2 * b + 1];
        t.AddRow({FormatDouble(batches[b], 0),
                  FormatDouble(mic.gpu_ms / mic.accel_ms, 1),
                  FormatDouble(palace.gpu_ms / palace.accel_ms, 1),
                  FormatDouble(palace.accel_ms / mic.accel_ms, 2)});
    }
    std::printf("%s\n", t.ToString().c_str());

    // The saturation shape is load-bearing (it is what Fig. 20(b)
    // shows): per-frame latency must fall monotonically with batch, and
    // the marginal gain must shrink — the fused pipeline approaches its
    // bottleneck-stage floor instead of improving without bound.
    for (std::size_t scene = 0; scene < 2; ++scene) {
        for (std::size_t b = 1; b < batches.size(); ++b) {
            const double prev = cells[2 * (b - 1) + scene].accel_ms;
            const double cur = cells[2 * b + scene].accel_ms;
            FLEX_CHECK_MSG(cur < prev,
                           "per-frame latency must fall with batch size");
            if (b >= 2) {
                const double prev2 = cells[2 * (b - 2) + scene].accel_ms;
                FLEX_CHECK_MSG((prev - cur) < (prev2 - prev),
                               "batch-scaling gains must diminish "
                               "(pipeline saturation)");
            }
        }
    }
    std::printf("Paper shape: the simple scene renders faster than the "
                "complex one at every batch; per-frame gains shrink as "
                "the fused pipeline saturates on its bottleneck stage "
                "beyond ~8192.\n");
    return 0;
}
