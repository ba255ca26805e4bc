/**
 * @file
 * Golden parity tests for the compile/execute frame split.
 *
 * The reference implementations below are verbatim copies of the legacy
 * per-model RunWorkload switch-loops (serial, one pass over the ops) that
 * the FramePlan layer replaced — extended only to record each op's
 * latency so the dependency-DAG critical path (FrameCost's
 * critical_path_ms, which postdates the legacy loops) can be derived by
 * an independent implementation of the same max+add recurrence
 * (ReferenceCriticalPathMs below: memoized DFS, vs the executor's
 * topological fold). Planned execution must reproduce their FrameCost
 * bit-identically — every field compared with EXPECT_EQ on the raw
 * doubles — for all 7 workloads x all precisions x all three
 * accelerator families, with or without plan/memo caching. This is the
 * contract that allowed deleting the legacy loops.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "accel/flexnerfer.h"
#include "accel/gpu_model.h"
#include "accel/neurex.h"
#include "common/units.h"
#include "gemm/engine.h"
#include "models/workload.h"
#include "plan/frame_planner.h"
#include "plan/gemm_memo.h"
#include "plan/plan_cache.h"
#include "frame_cost_matchers.h"

namespace flexnerfer {
namespace {

/**
 * Independent critical-path reference: memoized DFS over the workload's
 * dependency edges, folding finish(i) = max over deps(finish(dep)) +
 * latency(i) — the same per-node arithmetic FramePlan::Execute performs
 * in topological order, reached by a different traversal, so agreement
 * is meaningful and must be bit-exact (max is order-independent; each
 * finish value is one identical add).
 */
double
ReferenceCriticalPathMs(const NerfWorkload& workload,
                        const std::vector<double>& op_ms)
{
    std::vector<double> finish(workload.ops.size(), 0.0);
    std::vector<char> done(workload.ops.size(), 0);
    std::function<double(std::size_t)> visit =
        [&](std::size_t i) -> double {
        if (done[i]) return finish[i];
        double ready = 0.0;
        for (const std::size_t dep : workload.ops[i].deps) {
            ready = std::max(ready, visit(dep));
        }
        finish[i] = ready + op_ms[i];
        done[i] = 1;  // terminates: BuildWorkload emits acyclic edges
        return finish[i];
    };
    double critical_path = 0.0;
    for (std::size_t i = 0; i < workload.ops.size(); ++i) {
        critical_path = std::max(critical_path, visit(i));
    }
    return critical_path;
}

/** Legacy FlexNeRFerModel::RunWorkload, kept as the golden reference. */
FrameCost
LegacyFlexNeRFer(const FlexNeRFerModel& model, const NerfWorkload& workload)
{
    const FlexNeRFerModel::Config& config = model.config();
    FrameCost cost;
    double utilization_weighted = 0.0;
    double utilization_macs = 0.0;
    std::vector<double> op_ms;  // per-op latency, for the critical path

    for (const WorkloadOp& op : workload.ops) {
        switch (op.kind) {
          case OpKind::kGemm: {
            const GemmEngine engine(model.EngineConfigFor(op));
            const GemmResult r = engine.RunFromShape(op.gemm);
            const double codec_exposed_cycles = std::max(
                0.0, r.codec_cycles -
                         std::max(r.fetch_cycles, r.compute_cycles));
            const double codec_ms =
                CyclesToMs(codec_exposed_cycles, config.clock_ghz);
            const double dram_exposed =
                std::max(0.0, r.dram_ms - r.onchip_ms);
            cost.gemm_ms += r.latency_ms - dram_exposed - codec_ms;
            cost.codec_ms += codec_ms;
            cost.dram_ms += dram_exposed;
            cost.latency_ms += r.latency_ms;
            cost.energy_mj += r.EnergyMj();
            utilization_weighted += r.utilization * r.useful_macs;
            utilization_macs += r.useful_macs;
            op_ms.push_back(r.latency_ms);
            break;
          }
          case OpKind::kPositionalEncoding: {
            const double cycles =
                op.encoding_values / config.pee_values_per_cycle;
            const double ms = CyclesToMs(cycles, config.clock_ghz);
            cost.encoding_ms += ms;
            cost.latency_ms += ms;
            cost.energy_mj += PjToMj(op.encoding_values *
                                     config.pee_energy_pj_per_value);
            op_ms.push_back(ms);
            break;
          }
          case OpKind::kHashEncoding: {
            const double cycles =
                op.encoding_values / config.hee_queries_per_cycle;
            const double ms = CyclesToMs(cycles, config.clock_ghz);
            cost.encoding_ms += ms;
            cost.latency_ms += ms;
            cost.energy_mj += PjToMj(op.encoding_values *
                                     config.hee_energy_pj_per_query);
            op_ms.push_back(ms);
            break;
          }
          case OpKind::kOther: {
            const double cycles = op.other_flops / config.vector_lanes;
            const double ms = CyclesToMs(cycles, config.clock_ghz);
            cost.other_ms += ms;
            cost.latency_ms += ms;
            cost.energy_mj += PjToMj(op.other_flops *
                                     config.vector_energy_pj_per_flop);
            op_ms.push_back(ms);
            break;
          }
        }
    }
    cost.gemm_utilization =
        utilization_macs > 0.0 ? utilization_weighted / utilization_macs
                               : 0.0;
    cost.gemm_macs = utilization_macs;
    cost.energy_mj += cost.latency_ms * config.static_power_w;
    cost.critical_path_ms = ReferenceCriticalPathMs(workload, op_ms);
    return cost;
}

/** Legacy NeuRexModel::RunWorkload, kept as the golden reference. */
FrameCost
LegacyNeuRex(const NeuRexModel& model, const NerfWorkload& workload)
{
    const NeuRexModel::Config& config = model.config();
    FrameCost cost;
    double utilization_weighted = 0.0;
    double utilization_macs = 0.0;
    std::vector<double> op_ms;  // per-op latency, for the critical path

    for (const WorkloadOp& op : workload.ops) {
        switch (op.kind) {
          case OpKind::kGemm: {
            GemmEngineConfig engine_config;
            engine_config.precision = Precision::kInt16;
            engine_config.array_dim = config.array_dim;
            engine_config.clock_ghz = config.clock_ghz;
            engine_config.support_sparsity = false;
            engine_config.use_flex_codec = false;
            engine_config.compute_output = false;
            engine_config.noc_style = NocStyle::kHmTree;
            engine_config.dram_bandwidth_gb_s = config.dram_gb_s;
            engine_config.stream_a_from_dram = false;
            engine_config.write_c_to_dram = false;

            GemmShape dense_shape = op.gemm;
            dense_shape.density_a = 1.0;
            dense_shape.density_b = 1.0;
            dense_shape.structured_prune_b = 0.0;

            const GemmEngine engine(engine_config);
            const GemmResult r = engine.RunFromShape(dense_shape);
            const double dram_exposed =
                std::max(0.0, r.dram_ms - r.onchip_ms);
            cost.gemm_ms += r.latency_ms - dram_exposed;
            cost.dram_ms += dram_exposed;
            cost.latency_ms += r.latency_ms;
            cost.energy_mj += r.EnergyMj();
            const double useful = op.Macs() * op.gemm.density_a *
                                  op.gemm.density_b *
                                  (1.0 - op.gemm.structured_prune_b);
            utilization_weighted +=
                (r.issued_macs > 0.0 ? useful / r.issued_macs : 0.0) *
                useful;
            utilization_macs += useful;
            op_ms.push_back(r.latency_ms);
            break;
          }
          case OpKind::kPositionalEncoding: {
            const double cycles =
                op.encoding_values / config.posenc_values_per_cycle;
            const double ms = CyclesToMs(cycles, config.clock_ghz);
            cost.encoding_ms += ms;
            cost.latency_ms += ms;
            cost.energy_mj += PjToMj(op.encoding_values *
                                     config.posenc_energy_pj_per_value);
            op_ms.push_back(ms);
            break;
          }
          case OpKind::kHashEncoding: {
            const double cycles =
                op.encoding_values / config.hee_queries_per_cycle;
            const double ms = CyclesToMs(cycles, config.clock_ghz);
            cost.encoding_ms += ms;
            cost.latency_ms += ms;
            cost.energy_mj += PjToMj(op.encoding_values *
                                     config.hee_energy_pj_per_query);
            op_ms.push_back(ms);
            break;
          }
          case OpKind::kOther: {
            const double cycles = op.other_flops / config.vector_lanes;
            const double ms = CyclesToMs(cycles, config.clock_ghz);
            cost.other_ms += ms;
            cost.latency_ms += ms;
            cost.energy_mj += PjToMj(op.other_flops *
                                     config.vector_energy_pj_per_flop);
            op_ms.push_back(ms);
            break;
          }
        }
    }
    cost.gemm_utilization =
        utilization_macs > 0.0 ? utilization_weighted / utilization_macs
                               : 0.0;
    cost.gemm_macs = utilization_macs;
    cost.energy_mj += cost.latency_ms * config.static_power_w;
    cost.critical_path_ms = ReferenceCriticalPathMs(workload, op_ms);
    return cost;
}

/** Legacy GpuModel::RunWorkload, kept as the golden reference. */
FrameCost
LegacyGpu(const GpuModel& model, const NerfWorkload& workload)
{
    const GpuModel::Config& config = model.config();
    FrameCost cost;
    const double peak_flops = config.fp32_tflops * 1e12;
    const double bw = config.dram_gb_s * 1e9;
    double busy_joules = 0.0;
    std::vector<double> per_op_ms;  // for the critical path

    for (const WorkloadOp& op : workload.ops) {
        double op_ms = 0.0;
        double utilization = 0.0;
        switch (op.kind) {
          case OpKind::kGemm: {
            const double macs = op.Macs();
            const double eff = model.GemmEfficiency(op.gemm.k, op.gemm.n);
            const double compute_s = 2.0 * macs / (peak_flops * eff);
            const double launches = std::ceil(
                static_cast<double>(op.gemm.m) / workload.batch_size);
            const double weight_bytes =
                static_cast<double>(op.gemm.k) * op.gemm.n * 4.0 * launches;
            const double act_bytes =
                static_cast<double>(op.gemm.m) * (op.gemm.k + op.gemm.n) *
                4.0;
            const double memory_s = (weight_bytes + act_bytes) / bw;
            const double launch_s =
                launches * config.kernel_launch_us * 1e-6;
            op_ms = (std::max(compute_s, memory_s) + launch_s) * 1e3;
            cost.gemm_ms += op_ms;
            utilization =
                2.0 * macs / (op_ms * 1e-3 * peak_flops + 1e-30);
            break;
          }
          case OpKind::kPositionalEncoding: {
            const double flops =
                op.encoding_values * config.trig_flops_per_value;
            const double sfu_s = flops / (peak_flops * 0.25);
            const double bytes = op.encoding_values * 16.0;
            op_ms = std::max(sfu_s, bytes / bw) * 1e3;
            cost.encoding_ms += op_ms;
            utilization = 0.10;
            break;
          }
          case OpKind::kHashEncoding: {
            const double bytes = op.encoding_values * 32.0;
            op_ms = bytes / (bw * config.gather_bw_fraction) * 1e3;
            cost.encoding_ms += op_ms;
            utilization = 0.06;
            break;
          }
          case OpKind::kOther: {
            op_ms = op.other_flops / (peak_flops * 0.30) * 1e3;
            cost.other_ms += op_ms;
            utilization = 0.30;
            break;
          }
        }
        cost.latency_ms += op_ms;
        const double power =
            config.idle_power_w +
            (config.board_power_w - config.idle_power_w) *
                std::min(1.0, utilization);
        busy_joules += power * op_ms * 1e-3;
        per_op_ms.push_back(op_ms);
    }
    cost.energy_mj = busy_joules * 1e3;
    cost.critical_path_ms = ReferenceCriticalPathMs(workload, per_op_ms);
    return cost;
}

/**
 * Checks every planned execution path against the legacy reference:
 * plain, memoized (twice, so the second pass replays hits), and the
 * PlanCache hot path (cold then cached).
 */
void
CheckAllPaths(const Accelerator& accel, const NerfWorkload& workload,
              const FrameCost& reference, const std::string& label)
{
    const FramePlan plan = FramePlanner::Compile(accel, workload);
    ExpectBitIdentical(plan.Execute(), reference, label + " serial");
    ExpectBitIdentical(accel.RunWorkload(workload), reference,
                       label + " RunWorkload");

    GemmMemo memo;
    ExpectBitIdentical(plan.Execute(&memo), reference, label + " memo cold");
    ExpectBitIdentical(plan.Execute(&memo), reference,
                       label + " memo replay");
    // Identical ops (e.g. a chain of equal hidden layers) share one memo
    // entry even within the cold pass: misses = distinct (config, shape)
    // keys, and both passes together issue two lookups per engine run
    // (an op repeating its predecessor's run copies it, no lookup).
    EXPECT_EQ(memo.misses(), memo.size()) << label;
    EXPECT_EQ(memo.hits() + memo.misses(), 2 * plan.engine_run_count())
        << label;
    EXPECT_LE(memo.size(), plan.engine_op_count()) << label;

    PlanCache cache;
    ExpectBitIdentical(cache.Run(accel, workload), reference,
                       label + " cache cold");
    ExpectBitIdentical(cache.Run(accel, workload), reference,
                       label + " cache replay");
    EXPECT_EQ(cache.stats().plan_misses, 1u) << label;
    EXPECT_EQ(cache.stats().frame_hits, 1u) << label;
}

TEST(PlanParity, FlexNeRFerAllModelsAllPrecisions)
{
    for (Precision precision : kAllPrecisions) {
        FlexNeRFerModel::Config config;
        config.precision = precision;
        const FlexNeRFerModel model(config);
        for (const std::string& name : AllModelNames()) {
            const NerfWorkload w = BuildWorkload(name);
            CheckAllPaths(model, w, LegacyFlexNeRFer(model, w),
                          model.name() + " " + name);
        }
    }
}

TEST(PlanParity, FlexNeRFerAblationsAndPrunedScenes)
{
    // Non-default dataflows, disabled sparsity/codec, and pruned or
    // complex scenes exercise every lowering decision the planner makes.
    WorkloadParams pruned;
    pruned.weight_prune_ratio = 0.5;
    pruned.scene_complexity = 1.3;

    std::vector<FlexNeRFerModel::Config> configs(4);
    configs[1].noc_style = NocStyle::kBenes;
    configs[2].support_sparsity = false;
    configs[3].use_flex_codec = false;
    for (const auto& config : configs) {
        const FlexNeRFerModel model(config);
        const NerfWorkload w = BuildWorkload("Instant-NGP", pruned);
        CheckAllPaths(model, w, LegacyFlexNeRFer(model, w),
                      model.name() + " ablation Instant-NGP");
    }
}

TEST(PlanParity, NeuRexAllModels)
{
    const NeuRexModel model;
    for (const std::string& name : AllModelNames()) {
        const NerfWorkload w = BuildWorkload(name);
        CheckAllPaths(model, w, LegacyNeuRex(model, w), "NeuRex " + name);
    }
    // Structured pruning must stay invisible to the dense engine.
    WorkloadParams pruned;
    pruned.weight_prune_ratio = 0.5;
    const NerfWorkload w = BuildWorkload("NeRF", pruned);
    CheckAllPaths(model, w, LegacyNeuRex(model, w), "NeuRex pruned NeRF");
}

TEST(PlanParity, GpuAllModelsBothBoards)
{
    for (const GpuModel& model :
         {GpuModel::Rtx2080Ti(), GpuModel::XavierNx()}) {
        for (const std::string& name : AllModelNames()) {
            const NerfWorkload w = BuildWorkload(name);
            CheckAllPaths(model, w, LegacyGpu(model, w),
                          model.name() + " " + name);
        }
    }
}

}  // namespace
}  // namespace flexnerfer
