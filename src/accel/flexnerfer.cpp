#include "accel/flexnerfer.h"

#include "common/fingerprint.h"
#include "common/units.h"
#include "plan/frame_plan.h"

namespace flexnerfer {

std::string
FlexNeRFerModel::name() const
{
    return "FlexNeRFer (" + ToString(config_.precision) + ")";
}

GemmEngineConfig
FlexNeRFerModel::EngineConfigFor(const WorkloadOp& op) const
{
    (void)op;  // per-op tuning hooks (e.g., mixed precision) attach here
    GemmEngineConfig engine;
    engine.precision = config_.precision;
    engine.array_dim = config_.array_dim;
    engine.clock_ghz = config_.clock_ghz;
    engine.support_sparsity = config_.support_sparsity;
    engine.use_flex_codec = config_.use_flex_codec;
    engine.compute_output = false;
    engine.noc_style = config_.noc_style;
    engine.dram_bandwidth_gb_s = config_.dram_gb_s;
    // Activations are produced on chip by the encoding unit or the
    // previous layer; only weights stream from local DRAM.
    engine.stream_a_from_dram = false;
    engine.write_c_to_dram = false;
    return engine;
}

FramePlan
FlexNeRFerModel::Plan(const NerfWorkload& workload) const
{
    FramePlanBuilder builder(workload.name, workload.ops.size());
    builder.SetEpilogue(config_.static_power_w);

    // Ops lower 1:1 in workload order, so the dependency edges each op
    // carries (models/workload.h) keep their indices; Build validates
    // them into the layered DAG Execute walks and the critical path
    // folds over.
    for (const WorkloadOp& op : workload.ops) {
        switch (op.kind) {
          case OpKind::kGemm: {
            builder.AddEngineOp(op, EngineConfigFor(op), op.gemm,
                                GemmLowering::kCodecAware);
            break;
          }
          case OpKind::kPositionalEncoding: {
            const double cycles =
                op.encoding_values / config_.pee_values_per_cycle;
            const double ms = CyclesToMs(cycles, config_.clock_ghz);
            OpCost fragment;
            fragment.cost.encoding_ms = ms;
            fragment.cost.latency_ms = ms;
            fragment.cost.energy_mj = PjToMj(
                op.encoding_values * config_.pee_energy_pj_per_value);
            builder.AddFixedOp(op, fragment);
            break;
          }
          case OpKind::kHashEncoding: {
            const double cycles =
                op.encoding_values / config_.hee_queries_per_cycle;
            const double ms = CyclesToMs(cycles, config_.clock_ghz);
            OpCost fragment;
            fragment.cost.encoding_ms = ms;
            fragment.cost.latency_ms = ms;
            fragment.cost.energy_mj = PjToMj(
                op.encoding_values * config_.hee_energy_pj_per_query);
            builder.AddFixedOp(op, fragment);
            break;
          }
          case OpKind::kOther: {
            const double cycles = op.other_flops / config_.vector_lanes;
            const double ms = CyclesToMs(cycles, config_.clock_ghz);
            OpCost fragment;
            fragment.cost.other_ms = ms;
            fragment.cost.latency_ms = ms;
            fragment.cost.energy_mj = PjToMj(
                op.other_flops * config_.vector_energy_pj_per_flop);
            builder.AddFixedOp(op, fragment);
            break;
          }
        }
    }
    return builder.Build();
}

void
FlexNeRFerModel::AppendConfigFingerprint(std::string* out) const
{
    FingerprintAppend(out, std::string("FlexNeRFer"));
    FingerprintAppend(out, static_cast<std::uint8_t>(config_.precision));
    FingerprintAppend(out, config_.array_dim);
    FingerprintAppend(out, config_.clock_ghz);
    FingerprintAppend(out, config_.support_sparsity);
    FingerprintAppend(out, config_.use_flex_codec);
    FingerprintAppend(out, static_cast<std::uint8_t>(config_.noc_style));
    FingerprintAppend(out, config_.pee_values_per_cycle);
    FingerprintAppend(out, config_.hee_queries_per_cycle);
    FingerprintAppend(out, config_.vector_lanes);
    FingerprintAppend(out, config_.dram_gb_s);
    FingerprintAppend(out, config_.pee_energy_pj_per_value);
    FingerprintAppend(out, config_.hee_energy_pj_per_query);
    FingerprintAppend(out, config_.vector_energy_pj_per_flop);
    FingerprintAppend(out, config_.static_power_w);
}

}  // namespace flexnerfer
