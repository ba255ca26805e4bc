#include "accel/neurex.h"

#include "common/fingerprint.h"
#include "common/units.h"
#include "plan/frame_plan.h"

namespace flexnerfer {

GemmEngineConfig
NeuRexModel::EngineConfigFor(const WorkloadOp& op) const
{
    (void)op;  // NeuRex resolves every op to the same dense engine
    GemmEngineConfig engine;
    engine.precision = Precision::kInt16;  // fixed
    engine.array_dim = config_.array_dim;
    engine.clock_ghz = config_.clock_ghz;
    engine.support_sparsity = false;  // dense only
    engine.use_flex_codec = false;    // raw storage
    engine.compute_output = false;
    engine.noc_style = NocStyle::kHmTree;
    engine.dram_bandwidth_gb_s = config_.dram_gb_s;
    // Activations stay on chip; only weights stream from DRAM.
    engine.stream_a_from_dram = false;
    engine.write_c_to_dram = false;
    return engine;
}

FramePlan
NeuRexModel::Plan(const NerfWorkload& workload) const
{
    FramePlanBuilder builder(workload.name, workload.ops.size());
    builder.SetEpilogue(config_.static_power_w);

    // 1:1 lowering in workload order: dependency edges keep their
    // indices, so the dense engine gets the same layered DAG (the
    // pipeline structure is the model's, not the accelerator's).
    for (const WorkloadOp& op : workload.ops) {
        switch (op.kind) {
          case OpKind::kGemm: {
            // Structured pruning is invisible to a dense engine: it still
            // issues every product of the unpruned geometry.
            GemmShape dense_shape = op.gemm;
            dense_shape.density_a = 1.0;
            dense_shape.density_b = 1.0;
            dense_shape.structured_prune_b = 0.0;
            // Utilization vs the truly useful (sparse) work.
            const double useful = op.Macs() * op.gemm.density_a *
                                  op.gemm.density_b *
                                  (1.0 - op.gemm.structured_prune_b);
            builder.AddEngineOp(op, EngineConfigFor(op), dense_shape,
                                GemmLowering::kDenseEngine, useful);
            break;
          }
          case OpKind::kPositionalEncoding: {
            const double cycles =
                op.encoding_values / config_.posenc_values_per_cycle;
            const double ms = CyclesToMs(cycles, config_.clock_ghz);
            OpCost fragment;
            fragment.cost.encoding_ms = ms;
            fragment.cost.latency_ms = ms;
            fragment.cost.energy_mj = PjToMj(
                op.encoding_values * config_.posenc_energy_pj_per_value);
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
NeuRexModel::AppendConfigFingerprint(std::string* out) const
{
    FingerprintAppend(out, std::string("NeuRex"));
    FingerprintAppend(out, config_.array_dim);
    FingerprintAppend(out, config_.clock_ghz);
    FingerprintAppend(out, config_.hee_queries_per_cycle);
    FingerprintAppend(out, config_.posenc_values_per_cycle);
    FingerprintAppend(out, config_.vector_lanes);
    FingerprintAppend(out, config_.dram_gb_s);
    FingerprintAppend(out, config_.hee_energy_pj_per_query);
    FingerprintAppend(out, config_.posenc_energy_pj_per_value);
    FingerprintAppend(out, config_.vector_energy_pj_per_flop);
    FingerprintAppend(out, config_.static_power_w);
}

}  // namespace flexnerfer
