#include "accel/gpu_model.h"

#include <algorithm>
#include <cmath>

#include "common/fingerprint.h"
#include "common/logging.h"
#include "plan/frame_plan.h"

namespace flexnerfer {

GpuModel
GpuModel::XavierNx()
{
    Config config;
    config.name = "Xavier NX";
    config.fp32_tflops = 1.69;  // FP32 CUDA-core rate (Table 1 class)
    config.dram_gb_s = 59.7;
    config.board_power_w = 20.0;
    config.idle_power_w = 5.0;
    config.kernel_launch_us = 9.0;
    return GpuModel(config);
}

double
GpuModel::GemmEfficiency(std::int64_t k, std::int64_t n) const
{
    // Thin layers starve the SMs: efficiency degrades with narrow inner
    // and output dimensions (empirically GEMV-like layers run at a few
    // percent of peak).
    const double k_factor =
        std::min(1.0, static_cast<double>(k) / 256.0);
    const double n_factor =
        std::min(1.0, static_cast<double>(n) / 256.0);
    return config_.gemm_efficiency *
           std::max(0.02, std::sqrt(k_factor * n_factor));
}

FramePlan
GpuModel::Plan(const NerfWorkload& workload) const
{
    FramePlanBuilder builder(workload.name, workload.ops.size());
    // Fragments carry energy in joules; the reduction scales the sum to
    // mJ once, preserving the legacy sum-then-scale rounding exactly.
    builder.SetEpilogue(/*static_power_w=*/0.0, /*energy_scale=*/1e3);

    const double peak_flops = config_.fp32_tflops * 1e12;
    const double bw = config_.dram_gb_s * 1e9;

    // 1:1 lowering in workload order: the dependency edges carry into
    // the plan, so even the roofline model reports a critical-path
    // pipeline floor alongside its flat kernel-sum latency.
    for (const WorkloadOp& op : workload.ops) {
        double op_ms = 0.0;
        double utilization = 0.0;
        OpCost fragment;
        switch (op.kind) {
          case OpKind::kGemm: {
            const double macs = op.Macs();
            const double eff = GemmEfficiency(op.gemm.k, op.gemm.n);
            const double compute_s = 2.0 * macs / (peak_flops * eff);
            // Weights are re-streamed per batch chunk; activations make a
            // round trip through DRAM/L2.
            const double launches = std::ceil(
                static_cast<double>(op.gemm.m) / workload.batch_size);
            const double weight_bytes =
                static_cast<double>(op.gemm.k) * op.gemm.n * 4.0 * launches;
            const double act_bytes =
                static_cast<double>(op.gemm.m) * (op.gemm.k + op.gemm.n) *
                4.0;
            const double memory_s = (weight_bytes + act_bytes) / bw;
            const double launch_s =
                launches * config_.kernel_launch_us * 1e-6;
            op_ms = (std::max(compute_s, memory_s) + launch_s) * 1e3;
            fragment.cost.gemm_ms = op_ms;
            utilization =
                2.0 * macs / (op_ms * 1e-3 * peak_flops + 1e-30);
            break;
          }
          case OpKind::kPositionalEncoding: {
            const double flops =
                op.encoding_values * config_.trig_flops_per_value;
            const double sfu_s = flops / (peak_flops * 0.25);
            // Encoded features make a round trip to memory (write + the
            // consuming layer's read).
            const double bytes = op.encoding_values * 16.0;
            op_ms = std::max(sfu_s, bytes / bw) * 1e3;
            fragment.cost.encoding_ms = op_ms;
            utilization = 0.10;
            break;
          }
          case OpKind::kHashEncoding: {
            // Random gathers through a table larger than L2: effective
            // bandwidth collapses to a small fraction of peak.
            const double bytes = op.encoding_values * 32.0;
            op_ms = bytes / (bw * config_.gather_bw_fraction) * 1e3;
            fragment.cost.encoding_ms = op_ms;
            utilization = 0.06;
            break;
          }
          case OpKind::kOther: {
            op_ms = op.other_flops / (peak_flops * 0.30) * 1e3;
            fragment.cost.other_ms = op_ms;
            utilization = 0.30;
            break;
          }
        }
        fragment.cost.latency_ms = op_ms;
        const double power =
            config_.idle_power_w +
            (config_.board_power_w - config_.idle_power_w) *
                std::min(1.0, utilization);
        fragment.cost.energy_mj = power * op_ms * 1e-3;  // joules
        builder.AddFixedOp(op, fragment);
    }
    return builder.Build();
}

void
GpuModel::AppendConfigFingerprint(std::string* out) const
{
    FingerprintAppend(out, std::string("GPU"));
    FingerprintAppend(out, config_.name);
    FingerprintAppend(out, config_.fp32_tflops);
    FingerprintAppend(out, config_.dram_gb_s);
    FingerprintAppend(out, config_.board_power_w);
    FingerprintAppend(out, config_.idle_power_w);
    FingerprintAppend(out, config_.kernel_launch_us);
    FingerprintAppend(out, config_.gemm_efficiency);
    FingerprintAppend(out, config_.trig_flops_per_value);
    FingerprintAppend(out, config_.gather_bw_fraction);
}

}  // namespace flexnerfer
