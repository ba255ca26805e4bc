/**
 * @file
 * Frame-level model of the FlexNeRFer accelerator (Fig. 14): the NeRF
 * encoding unit (PEE + HEE) and the GEMM/GEMV acceleration unit (flexible
 * NoC + bit-scalable MAC array + format codec) driven by workload
 * descriptors.
 */
#ifndef FLEXNERFER_ACCEL_FLEXNERFER_H_
#define FLEXNERFER_ACCEL_FLEXNERFER_H_

#include "accel/accelerator.h"
#include "gemm/engine.h"

namespace flexnerfer {

/**
 * FlexNeRFer accelerator model.
 *
 * Thread-safety: immutable after construction (config only); Plan builds
 * all transient state locally, so one instance serves concurrent
 * SweepRunner/RenderService invocations.
 */
class FlexNeRFerModel : public Accelerator
{
  public:
    struct Config {
        Precision precision = Precision::kInt16;
        int array_dim = 64;
        double clock_ghz = 0.8;
        bool support_sparsity = true;
        bool use_flex_codec = true;
        /** Distribution-network dataflow of the GEMM unit (Section 4.2);
         *  non-default styles model the ablation baselines. */
        NocStyle noc_style = NocStyle::kHmfTree;
        /** PEE: 64 parallel trigonometric encoders (Section 5.2.1). */
        double pee_values_per_cycle = 64.0;
        /** HEE: 64 coalescing/subgrid hash units + interpolators. */
        double hee_queries_per_cycle = 64.0;
        /** SIMD lanes of the auxiliary vector path (compositing etc.). */
        double vector_lanes = 128.0;
        double dram_gb_s = 12.8;

        /** Per-event energies (pJ), 28 nm class. */
        double pee_energy_pj_per_value = 1.5;
        double hee_energy_pj_per_query = 3.0;
        double vector_energy_pj_per_flop = 0.6;

        /**
         * Clock-tree + leakage + idle-stage power floor while rendering.
         * Calibrated so frame-average power lands at the published 7.3 W
         * (INT16) chip power.
         */
        double static_power_w = 5.0;
    };

    explicit FlexNeRFerModel(const Config& config) : config_(config) {}
    FlexNeRFerModel() : FlexNeRFerModel(Config{}) {}

    /** Lowers every op with the codec-aware pipeline policy; GEMMs run
     *  on the sparsity-capable engine configured by EngineConfigFor. */
    FramePlan Plan(const NerfWorkload& workload) const override;

    void AppendConfigFingerprint(std::string* out) const override;

    std::string name() const override;

    /** Lowering hook: the GEMM engine configuration for one workload op
     *  (per-op tuning such as mixed precision attaches here). */
    GemmEngineConfig EngineConfigFor(const WorkloadOp& op) const;

    const Config& config() const { return config_; }

  private:
    Config config_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_ACCEL_FLEXNERFER_H_
