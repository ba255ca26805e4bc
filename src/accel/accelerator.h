/**
 * @file
 * Common interface of frame-level accelerator models: given a NeRF
 * workload descriptor, estimate per-frame latency and energy with a
 * stage-level breakdown (the quantities behind Figs. 1, 3, 18, 19, 20).
 *
 * Execution is split into compile and execute: an Accelerator lowers a
 * workload into a FramePlan of fully resolved per-op decisions (Plan),
 * and the plan is executed, in topological order on the calling
 * thread, by the plan layer (see plan/frame_plan.h). RunWorkload is the
 * one-shot convenience that compiles and executes in place.
 */
#ifndef FLEXNERFER_ACCEL_ACCELERATOR_H_
#define FLEXNERFER_ACCEL_ACCELERATOR_H_

#include <string>

#include "models/workload.h"

namespace flexnerfer {

class FramePlan;

/** Per-frame cost with a stage breakdown. */
struct FrameCost {
    double latency_ms = 0.0;
    double energy_mj = 0.0;

    double gemm_ms = 0.0;      //!< GEMM/GEMV compute (incl. fetch overlap)
    double encoding_ms = 0.0;  //!< positional + hash encoding
    double other_ms = 0.0;     //!< sampling, compositing, misc
    double codec_ms = 0.0;     //!< format conversion (FlexNeRFer only)
    double dram_ms = 0.0;      //!< exposed DRAM stall time

    double gemm_utilization = 0.0;  //!< MAC utilization over GEMM ops
    /** Useful GEMM MACs behind gemm_utilization — the weight that lets
     *  summed costs combine utilization as a meaningful average. */
    double gemm_macs = 0.0;

    /**
     * Length of the longest dependency chain through the frame's op
     * DAG, in ms — the latency floor of a layer-pipelined execution
     * where every op starts the moment its predecessors retire (see
     * plan/frame_plan.h). latency_ms stays the flat per-op sum (the
     * device-occupancy/energy basis); critical_path_ms <= latency_ms
     * up to summation-order rounding, with equality (same caveat) for
     * single-op-per-layer (pure chain) plans. 0 when no plan execution
     * produced the cost.
     */
    double critical_path_ms = 0.0;

    FrameCost&
    operator+=(const FrameCost& o)
    {
        // Utilization is combined as a MAC-weighted average so that a
        // summed cost reports the utilization of the merged execution
        // instead of silently dropping the field.
        const double macs = gemm_macs + o.gemm_macs;
        if (macs > 0.0) {
            gemm_utilization = (gemm_utilization * gemm_macs +
                                o.gemm_utilization * o.gemm_macs) /
                               macs;
        }
        gemm_macs = macs;
        latency_ms += o.latency_ms;
        energy_mj += o.energy_mj;
        gemm_ms += o.gemm_ms;
        encoding_ms += o.encoding_ms;
        other_ms += o.other_ms;
        codec_ms += o.codec_ms;
        dram_ms += o.dram_ms;
        // Summed costs model frames rendered back to back, so their
        // pipeline floors serialize too.
        critical_path_ms += o.critical_path_ms;
        return *this;
    }

    /**
     * Exact equality on every field — the single authoritative
     * predicate behind the repo's bit-identical replay contracts
     * (tests/frame_cost_matchers.h, bench/serving, bench/plan_cache).
     * Hand-written, not defaulted: the tree builds as C++17. A field
     * added to FrameCost must be added here (and to operator+= above).
     */
    friend bool
    operator==(const FrameCost& a, const FrameCost& b)
    {
        return a.latency_ms == b.latency_ms &&
               a.energy_mj == b.energy_mj && a.gemm_ms == b.gemm_ms &&
               a.encoding_ms == b.encoding_ms &&
               a.other_ms == b.other_ms && a.codec_ms == b.codec_ms &&
               a.dram_ms == b.dram_ms &&
               a.gemm_utilization == b.gemm_utilization &&
               a.gemm_macs == b.gemm_macs &&
               a.critical_path_ms == b.critical_path_ms;
    }

    friend bool
    operator!=(const FrameCost& a, const FrameCost& b)
    {
        return !(a == b);
    }
};

/**
 * The service-time estimate serving layers feed into admission control
 * and spill surcharges: the dependency-DAG critical path when the plan
 * carries one, else the flat op sum (costs not produced by a plan
 * execution, e.g. hand-assembled test fixtures). One definition, so the
 * admission model, the shard router's probes, and the benches can never
 * disagree about what "the scene's latency estimate" means.
 */
inline double
EstimatedServiceMs(const FrameCost& cost)
{
    return cost.critical_path_ms > 0.0 ? cost.critical_path_ms
                                       : cost.latency_ms;
}

/**
 * The batched variant: what joining an in-flight same-scene batch costs
 * on the margin. @p fused is the executed cost of the batch with the
 * joiner fused in, @p previous the cost at the batch's current size —
 * the difference is how much the pipeline floor actually grows, which
 * for a FuseBatch frame is roughly one bottleneck-stage latency instead
 * of a whole frame (models/workload.h). Floored at zero so admission
 * never books negative service time. Marginals telescope: summed over a
 * batch's joiners plus the opener's full estimate, they reproduce the
 * fused frame's EstimatedServiceMs exactly, keeping the admission
 * model's busy-time accounting consistent with what the device executes.
 */
inline double
EstimatedMarginalServiceMs(const FrameCost& fused,
                           const FrameCost& previous)
{
    const double delta =
        EstimatedServiceMs(fused) - EstimatedServiceMs(previous);
    return delta > 0.0 ? delta : 0.0;
}

/**
 * The trajectory variant: what a delta frame (models/trajectory.h,
 * DeltaWorkload) costs next to recomputing the frame from scratch.
 * @p delta is the executed cost of the shrunken delta plan, @p full the
 * cost of the scene's full frame — a delta plan never prices above the
 * full recompute it replaces (the warp floor can exceed the shrunken
 * op DAG's savings only for degenerate tiny scenes, and admission must
 * not punish the session for that), so the estimate is the minimum of
 * the two. Like the marginal estimator, this is a pure function of two
 * replayed costs: the price a session frame is admitted at is exactly
 * the price the cluster's probes can reproduce.
 */
inline double
EstimatedDeltaServiceMs(const FrameCost& delta, const FrameCost& full)
{
    const double delta_ms = EstimatedServiceMs(delta);
    const double full_ms = EstimatedServiceMs(full);
    return delta_ms < full_ms ? delta_ms : full_ms;
}

/**
 * A device that can execute a NeRF frame.
 *
 * Thread-safety contract: implementations must keep Plan const in the
 * deep sense — no mutable members, no global state — so one instance can
 * serve concurrent invocations from SweepRunner/RenderService workers.
 * Plans are pure functions of (model config, workload): two calls with
 * equal inputs produce plans that execute bit-identically, which is what
 * makes plan caching and parallel sweeps reproducible.
 */
class Accelerator
{
  public:
    virtual ~Accelerator() = default;

    /**
     * Lowers @p workload into an executable FramePlan: every per-op
     * decision (precision, sparsity handling, dataflow, DRAM residency)
     * is resolved here, once, so repeated frames replay the plan without
     * re-deriving anything. Safe to call concurrently on one instance.
     */
    virtual FramePlan Plan(const NerfWorkload& workload) const = 0;

    /**
     * Appends an injective fingerprint of the model configuration —
     * every field that can change Plan's output — to @p out. PlanCache
     * keys plans by (config fingerprint, workload fingerprint).
     */
    virtual void AppendConfigFingerprint(std::string* out) const = 0;

    /**
     * Estimates the cost of rendering one frame of @p workload by
     * compiling and executing a plan in place. Safe to call
     * concurrently on one instance.
     */
    FrameCost RunWorkload(const NerfWorkload& workload) const;

    virtual std::string name() const = 0;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_ACCEL_ACCELERATOR_H_
