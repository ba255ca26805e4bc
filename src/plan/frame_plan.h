/**
 * @file
 * Compiled execution plan of one NeRF frame.
 *
 * A FramePlan is the compile-half of the frame loop split: every per-op
 * decision an accelerator model makes — precision, sparsity format,
 * dataflow, DRAM residency, engine geometry — is resolved once, at
 * compile time, into a list of PlannedOps. Executing the plan then only
 * runs the cycle-level GEMM engine for engine-backed ops (everything
 * else was folded into fixed cost fragments during lowering) and reduces
 * the per-op fragments in enqueue order. The engine runs once per
 * distinct run: Build marks every engine op whose run (config, shape,
 * lowering, useful MACs) is bit-equal to that of one of its direct
 * predecessors — the equal hidden layers of an MLP trunk, one layer
 * across the elements of a fused batch — and Execute copies that
 * predecessor's fragment, which has always been evaluated by then.
 *
 * Plans are dependency-aware: each PlannedOp carries the predecessor
 * edges of its workload op (MLP layer chains, the sampling -> feature
 * -> color stage structure; see models/workload.h), and Build validates
 * them into a layered DAG with a deterministic topological order.
 * Execute evaluates the ops in that order on the calling thread: an op
 * costs about a tenth of a microsecond, far less than a hand-off to a
 * pool worker, so host parallelism pays only across frames (see
 * runtime/sweep_runner.h). The overlap of independent branches (a color
 * head and a view encoding, sibling feature grids) is modeled on the
 * chip's virtual timeline instead: the DAG yields the frame's pipeline
 * floor, the critical-path latency reported in
 * FrameCost::critical_path_ms, which serving admission uses as its
 * service-time estimator (accelerator.h's EstimatedServiceMs).
 *
 * Determinism contract (matching SweepRunner): Execute is a pure
 * function of the plan — fragments are computed into pre-assigned slots
 * and reduced in op order, and the critical path is folded in
 * topological order with one max+add per edge — so the returned
 * FrameCost is bit-identical on any thread, run after run.
 *
 * Thread-safety: a FramePlan is immutable after Build; Execute is deeply
 * const and may be called concurrently on one instance (each call owns
 * its fragment buffer). The optional GemmMemo is internally synchronized.
 */
#ifndef FLEXNERFER_PLAN_FRAME_PLAN_H_
#define FLEXNERFER_PLAN_FRAME_PLAN_H_

#include <string>
#include <string_view>
#include <vector>

#include "accel/accelerator.h"
#include "gemm/engine.h"
#include "models/workload.h"

namespace flexnerfer {

class GemmMemo;
class TraceRecorder;

/** Cost fragment of one planned op plus its utilization sample. */
struct OpCost {
    /** Stage/latency fragment. energy_mj is in plan energy units: mJ for
     *  the ASIC models, joules for the GPU roofline (see energy_scale). */
    FrameCost cost;
    double utilization_weighted = 0.0;  //!< utilization x weight
    double utilization_macs = 0.0;      //!< weight (useful MACs)
};

/**
 * How an engine-backed op's GemmResult folds into its cost fragment —
 * the per-model cost-assembly policies that used to live in three
 * near-duplicate RunWorkload switch-loops.
 */
enum class GemmLowering : std::uint8_t {
    /** FlexNeRFer: the inline codec and DRAM are pipelined with compute;
     *  only the cycles where they are the slowest stage are exposed. */
    kCodecAware,
    /** NeuRex-style dense engine: DRAM stalls are exposed; utilization
     *  is measured against the truly useful (sparse) work. */
    kDenseEngine,
};

/** One operator of a compiled frame, with all decisions resolved. */
struct PlannedOp {
    OpKind kind = OpKind::kGemm;
    /** The workload op's name: a view into static or interned storage
     *  (see WorkloadOp::name), never owned. */
    std::string_view name;

    /** Predecessor op indices (the workload op's dependency edges,
     *  inline). Empty marks a source op, ready at frame start. */
    OpDeps deps;

    /** True when Execute must run the GEMM engine for this op; false
     *  when the fragment was fully resolved at compile time. */
    bool uses_engine = false;
    GemmEngineConfig engine_config;  //!< fully resolved at compile time
    GemmShape shape;                 //!< possibly rewritten by lowering
    GemmLowering lowering = GemmLowering::kCodecAware;
    /** Useful (sparse) MACs weighting kDenseEngine utilization. */
    double useful_macs = 0.0;

    /** The fragment of non-engine ops, resolved at compile time. */
    OpCost fixed;

    /** Computes this op's cost fragment (pure; memo optional). */
    OpCost Evaluate(GemmMemo* memo) const;
};

/** Executable plan for one frame of one accelerator configuration. */
class FramePlan
{
  public:
    /**
     * Executes every op in topological order on the calling thread and
     * reduces the fragments in enqueue order. The engine runs
     * engine_run_count() times; the other engine ops copy a direct
     * predecessor's fragment. @p memo, when given, memoizes engine runs
     * across repeated executions (and across plans sharing
     * engine-config/shape pairs): one lookup per distinct run.
     * Bit-identical with or without it, including the critical-path
     * field.
     */
    FrameCost Execute(GemmMemo* memo = nullptr) const;

    std::string_view workload_name() const { return workload_name_; }
    const std::vector<PlannedOp>& ops() const { return ops_; }

    /** Engine-backed ops (uses_engine), whether or not Execute runs
     *  the engine for each: see engine_run_count. */
    std::size_t engine_op_count() const;

    /** Distinct engine runs Execute performs: engine ops minus those
     *  that copy the fragment of a direct predecessor with a bit-equal
     *  run (same config, shape, lowering and useful MACs). */
    std::size_t engine_run_count() const;

    /**
     * The @p k-th op of the deterministic topological order Build
     * derived: Kahn's algorithm with the lowest-index ready op first,
     * so two compiles of one (config, workload) — on any thread —
     * order identically.
     */
    std::size_t topo_order(std::size_t k) const { return index_[k]; }

    /** Dependency layer of op @p i: 0 for sources, else
     *  1 + max(layer of predecessors). */
    std::size_t layer_of(std::size_t i) const {
        return index_[ops_.size() + i];
    }

    /** Number of dependency layers (pipeline depth); 0 for empty plans,
     *  ops_.size() for a pure chain. */
    std::size_t depth() const { return depth_; }

    /** Post-reduction static power term (mJ += latency_ms x W). */
    double static_power_w() const { return static_power_w_; }

  private:
    friend class FramePlanBuilder;

    /** Execute's per-op scratch: one allocation per frame. */
    struct OpSlot {
        OpCost fragment;
        double finish_ms = 0.0;      //!< critical-path fold
        double wall_begin_us = 0.0;  //!< measured when tracing
        double wall_end_us = 0.0;
    };

    /** The op whose fragment op @p i copies: @p i itself when op i is
     *  evaluated, else a direct predecessor with a bit-equal engine
     *  run. */
    std::size_t run_source(std::size_t i) const {
        return index_[2 * ops_.size() + i];
    }

    /** The workload's name (NerfWorkload::name: interned or a
     *  literal), so a plan carries no copy of it. */
    std::string_view workload_name_;
    std::vector<PlannedOp> ops_;
    /**
     * Every index Build derives, in one block of 3n words for n ops:
     * [0, n) the topological order; [n, 2n) each op's layer; and
     * [2n, 3n) each op's run source (see run_source).
     */
    std::vector<std::size_t> index_;
    std::size_t depth_ = 0;
    /** Applied to the summed per-op energies before the static-power
     *  term: 1.0 for mJ fragments, 1e3 for the GPU's joule fragments
     *  (preserving the legacy sum-then-scale rounding exactly). */
    double energy_scale_ = 1.0;
    double static_power_w_ = 0.0;
};

/** Assembles a FramePlan during lowering (used by Accelerator::Plan). */
class FramePlanBuilder
{
  public:
    /** @p op_count, when known, sizes the op list once up front. */
    explicit FramePlanBuilder(std::string_view workload_name,
                              std::size_t op_count = 0);

    /** Sets the post-reduction epilogue terms (see FramePlan). */
    void SetEpilogue(double static_power_w, double energy_scale = 1.0);

    /**
     * Adds an engine-backed GEMM op with its resolved config and shape;
     * @p useful_macs only matters for kDenseEngine utilization
     * weighting. The workload op's dependency edges carry over into the
     * plan.
     */
    void AddEngineOp(const WorkloadOp& op, const GemmEngineConfig& config,
                     const GemmShape& shape, GemmLowering lowering,
                     double useful_macs = 0.0);

    /** Adds an op whose fragment is fully resolved at compile time. */
    void AddFixedOp(const WorkloadOp& op, const OpCost& fragment);

    /**
     * Finalizes the plan; the builder must not be reused afterwards.
     * Validates the dependency edges — every index in range, no cycles
     * (fatal otherwise) — and derives the deterministic topological
     * order, the layer assignment and each op's run source.
     */
    FramePlan Build();

  private:
    FramePlan plan_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_PLAN_FRAME_PLAN_H_
