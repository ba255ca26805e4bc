/**
 * @file
 * Workload descriptors for the seven NeRF models the paper evaluates:
 * NeRF, KiloNeRF, NSVF, Mip-NeRF, Instant-NGP, IBRNet, and TensoRF.
 *
 * A workload is the per-frame operator list — GEMM/GEMV shapes, encoding
 * volumes, and miscellaneous compute — derived from each model's published
 * architecture at the paper's evaluation point (800 x 800 images, batch
 * size 4096, Synthetic-NeRF-class scenes). The accelerator models consume
 * these descriptors to estimate latency and energy.
 */
#ifndef FLEXNERFER_MODELS_WORKLOAD_H_
#define FLEXNERFER_MODELS_WORKLOAD_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "gemm/engine.h"

namespace flexnerfer {

/** Categories of per-frame work. */
enum class OpKind : std::uint8_t {
    kGemm,                //!< matrix/matrix-vector products (MLP, attention)
    kPositionalEncoding,  //!< sinusoidal feature encoding (Eq. 1)
    kHashEncoding,        //!< grid/hash feature lookup + interpolation
    kOther,               //!< sampling, compositing, misc element-wise work
};

/**
 * The producer indices of one op, held inline. Base ops read at most
 * two producers and FuseBatch adds one cross-element edge, so four
 * slots cover every workload and an op list never allocates per op. A
 * push past capacity is a simulator bug (FLEX_CHECK).
 */
class OpDeps
{
  public:
    static constexpr std::size_t kCapacity = 4;

    OpDeps() = default;
    OpDeps(std::initializer_list<std::size_t> deps)
    {
        for (const std::size_t dep : deps) push_back(dep);
    }

    void
    push_back(std::size_t dep)
    {
        FLEX_CHECK_MSG(size_ < kCapacity,
                       "an op reads at most " << kCapacity << " producers");
        slots_[size_++] = dep;
    }
    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t operator[](std::size_t i) const { return slots_[i]; }
    std::size_t back() const { return slots_[size_ - 1]; }

    std::size_t* begin() { return slots_; }
    std::size_t* end() { return slots_ + size_; }
    const std::size_t* begin() const { return slots_; }
    const std::size_t* end() const { return slots_ + size_; }

    friend bool
    operator==(const OpDeps& a, const OpDeps& b)
    {
        if (a.size_ != b.size_) return false;
        for (std::size_t i = 0; i < a.size_; ++i) {
            if (a.slots_[i] != b.slots_[i]) return false;
        }
        return true;
    }

  private:
    std::size_t slots_[kCapacity] = {};
    std::size_t size_ = 0;
};

/** One operator instance within a frame. */
struct WorkloadOp {
    OpKind kind = OpKind::kGemm;
    /**
     * A view into static storage, never owned: BuildWorkload's literal
     * name tables, or the interned table (common/intern.h) for derived
     * names such as FuseBatch's "#e<k>". Never assign it a temporary
     * std::string.
     */
    std::string_view name;

    /**
     * Indices (into NerfWorkload::ops) of the ops whose outputs this op
     * consumes — MLP layers chain on their predecessor, encodings chain
     * on the sampling pass that produced their query points, volume
     * rendering chains on the final color head. Edges may point forward
     * (op order is the reduction order, not the schedule); the plan
     * layer topologically sorts them into a layered DAG, executes it in
     * that order and folds its critical path (see plan/frame_plan.h).
     * An empty list marks a source op, ready at frame start.
     */
    OpDeps deps;

    /** GEMM geometry (kGemm only); m is the total sample count. */
    GemmShape gemm;
    /** True for hidden layers whose activations never leave the chip. */
    bool activations_on_chip = false;

    /** Scalar values to encode (kPositionalEncoding) or grid queries
     *  times levels (kHashEncoding). */
    double encoding_values = 0.0;

    /** Floating-point operations for kOther work. */
    double other_flops = 0.0;

    /** Total multiply-accumulates of this op (kGemm only). */
    double Macs() const;
};

/** Per-frame workload of one NeRF model. */
struct NerfWorkload {
    /** Interned (common/intern.h) or a literal, like WorkloadOp::name:
     *  a derived workload names itself without allocating once its
     *  name was seen. Never assign it a temporary std::string. */
    std::string_view name;
    std::vector<WorkloadOp> ops;
    double samples_per_frame = 0.0;
    int batch_size = 4096;

    double TotalGemmMacs() const;
    double TotalEncodingValues() const;
};

/** Global parameters of the evaluation setup. */
struct WorkloadParams {
    int image_width = 800;
    int image_height = 800;
    int batch_size = 4096;
    /**
     * Scene complexity factor scaling effective (post empty-space-skipping)
     * sample counts: ~0.8 for simple scenes (Mic), 1.0 nominal (Lego),
     * ~1.3 for complex scenes (Palace).
     */
    double scene_complexity = 1.0;
    /** Post-ReLU activation density of hidden layers (Fig. 13(a)). */
    double activation_density = 0.55;
    /** Structured pruning ratio applied to all MLP weights (Fig. 19). */
    double weight_prune_ratio = 0.0;
};

/**
 * Appends an injective fingerprint of @p workload — every op with its
 * full geometry, densities, encoding volumes, and residency flags — to
 * @p out. Workloads differing in any per-op parameter (e.g. one op's
 * density) never share a fingerprint, so plan-cache keys built from it
 * cannot collide.
 */
void AppendFingerprint(const NerfWorkload& workload, std::string* out);

/** The workload fingerprint as a standalone key component. */
std::string WorkloadFingerprint(const NerfWorkload& workload);

/** Names of the seven evaluated models, in the paper's order. */
const std::vector<std::string>& AllModelNames();

/** Builds the per-frame workload descriptor for @p model_name. */
NerfWorkload BuildWorkload(const std::string& model_name,
                           const WorkloadParams& params = {});

/**
 * Fuses @p elements requests for the same scene into one batched
 * workload: the base op list is replicated once per batch element, each
 * replica keeping its intra-element dependency chain, plus one
 * cross-element edge per op from the previous element's instance of the
 * same op. The cross edges model per-stage unit occupancy — each
 * pipeline stage serves one batch element at a time — so the plan
 * layer's critical path overlaps element N's color/compositing with
 * element N+1's sampling (the Potamoi-style unified streaming of ray/sample
 * stages; see PAPERS.md), and the fused frame's critical path grows by
 * roughly one bottleneck-stage latency per extra element instead of a
 * whole frame:
 *
 *   critical_path(B) ~= critical_path(1) + (B - 1) x bottleneck_stage
 *
 * The marginal cost of joining a batch (accel/accelerator.h,
 * EstimatedMarginalServiceMs) falls out of that directly.
 *
 * The fused workload is a first-class NerfWorkload: its name carries a
 * "+batch<B>" suffix and its op names an "#e<k>" element suffix, so its
 * fingerprint — and therefore its plan-cache identity — separates from
 * the base workload and from every other batch shape. @p elements == 1
 * returns @p base unchanged (same fingerprint, same cache entry).
 */
NerfWorkload FuseBatch(const NerfWorkload& base, std::size_t elements);

}  // namespace flexnerfer

#endif  // FLEXNERFER_MODELS_WORKLOAD_H_
