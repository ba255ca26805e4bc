/**
 * @file
 * Temporal-coherence modeling for trajectory serving: camera poses,
 * trajectory requests, the pose-delta -> reuse-fraction coherence
 * model, and the delta-workload transform.
 *
 * Real AR/VR traffic is a camera *trajectory*, not independent frames
 * (RT-NeRF's motivating scenario, PAPERS.md), and Cicero shows that
 * warping the previous frame's radiance lets most of frame N+1's work
 * be skipped when view overlap is high. This file grounds that in the
 * repo's virtual-time contract: a CoherenceModel maps the inter-frame
 * pose delta to a *reuse fraction* — the share of the previous frame's
 * results the next frame can keep — and DeltaWorkload() shrinks the
 * base op DAG accordingly: sampling/feature/color ops scale down to the
 * invalidated fraction of the view, a warp/validate pass proportional
 * to the reused fraction is added, and every dependency edge is
 * preserved, so the unchanged plan executor runs the delta plan
 * exactly like any other frame.
 *
 * Reuse fractions are quantized to a fixed grid (CoherenceModel::
 * reuse_quanta, default 1/64ths). Quantization keeps the space of
 * delta *shapes* finite — one plan-cache entry per (scene, quantum)
 * instead of one per continuous pose delta — which is what makes delta
 * plans cacheable and the serving path's delta-hit accounting exact
 * (see plan/plan_cache.h PrepareDelta and serve/render_service.h,
 * whose per-scene state owns one delta shape per quantum).
 *
 * Everything here is a pure function of its inputs: two sessions
 * replaying the same pose path derive identical reuse fractions,
 * identical delta workloads, and therefore identical fingerprints and
 * verdicts, for any thread count.
 */
#ifndef FLEXNERFER_MODELS_TRAJECTORY_H_
#define FLEXNERFER_MODELS_TRAJECTORY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "models/workload.h"

namespace flexnerfer {

/** One camera pose: position in scene units, orientation in degrees. */
struct Pose {
    double x = 0.0;
    double y = 0.0;
    double z = 0.0;
    double yaw_deg = 0.0;
    double pitch_deg = 0.0;

    friend bool
    operator==(const Pose& a, const Pose& b)
    {
        return a.x == b.x && a.y == b.y && a.z == b.z &&
               a.yaw_deg == b.yaw_deg && a.pitch_deg == b.pitch_deg;
    }
    friend bool
    operator!=(const Pose& a, const Pose& b)
    {
        return !(a == b);
    }
};

/**
 * One client's deterministic camera path over a scene: the session
 * request type. Frame k renders `poses[k]` and arrives at
 * `start_ms + k * frame_interval_ms` in virtual time; tier/priority/
 * deadline apply to every frame of the trajectory (they become the
 * per-frame SceneRequest fields the serving layer admits with).
 */
struct TrajectoryRequest {
    std::string scene;
    std::size_t tier = 0;
    int priority = 0;
    double deadline_ms = 0.0;       //!< per-frame; 0 = tier default
    double start_ms = 0.0;          //!< virtual arrival of frame 0
    double frame_interval_ms = 0.0; //!< virtual inter-frame spacing
    std::vector<Pose> poses;
};

/**
 * Maps an inter-frame pose delta to the fraction of the previous
 * frame's results the next frame can reuse, Cicero-style: translation
 * and rotation each invalidate view content proportionally to their
 * magnitude, and the remainder — the view overlap — is reusable.
 *
 *   invalidated = |Δposition| / translation_scale
 *               + |Δorientation| / rotation_scale_deg
 *   reuse       = clamp(1 - invalidated, 0, 1), quantized DOWN to the
 *                 1/reuse_quanta grid (rounding down is conservative:
 *                 never reuse more than the overlap justifies)
 *
 * A reuse fraction below `break_threshold` is a *coherence break*: the
 * overlap is too small for warping to pay off, and the serving layer
 * falls back to a full recompute (counted distinctly — see
 * serve/render_service.h session stats).
 */
struct CoherenceModel {
    /** Scene units of translation that invalidate the whole view. */
    double translation_scale = 1.0;
    /** Degrees of rotation that invalidate the whole view. */
    double rotation_scale_deg = 90.0;
    /** Reuse below this fraction is a coherence break (full frame). */
    double break_threshold = 0.25;
    /** Quantization grid for reuse fractions (>= 1). */
    std::size_t reuse_quanta = 64;

    /**
     * The quantized reuse numerator in [0, reuse_quanta]: the next
     * frame reuses quantum/reuse_quanta of the previous one. The
     * (scene, quantum) pair is the delta-plan cache grain.
     */
    std::size_t ReuseQuantum(const Pose& previous, const Pose& next) const;

    /** ReuseQuantum as a fraction in [0, 1]. */
    double ReuseFraction(const Pose& previous, const Pose& next) const;

    /** Whether @p quantum (of reuse_quanta) is below break_threshold. */
    bool IsCoherenceBreak(std::size_t quantum) const;
};

/**
 * Emits the shrunken op DAG for a frame that reuses @p reuse_quantum /
 * @p reuse_quanta of its predecessor (a CoherenceModel quantum). The
 * invalidated fraction inv = 1 - reuse scales every op's work — GEMM
 * sample counts, encoding volumes, and misc flops all multiply by inv,
 * floored at one unit so no op vanishes (the warp still touches every
 * stage's control path) — while the dependency edges are copied
 * verbatim, so the delta plan's pipeline schedule has the base frame's
 * shape, just thinner. A "warp_validate" source op proportional to the
 * *reused* fraction is appended (Cicero's reprojection + validation
 * pass: work that grows with how much is kept, the floor cost of a
 * fully-static camera).
 *
 * The delta workload is a first-class NerfWorkload whose name carries a
 * "+delta<q>of<Q>" suffix and whose op names carry "#d", so its
 * fingerprint — and plan-cache identity — separates from the base
 * frame and from every other quantum. @p reuse_quantum == 0 returns
 * @p base unchanged (no overlap means a full recompute: same
 * fingerprint, same cache entry). @p reuse_quantum > @p reuse_quanta
 * is fatal.
 */
NerfWorkload DeltaWorkload(const NerfWorkload& base,
                           std::size_t reuse_quantum,
                           std::size_t reuse_quanta);

}  // namespace flexnerfer

#endif  // FLEXNERFER_MODELS_TRAJECTORY_H_
