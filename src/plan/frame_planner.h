/**
 * @file
 * Entry point of the compile half of frame execution.
 *
 * FramePlanner::Compile lowers a workload into a FramePlan through the
 * target accelerator's per-model lowering hooks (Accelerator::Plan) and
 * is the seam PlanCache compiles through on a miss. It also builds the
 * (model config, workload) cache key so every key consumer derives it
 * the same way.
 *
 * Compilation is a pure function of (accel config, workload): two
 * compiles of the same pair yield byte-identical plans, on any thread,
 * which is why an evicted cache entry can recompile transparently.
 *
 * Thread-safety: stateless (static members only); may be called
 * concurrently.
 */
#ifndef FLEXNERFER_PLAN_FRAME_PLANNER_H_
#define FLEXNERFER_PLAN_FRAME_PLANNER_H_

#include <string>

#include "accel/accelerator.h"
#include "plan/frame_plan.h"

namespace flexnerfer {

/** Compiles workloads into FramePlans for a target accelerator. */
class FramePlanner
{
  public:
    /**
     * Lowers @p workload for @p accel: every per-op decision is resolved
     * into the returned plan, which can then be executed any number of
     * times, on any thread, with bit-identical results.
     */
    static FramePlan Compile(const Accelerator& accel,
                             const NerfWorkload& workload);

    /**
     * The PlanCache key of (accel config, workload): injective in both
     * components, so two keys are equal iff the compiled plans would be.
     */
    static std::string CacheKey(const Accelerator& accel,
                                const NerfWorkload& workload);

    /** Appends the cache key to @p out (reusable-buffer form: key
     *  construction dominates the keyed replay path). */
    static void AppendCacheKey(const Accelerator& accel,
                               const NerfWorkload& workload,
                               std::string* out);
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_PLAN_FRAME_PLANNER_H_
