#include "accel/accelerator.h"

#include "common/logging.h"
#include "plan/frame_plan.h"

namespace flexnerfer {

FrameCost
Accelerator::RunWorkload(const NerfWorkload& workload, ThreadPool* pool) const
{
    return Plan(workload).Execute(pool);
}

ServiceEstimate
Accelerator::Estimate(const FrameCost& cost, const EstimateContext& context)
{
    ServiceEstimate estimate;
    estimate.kind = context.kind;
    switch (context.kind) {
        case EstimateKind::kFull:
            estimate.service_ms = EstimatedServiceMs(cost);
            estimate.full_ms = estimate.service_ms;
            break;
        case EstimateKind::kBatchJoin:
            FLEX_CHECK_MSG(context.reference != nullptr,
                           "kBatchJoin needs the batch's current cost");
            estimate.service_ms =
                EstimatedMarginalServiceMs(cost, *context.reference);
            // What the join saved is the joiner's solo price minus the
            // margin, but the solo cost is not among this rule's
            // operands (fused, previous); full_ms reports the fused
            // frame's standalone estimate so callers can still see the
            // whole batch's price next to the margin they were booked.
            estimate.full_ms = EstimatedServiceMs(cost);
            break;
        case EstimateKind::kDelta:
            FLEX_CHECK_MSG(context.reference != nullptr,
                           "kDelta needs the scene's full-frame cost");
            estimate.service_ms =
                EstimatedDeltaServiceMs(cost, *context.reference);
            estimate.full_ms = EstimatedServiceMs(*context.reference);
            break;
    }
    estimate.service_ms += context.extra_service_ms;
    estimate.full_ms += context.extra_service_ms;
    estimate.savings_ms = estimate.full_ms - estimate.service_ms;
    return estimate;
}

}  // namespace flexnerfer
