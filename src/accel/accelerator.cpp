#include "accel/accelerator.h"

#include "plan/frame_plan.h"

namespace flexnerfer {

FrameCost
Accelerator::RunWorkload(const NerfWorkload& workload) const
{
    return Plan(workload).Execute();
}

}  // namespace flexnerfer
