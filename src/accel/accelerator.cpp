#include "accel/accelerator.h"

#include "plan/frame_plan.h"

namespace flexnerfer {

FrameCost
Accelerator::RunWorkload(const NerfWorkload& workload, ThreadPool* pool) const
{
    return Plan(workload).Execute(pool);
}

}  // namespace flexnerfer
