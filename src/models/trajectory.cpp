#include "models/trajectory.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string_view>

#include "common/intern.h"
#include "common/logging.h"

namespace flexnerfer {

namespace {

/** Magnitude of the pose delta as a fraction of a full-view change. */
double
InvalidatedFraction(const CoherenceModel& model, const Pose& previous,
                    const Pose& next)
{
    FLEX_CHECK_MSG(model.translation_scale > 0.0 &&
                       model.rotation_scale_deg > 0.0,
                   "CoherenceModel scales must be positive");
    const double dx = next.x - previous.x;
    const double dy = next.y - previous.y;
    const double dz = next.z - previous.z;
    const double translation = std::sqrt(dx * dx + dy * dy + dz * dz);
    const double rotation = std::abs(next.yaw_deg - previous.yaw_deg) +
                            std::abs(next.pitch_deg - previous.pitch_deg);
    return translation / model.translation_scale +
           rotation / model.rotation_scale_deg;
}

}  // namespace

std::size_t
CoherenceModel::ReuseQuantum(const Pose& previous, const Pose& next) const
{
    FLEX_CHECK_MSG(reuse_quanta >= 1, "reuse_quanta must be >= 1");
    const double invalidated = InvalidatedFraction(*this, previous, next);
    const double overlap = std::max(0.0, std::min(1.0, 1.0 - invalidated));
    // Quantize DOWN: never claim more reuse than the overlap justifies.
    return static_cast<std::size_t>(
        std::floor(overlap * static_cast<double>(reuse_quanta)));
}

double
CoherenceModel::ReuseFraction(const Pose& previous, const Pose& next) const
{
    return static_cast<double>(ReuseQuantum(previous, next)) /
           static_cast<double>(reuse_quanta);
}

bool
CoherenceModel::IsCoherenceBreak(std::size_t quantum) const
{
    return static_cast<double>(quantum) /
               static_cast<double>(reuse_quanta) <
           break_threshold;
}

NerfWorkload
DeltaWorkload(const NerfWorkload& base, std::size_t reuse_quantum,
              std::size_t reuse_quanta)
{
    FLEX_CHECK_MSG(reuse_quanta >= 1, "reuse_quanta must be >= 1");
    FLEX_CHECK_MSG(reuse_quantum <= reuse_quanta,
                   "reuse quantum " << reuse_quantum << " exceeds grid "
                                    << reuse_quanta);
    if (reuse_quantum == 0) {
        // No overlap: a full recompute, identical fingerprint and all.
        return base;
    }

    const double reuse = static_cast<double>(reuse_quantum) /
                         static_cast<double>(reuse_quanta);
    const double invalidated = 1.0 - reuse;

    NerfWorkload delta;
    // "+delta<q>of<n>", joined to the base name in the interned table:
    // a repeated delta shape allocates no name.
    char tag[64];
    const int tag_size = std::snprintf(tag, sizeof(tag), "+delta%zuof%zu",
                                       reuse_quantum, reuse_quanta);
    delta.name = InternName(
        base.name, std::string_view(tag, static_cast<std::size_t>(tag_size)));
    delta.batch_size = base.batch_size;
    delta.samples_per_frame =
        std::max(1.0, base.samples_per_frame * invalidated);
    // One allocation: the base ops plus the warp pass appended below.
    delta.ops.reserve(base.ops.size() + 1);
    delta.ops.assign(base.ops.begin(), base.ops.end());

    for (WorkloadOp& op : delta.ops) {
        // Deps are copied verbatim: the delta DAG has the base frame's
        // shape, each stage just processes fewer samples. The "#d" name
        // is interned, so a repeated delta shape allocates no name.
        op.name = InternName(op.name, "#d");
        if (op.kind == OpKind::kGemm) {
            op.gemm.m = std::max<std::int64_t>(
                1, static_cast<std::int64_t>(std::llround(
                       static_cast<double>(op.gemm.m) * invalidated)));
        }
        if (op.encoding_values > 0.0) {
            op.encoding_values =
                std::max(1.0, op.encoding_values * invalidated);
        }
        if (op.other_flops > 0.0) {
            op.other_flops = std::max(1.0, op.other_flops * invalidated);
        }
    }

    // The warp/validate pass: reproject the reused fraction of the
    // previous frame and test it for disocclusion. Work grows with how
    // much is kept — the floor cost of a fully-static camera.
    WorkloadOp warp;
    warp.kind = OpKind::kOther;
    warp.name = "warp_validate#d";
    warp.other_flops = std::max(1.0, base.samples_per_frame * reuse * 8.0);
    delta.ops.push_back(warp);

    return delta;
}

}  // namespace flexnerfer
