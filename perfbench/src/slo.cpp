#include "slo.h"

#include <cmath>
#include <map>

#include "open_loop.h"

namespace perfbench {

using namespace flexnerfer;

AdmissionPolicy
ReplayPolicy()
{
    AdmissionPolicy policy;
    policy.max_queue_depth = 128;
    return policy;
}

double
ReplayShedRate(const std::vector<double>& est_ms, double load,
               std::uint64_t seed, std::size_t requests)
{
    double mean_ms = 0.0;
    for (double est : est_ms) mean_ms += est;
    mean_ms /= static_cast<double>(est_ms.size());

    OpenLoopPoissonStream stream(seed, load, mean_ms, est_ms);
    AdmissionController admission(ReplayPolicy());
    std::size_t accepted = 0;
    for (std::size_t i = 0; i < requests; ++i) {
        const OpenLoopRequest drawn = stream.Next();
        const AdmissionController::Verdict verdict =
            admission.Admit(drawn.arrival_ms, est_ms[drawn.scene_index],
                            drawn.deadline_ms, drawn.tier);
        if (verdict.outcome == AdmissionController::Outcome::kAccepted) {
            ++accepted;
        }
    }
    return 1.0 - static_cast<double>(accepted) /
                     static_cast<double>(requests);
}

double
CapacityLoad(const std::function<double(double)>& shed_rate_at)
{
    // Bisection over rung indices: rung `below` keeps the budget (rung
    // 0 is load 0, which sheds nothing) and rung `above` breaks it
    // (rungs + 1 stands for "no rung breaks").
    const int rungs = static_cast<int>(std::lround(kLadderTop / kLadderStep));
    std::map<int, double> shed;
    shed[0] = 0.0;
    int below = 0;
    int above = rungs + 1;
    while (above - below > 1) {
        const int mid = (below + above) / 2;
        shed[mid] = shed_rate_at(mid * kLadderStep);
        (shed[mid] > kShedBudget ? above : below) = mid;
    }
    if (above > rungs) return kLadderTop;
    return (below + (kShedBudget - shed[below]) /
                        (shed[above] - shed[below])) *
           kLadderStep;
}

}  // namespace perfbench
