#include "serve/admission.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace flexnerfer {
namespace {

/**
 * Work residues below this scale (model ms, relative to the magnitude
 * of the compared quantity) are floating-point dust from the fluid
 * drain arithmetic: snap them to empty so queue-emptying events
 * resolve in one step. The snap is the same for every caller, so it
 * never costs determinism — only exactness far below the ~2% telemetry
 * resolution (common/stats.h).
 */
constexpr double kWorkDust = 1e-9;

bool
Drained(double threshold, double drained_ms)
{
    return threshold <= drained_ms + kWorkDust * (1.0 + drained_ms);
}

/** Bit equality: a quote is committed only for the very arguments it
 *  was priced with (0.0 and -0.0 are different requests here). */
bool
SameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

std::vector<double>
QueueWeights(const AdmissionPolicy& policy,
             const std::vector<TierPolicy>& tiers)
{
    // kFifo collapses every tier onto one unit-weight queue; kWeightedFair
    // gives each tier its own queue at its configured weight.
    if (policy.discipline == AdmissionDiscipline::kFifo) {
        return {1.0};
    }
    std::vector<double> weights;
    weights.reserve(tiers.size());
    for (const TierPolicy& tier : tiers) {
        weights.push_back(tier.weight);
    }
    return weights;
}

}  // namespace

std::vector<TierPolicy>
ResolvedTiers(const AdmissionPolicy& policy)
{
    std::vector<TierPolicy> tiers = policy.tiers;
    if (tiers.empty()) {
        // The implicit default tier: weight 1, policy deadline, budget
        // 1, no per-tier depth cap — the legacy single-FIFO behavior.
        tiers.emplace_back();
    }
    for (std::size_t i = 0; i < tiers.size(); ++i) {
        if (tiers[i].name.empty()) {
            tiers[i].name = "tier" + std::to_string(i);
        }
    }
    return tiers;
}

AdmissionController::AdmissionController(const AdmissionPolicy& policy)
    : policy_(policy), tiers_(ResolvedTiers(policy)),
      queue_weights_(QueueWeights(policy, tiers_))
{
    for (const TierPolicy& tier : tiers_) {
        if (!(std::isfinite(tier.weight) && tier.weight > 0.0)) {
            Fatal("admission tier '" + tier.name +
                  "' needs a finite weight > 0");
        }
        if (!(tier.shed_budget >= 0.0 && tier.shed_budget <= 1.0)) {
            Fatal("admission tier '" + tier.name +
                  "' needs a shed_budget in [0, 1]");
        }
    }
    schedule_.fluid.queues.resize(queue_weights_.size());
    schedule_.lanes = std::vector<SlotRing<double>>(tiers_.size());
    probe_fluid_.queues.reserve(queue_weights_.size());
    probe_retired_.resize(tiers_.size());
    delay_backlog_.reserve(queue_weights_.size());
    counters_.tiers.resize(tiers_.size());
}

std::size_t
AdmissionController::QueueOf(std::size_t tier) const
{
    return policy_.discipline == AdmissionDiscipline::kFifo ? 0 : tier;
}

double
AdmissionController::ClampArrival(double arrival_ms) const
{
    const double clamped = std::max(arrival_ms, 0.0);
    return schedule_.saw_arrival
               ? std::max(clamped, schedule_.last_arrival_ms)
               : clamped;
}

void
AdmissionController::DrainFluid(Fluid& fluid, double now_ms) const
{
    // Advance the fluid device from its last event to now: backlogged
    // queues drain at weight-proportional rates, re-planned at every
    // queue-emptying event, and the WFQ virtual clock advances at
    // 1 / (sum of backlogged weights).
    std::vector<FluidQueue>& queues = fluid.queues;
    double t = fluid.last_event_ms;
    while (t < now_ms) {
        double weight_sum = 0.0;
        for (std::size_t q = 0; q < queues.size(); ++q) {
            if (queues[q].backlog_ms > 0.0) {
                weight_sum += queue_weights_[q];
            }
        }
        if (weight_sum <= 0.0) break;  // device idle through to now
        double dt = now_ms - t;
        bool emptied_first = false;
        for (std::size_t q = 0; q < queues.size(); ++q) {
            const FluidQueue& queue = queues[q];
            if (queue.backlog_ms <= 0.0) continue;
            const double to_empty =
                queue.backlog_ms * weight_sum / queue_weights_[q];
            if (to_empty < dt) {
                dt = to_empty;
                emptied_first = true;
            }
        }
        for (std::size_t q = 0; q < queues.size(); ++q) {
            FluidQueue& queue = queues[q];
            if (queue.backlog_ms <= 0.0) continue;
            const double drained =
                dt * queue_weights_[q] / weight_sum;
            queue.backlog_ms -= drained;
            queue.drained_ms += drained;
            if (queue.backlog_ms <= kWorkDust) {
                // Empty exactly: cumulative drained snaps to cumulative
                // enqueued, so every request of the queue retires.
                queue.backlog_ms = 0.0;
                queue.drained_ms = queue.enqueued_ms;
            }
        }
        fluid.virtual_time += dt / weight_sum;
        if (!emptied_first) break;  // drained clean through to now
        t += dt;
    }
    fluid.last_event_ms = now_ms;
}

std::size_t
AdmissionController::RetiredPrefix(const Fluid& fluid,
                                   std::size_t tier) const
{
    // A request retires once its queue drained past its threshold;
    // lanes are non-decreasing, so retirements are always a prefix
    // (usually zero or one entry long).
    const double drained_ms = fluid.queues[QueueOf(tier)].drained_ms;
    const SlotRing<double>& lane = schedule_.lanes[tier];
    std::size_t retired = 0;
    while (retired < lane.size() && Drained(lane[retired], drained_ms)) {
        ++retired;
    }
    return retired;
}

double
AdmissionController::FluidDelay(const Fluid& fluid, std::size_t queue,
                                double est_latency_ms,
                                double target_work)
{
    if (target_work <= 0.0) return 0.0;
    // Forward-simulate the fluid device with the candidate's work
    // appended to its queue, assuming no further arrivals (exact for a
    // lone queue — the FIFO case — optimistic otherwise; file header).
    // The backlog scratch is reused across verdicts.
    std::vector<double>& backlog = delay_backlog_;
    backlog.resize(fluid.queues.size());
    for (std::size_t q = 0; q < backlog.size(); ++q) {
        backlog[q] = fluid.queues[q].backlog_ms;
    }
    backlog[queue] += est_latency_ms;

    double elapsed = 0.0;
    double remaining = target_work;  // of `queue`'s work, front included
    while (remaining > 0.0) {
        double weight_sum = 0.0;
        for (std::size_t q = 0; q < backlog.size(); ++q) {
            if (backlog[q] > 0.0) weight_sum += queue_weights_[q];
        }
        // remaining <= backlog[queue], so `queue` is active and
        // weight_sum >= its weight > 0.
        const double rate = queue_weights_[queue] / weight_sum;
        double dt = remaining / rate;
        for (std::size_t q = 0; q < backlog.size(); ++q) {
            if (q == queue || backlog[q] <= 0.0) continue;
            dt = std::min(dt,
                          backlog[q] * weight_sum / queue_weights_[q]);
        }
        for (std::size_t q = 0; q < backlog.size(); ++q) {
            if (backlog[q] <= 0.0) continue;
            backlog[q] -= dt * queue_weights_[q] / weight_sum;
            if (backlog[q] <= kWorkDust) backlog[q] = 0.0;
        }
        remaining -= dt * rate;
        if (remaining <= kWorkDust) remaining = 0.0;
        elapsed += dt;
    }
    return elapsed;
}

void
AdmissionController::FluidDelays(const Fluid& fluid, std::size_t queue,
                                 double est_latency_ms, double* start_ms,
                                 double* completion_ms)
{
    // FluidDelay's walk toward the candidate's completion, tracking the
    // walk toward its start alongside: until the start target drains,
    // both walks take the same steps (completion's target is never the
    // smaller), so the start falls out of the shared prefix bit for bit.
    const double prior_work = fluid.queues[queue].backlog_ms;
    std::vector<double>& backlog = delay_backlog_;
    backlog.resize(fluid.queues.size());
    for (std::size_t q = 0; q < backlog.size(); ++q) {
        backlog[q] = fluid.queues[q].backlog_ms;
    }
    backlog[queue] += est_latency_ms;

    double elapsed = 0.0;
    double to_start = prior_work;
    double to_done = prior_work + est_latency_ms;
    bool started = !(to_start > 0.0);
    bool diverged = false;
    *start_ms = 0.0;
    while (to_done > 0.0) {
        double weight_sum = 0.0;
        for (std::size_t q = 0; q < backlog.size(); ++q) {
            if (backlog[q] > 0.0) weight_sum += queue_weights_[q];
        }
        const double rate = queue_weights_[queue] / weight_sum;
        // The soonest other queue to empty bounds every step.
        double others = std::numeric_limits<double>::infinity();
        for (std::size_t q = 0; q < backlog.size(); ++q) {
            if (q == queue || backlog[q] <= 0.0) continue;
            others = std::min(others,
                              backlog[q] * weight_sum / queue_weights_[q]);
        }
        const double dt = std::min(to_done / rate, others);
        if (!started) {
            const double start_dt = std::min(to_start / rate, others);
            to_start -= start_dt * rate;
            if (to_start <= kWorkDust) to_start = 0.0;
            if (!(to_start > 0.0)) {
                *start_ms = elapsed + start_dt;
                started = true;
            } else if (start_dt != dt) {
                // A rounding residue past the dust bound: the start walk
                // would go on from a state this walk never visits, so it
                // runs on its own once this one is done with the scratch.
                started = true;
                diverged = true;
            }
        }
        for (std::size_t q = 0; q < backlog.size(); ++q) {
            if (backlog[q] <= 0.0) continue;
            backlog[q] -= dt * queue_weights_[q] / weight_sum;
            if (backlog[q] <= kWorkDust) backlog[q] = 0.0;
        }
        to_done -= dt * rate;
        if (to_done <= kWorkDust) to_done = 0.0;
        elapsed += dt;
    }
    *completion_ms = elapsed;
    if (diverged) {
        *start_ms = FluidDelay(fluid, queue, est_latency_ms, prior_work);
    }
}

AdmissionController::Verdict
AdmissionController::Evaluate(const Fluid& fluid, std::size_t total_depth,
                              std::size_t tier_depth, double arrival_ms,
                              double est_latency_ms, double deadline_ms,
                              std::size_t tier)
{
    const std::size_t queue_index = QueueOf(tier);
    const FluidQueue& queue = fluid.queues[queue_index];
    const TierPolicy& tier_policy = tiers_[tier];

    Verdict verdict;
    verdict.arrival_ms = arrival_ms;
    verdict.tier = tier;
    verdict.queue_depth = total_depth;
    verdict.tier_queue_depth = tier_depth;

    // Service start: when the tier's prior backlog has drained;
    // completion: when the request's own work has too. Both priced on
    // the weighted-fair fluid device, in one walk (FluidDelays).
    double start_delay = 0.0;
    double completion_delay = 0.0;
    FluidDelays(fluid, queue_index, est_latency_ms, &start_delay,
                &completion_delay);
    verdict.start_ms = arrival_ms + start_delay;
    verdict.completion_ms = arrival_ms + completion_delay;
    verdict.wait_ms = verdict.start_ms - arrival_ms;

    // Classic WFQ virtual tags over the system virtual clock.
    verdict.start_tag =
        std::max(fluid.virtual_time, queue.last_finish_tag);
    verdict.finish_tag =
        verdict.start_tag + est_latency_ms / queue_weights_[queue_index];

    if (policy_.max_queue_depth > 0 &&
        total_depth >= policy_.max_queue_depth) {
        verdict.outcome = Outcome::kRejectedQueueFull;
        return verdict;
    }
    if (tier_policy.max_queue_depth > 0 &&
        verdict.tier_queue_depth >= tier_policy.max_queue_depth) {
        verdict.outcome = Outcome::kRejectedQueueFull;
        return verdict;
    }

    // Deadline resolution: the request's own, then the tier default,
    // then the policy default (0 at every level = no deadline).
    if (deadline_ms <= 0.0) deadline_ms = tier_policy.default_deadline_ms;
    if (deadline_ms <= 0.0) deadline_ms = policy_.default_deadline_ms;
    verdict.deadline_ms = deadline_ms;
    if (deadline_ms > 0.0 &&
        verdict.completion_ms > arrival_ms + deadline_ms) {
        verdict.outcome = Outcome::kShedDeadline;
        return verdict;
    }

    verdict.outcome = Outcome::kAccepted;
    return verdict;
}

AdmissionController::Verdict
AdmissionController::Admit(double arrival_ms, double est_latency_ms,
                           double deadline_ms, std::size_t tier)
{
    FLEX_CHECK_MSG(est_latency_ms >= 0.0,
                   "negative latency estimate " << est_latency_ms);
    FLEX_CHECK_MSG(tier < tiers_.size(),
                   "tier " << tier << " out of range (policy resolves "
                           << tiers_.size() << " tiers)");
    // Clamp the arrival monotone and advance the fluid device to it,
    // then retire the requests whose work fully drained. Draining runs
    // for every outcome — Probe drains a copy of the fluid state the
    // same way and counts the same retirements, which is what keeps
    // the two in exact agreement. A matching quote already holds the
    // drained copy, the retired counts and the verdict: commit those.
    const double clamped = ClampArrival(arrival_ms);
    const Verdict verdict = [&] {
        if (QuoteMatches(arrival_ms, est_latency_ms, deadline_ms, tier)) {
            std::swap(schedule_.fluid, probe_fluid_);
            for (std::size_t t = 0; t < schedule_.lanes.size(); ++t) {
                for (std::size_t n = probe_retired_[t]; n > 0; --n) {
                    schedule_.lanes[t].pop_front();
                }
            }
            return quote_.verdict;
        }
        DrainFluid(schedule_.fluid, clamped);
        std::size_t total_depth = 0;
        for (std::size_t t = 0; t < schedule_.lanes.size(); ++t) {
            SlotRing<double>& lane = schedule_.lanes[t];
            for (std::size_t n = RetiredPrefix(schedule_.fluid, t); n > 0;
                 --n) {
                lane.pop_front();
            }
            total_depth += lane.size();
        }
        return Evaluate(schedule_.fluid, total_depth,
                        schedule_.lanes[tier].size(), clamped,
                        est_latency_ms, deadline_ms, tier);
    }();
    ++generation_;

    if (!schedule_.saw_arrival) {
        counters_.first_arrival_ms = clamped;
        schedule_.saw_arrival = true;
    }
    schedule_.last_arrival_ms = clamped;

    TierCounters& tier_counters = counters_.tiers[tier];
    ++tier_counters.submitted;
    switch (verdict.outcome) {
      case Outcome::kRejectedQueueFull:
        ++counters_.rejected_queue_full;
        ++tier_counters.rejected_queue_full;
        break;
      case Outcome::kShedDeadline:
        ++counters_.shed_deadline;
        ++tier_counters.shed_deadline;
        break;
      case Outcome::kAccepted: {
        FluidQueue& queue = schedule_.fluid.queues[QueueOf(tier)];
        queue.backlog_ms += est_latency_ms;
        queue.enqueued_ms += est_latency_ms;
        queue.last_finish_tag = verdict.finish_tag;
        schedule_.lanes[tier].push_back() = queue.enqueued_ms;
        ++counters_.accepted;
        ++tier_counters.accepted;
        counters_.busy_ms += est_latency_ms;
        tier_counters.busy_ms += est_latency_ms;
        counters_.last_completion_ms = std::max(
            counters_.last_completion_ms, verdict.completion_ms);
        break;
      }
    }
    return verdict;
}

AdmissionController::Verdict
AdmissionController::Probe(double arrival_ms, double est_latency_ms,
                           double deadline_ms, std::size_t tier)
{
    FLEX_CHECK_MSG(est_latency_ms >= 0.0,
                   "negative latency estimate " << est_latency_ms);
    FLEX_CHECK_MSG(tier < tiers_.size(),
                   "tier " << tier << " out of range (policy resolves "
                           << tiers_.size() << " tiers)");
    // The clamp and the drain happen exactly as Admit would apply them,
    // but on the scratch copy of the fluid state (assignment reuses its
    // storage), and the lanes are counted, not popped: nothing is
    // recorded.
    const double clamped = ClampArrival(arrival_ms);
    probe_fluid_ = schedule_.fluid;
    DrainFluid(probe_fluid_, clamped);
    std::size_t total_depth = 0;
    std::size_t tier_depth = 0;
    for (std::size_t t = 0; t < schedule_.lanes.size(); ++t) {
        probe_retired_[t] = RetiredPrefix(probe_fluid_, t);
        const std::size_t depth =
            schedule_.lanes[t].size() - probe_retired_[t];
        total_depth += depth;
        if (t == tier) tier_depth = depth;
    }
    quote_.generation = generation_;
    quote_.arrival_ms = arrival_ms;
    quote_.est_latency_ms = est_latency_ms;
    quote_.deadline_ms = deadline_ms;
    quote_.tier = tier;
    quote_.verdict = Evaluate(probe_fluid_, total_depth, tier_depth, clamped,
                              est_latency_ms, deadline_ms, tier);
    return quote_.verdict;
}

bool
AdmissionController::QuoteMatches(double arrival_ms, double est_latency_ms,
                                  double deadline_ms, std::size_t tier) const
{
    return quote_.generation == generation_ &&
           quote_.tier == tier && SameBits(quote_.arrival_ms, arrival_ms) &&
           SameBits(quote_.est_latency_ms, est_latency_ms) &&
           SameBits(quote_.deadline_ms, deadline_ms);
}

}  // namespace flexnerfer
