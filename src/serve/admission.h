/**
 * @file
 * Admission control for the render-serving front-end: a virtual-time
 * weighted-fair device with SLO tiers.
 *
 * A deployed renderer cannot accept every request: under overload an
 * unbounded queue turns every deadline miss into a cascade (each late
 * frame delays all behind it). AdmissionController decides, at submit
 * time, whether a request can still be served within its deadline — and
 * sheds it immediately if not — using the plan layer's critical-path
 * latency (the frame's dependency-DAG pipeline floor; see
 * accel/accelerator.h EstimatedServiceMs) as the service-time estimator
 * (see RT-NeRF-style real-time budgets in PAPERS.md).
 *
 * Decisions run in *virtual time*: the modeled device serves admitted
 * requests in model milliseconds, so every verdict is a pure function
 * of the admission sequence — independent of host thread count or
 * wall-clock jitter — which is what keeps serving telemetry
 * bit-identical across --threads N (the repo-wide determinism
 * contract; see runtime/sweep_runner.h).
 *
 * The device model is *weighted fair queueing over SLO tiers*, not a
 * single FIFO: each tier owns a virtual queue, requests within a tier
 * serve FIFO, and backlogged tiers share the device in proportion to
 * their configured weights (a GPS-fluid schedule, the reference
 * discipline WFQ approximates). A request's verdict therefore depends
 * on its tier: a flood of low-tier traffic inflates only the flood's
 * own completion estimates — a high-weight tier keeps its share of the
 * device and keeps meeting its deadlines. Verdicts also carry the
 * classic WFQ virtual start/finish tags (start = max(system virtual
 * time, tier's last finish tag), finish = start + service/weight) over
 * the same virtual clock, so tests can check weight-proportional
 * interleaving directly. With a single tier — or under
 * AdmissionDiscipline::kFifo — the model reduces exactly to the
 * legacy FIFO device: completion = max(arrival, busy-until) + estimate.
 *
 * Completion estimates are fixed at admission assuming no future
 * arrivals (exact for FIFO, optimistic for WFQ — later arrivals in
 * other tiers dilute a tier's share). Telemetry records the
 * at-admission estimate; the internal fluid backlog keeps draining
 * against the real arrival sequence.
 *
 * Thread-safety: externally synchronized — the controller holds no
 * lock. RenderService calls it only under its service mutex (and
 * exposes RenderService::Quote for routers), and standalone users call
 * it from one thread. Determinism holds per the admission order the
 * caller serializes.
 */
#ifndef FLEXNERFER_SERVE_ADMISSION_H_
#define FLEXNERFER_SERVE_ADMISSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/slot_ring.h"

namespace flexnerfer {

/** One SLO tier of the admission policy. */
struct TierPolicy {
    /** Operator-facing label ("paid", "free", ...); empty names are
     *  materialized as "tier<index>" at resolution. */
    std::string name;
    /**
     * WFQ weight: the device share this tier receives while it and
     * others are backlogged (share = weight / sum of backlogged
     * weights; an alone-backlogged tier always gets the whole device).
     * Must be finite and > 0.
     */
    double weight = 1.0;
    /**
     * Deadline applied to this tier's requests that do not carry their
     * own, in model ms after arrival. 0 falls back to the policy-wide
     * default (and 0 there too means such requests are never
     * deadline-shed).
     */
    double default_deadline_ms = 0.0;
    /**
     * Shed-budget SLO in [0, 1]: the fraction of this tier's
     * submissions the operator tolerates being shed or rejected.
     * The budget does not shape verdicts — weights and depth caps do —
     * it is the contract telemetry is judged against:
     * TierStats::WithinShedBudget (serve/render_service.h) and the
     * traffic-zoo bench assert against it.
     */
    double shed_budget = 1.0;
    /**
     * Maximum of this tier's requests queued-or-running (in virtual
     * time) when a new request of the tier arrives; beyond it the
     * request is rejected outright. 0 disables the per-tier cap (the
     * policy-wide max_queue_depth still applies).
     */
    std::size_t max_queue_depth = 0;
};

/** How the virtual device schedules across tiers. */
enum class AdmissionDiscipline : std::uint8_t {
    /** Per-tier virtual queues, weighted fair sharing (the default). */
    kWeightedFair,
    /** Legacy single FIFO queue: tiers keep their deadlines, depth
     *  caps, budgets, and telemetry, but share one queue and weights
     *  are ignored — the baseline the traffic-zoo bench compares
     *  against. */
    kFifo,
};

/** Queue-depth / deadline / tier policy applied to every request. */
struct AdmissionPolicy {
    /**
     * Maximum requests queued-or-running (in virtual time) across all
     * tiers when a new request arrives; beyond it the request is
     * rejected outright. 0 disables the global depth limit.
     */
    std::size_t max_queue_depth = 64;

    /**
     * Deadline applied to requests whose tier has no default and that
     * do not carry their own, in model milliseconds after arrival.
     * 0 disables the default (such requests are never deadline-shed).
     */
    double default_deadline_ms = 0.0;

    AdmissionDiscipline discipline = AdmissionDiscipline::kWeightedFair;

    /**
     * SLO tiers, indexed by SceneRequest::tier. Empty resolves to one
     * implicit default tier (weight 1, policy deadline, budget 1) —
     * exactly the legacy single-FIFO behavior.
     */
    std::vector<TierPolicy> tiers;
};

/** The policy's tiers with defaults materialized: one implicit tier
 *  when none are configured, "tier<i>" for empty names. This is the
 *  tier list every snapshot reports against (render_service.h,
 *  cluster.h), hoisted here so replicas and their cluster resolve
 *  identically. */
std::vector<TierPolicy> ResolvedTiers(const AdmissionPolicy& policy);

/** Virtual-time weighted-fair admission controller (see file header). */
class AdmissionController
{
  public:
    enum class Outcome : std::uint8_t {
        kAccepted,
        kRejectedQueueFull,  //!< global or tier depth at limit on arrival
        kShedDeadline,       //!< estimated completion past the deadline
    };

    /** One admission decision, with the virtual schedule that backs it. */
    struct Verdict {
        Outcome outcome = Outcome::kAccepted;
        /** The arrival the schedule used (after the monotone clamp). */
        double arrival_ms = 0.0;
        double start_ms = 0.0;       //!< virtual service start
        double completion_ms = 0.0;  //!< virtual completion
        double wait_ms = 0.0;        //!< start - arrival (queueing delay)
        /** Depth across all tiers observed on arrival. */
        std::size_t queue_depth = 0;
        /** The request's own tier's depth observed on arrival. */
        std::size_t tier_queue_depth = 0;
        /** The deadline the verdict was judged against, after the
         *  tier-default then policy-default fallback (0 = none). The
         *  controller owns deadline resolution; callers that need the
         *  effective deadline (e.g. for dispatch ordering) read it
         *  from here rather than re-deriving it. */
        double deadline_ms = 0.0;
        /** The tier the verdict was judged under. */
        std::size_t tier = 0;
        /** WFQ virtual start/finish tags (file header); equal-weight
         *  tags under kFifo. Committed only when accepted. */
        double start_tag = 0.0;
        double finish_tag = 0.0;
    };

    /** Per-tier slice of the counters. */
    struct TierCounters {
        std::uint64_t submitted = 0;
        std::uint64_t accepted = 0;
        std::uint64_t rejected_queue_full = 0;
        std::uint64_t shed_deadline = 0;
        double busy_ms = 0.0;  //!< accepted service time total
    };

    struct Counters {
        std::uint64_t accepted = 0;
        std::uint64_t rejected_queue_full = 0;
        std::uint64_t shed_deadline = 0;
        double busy_ms = 0.0;            //!< accepted service time total
        double first_arrival_ms = 0.0;   //!< earliest arrival seen
        double last_completion_ms = 0.0;  //!< latest accepted completion
        /** One slice per resolved tier (same indexing as tiers()). */
        std::vector<TierCounters> tiers;
    };

    explicit AdmissionController(const AdmissionPolicy& policy = {});

    AdmissionController(const AdmissionController&) = delete;
    AdmissionController& operator=(const AdmissionController&) = delete;

    /**
     * Decides one request of @p tier arriving at virtual @p arrival_ms
     * needing an estimated @p est_latency_ms of service, due
     * @p deadline_ms after arrival (0 = no own deadline: fall back to
     * the tier default, then the policy default). Arrivals are clamped
     * monotone (an arrival earlier than a previous one is treated as
     * simultaneous with it), so any submission order yields a
     * consistent schedule. @p tier must index tiers() (fatal
     * otherwise).
     */
    Verdict Admit(double arrival_ms, double est_latency_ms,
                  double deadline_ms = 0.0, std::size_t tier = 0);

    /**
     * Computes the verdict Admit would return for the same arguments
     * right now, without committing anything: no counters move, the
     * virtual schedule is untouched, and the monotone arrival clamp is
     * applied but not recorded. The shard router probes a replica's
     * admission model this way (RenderService::Quote) before deciding
     * where a request lands (serve/cluster.h); as long as no Admit
     * intervenes, a subsequent Admit with identical arguments returns
     * an identical verdict. Non-const only because it reuses scratch.
     *
     * A probe neither copies nor allocates: it drains a scratch copy of
     * the per-queue fluid state only (one small struct per queue), and
     * reads each tier's post-drain depth off the live lanes by counting
     * the entries the drain would retire — the same predicate Admit
     * retires them with.
     *
     * The probe is also a quote Admit can commit: the drained copy, the
     * per-tier retired counts and the verdict stay stamped with the
     * admission generation (every Admit bumps it). An Admit whose
     * arguments are bit-equal to the latest probe's, with no Admit in
     * between, adopts that state instead of draining and evaluating
     * again; any other Admit takes the full path. Either way it returns
     * the same verdict and leaves the same schedule.
     */
    Verdict Probe(double arrival_ms, double est_latency_ms,
                  double deadline_ms = 0.0, std::size_t tier = 0);

    const Counters& counters() const { return counters_; }
    const AdmissionPolicy& policy() const { return policy_; }
    /** The resolved tier list verdicts and counters index into. */
    const std::vector<TierPolicy>& tiers() const { return tiers_; }

  private:
    /** One scheduling queue of the fluid device (a tier under WFQ;
     *  the single shared queue under FIFO). All quantities are model
     *  ms of virtual work. */
    struct FluidQueue {
        double backlog_ms = 0.0;   //!< admitted, not yet drained
        double enqueued_ms = 0.0;  //!< cumulative admitted work
        double drained_ms = 0.0;   //!< cumulative drained work
        double last_finish_tag = 0.0;  //!< queue's latest WFQ finish tag
    };

    /** The fluid device: every queue's work plus the clocks. Small and
     *  fixed-size (one FluidQueue per queue), so Probe drains a copy of
     *  it in place of the whole schedule. */
    struct Fluid {
        std::vector<FluidQueue> queues;
        double virtual_time = 0.0;   //!< WFQ system virtual clock
        double last_event_ms = 0.0;  //!< drained up to here
    };

    /** The whole mutable virtual schedule. Only `fluid` is ever
     *  copied (by Probe, into probe_fluid_); the lanes are read in
     *  place. */
    struct Schedule {
        Fluid fluid;
        /**
         * Per tier (distinct from the queues so kFifo can share one
         * queue while depth stays per tier), per queued request: the
         * owning queue's enqueued_ms right after it was admitted. The
         * request retires once the queue's drained_ms reaches it, so
         * a lane is non-decreasing and its retired entries always form
         * a prefix, popped off a ring whose chunks recycle.
         */
        std::vector<SlotRing<double>> lanes;
        double last_arrival_ms = 0.0;
        bool saw_arrival = false;
    };

    std::size_t QueueOf(std::size_t tier) const;
    /** Clamps @p arrival_ms monotone against the recorded arrivals. */
    double ClampArrival(double arrival_ms) const;
    /** Advances @p fluid to @p now_ms: drains backlogs at
     *  weighted-fair rates and advances the virtual clock. The
     *  queue-only step, shared verbatim by Admit and Probe. */
    void DrainFluid(Fluid& fluid, double now_ms) const;
    /** How many leading entries of @p tier's lane have retired once
     *  its queue drained @p fluid's drained_ms: Admit pops them,
     *  Probe only counts them. */
    std::size_t RetiredPrefix(const Fluid& fluid, std::size_t tier) const;
    /** Model-ms from now until @p target_work ms of queue @p queue's
     *  work has drained, with @p est_latency_ms of candidate work
     *  already appended to it ( @p fluid already drained to now). */
    double FluidDelay(const Fluid& fluid, std::size_t queue,
                      double est_latency_ms, double target_work);
    /** FluidDelay to the queue's prior work (the candidate's start,
     *  into @p start_ms) and to the candidate's own (its completion,
     *  into @p completion_ms) in one forward walk, bit-equal to two
     *  FluidDelay calls. */
    void FluidDelays(const Fluid& fluid, std::size_t queue,
                     double est_latency_ms, double* start_ms,
                     double* completion_ms);
    /** Computes the verdict for @p fluid (drained to the clamped
     *  arrival) and the post-drain depths, without mutating anything —
     *  shared verbatim by Admit and Probe, which is what keeps them in
     *  exact agreement. */
    Verdict Evaluate(const Fluid& fluid, std::size_t total_depth,
                     std::size_t tier_depth, double arrival_ms,
                     double est_latency_ms, double deadline_ms,
                     std::size_t tier);

    const AdmissionPolicy policy_;
    const std::vector<TierPolicy> tiers_;   //!< resolved (never empty)
    const std::vector<double> queue_weights_;  //!< per scheduling queue

    /** The latest Probe, as Admit may commit it (see Probe). */
    struct Quote {
        /** The admission generation it was taken at; stale once an
         *  Admit bumped generation_ past it (0: no probe yet). */
        std::uint64_t generation = 0;
        double arrival_ms = 0.0;
        double est_latency_ms = 0.0;
        double deadline_ms = 0.0;
        std::size_t tier = 0;
        Verdict verdict;
    };

    /** Whether quote_ was probed with exactly these arguments
     *  against the current schedule. */
    bool QuoteMatches(double arrival_ms, double est_latency_ms,
                      double deadline_ms, std::size_t tier) const;

    Schedule schedule_;
    Counters counters_;
    /** Scratch reused so no verdict allocates: Probe's drained copy of
     *  schedule_.fluid and per-tier retired counts (together with
     *  quote_, the quote's state), and FluidDelay's backlogs. */
    Fluid probe_fluid_;
    std::vector<double> delay_backlog_;
    std::vector<std::size_t> probe_retired_;
    /** Bumped by every Admit: a quote taken before it is stale.
     *  Starts at 1, so the empty quote never matches. */
    std::uint64_t generation_ = 1;
    Quote quote_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_SERVE_ADMISSION_H_
