/**
 * @file
 * RenderService: the render-serving front-end over the plan layer.
 *
 * This is the repo's "millions of users" request path. A RenderService
 * owns a shared (optionally bounded/LRU) PlanCache, one accelerator
 * instance per registered scene, and a work-stealing ThreadPool, and
 * exposes a Submit(SceneRequest) -> ticket + verdict API:
 *
 *   Submit ──> SceneRegistry::TouchName: name -> pinned entry in one
 *               call, outside the service lock (a cold first touch
 *               compiles here, its wavefronts on the ThreadPool)
 *          ──> service lock, held once: AdmissionController (virtual
 *               time), per-scene + tier telemetry, PlanCache::Run (the
 *               memoized replay), the result stored under its ticket
 *
 * Every admitted request resolves inside Submit. The replay is a
 * memoized hit: first touch (or the estimation run that prepares a
 * fused or delta shape) already executed the frame, and the pinned
 * handle keeps that result past LRU eviction. A worker hop would add
 * nothing but plumbing, so the pool runs cold compiles only. The one
 * deferral is a fused batch: its members resolve when the batch
 * flushes (window close, a full batch, or a Wait/WaitAll).
 *
 * Determinism contract (the repo-wide one, extended to serving): every
 * request's verdict, virtual latency, and FrameCost are fixed at
 * admission in virtual time — model milliseconds, not wall clock — so
 * for a fixed submission sequence, Snapshot() and every result are
 * bit-identical for any thread count. Only wall-clock throughput (which
 * bench/serving prints to stderr) varies with --threads. The virtual
 * device is weighted-fair across SLO tiers (serve/admission.h):
 * SceneRequest::tier shapes verdicts and telemetry — deterministically,
 * because WFQ runs on the same virtual clock.
 *
 * Thread-safety: every member may be called from any thread. One
 * service mutex guards all per-request state — admission, the per-scene
 * outcome counters, submitted/completed, open batches, sessions and the
 * ticket store — so a solo Submit enters one critical section and every
 * Snapshot/Ledger is a consistent cut. Concurrent Submits are admitted
 * in an unspecified but serialized order (determinism holds per
 * submission order observed, which is why the open-loop bench submits
 * from one thread). A cold first touch compiles outside the lock; fused
 * and delta shapes prepare under it, as the shape a request prices
 * depends on the state it guards. Pool workers never take the service
 * lock, so the lock order is one way: cluster router -> service ->
 * {registry, plan cache, histograms}.
 */
#ifndef FLEXNERFER_SERVE_RENDER_SERVICE_H_
#define FLEXNERFER_SERVE_RENDER_SERVICE_H_

#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/slot_ring.h"
#include "common/stats.h"
#include "models/trajectory.h"
#include "obs/trace.h"
#include "plan/plan_cache.h"
#include "runtime/thread_pool.h"
#include "serve/admission.h"
#include "serve/scene_registry.h"

namespace flexnerfer {

class MetricsRegistry;

/** One render request against a registered scene. */
struct SceneRequest {
    std::string scene;
    /**
     * SLO tier: index into AdmissionPolicy::tiers (0 when the policy
     * configures none). The tier shapes the *verdict*: it selects the
     * request's WFQ virtual queue (weight, share of the device under
     * contention), its default deadline, and its depth cap, and it
     * buckets the per-tier telemetry (ServiceStats::tiers). Naming a
     * tier the policy does not resolve is fatal.
     */
    std::size_t tier = 0;
    /**
     * Client-declared urgency, carried end to end (the cluster's wire
     * codec round-trips it). It shapes no verdict — that is the tier's
     * job (see `tier`) — and orders no execution: every request
     * resolves inside Submit, in submission order.
     */
    int priority = 0;
    /** Deadline in model ms after arrival; 0 = tier default, then
     *  policy default. */
    double deadline_ms = 0.0;
    /** Virtual arrival timestamp in model ms. Submissions are expected
     *  in non-decreasing arrival order (earlier arrivals clamp up). */
    double arrival_ms = 0.0;
};

/** Terminal state of one request. */
enum class RequestStatus : std::uint8_t {
    kCompleted,
    kRejectedQueueFull,
    kShedDeadline,
    /** The request never reached its shard: the simulated transport
     *  exhausted its retransmit budget (serve/transport.h). Produced
     *  only by the cluster layer — a RenderService itself never fails
     *  a request in transit. */
    kFailedTransport,
};

std::string ToString(RequestStatus status);

/** Outcome of one request (virtual-time latencies; see file header). */
struct RenderResult {
    RequestStatus status = RequestStatus::kCompleted;
    /** The scene's interned name (common/intern.h): valid for the
     *  process lifetime, so copy it only where a string must be owned. */
    std::string_view scene;
    /** The SLO tier the request was judged under. */
    std::size_t tier = 0;
    /** Rendered frame cost (kCompleted only; zero otherwise). */
    FrameCost cost;
    double queue_wait_ms = 0.0;  //!< virtual time spent queued
    double latency_ms = 0.0;     //!< virtual arrival-to-completion
    /** How many same-scene requests the fused execution that rendered
     *  this one carried (1 = solo frame; always 1 with the batch
     *  window off or for rejected/shed requests). */
    std::size_t batch_elements = 1;
};

/** Handle to one submitted request. */
using ServeTicket = std::uint64_t;

/** Handle to one trajectory session (0 = no session). */
using SessionId = std::uint64_t;

/** What one accepted session frame booked into its session's counters
 *  (all zero for any other request). */
struct SessionFrame {
    bool delta = false;            //!< priced as a delta of the last pose
    bool coherence_break = false;  //!< full recompute forced by a break
    double reuse = 0.0;            //!< reuse fraction (0 unless delta)
    double savings_ms = 0.0;       //!< ServiceEstimate::savings_ms
};

/** What Submit returns: the ticket, the verdict it was admitted with
 *  (so a router need not re-probe for it), and what an accepted request
 *  booked into the session or batch counters (so a router can take back
 *  a request that never rendered; see ShardedRenderService::KillShard). */
struct SubmitReceipt {
    ServeTicket ticket = 0;
    AdmissionController::Verdict verdict;
    SessionFrame session_frame;
    /** 1-based ordinal of the fused batch the request rides on its
     *  replica (0 = none), wrapping after 2^32 batches: only batches in
     *  flight together are ever told apart by it. */
    std::uint32_t batch = 0;
};

/**
 * Per-request submission options — the one argument that carries what
 * used to be scattered across Submit overloads: the cluster's spill
 * surcharge, the batching opt-in, and the trajectory-session linkage.
 * Default-constructed options reproduce the legacy Submit(request)
 * behavior exactly (batching on when the service configures a window,
 * no surcharge, no session).
 */
struct SubmitOptions {
    /**
     * Added to the frame's latency estimate when the virtual device
     * schedules this request — out-of-band work serialized on the
     * device, such as the recompile a spilled request pays on a shard
     * that does not hold the scene's pin (see serve/cluster.h). It
     * participates in the deadline check and the reported virtual
     * latency, so a surcharged request can shed where an unsurcharged
     * one would fit.
     */
    double extra_service_ms = 0.0;
    /**
     * Whether this request may join/open a fused same-scene batch when
     * the service runs with a batch window (ServeConfig). Off forces
     * the solo path for this request only. Ignored (solo) for session
     * frames: a delta plan is specific to its predecessor, so session
     * frames never fuse.
     */
    bool batching = true;
    /** Session this request belongs to (from OpenSession); 0 = none.
     *  Session frames are priced delta-vs-full by the coherence model
     *  and must name the session's scene. */
    SessionId session = 0;
    /** Camera pose of this frame (session frames only): the coherence
     *  model measures reuse against the session's last rendered pose. */
    Pose pose;
};

/**
 * Per-session serving telemetry: how well a trajectory's temporal
 * coherence converted into delta frames.
 */
struct SessionStats {
    SessionId id = 0;
    std::string scene;
    std::uint64_t frames = 0;        //!< session frames submitted
    std::uint64_t delta_frames = 0;  //!< accepted at a delta price
    /** Accepted full recomputes: the session's first frame, coherence
     *  breaks, and zero-overlap frames. */
    std::uint64_t full_frames = 0;
    std::uint64_t coherence_breaks = 0;  //!< accepted break fallbacks
    /** Mean reuse fraction over accepted frames (first/break frames
     *  count as zero reuse). */
    double mean_reuse = 0.0;
    /** Total virtual ms the delta path saved vs recomputing every
     *  accepted frame from scratch (ServiceEstimate::savings_ms). */
    double delta_savings_ms = 0.0;

    /** delta_frames / accepted frames — the delta hit rate. */
    double DeltaHitRate() const;
};

/**
 * Per-tier serving telemetry: the tier's policy knobs echoed next to
 * the counters and latency digest they govern, so one row answers
 * "is this tier inside its SLO". Reported by ServiceStats::tiers (one
 * replica) and ClusterStats::tiers (merged across shards and resizes —
 * the histograms merge losslessly, so merged percentiles keep the same
 * ~2% bound; see common/stats.h).
 */
struct TierStats {
    std::string name;
    double weight = 1.0;
    double shed_budget = 1.0;
    double default_deadline_ms = 0.0;

    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t shed_deadline = 0;
    double busy_ms = 0.0;  //!< accepted virtual service time

    /** Virtual latency digest over the tier's accepted requests. */
    LatencySummary latency;

    double ShedRate() const;  //!< (rejected + shed) / submitted
    /** Whether the observed shed rate honors the configured budget —
     *  the SLO check the traffic-zoo bench asserts per tier. */
    bool WithinShedBudget() const { return ShedRate() <= shed_budget; }
};

/**
 * Raw serving telemetry: counts and sums only, never a ratio, so any
 * number of ledgers merge exactly. A RenderService fills one from the
 * counters it keeps (RenderService::Ledger); the cluster merges replica
 * ledgers, live and retired, into its fleet ledger; ServingStats::Derive
 * turns either into the reported figures.
 */
struct ServeLedger {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t completed = 0;

    std::uint64_t batches_dispatched = 0;
    std::uint64_t fused_batches = 0;
    std::uint64_t batched_requests = 0;
    /** Accepted requests over every dispatched batch, solos included
     *  (the batch_occupancy numerator). */
    std::uint64_t batched_accepted = 0;
    std::size_t max_batch_elements = 0;

    std::uint64_t session_frames = 0;
    std::uint64_t delta_frames = 0;
    std::uint64_t session_full_frames = 0;
    std::uint64_t coherence_breaks = 0;
    /** Σ reuse fraction over accepted session frames. */
    double session_reuse_sum = 0.0;
    double delta_savings_ms = 0.0;

    double busy_ms = 0.0;  //!< accepted virtual service time
    /** Earliest arrival (meaningful once submitted > 0). */
    double first_arrival_ms = 0.0;
    double last_completion_ms = 0.0;  //!< latest accepted completion
    /** Per-tier admission counters, in tier-index order. */
    std::vector<AdmissionController::TierCounters> tiers;

    /** Adds @p other: counts and sums add, the largest batch and the
     *  latest completion take the max, the earliest arrival the min. */
    void Merge(const ServeLedger& other);
    /** Arrival-to-completion span: 0 until something was accepted. */
    double SpanMs() const;
};

/**
 * The telemetry a replica (ServiceStats) and the cluster (ClusterStats)
 * both report. Derive computes every field from raw sources and
 * PublishShared writes them, so each shared figure and metric key has
 * exactly one definition.
 */
struct ServingStats {
    std::uint64_t submitted = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected_queue_full = 0;
    std::uint64_t shed_deadline = 0;
    std::uint64_t completed = 0;  //!< accepted requests fully executed

    /** Virtual request latency (arrival to completion) percentiles
     *  over accepted requests; ~2% relative error (LatencyHistogram). */
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p99_ms = 0.0;
    double mean_ms = 0.0;
    double max_ms = 0.0;

    /** Virtual span from first arrival to last accepted completion. */
    double makespan_ms = 0.0;
    /** Sustained throughput: accepted / makespan, in requests/s of
     *  model time. */
    double sustained_qps = 0.0;
    /** Fraction of the available device time spent serving. */
    double utilization = 0.0;

    /**
     * Batch-fusion telemetry (all zero while the batch window is off).
     * Counters cover dispatched batches: a snapshot taken mid-window
     * excludes still-open batches, which Wait/WaitAll flush.
     */
    std::uint64_t batches_dispatched = 0;  //!< fused executions, incl. solos
    std::uint64_t fused_batches = 0;       //!< executions with >= 2 elements
    std::uint64_t batched_requests = 0;    //!< requests riding those
    std::size_t max_batch_elements = 0;    //!< largest fused execution
    /** Mean accepted requests per dispatched batch (>= 1 once any
     *  batch dispatched; the fused path's amortization factor). */
    double batch_occupancy = 0.0;

    /**
     * Trajectory-session telemetry (all zero without sessions).
     * session_frames counts submits carrying a session; delta_frames
     * and session_full_frames split the accepted ones by pricing path;
     * delta_hit_rate = delta_frames / (delta_frames +
     * session_full_frames).
     */
    std::uint64_t sessions_opened = 0;
    std::uint64_t session_frames = 0;
    std::uint64_t delta_frames = 0;
    std::uint64_t session_full_frames = 0;
    std::uint64_t coherence_breaks = 0;
    double delta_hit_rate = 0.0;
    /** Mean reuse fraction over accepted session frames. */
    double session_mean_reuse = 0.0;
    /** Total virtual ms the delta path saved vs full recomputes. */
    double delta_savings_ms = 0.0;

    /** One row per resolved SLO tier, in tier-index order. */
    std::vector<TierStats> tiers;

    double ShedRate() const;  //!< (rejected + shed) / submitted

    /**
     * Sets every field but sessions_opened: the counts from @p ledger,
     * each ratio as the exact Σ/Σ of its sums, the latency digest from
     * @p latency, one tier row per @p policies entry (counters from
     * ledger.tiers, digest from @p tier_latency), makespan =
     * ledger.SpanMs(), and utilization = busy_ms / @p capacity_ms (the
     * device time that existed: the makespan for one replica).
     */
    void Derive(const ServeLedger& ledger, const LatencyHistogram& latency,
                const std::vector<TierPolicy>& policies,
                const std::deque<LatencyHistogram>& tier_latency,
                double capacity_ms);

    /**
     * Publishes the fields above through the unified metrics surface
     * (obs/metrics_registry.h) under @p prefix: counters for the
     * monotone totals, gauges for the levels, the latency digests, and
     * the per-tier rows. The session block publishes only once
     * sessions exist, so a session-free deployment's metric dump
     * carries no session keys.
     */
    void PublishShared(MetricsRegistry& registry,
                       const std::string& prefix) const;
};

/** One replica's telemetry snapshot (deterministic once requests
 *  drain). */
struct ServiceStats : ServingStats {
    PlanCache::Stats cache;        //!< plan hits/misses/evictions
    std::size_t cache_entries = 0;
    std::vector<SceneStats> scenes;
    /** One row per opened session, in open order. */
    std::vector<SessionStats> sessions;

    /**
     * Publishes this snapshot under @p prefix: the shared keys
     * (ServingStats::PublishShared) plus the plan-cache counters, the
     * per-tier busy time, and the per-scene and per-session slices.
     * Everything published is virtual-time derived, so the registry's
     * ToJson obeys the same thread-count-invariance as this snapshot.
     */
    void PublishTo(MetricsRegistry& registry,
                   const std::string& prefix = "serve") const;
};

/** Configuration of a RenderService. */
struct ServeConfig {
    /** Pool threads for cold-compile wavefronts (0 = hardware
     *  concurrency). Requests themselves resolve on the submitting
     *  thread, so this moves no result and no verdict. */
    int threads = 0;
    /** PlanCache capacity in entries (0 = unbounded). Pinned scenes
     *  survive eviction; see plan/plan_cache.h. */
    std::size_t plan_cache_capacity = 0;
    AdmissionPolicy admission;
    /**
     * Same-scene batch-fusion window in model ms; 0 (the default)
     * disables fusion — every admitted request executes as its own
     * frame, byte-identical to the pre-batching service. When positive,
     * an accepted request *opens* a batch for its scene; later requests
     * for that scene arriving within the window *join* it (up to
     * max_batch_elements) and are admitted at the marginal critical
     * path of growing the fused frame (accel/accelerator.h,
     * EstimatedMarginalServiceMs) — dramatically cheaper than opening a
     * cold frame, which is what bends the shed-rate curve at high load.
     * The batch dispatches as one fused FramePlan execution when its
     * window closes, fills up, or a Wait forces a flush. Verdicts stay
     * pure functions of the submission order in virtual time.
     */
    double batch_window_ms = 0.0;
    /** Largest fused execution (>= 1). A full batch dispatches and the
     *  next same-scene request opens a fresh one; 1 keeps windows open
     *  but makes every "batch" a solo frame. */
    std::size_t max_batch_elements = 8;
};

/** Serving front-end: admission, prepared-frame registry, telemetry. */
class RenderService
{
  public:
    explicit RenderService(const ServeConfig& config = {});

    RenderService(const RenderService&) = delete;
    RenderService& operator=(const RenderService&) = delete;

    /** Registers a servable scene (see SceneRegistry::Register). */
    SceneId RegisterScene(const std::string& name, const SweepPoint& spec);

    /**
     * Pre-compiles and pins @p scene so its first real request already
     * takes the prepared path, returning the scene's executed frame
     * cost (EstimatedServiceMs of it — the dependency-DAG critical
     * path — is the admission estimate; callers can build arrival
     * schedules or reference-check replays against it).
     */
    FrameCost WarmScene(const std::string& scene);

    /**
     * Submits one request — the unified entry point. The scene name
     * resolves to its SceneId once, on entry (fatal if unregistered).
     * The request is resolved before Submit returns: rejected and shed
     * requests at once, accepted ones by replaying the scene's prepared
     * frame (a memoized hit) on the submitting thread. Fused-batch
     * members are the exception: they resolve when their batch flushes.
     * The first request against a cold scene additionally compiles it,
     * with the compile's wavefronts on the pool (WarmScene avoids that).
     * The receipt's verdict equals a Quote taken just before (for a
     * session frame, a Probe at PeekSessionEstimate's price) with
     * options.extra_service_ms as the surcharge.
     *
     * @p options selects the path: default options reproduce the
     * legacy behavior exactly (batching when configured, no surcharge,
     * no session); options.session routes the request through the
     * session's coherence model, pricing the frame as a delta of the
     * session's last rendered pose where overlap allows
     * (EstimatedDeltaServiceMs) and as a full recompute otherwise —
     * a coherence break, counted distinctly.
     */
    SubmitReceipt Submit(const SceneRequest& request,
                         const SubmitOptions& options = {});

    /**
     * Opens a trajectory session for @p scene under @p model: a client
     * tracking a camera path whose frames reuse each other where view
     * overlap allows (models/trajectory.h). The session's first
     * accepted frame is a full recompute; each later one is priced and
     * executed as a delta of the last *rendered* pose — rejected and
     * shed frames do not advance it, so reuse is always measured
     * against a frame that actually exists. A session is bound to its
     * scene (submitting it with another scene is fatal) and never
     * batches. Fatal for unregistered scenes and invalid models.
     */
    SessionId OpenSession(const std::string& scene,
                          const CoherenceModel& model = {});

    /**
     * Side-effect-free preview of what a session frame at @p pose
     * would be priced (before any surcharge): the delta estimate when
     * the pose coheres with the session's last rendered pose, the full
     * frame estimate otherwise (first frame, zero overlap, or a
     * coherence break). No session state moves — the pose is compared,
     * not recorded — so a probe that does not lead to a Submit leaves
     * the session untouched. May lazily prepare the (scene, quantum)
     * delta shape, which is administrative and memoized, exactly like
     * ProbeBatchJoin's estimation runs. Like Probe, the preview only
     * stays exact while the prober is the sole submitter (the cluster
     * holds its router lock across probe and Submit).
     */
    double PeekSessionEstimate(SessionId session, const Pose& pose);

    /**
     * Side-effect-free preview of the batching Submit path's pricing:
     * would a request for @p scene arriving at @p arrival_ms join the
     * scene's open batch, and at what marginal estimate? Returns true
     * and writes EstimatedMarginalServiceMs(fused, open batch) when the
     * batch exists, its window is still open at the clamped arrival,
     * and it has a free slot; false otherwise (including with the
     * batch window off) — the caller then prices at the solo estimate,
     * exactly as SubmitBatched would for an opener.
     *
     * No batch state moves: expiry/fullness are *checked*, not
     * flushed, so a probe that does not lead to a Submit leaves the
     * service untouched. Like Probe, the preview only stays exact
     * while the prober is the sole submitter (the cluster holds its
     * router lock across probe and Submit).
     */
    bool ProbeBatchJoin(SceneId scene, double arrival_ms,
                        double* marginal_est_ms);

    /**
     * Returns the ticket's result and consumes the ticket. Flushes
     * every open batch first, so a batch member's ticket resolves too;
     * never blocks on rendering. Fatal for an unknown or consumed
     * ticket.
     */
    RenderResult Wait(ServeTicket ticket);

    /** Flushes every open batch, then returns every unclaimed result,
     *  in submission (ticket) order. */
    std::vector<RenderResult> WaitAll();

    /** The replica's telemetry; with @p ledger, also the raw ledger
     *  behind it, read in the same cut. */
    ServiceStats Snapshot(ServeLedger* ledger = nullptr) const;

    /** The raw counts and sums behind Snapshot(): what a cluster merges
     *  into its fleet ledger (see ServeLedger). */
    ServeLedger Ledger() const;

    ThreadPool& pool() { return pool_; }
    PlanCache& cache() { return cache_; }
    const SceneRegistry& registry() const { return registry_; }

    /** A side-effect-free admission probe under the service lock
     *  (AdmissionController::Probe). Routing layers probe here before
     *  choosing a replica; the probe/Admit agreement only holds while
     *  the prober is the sole submitter (serve/cluster.h serializes its
     *  submissions for exactly this). */
    AdmissionController::Verdict Probe(double arrival_ms,
                                       double est_latency_ms,
                                       double deadline_ms = 0.0,
                                       std::size_t tier = 0);

    /**
     * A router's one call per candidate replica, under one service
     * lock: prices @p request as Submit would (ProbeBatchJoin's
     * marginal when @p scene has a joinable batch, else @p solo_est_ms;
     * @p scene may be kNoScene), adds @p surcharge_ms, and returns
     * Probe's verdict at that price.
     */
    AdmissionController::Verdict Quote(SceneId scene,
                                       const SceneRequest& request,
                                       double solo_est_ms,
                                       double surcharge_ms = 0.0);

    /** Virtual request-latency histogram over accepted requests.
     *  Geometric buckets merge losslessly (LatencyHistogram::Merge), so
     *  a cluster folds replica histograms into fleet percentiles with
     *  the same ~2% bound as any single replica's. */
    const LatencyHistogram& latency_histogram() const { return latency_; }

    /** Per-tier slice of the latency histogram (indexed by the
     *  resolved tier list, ResolvedTiers); the cluster merges these
     *  into fleet per-tier percentiles exactly like the global one. */
    const LatencyHistogram& tier_latency_histogram(std::size_t tier) const;

  private:
    /** One admitted request riding an open batch: its ticket and the
     *  result fixed at admission (batch_elements patched at flush). */
    struct BatchMember {
        ServeTicket ticket = 0;
        RenderResult result;
        /** The member's trace bookkeeping (inactive when tracing is
         *  off); per-member spans are recorded at flush around the one
         *  fused execution. */
        RequestTrace trace;
    };

    /** One same-scene batch collecting joiners until its window closes.
     *  `fused_cost`/`frame` track the current member count's fused
     *  shape, so the next joiner prices against them and a flush
     *  replays exactly the shape admission booked. */
    struct OpenBatch {
        std::uint32_t ordinal = 0;  //!< SubmitReceipt::batch
        SceneId scene = 0;
        double close_ms = 0.0;  //!< opener's clamped arrival + window
        FrameCost fused_cost;
        PlanCache::PreparedFrame frame;
        std::vector<BatchMember> members;
        /** The opener's request context: batch lifecycle instants
         *  (open/join/flush) land in the opener's trace. */
        TraceContext trace_ctx;
    };

    /** One open trajectory session. */
    struct Session {
        SceneId scene = 0;
        CoherenceModel model;
        /** False until the first accepted frame: there is no rendered
         *  predecessor to warp from yet. */
        bool has_last_pose = false;
        Pose last_pose;

        std::uint64_t frames = 0;
        std::uint64_t delta_frames = 0;
        std::uint64_t full_frames = 0;
        std::uint64_t coherence_breaks = 0;
        double reuse_sum = 0.0;  //!< over accepted frames
        double delta_savings_ms = 0.0;
    };

    /** One ticket's slot in the result store (results_). */
    struct TicketSlot {
        enum class State : std::uint8_t {
            kPending,  //!< a fused-batch member awaiting its flush
            kReady,    //!< resolved, not yet claimed
            kClaimed,  //!< returned by Wait/WaitAll
        };
        State state = State::kPending;
        RenderResult result;  //!< valid while kReady
    };

    /** Per-scene service state, by SceneId. */
    struct SceneState {
        /** The scene's open batch; open_batches_.end() = none. */
        std::list<OpenBatch>::iterator open_batch;
        std::string_view name;  //!< interned at RegisterScene
        /** Admission outcomes: the ServiceStats::scenes columns. */
        std::uint64_t accepted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t shed = 0;
    };

    // Every helper below runs with mutex_ held.
    /** Stores @p result under the next ticket and returns the ticket. */
    ServeTicket Resolve(RenderResult result);
    /** Pops the claimed slots off the front of results_. */
    void PopClaimedLocked();
    /** ProbeBatchJoin minus the lock. */
    bool ProbeBatchJoinLocked(SceneId scene, double arrival_ms,
                              double* marginal_est_ms);
    /**
     * Books one admission verdict, shared by every Submit path: builds
     * the request's result and records the outcome in the per-scene
     * counters, the latency histograms and the trace. A refused
     * (rejected or shed) result is final; an accepted one still needs
     * its frame cost from a replay. @p est_service_ms is the estimate
     * the accepted trace instant reports.
     */
    RenderResult Judge(SceneId scene,
                       const AdmissionController::Verdict& verdict,
                       double est_service_ms, TraceRecorder* recorder,
                       RequestTrace& trace);
    /** Replays @p frame for one accepted request on the calling thread
     *  (solo and session paths), records its spans, and resolves it. */
    ServeTicket Replay(const PlanCache::PreparedFrame& frame,
                       const RequestTrace& trace, RenderResult result);
    /** The batching Submit path (batch_window_ms > 0). */
    SubmitReceipt SubmitBatched(const SceneEntry& scene,
                                const SceneRequest& request,
                                double extra_service_ms);
    /** The trajectory Submit path (options.session != 0). */
    SubmitReceipt SubmitSession(const SceneEntry& scene,
                                const SceneRequest& request,
                                const SubmitOptions& options);
    /** Replays @p batch as one fused execution and resolves every
     *  member. */
    void FlushBatchLocked(std::list<OpenBatch>::iterator batch);
    /** Flushes every open batch whose window closed by @p arrival_ms
     *  (list order is window-close order). */
    void FlushExpiredLocked(double arrival_ms);
    /** Flushes every open batch (Wait/WaitAll force the flush so a
     *  member's ticket never waits on a window that cannot close). */
    void FlushAllLocked();
    ServeLedger LedgerLocked() const;

    PlanCache cache_;
    SceneRegistry registry_;

    /** The service lock: guards every member below but pool_ (see the
     *  file header's Thread-safety paragraph). The histograms keep
     *  their own locks but record under this one too, so a snapshot
     *  reads them in the same cut as the counters. */
    mutable std::mutex mutex_;
    AdmissionController admission_;
    LatencyHistogram latency_;
    /** One histogram per resolved tier. A deque because histograms are
     *  neither copyable nor movable (they own a mutex): deque
     *  emplace-constructs in place and never relocates. */
    std::deque<LatencyHistogram> tier_latency_;
    std::uint64_t submitted_ = 0;
    std::uint64_t completed_ = 0;
    std::vector<SceneState> scenes_;
    /**
     * The ticket -> RenderResult store. A ticket is its slot's ring
     * sequence, so Wait is an index lookup and WaitAll walks the slots
     * in ticket order. Claimed slots pop off the front and their
     * chunks recycle, so a warmed store allocates nothing.
     */
    SlotRing<TicketSlot> results_;

    /** Batch-fusion state (ServeConfig::batch_window_ms). */
    const double batch_window_ms_;
    const std::size_t max_batch_elements_;
    /** Open batches in window-open order (list: flushing one batch must
     *  not invalidate the others' iterators in scenes_). */
    std::list<OpenBatch> open_batches_;
    /** Mirror of the admission clamp (submissions in non-decreasing
     *  arrival order), driving window-expiry flushes. */
    double last_batch_arrival_ms_ = 0.0;
    std::uint64_t batches_dispatched_ = 0;
    std::uint64_t fused_batches_ = 0;
    std::uint64_t batched_requests_ = 0;
    std::uint64_t batched_accepted_total_ = 0;
    std::size_t max_batch_seen_ = 0;

    std::vector<Session> sessions_;  //!< session id i + 1 at index i

    /** Runs the wavefronts of cold compiles inside SceneRegistry's
     *  Touch calls; no request is ever enqueued on it. */
    ThreadPool pool_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_SERVE_RENDER_SERVICE_H_
