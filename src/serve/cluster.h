/**
 * @file
 * ShardedRenderService: N RenderService replicas behind a scene-affine
 * router, in cross-host shape.
 *
 * One RenderService models one device; fleet-scale traffic needs many.
 * The cluster owns N fully independent replicas — each with its own
 * bounded PlanCache, scene table of pinned frames, and virtual-time
 * AdmissionController, and no threads of its own — and routes
 * Submit(SceneRequest) by rendezvous (HRW) hashing on the scene name
 * (serve/shard_router.h):
 *
 *   Submit ──> scene name -> cluster SceneId   the one string lookup
 *          ──> SceneDesc::rank (cached HRW)    home = first *live* rank
 *          ──> replicated scene? p2c probe    two replicas race, the
 *               between two replicas           less-loaded verdict wins
 *          ──> else probe home admission      would it accept?
 *          ──> yes: home shard Submit(id)     prepared-pin replay, by the
 *                                              replica's own SceneId
 *          ──> no: probe the next live shard  overload-aware spill,
 *               in the rank (recompile         charged to the spill
 *               surcharge when cold there)     shard's virtual clock
 *          ──> all would shed: home Submit    records the real verdict
 *          ──> the shard's SubmitReceipt       its verdict is the replay
 *                                              bookkeeping; its Admit
 *                                              committed the last quote
 *   WaitAll ──> one RenderService::Drain       one lock hold per live
 *                per live shard                shard claims its results
 *
 * Scene affinity is the point: every scene's prepared-frame pin lives
 * on its home shard (plus any replicas holding it deliberately), so the
 * per-shard serving invariant "PlanCache frame hits == accepted
 * requests" keeps holding — spills and replica warms show up as
 * explicit plan compiles, never as broken hit accounting.
 *
 * Cross-host shape (optional, ClusterConfig::transport): every
 * router->shard submit and shard->router result crosses a simulated
 * per-shard link (serve/transport.h), priced at its frame size
 * (serve/wire.h) — plans, prepared handles, and plan caches never
 * cross; only requests and results do. Transport *delay* is telemetry
 * (rpc_delay_ms): it does not re-time admission, which is what keeps
 * the side-effect-free probe == Admit agreement exact under faults.
 * Transport *loss* is real: a request that exhausts its retransmit
 * budget resolves as kFailedTransport without ever reaching a shard.
 *
 * Shard death (KillShard, or a kShardDeath scheduled on the attached
 * transport): the dead replica's ServeLedger merges into the lifetime
 * ledger with everything its replayed tickets booked expunged (they
 * count once, on their new home), its scenes re-home to the next live
 * shard in their HRW rank (the provable minimum moves), and its
 * in-flight accepted-but-unfinished tickets replay on the new home at
 * the death instant, paying the spill recompile surcharge when the new
 * home lacks the pin and keeping only the *remaining* deadline budget.
 * Every submitted ticket still resolves exactly once. Scheduled deaths
 * are applied by Submit, first thing: every death the request's
 * arrival has reached, in (start_ms, link) order, each at its
 * *scheduled* instant, so the kill point is a pure function of the
 * fault schedule, not of traffic. A death whose shard is already dead,
 * or is the last live one, is skipped; one naming a shard the cluster
 * does not have is fatal.
 *
 * Hot-scene replication (ClusterConfig::replication): the top-k scenes
 * of the popularity census are homed on `factor` live shards (rank
 * order — a deterministic prefix), and requests for them route by
 * power-of-two-choices between replicas: probe two, take the accepting
 * one, break ties toward the earlier virtual completion. Replica sets
 * are a pure function of (census, live set), so refreshes are
 * deterministic; p2c never considers a dead replica because dead
 * shards are pruned from every replica set at kill time.
 *
 * Determinism contract (the repo-wide one, extended to routing and
 * faults): the router serializes submissions, every probe/verdict/
 * spill/p2c decision runs in virtual time, the recompile surcharge is
 * a fixed policy (spill_recompile_factor x the scene's latency
 * estimate), and every transport draw hashes (seed, link, direction,
 * per-link ordinal) — so for a fixed submission sequence and fault
 * schedule, every request's shard, spill/replay/transport flags,
 * verdict, and latency, every per-shard counter, and the merged
 * cluster percentiles are bit-identical for any wall-clock
 * interleaving. Only wall-clock throughput varies.
 *
 * Trajectory sessions (OpenSession / SubmitOptions::session): a
 * session is sticky to its home shard — the scene's live HRW home when
 * it was opened — because the temporal-coherence state (the previous
 * frame's pose and the predecessor-keyed delta plans) lives in that
 * replica's plan cache. Session frames never route by p2c and never
 * spill: the router submits straight to the sticky shard, which prices
 * its real decision (delta when the pose overlap admits one, full
 * otherwise) and reports the verdict back. When the shard dies,
 * KillShard re-homes its sessions along with its scenes: each re-homed
 * session reopens fresh on the new live home, so its next frame is a
 * full recompute — the trajectory replays from the last full frame,
 * exactly the recovery a real viewer performs after losing its warm
 * renderer. Resize re-homes every session the same way.
 *
 * Rebalancing: Resize(new_shards) drains every in-flight request
 * (outstanding tickets stay valid — their results are resolved and
 * retained), merges the old replicas' ledgers into the cluster-lifetime
 * ledger, rebuilds the replica set (reviving killed slots), and
 * re-registers every scene on its new home. HRW moves the minimum:
 * growing relocates ~1/(N+1) of the scenes, shrinking only those homed
 * on removed shards. Replication, if configured, re-derives its
 * replica sets from the census after the rebuild.
 *
 * Thread-safety: Submit/Wait/WaitAll/Snapshot/WarmScene may be called
 * concurrently (submissions serialize internally, in an unspecified
 * order — determinism then holds per admission order observed, which is
 * why bench/serving_cluster submits from one thread). The router mutex
 * is held across each routing decision — its probes (RenderService::
 * Quote, one replica lock per candidate) and the shard Submit — and
 * each replica call takes only that replica's one service lock, so the
 * lock order is router -> service, never the reverse. WaitAll and
 * Resize alone hold several service locks at once (one Drain per live
 * shard, taken in shard order); nothing else ever holds two. Resize and
 * KillShard must not race other members: quiesce callers first. The
 * same holds for Submit once the attached transport has deaths
 * scheduled, because Submit may then kill a shard: drive such a
 * cluster from one thread (Wait/WaitAll may be called from it too).
 * Submitting directly to a replica obtained via shard() would break the
 * probe/Admit agreement — replicas are exposed for inspection only.
 */
#ifndef FLEXNERFER_SERVE_CLUSTER_H_
#define FLEXNERFER_SERVE_CLUSTER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/slot_ring.h"
#include "serve/render_service.h"
#include "serve/shard_router.h"

namespace flexnerfer {

class SimTransport;

/** Hot-scene replication policy (0 = off; see file header). */
struct ReplicationConfig {
    /** How many census-top scenes get replica sets (0 disables). */
    std::size_t top_k = 0;
    /** Replicas per hot scene, clamped to the live shard count
     *  (>= 1; a factor of 1 degenerates to plain home routing). */
    std::size_t factor = 2;
    /** Re-derive replica sets every N cluster submissions (0 = only on
     *  explicit RefreshReplication() calls and after Resize). */
    std::uint64_t refresh_every = 0;
};

/** Configuration of a ShardedRenderService. */
struct ClusterConfig {
    /** Replica count (>= 1; fatal otherwise). */
    std::size_t shards = 1;
    /** Ignored: replicas run every frame on the submitting thread and
     *  start no threads. Kept only because callers still set it. */
    int threads_per_shard = 0;
    /** Per-replica PlanCache capacity in entries (0 = unbounded). */
    std::size_t plan_cache_capacity = 0;
    /** Per-replica admission policy (every replica gets a copy). */
    AdmissionPolicy admission;
    /** Try the next live shard in the scene's HRW rank when the home
     *  would not accept. */
    bool enable_spill = true;
    /**
     * Virtual recompile cost a spilled request pays on a shard that
     * does not hold the scene's pin yet, as a fraction of the scene's
     * service-time estimate (the frame's critical-path latency,
     * EstimatedServiceMs). Charged to that shard's virtual clock
     * (it delays everything behind it and counts against the deadline),
     * so spilling is only worth it when the home backlog exceeds it.
     * Replayed tickets pay the same surcharge when their new home is
     * cold (see KillShard).
     */
    double spill_recompile_factor = 1.0;
    /**
     * Per-replica same-scene batch-fusion window in model ms (0 = off;
     * see ServeConfig::batch_window_ms). Scene affinity makes fusion
     * strictly more effective behind the router: every request for a
     * scene lands on its home shard, so the whole fleet's same-scene
     * arrivals collect into one shard's windows. Router probes are
     * marginal-aware: when the scene has an open, unexpired,
     * non-full batch on the probed shard, the probe prices the join
     * at EstimatedMarginalServiceMs (RenderService::Quote) —
     * the exact price Submit admits at — so probe-accept implies
     * submit-accept *and* shards advertise their in-flight batch
     * capacity instead of spilling joiners a marginal-priced home
     * admit would have taken.
     */
    double batch_window_ms = 0.0;
    /** Largest fused execution per replica (>= 1; see ServeConfig). */
    std::size_t max_batch_elements = 8;
    /**
     * Simulated RPC transport for the cross-host shape (nullptr = pure
     * in-process calls). Not owned; must outlive the cluster, whose
     * destructor drains through it (WaitAll sends every unclaimed
     * result's response leg), so declare it before the cluster. With
     * a transport attached every submit crosses the simulated link and
     * can fail in transit, and Submit applies the transport's
     * scheduled shard deaths (see file header).
     */
    SimTransport* transport = nullptr;
    /** Hot-scene replication policy (top_k = 0 disables). */
    ReplicationConfig replication;
};

/** Handle to one request submitted to the cluster. */
using ClusterTicket = std::uint64_t;

/** Outcome of one routed request (virtual time; see file header). */
struct ClusterRenderResult {
    RenderResult result;
    std::size_t shard = 0;       //!< replica that resolved the request
    std::size_t home_shard = 0;  //!< the scene's live HRW home at submit
    bool spilled = false;        //!< served away from home (overload)
    /** Virtual recompile surcharge the spill or replay paid (0 when
     *  the serving shard already held the scene's pin, or neither
     *  happened). */
    double spill_surcharge_ms = 0.0;
    /** Re-submitted after its original shard died mid-flight. */
    bool replayed = false;
    /** Never reached a shard (result.status == kFailedTransport). */
    bool transport_failed = false;
    /** Simulated RPC time spent on the wire (request + response legs;
     *  0 without a transport). Telemetry only — never re-times
     *  admission (see file header). */
    double rpc_delay_ms = 0.0;
};

/** One replica's telemetry, with the cluster's routing counters. */
struct ShardTelemetry {
    ServiceStats service;  //!< the replica's own snapshot
    bool alive = true;     //!< false once KillShard took it (zero row)
    std::uint64_t homed = 0;      //!< requests whose live home is here
    std::uint64_t spill_in = 0;   //!< accepted here away from home
    std::uint64_t spill_out = 0;  //!< homed here, served elsewhere
    std::uint64_t spill_recompiles = 0;  //!< spill_in that compiled
    std::uint64_t replica_in = 0;  //!< p2c-routed here away from home
    std::uint64_t replayed_in = 0;  //!< replays landed here (epoch)
};

/**
 * Cluster-level aggregate telemetry (deterministic once drained). The
 * shared fields (ServingStats) are derived from the fleet ledger: every
 * retired replica's ServeLedger merged with every live one's, so they
 * span the cluster lifetime, including replicas retired by Resize or
 * KillShard; per_shard covers the current epoch. Fleet ratios are the
 * exact Σ/Σ of the merged sums, and the merged latency histograms keep
 * the single-replica ~2% bound (see common/stats.h). Cluster-specific
 * meanings:
 *
 *  - submitted counts shard-level admissions. A replayed ticket admits
 *    twice and a transport failure never admits, so across faults the
 *    shard view reconciles with the router view as submitted ==
 *    cluster_submitted - transport_failures + replayed
 *    (tests/chaos_test.cpp holds this identity under every fault
 *    schedule). Fault-free, the two are equal.
 *  - sessions_opened counts cluster OpenSession calls, not the
 *    replicas' re-home reopens.
 *  - makespan_ms runs from the earliest arrival any replica saw to the
 *    latest accepted completion on any replica, across resizes.
 *  - utilization is total busy time over the shard-time that existed:
 *    each epoch between resizes contributes its shard count x its own
 *    arrival-to-completion span, so the ratio stays meaningful when
 *    Resize changes the replica count mid-lifetime. A killed shard
 *    contributes its own span up to its death, an approximation
 *    (overlap with the epoch span double-counts slightly) that errs
 *    toward *under*-reporting utilization after a kill.
 */
struct ClusterStats : ServingStats {
    std::size_t shards = 0;       //!< slots (incl. dead) this epoch
    std::size_t live_shards = 0;  //!< slots still serving
    /** Router-level Submit() calls (lifetime). */
    std::uint64_t cluster_submitted = 0;
    std::uint64_t spilled = 0;           //!< accepted away from home
    std::uint64_t spill_recompiles = 0;  //!< spills that compiled
    /** Requests that never reached a shard (transport retry budget
     *  exhausted; they resolve as kFailedTransport). */
    std::uint64_t transport_failures = 0;
    /** In-flight tickets re-submitted because their shard died. */
    std::uint64_t replayed = 0;
    /** Shards removed by KillShard over the cluster lifetime. */
    std::uint64_t killed_shards = 0;
    /** Requests routed by power-of-two-choices (replicated scenes). */
    std::uint64_t p2c_routed = 0;
    /** p2c-routed requests served away from the scene's live home. */
    std::uint64_t replica_served = 0;
    /** Scenes currently holding a multi-shard replica set. */
    std::size_t replicated_scenes = 0;
    /** Times the replica sets were (re-)derived from the census. */
    std::uint64_t replication_refreshes = 0;
    /** Sessions moved to a new home by KillShard or Resize (each
     *  reopens fresh there: the next frame is a full recompute). */
    std::uint64_t session_rehomes = 0;

    /** Exact sample count and sum of the merged histogram — the
     *  reconciliation hooks: latency_samples == accepted always
     *  (admission records exactly one latency per accept, dead or
     *  alive), and the merged histogram's count equals the sum of the
     *  per-shard counts it folded. */
    std::uint64_t latency_samples = 0;
    double latency_sum_ms = 0.0;

    std::vector<ShardTelemetry> per_shard;

    double SpillRate() const;  //!< spilled / submitted

    /**
     * Publishes this snapshot under @p prefix: the shared keys
     * (ServingStats::PublishShared) plus the routing/spill/replication/
     * fault totals and the per-shard rows. Virtual-time derived, so the
     * published values share this snapshot's thread-count invariance.
     */
    void PublishTo(MetricsRegistry& registry,
                   const std::string& prefix = "cluster") const;
};

/** N RenderService replicas behind rendezvous routing with spill. */
class ShardedRenderService
{
  public:
    explicit ShardedRenderService(const ClusterConfig& config);

    /** Drains all replicas before destruction. */
    ~ShardedRenderService();

    ShardedRenderService(const ShardedRenderService&) = delete;
    ShardedRenderService& operator=(const ShardedRenderService&) = delete;

    /**
     * Registers a servable scene cluster-wide. The spec is recorded and
     * the scene is registered on its home shard; spill shards register
     * it lazily, on the first spill that lands there.
     */
    void RegisterScene(const std::string& name, const SweepPoint& spec);

    /**
     * Pre-compiles and pins @p scene on its home shard, returning the
     * executed frame cost (EstimatedServiceMs of it — the critical
     * path — is the admission estimate the router probes with). A
     * scene that was never warmed is warmed automatically by its first
     * Submit.
     */
    FrameCost WarmScene(const std::string& scene);

    /**
     * Routes and submits one request (see file header for the flow) —
     * the cluster's single submit entry, mirroring
     * RenderService::Submit(request, options). Default options
     * reproduce the one-argument behavior exactly. With
     * options.session set (a handle from this cluster's OpenSession),
     * the frame routes sticky to the session's home shard — no p2c, no
     * spill — priced at that shard's real delta-vs-full decision.
     * Never blocks on rendering; the first touch of a cold scene (home
     * warm-up or spill recompile) runs on the submitting thread. With
     * a transport attached, first applies every scheduled shard death
     * the request's arrival has reached (see file header).
     */
    ClusterTicket Submit(const SceneRequest& request,
                         const SubmitOptions& options = {});

    /**
     * Opens a trajectory session for @p scene (warming it if needed)
     * on the scene's live home shard and returns its cluster-wide
     * handle (never 0). Pass it via SubmitOptions::session — with the
     * frame's pose — on every frame of the trajectory; the cluster
     * translates it to the sticky shard's own session. Sessions are
     * re-homed (reopened fresh, so the next frame fully recomputes) by
     * KillShard and Resize; they are never closed.
     */
    SessionId OpenSession(const std::string& scene,
                          const CoherenceModel& model = {});

    /** Blocks until the ticket's request resolves; consumes the ticket.
     *  Fatal for an unknown or already-consumed ticket. */
    ClusterRenderResult Wait(ClusterTicket ticket);

    /** Drains every unclaimed ticket, in submission (ticket) order. */
    std::vector<ClusterRenderResult> WaitAll();

    /**
     * Kills shard @p shard at virtual time @p now_ms (fatal if already
     * dead, or if it is the last live shard): merges its ledger into
     * the lifetime ledger, re-homes its scenes to the next live
     * shard in their HRW rank, prunes it from every replica set, and
     * replays its accepted-but-unfinished tickets (virtual completion
     * after @p now_ms) on their new home — arrival @p now_ms, the
     * *remaining* deadline budget, and the spill recompile surcharge
     * when the new home is cold. Tickets whose requests had already
     * completed, shed, or been rejected keep their original results.
     * Trajectory sessions living on the dead shard re-home with their
     * scenes (reopened fresh — the next frame fully recomputes).
     * Returns the number of replayed tickets. Must not race other
     * members (same contract as Resize).
     */
    std::size_t KillShard(std::size_t shard, double now_ms);

    /**
     * Re-derives the hot-scene replica sets from the popularity census
     * (replication.top_k most-submitted scenes, ties broken by name;
     * each gets the first replication.factor live shards of its HRW
     * rank, registered and warmed). A pure function of (census, live
     * set): two clusters with identical histories derive identical
     * sets. Returns the hot scene names, most popular first. Also runs
     * automatically every replication.refresh_every submissions and
     * after Resize.
     */
    std::vector<std::string> RefreshReplication();

    /** Current replica set of @p scene (empty when not replicated). */
    std::vector<std::size_t> ReplicasOf(const std::string& scene) const;

    /**
     * Drains the cluster and rebalances onto @p new_shards replicas:
     * outstanding tickets are resolved (and stay claimable via Wait),
     * retiring replicas merge their ledgers into the lifetime
     * ledger, killed slots revive, and every scene re-registers
     * and re-warms on its new home. Returns the number of scenes whose
     * (live) home moved — the HRW minimum. Must not race other members
     * (see file header).
     */
    std::size_t Resize(std::size_t new_shards);

    ClusterStats Snapshot() const;

    std::size_t shards() const;
    /** Live (not killed) replica count. */
    std::size_t live_shards() const;
    /** False once KillShard removed @p index this epoch. */
    bool alive(std::size_t index) const;
    const ShardRouter& router() const { return router_; }
    /** Replica access for inspection (tests, benches); fatal for a
     *  killed shard. Do not Submit through it — that would break the
     *  probe/Admit agreement. */
    RenderService& shard(std::size_t index);

  private:
    /** Cluster-side record of one registered scene. */
    struct SceneDesc {
        std::string name;
        SweepPoint spec;
        /** EstimatedServiceMs(warm_cost); valid once warmed. */
        double est_latency_ms = 0.0;
        FrameCost warm_cost;          //!< home-shard executed frame
        bool warmed = false;
        /** The scene's shard preference order (ShardRouter::Rank) —
         *  pure in (scene, shard count), so cached here and rebuilt
         *  only on Resize instead of re-sorted per request. */
        std::vector<std::size_t> rank;
        /** Per-shard: the scene's id on that replica, or kNoScene. Spill,
         *  replica and re-homed shards register lazily, in their own
         *  order, so these differ from the cluster's id. */
        std::vector<SceneId> shard_ids;
        /** Per-shard: replica holds the scene's pin (home warm-up or a
         *  past spill), so a spill there pays no recompile surcharge. */
        std::vector<char> pinned_on;
        /** Popularity census: router-level submissions (lifetime;
         *  replays do not re-count). */
        std::uint64_t submits = 0;
        /** Live replica set, in rank order (empty = not replicated;
         *  p2c routing needs >= 2). */
        std::vector<std::size_t> replicas;
        /** Rotates the p2c candidate pair deterministically. */
        std::uint64_t p2c_cursor = 0;
    };

    /** Cluster-side record of one trajectory session. */
    struct SessionDesc {
        SceneId scene = 0;            //!< cluster id
        CoherenceModel model;
        std::size_t shard = 0;        //!< current sticky home replica
        SessionId shard_session = 0;  //!< its handle on that replica
        std::uint64_t rehomes = 0;    //!< kills/resizes that moved it
    };

    /** One outstanding or resolved ticket, kept small (the store holds
     *  a whole stream until it drains): no scene string — KillShard
     *  rebuilds the request from these scalars and the cluster SceneId. */
    struct Pending {
        /** Set once the cluster resolved the ticket itself (transport
         *  failure, KillShard/Resize drain); else the shard holds it. */
        std::unique_ptr<RenderResult> result;
        ServeTicket shard_ticket = 0;
        /** The caller's options; a session handle in them is the
         *  cluster's, translated to the session's *current* shard at
         *  submit time, so a replay lands on the re-homed session. */
        SubmitOptions options;
        double arrival_ms = 0.0;
        /** From the shard's Submit verdict (deadline 0 = none). */
        double completion_ms = 0.0;
        double deadline_abs_ms = 0.0;
        double spill_surcharge_ms = 0.0;
        double rpc_delay_ms = 0.0;
        /** The receipt's session frame and batch, so KillShard can take
         *  back a phantom's share (flat, so the record stays 168 B). */
        double reuse = 0.0;
        double savings_ms = 0.0;
        std::uint32_t batch = 0;
        std::uint32_t shard = 0;
        std::uint32_t home_shard = 0;
        std::uint32_t tier = 0;
        SceneId scene = 0;  //!< cluster id
        /** Returned by Wait/WaitAll; the slot only awaits popping. */
        bool claimed = false;
        bool spilled = false;
        bool accepted = false;
        bool replayed = false;
        bool transport_failed = false;
        bool delta = false;
        bool coherence_break = false;
    };

    /** Routing counters the replicas cannot see (per current epoch). */
    struct ShardAux {
        std::uint64_t homed = 0;
        std::uint64_t spill_in = 0;
        std::uint64_t spill_out = 0;
        std::uint64_t spill_recompiles = 0;
        std::uint64_t replica_in = 0;
        std::uint64_t replayed_in = 0;
    };

    /** Telemetry of replicas retired by Resize or KillShard (cluster
     *  lifetime). */
    struct Retired {
        /** Every retired replica's ledger, phantoms expunged. */
        ServeLedger ledger;
        std::uint64_t spilled = 0;
        std::uint64_t spill_recompiles = 0;
        std::uint64_t replica_served = 0;
        /** Shard-time retired epochs had available: each contributes
         *  its shard count x its own arrival-to-completion span (the
         *  utilization denominator; see ClusterStats::utilization). */
        double capacity_ms = 0.0;
        LatencyHistogram latency;
        /** Per-tier histograms (same indexing as the resolved tier
         *  list). A deque because histograms are neither copyable nor
         *  movable (common/stats.h). */
        std::deque<LatencyHistogram> tier_latency;
    };

    /** The cluster id of @p scene; fatal if absent (mutex_ held). */
    SceneId ResolveLocked(const std::string& scene) const;
    /** Registers @p desc on @p shard if not yet (mutex_ held). */
    void EnsureRegisteredLocked(SceneDesc& desc, std::size_t shard);
    /** Warms scene @p id on its live home if not yet (mutex_ held). */
    SceneDesc& EnsureWarmLocked(SceneId id);
    /** Registers warmed @p desc on @p shard and pins it there if not
     *  yet, checking the warm-up against desc.warm_cost (mutex_ held). */
    void PinLocked(SceneDesc& desc, std::size_t shard);
    /** The recompile surcharge a request pays on @p shard: 0 where the
     *  scene holds a pin, else spill_recompile_factor x its estimate
     *  (mutex_ held). */
    double RecompileSurchargeLocked(const SceneDesc& desc,
                                    std::size_t shard) const;
    /** First live shard in the scene's HRW rank (mutex_ held). */
    std::size_t LiveHomeLocked(const SceneDesc& desc) const;
    /** Live replica count (mutex_ held). */
    std::size_t LiveCountLocked() const;
    /**
     * Routes @p request to @p shard with @p surcharge_ms and records
     * the bookkeeping into @p pending (transport hop, shard submit, the
     * verdict its receipt returns, aux counters). The single funnel for
     * first submissions and replays. @p options carries the
     * cluster-level submit options; a session handle in it is
     * translated to the session's current shard-local handle here.
     * (mutex_ held.)
     */
    void RouteToShardLocked(const SceneRequest& request, SceneId scene,
                            const SubmitOptions& options, std::size_t shard,
                            std::size_t home, bool spilled,
                            double surcharge_ms, bool via_replica,
                            bool is_replay, const TraceContext& route_ctx,
                            Pending& pending);
    /** Re-homes every session living on a shard that is no longer its
     *  scene's live home: reopens it fresh there (the next frame fully
     *  recomputes — the trajectory replays from its last full frame).
     *  Run by KillShardLocked and Resize after scenes re-home; Resize
     *  passes @p force because it rebuilds every replica, invalidating
     *  every shard-local session handle. (mutex_ held.) */
    void RehomeSessionsLocked(const TraceContext& ctx, double now_ms,
                              bool force);
    /** Merges replica @p i's ledger into @p epoch and its histograms
     *  and aux counters into retired_; zeroes aux_[i]. (mutex_ held.) */
    void FoldReplicaLocked(std::size_t i, ServeLedger& epoch);
    /** One RenderService::Drain per live shard (null for a dead
     *  slot): each live shard's lock, held once, claims every result
     *  it holds. (mutex_ held.) */
    std::vector<std::unique_ptr<RenderService::Drain>> DrainLiveLocked();
    /** KillShard minus the public lock. */
    std::size_t KillShardLocked(std::size_t shard, double now_ms);
    /** RefreshReplication minus the public lock. */
    std::vector<std::string> RefreshReplicationLocked();
    /** Fills @p out's routing fields from @p pending, whose result
     *  @p out already holds, and sends the response leg. */
    void Finish(const Pending& pending, ClusterRenderResult& out);

    const ClusterConfig config_;

    mutable std::mutex mutex_;
    ShardRouter router_;
    std::vector<std::unique_ptr<RenderService>> shards_;
    std::vector<char> alive_;
    std::vector<ShardAux> aux_;
    std::vector<SceneDesc> scenes_;  //!< by cluster SceneId
    std::unordered_map<std::string, SceneId> scene_ids_;  //!< name -> id
    /**
     * The ticket store. A ticket is its slot's ring sequence, so Wait
     * is an index lookup that pops claimed slots off the front; WaitAll
     * finishes and pops every slot in ticket order; KillShard and
     * Resize walk it skipping claimed slots. Popped chunks recycle.
     */
    SlotRing<Pending> pending_;
    /** Open sessions, never erased: session id i + 1 at index i. */
    std::vector<SessionDesc> sessions_;
    std::uint64_t session_rehomes_ = 0;
    Retired retired_;
    std::uint64_t cluster_submitted_ = 0;
    std::uint64_t transport_failures_ = 0;
    std::uint64_t replayed_ = 0;
    std::uint64_t killed_shards_ = 0;
    std::uint64_t p2c_routed_ = 0;
    std::uint64_t replication_refreshes_ = 0;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_SERVE_CLUSTER_H_
