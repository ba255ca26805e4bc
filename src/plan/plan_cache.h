/**
 * @file
 * Thread-safe cache of compiled frame plans and executed frame results.
 *
 * The serving scenario renders the same frames over and over: one model
 * configuration meets one workload millions of times. PlanCache keys
 * compiled plans by the injective (model config, workload) fingerprint
 * pair, so the compile half runs once per distinct frame; executed
 * results are memoized too (a plan's cost is a pure function of the
 * plan), so a repeated frame replays as one lookup. A shared GemmMemo
 * additionally lets distinct plans reuse engine runs for common
 * (engine config, shape) pairs.
 *
 * Replay is bit-identical to a cold compile+execute by construction:
 * keys are injective, plans are immutable, and execution is pure.
 *
 * Thread-safety: all members may be called concurrently. Racing misses
 * may compile the same plan twice; the first insert wins and both
 * callers observe identical plans. Racing *executions* of one frame do
 * not duplicate work: the first Run executes on its own thread,
 * concurrent Runs wait on it and replay the memoized result as frame
 * hits — a burst of identical requests costs one execution.
 *
 * By default entries are never evicted — the working set is bounded by
 * the distinct (config, workload) pairs a deployment serves. Long-lived
 * multi-tenant servers can instead bound the cache (capacity in
 * entries): keyed lookups then refresh recency and inserts evict the
 * least-recently-used entry. Eviction only drops the cache's reference;
 * outstanding shared plans and PreparedFrame handles pin their entries
 * and keep replaying bit-identically, and an evicted pair recompiles on
 * its next keyed lookup into a byte-identical plan (compilation is a
 * pure function of the key). The capacity bounds *plan entries* only:
 * the embedded GemmMemo still grows with the distinct (engine config,
 * GEMM shape) pairs ever executed — a much smaller set, since shapes
 * repeat across workloads and entries are small (a key string plus one
 * GemmResult) — so memo rows from evicted plans persist and keep
 * accelerating their recompiles. Pruning the memo alongside eviction
 * would need per-row refcounts; revisit if memo residency ever shows up
 * in a deployment profile.
 */
#ifndef FLEXNERFER_PLAN_PLAN_CACHE_H_
#define FLEXNERFER_PLAN_PLAN_CACHE_H_

#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "accel/accelerator.h"
#include "plan/frame_plan.h"
#include "plan/gemm_memo.h"

namespace flexnerfer {

/** Caches compiled FramePlans and their executed frame costs. */
class PlanCache
{
    struct Entry;

  public:
    /**
     * Counter semantics: every keyed lookup (Get / keyed Run / Prepare)
     * counts exactly one of plan_hits / plan_misses; every execution
     * served from the result memo additionally counts one frame_hit
     * (prepared Runs skip the keyed lookup, so they only ever move
     * frame_hits). plan_misses equals the number of entries compiled —
     * a racing duplicate compile counts as a hit for the insert loser.
     */
    struct Stats {
        std::uint64_t plan_hits = 0;    //!< keyed lookups finding a plan
        std::uint64_t plan_misses = 0;  //!< keyed lookups that compiled
        std::uint64_t frame_hits = 0;   //!< replays from the result memo
        std::uint64_t evictions = 0;    //!< LRU entries dropped (bounded)
        /** Predecessor-keyed lookups (PrepareDelta) that found their
         *  delta entry resident. Delta lookups go through the same key
         *  table, so they also move plan_hits/plan_misses; these two
         *  split out the trajectory path. */
        std::uint64_t delta_hits = 0;
        std::uint64_t delta_misses = 0;  //!< delta lookups that compiled
    };

    /**
     * With @p capacity = 0 (the default) the cache is unbounded and
     * behaves exactly as before. A positive capacity bounds the entry
     * count: every insert beyond it evicts the least-recently-used
     * entry (keyed Get/Run/Prepare refresh recency; prepared-handle
     * Runs bypass the key table and leave recency untouched).
     */
    explicit PlanCache(std::size_t capacity = 0) : capacity_(capacity) {}

    PlanCache(const PlanCache&) = delete;
    PlanCache& operator=(const PlanCache&) = delete;

    /**
     * Returns the cached plan for (accel config, workload), compiling
     * through FramePlanner on a miss. The plan is shared and immutable.
     */
    std::shared_ptr<const FramePlan> Get(const Accelerator& accel,
                                         const NerfWorkload& workload);

    /**
     * The serving hot path: compile (or reuse) the plan, execute it on
     * the calling thread (or replay the memoized result). Bit-identical
     * however it is served.
     */
    FrameCost Run(const Accelerator& accel, const NerfWorkload& workload);

    /**
     * Handle to a prepared (config, workload) pair: pins the cache
     * entry directly, so replaying through it needs no fingerprint
     * rebuild and no handle-table lookup. Copyable, usable from any
     * thread; keeps its entry alive independently of the cache.
     *
     * Pinning lifetime: the pin is the handle — the entry lives
     * exactly as long as any copy of the handle does (shared_ptr
     * semantics), through LRU eviction and even past the PlanCache's
     * own destruction. This is what lets a serving replica
     * (serve/render_service.h) hold one handle per scene and guarantee
     * the steady-state prepared path forever, and what keeps a shard
     * replica's pins independent of its siblings in a cluster
     * (serve/cluster.h).
     */
    class PreparedFrame
    {
      public:
        PreparedFrame() = default;  //!< null handle; Run rejects it

      private:
        friend class PlanCache;
        explicit PreparedFrame(std::shared_ptr<Entry> entry)
            : entry_(std::move(entry))
        {}
        std::shared_ptr<Entry> entry_;
    };

    /**
     * Registers a frame for handle-based replay. A deployment serves a
     * fixed repertoire of frames millions of times; preparing each once
     * (the way a database prepares a statement) lets every later replay
     * skip the per-request fingerprint construction — the dominant cost
     * of a keyed cache hit. Preparing the same pair again returns a new
     * handle to the same shared entry.
     */
    PreparedFrame Prepare(const Accelerator& accel,
                          const NerfWorkload& workload);

    /** Replays (or, first time, executes) a prepared frame. Bit-identical
     *  to the keyed Run of the same pair. */
    FrameCost Run(const PreparedFrame& frame);

    /**
     * The predecessor-keyed lookup next to the exact-fingerprint path:
     * registers @p delta_workload (a models/trajectory.h DeltaWorkload
     * shape) as a delta of @p predecessor. The entry's key is the
     * predecessor's own cache key extended with the delta workload's
     * fingerprint — injective, and distinct from the delta workload's
     * standalone key — so the same delta shape hanging off two different
     * base frames occupies two entries, and delta handles chain: a
     * PreparedFrame returned here is a valid predecessor for the next
     * PrepareDelta, the trajectory telescoping key by key.
     *
     * Delta entries live in the ordinary key table: they count
     * delta_hits/delta_misses (on top of plan_hits/plan_misses),
     * participate in LRU recency and eviction, and replay through Run
     * like any prepared frame. Pin semantics make the race with LRU
     * eviction benign in both directions: the predecessor handle pins
     * its entry (and key) through eviction, so PrepareDelta stays safe
     * after the predecessor leaves the table; an evicted *delta* entry
     * recompiles on its next PrepareDelta into a byte-identical plan,
     * counted as a fresh delta miss. A null @p predecessor handle is
     * fatal.
     */
    PreparedFrame PrepareDelta(const PreparedFrame& predecessor,
                               const Accelerator& accel,
                               const NerfWorkload& delta_workload);

    /** The engine-run memo shared by executions through this cache. */
    GemmMemo& memo() { return memo_; }

    Stats stats() const;
    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }  //!< 0 = unbounded

  private:
    struct Entry {
        /**
         * This entry's full cache key, immutable after publication.
         * Stored on the entry (not just in the key table) so a
         * predecessor handle still names itself after LRU eviction
         * drops its table row — PrepareDelta extends this key.
         */
        std::string key;
        std::shared_ptr<const FramePlan> plan;
        /** Executed cost; set by the first Run to finish this frame. */
        std::shared_ptr<const FrameCost> result;
        /**
         * Set while the first execution of this frame is in flight:
         * concurrent Runs of one entry wait on it and then replay the
         * memoized result as frame hits, instead of redundantly
         * executing the same pure plan — the thundering-herd guard for
         * a burst of identical requests.
         */
        std::shared_future<void> inflight;
        /** This entry's slot in the recency list (bounded caches). */
        std::list<std::string>::iterator lru_it;
    };

    /** Looks up or compiles the entry for @p key (counts hit/miss;
     *  @p compiled, if non-null, reports which side this call took). */
    std::shared_ptr<Entry> GetByKey(const std::string& key,
                                    const Accelerator& accel,
                                    const NerfWorkload& workload,
                                    bool* compiled = nullptr);

    /** Executes @p entry's plan, memoizing the frame result. */
    FrameCost RunEntry(const std::shared_ptr<Entry>& entry);

    mutable std::mutex mutex_;
    std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
    /** Keys ordered most- to least-recently used (bounded caches). */
    std::list<std::string> lru_;
    const std::size_t capacity_;
    GemmMemo memo_;
    Stats stats_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_PLAN_PLAN_CACHE_H_
