/**
 * @file
 * Per-scene prepared-frame registry for the serving front-end.
 *
 * A deployment serves a fixed repertoire of scenes — (accelerator
 * configuration, NeRF workload) pairs — millions of times. The registry
 * compiles each scene exactly once, on first touch: it instantiates the
 * accelerator model, builds the workload, pins a PlanCache prepared-frame
 * handle (see plan/plan_cache.h), and executes the plan once to obtain
 * the FrameCost latency estimate that admission control needs. Every
 * later request for the scene replays through the pinned handle — the
 * steady-state prepared path that skips per-request fingerprinting — and
 * the pin keeps the scene immune to LRU eviction in a bounded cache.
 *
 * Thread-safety: all members may be called concurrently (one registry
 * mutex, never held across a compile). Racing first touches of one
 * scene serialize on a per-scene mutex, so exactly one estimation run
 * executes per scene however many requests race to it — which is what
 * keeps the serving invariant "PlanCache frame hits == accepted
 * requests" exact even for cold concurrent submits. Distinct scenes
 * prepare concurrently. RenderService calls in from outside its service
 * lock (a cold first touch) and from under it (registration, shape
 * preparation); the registry never calls back into the service, so
 * either is safe. Prepared entries and shapes are never dropped or
 * replaced, so a caller may cache raw pointers to them for the
 * registry's lifetime (RenderService does, per scene).
 */
#ifndef FLEXNERFER_SERVE_SCENE_REGISTRY_H_
#define FLEXNERFER_SERVE_SCENE_REGISTRY_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "models/trajectory.h"
#include "models/workload.h"
#include "plan/plan_cache.h"
#include "runtime/sweep_runner.h"

namespace flexnerfer {

/** A scene's registration index in one registry (so one scene has
 *  different ids on different cluster shards). Services resolve a
 *  request's scene name to it once, on entry, and key by it below. */
using SceneId = std::uint32_t;
/** "No id": the scene is not registered (yet). */
constexpr SceneId kNoScene = std::numeric_limits<SceneId>::max();

/** One registered scene, immutable once prepared. */
struct SceneEntry {
    SceneId id = 0;
    std::string name;
    SweepPoint spec;  //!< backend/precision/dataflow/model/params
    std::unique_ptr<const Accelerator> accel;
    NerfWorkload workload;
    PlanCache::PreparedFrame frame;  //!< pinned prepared-frame handle
    /** Executed cost of one frame; EstimatedServiceMs(cost) — the
     *  dependency-DAG critical path — is the admission estimate (exact
     *  for steady-state replays, which are memoized). */
    FrameCost cost;
};

/**
 * One prepared fused batch of a scene — the (scene, element-count)
 * grain of the batching path. Immutable once built: the frame handle
 * pins the fused plan in the cache and `cost` is its executed cost, so
 * EstimatedServiceMs(cost) prices a batch of this shape and the
 * difference against the next-smaller shape prices one more joiner
 * (EstimatedMarginalServiceMs).
 */
struct BatchedSceneFrame {
    std::size_t elements = 1;
    PlanCache::PreparedFrame frame;  //!< pinned fused prepared frame
    FrameCost cost;                  //!< executed fused-frame cost
};

/**
 * One prepared delta frame of a scene — the (scene, reuse fraction)
 * grain of the trajectory path (see models/trajectory.h). Immutable
 * once built: the frame handle pins the predecessor-keyed delta plan in
 * the cache and `cost` is its executed cost, so
 * EstimatedDeltaServiceMs(cost, scene cost) prices a session frame at
 * this coherence level exactly — the same quantum always replays the
 * same memoized delta frame.
 */
struct DeltaSceneFrame {
    std::size_t reuse_quantum = 0;   //!< numerator of the reuse fraction
    std::size_t reuse_quanta = 1;    //!< the coherence model's grid
    PlanCache::PreparedFrame frame;  //!< pinned delta prepared frame
    FrameCost cost;                  //!< executed delta-frame cost
};

/** One scene's row of a RenderService snapshot: the registry's name and
 *  estimate beside the counters the service keeps under its lock. */
struct SceneStats {
    std::string name;
    /** The admission service-time estimate: the scene frame's
     *  critical-path latency (EstimatedServiceMs). */
    double est_latency_ms = 0.0;
    std::uint64_t requests = 0;          //!< submits naming this scene
    std::uint64_t prepared_replays = 0;  //!< touches after preparation
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t shed = 0;
};

/** Maps scene names to pinned prepared frames, compiling on first touch. */
class SceneRegistry
{
  public:
    /** Scenes prepare into @p cache, which must outlive the registry. */
    explicit SceneRegistry(PlanCache& cache) : cache_(cache) {}

    SceneRegistry(const SceneRegistry&) = delete;
    SceneRegistry& operator=(const SceneRegistry&) = delete;

    /**
     * Registers @p name as the scene described by @p spec (which must
     * name a single model — a serving request renders one frame, not a
     * sweep). Registration builds the accelerator model and workload
     * descriptor (cheap, and the alias guard fingerprints them); plan
     * compilation and the estimation run are deferred to the first
     * touch, which consumes them. Re-registering a name is fatal, and
     * so is registering a second name whose spec lowers to the same
     * (config, workload) frame: alias scenes would split one underlying
     * frame across two stat rows and double-count its estimation run,
     * breaking the frame_hits == accepted invariant. Returns its id.
     */
    SceneId Register(const std::string& name, const SweepPoint& spec);

    /** The id of @p name, or kNoScene: the one string-keyed lookup. */
    SceneId Find(const std::string& name) const;
    const std::string& Name(SceneId id) const;
    /** Scene @p id's admission estimate, EstimatedServiceMs of its
     *  executed cost; 0 until its first touch. */
    double EstimatedMs(SceneId id) const;

    /**
     * Returns the prepared entry for scene @p id, compiling and pinning
     * it on first touch (with @p pool, the one-off estimation run fans
     * across it). The returned entry is shared and immutable; it stays
     * valid for the caller's lifetime even if the scene is later
     * dropped from the registry. With @p compiled, reports whether this
     * very call ran the estimation run (false for every touch that
     * found the entry prepared, racing losers included) — how a
     * service tells its one cold request from prepared replays.
     */
    std::shared_ptr<const SceneEntry> Touch(SceneId id,
                                            ThreadPool* pool = nullptr,
                                            bool* compiled = nullptr);

    /**
     * Returns the prepared fused frame for @p elements requests of
     * scene @p id (see models/workload.h, FuseBatch), compiling and
     * pinning
     * each (scene, element-count) shape lazily on its first use — one
     * estimation run per shape, exactly like a scene's first touch, so
     * the batching invariant "PlanCache frame hits == batches
     * dispatched" stays exact. @p elements == 1 aliases the scene's own
     * prepared entry (same plan-cache entry, same cost). Touches the
     * scene first if needed.
     */
    std::shared_ptr<const BatchedSceneFrame> TouchBatched(
        SceneId id, std::size_t elements, ThreadPool* pool = nullptr);

    /**
     * Returns the prepared delta frame for reusing @p reuse_quantum /
     * @p reuse_quanta of scene @p id's previous frame (see
     * models/trajectory.h, DeltaWorkload), compiling and pinning each
     * (scene, quantum, quanta) shape lazily on first use via the plan
     * cache's predecessor-keyed path (PlanCache::PrepareDelta off the
     * scene's pinned handle) — one estimation run per shape, exactly
     * like a scene's first touch. @p reuse_quantum == 0 aliases the
     * scene's own prepared entry (no overlap is a full recompute).
     * Touches the scene first if needed.
     */
    std::shared_ptr<const DeltaSceneFrame> TouchDelta(
        SceneId id, std::size_t reuse_quantum, std::size_t reuse_quanta,
        ThreadPool* pool = nullptr);

    std::size_t size() const;

  private:
    template <typename Key, typename Frame>
    using ShapeMap = std::map<Key, std::shared_ptr<const Frame>>;
    /** A delta shape's reuse fraction: (quantum, quanta). Sessions on
     *  different reuse grids never share a shape. */
    using DeltaKey = std::pair<std::size_t, std::size_t>;

    struct Slot {
        SweepPoint spec;
        /** Built at Register (the alias guard fingerprints them) and
         *  moved into the entry by the first touch. */
        std::unique_ptr<const Accelerator> accel;
        NerfWorkload workload;
        /** Serializes first-touch preparation of this scene (shared so
         *  it outlives the registry lock while a preparer holds it). */
        std::shared_ptr<std::mutex> prepare_mutex =
            std::make_shared<std::mutex>();
        std::shared_ptr<const SceneEntry> entry;  //!< null until touched
        /** Prepared fused frames by element count (lazily built; the
         *  1-element shape aliases `entry`). */
        ShapeMap<std::size_t, BatchedSceneFrame> batched;
        /** Prepared delta frames by reuse fraction (lazily built; the
         *  0-reuse shapes alias `entry`). */
        ShapeMap<DeltaKey, DeltaSceneFrame> deltas;
        std::string name;
        double est_latency_ms = 0.0;  //!< set by the first touch
    };

    /** The shape under @p key in scene @p id's @p shapes, built once by
     *  @p build(entry) (TouchBatched and TouchDelta share it). */
    template <typename Key, typename Frame, typename Build>
    std::shared_ptr<const Frame> TouchShape(
        SceneId id, const Key& key, ShapeMap<Key, Frame> Slot::*shapes,
        ThreadPool* pool, Build build);

    PlanCache& cache_;

    mutable std::mutex mutex_;
    std::deque<Slot> slots_;  //!< by id; never relocated
    std::unordered_map<std::string, SceneId> ids_;  //!< name -> id
    /** Injective spec key (label excluded) -> first name registered
     *  with it, to reject alias scenes with a useful message. */
    std::unordered_map<std::string, std::string> spec_owners_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_SERVE_SCENE_REGISTRY_H_
