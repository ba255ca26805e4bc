#include "serve/scene_registry.h"

#include <utility>

#include "common/logging.h"

namespace flexnerfer {

SceneId
SceneRegistry::Register(const std::string& name, const SweepPoint& spec)
{
    if (spec.model.empty()) {
        Fatal("scene '" + name +
              "' must name a single model (empty model means a whole "
              "sweep, which is not a servable scene)");
    }
    // Build the model and workload once: the alias guard fingerprints
    // them here and the first touch consumes them. The fingerprint pair
    // is the spec's authoritative identity — exactly the (config,
    // workload) key the PlanCache will use — so two specs that lower to
    // the same frame (e.g. GPU-backend scenes differing only in the
    // precision field the GPU model ignores) collide however their raw
    // SweepPoint fields differ.
    Slot slot;
    slot.spec = spec;
    slot.accel = MakeAccelerator(spec);
    slot.workload = BuildWorkload(spec.model, spec.params);
    slot.stats.name = name;
    std::string key;
    slot.accel->AppendConfigFingerprint(&key);
    AppendFingerprint(slot.workload, &key);

    std::lock_guard<std::mutex> lock(mutex_);
    const auto owner = spec_owners_.emplace(std::move(key), name);
    if (!owner.second) {
        Fatal("scene '" + name + "' duplicates the spec of scene '" +
              owner.first->second +
              "' (alias scenes are not supported: they would split one "
              "frame across two stat rows and break the frame-hit "
              "accounting)");
    }
    const auto id = static_cast<SceneId>(slots_.size());
    if (!ids_.emplace(name, id).second) {
        Fatal("scene '" + name + "' registered twice");
    }
    slots_.push_back(std::move(slot));
    return id;
}

SceneId
SceneRegistry::Find(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = ids_.find(name);
    return it == ids_.end() ? kNoScene : it->second;
}

const std::string&
SceneRegistry::Name(SceneId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.at(id).stats.name;  // slots never relocate
}

std::shared_ptr<const SceneEntry>
SceneRegistry::Touch(SceneId id, ThreadPool* pool, bool count_request)
{
    std::shared_ptr<std::mutex> prepare_mutex;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Slot& slot = slots_.at(id);
        if (count_request) ++slot.stats.requests;
        if (slot.entry != nullptr) {
            if (count_request) ++slot.stats.prepared_replays;
            return slot.entry;
        }
        prepare_mutex = slot.prepare_mutex;
    }
    // First touch: compile, pin, and estimate outside the registry lock
    // (the expensive half). The per-scene mutex serializes racing first
    // touches so exactly one estimation run executes — losers wake up,
    // find the entry, and take the prepared path like any later touch.
    // Deadlock-free: the preparer never waits on anyone holding either
    // lock (its nested ParallelFor self-helps on the calling thread).
    std::lock_guard<std::mutex> prepare_lock(*prepare_mutex);
    auto entry = std::make_shared<SceneEntry>();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        Slot& slot = slots_[id];
        if (slot.entry != nullptr) {
            if (count_request) ++slot.stats.prepared_replays;
            return slot.entry;
        }
        // Holding the prepare mutex: adopt the model and workload that
        // Register built.
        entry->id = id;
        entry->name = slot.stats.name;
        entry->spec = slot.spec;
        entry->accel = std::move(slot.accel);
        entry->workload = std::move(slot.workload);
    }
    entry->frame = cache_.Prepare(*entry->accel, entry->workload);
    entry->cost = cache_.Run(entry->frame, pool);

    std::lock_guard<std::mutex> lock(mutex_);
    Slot& slot = slots_[id];
    slot.entry = std::move(entry);
    slot.stats.est_latency_ms = EstimatedServiceMs(slot.entry->cost);
    return slot.entry;
}

const SceneEntry*
SceneRegistry::TouchName(const std::string& name, ThreadPool* pool)
{
    SceneId id = kNoScene;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = ids_.find(name);
        if (it == ids_.end()) return nullptr;
        id = it->second;
        Slot& slot = slots_[id];
        if (slot.entry != nullptr) {
            ++slot.stats.requests;
            ++slot.stats.prepared_replays;
            return slot.entry.get();
        }
    }
    // Cold: the counted Touch compiles and does the counting.
    return Touch(id, pool).get();
}

template <typename Frame, typename Build>
std::shared_ptr<const Frame>
SceneRegistry::TouchShape(SceneId id, std::size_t key,
                          ShapeMap<Frame> Slot::*shapes, ThreadPool* pool,
                          Build build)
{
    // Administrative touch: ensures the scene is prepared (shapes reuse
    // its model and workload; delta shapes hang off its pinned handle)
    // without moving the request counters.
    const std::shared_ptr<const SceneEntry> entry =
        Touch(id, pool, /*count_request=*/false);
    const auto find = [&]() -> std::shared_ptr<const Frame> {
        std::lock_guard<std::mutex> lock(mutex_);
        const ShapeMap<Frame>& built = slots_[id].*shapes;
        const auto it = built.find(key);
        return it == built.end() ? nullptr : it->second;
    };
    if (auto found = find()) return found;
    // First use of this shape: compile, pin, and estimate outside the
    // registry lock, serialized per scene exactly like a first touch,
    // so one estimation run executes per shape however many submits
    // race to it.
    std::shared_ptr<std::mutex> prepare_mutex;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        prepare_mutex = slots_[id].prepare_mutex;
    }
    std::lock_guard<std::mutex> prepare_lock(*prepare_mutex);
    if (auto found = find()) return found;
    std::shared_ptr<const Frame> frame = build(*entry);
    std::lock_guard<std::mutex> lock(mutex_);
    return (slots_[id].*shapes).emplace(key, std::move(frame)).first->second;
}

std::shared_ptr<const BatchedSceneFrame>
SceneRegistry::TouchBatched(SceneId id, std::size_t elements,
                            ThreadPool* pool)
{
    if (elements == 0) {
        Fatal("scene '" + Name(id) +
              "': a batch needs at least one element");
    }
    return TouchShape(id, elements, &Slot::batched, pool,
                      [&](const SceneEntry& entry) {
        auto batched = std::make_shared<BatchedSceneFrame>();
        batched->elements = elements;
        if (elements == 1) {
            // The 1-element "batch" is the scene itself: alias its
            // prepared entry so a singleton flush replays the same
            // memoized frame.
            batched->frame = entry.frame;
            batched->cost = entry.cost;
        } else {
            const NerfWorkload fused = FuseBatch(entry.workload, elements);
            batched->frame = cache_.Prepare(*entry.accel, fused);
            batched->cost = cache_.Run(batched->frame, pool);
        }
        return batched;
    });
}

std::shared_ptr<const DeltaSceneFrame>
SceneRegistry::TouchDelta(SceneId id, std::size_t reuse_quantum,
                          std::size_t reuse_quanta, ThreadPool* pool)
{
    if (reuse_quanta < 1 || reuse_quantum > reuse_quanta) {
        Fatal("scene '" + Name(id) + "': reuse quantum " +
              std::to_string(reuse_quantum) + " of " +
              std::to_string(reuse_quanta) + " is not a valid fraction");
    }
    return TouchShape(id, reuse_quantum, &Slot::deltas, pool,
                      [&](const SceneEntry& entry) {
        auto delta = std::make_shared<DeltaSceneFrame>();
        delta->reuse_quantum = reuse_quantum;
        delta->reuse_quanta = reuse_quanta;
        if (reuse_quantum == 0) {
            // Zero reuse is the scene itself: alias its prepared entry
            // so a no-overlap frame replays the same memoized full frame.
            delta->frame = entry.frame;
            delta->cost = entry.cost;
        } else {
            const NerfWorkload shrunken =
                DeltaWorkload(entry.workload, reuse_quantum, reuse_quanta);
            delta->frame =
                cache_.PrepareDelta(entry.frame, *entry.accel, shrunken);
            delta->cost = cache_.Run(delta->frame, pool);
        }
        return delta;
    });
}

std::size_t
SceneRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return slots_.size();
}

std::vector<SceneStats>
SceneRegistry::Stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<SceneStats> stats;
    stats.reserve(slots_.size());
    for (const Slot& slot : slots_) stats.push_back(slot.stats);
    return stats;
}

}  // namespace flexnerfer
