#include "plan/plan_cache.h"

#include <optional>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"
#include "plan/frame_planner.h"

namespace flexnerfer {
namespace {

/**
 * Records a cache-outcome instant into the calling request's trace (a
 * ScopedTraceContext set by the serving layer), timestamped at the
 * scope's virtual anchor. No recorder or no live context: one relaxed
 * load / one thread-local read, nothing recorded.
 */
void
TraceCacheInstant(const char* name)
{
    TraceRecorder* const recorder = TraceRecorder::Global();
    if (recorder == nullptr) return;
    const TraceContext ctx = CurrentTraceContext();
    if (!ctx.active()) return;
    recorder->RecordInstant(ctx, "cache", name, CurrentTraceAnchorMs());
}

/**
 * Reusable per-thread key buffer: key construction dominates a keyed
 * cache hit, and clearing a string keeps its capacity, so steady-state
 * replays allocate nothing.
 */
std::string&
ScratchKey(const Accelerator& accel, const NerfWorkload& workload)
{
    thread_local std::string key;
    key.clear();
    FramePlanner::AppendCacheKey(accel, workload, &key);
    return key;
}

}  // namespace

std::shared_ptr<PlanCache::Entry>
PlanCache::GetByKey(const std::string& key, const Accelerator& accel,
                    const NerfWorkload& workload, bool* compiled)
{
    if (compiled != nullptr) *compiled = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++stats_.plan_hits;
            if (capacity_ > 0) {
                lru_.splice(lru_.begin(), lru_, it->second->lru_it);
            }
            TraceCacheInstant("plan_hit");
            return it->second;
        }
    }
    // Compile outside the lock: lowering is the expensive half, and a
    // racing duplicate compiles an identical plan (first insert wins).
    auto entry = std::make_shared<Entry>();
    entry->key = key;
    entry->plan = std::make_shared<const FramePlan>(
        FramePlanner::Compile(accel, workload));
    TraceCacheInstant("plan_miss");
    std::lock_guard<std::mutex> lock(mutex_);
    const auto inserted = entries_.emplace(key, std::move(entry));
    if (inserted.second) {
        ++stats_.plan_misses;
        if (compiled != nullptr) *compiled = true;
        if (capacity_ > 0) {
            lru_.push_front(key);
            inserted.first->second->lru_it = lru_.begin();
            while (entries_.size() > capacity_) {
                // Dropping the map reference is all eviction does: an
                // evicted entry kept alive by shared plans or prepared
                // handles stays valid and replayable.
                entries_.erase(lru_.back());
                lru_.pop_back();
                ++stats_.evictions;
            }
        }
    } else {
        ++stats_.plan_hits;
        if (capacity_ > 0) {
            lru_.splice(lru_.begin(), lru_, inserted.first->second->lru_it);
        }
    }
    return inserted.first->second;
}

std::shared_ptr<const FramePlan>
PlanCache::Get(const Accelerator& accel, const NerfWorkload& workload)
{
    return GetByKey(ScratchKey(accel, workload), accel, workload)->plan;
}

FrameCost
PlanCache::RunEntry(const std::shared_ptr<Entry>& entry)
{
    // Loops only when a joined execution fails without publishing a
    // result (its exception propagates on the executing thread; this
    // waiter then retries, typically becoming the executor itself).
    for (;;) {
        std::shared_future<void> wait_on;
        std::optional<std::promise<void>> fulfil;  // set when executing
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (entry->result != nullptr) {
                ++stats_.frame_hits;
                TraceCacheInstant("frame_hit");
                return *entry->result;
            }
            if (entry->inflight.valid()) {
                // Another thread is already executing this frame: join
                // it instead of redundantly re-running a pure plan. An
                // execution runs nothing but its own ops, so a joiner
                // never waits on itself.
                wait_on = entry->inflight;
            } else {
                fulfil.emplace();
                entry->inflight = fulfil->get_future().share();
            }
        }

        if (wait_on.valid()) {
            TraceCacheInstant("frame_join");
            wait_on.wait();
            std::lock_guard<std::mutex> lock(mutex_);
            // The result is published under the lock before the
            // promise is fulfilled — unless the execution threw, in
            // which case the loop retries.
            if (entry->result != nullptr) {
                ++stats_.frame_hits;
                return *entry->result;
            }
            continue;
        }

        FrameCost cost;
        try {
            cost = entry->plan->Execute(&memo_);
        } catch (...) {
            // Release the in-flight marker and wake joined waiters
            // before propagating; they observe the missing result and
            // retry.
            {
                std::lock_guard<std::mutex> lock(mutex_);
                entry->inflight = std::shared_future<void>();
            }
            fulfil->set_value();
            throw;
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            entry->result = std::make_shared<const FrameCost>(cost);
            entry->inflight = std::shared_future<void>();
        }
        fulfil->set_value();
        return cost;
    }
}

FrameCost
PlanCache::Run(const Accelerator& accel, const NerfWorkload& workload)
{
    return RunEntry(GetByKey(ScratchKey(accel, workload), accel, workload));
}

PlanCache::PreparedFrame
PlanCache::Prepare(const Accelerator& accel, const NerfWorkload& workload)
{
    return PreparedFrame(
        GetByKey(ScratchKey(accel, workload), accel, workload));
}

FrameCost
PlanCache::Run(const PreparedFrame& frame)
{
    FLEX_CHECK_MSG(frame.entry_ != nullptr,
                   "null prepared frame handle (default-constructed?)");
    return RunEntry(frame.entry_);
}

PlanCache::PreparedFrame
PlanCache::PrepareDelta(const PreparedFrame& predecessor,
                        const Accelerator& accel,
                        const NerfWorkload& delta_workload)
{
    FLEX_CHECK_MSG(predecessor.entry_ != nullptr,
                   "null predecessor handle (default-constructed?)");
    // The predecessor's key is immutable after publication and pinned
    // by the handle, so reading it needs no lock — and stays valid
    // after LRU eviction drops the predecessor's table row.
    thread_local std::string key;
    key.clear();
    key.append(predecessor.entry_->key);
    key.append("|delta|");
    // The suffix is the delta pair's own full cache key (config and
    // workload fingerprints), so the composite stays injective even if
    // a caller deltas a predecessor under a different accelerator.
    FramePlanner::AppendCacheKey(accel, delta_workload, &key);
    bool compiled = false;
    auto entry = GetByKey(key, accel, delta_workload, &compiled);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (compiled) {
            ++stats_.delta_misses;
        } else {
            ++stats_.delta_hits;
        }
    }
    return PreparedFrame(std::move(entry));
}

PlanCache::Stats
PlanCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
PlanCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

}  // namespace flexnerfer
