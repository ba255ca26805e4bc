#include "runtime/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "common/logging.h"

namespace flexnerfer {
namespace {

/** Identifies the pool/worker executing the current thread, if any. */
struct WorkerIdentity {
    const ThreadPool* pool = nullptr;
    int index = -1;
};

thread_local WorkerIdentity tls_worker;

}  // namespace

ThreadPool::ThreadPool(int n_threads)
{
    if (n_threads <= 0) {
        n_threads = std::max(1u, std::thread::hardware_concurrency());
    }
    queues_.reserve(n_threads);
    for (int i = 0; i < n_threads; ++i) {
        queues_.push_back(std::make_unique<WorkQueue>());
    }
    workers_.reserve(n_threads);
    for (int i = 0; i < n_threads; ++i) {
        workers_.emplace_back([this, i] { WorkerLoop(i); });
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(sleep_mutex_);
        stop_.store(true);
    }
    sleep_cv_.notify_all();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void
ThreadPool::Enqueue(std::function<void()> task)
{
    FLEX_CHECK_MSG(task != nullptr, "null task enqueued");
    // Workers push onto their own deque (popped LIFO while the data is
    // still warm); external submitters round-robin across the queues.
    int target;
    if (tls_worker.pool == this) {
        target = tls_worker.index;
    } else {
        target = static_cast<int>(next_queue_.fetch_add(1) % queues_.size());
    }
    {
        std::lock_guard<std::mutex> lock(queues_[target]->mutex);
        queues_[target]->tasks.push_back(std::move(task));
    }
    pending_.fetch_add(1);
    {
        // Taking the sleep mutex orders this notify after any worker's
        // "queue empty" check, so no wakeup is lost.
        std::lock_guard<std::mutex> lock(sleep_mutex_);
    }
    sleep_cv_.notify_one();
}

bool
ThreadPool::TryRunOne(int home_index)
{
    std::function<void()> task;
    const int n = static_cast<int>(queues_.size());

    if (home_index >= 0) {
        WorkQueue& home = *queues_[home_index];
        std::lock_guard<std::mutex> lock(home.mutex);
        if (!home.tasks.empty()) {
            task = std::move(home.tasks.back());
            home.tasks.pop_back();
        }
    }
    if (!task) {
        // Steal oldest-first from the victims, starting past home so the
        // workers do not all converge on queue 0.
        for (int hop = 1; hop <= n && !task; ++hop) {
            const int victim = (std::max(home_index, 0) + hop) % n;
            if (victim == home_index) continue;
            WorkQueue& q = *queues_[victim];
            std::lock_guard<std::mutex> lock(q.mutex);
            if (!q.tasks.empty()) {
                task = std::move(q.tasks.front());
                q.tasks.pop_front();
                steals_.fetch_add(1);
            }
        }
    }
    if (!task) return false;

    pending_.fetch_sub(1);
    // Count before running: a task's future becomes ready inside task(),
    // and observers joining on it must not see the counter lag behind.
    executed_.fetch_add(1);
    task();
    return true;
}

void
ThreadPool::WorkerLoop(int worker_index)
{
    tls_worker = {this, worker_index};
    for (;;) {
        if (TryRunOne(worker_index)) continue;
        std::unique_lock<std::mutex> lock(sleep_mutex_);
        sleep_cv_.wait(lock, [this] {
            return pending_.load() > 0 || stop_.load();
        });
        if (stop_.load() && pending_.load() == 0) return;
    }
}

void
ThreadPool::ParallelFor(std::int64_t n,
                        const std::function<void(std::int64_t)>& fn)
{
    if (n <= 0) return;

    // Dynamic self-scheduling over a shared index: the caller and up to
    // n_threads() enqueued striders all drain the same counter. The state
    // lives in a shared_ptr because striders that are still queued when
    // every iteration is done run (and return immediately) after this
    // frame has returned.
    struct State {
        std::atomic<std::int64_t> next{0};
        std::atomic<std::int64_t> done{0};
        std::atomic<bool> cancelled{false};
        std::mutex error_mutex;
        std::exception_ptr error;
        std::mutex done_mutex;
        std::condition_variable done_cv;
        std::int64_t n = 0;
        std::function<void(std::int64_t)> fn;
    };
    auto state = std::make_shared<State>();
    state->n = n;
    state->fn = fn;

    // Every claimed index increments done — after fn returns, throws, or
    // is skipped post-cancellation — so the caller's wait below cannot
    // finish while any fn invocation is still running. That makes it safe
    // for fn to capture caller-stack state (SweepRunner::Map's results)
    // and for the caller to rethrow the first error once done == n.
    const auto strider = [state] {
        for (;;) {
            const std::int64_t i = state->next.fetch_add(1);
            if (i >= state->n) return;
            if (!state->cancelled.load(std::memory_order_acquire)) {
                try {
                    state->fn(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(state->error_mutex);
                    if (!state->error) {
                        state->error = std::current_exception();
                    }
                    state->cancelled.store(true, std::memory_order_release);
                }
            }
            if (state->done.fetch_add(1) + 1 == state->n) {
                {
                    std::lock_guard<std::mutex> lock(state->done_mutex);
                }
                state->done_cv.notify_all();
            }
        }
    };

    const std::int64_t helpers =
        std::min<std::int64_t>(n - 1, n_threads());
    for (std::int64_t i = 0; i < helpers; ++i) {
        Enqueue(strider);
    }
    strider();

    // Instead of blocking outright (which deadlocks the pool when every
    // worker is itself inside a nested ParallelFor), keep executing queued
    // tasks; only when nothing is runnable anywhere — every remaining
    // iteration is in flight on another thread — park on the completion
    // condition variable (short timeout, so newly enqueued work still
    // gets helped) rather than burning a core in a yield spin.
    const int home = tls_worker.pool == this ? tls_worker.index : -1;
    while (state->done.load() < state->n) {
        if (TryRunOne(home)) continue;
        std::unique_lock<std::mutex> lock(state->done_mutex);
        state->done_cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
            return state->done.load() >= state->n;
        });
    }
    if (state->error) std::rethrow_exception(state->error);
}

}  // namespace flexnerfer
