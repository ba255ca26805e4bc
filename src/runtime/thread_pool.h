/**
 * @file
 * Work-stealing thread pool for host-side parallelism.
 *
 * The simulator's experiment drivers (sweeps, ablations) issue many
 * independent frame evaluations; this pool fans them across hardware
 * threads (see runtime/sweep_runner.h). A single frame runs on one
 * thread: its ops are too cheap to hand off. Each worker owns a deque:
 * it pushes and pops its own work LIFO (cache-warm) and steals FIFO
 * from victims when idle, so coarse parent tasks migrate while fine
 * child tasks stay local.
 *
 * Thread-safety: all public member functions may be called concurrently
 * from any thread, including from inside pool tasks. Determinism is the
 * caller's contract — tasks run in an unspecified order, so callers that
 * need reproducible output must write results into pre-assigned slots
 * (see SweepRunner::Map) rather than depend on completion order.
 */
#ifndef FLEXNERFER_RUNTIME_THREAD_POOL_H_
#define FLEXNERFER_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace flexnerfer {

/** Work-stealing pool of host worker threads. */
class ThreadPool
{
  public:
    /** Starts @p n_threads workers; 0 means the hardware concurrency. */
    explicit ThreadPool(int n_threads = 0);

    /** Drops nothing: pending tasks are completed before destruction. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Enqueues a task; the returned future observes its result. */
    template <typename F>
    auto
    Submit(F&& fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        Enqueue([task] { (*task)(); });
        return future;
    }

    /**
     * Fire-and-forget submission, for callers that track completion
     * themselves (ParallelFor's striders). The task must not throw: an
     * escaping exception would propagate out of a worker thread and
     * terminate the process. Submit wraps tasks in a packaged_task
     * (exceptions land in the future); ParallelFor has its own
     * catch-and-rethrow path.
     */
    void Enqueue(std::function<void()> task);

    /**
     * Runs fn(0..n-1), blocking until all iterations finish. The calling
     * thread helps execute pending work instead of idling, so ParallelFor
     * is safe to nest inside pool tasks without deadlocking the pool.
     * If fn throws, remaining iterations are skipped and the first
     * exception is rethrown on the calling thread once every in-flight
     * iteration has completed (fn may therefore safely capture caller
     * stack state).
     */
    void ParallelFor(std::int64_t n,
                     const std::function<void(std::int64_t)>& fn);

    int n_threads() const { return static_cast<int>(workers_.size()); }

    /** Tasks taken from a victim's deque rather than the local one. */
    std::int64_t steals() const { return steals_.load(); }

    /** Tasks taken for execution so far (for tests and diagnostics). */
    std::int64_t executed() const { return executed_.load(); }

  private:
    /** One worker's deque; local pops are LIFO, steals are FIFO. */
    struct WorkQueue {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void WorkerLoop(int worker_index);

    /** Pops local work, else steals; returns false when nothing is left. */
    bool TryRunOne(int home_index);

    std::vector<std::unique_ptr<WorkQueue>> queues_;
    std::vector<std::thread> workers_;

    std::mutex sleep_mutex_;
    std::condition_variable sleep_cv_;

    std::atomic<std::int64_t> pending_{0};
    std::atomic<std::int64_t> steals_{0};
    std::atomic<std::int64_t> executed_{0};
    std::atomic<std::uint64_t> next_queue_{0};
    std::atomic<bool> stop_{false};
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_RUNTIME_THREAD_POOL_H_
