/**
 * @file
 * Deterministic parallel sweep driver.
 *
 * A sweep is a grid of SweepPoints — workload x precision x sparsity x
 * dataflow x accelerator backend — each evaluated independently on the
 * cycle-level models. SweepRunner fans the grid across a ThreadPool —
 * one task per point, each running its frames serially — and returns
 * results in input order, so the output of a sweep is bit-identical
 * whatever the thread count: every point's computation is a pure
 * function of the point (the engines are stateless and every RNG is
 * point-local), and each result lands in its pre-assigned slot.
 *
 * Thread-safety: SweepRunner itself is immutable after construction and
 * may be shared across threads; Run/Map may be called concurrently.
 */
#ifndef FLEXNERFER_RUNTIME_SWEEP_RUNNER_H_
#define FLEXNERFER_RUNTIME_SWEEP_RUNNER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "accel/accelerator.h"
#include "common/types.h"
#include "gemm/engine.h"
#include "models/workload.h"
#include "runtime/thread_pool.h"

namespace flexnerfer {

class PlanCache;

/** Accelerator backends a sweep point can target. */
enum class Backend : std::uint8_t {
    kFlexNeRFer,
    kNeuRex,
    kGpu,       //!< RTX 2080 Ti roofline model
    kXavierNx,  //!< Jetson Xavier NX roofline model
};

std::string ToString(Backend backend);

/** One cell of a sweep grid. */
struct SweepPoint {
    Backend backend = Backend::kFlexNeRFer;
    /** Compute precision (FlexNeRFer only; baselines are fixed-width). */
    Precision precision = Precision::kInt16;
    /** Distribution-network dataflow (FlexNeRFer only). */
    NocStyle noc_style = NocStyle::kHmfTree;
    /** Model name from AllModelNames(); empty sweeps all seven models. */
    std::string model;
    /** Evaluation parameters (batch, scene complexity, pruning, ...). */
    WorkloadParams params;
    /** Free-form tag carried through to the outcome (table labels). */
    std::string label;
};

/** Result of evaluating one SweepPoint. */
struct SweepOutcome {
    SweepPoint point;
    /** Per-model frame costs: AllModelNames() order, or one entry when
     *  the point names a single model. */
    std::vector<FrameCost> per_model;

    /** Sum over per_model (single-model points: that model's cost). */
    FrameCost Total() const;
};

/** Instantiates the accelerator model a point targets. */
std::unique_ptr<Accelerator> MakeAccelerator(const SweepPoint& point);

/** Fans sweep grids across a thread pool with deterministic results. */
class SweepRunner
{
  public:
    /**
     * Uses @p pool for execution; the pool must outlive the runner.
     * With @p cache (shared, internally synchronized), points reuse
     * compiled plans and memoized engine runs across the grid — grids
     * that revisit a (config, workload) pair replay instead of
     * recomputing, with bit-identical outcomes.
     */
    explicit SweepRunner(ThreadPool& pool, PlanCache* cache = nullptr)
        : pool_(pool), cache_(cache)
    {}

    SweepRunner(const SweepRunner&) = delete;
    SweepRunner& operator=(const SweepRunner&) = delete;

    /** Evaluates every point; outcomes arrive in input order. */
    std::vector<SweepOutcome> Run(const std::vector<SweepPoint>& points) const;

    /**
     * Generic deterministic fan-out: computes fn(0..n-1) in parallel and
     * returns the results indexed by i. T must be default-constructible.
     */
    template <typename T>
    std::vector<T>
    Map(std::int64_t n, const std::function<T(std::int64_t)>& fn) const
    {
        static_assert(!std::is_same<T, bool>::value,
                      "Map<bool> would race on std::vector<bool>'s packed "
                      "bits; map to int or char instead");
        std::vector<T> results(static_cast<std::size_t>(n));
        pool_.ParallelFor(n, [&results, &fn](std::int64_t i) {
            results[static_cast<std::size_t>(i)] = fn(i);
        });
        return results;
    }

    ThreadPool& pool() const { return pool_; }

  private:
    /** Evaluates one point (pure: accelerator built per call). */
    SweepOutcome Evaluate(const SweepPoint& point) const;

    ThreadPool& pool_;
    PlanCache* cache_;
};

/**
 * Parses a "--threads N" or "--threads=N" argument (shared by the sweep
 * benches); returns @p default_threads when absent. N = 0 means hardware
 * concurrency; malformed or negative values exit with a usage error.
 */
int ThreadsFromArgs(int argc, char** argv, int default_threads = 0);

/**
 * Generic numeric flag parsers shared by the bench/example binaries:
 * accept "<name> V" and "<name>=V", return @p default_value when the
 * flag is absent, and exit with a usage error on malformed, negative,
 * or (for doubles) non-positive values.
 */
std::int64_t IntFromArgs(int argc, char** argv, const char* name,
                         std::int64_t default_value);
double DoubleFromArgs(int argc, char** argv, const char* name,
                      double default_value);

/**
 * String flag parser with the same "<name> V" / "<name>=V" shapes:
 * returns @p default_value (may be null or "") when the flag is absent.
 * Used by the observability flags (--trace-out, --metrics-out).
 */
const char* StringFromArgs(int argc, char** argv, const char* name,
                           const char* default_value);

/**
 * RAII wall-clock reporter shared by the sweep benches: at scope exit
 * prints "[sweep] <count> <noun> on <threads> threads: <ms> ms" to
 * stderr, keeping stdout (the metric tables) thread-count invariant.
 */
class SweepTimer
{
  public:
    SweepTimer(std::size_t count, const char* noun, int threads);
    ~SweepTimer();

    SweepTimer(const SweepTimer&) = delete;
    SweepTimer& operator=(const SweepTimer&) = delete;

  private:
    std::size_t count_;
    const char* noun_;
    int threads_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_RUNTIME_SWEEP_RUNNER_H_
