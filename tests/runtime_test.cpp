/**
 * @file
 * Unit tests for the host-side runtime: the work-stealing ThreadPool
 * and the deterministic SweepRunner.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "models/workload.h"
#include "runtime/sweep_runner.h"
#include "runtime/thread_pool.h"

namespace flexnerfer {
namespace {

TEST(ThreadPool, SubmitReturnsResults)
{
    ThreadPool pool(4);
    auto f1 = pool.Submit([] { return 41 + 1; });
    auto f2 = pool.Submit([] { return std::string("ok"); });
    EXPECT_EQ(f1.get(), 42);
    EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, StressManySmallTasks)
{
    ThreadPool pool(8);
    constexpr int kTasks = 20000;
    std::atomic<std::int64_t> sum{0};
    std::vector<std::future<void>> futures;
    futures.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
        futures.push_back(pool.Submit([&sum, i] { sum.fetch_add(i); }));
    }
    for (auto& f : futures) f.get();
    EXPECT_EQ(sum.load(),
              static_cast<std::int64_t>(kTasks) * (kTasks - 1) / 2);
    EXPECT_EQ(pool.executed(), kTasks);
}

TEST(ThreadPool, DestructorDrainsPendingTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 256; ++i) {
            pool.Enqueue([&ran] { ran.fetch_add(1); });
        }
    }
    EXPECT_EQ(ran.load(), 256);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    constexpr std::int64_t kN = 4096;
    std::vector<std::atomic<int>> hits(kN);
    pool.ParallelFor(kN, [&hits](std::int64_t i) {
        hits[static_cast<std::size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForNestsWithoutDeadlock)
{
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.ParallelFor(8, [&pool, &total](std::int64_t) {
        pool.ParallelFor(8, [&total](std::int64_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, WorkersStealFromLoadedQueues)
{
    // Force an imbalanced load: a producer task Submits a burst onto its
    // own worker's deque (worker-local submission policy), then blocks
    // waiting on the results. The producer's worker is parked in get(),
    // so every burst task can only run via steals by the other worker.
    ThreadPool pool(2);
    constexpr int kBurst = 32;
    std::atomic<int> ran{0};
    pool.Submit([&pool, &ran] {
          std::vector<std::future<void>> burst;
          burst.reserve(kBurst);
          for (int i = 0; i < kBurst; ++i) {
              burst.push_back(pool.Submit([&ran] { ran.fetch_add(1); }));
          }
          for (auto& f : burst) f.get();
      }).get();
    EXPECT_EQ(ran.load(), kBurst);
    EXPECT_GE(pool.steals(), kBurst);
}

TEST(ThreadPool, ParallelForPropagatesFirstException)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(
        pool.ParallelFor(256,
                         [&ran](std::int64_t i) {
                             if (i == 3) throw std::runtime_error("boom");
                             ran.fetch_add(1);
                         }),
        std::runtime_error);
    // Iterations claimed after the throw are skipped (cancellation).
    EXPECT_LT(ran.load(), 256);
}

TEST(ThreadPool, OverlapsIndependentTasks)
{
    // Latency-bound tasks overlap even on a single hardware core, so this
    // check demonstrates genuine concurrency wherever CI runs. Four 100 ms
    // sleeps on 4 threads must take far less than the 400 ms serial time.
    ThreadPool pool(4);
    const auto start = std::chrono::steady_clock::now();
    pool.ParallelFor(4, [](std::int64_t) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
    });
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_LT(wall_ms, 350.0);
}

/** A small but non-trivial sweep grid shared by the determinism tests. */
std::vector<SweepPoint>
TestGrid()
{
    std::vector<SweepPoint> points;
    for (Backend backend : {Backend::kGpu, Backend::kNeuRex,
                            Backend::kFlexNeRFer}) {
        for (double prune : {0.0, 0.5}) {
            SweepPoint p;
            p.backend = backend;
            p.model = "Instant-NGP";
            p.params.weight_prune_ratio = prune;
            points.push_back(p);
        }
    }
    for (Precision precision : kAllPrecisions) {
        SweepPoint p;
        p.precision = precision;
        p.model = "NeRF";
        points.push_back(p);
    }
    SweepPoint all_models;
    all_models.params.scene_complexity = 1.08;
    points.push_back(all_models);
    return points;
}

/** Exact (bitwise) FrameCost comparison — determinism means identical. */
void
ExpectSameCosts(const std::vector<SweepOutcome>& a,
                const std::vector<SweepOutcome>& b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].per_model.size(), b[i].per_model.size());
        for (std::size_t m = 0; m < a[i].per_model.size(); ++m) {
            const FrameCost& x = a[i].per_model[m];
            const FrameCost& y = b[i].per_model[m];
            EXPECT_EQ(x.latency_ms, y.latency_ms);
            EXPECT_EQ(x.energy_mj, y.energy_mj);
            EXPECT_EQ(x.gemm_ms, y.gemm_ms);
            EXPECT_EQ(x.encoding_ms, y.encoding_ms);
            EXPECT_EQ(x.other_ms, y.other_ms);
            EXPECT_EQ(x.codec_ms, y.codec_ms);
            EXPECT_EQ(x.dram_ms, y.dram_ms);
            EXPECT_EQ(x.gemm_utilization, y.gemm_utilization);
        }
    }
}

TEST(SweepRunner, ResultsIndependentOfThreadCount)
{
    const std::vector<SweepPoint> grid = TestGrid();

    ThreadPool pool1(1);
    ThreadPool pool8(8);
    const SweepRunner serial(pool1);
    const SweepRunner parallel(pool8);

    const auto serial_outcomes = serial.Run(grid);
    const auto parallel_outcomes = parallel.Run(grid);
    ExpectSameCosts(serial_outcomes, parallel_outcomes);
    // And independent of scheduling noise: repeat runs are identical too.
    ExpectSameCosts(parallel.Run(grid), parallel_outcomes);
}

TEST(SweepRunner, OutcomesKeepInputOrderAndLabels)
{
    ThreadPool pool(4);
    const SweepRunner runner(pool);
    std::vector<SweepPoint> points;
    for (int i = 0; i < 16; ++i) {
        SweepPoint p;
        p.model = "Instant-NGP";
        p.label = "point-" + std::to_string(i);
        points.push_back(p);
    }
    const auto outcomes = runner.Run(points);
    ASSERT_EQ(outcomes.size(), points.size());
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(outcomes[static_cast<std::size_t>(i)].point.label,
                  "point-" + std::to_string(i));
    }
}

TEST(SweepRunner, MapComputesInIndexOrder)
{
    ThreadPool pool(4);
    const SweepRunner runner(pool);
    const auto squares = runner.Map<std::int64_t>(
        100, [](std::int64_t i) { return i * i; });
    for (std::int64_t i = 0; i < 100; ++i) {
        EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
    }
}

TEST(SweepRunner, AllModelsPointMatchesRunAllModels)
{
    ThreadPool pool(4);
    const SweepRunner runner(pool);
    SweepPoint p;
    p.backend = Backend::kFlexNeRFer;
    const auto outcomes = runner.Run({p});
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].per_model.size(), AllModelNames().size());
    EXPECT_GT(outcomes[0].Total().latency_ms, 0.0);
}

TEST(MakeAccelerator, HonorsBackendAndPrecision)
{
    SweepPoint p;
    p.backend = Backend::kFlexNeRFer;
    p.precision = Precision::kInt4;
    EXPECT_EQ(MakeAccelerator(p)->name(), "FlexNeRFer (INT4)");
    p.backend = Backend::kGpu;
    EXPECT_EQ(MakeAccelerator(p)->name(), "RTX 2080 Ti");
    p.backend = Backend::kNeuRex;
    EXPECT_EQ(MakeAccelerator(p)->name(), "NeuRex");
}

}  // namespace
}  // namespace flexnerfer
