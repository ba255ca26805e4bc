/**
 * @file
 * Google-benchmark micro-kernels: simulator hot paths (format codecs, the
 * fused MAC datapath, NoC delivery, Benes routing, grid queries, engine
 * runs). These track the simulator's own speed, not modelled hardware
 * latency.
 */
#include <benchmark/benchmark.h>

#include "common/matrix.h"
#include "common/rng.h"
#include "gemm/engine.h"
#include "mac/bit_scalable_mac.h"
#include "nerf/hash_encoding.h"
#include "noc/benes.h"
#include "noc/hmf_noc.h"
#include "runtime/sweep_runner.h"
#include "runtime/thread_pool.h"
#include "sparse/flex_codec.h"

namespace flexnerfer {
namespace {

void
BM_FlexCodecEncode(benchmark::State& state)
{
    Rng rng(1);
    const auto sparsity = static_cast<double>(state.range(0)) / 100.0;
    const MatrixI tile =
        MakeSparseMatrix(64, 64, sparsity, Precision::kInt16, rng);
    const FlexFormatCodec codec;
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.Encode(tile, Precision::kInt16));
    }
}
BENCHMARK(BM_FlexCodecEncode)->Arg(10)->Arg(50)->Arg(90);

void
BM_FlexCodecRoundTrip(benchmark::State& state)
{
    Rng rng(2);
    const MatrixI tile =
        MakeSparseMatrix(64, 64, 0.7, Precision::kInt8, rng);
    const FlexFormatCodec codec;
    for (auto _ : state) {
        const EncodedTile t = codec.Encode(tile, Precision::kInt8);
        benchmark::DoNotOptimize(codec.Decode(t));
    }
}
BENCHMARK(BM_FlexCodecRoundTrip);

void
BM_BitScalableMacInt16(benchmark::State& state)
{
    Rng rng(3);
    const auto a = static_cast<std::int32_t>(rng.UniformInt(-32768, 32767));
    const auto b = static_cast<std::int32_t>(rng.UniformInt(-32768, 32767));
    for (auto _ : state) {
        benchmark::DoNotOptimize(BitScalableMacUnit::MultiplyInt16(a, b));
    }
}
BENCHMARK(BM_BitScalableMacInt16);

void
BM_HmfNocBroadcast(benchmark::State& state)
{
    HmfNoc noc({64, true, 0.18, 0.12, 8.0});
    std::vector<int> all(64);
    for (int i = 0; i < 64; ++i) all[i] = i;
    std::int64_t elem = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(noc.Deliver(elem++ % 128, all));
    }
}
BENCHMARK(BM_HmfNocBroadcast);

void
BM_BenesRoute(benchmark::State& state)
{
    const int n = static_cast<int>(state.range(0));
    BenesNetwork net(n);
    Rng rng(4);
    std::vector<int> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = i;
    std::shuffle(perm.begin(), perm.end(), rng.engine());
    for (auto _ : state) {
        benchmark::DoNotOptimize(net.Route(perm));
    }
}
BENCHMARK(BM_BenesRoute)->Arg(16)->Arg(64)->Arg(256);

void
BM_HashGridQuery(benchmark::State& state)
{
    Rng rng(5);
    const HashGrid grid({8, 14, 4, 4, 1.6, -1.5, 1.5, 1e-2}, rng);
    double t = 0.0;
    for (auto _ : state) {
        t += 1e-3;
        benchmark::DoNotOptimize(
            grid.Query({std::fmod(t, 1.0), 0.3, -0.2}));
    }
}
BENCHMARK(BM_HashGridQuery);

void
BM_GemmEngineTiled(benchmark::State& state)
{
    Rng rng(6);
    const MatrixI a = MakeSparseMatrix(128, 128, 0.6, Precision::kInt16,
                                       rng);
    const MatrixI b = MakeSparseMatrix(128, 128, 0.6, Precision::kInt16,
                                       rng);
    GemmEngineConfig config;
    config.array_dim = 16;
    config.compute_output = false;
    const GemmEngine engine(config);
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.Run(a, b));
    }
}
BENCHMARK(BM_GemmEngineTiled);

void
BM_GemmEngineStatistical(benchmark::State& state)
{
    const GemmEngineConfig config = [] {
        GemmEngineConfig c;
        c.compute_output = false;
        return c;
    }();
    const GemmEngine engine(config);
    const GemmShape shape{4096, 256, 256, 0.5, 1.0, 0.5};
    for (auto _ : state) {
        benchmark::DoNotOptimize(engine.RunFromShape(shape));
    }
}
BENCHMARK(BM_GemmEngineStatistical);

void
BM_ThreadPoolParallelFor(benchmark::State& state)
{
    ThreadPool pool(static_cast<int>(state.range(0)));
    std::atomic<std::int64_t> sink{0};
    for (auto _ : state) {
        pool.ParallelFor(1024, [&sink](std::int64_t i) {
            sink.fetch_add(i, std::memory_order_relaxed);
        });
    }
    benchmark::DoNotOptimize(sink.load());
}
BENCHMARK(BM_ThreadPoolParallelFor)->Arg(1)->Arg(4)->Arg(8);

void
BM_SweepRunnerStatisticalGrid(benchmark::State& state)
{
    // The fig-19-style hot loop: a (precision x prune) grid of
    // expectation-based engine runs fanned across the pool.
    ThreadPool pool(static_cast<int>(state.range(0)));
    const SweepRunner runner(pool);
    std::vector<GemmShape> shapes;
    for (double prune : {0.0, 0.3, 0.5, 0.7, 0.9}) {
        for (double density : {0.3, 0.55, 0.8}) {
            shapes.push_back({4096, 256, 256, density, 1.0, prune});
        }
    }
    GemmEngineConfig config;
    config.compute_output = false;
    const GemmEngine engine(config);
    for (auto _ : state) {
        const auto latencies = runner.Map<double>(
            static_cast<std::int64_t>(shapes.size()),
            [&engine, &shapes](std::int64_t i) {
                return engine
                    .RunFromShape(shapes[static_cast<std::size_t>(i)])
                    .latency_ms;
            });
        benchmark::DoNotOptimize(latencies.data());
    }
}
BENCHMARK(BM_SweepRunnerStatisticalGrid)->Arg(1)->Arg(4)->Arg(8);

}  // namespace
}  // namespace flexnerfer
