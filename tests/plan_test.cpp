/**
 * @file
 * Unit tests for the plan layer: FramePlan structure and determinism,
 * GemmMemo, PlanCache (including concurrent hit/miss stress, joins of
 * an in-flight frame, and fingerprint-collision freedom), and the
 * MAC-weighted FrameCost sum.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "accel/flexnerfer.h"
#include "accel/gpu_model.h"
#include "accel/neurex.h"
#include "common/intern.h"
#include "models/trajectory.h"
#include "models/workload.h"
#include "obs/trace.h"
#include "plan/frame_plan.h"
#include "plan/frame_planner.h"
#include "plan/gemm_memo.h"
#include "plan/plan_cache.h"
#include "runtime/sweep_runner.h"
#include "runtime/thread_pool.h"
#include "frame_cost_matchers.h"

namespace flexnerfer {
namespace {

TEST(FrameCost, SumCombinesUtilizationMacWeighted)
{
    FrameCost a;
    a.gemm_utilization = 0.8;
    a.gemm_macs = 3e9;
    FrameCost b;
    b.gemm_utilization = 0.2;
    b.gemm_macs = 1e9;
    a += b;
    EXPECT_DOUBLE_EQ(a.gemm_utilization, (0.8 * 3e9 + 0.2 * 1e9) / 4e9);
    EXPECT_DOUBLE_EQ(a.gemm_macs, 4e9);
    // Adding a cost with no GEMM work (e.g. a GPU frame) keeps the
    // average instead of dropping or diluting it.
    a += FrameCost{};
    EXPECT_DOUBLE_EQ(a.gemm_utilization, 0.65);
}

TEST(FramePlan, ResolvesEveryOpAtCompileTime)
{
    const FlexNeRFerModel model;
    const NerfWorkload w = BuildWorkload("Instant-NGP");
    const FramePlan plan = FramePlanner::Compile(model, w);

    ASSERT_EQ(plan.ops().size(), w.ops.size());
    EXPECT_EQ(plan.workload_name(), "Instant-NGP");
    EXPECT_GT(plan.engine_op_count(), 0u);
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
        const PlannedOp& op = plan.ops()[i];
        EXPECT_EQ(op.kind, w.ops[i].kind);
        EXPECT_EQ(op.name, w.ops[i].name);
        if (op.kind == OpKind::kGemm) {
            EXPECT_TRUE(op.uses_engine);
            // Decisions are resolved, not deferred: the engine config
            // carries the model's precision/dataflow.
            EXPECT_EQ(op.engine_config.precision,
                      model.config().precision);
            EXPECT_EQ(op.engine_config.noc_style,
                      model.config().noc_style);
        } else {
            EXPECT_FALSE(op.uses_engine);
            EXPECT_EQ(op.fixed.cost.latency_ms, op.fixed.cost.gemm_ms +
                                                    op.fixed.cost.encoding_ms +
                                                    op.fixed.cost.other_ms);
        }
    }
}

TEST(FramePlan, ExecuteDeterministicRunAfterRun)
{
    // Executions of one plan are bit-identical, run after run.
    const FlexNeRFerModel model;
    const FramePlan plan =
        FramePlanner::Compile(model, BuildWorkload("NeRF"));
    const FrameCost reference = plan.Execute();
    ExpectBitIdentical(plan.Execute(), reference);
    ExpectBitIdentical(plan.Execute(), reference);
}

TEST(GemmMemo, HitsReplayIdenticalResults)
{
    GemmMemo memo;
    GemmEngineConfig config;
    config.compute_output = false;
    const GemmEngine engine(config);
    const GemmShape shape{4096, 256, 256, 0.55, 1.0, 0.0};

    const GemmResult cold = memo.RunFromShape(engine, shape);
    const GemmResult warm = memo.RunFromShape(engine, shape);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 1u);
    EXPECT_EQ(cold.latency_ms, warm.latency_ms);
    EXPECT_EQ(cold.cycles, warm.cycles);
    EXPECT_EQ(cold.energy.TotalPj(), warm.energy.TotalPj());
    EXPECT_EQ(cold.useful_macs, warm.useful_macs);
}

TEST(GemmMemo, KeySeparatesEveryConfigAndShapeField)
{
    // The stack key must be injective: a pair differing in any single
    // field of the engine config (nested NoC/mesh configs included) or
    // of the shape runs twice, never replays the other's result. Doubles
    // compare by bit pattern, so +0.0 and -0.0 are different keys.
    GemmEngineConfig base_config;
    base_config.compute_output = false;
    const GemmShape base_shape{4096, 256, 256, 0.55, 1.0, 0.0};

    using Flip = void (*)(GemmEngineConfig*, GemmShape*);
    const std::vector<std::pair<std::string, Flip>> flips = {
        {"precision",
         [](GemmEngineConfig* c, GemmShape*) {
             c->precision = Precision::kInt8;
         }},
        {"array_dim",
         [](GemmEngineConfig* c, GemmShape*) { c->array_dim = 32; }},
        {"clock_ghz",
         [](GemmEngineConfig* c, GemmShape*) { c->clock_ghz = 1.0; }},
        {"support_sparsity",
         [](GemmEngineConfig* c, GemmShape*) {
             c->support_sparsity = false;
         }},
        {"use_flex_codec",
         [](GemmEngineConfig* c, GemmShape*) { c->use_flex_codec = false; }},
        {"use_clb",
         [](GemmEngineConfig* c, GemmShape*) { c->use_clb = false; }},
        {"detailed",
         [](GemmEngineConfig* c, GemmShape*) { c->detailed = true; }},
        {"compute_output",
         [](GemmEngineConfig* c, GemmShape*) { c->compute_output = true; }},
        {"noc_style",
         [](GemmEngineConfig* c, GemmShape*) {
             c->noc_style = NocStyle::kBenes;
         }},
        {"fetch_bytes_per_cycle",
         [](GemmEngineConfig* c, GemmShape*) {
             c->fetch_bytes_per_cycle = 512.0;
         }},
        {"codec_bytes_per_cycle",
         [](GemmEngineConfig* c, GemmShape*) {
             c->codec_bytes_per_cycle = 512.0;
         }},
        {"stream_a_from_dram",
         [](GemmEngineConfig* c, GemmShape*) {
             c->stream_a_from_dram = false;
         }},
        {"write_c_to_dram",
         [](GemmEngineConfig* c, GemmShape*) { c->write_c_to_dram = false; }},
        {"dram_bandwidth_gb_s",
         [](GemmEngineConfig* c, GemmShape*) {
             c->dram_bandwidth_gb_s = 25.6;
         }},
        {"dram_energy_pj_per_byte",
         [](GemmEngineConfig* c, GemmShape*) {
             c->dram_energy_pj_per_byte = 20.0;
         }},
        {"sram_read_energy_pj_per_byte",
         [](GemmEngineConfig* c, GemmShape*) {
             c->sram_read_energy_pj_per_byte = 1.0;
         }},
        {"codec_energy_pj_per_byte",
         [](GemmEngineConfig* c, GemmShape*) {
             c->codec_energy_pj_per_byte = 0.2;
         }},
        {"noc.leaves",
         [](GemmEngineConfig* c, GemmShape*) { c->noc.leaves = 32; }},
        {"noc.feedback",
         [](GemmEngineConfig* c, GemmShape*) { c->noc.feedback = false; }},
        {"noc.hop_energy_pj",
         [](GemmEngineConfig* c, GemmShape*) { c->noc.hop_energy_pj = 0.2; }},
        {"noc.hop_energy_2x2_pj",
         [](GemmEngineConfig* c, GemmShape*) {
             c->noc.hop_energy_2x2_pj = 0.2;
         }},
        {"noc.buffer_read_energy_pj",
         [](GemmEngineConfig* c, GemmShape*) {
             c->noc.buffer_read_energy_pj = 4.0;
         }},
        {"mesh.nodes",
         [](GemmEngineConfig* c, GemmShape*) { c->mesh.nodes = 32; }},
        {"mesh.hop_energy_pj",
         [](GemmEngineConfig* c, GemmShape*) {
             c->mesh.hop_energy_pj = 0.1;
         }},
        {"mesh.buffer_read_energy_pj",
         [](GemmEngineConfig* c, GemmShape*) {
             c->mesh.buffer_read_energy_pj = 4.0;
         }},
        {"shape.m", [](GemmEngineConfig*, GemmShape* s) { s->m = 2048; }},
        {"shape.k", [](GemmEngineConfig*, GemmShape* s) { s->k = 128; }},
        {"shape.n", [](GemmEngineConfig*, GemmShape* s) { s->n = 128; }},
        {"shape.density_a",
         [](GemmEngineConfig*, GemmShape* s) { s->density_a = 0.5; }},
        {"shape.density_b",
         [](GemmEngineConfig*, GemmShape* s) { s->density_b = 0.5; }},
        {"shape.structured_prune_b",
         [](GemmEngineConfig*, GemmShape* s) {
             s->structured_prune_b = 0.5;
         }},
        {"shape.structured_prune_b +0.0 -> -0.0",
         [](GemmEngineConfig*, GemmShape* s) {
             s->structured_prune_b = -0.0;
         }},
    };
    for (const auto& [field, flip] : flips) {
        GemmEngineConfig config = base_config;
        GemmShape shape = base_shape;
        flip(&config, &shape);
        GemmMemo memo;
        memo.RunFromShape(GemmEngine(base_config), base_shape);
        memo.RunFromShape(GemmEngine(config), shape);
        EXPECT_EQ(memo.misses(), 2u) << field;
        EXPECT_EQ(memo.hits(), 0u) << field;
        EXPECT_EQ(memo.size(), 2u) << field;
        // Plans merge equal runs by the same packing.
        EXPECT_FALSE(
            GemmMemo::SameRun(base_config, base_shape, config, shape))
            << field;
    }

    // An equal pair built independently (not the same objects) hits.
    GemmMemo memo;
    GemmEngineConfig equal_config;
    equal_config.compute_output = false;
    const GemmShape equal_shape{4096, 256, 256, 0.55, 1.0, 0.0};
    memo.RunFromShape(GemmEngine(base_config), base_shape);
    memo.RunFromShape(GemmEngine(equal_config), equal_shape);
    EXPECT_EQ(memo.misses(), 1u);
    EXPECT_EQ(memo.hits(), 1u);
    EXPECT_TRUE(GemmMemo::SameRun(base_config, base_shape, equal_config,
                                  equal_shape));
}

TEST(PlanCache, WorkloadsDifferingInOneOpDensityNeverSharePlans)
{
    // The fingerprint is an injective encoding, so two workloads that
    // differ only in a single op's density cannot collide into one
    // cache entry (a hash could; a fingerprint cannot).
    NerfWorkload a = BuildWorkload("NeRF");
    NerfWorkload b = a;
    for (WorkloadOp& op : b.ops) {
        if (op.kind == OpKind::kGemm && op.gemm.density_a < 1.0) {
            op.gemm.density_a *= 0.999;
            break;
        }
    }
    EXPECT_NE(WorkloadFingerprint(a), WorkloadFingerprint(b));

    const FlexNeRFerModel model;
    PlanCache cache;
    const auto plan_a = cache.Get(model, a);
    const auto plan_b = cache.Get(model, b);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_NE(plan_a.get(), plan_b.get());
    EXPECT_EQ(cache.stats().plan_misses, 2u);
    EXPECT_EQ(cache.stats().plan_hits, 0u);

    // A coarser density change shows the field is load-bearing (the
    // 0.999 nudge above sits below the wave-quantization granularity,
    // which is exactly why sharing plans across it would be wrong to
    // rely on and must come from the fingerprint, not the cost).
    NerfWorkload c = a;
    for (WorkloadOp& op : c.ops) {
        if (op.kind == OpKind::kGemm && op.gemm.density_a < 1.0) {
            op.gemm.density_a *= 0.5;
            break;
        }
    }
    const auto plan_c = cache.Get(model, c);
    EXPECT_NE(plan_a->Execute().latency_ms, plan_c->Execute().latency_ms);

    // Same workload, different model config: also distinct entries.
    FlexNeRFerModel::Config int4;
    int4.precision = Precision::kInt4;
    cache.Get(FlexNeRFerModel(int4), a);
    EXPECT_EQ(cache.size(), 4u);
}

/** FNV-1a (64-bit) of @p bytes: a compact pin of a whole fingerprint. */
std::uint64_t
Fnv1a(const std::string& bytes)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (const unsigned char byte : bytes) {
        hash ^= byte;
        hash *= 1099511628211ull;
    }
    return hash;
}

TEST(PlanCache, WorkloadFingerprintsAndOpNamesArePinned)
{
    // Fingerprints are plan-cache keys, and op names reach both the keys
    // and the traced op spans. A typo in a name table or a drift in the
    // fingerprint encoding would silently move every key, so the digest
    // of each key, and each model's op-name list, are pinned.
    const std::pair<const char*, std::uint64_t> kModelDigests[] = {
        {"NeRF", 0x5a78a440436180f5ull},
        {"KiloNeRF", 0x333beb8376b6fc4bull},
        {"NSVF", 0x78d3e8d52c529d57ull},
        {"Mip-NeRF", 0x14d1bcd82ab88272ull},
        {"Instant-NGP", 0xd0018b21afcb33aeull},
        {"IBRNet", 0xe4f5dae1e60062dbull},
        {"TensoRF", 0xfd201f28540e4644ull},
    };
    ASSERT_EQ(AllModelNames().size(), std::size(kModelDigests));
    for (const auto& [model, digest] : kModelDigests) {
        EXPECT_EQ(Fnv1a(WorkloadFingerprint(BuildWorkload(model))), digest)
            << model;
    }
    const NerfWorkload nerf = BuildWorkload("NeRF");
    EXPECT_EQ(Fnv1a(WorkloadFingerprint(FuseBatch(nerf, 3))),
              0x016598251b6a5cb7ull);
    EXPECT_EQ(Fnv1a(WorkloadFingerprint(DeltaWorkload(nerf, 5, 8))),
              0x7a832cd5b98cd793ull);

    const std::pair<const char*, std::vector<std::string_view>> kOpNames[] =
        {
            {"NeRF",
             {"posenc_xyz_dir", "mlp_fc0", "mlp_fc1", "mlp_fc2", "mlp_fc3",
              "mlp_fc4", "mlp_fc5", "mlp_fc6", "mlp_fc7", "mlp_head",
              "rgb_branch_fc0", "rgb_branch_head", "volume_rendering",
              "ray_marching"}},
            {"KiloNeRF",
             {"posenc", "tiny_mlp_fc0", "tiny_mlp_fc1", "tiny_mlp_head",
              "volume_rendering", "grid_routing"}},
            {"NSVF",
             {"voxel_embedding", "posenc", "mlp_fc0", "mlp_fc1", "mlp_fc2",
              "mlp_head", "voxel_traversal"}},
            {"Mip-NeRF",
             {"integrated_posenc", "mlp_fc0", "mlp_fc1", "mlp_fc2",
              "mlp_fc3", "mlp_fc4", "mlp_fc5", "mlp_fc6", "mlp_fc7",
              "mlp_head", "rgb_branch_fc0", "rgb_branch_head",
              "volume_rendering"}},
            {"Instant-NGP",
             {"hash_encoding", "density_mlp_fc0", "density_mlp_head",
              "color_mlp_fc0", "color_mlp_fc1", "color_mlp_head",
              "volume_rendering", "occupancy_marching"}},
            {"IBRNet",
             {"cnn_conv0", "cnn_conv1", "cnn_conv2", "cnn_conv3",
              "ray_transformer_qkv_fc0", "ray_transformer_qkv_fc1",
              "ray_transformer_qkv_head", "aggregation_fc0",
              "aggregation_head", "attention_softmax", "volume_rendering"}},
            {"TensoRF",
             {"tensor_interp", "posenc_app", "decode_mlp_fc0",
              "decode_mlp_head", "tensor_products", "volume_rendering"}},
        };
    for (const auto& [model, names] : kOpNames) {
        std::vector<std::string_view> built;
        for (const WorkloadOp& op : BuildWorkload(model).ops) {
            built.push_back(op.name);
        }
        EXPECT_EQ(built, names) << model;
    }
}

TEST(PlanCache, RepeatedGetsHitAndShareOnePlan)
{
    const NeuRexModel model;
    const NerfWorkload w = BuildWorkload("TensoRF");
    PlanCache cache;
    const auto first = cache.Get(model, w);
    const auto second = cache.Get(model, w);
    EXPECT_EQ(first.get(), second.get());
    EXPECT_EQ(cache.stats().plan_hits, 1u);
    EXPECT_EQ(cache.stats().plan_misses, 1u);

    // A second instance with an identical config keys to the same plan:
    // the cache is keyed by configuration, not object identity.
    const NeuRexModel clone;
    EXPECT_EQ(cache.Get(clone, w).get(), first.get());
}

TEST(PlanCache, RunReplaysBitIdenticalFrames)
{
    const FlexNeRFerModel model;
    const NerfWorkload w = BuildWorkload("Mip-NeRF");
    const FrameCost reference = model.RunWorkload(w);

    PlanCache cache;
    ExpectBitIdentical(cache.Run(model, w), reference);
    ExpectBitIdentical(cache.Run(model, w), reference);
    ExpectBitIdentical(cache.Run(model, w), reference);
    EXPECT_EQ(cache.stats().plan_misses, 1u);
    EXPECT_EQ(cache.stats().frame_hits, 2u);
}

TEST(PlanCache, PreparedFramesReplayBitIdentically)
{
    const FlexNeRFerModel model;
    const NeuRexModel neurex;
    const NerfWorkload w = BuildWorkload("KiloNeRF");
    PlanCache cache;

    const PlanCache::PreparedFrame flex_frame = cache.Prepare(model, w);
    const PlanCache::PreparedFrame neurex_frame = cache.Prepare(neurex, w);
    // Preparing again returns a new handle to the same shared entry.
    const PlanCache::PreparedFrame again = cache.Prepare(model, w);
    EXPECT_EQ(cache.size(), 2u);

    ExpectBitIdentical(cache.Run(flex_frame), model.RunWorkload(w));
    ExpectBitIdentical(cache.Run(flex_frame), model.RunWorkload(w));
    ExpectBitIdentical(cache.Run(again), model.RunWorkload(w));
    ExpectBitIdentical(cache.Run(neurex_frame), neurex.RunWorkload(w));
    // Keyed and prepared paths share one result memo.
    ExpectBitIdentical(cache.Run(model, w), model.RunWorkload(w));
    EXPECT_EQ(cache.stats().frame_hits, 3u);
}

TEST(PlanCache, ConcurrentRunsJoinAnInFlightColdFrame)
{
    // Two threads replay one cold prepared frame at the same moment:
    // one executes it, the other joins that in-flight run (a
    // "frame_join") and waits for its result instead of executing the
    // plan a second time.
    //
    // The join is a race the late thread must win before the run ends.
    // A real frame runs in ~0.1 ms, which the late thread loses whenever
    // the two share one core. The frame here is 4096 GEMMs of distinct
    // shapes: its cold run takes milliseconds, so even on one core the
    // scheduler hands the late thread the CPU mid-run. Fresh caches are
    // retried until the join is seen.
    NerfWorkload w;
    w.name = "wide";
    for (int i = 0; i < 4096; ++i) {
        WorkloadOp op;
        op.name = InternName("gemm" + std::to_string(i));
        op.gemm = GemmShape{16 * (i + 1), 128, 64, 0.5, 1.0, 0.0};
        w.ops.push_back(op);
    }
    const FlexNeRFerModel model;
    const FrameCost reference = model.RunWorkload(w);

    bool joined = false;
    for (int attempt = 0; attempt < 100 && !joined; ++attempt) {
        TraceRecorder recorder;
        TraceRecorder::InstallGlobal(&recorder);
        const TraceContext ctx{recorder.BeginTrace("join"), 0};
        PlanCache cache;
        const PlanCache::PreparedFrame frame = cache.Prepare(model, w);
        std::atomic<int> arrived{0};
        FrameCost costs[2];
        const auto replay = [&](FrameCost* out) {
            const ScopedTraceContext scope(ctx, 0.0);
            arrived.fetch_add(1);
            while (arrived.load() < 2) std::this_thread::yield();
            *out = cache.Run(frame);
        };
        std::thread first(replay, &costs[0]);
        std::thread second(replay, &costs[1]);
        first.join();
        second.join();
        ExpectBitIdentical(costs[0], reference);
        ExpectBitIdentical(costs[1], reference);
        // The executor counts no hit; the joiner replays the published
        // result as one.
        EXPECT_EQ(cache.stats().plan_misses, 1u);
        EXPECT_EQ(cache.stats().frame_hits, 1u);
        TraceRecorder::InstallGlobal(nullptr);
        for (const TraceEvent& event : recorder.SortedEvents()) {
            joined = joined || event.name == "frame_join";
        }
    }
    EXPECT_TRUE(joined);
}

TEST(PlanCache, ConcurrentHitMissStress)
{
    // Hammer one cache from many pool workers with a mix of workloads,
    // models, and configs: every result must match the serial reference,
    // and the bookkeeping must balance (one outcome counted per call).
    ThreadPool pool(8);
    PlanCache cache;

    const FlexNeRFerModel flex16;
    FlexNeRFerModel::Config c4;
    c4.precision = Precision::kInt4;
    const FlexNeRFerModel flex4(c4);
    const NeuRexModel neurex;
    const GpuModel gpu;
    const std::vector<const Accelerator*> accels = {&flex16, &flex4,
                                                    &neurex, &gpu};

    std::vector<NerfWorkload> workloads;
    for (const std::string& name : AllModelNames()) {
        workloads.push_back(BuildWorkload(name));
    }

    std::vector<std::vector<FrameCost>> references(accels.size());
    for (std::size_t a = 0; a < accels.size(); ++a) {
        for (const NerfWorkload& w : workloads) {
            references[a].push_back(accels[a]->RunWorkload(w));
        }
    }

    constexpr int kRounds = 6;
    const auto n = static_cast<std::int64_t>(
        kRounds * accels.size() * workloads.size());
    std::atomic<int> mismatches{0};
    pool.ParallelFor(n, [&](std::int64_t i) {
        const auto a = static_cast<std::size_t>(i) % accels.size();
        const auto w =
            (static_cast<std::size_t>(i) / accels.size()) % workloads.size();
        const FrameCost got = cache.Run(*accels[a], workloads[w]);
        const FrameCost& want = references[a][w];
        if (got.latency_ms != want.latency_ms ||
            got.energy_mj != want.energy_mj ||
            got.gemm_utilization != want.gemm_utilization) {
            mismatches.fetch_add(1);
        }
    });
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(cache.size(), accels.size() * workloads.size());
    const PlanCache::Stats stats = cache.stats();
    // Every keyed Run does exactly one plan lookup; racing misses may
    // compile a duplicate plan, but only successful inserts count as
    // misses, so misses equal the entry count exactly.
    EXPECT_EQ(stats.plan_hits + stats.plan_misses,
              static_cast<std::uint64_t>(n));
    EXPECT_EQ(stats.plan_misses, accels.size() * workloads.size());
    EXPECT_GT(stats.frame_hits, 0u);
    EXPECT_LE(stats.frame_hits, static_cast<std::uint64_t>(n));
}

TEST(PlanCache, BoundedCacheEvictsLruAndRecompilesByteIdentically)
{
    const FlexNeRFerModel model;
    const NerfWorkload w1 = BuildWorkload("NeRF");
    const NerfWorkload w2 = BuildWorkload("KiloNeRF");
    const NerfWorkload w3 = BuildWorkload("TensoRF");

    PlanCache cache(2);
    EXPECT_EQ(cache.capacity(), 2u);
    const FrameCost first = cache.Run(model, w1);
    cache.Run(model, w2);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 0u);

    // A third distinct frame evicts the least-recently-used entry (w1).
    cache.Run(model, w3);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // The evicted pair recompiles on its next keyed lookup — counted as
    // a miss — into a byte-identical plan and frame result: compilation
    // is a pure function of the key, so eviction can never change what
    // a request observes, only what it costs.
    const std::uint64_t misses_before = cache.stats().plan_misses;
    ExpectBitIdentical(cache.Run(model, w1), first);
    EXPECT_EQ(cache.stats().plan_misses, misses_before + 1);
    EXPECT_EQ(cache.stats().evictions, 2u);  // w1's return evicted w2
}

TEST(PlanCache, KeyedHitsRefreshRecency)
{
    const FlexNeRFerModel model;
    const NerfWorkload w1 = BuildWorkload("NeRF");
    const NerfWorkload w2 = BuildWorkload("KiloNeRF");
    const NerfWorkload w3 = BuildWorkload("TensoRF");

    PlanCache cache(2);
    const auto plan1 = cache.Get(model, w1);
    cache.Get(model, w2);
    // Touching w1 makes w2 the LRU entry, so inserting w3 evicts w2.
    cache.Get(model, w1);
    cache.Get(model, w3);
    EXPECT_EQ(cache.stats().evictions, 1u);
    const std::uint64_t hits_before = cache.stats().plan_hits;
    EXPECT_EQ(cache.Get(model, w1).get(), plan1.get());  // still cached
    EXPECT_EQ(cache.stats().plan_hits, hits_before + 1);
}

TEST(PlanCache, PreparedFramesPinEntriesAcrossEviction)
{
    const FlexNeRFerModel model;
    const NerfWorkload w1 = BuildWorkload("NeRF");
    const NerfWorkload w2 = BuildWorkload("KiloNeRF");

    PlanCache cache(1);
    const PlanCache::PreparedFrame frame = cache.Prepare(model, w1);
    const FrameCost reference = cache.Run(frame);

    // Inserting w2 evicts w1 from the key table...
    cache.Run(model, w2);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.stats().evictions, 1u);

    // ...but the pinned handle still replays from the memoized result
    // (a frame hit, not a recompile), exactly as before eviction.
    const std::uint64_t frame_hits_before = cache.stats().frame_hits;
    const std::uint64_t misses_before = cache.stats().plan_misses;
    ExpectBitIdentical(cache.Run(frame), reference);
    EXPECT_EQ(cache.stats().frame_hits, frame_hits_before + 1);
    EXPECT_EQ(cache.stats().plan_misses, misses_before);
}

TEST(PlanCache, UnboundedByDefaultNeverEvicts)
{
    const FlexNeRFerModel model;
    PlanCache cache;
    EXPECT_EQ(cache.capacity(), 0u);
    for (const std::string& name : AllModelNames()) {
        cache.Get(model, BuildWorkload(name));
    }
    EXPECT_EQ(cache.size(), AllModelNames().size());
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(PlanCache, ServesSweepRunner)
{
    // A cached sweep revisiting the same point shares one cache entry
    // and replays identically to the uncached sweep.
    ThreadPool pool(4);
    PlanCache cache;
    const FlexNeRFerModel model;
    const NerfWorkload w = BuildWorkload("Instant-NGP");
    const FrameCost reference = model.RunWorkload(w);

    SweepPoint p;
    p.model = "Instant-NGP";
    const SweepRunner cached(pool, &cache);
    const SweepRunner uncached(pool);
    const auto c = cached.Run({p, p});
    const auto u = uncached.Run({p});
    ASSERT_EQ(c.size(), 2u);
    ExpectBitIdentical(c[0].per_model[0], u[0].per_model[0]);
    ExpectBitIdentical(c[1].per_model[0], u[0].per_model[0]);
    ExpectBitIdentical(c[0].per_model[0], reference);
    EXPECT_EQ(cache.stats().plan_misses, 1u);
}

}  // namespace
}  // namespace flexnerfer
