/**
 * @file
 * Tests for the GEMM/GEMV engine: functional correctness of the detailed
 * (per-wave, NoC + datapath) and tiled paths against reference GEMM, cycle
 * model invariants, and consistency between the fidelity levels.
 */
#include <gtest/gtest.h>

#include <tuple>

#include "common/matrix.h"
#include "common/rng.h"
#include "gemm/engine.h"
#include "gemm/mapper.h"
#include "gemm/tiling.h"

namespace flexnerfer {
namespace {

GemmEngineConfig
SmallConfig(Precision p, bool detailed, bool sparsity = true)
{
    GemmEngineConfig config;
    config.precision = p;
    config.array_dim = 4;  // grid 4/8/16 depending on precision
    config.detailed = detailed;
    config.support_sparsity = sparsity;
    return config;
}

TEST(Tiling, TileCountCeil)
{
    EXPECT_EQ(TileCount(0, 4), 0);
    EXPECT_EQ(TileCount(1, 4), 1);
    EXPECT_EQ(TileCount(4, 4), 1);
    EXPECT_EQ(TileCount(5, 4), 2);
}

TEST(Tiling, ExtractTilePadsWithZeros)
{
    MatrixI m(3, 3, 7);
    const MatrixI t = ExtractTile(m, 2, 2, 4, 4);
    EXPECT_EQ(t.at(0, 0), 7);
    EXPECT_EQ(t.at(0, 1), 0);
    EXPECT_EQ(t.at(3, 3), 0);
}

TEST(Tiling, RowColumnNnz)
{
    MatrixI m(2, 3);
    m.at(0, 1) = 5;
    m.at(1, 1) = 2;
    m.at(1, 2) = -1;
    EXPECT_EQ(ColumnNnz(m), (std::vector<int>{0, 2, 1}));
    EXPECT_EQ(RowNnz(m), (std::vector<int>{1, 2}));
}

TEST(Mapper, DenseTileFillsOneWavePerKSlice)
{
    Rng rng(1);
    const MatrixI a = MakeSparseMatrix(4, 4, 0.0, Precision::kInt16, rng);
    const MatrixI b = MakeSparseMatrix(4, 4, 0.0, Precision::kInt16, rng);
    const DenseMapper mapper(4);
    const auto waves = mapper.MapTilePair(a, b, 0, 0, 0, 4, false);
    ASSERT_EQ(waves.size(), 4u);  // one wave per k slice
    for (const MappedWave& w : waves) {
        EXPECT_EQ(w.slots.size(), 16u);
        EXPECT_EQ(w.distinct_b, 4);  // one B row per k slice
    }
}

TEST(Mapper, SparseTilePacksDensely)
{
    Rng rng(2);
    const MatrixI a = MakeSparseMatrix(8, 8, 0.75, Precision::kInt16, rng);
    const MatrixI b = MakeSparseMatrix(8, 8, 0.75, Precision::kInt16, rng);
    const DenseMapper mapper(8);
    const auto waves = mapper.MapTilePair(a, b, 0, 0, 0, 8, true);

    std::size_t products = 0;
    for (const MappedWave& w : waves) {
        products += w.slots.size();
        for (const MappedOperand& s : w.slots) {
            EXPECT_NE(s.a, 0);
            EXPECT_NE(s.b, 0);
        }
    }
    // Every wave but the last must be completely full.
    for (std::size_t i = 0; i + 1 < waves.size(); ++i) {
        EXPECT_EQ(waves[i].slots.size(), 64u);
    }
    // Product count equals sum over k of nnzA(:,k) * nnzB(k,:).
    const auto a_cols = ColumnNnz(a);
    const auto b_rows = RowNnz(b);
    std::size_t expected = 0;
    for (int k = 0; k < 8; ++k) {
        expected += static_cast<std::size_t>(a_cols[k]) * b_rows[k];
    }
    EXPECT_EQ(products, expected);
}

TEST(Mapper, GroupDestinationsMatchSlots)
{
    Rng rng(3);
    const MatrixI a = MakeSparseMatrix(4, 4, 0.5, Precision::kInt16, rng);
    const MatrixI b = MakeSparseMatrix(4, 4, 0.5, Precision::kInt16, rng);
    const DenseMapper mapper(4);
    const auto waves = mapper.MapTilePair(a, b, 0, 0, 0, 4, true);
    for (const MappedWave& w : waves) {
        std::size_t group_dests = 0;
        for (const MulticastGroup& g : w.groups) group_dests += g.dests.size();
        EXPECT_EQ(group_dests, w.slots.size());
    }
}

/** Functional correctness across precision x sparsity x fidelity. */
class EngineCorrectness
    : public ::testing::TestWithParam<std::tuple<Precision, double, bool>>
{};

TEST_P(EngineCorrectness, MatchesReferenceGemm)
{
    const auto [precision, sparsity, detailed] = GetParam();
    Rng rng(100 + static_cast<int>(sparsity * 10));
    // Irregular (non-tile-multiple) shape to exercise padding.
    const int m = 10, k = 7, n = 9;
    const MatrixI a = MakeSparseMatrix(m, k, sparsity, precision, rng);
    const MatrixI b = MakeSparseMatrix(k, n, sparsity, precision, rng);

    const GemmEngine engine(SmallConfig(precision, detailed));
    const GemmResult result = engine.Run(a, b);
    EXPECT_EQ(result.output, ReferenceGemm(a, b));
    EXPECT_GE(result.cycles, 1.0);
    EXPECT_GE(result.latency_ms, 0.0);
    EXPECT_LE(result.utilization, 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EngineCorrectness,
    ::testing::Combine(::testing::Values(Precision::kInt4, Precision::kInt8,
                                         Precision::kInt16),
                       ::testing::Values(0.0, 0.3, 0.7, 0.95),
                       ::testing::Bool()));

TEST(Engine, DenseBaselineAlsoComputesCorrectly)
{
    Rng rng(4);
    const MatrixI a = MakeSparseMatrix(9, 6, 0.5, Precision::kInt16, rng);
    const MatrixI b = MakeSparseMatrix(6, 11, 0.5, Precision::kInt16, rng);
    for (bool detailed : {false, true}) {
        const GemmEngine engine(
            SmallConfig(Precision::kInt16, detailed, /*sparsity=*/false));
        EXPECT_EQ(engine.Run(a, b).output, ReferenceGemm(a, b));
    }
}

TEST(Engine, SparsitySupportReducesWaves)
{
    Rng rng(5);
    const MatrixI a = MakeSparseMatrix(16, 16, 0.8, Precision::kInt16, rng);
    const MatrixI b = MakeSparseMatrix(16, 16, 0.8, Precision::kInt16, rng);
    const GemmEngine sparse(SmallConfig(Precision::kInt16, false, true));
    const GemmEngine dense(SmallConfig(Precision::kInt16, false, false));
    const GemmResult rs = sparse.Run(a, b);
    const GemmResult rd = dense.Run(a, b);
    EXPECT_LT(rs.waves, rd.waves);
    EXPECT_GT(rs.utilization, rd.utilization);
    EXPECT_LT(rs.energy.mac, rd.energy.mac);
}

TEST(Engine, DenseWaveCountIsTilesTimesGrid)
{
    Rng rng(6);
    const MatrixI a = MakeSparseMatrix(8, 8, 0.3, Precision::kInt16, rng);
    const MatrixI b = MakeSparseMatrix(8, 8, 0.3, Precision::kInt16, rng);
    const GemmEngine dense(SmallConfig(Precision::kInt16, false, false));
    // 2x2x2 tile triples at grid 4: 8 triples x 4 waves each.
    EXPECT_DOUBLE_EQ(dense.Run(a, b).waves, 8 * 4.0);

    // A dense 256^3 GEMM on the default 64-wide array: 4x4x4 tile triples
    // x 64 waves each.
    GemmEngineConfig config;
    config.compute_output = false;
    config.support_sparsity = false;
    config.use_flex_codec = false;
    EXPECT_DOUBLE_EQ(
        GemmEngine(config).RunFromShape({256, 256, 256, 1.0, 1.0, 0.0}).waves,
        4 * 4 * 4 * 64.0);
}

TEST(Engine, DetailedAndTiledAgreeOnWorkCounts)
{
    Rng rng(7);
    const MatrixI a = MakeSparseMatrix(12, 8, 0.6, Precision::kInt16, rng);
    const MatrixI b = MakeSparseMatrix(8, 12, 0.6, Precision::kInt16, rng);
    const GemmEngine detailed(SmallConfig(Precision::kInt16, true));
    const GemmEngine tiled(SmallConfig(Precision::kInt16, false));
    const GemmResult rdet = detailed.Run(a, b);
    const GemmResult rtil = tiled.Run(a, b);
    EXPECT_DOUBLE_EQ(rdet.useful_macs, rtil.useful_macs);
    EXPECT_DOUBLE_EQ(rdet.waves, rtil.waves);
    EXPECT_DOUBLE_EQ(rdet.a_bytes_encoded, rtil.a_bytes_encoded);
    EXPECT_DOUBLE_EQ(rdet.b_bytes_encoded, rtil.b_bytes_encoded);
}

TEST(Engine, StatisticalPathTracksTiledPath)
{
    Rng rng(8);
    const double density = 0.4;
    const MatrixI a =
        MakeSparseMatrix(32, 32, 1.0 - density, Precision::kInt16, rng);
    const MatrixI b =
        MakeSparseMatrix(32, 32, 1.0 - density, Precision::kInt16, rng);

    GemmEngineConfig config = SmallConfig(Precision::kInt16, false);
    config.compute_output = false;
    const GemmEngine engine(config);
    const GemmResult tiled = engine.Run(a, b);
    const GemmResult statistical = engine.RunFromShape(
        {32, 32, 32, a.Density(), b.Density()});

    EXPECT_NEAR(statistical.useful_macs, tiled.useful_macs,
                0.15 * tiled.useful_macs);
    EXPECT_NEAR(statistical.waves, tiled.waves, 0.25 * tiled.waves);
    EXPECT_NEAR(statistical.energy.TotalPj(), tiled.energy.TotalPj(),
                0.3 * tiled.energy.TotalPj());
}

TEST(Engine, CodecShrinksDramTrafficOnSparseData)
{
    GemmEngineConfig with = SmallConfig(Precision::kInt16, false);
    with.compute_output = false;
    GemmEngineConfig without = with;
    without.use_flex_codec = false;

    const GemmShape shape{256, 256, 256, 0.1, 0.1};
    const GemmResult rc = GemmEngine(with).RunFromShape(shape);
    const GemmResult rn = GemmEngine(without).RunFromShape(shape);
    EXPECT_LT(rc.dram_bytes, 0.5 * rn.dram_bytes);
    EXPECT_NE(rc.a_format, SparsityFormat::kNone);
}

TEST(Engine, BenesStyleSpendsMoreNocHops)
{
    GemmEngineConfig tree = SmallConfig(Precision::kInt16, false);
    tree.compute_output = false;
    GemmEngineConfig benes = tree;
    benes.noc_style = NocStyle::kBenes;

    const GemmShape shape{64, 64, 64, 0.5, 0.5};
    const GemmResult rt = GemmEngine(tree).RunFromShape(shape);
    const GemmResult rb = GemmEngine(benes).RunFromShape(shape);
    EXPECT_GT(rb.noc.switch_hops, rt.noc.switch_hops);
}

TEST(Engine, LowerPrecisionIsFasterOnSameWork)
{
    GemmEngineConfig c16 = SmallConfig(Precision::kInt16, false);
    c16.compute_output = false;
    c16.array_dim = 64;
    GemmEngineConfig c8 = c16;
    c8.precision = Precision::kInt8;
    GemmEngineConfig c4 = c16;
    c4.precision = Precision::kInt4;

    const GemmShape shape{4096, 512, 512, 1.0, 1.0};
    const double t16 = GemmEngine(c16).RunFromShape(shape).latency_ms;
    const double t8 = GemmEngine(c8).RunFromShape(shape).latency_ms;
    const double t4 = GemmEngine(c4).RunFromShape(shape).latency_ms;
    EXPECT_LT(t8, t16);
    EXPECT_LT(t4, t8);
}

TEST(Engine, PruningReducesLatencyOnlyWithSparsitySupport)
{
    GemmEngineConfig sparse = SmallConfig(Precision::kInt16, false);
    sparse.compute_output = false;
    sparse.array_dim = 64;
    // Hidden-layer setting: activations stay in the on-chip buffers.
    sparse.stream_a_from_dram = false;
    sparse.write_c_to_dram = false;
    GemmEngineConfig dense = sparse;
    dense.support_sparsity = false;
    dense.use_flex_codec = false;

    const GemmShape dense_shape{4096, 512, 512, 1.0, 1.0, 0.0};
    const GemmShape pruned_shape{4096, 512, 512, 1.0, 1.0, 0.9};

    const double s_dense =
        GemmEngine(sparse).RunFromShape(dense_shape).latency_ms;
    const double s_pruned =
        GemmEngine(sparse).RunFromShape(pruned_shape).latency_ms;
    EXPECT_LT(s_pruned, 0.5 * s_dense);

    const double d_dense =
        GemmEngine(dense).RunFromShape(dense_shape).latency_ms;
    const double d_pruned =
        GemmEngine(dense).RunFromShape(pruned_shape).latency_ms;
    EXPECT_NEAR(d_pruned, d_dense, 0.05 * d_dense);
}

TEST(Engine, DisablingClbStallsHighPrecisionWaveIssue)
{
    // Section 4.1.3: without the bypass links the unit's 16-bit operand
    // load takes 4 cycles, so wave issue (and total cycles on a
    // compute-bound GEMM) slows ~4x; INT4 is unaffected because the bus
    // is provisioned for it.
    GemmEngineConfig with = SmallConfig(Precision::kInt16, false);
    with.compute_output = false;
    with.array_dim = 64;
    GemmEngineConfig without = with;
    without.use_clb = false;

    const GemmShape shape{4096, 512, 512, 1.0, 1.0, 0.0};
    const GemmResult rw = GemmEngine(with).RunFromShape(shape);
    const GemmResult ro = GemmEngine(without).RunFromShape(shape);
    EXPECT_NEAR(ro.compute_cycles, 4.0 * rw.compute_cycles,
                0.01 * ro.compute_cycles);
    EXPECT_GT(ro.cycles, 3.5 * rw.cycles);

    GemmEngineConfig int4_with = with;
    int4_with.precision = Precision::kInt4;
    GemmEngineConfig int4_without = int4_with;
    int4_without.use_clb = false;
    EXPECT_DOUBLE_EQ(
        GemmEngine(int4_with).RunFromShape(shape).compute_cycles,
        GemmEngine(int4_without).RunFromShape(shape).compute_cycles);
}

TEST(Engine, ZeroMatrixCostsAlmostNothingButStaysValid)
{
    const MatrixI a(8, 8);
    const MatrixI b(8, 8);
    const GemmEngine engine(SmallConfig(Precision::kInt16, true));
    const GemmResult r = engine.Run(a, b);
    EXPECT_EQ(r.output, Matrix<std::int64_t>(8, 8));
    EXPECT_DOUBLE_EQ(r.useful_macs, 0.0);
}

TEST(Engine, GemvShapeWorks)
{
    Rng rng(9);
    const MatrixI a = MakeSparseMatrix(1, 16, 0.4, Precision::kInt16, rng);
    const MatrixI b = MakeSparseMatrix(16, 16, 0.4, Precision::kInt16, rng);
    const GemmEngine engine(SmallConfig(Precision::kInt16, true));
    EXPECT_EQ(engine.Run(a, b).output, ReferenceGemm(a, b));
}

}  // namespace
}  // namespace flexnerfer
