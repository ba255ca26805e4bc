/**
 * @file
 * Unit tests for the common infrastructure: types, matrices, RNG, stats,
 * tables, unit conversions, the slot ring, and interned names.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "common/intern.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/slot_ring.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/types.h"
#include "common/units.h"

namespace flexnerfer {
namespace {

TEST(Types, BitWidths)
{
    EXPECT_EQ(BitWidth(Precision::kInt4), 4);
    EXPECT_EQ(BitWidth(Precision::kInt8), 8);
    EXPECT_EQ(BitWidth(Precision::kInt16), 16);
}

TEST(Types, MultiplierParallelismMatchesFig6)
{
    // Fig. 6(a): 16 fused multipliers -> 1 / 4 / 16 products.
    EXPECT_EQ(MultipliersPerMacUnit(Precision::kInt16), 1);
    EXPECT_EQ(MultipliersPerMacUnit(Precision::kInt8), 4);
    EXPECT_EQ(MultipliersPerMacUnit(Precision::kInt4), 16);
}

TEST(Types, GridScaleDoublesAsPrecisionHalves)
{
    EXPECT_EQ(GridScale(Precision::kInt16), 1);
    EXPECT_EQ(GridScale(Precision::kInt8), 2);
    EXPECT_EQ(GridScale(Precision::kInt4), 4);
}

TEST(Types, ValueRanges)
{
    EXPECT_EQ(MaxValue(Precision::kInt4), 7);
    EXPECT_EQ(MinValue(Precision::kInt4), -8);
    EXPECT_EQ(MaxValue(Precision::kInt8), 127);
    EXPECT_EQ(MinValue(Precision::kInt8), -128);
    EXPECT_EQ(MaxValue(Precision::kInt16), 32767);
    EXPECT_EQ(MinValue(Precision::kInt16), -32768);
}

TEST(Types, RoundTripNames)
{
    for (Precision p : kAllPrecisions) {
        EXPECT_EQ(BitWidth(PrecisionFromString(
                      p == Precision::kInt4   ? "int4"
                      : p == Precision::kInt8 ? "int8"
                                              : "int16")),
                  BitWidth(p));
    }
    EXPECT_EQ(ToString(SparsityFormat::kBitmap), "Bitmap");
    EXPECT_EQ(ToString(Dataflow::kMulticast), "multicast");
}

TEST(Matrix, BasicAccess)
{
    MatrixI m(3, 4);
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 4);
    EXPECT_EQ(m.size(), 12u);
    m.at(2, 3) = 7;
    EXPECT_EQ(m.at(2, 3), 7);
    EXPECT_EQ(m.Nnz(), 1u);
}

TEST(Matrix, DensityAndSparsity)
{
    MatrixI m(2, 2);
    m.at(0, 0) = 1;
    m.at(1, 1) = -3;
    EXPECT_DOUBLE_EQ(m.Density(), 0.5);
    EXPECT_DOUBLE_EQ(m.Sparsity(), 0.5);
}

TEST(Matrix, RandomSparseMatrixHitsTargetSparsity)
{
    Rng rng(42);
    const MatrixI m =
        MakeSparseMatrix(128, 128, 0.7, Precision::kInt8, rng);
    EXPECT_NEAR(m.Sparsity(), 0.7, 0.05);
    for (int r = 0; r < m.rows(); ++r) {
        for (int c = 0; c < m.cols(); ++c) {
            EXPECT_GE(m.at(r, c), MinValue(Precision::kInt8));
            EXPECT_LE(m.at(r, c), MaxValue(Precision::kInt8));
        }
    }
}

TEST(Matrix, ReferenceGemmHandComputed)
{
    MatrixI a(2, 3);
    MatrixI b(3, 2);
    // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
    int v = 1;
    for (int r = 0; r < 2; ++r)
        for (int c = 0; c < 3; ++c) a.at(r, c) = v++;
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 2; ++c) b.at(r, c) = v++;
    const auto c = ReferenceGemm(a, b);
    EXPECT_EQ(c.at(0, 0), 58);
    EXPECT_EQ(c.at(0, 1), 64);
    EXPECT_EQ(c.at(1, 0), 139);
    EXPECT_EQ(c.at(1, 1), 154);
}

TEST(Rng, Deterministic)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
    }
}

TEST(Rng, UniformRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.Uniform(2.0, 5.0);
        EXPECT_GE(x, 2.0);
        EXPECT_LT(x, 5.0);
    }
}

TEST(Stats, AddGetMerge)
{
    StatSet s;
    s.Add("noc.hops", 10);
    s.Add("noc.hops", 5);
    EXPECT_DOUBLE_EQ(s.Get("noc.hops"), 15.0);
    EXPECT_DOUBLE_EQ(s.Get("missing"), 0.0);

    StatSet t;
    t.Add("noc.hops", 1);
    t.Add("sram.bytes", 2);
    s.Merge(t);
    EXPECT_DOUBLE_EQ(s.Get("noc.hops"), 16.0);
    EXPECT_DOUBLE_EQ(s.Get("sram.bytes"), 2.0);
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.AddRow({"alpha", "1"});
    t.AddRow({"b", "22"});
    const std::string s = t.ToString();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
    EXPECT_EQ(t.NumRows(), 2u);
}

TEST(Table, CsvOutput)
{
    Table t({"a", "b"});
    t.AddRow({"1", "2"});
    EXPECT_EQ(t.ToCsv(), "a,b\n1,2\n");
}

TEST(Units, CycleConversionsRoundTrip)
{
    const double cycles = 123456.0;
    const double ms = CyclesToMs(cycles, 0.8);
    EXPECT_NEAR(MsToCycles(ms, 0.8), cycles, 1e-6);
}

TEST(Units, TopsFromOpsPerCycle)
{
    // 64x64 INT16 array at 0.8 GHz: 2*4096*0.8e9 = 6.55 TOPS.
    EXPECT_NEAR(TopsFromOpsPerCycle(2.0 * 4096, 0.8), 6.5536, 1e-3);
}

TEST(Units, RunCostAccumulation)
{
    RunCost a;
    a.cycles = 100;
    a.mac_ops = 10;
    a.utilization = 1.0;
    RunCost b;
    b.cycles = 50;
    b.mac_ops = 30;
    b.utilization = 0.5;
    a += b;
    EXPECT_DOUBLE_EQ(a.cycles, 150.0);
    EXPECT_DOUBLE_EQ(a.mac_ops, 40.0);
    EXPECT_NEAR(a.utilization, (1.0 * 10 + 0.5 * 30) / 40.0, 1e-12);
}

TEST(Units, PpaBreakdownTotals)
{
    PpaBreakdown b;
    b.components.push_back({"mac", 10.0, 2.0});
    b.components.push_back({"noc", 5.0, 1.0});
    EXPECT_DOUBLE_EQ(b.TotalAreaMm2(), 15.0);
    EXPECT_DOUBLE_EQ(b.TotalPowerW(), 3.0);
}

TEST(SlotRing, KeepsFifoOrderAndIndexingAcrossChunkBoundaries)
{
    // Rounds of 70 pushes and 50 pops: pushes, pops and indexing all
    // cross chunk boundaries, and the index grows while slots are live.
    SlotRing<std::uint64_t> ring;
    std::uint64_t next = 0;  // value pushed next (== its sequence)
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 70; ++i) ring.push_back() = next++;
        for (int i = 0; i < 50; ++i) {
            ASSERT_EQ(ring.front(), ring.front_seq());
            ring.pop_front();
        }
        ASSERT_EQ(ring.end_seq(), next);
        ASSERT_EQ(ring.size(), ring.end_seq() - ring.front_seq());
        for (std::size_t i = 0; i < ring.size(); ++i) {
            ASSERT_EQ(ring[i], ring.front_seq() + i) << "round " << round;
        }
    }
    while (!ring.empty()) {
        const std::uint64_t seq = ring.front_seq();
        EXPECT_EQ(ring.front(), seq);
        ring.pop_front();
    }
    EXPECT_EQ(ring.front_seq(), next);
}

TEST(SlotRing, PopResetsTheSlotSoNoStaleValueSurvives)
{
    SlotRing<std::string> ring;
    // Fill and drain two chunks: the back then reuses the popped
    // chunks' slots.
    const std::size_t slots = 2 * SlotRing<std::string>::kChunkSlots;
    for (std::size_t i = 0; i < slots; ++i) {
        ring.push_back() = "stale result " + std::to_string(i);
    }
    for (std::size_t i = 0; i < slots; ++i) ring.pop_front();
    const std::size_t chunks = ring.chunks();
    for (std::size_t i = 0; i < slots; ++i) {
        EXPECT_EQ(ring.push_back(), "") << i;
    }
    EXPECT_EQ(ring.chunks(), chunks);  // recycled, not reallocated
}

TEST(SlotRing, ChunkCountStopsGrowingInSteadyState)
{
    SlotRing<double> ring;
    // A store that fills to 500 entries and drains to 100, over and
    // over: 400 pops a cycle move the front's chunk offset by 16 slots,
    // so it has taken all four of its offsets after four cycles, and
    // 500 slots from any of them span at most 9 chunks. From then on
    // every chunk the store needs exists.
    const auto cycle = [&] {
        while (ring.size() < 500) ring.push_back() = 1.0;
        while (ring.size() > 100) ring.pop_front();
    };
    for (int warm = 0; warm < 8; ++warm) cycle();
    const std::size_t warmed = ring.chunks();
    for (int i = 0; i < 200; ++i) {
        cycle();
        ASSERT_EQ(ring.chunks(), warmed) << "cycle " << i;
    }
    // The index has 16 entries, and only those hold chunks.
    EXPECT_LE(warmed, 16u);
}

TEST(InternName, EqualNamesShareOneProcessLifetimeCopy)
{
    std::string name = "Instant-NGP/flexnerfer-int8";
    const std::string_view first = InternName(name);
    name.assign("overwritten, then destroyed");
    EXPECT_EQ(first, "Instant-NGP/flexnerfer-int8");
    const std::string_view again = InternName("Instant-NGP/flexnerfer-int8");
    EXPECT_EQ(again.data(), first.data());
    EXPECT_NE(InternName("KiloNeRF/flexnerfer-int8").data(), first.data());
}

}  // namespace
}  // namespace flexnerfer
