/**
 * @file
 * Tests for the bit-scalable MAC unit, sub-multipliers, reduction trees,
 * and the MAC array. The key property: fused multi-nibble products must be
 * bit-exact against native integer multiplication in every precision mode.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/rng.h"
#include "mac/bit_scalable_mac.h"
#include "mac/mac_array.h"
#include "mac/reduction_tree.h"
#include "mac/sub_multiplier.h"

namespace flexnerfer {
namespace {

TEST(SubMultiplier, UnsignedProducts)
{
    EXPECT_EQ(SubMultiply(15, 15, false, false), 225);
    EXPECT_EQ(SubMultiply(0, 9, false, false), 0);
    EXPECT_EQ(SubMultiply(7, 8, false, false), 56);
}

TEST(SubMultiplier, SignedInterpretation)
{
    EXPECT_EQ(NibbleAsSigned(0xF), -1);
    EXPECT_EQ(NibbleAsSigned(0x8), -8);
    EXPECT_EQ(NibbleAsSigned(0x7), 7);
    EXPECT_EQ(SubMultiply(0xF, 0xF, true, true), 1);    // -1 * -1
    EXPECT_EQ(SubMultiply(0x8, 0x7, true, true), -56);  // -8 * 7
    EXPECT_EQ(SubMultiply(0xF, 15, true, false), -15);  // -1 * 15
}

TEST(NibbleDecomposition, ReconstructsValue)
{
    Rng rng(1);
    for (int trial = 0; trial < 2000; ++trial) {
        const auto v = static_cast<std::int32_t>(
            rng.UniformInt(-32768, 32767));
        const auto nibbles = DecomposeNibbles(v, 4);
        std::int64_t rebuilt = 0;
        for (int i = 0; i < 3; ++i) {
            rebuilt += static_cast<std::int64_t>(nibbles[i]) << (4 * i);
        }
        // Multiply instead of shifting: left-shifting a negative value
        // is undefined in C++17.
        rebuilt +=
            static_cast<std::int64_t>(NibbleAsSigned(nibbles[3])) * 4096;
        EXPECT_EQ(rebuilt, v);
    }
}

TEST(BitScalableMac, Int16ExactAgainstNativeMultiply)
{
    Rng rng(2);
    for (int trial = 0; trial < 5000; ++trial) {
        const auto a = static_cast<std::int32_t>(
            rng.UniformInt(-32768, 32767));
        const auto b = static_cast<std::int32_t>(
            rng.UniformInt(-32768, 32767));
        EXPECT_EQ(BitScalableMacUnit::MultiplyInt16(a, b),
                  static_cast<std::int64_t>(a) * b)
            << a << " * " << b;
    }
}

TEST(BitScalableMac, Int16Extremes)
{
    const std::int32_t extremes[] = {-32768, -32767, -1, 0, 1, 32767};
    for (std::int32_t a : extremes) {
        for (std::int32_t b : extremes) {
            EXPECT_EQ(BitScalableMacUnit::MultiplyInt16(a, b),
                      static_cast<std::int64_t>(a) * b);
        }
    }
}

TEST(BitScalableMac, Int8LanesExact)
{
    Rng rng(3);
    for (int trial = 0; trial < 2000; ++trial) {
        std::array<std::int32_t, 4> a{};
        std::array<std::int32_t, 4> b{};
        for (int lane = 0; lane < 4; ++lane) {
            a[lane] = static_cast<std::int32_t>(rng.UniformInt(-128, 127));
            b[lane] = static_cast<std::int32_t>(rng.UniformInt(-128, 127));
        }
        const auto out = BitScalableMacUnit::MultiplyInt8(a, b);
        for (int lane = 0; lane < 4; ++lane) {
            EXPECT_EQ(out[lane], static_cast<std::int64_t>(a[lane]) * b[lane]);
        }
    }
}

TEST(BitScalableMac, Int4LanesExact)
{
    // INT4 space is tiny: exhaust it across lanes.
    for (int a = -8; a <= 7; ++a) {
        for (int b = -8; b <= 7; ++b) {
            std::array<std::int32_t, 16> av{};
            std::array<std::int32_t, 16> bv{};
            av.fill(a);
            bv.fill(b);
            const auto out = BitScalableMacUnit::MultiplyInt4(av, bv);
            for (int lane = 0; lane < 16; ++lane) {
                EXPECT_EQ(out[lane], a * b);
            }
        }
    }
}

/** Lane-generic multiply across all precisions. */
class MacPrecision : public ::testing::TestWithParam<Precision>
{};

TEST_P(MacPrecision, GenericMultiplyMatchesNative)
{
    const Precision p = GetParam();
    const int lanes = MultipliersPerMacUnit(p);
    Rng rng(4);
    for (int trial = 0; trial < 500; ++trial) {
        std::vector<std::int32_t> a(lanes), b(lanes);
        for (int lane = 0; lane < lanes; ++lane) {
            a[lane] = static_cast<std::int32_t>(
                rng.UniformInt(MinValue(p), MaxValue(p)));
            b[lane] = static_cast<std::int32_t>(
                rng.UniformInt(MinValue(p), MaxValue(p)));
        }
        const auto out = BitScalableMacUnit::Multiply(p, a, b);
        for (int lane = 0; lane < lanes; ++lane) {
            EXPECT_EQ(out[lane], static_cast<std::int64_t>(a[lane]) * b[lane]);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllPrecisions, MacPrecision,
                         ::testing::Values(Precision::kInt4, Precision::kInt8,
                                           Precision::kInt16));

TEST(MacUnitPpa, ShifterOptimizationMatchesFig12)
{
    EXPECT_EQ(BitScalableMacUnit::ShiftersPerUnit(false), 24);
    EXPECT_EQ(BitScalableMacUnit::ShiftersPerUnit(true), 16);
    // Fig. 12(c): -28.3% area, -45.6% power.
    const double area_saving = 1.0 - BitScalableMacUnit::AreaUm2(true) /
                                         BitScalableMacUnit::AreaUm2(false);
    const double power_saving = 1.0 - BitScalableMacUnit::PowerMw(true) /
                                          BitScalableMacUnit::PowerMw(false);
    EXPECT_NEAR(area_saving, 0.283, 0.01);
    EXPECT_NEAR(power_saving, 0.456, 0.01);
}

TEST(MacUnitPpa, ArrayShifterCountMatchesPaper)
{
    // Section 4.2: a 16x16 unoptimized array holds 6,144 shifters.
    const MacArray unopt({16, 0.8, /*optimized_shifters=*/false});
    EXPECT_EQ(unopt.TotalShifters(), 6144);
    const MacArray opt({16, 0.8, /*optimized_shifters=*/true});
    EXPECT_EQ(opt.TotalShifters(), 4096);
}

TEST(ReductionTree, MergesEqualIndexRuns)
{
    const std::vector<ReductionOperand> leaves = {
        {1, 0}, {2, 0}, {3, 0}, {10, 1}, {20, 1}, {5, 2}};
    ReductionStats stats;
    const auto out = FlexibleReductionTree::Reduce(leaves, &stats);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].value, 6);
    EXPECT_EQ(out[0].index, 0);
    EXPECT_EQ(out[1].value, 30);
    EXPECT_EQ(out[1].index, 1);
    EXPECT_EQ(out[2].value, 5);
    EXPECT_EQ(out[2].index, 2);
    EXPECT_GT(stats.additions, 0);
}

/** DepthForLeaves' loop definition: double a width from 1 until it
 *  covers the leaves (64-bit, so 2^31 leaves' width cannot overflow). */
int
DepthByLoop(int n_leaves)
{
    int depth = 0;
    for (std::int64_t width = 1; width < n_leaves; width *= 2) ++depth;
    return depth;
}

TEST(ReductionTree, DepthForLeavesMatchesLoopDefinition)
{
    int mismatches = 0;
    for (int n = 1; n <= (1 << 20); ++n) {
        if (FlexibleReductionTree::DepthForLeaves(n) != DepthByLoop(n)) {
            ++mismatches;
        }
    }
    EXPECT_EQ(mismatches, 0);
    for (int s = 1; s <= 30; ++s) {
        const int power = 1 << s;
        for (const int n : {power - 1, power, power + 1}) {
            EXPECT_EQ(FlexibleReductionTree::DepthForLeaves(n),
                      DepthByLoop(n))
                << "n = " << n;
        }
    }
}

TEST(ReductionTree, DepthForLeavesMatchesLibmNocTreeDepth)
{
    // The GEMM engine's NoC tree depth was ceil(log2(max(2, t))) through
    // libm; the integer depth must equal it for every grid width t.
    int mismatches = 0;
    for (int t = 1; t <= (1 << 16); ++t) {
        const int leaves = std::max(2, t);
        const double libm = std::ceil(std::log2(leaves));
        const double integer =
            FlexibleReductionTree::DepthForLeaves(leaves);
        if (integer != libm) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
}

TEST(ReductionTree, BypassesDistinctIndices)
{
    const std::vector<ReductionOperand> leaves = {
        {1, 7}, {2, 8}, {3, 9}, {4, 10}};
    const auto out = FlexibleReductionTree::Reduce(leaves);
    ASSERT_EQ(out.size(), 4u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i], leaves[i]);
    }
}

TEST(ReductionTree, DropsIdleSlots)
{
    const std::vector<ReductionOperand> leaves = {
        {1, 0}, {0, -1}, {2, 0}, {0, -1}};
    const auto out = FlexibleReductionTree::Reduce(leaves);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].value, 3);
}

TEST(ReductionTree, RandomSegmentSumsProperty)
{
    Rng rng(5);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<ReductionOperand> leaves;
        std::vector<std::int64_t> expected_sums;
        std::vector<std::int32_t> expected_idx;
        int index = 0;
        while (leaves.size() < 64) {
            const int run = static_cast<int>(rng.UniformInt(1, 5));
            std::int64_t sum = 0;
            for (int i = 0; i < run && leaves.size() < 64; ++i) {
                const auto v = rng.UniformInt(-100, 100);
                leaves.push_back({v, index});
                sum += v;
            }
            expected_sums.push_back(sum);
            expected_idx.push_back(index);
            ++index;
        }
        const auto out = FlexibleReductionTree::Reduce(leaves);
        ASSERT_EQ(out.size(), expected_sums.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i].value, expected_sums[i]);
            EXPECT_EQ(out[i].index, expected_idx[i]);
        }
    }
}

TEST(ReductionTree, DepthIsLogarithmic)
{
    EXPECT_EQ(FlexibleReductionTree::DepthForLeaves(1), 0);
    EXPECT_EQ(FlexibleReductionTree::DepthForLeaves(2), 1);
    EXPECT_EQ(FlexibleReductionTree::DepthForLeaves(64), 6);
    EXPECT_EQ(FlexibleReductionTree::DepthForLeaves(4096), 12);
}

TEST(MacArray, CapacityMatchesFig6)
{
    const MacArray array({64, 0.8, true});
    EXPECT_EQ(array.MacUnits(), 4096);
    EXPECT_EQ(array.Multipliers(Precision::kInt16), 4096);
    EXPECT_EQ(array.Multipliers(Precision::kInt8), 16384);
    EXPECT_EQ(array.Multipliers(Precision::kInt4), 65536);
}

TEST(MacArray, PeakTopsMatchesTable3)
{
    // Table 3: 6.55 / 26.2 / 104.9 TOPS at INT16 / INT8 / INT4, 800 MHz.
    const MacArray array({64, 0.8, true});
    EXPECT_NEAR(array.PeakTops(Precision::kInt16), 6.55, 0.01);
    EXPECT_NEAR(array.PeakTops(Precision::kInt8), 26.2, 0.1);
    EXPECT_NEAR(array.PeakTops(Precision::kInt4), 104.9, 0.1);
}

TEST(MacArray, ComputeMappedAccumulatesByIndex)
{
    const MacArray array({4, 0.8, true});
    std::vector<MappedOperand> mapped = {
        {2, 3, 0}, {4, 5, 0}, {-1, 7, 1}, {6, -2, 2}};
    const auto out = array.ComputeMapped(Precision::kInt16, mapped);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[0].value, 2 * 3 + 4 * 5);
    EXPECT_EQ(out[1].value, -7);
    EXPECT_EQ(out[2].value, -12);
}

TEST(MacArray, ComputeMappedRespectsCapacity)
{
    const MacArray array({2, 0.8, true});
    std::vector<MappedOperand> mapped(4, {1, 1, 0});  // exactly 4 at INT16
    EXPECT_EQ(array.ComputeMapped(Precision::kInt16, mapped).size(), 1u);
}

}  // namespace
}  // namespace flexnerfer
