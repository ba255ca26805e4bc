/**
 * @file
 * Tests for the sparsity formats, footprint model, optimal-format selector,
 * sparsity-ratio calculator, and flexible codec. The parameterized suites
 * sweep (precision x sparsity) exactly like the paper's Fig. 7/8 analysis.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "common/matrix.h"
#include "common/rng.h"
#include "sparse/bitmap.h"
#include "sparse/compressed.h"
#include "sparse/coo.h"
#include "sparse/flex_codec.h"
#include "sparse/footprint.h"
#include "sparse/format_selector.h"
#include "sparse/sr_calculator.h"

namespace flexnerfer {
namespace {

TEST(Footprint, IndexBits)
{
    EXPECT_EQ(IndexBits(1), 1);
    EXPECT_EQ(IndexBits(2), 1);
    EXPECT_EQ(IndexBits(3), 2);
    EXPECT_EQ(IndexBits(64), 6);
    EXPECT_EQ(IndexBits(65), 7);
    EXPECT_EQ(IndexBits(4096), 12);
}

/** IndexBits' loop definition: the smallest bits >= 1 with 2^bits >= n
 *  (unsigned, so 2^63 is representable). */
int
IndexBitsByLoop(std::int64_t n)
{
    int bits = 1;
    while ((std::uint64_t{1} << bits) < static_cast<std::uint64_t>(n)) {
        ++bits;
    }
    return bits;
}

TEST(Footprint, IndexBitsMatchesLoopDefinition)
{
    int mismatches = 0;
    for (std::int64_t n = 1; n <= (std::int64_t{1} << 20); ++n) {
        if (IndexBits(n) != IndexBitsByLoop(n)) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0);
    for (int s = 1; s <= 62; ++s) {
        const std::int64_t power = std::int64_t{1} << s;
        for (const std::int64_t n : {power - 1, power, power + 1}) {
            EXPECT_EQ(IndexBits(n), IndexBitsByLoop(n)) << "n = " << n;
        }
    }
}

TEST(Footprint, DenseMatchesElementCount)
{
    EXPECT_EQ(DenseFootprintBits(64, 64, Precision::kInt16), 64 * 64 * 16);
    EXPECT_EQ(DenseFootprintBits(256, 256, Precision::kInt4),
              256L * 256 * 4);
}

TEST(Footprint, TileDimTracksPrecision)
{
    // Fig. 6(b): 64x64 / 128x128 / 256x256 effective grids.
    EXPECT_EQ(TileDim(Precision::kInt16), 64);
    EXPECT_EQ(TileDim(Precision::kInt8), 128);
    EXPECT_EQ(TileDim(Precision::kInt4), 256);
}

TEST(Footprint, FetchSizeDoublesWhenPrecisionHalves)
{
    // Fig. 6(b): the tile fetch doubles as precision halves.
    const auto b16 = TileFetchBytes(Precision::kInt16);
    const auto b8 = TileFetchBytes(Precision::kInt8);
    const auto b4 = TileFetchBytes(Precision::kInt4);
    EXPECT_EQ(b16, 8192);
    EXPECT_EQ(b8, 2 * b16);
    EXPECT_EQ(b4, 2 * b8);
}

TEST(Footprint, ElementsPerFetchQuadruple)
{
    // Section 4.3: N_data/fetch increases fourfold when precision halves.
    EXPECT_EQ(ElementsPerFetch(Precision::kInt16), 4096);
    EXPECT_EQ(ElementsPerFetch(Precision::kInt8), 4 * 4096);
    EXPECT_EQ(ElementsPerFetch(Precision::kInt4), 16 * 4096);
}

/** Property suite over (precision, sparsity): all formats round-trip. */
class FormatRoundTrip
    : public ::testing::TestWithParam<std::tuple<Precision, double>>
{};

TEST_P(FormatRoundTrip, CooPreservesData)
{
    const auto [precision, sparsity] = GetParam();
    Rng rng(11);
    const MatrixI m = MakeSparseMatrix(37, 53, sparsity, precision, rng);
    const CooMatrix coo = CooMatrix::FromDense(m);
    EXPECT_EQ(coo.Nnz(), m.Nnz());
    EXPECT_EQ(coo.ToDense(), m);
}

TEST_P(FormatRoundTrip, CsrPreservesData)
{
    const auto [precision, sparsity] = GetParam();
    Rng rng(12);
    const MatrixI m = MakeSparseMatrix(41, 29, sparsity, precision, rng);
    const CompressedMatrix csr =
        CompressedMatrix::FromDense(m, CompressedOrientation::kRowWise);
    EXPECT_EQ(csr.ToDense(), m);
}

TEST_P(FormatRoundTrip, CscPreservesData)
{
    const auto [precision, sparsity] = GetParam();
    Rng rng(13);
    const MatrixI m = MakeSparseMatrix(23, 61, sparsity, precision, rng);
    const CompressedMatrix csc =
        CompressedMatrix::FromDense(m, CompressedOrientation::kColWise);
    EXPECT_EQ(csc.ToDense(), m);
}

TEST_P(FormatRoundTrip, BitmapPreservesData)
{
    const auto [precision, sparsity] = GetParam();
    Rng rng(14);
    const MatrixI m = MakeSparseMatrix(33, 47, sparsity, precision, rng);
    const BitmapMatrix bm = BitmapMatrix::FromDense(m);
    EXPECT_EQ(bm.Popcount(), static_cast<std::int64_t>(m.Nnz()));
    EXPECT_EQ(bm.ToDense(), m);
}

TEST_P(FormatRoundTrip, EncodedBitsMatchAnalyticModel)
{
    const auto [precision, sparsity] = GetParam();
    Rng rng(15);
    const MatrixI m = MakeSparseMatrix(64, 64, sparsity, precision, rng);
    const auto nnz = static_cast<std::int64_t>(m.Nnz());

    EXPECT_EQ(CooMatrix::FromDense(m).EncodedBits(precision),
              CooFootprintBits(64, 64, nnz, precision));
    EXPECT_EQ(CompressedMatrix::FromDense(m,
                                          CompressedOrientation::kRowWise)
                  .EncodedBits(precision),
              CsrFootprintBits(64, 64, nnz, precision));
    EXPECT_EQ(BitmapMatrix::FromDense(m).EncodedBits(precision),
              BitmapFootprintBits(64, 64, nnz, precision));
}

TEST_P(FormatRoundTrip, FlexCodecRoundTripsWithOptimalFormat)
{
    const auto [precision, sparsity] = GetParam();
    Rng rng(16);
    const MatrixI m = MakeSparseMatrix(64, 64, sparsity, precision, rng);
    const FlexFormatCodec codec;
    const EncodedTile tile = codec.Encode(m, precision);
    EXPECT_EQ(tile.format,
              SelectOptimalFormat(64, 64,
                                  static_cast<std::int64_t>(m.Nnz()),
                                  precision));
    EXPECT_EQ(codec.Decode(tile), m);
    // An all-zero tile may legitimately compress to a zero-bit payload
    // (COO with nnz = 0); anything non-empty must occupy storage.
    if (m.Nnz() > 0) {
        EXPECT_GT(tile.encoded_bits, 0);
    } else {
        EXPECT_LT(tile.encoded_bits,
                  DenseFootprintBits(64, 64, precision));
    }
}

INSTANTIATE_TEST_SUITE_P(
    PrecisionSparsitySweep, FormatRoundTrip,
    ::testing::Combine(::testing::Values(Precision::kInt4, Precision::kInt8,
                                         Precision::kInt16),
                       ::testing::Values(0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99,
                                         1.0)));

TEST(FormatSelector, DenseTileUsesNoCompression)
{
    for (Precision p : kAllPrecisions) {
        EXPECT_EQ(SelectOptimalFormatForRatio(0.0, p), SparsityFormat::kNone)
            << ToString(p);
    }
}

TEST(FormatSelector, ExtremeSparsityPrefersCooOrCsr)
{
    for (Precision p : kAllPrecisions) {
        const SparsityFormat f = SelectOptimalFormatForRatio(0.999, p);
        EXPECT_TRUE(f == SparsityFormat::kCoo || f == SparsityFormat::kCsr)
            << ToString(p) << " chose " << ToString(f);
    }
}

TEST(FormatSelector, MidSparsityPrefersBitmapAt16Bit)
{
    // Fig. 8: Bitmap dominates the mid-sparsity band in 16-bit mode.
    EXPECT_EQ(SelectOptimalFormatForRatio(0.30, Precision::kInt16),
              SparsityFormat::kBitmap);
    EXPECT_EQ(SelectOptimalFormatForRatio(0.50, Precision::kInt16),
              SparsityFormat::kBitmap);
}

TEST(FormatSelector, BitmapOnsetAt16BitIsOneSixteenth)
{
    // Bitmap beats None when 1 + d*16 < 16 bits/elem: sparsity > 6.25%.
    const double onset =
        FormatOnsetSparsityPercent(SparsityFormat::kBitmap,
                                   Precision::kInt16);
    EXPECT_NEAR(onset, 6.25, 0.5);
}

TEST(FormatSelector, CompressionOnsetShiftsRightAtLowerPrecision)
{
    // Takeaway 4 / Fig. 8: lower precision shifts every format's onset to
    // higher sparsity (metadata is relatively more expensive).
    const double onset16 =
        FormatOnsetSparsityPercent(SparsityFormat::kBitmap,
                                   Precision::kInt16);
    const double onset8 =
        FormatOnsetSparsityPercent(SparsityFormat::kBitmap, Precision::kInt8);
    const double onset4 =
        FormatOnsetSparsityPercent(SparsityFormat::kBitmap, Precision::kInt4);
    EXPECT_LT(onset16, onset8);
    EXPECT_LT(onset8, onset4);
}

TEST(FormatSelector, SelectionMatchesExhaustiveMinimum)
{
    for (Precision p : kAllPrecisions) {
        const int dim = TileDim(p, 16);  // smaller grid for speed
        for (int pct = 0; pct <= 100; pct += 7) {
            const auto total = static_cast<std::int64_t>(dim) * dim;
            const auto nnz = total * (100 - pct) / 100;
            const SparsityFormat chosen =
                SelectOptimalFormat(dim, dim, nnz, p);
            for (SparsityFormat f : kAllFormats) {
                EXPECT_LE(FootprintBits(chosen, dim, dim, nnz, p),
                          FootprintBits(f, dim, dim, nnz, p))
                    << ToString(p) << " sparsity " << pct << "%: chose "
                    << ToString(chosen) << " but " << ToString(f)
                    << " is smaller";
            }
        }
    }
}

/** SelectOptimalFormat's earlier definition: start from kNone, then
 *  scan every candidate in tie-break order, kNone included. */
SparsityFormat
SelectByFullScan(int rows, int cols, std::int64_t nnz, Precision precision)
{
    constexpr SparsityFormat kOrder[] = {
        SparsityFormat::kNone, SparsityFormat::kBitmap, SparsityFormat::kCsr,
        SparsityFormat::kCoo};
    SparsityFormat best = SparsityFormat::kNone;
    std::int64_t best_bits =
        FootprintBits(SparsityFormat::kNone, rows, cols, nnz, precision);
    for (SparsityFormat f : kOrder) {
        const std::int64_t bits = FootprintBits(f, rows, cols, nnz, precision);
        if (bits < best_bits) {
            best = f;
            best_bits = bits;
        }
    }
    return best;
}

TEST(FormatSelector, SelectionMatchesFullScanDefinition)
{
    int checked = 0;
    for (Precision p : kAllPrecisions) {
        for (const int dim : {1, 7, TileDim(p, 16), TileDim(p, 64)}) {
            for (const int cols : {dim, 2 * dim + 1}) {
                const auto total = static_cast<std::int64_t>(dim) * cols;
                for (std::int64_t nnz = 0; nnz <= total; ++nnz) {
                    ASSERT_EQ(SelectOptimalFormat(dim, cols, nnz, p),
                              SelectByFullScan(dim, cols, nnz, p))
                        << ToString(p) << " " << dim << "x" << cols
                        << " nnz " << nnz;
                    ++checked;
                }
            }
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(SrCalculator, ExactRatioOverMultipleFetches)
{
    SrCalculator calc(Precision::kInt16, 8);  // 64 elements per fetch
    MatrixI tile(8, 8);
    tile.at(0, 0) = 5;
    tile.at(3, 4) = -2;  // 2 non-zeros out of 64
    calc.Observe(tile);
    EXPECT_NEAR(calc.SparsityRatioPercent(), (1.0 - 2.0 / 64.0) * 100.0,
                1e-9);

    MatrixI dense(8, 8, 1);
    calc.Observe(dense);  // now 66 of 128
    EXPECT_NEAR(calc.SparsityRatioPercent(), (1.0 - 66.0 / 128.0) * 100.0,
                1e-9);
    EXPECT_EQ(calc.fetches(), 2);
}

TEST(SrCalculator, SmallTilesCountAsPaddedFetches)
{
    SrCalculator calc(Precision::kInt16, 8);
    MatrixI small(2, 2, 3);  // 4 non-zeros, padded to a 64-element fetch
    calc.Observe(small);
    EXPECT_NEAR(calc.SparsityRatioPercent(), (1.0 - 4.0 / 64.0) * 100.0,
                1e-9);
}

TEST(SrCalculator, CyclesScaleWithFetches)
{
    SrCalculator calc(Precision::kInt8, 8);
    MatrixI tile(16, 16, 1);
    for (int i = 0; i < 10; ++i) calc.Observe(tile);
    EXPECT_GE(calc.CyclesUsed(), 10.0);
    EXPECT_LE(calc.CyclesUsed(), 10.0 + 5.0);
    calc.Reset();
    EXPECT_EQ(calc.fetches(), 0);
    EXPECT_DOUBLE_EQ(calc.CyclesUsed(), 0.0);
}

TEST(FlexCodec, WeightPathHonoursExplicitFormat)
{
    Rng rng(20);
    const MatrixI m =
        MakeSparseMatrix(32, 32, 0.5, Precision::kInt8, rng);
    const FlexFormatCodec codec;
    for (SparsityFormat f : kAllFormats) {
        const EncodedTile t = codec.EncodeAs(m, Precision::kInt8, f);
        EXPECT_EQ(t.format, f);
        EXPECT_EQ(codec.Decode(t), m) << ToString(f);
    }
}

TEST(FlexCodec, CostsScaleWithThroughput)
{
    Rng rng(21);
    const MatrixI m =
        MakeSparseMatrix(64, 64, 0.8, Precision::kInt16, rng);
    const FlexFormatCodec fast({64, 256.0});
    const FlexFormatCodec slow({64, 64.0});
    const EncodedTile t = fast.Encode(m, Precision::kInt16);
    EXPECT_NEAR(slow.EncodeCost(t).cycles, 4.0 * fast.EncodeCost(t).cycles,
                1e-9);
    EXPECT_LT(fast.DecodeCost(t).bytes_in, fast.DecodeCost(t).bytes_out)
        << "compressed tile should be smaller than dense";
}

TEST(FlexCodec, HighSparsityShrinksFootprint)
{
    Rng rng(22);
    const FlexFormatCodec codec;
    const MatrixI sparse =
        MakeSparseMatrix(64, 64, 0.95, Precision::kInt16, rng);
    const MatrixI dense =
        MakeSparseMatrix(64, 64, 0.0, Precision::kInt16, rng);
    const auto ts = codec.Encode(sparse, Precision::kInt16);
    const auto td = codec.Encode(dense, Precision::kInt16);
    EXPECT_LT(ts.encoded_bits, td.encoded_bits / 4);
}

}  // namespace
}  // namespace flexnerfer
