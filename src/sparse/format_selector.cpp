#include "sparse/format_selector.h"

#include <cmath>
#include <iterator>

#include "common/logging.h"
#include "sparse/footprint.h"

namespace flexnerfer {
namespace {

// Preference order when footprints tie: cheaper decode wins.
constexpr SparsityFormat kCandidates[] = {
    SparsityFormat::kNone, SparsityFormat::kBitmap, SparsityFormat::kCsr,
    SparsityFormat::kCoo};

}  // namespace

SparsityFormat
SelectOptimalFormat(int rows, int cols, std::int64_t nnz, Precision precision)
{
    SparsityFormat best = kCandidates[0];
    std::int64_t best_bits =
        FootprintBits(best, rows, cols, nnz, precision);
    for (std::size_t c = 1; c < std::size(kCandidates); ++c) {
        const SparsityFormat f = kCandidates[c];
        const std::int64_t bits =
            FootprintBits(f, rows, cols, nnz, precision);
        if (bits < best_bits) {
            best = f;
            best_bits = bits;
        }
    }
    return best;
}

SparsityFormat
SelectOptimalFormatForRatio(double sparsity, Precision precision,
                            int array_dim)
{
    FLEX_CHECK_MSG(sparsity >= 0.0 && sparsity <= 1.0,
                   "sparsity " << sparsity << " outside [0,1]");
    const int dim = TileDim(precision, array_dim);
    const auto total = static_cast<std::int64_t>(dim) * dim;
    const auto nnz = static_cast<std::int64_t>(
        std::llround((1.0 - sparsity) * static_cast<double>(total)));
    return SelectOptimalFormat(dim, dim, nnz, precision);
}

double
FormatOnsetSparsityPercent(SparsityFormat format, Precision precision,
                           int array_dim)
{
    const int dim = TileDim(precision, array_dim);
    const std::int64_t total = static_cast<std::int64_t>(dim) * dim;
    // Walk sparsity from dense to empty in per-mille steps.
    for (int mille = 0; mille <= 1000; ++mille) {
        const double sparsity = mille / 1000.0;
        const auto nnz = static_cast<std::int64_t>(
            std::llround((1.0 - sparsity) * static_cast<double>(total)));
        SparsityFormat chosen = SelectOptimalFormat(dim, dim, nnz, precision);
        // CSR and CSC are one category in the paper's comparison.
        if (chosen == format ||
            (format == SparsityFormat::kCsc &&
             chosen == SparsityFormat::kCsr)) {
            return sparsity * 100.0;
        }
    }
    return -1.0;
}

}  // namespace flexnerfer
