#include "sparse/footprint.h"

#include "common/logging.h"

namespace flexnerfer {

int
IndexBits(std::int64_t n)
{
    FLEX_CHECK(n >= 1);
    // The smallest bits >= 1 with 2^bits >= n: ceil(log2(n)), which is
    // the bit length of n - 1.
    if (n <= 2) return 1;
    return 64 - __builtin_clzll(static_cast<unsigned long long>(n - 1));
}

std::int64_t
DenseFootprintBits(int rows, int cols, Precision precision)
{
    return static_cast<std::int64_t>(rows) * cols * BitWidth(precision);
}

std::int64_t
CooFootprintBits(int rows, int cols, std::int64_t nnz, Precision precision)
{
    const int entry_bits =
        IndexBits(rows) + IndexBits(cols) + BitWidth(precision);
    return nnz * entry_bits;
}

std::int64_t
CsrFootprintBits(int rows, int cols, std::int64_t nnz, Precision precision)
{
    // Pointer entries must address any nnz in [0, rows*cols].
    const std::int64_t max_nnz = static_cast<std::int64_t>(rows) * cols;
    const int pointer_bits = IndexBits(max_nnz + 1);
    const int major = rows;  // symmetric in rows/cols for square tiles
    const int minor_index_bits = IndexBits(cols);
    return nnz * (minor_index_bits + BitWidth(precision)) +
           static_cast<std::int64_t>(major + 1) * pointer_bits;
}

std::int64_t
BitmapFootprintBits(int rows, int cols, std::int64_t nnz, Precision precision)
{
    return static_cast<std::int64_t>(rows) * cols +
           nnz * BitWidth(precision);
}

std::int64_t
FootprintBits(SparsityFormat format, int rows, int cols, std::int64_t nnz,
              Precision precision)
{
    switch (format) {
      case SparsityFormat::kNone:
        return DenseFootprintBits(rows, cols, precision);
      case SparsityFormat::kCoo:
        return CooFootprintBits(rows, cols, nnz, precision);
      case SparsityFormat::kCsr:
      case SparsityFormat::kCsc:
        return CsrFootprintBits(rows, cols, nnz, precision);
      case SparsityFormat::kBitmap:
        return BitmapFootprintBits(rows, cols, nnz, precision);
    }
    FLEX_CHECK_MSG(false, "unhandled format");
    return 0;
}

int
TileDim(Precision precision, int array_dim)
{
    return array_dim * GridScale(precision);
}

std::int64_t
TileFetchBytes(Precision precision, int array_dim)
{
    const std::int64_t dim = TileDim(precision, array_dim);
    return dim * dim * BitWidth(precision) / 8;
}

std::int64_t
ElementsPerFetch(Precision precision, int array_dim)
{
    const std::int64_t dim = TileDim(precision, array_dim);
    return dim * dim;
}

}  // namespace flexnerfer
