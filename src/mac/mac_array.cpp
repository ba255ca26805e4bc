#include "mac/mac_array.h"

#include "common/logging.h"
#include "common/units.h"
#include "mac/bit_scalable_mac.h"

namespace flexnerfer {

MacArray::MacArray(const Config& config)
    : config_(config)
{
    FLEX_CHECK_MSG(config.dim >= 1, "array dim must be positive");
    FLEX_CHECK_MSG(config.clock_ghz > 0.0, "clock must be positive");
}

std::int64_t
MacArray::Multipliers(Precision precision) const
{
    return static_cast<std::int64_t>(MacUnits()) *
           MultipliersPerMacUnit(precision);
}

std::int64_t
MacArray::TotalShifters() const
{
    return static_cast<std::int64_t>(MacUnits()) *
           BitScalableMacUnit::ShiftersPerUnit(config_.optimized_shifters);
}

double
MacArray::PeakTops(Precision precision) const
{
    const double ops_per_cycle =
        2.0 * static_cast<double>(Multipliers(precision));
    return TopsFromOpsPerCycle(ops_per_cycle, config_.clock_ghz);
}

double
MacArray::MacEnergyPj(Precision precision) const
{
    // Calibrated to Table 3 (64x64 @ 800 MHz): datapath power at full
    // utilization is ~60% of the published 5.5 / 6.4 / 6.9 W array power
    // for INT16 / INT8 / INT4.
    switch (precision) {
      case Precision::kInt16: return 1.01;
      case Precision::kInt8: return 0.29;
      case Precision::kInt4: return 0.079;
    }
    return 1.01;
}

std::vector<ReductionOperand>
MacArray::ComputeMapped(Precision precision,
                        const std::vector<MappedOperand>& mapped,
                        ReductionStats* stats) const
{
    FLEX_CHECK_MSG(static_cast<std::int64_t>(mapped.size()) <=
                       Multipliers(precision),
                   "mapped " << mapped.size() << " pairs onto "
                             << Multipliers(precision) << " multipliers");
    std::vector<ReductionOperand> products;
    products.reserve(mapped.size());
    const int n_nibbles = BitWidth(precision) / 4;
    for (const MappedOperand& op : mapped) {
        // Each lane computes a fused product through the sub-multipliers;
        // exercising the same datapath the unit tests verify bit-exactly.
        std::int64_t product;
        switch (n_nibbles) {
          case 4:
            product = BitScalableMacUnit::MultiplyInt16(op.a, op.b);
            break;
          case 2: {
            std::array<std::int32_t, 4> a4{op.a, 0, 0, 0};
            std::array<std::int32_t, 4> b4{op.b, 0, 0, 0};
            product = BitScalableMacUnit::MultiplyInt8(a4, b4)[0];
            break;
          }
          default: {
            std::array<std::int32_t, 16> a16{};
            std::array<std::int32_t, 16> b16{};
            a16[0] = op.a;
            b16[0] = op.b;
            product = BitScalableMacUnit::MultiplyInt4(a16, b16)[0];
            break;
          }
        }
        products.push_back({product, op.output_index});
    }
    return FlexibleReductionTree::Reduce(products, stats);
}

}  // namespace flexnerfer
