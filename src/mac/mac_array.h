/**
 * @file
 * The 2D bit-scalable MAC array (Fig. 6(b)): a dim x dim grid of
 * bit-scalable MAC units whose effective multiplier grid grows to
 * (dim*2)^2 at INT8 and (dim*4)^2 at INT4.
 */
#ifndef FLEXNERFER_MAC_MAC_ARRAY_H_
#define FLEXNERFER_MAC_MAC_ARRAY_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "mac/reduction_tree.h"

namespace flexnerfer {

/** One operand pair mapped onto a multiplier lane. */
struct MappedOperand {
    std::int32_t a = 0;
    std::int32_t b = 0;
    /** Destination output element this product accumulates into. */
    std::int32_t output_index = -1;
};

/** Capacity, PPA, and functional model of the bit-scalable MAC array. */
class MacArray
{
  public:
    struct Config {
        int dim = 64;                   //!< MAC units per side
        double clock_ghz = 0.8;         //!< 800 MHz in the paper
        bool optimized_shifters = true; //!< Fig. 12(b) shared-shifter RT
    };

    explicit MacArray(const Config& config);
    MacArray() : MacArray(Config{}) {}

    int dim() const { return config_.dim; }
    double clock_ghz() const { return config_.clock_ghz; }

    /** Number of MAC units (dim^2). */
    int MacUnits() const { return config_.dim * config_.dim; }

    /** Effective multiplier count at @p precision (Fig. 6(b) table). */
    std::int64_t Multipliers(Precision precision) const;

    /** Total shifters in the array (6,144 for a 16x16 unoptimized array). */
    std::int64_t TotalShifters() const;

    /** Peak throughput in TOPS (2 ops per MAC per cycle). */
    double PeakTops(Precision precision) const;

    /**
     * Energy of one multiply-accumulate at @p precision in pJ, 28 nm,
     * calibrated so the datapath at full utilization draws the paper's
     * Table 3 array power (roughly 60% of which is MAC datapath).
     */
    double MacEnergyPj(Precision precision) const;

    /**
     * Functionally executes one mapped wave: at most Multipliers(precision)
     * operand pairs, each assigned to a sub-multiplier lane, products reduced
     * through the flexible ART into one partial sum per contiguous
     * output-index run.
     */
    std::vector<ReductionOperand>
    ComputeMapped(Precision precision,
                  const std::vector<MappedOperand>& mapped,
                  ReductionStats* stats = nullptr) const;

    const Config& config() const { return config_; }

  private:
    Config config_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_MAC_MAC_ARRAY_H_
