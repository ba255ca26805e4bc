/**
 * @file
 * The four workloads (see README.md for why each exists) and the few
 * helpers they share.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "accel/accelerator.h"
#include "harness.h"

namespace perfbench {

std::unique_ptr<Workload> MakeServeHot(std::uint64_t seed);
std::unique_ptr<Workload> MakeFleetMixed(std::uint64_t seed);
std::unique_ptr<Workload> MakeDesignSweep(std::uint64_t seed);
std::unique_ptr<Workload> MakeTileSim(std::uint64_t seed);

/** Accumulates model_mac_util: useful MACs over issued MAC slots. */
class MacUtil
{
  public:
    /** A frame: its GEMM utilization weighted by its useful MACs. */
    void
    AddFrame(const flexnerfer::FrameCost& cost)
    {
        if (cost.gemm_utilization <= 0.0) return;
        useful_ += cost.gemm_macs;
        issued_ += cost.gemm_macs / cost.gemm_utilization;
    }
    void
    Add(double useful_macs, double issued_slots)
    {
        useful_ += useful_macs;
        issued_ += issued_slots;
    }
    double Value() const { return issued_ > 0.0 ? useful_ / issued_ : 0.0; }

  private:
    double useful_ = 0.0;
    double issued_ = 0.0;
};

/** Nearest-rank p50 and p99 of @p values, added as model_p50/p99_ms. */
void AddModelLatencies(const std::vector<double>& values, Report* report);

/** model_paper_err (paper.h), shared by every workload. */
void AddPaperErr(Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
