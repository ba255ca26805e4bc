/**
 * @file
 * model_paper_err: how far the modeled Fig. 19 numbers sit from the
 * paper's, as the mean |ln(model / paper)| over 14 reference values.
 *
 * The references are the ones bench/fig19_speedup_energy prints: NeuRex
 * 2.8x speedup / 12x energy gain over the RTX 2080 Ti, and FlexNeRFer
 * speedup and energy gain at INT16/INT8/INT4 with 0% and 90% structured
 * pruning (8.2/65.9x, 18.2/138.3x, 32.9/243.3x speedup; 24/194x,
 * 47/355x, 77/570x energy gain). Model values are geometric means over
 * the seven NeRF workloads at the paper's nominal evaluation point,
 * computed exactly as the Fig. 19 bench does. The metric is a pure
 * function of the device model: it ignores the workload seed.
 */
#ifndef PERFBENCH_PAPER_H_
#define PERFBENCH_PAPER_H_

#include <string>
#include <vector>

#include "runtime/sweep_runner.h"

namespace perfbench {

/** One Fig. 19 reference value and where the model's twin comes from. */
struct PaperReference {
    std::string label;
    flexnerfer::Backend backend = flexnerfer::Backend::kFlexNeRFer;
    flexnerfer::Precision precision = flexnerfer::Precision::kInt16;
    double prune = 0.0;
    bool energy = false;  //!< energy gain (true) or speedup (false)
    double paper = 0.0;
};

/** The 14 Fig. 19 references, in the order listed above. */
const std::vector<PaperReference>& Fig19References();

/** Modeled value of every reference, in Fig19References() order. */
std::vector<double> ModelFig19Values();

/** Mean |ln(model / paper)| over the references. */
double PaperErr(const std::vector<double>& model_values);

}  // namespace perfbench

#endif  // PERFBENCH_PAPER_H_
