/**
 * @file
 * Modeled SLO metrics: replaying an op mix through the virtual-time
 * admission model, and model_capacity_load, the highest offered load
 * on a fixed ladder whose shed rate stays within a fixed budget.
 *
 * Admission sheds exactly the requests whose estimated completion would
 * miss their deadline (serve/admission.h), so "shed rate within budget"
 * is "requests meeting their latency limit". Everything here runs in
 * model time, outside the timed region, and is a pure function of its
 * inputs.
 */
#ifndef PERFBENCH_SLO_H_
#define PERFBENCH_SLO_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/admission.h"

namespace perfbench {

/** Capacity ladder: offered loads kLadderStep, 2 x kLadderStep, ... */
constexpr double kLadderStep = 0.1;
/** Highest rung; a mix that never breaks the budget reports it. */
constexpr double kLadderTop = 4.0;
/** Shed-rate budget a rung must stay within. */
constexpr double kShedBudget = 0.05;

/** The serving benches' admission policy: a queue bound of 128. */
flexnerfer::AdmissionPolicy ReplayPolicy();

/**
 * Offers @p requests open-loop Poisson arrivals at @p load times one
 * device's mean service rate, each picking an item of @p est_ms
 * uniformly (the serving benches' OpenLoopPoissonStream, deadlines
 * included), to a fresh AdmissionController with ReplayPolicy().
 * Returns the share rejected or shed.
 */
double ReplayShedRate(const std::vector<double>& est_ms, double load,
                      std::uint64_t seed, std::size_t requests);

/**
 * Finds the first ladder rung whose @p shed_rate_at(load) exceeds
 * kShedBudget — by bisection, as shed rate grows with offered load —
 * and returns the load where the shed rate crosses the budget,
 * interpolated linearly between that rung and the one below (load 0
 * sheds nothing). Returns kLadderTop when no rung breaks.
 */
double CapacityLoad(const std::function<double(double)>& shed_rate_at);

}  // namespace perfbench

#endif  // PERFBENCH_SLO_H_
