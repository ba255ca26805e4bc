/**
 * @file
 * The benchmark's own tests: model_paper_err against a hand computation
 * from the printed Fig. 19 table, model_* metrics bit-identical for one
 * seed, a wrong reference output turning into failed ops, and a traced
 * run measuring every per-layer metric.
 *
 * Run: cmake --build .bench_build --target perfbench_test &&
 *      ctest --test-dir .bench_build --output-on-failure
 */
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.h"
#include "paper.h"

namespace {

int failures = 0;

void
Expect(bool ok, const std::string& what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

/**
 * bench/fig19_speedup_energy's table, as printed (one decimal), for the
 * 14 references in perfbench::Fig19References() order.
 */
const double kPrintedTable[] = {
    2.8,   14.6,            // NeuRex speedup, energy
    12.2,  47.9,            // INT16 speedup @0%, @90%
    44.0,  209.0,           // INT16 energy
    32.1,  71.3,            // INT8 speedup
    108.9, 328.3,           // INT8 energy
    57.6,  81.7,            // INT4 speedup
    180.4, 397.9,           // INT4 energy
};

void
PaperErrMatchesHandComputation()
{
    const std::vector<perfbench::PaperReference>& refs =
        perfbench::Fig19References();
    Expect(refs.size() == 14, "14 Fig. 19 references");
    double hand = 0.0;
    for (std::size_t i = 0; i < refs.size(); ++i) {
        hand += std::fabs(std::log(kPrintedTable[i] / refs[i].paper));
    }
    hand /= 14.0;
    const std::vector<double> model = perfbench::ModelFig19Values();
    for (std::size_t i = 0; i < refs.size(); ++i) {
        Expect(std::fabs(model[i] - kPrintedTable[i]) <= 0.05 + 1e-9,
               refs[i].label + " matches the printed table");
    }
    const double err = perfbench::PaperErr(model);
    // One-decimal rounding moves each |ln| term by at most 0.05 / 2.8.
    Expect(std::fabs(err - hand) < 0.002,
           "model_paper_err " + std::to_string(err) + " vs hand " +
               std::to_string(hand));
    Expect(std::fabs(hand - 0.4715) < 0.001, "hand computation is ~0.47");
}

std::vector<perfbench::Metric>
ModelMetrics(const std::string& workload, std::uint64_t seed)
{
    perfbench::RunOptions options;
    options.workload = workload;
    options.seed = seed;
    options.seconds = 0.2;
    std::vector<perfbench::Metric> model;
    const perfbench::Report report = perfbench::RunBenchmark(options);
    Expect(report.failed == 0 && report.attempted > 0,
           workload + " runs clean");
    for (const perfbench::Metric& metric : report.metrics) {
        if (metric.name.rfind("model_", 0) == 0) model.push_back(metric);
    }
    Expect(model.size() == 7, workload + " reports 7 model_* metrics");
    return model;
}

void
ModelMetricsRepeatExactlyPerSeed()
{
    for (const std::string& workload : perfbench::WorkloadNames()) {
        const auto first = ModelMetrics(workload, 7);
        const auto second = ModelMetrics(workload, 7);
        const auto other = ModelMetrics(workload, 8);
        bool seed_matters = false;
        for (std::size_t i = 0; i < first.size(); ++i) {
            Expect(first[i].value == second[i].value,
                   workload + " " + first[i].name + " repeats exactly");
            Expect(first[i].value > 0.0,
                   workload + " " + first[i].name + " is never 0");
            seed_matters |= first[i].value != other[i].value;
        }
        Expect(seed_matters, workload + " model metrics follow the seed");
    }
}

void
WrongReferenceFailsOps()
{
    for (const std::string& workload : perfbench::WorkloadNames()) {
        const auto w = perfbench::MakeWorkload(workload, 3);
        w->Setup();
        const std::size_t ops = w->RunPass(false, nullptr);
        Expect(ops > 0 && w->CheckPass() == 0, workload + " passes clean");
        w->Teardown();
        w->Setup();
        w->CorruptReference();
        w->RunPass(false, nullptr);
        Expect(w->CheckPass() > 0,
               workload + " flags a wrong reference output");
    }
}

/** BENCHMARK.json's per_layer list: 38 layer metrics plus the overhead. */
constexpr std::size_t kLayerMetrics = 39;

void
TracedRunMeasuresEveryLayer()
{
    perfbench::RunOptions options;
    options.workload = "design_sweep";
    options.seed = 5;
    options.seconds = 0.2;
    options.trace = true;
    const perfbench::Report report = perfbench::RunBenchmark(options);
    Expect(report.failed == 0, "traced run passes its checks");
    Expect(report.metrics.size() == kLayerMetrics,
           std::to_string(report.metrics.size()) + " per-layer metrics");
    for (const perfbench::Metric& metric : report.metrics) {
        Expect(metric.value > 0.0, metric.name + " is measured");
    }
}

}  // namespace

int
main()
{
    PaperErrMatchesHandComputation();
    ModelMetricsRepeatExactlyPerSeed();
    WrongReferenceFailsOps();
    TracedRunMeasuresEveryLayer();
    if (failures == 0) std::printf("perfbench_test: all passed\n");
    return failures == 0 ? 0 : 1;
}
