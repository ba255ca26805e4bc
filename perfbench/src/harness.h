/**
 * @file
 * The benchmark harness: the workload interface, the timed pass loop,
 * and the one-line JSON report.
 *
 * A run is a sequence of passes over one fixed, seed-derived op list
 * (requests, sweep frames, or GEMM tiles), with set-ups interleaved.
 * Each pass is timed on its own and checked untimed afterwards, so host
 * metrics are low quantiles over many passes, and every pass is
 * verified.
 * Modeled metrics come from the op list itself, never from how many
 * passes the host managed, so they are bit-identical for one seed.
 */
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Command-line options of one benchmark run. */
struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The run's result: the benchmark's last stdout line. */
struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    void Add(const std::string& name, double value, const std::string& unit);
    /** {"correct", "attempted", "failed", "metrics"} on one line. */
    std::string ToJson() const;
};

/** Seconds on the steady clock. */
inline double
NowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Nearest-rank quantile (q in (0, 1]) of @p values; 0 when empty. */
double Quantile(std::vector<double> values, double q);
inline double
Median(std::vector<double> values)
{
    return Quantile(std::move(values), 0.5);
}

/** Peak resident set size of this process, MiB. */
double PeakRssMb();

/**
 * An isolated replay: median over 5 rounds of @p fn's wall time divided
 * by @p calls, the calls one round makes, in us.
 */
template <typename F>
double
ProbeUs(double calls, F&& fn)
{
    std::vector<double> rounds;
    for (int round = 0; round < 5; ++round) {
        const double start = NowSeconds();
        fn();
        rounds.push_back((NowSeconds() - start) * 1e6 / calls);
    }
    return Median(std::move(rounds));
}

/** Wall-clock total of one layer's calls during traced passes. */
struct LayerTime {
    double seconds = 0.0;
    std::uint64_t calls = 0;

    /** Mean microseconds per call (0 when never called). */
    double MeanUs() const;
};

/** Runs @p fn, charging its wall time to @p layer (null = untraced). */
template <typename F>
decltype(auto)
Timed(LayerTime* layer, F&& fn)
{
    if (layer == nullptr) return fn();
    struct Charge {
        LayerTime* layer;
        double start;
        ~Charge()
        {
            layer->seconds += NowSeconds() - start;
            ++layer->calls;
        }
    } charge{layer, NowSeconds()};
    return fn();
}

/**
 * Runs @p fn, appending its wall time in us to @p op_us (null = only
 * runs it).
 */
template <typename F>
decltype(auto)
TimedOp(std::vector<double>* op_us, F&& fn)
{
    if (op_us == nullptr) return fn();
    struct Charge {
        std::vector<double>* op_us;
        double start;
        ~Charge() { op_us->push_back((NowSeconds() - start) * 1e6); }
    } charge{op_us, NowSeconds()};
    return fn();
}

/**
 * One workload. The harness calls Setup, then alternates timed RunPass
 * and untimed CheckPass, with timed set-ups in between; modeled and
 * per-layer metrics are added after the timed loop.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Builds and warms what a pass needs (timed as setup_s). */
    virtual void Setup() = 0;
    /** Releases what Setup built, untimed, so setup_s excludes it. */
    virtual void Teardown() = 0;
    /**
     * Timed set-ups per pass. Stateful services need a fresh set-up
     * before every pass, so they return at least 1; more than 1 only
     * adds setup_s samples. Below 1, passes share a set-up, for
     * workloads whose set-up outweighs a pass. Set-ups are spread over
     * the whole run so their timings see the same machine as the passes.
     */
    virtual double SetupsPerPass() const = 0;
    /**
     * One pass over the op list; returns the ops it ran. With
     * @p traced, the workload also charges its calls into src/ layers
     * to its per-layer ledger. Workloads whose ops run one after another
     * may append each op's host time to @p op_us when it is not null (see
     * TimedOp); the harness then takes the pass's median. Serving
     * workloads, whose requests overlap across the caller and the
     * workers, append nothing, and the pass's mean time per op stands
     * in.
     */
    virtual std::size_t RunPass(bool traced, std::vector<double>* op_us) = 0;
    /** Verifies the last pass's outputs; returns the ops that failed. */
    virtual std::size_t CheckPass() = 0;
    /** Adds every model_* metric (see README.md for definitions). */
    virtual void AddModelMetrics(Report* report) = 0;
    /**
     * Adds this workload's per-layer metrics from the traced passes
     * plus its isolated replays.
     */
    virtual void AddLayerMetrics(Report* report) = 0;
    /** Perturbs one expected output so the checks must fail (tests). */
    virtual void CorruptReference() = 0;
};

/** The workload named @p name, or null for an unknown name. */
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed);

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string>& WorkloadNames();

/** Runs @p options end to end and returns its report. */
Report RunBenchmark(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
