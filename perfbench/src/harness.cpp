#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace perfbench {

namespace {

std::string
FormatNumber(double value)
{
    FLEX_CHECK_MSG(std::isfinite(value), "non-finite metric " << value);
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

/**
 * A host timing's reported value over its per-pass (per-set-up)
 * @p samples: the 1st percentile, or the 5th-fastest sample when there
 * are fewer than 500. The shared VM alternates between speed regimes
 * about 1.5x apart that last from under a second to a whole run, so a
 * run's mean or median follows how long each regime happened to last:
 * over six seeds the median's spread (interquartile range / median) was
 * 0.11-0.36 on design_sweep and tile_sim, the 1st percentile's
 * 0.01-0.04.
 */
double
HostTiming(const std::vector<double>& samples)
{
    const auto n = static_cast<double>(samples.size());
    return Quantile(samples, std::min(1.0, std::max(0.01, 5.0 / n)));
}

/** What the timed passes measured. */
struct LoopStats {
    std::vector<double> us_per_op;         //!< one per untraced pass
    std::vector<double> traced_us_per_op;  //!< one per traced pass
    /** One per untraced pass: the median of its per-op times, or its
     *  mean time per op when the workload times no single op. */
    std::vector<double> op_us_p50;
    std::vector<double> setup_s;           //!< one per Setup call
};

void
SetupTimed(Workload& workload, LoopStats* stats)
{
    workload.Teardown();
    const double start = NowSeconds();
    workload.Setup();
    stats->setup_s.push_back(NowSeconds() - start);
}

/**
 * Runs timed passes for @p seconds of wall time (set-up and checks
 * included), checking each pass untimed and counting its ops. With
 * @p trace, passes alternate untraced and traced, so both kinds see
 * the same machine, and at least one of each runs.
 */
LoopStats
TimedLoop(Workload& workload, double seconds, bool trace, Report* report)
{
    LoopStats stats;
    const double end = NowSeconds() + seconds;
    double setups_due = 1.0;
    std::size_t pass = 0;
    std::vector<double> op_us;
    do {
        for (; setups_due >= 1.0; setups_due -= 1.0) {
            SetupTimed(workload, &stats);
        }
        setups_due += workload.SetupsPerPass();
        const bool traced = trace && pass++ % 2 == 1;
        op_us.clear();
        const double start = NowSeconds();
        const std::size_t ops =
            workload.RunPass(traced, traced ? nullptr : &op_us);
        const double elapsed = NowSeconds() - start;
        FLEX_CHECK(ops > 0);
        const double us_per_op = elapsed * 1e6 / static_cast<double>(ops);
        if (traced) {
            stats.traced_us_per_op.push_back(us_per_op);
        } else {
            stats.us_per_op.push_back(us_per_op);
            stats.op_us_p50.push_back(op_us.empty() ? us_per_op
                                                    : Median(op_us));
        }
        report->attempted += ops;
        report->failed += workload.CheckPass();
    } while (NowSeconds() < end ||
             (trace && stats.traced_us_per_op.empty()));
    return stats;
}

}  // namespace

void
Report::Add(const std::string& name, double value, const std::string& unit)
{
    for (const Metric& metric : metrics) {
        FLEX_CHECK_MSG(metric.name != name, "duplicate metric " << name);
    }
    metrics.push_back({name, value, unit});
}

std::string
Report::ToJson() const
{
    std::string json = "{\"correct\": ";
    json += failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i > 0) json += ", ";
        json += "\"" + metrics[i].name + "\": {\"value\": " +
                FormatNumber(metrics[i].value) + ", \"unit\": \"" +
                metrics[i].unit + "\"}";
    }
    json += "}}";
    return json;
}

double
Quantile(std::vector<double> values, double q)
{
    if (values.empty()) return 0.0;
    FLEX_CHECK(q > 0.0 && q <= 1.0);
    const auto n = static_cast<double>(values.size());
    const auto rank = static_cast<std::size_t>(std::ceil(q * n));
    const std::size_t index = std::min(values.size(), std::max<std::size_t>(
                                                          rank, 1)) - 1;
    std::nth_element(values.begin(), values.begin() + index, values.end());
    return values[index];
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
LayerTime::MeanUs() const
{
    return calls == 0 ? 0.0 : seconds * 1e6 / static_cast<double>(calls);
}

const std::vector<std::string>&
WorkloadNames()
{
    static const std::vector<std::string> names = {
        "serve_hot", "fleet_mixed", "design_sweep", "tile_sim"};
    return names;
}

Report
RunBenchmark(const RunOptions& options)
{
    std::unique_ptr<Workload> workload =
        MakeWorkload(options.workload, options.seed);
    if (!workload) flexnerfer::Fatal("unknown workload " + options.workload);

    Report report;
    // One untimed, checked warm-up pass: first-touch costs stay out of
    // the timings.
    workload->Setup();
    report.attempted += workload->RunPass(false, nullptr);
    report.failed += workload->CheckPass();

    if (!options.trace) {
        const LoopStats loop =
            TimedLoop(*workload, options.seconds, false, &report);
        report.Add("setup_s", HostTiming(loop.setup_s), "s");
        report.Add("wall_ops_per_s", 1e6 / HostTiming(loop.us_per_op), "1/s");
        report.Add("op_wall_us_p50", HostTiming(loop.op_us_p50), "us");
        report.Add("peak_rss_mb", PeakRssMb(), "MiB");
        report.Add("op_pass_rate",
                   1.0 - static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted),
                   "ratio");
        workload->AddModelMetrics(&report);
        return report;
    }

    // Traced run: the ratio of traced to untraced median per-op times
    // is the tracing overhead. Every layer is measured on every traced
    // run: layers on this workload's path from its traced passes, the
    // rest from one traced pass of each other workload on the same seed.
    const LoopStats loop = TimedLoop(*workload, options.seconds, true, &report);
    for (const std::string& name : WorkloadNames()) {
        if (name == options.workload) {
            workload->AddLayerMetrics(&report);
            continue;
        }
        std::unique_ptr<Workload> other = MakeWorkload(name, options.seed);
        other->Setup();
        report.attempted += other->RunPass(true, nullptr);
        report.failed += other->CheckPass();
        other->AddLayerMetrics(&report);
    }
    report.Add("bench.trace_overhead",
               Median(loop.traced_us_per_op) / Median(loop.us_per_op),
               "ratio");
    return report;
}

}  // namespace perfbench
