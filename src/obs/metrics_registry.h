/**
 * @file
 * Unified metrics surface for the serving stack.
 *
 * The serving snapshots (ServiceStats, ClusterStats, TierStats) are
 * plain structs assembled per call; MetricsRegistry is the named,
 * long-lived export surface they publish *through* — counters for
 * monotonic totals (requests, sheds, cache hits), gauges for
 * point-in-time levels (shed rate, utilization, cache entries), and
 * shared LatencyHistogram references for tail telemetry. One registry
 * per process (or per bench run) is the intended shape; `ToJson`
 * serializes the whole surface deterministically (keys sorted, fixed
 * formatting) so `--metrics-out` artifacts are diffable across runs
 * and thread counts.
 *
 * Everything published here derives from virtual-time state, so a
 * registry snapshot obeys the same determinism contract as bench
 * stdout: bit-identical for any --threads N.
 *
 * Thread-safety: all members may be called concurrently.
 */
#ifndef FLEXNERFER_OBS_METRICS_REGISTRY_H_
#define FLEXNERFER_OBS_METRICS_REGISTRY_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>

#include "common/stats.h"

namespace flexnerfer {

/**
 * Named counters (monotonic doubles), gauges (levels), and latency
 * summaries, exported as one sorted JSON document.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /** Sets counter @p name to an absolute total (publish path: stats
     *  structs overwrite with their authoritative counts). */
    void SetCounter(const std::string& name, double value);

    /** Counter value; 0 when never touched. */
    double Counter(const std::string& name) const;

    /** Sets gauge @p name to @p value. */
    void SetGauge(const std::string& name, double value);

    /** Gauge value; 0 when never set. */
    double Gauge(const std::string& name) const;

    /** Publishes a latency digest under @p name (five gauges:
     *  <name>.p50_ms/.p90_ms/.p99_ms/.mean_ms/.max_ms). */
    void SetLatency(const std::string& name, const LatencySummary& summary);

    std::size_t counter_count() const;
    std::size_t gauge_count() const;

    /** Drops every counter and gauge. */
    void Clear();

    /**
     * Serializes {"counters": {...}, "gauges": {...}} with keys sorted
     * and values in fixed %.6g formatting — deterministic for any
     * thread count because everything published is virtual-time
     * derived.
     */
    void WriteJson(std::ostream& out) const;

    /** WriteJson into a string. */
    std::string ToJson() const;

    /** ToJson into @p path; false (with a warning) on open failure. */
    bool WriteJsonFile(const std::string& path) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, double> counters_;
    std::map<std::string, double> gauges_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_OBS_METRICS_REGISTRY_H_
