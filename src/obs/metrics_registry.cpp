#include "obs/metrics_registry.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace flexnerfer {
namespace {

/** %.6g matches the precision bench tables print at while keeping
 *  integral counters rendering as integers. */
std::string
FormatMetric(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return buffer;
}

void
WriteSection(std::ostream& out, const char* title,
             const std::map<std::string, double>& values)
{
    out << "  \"" << title << "\": {";
    bool first = true;
    for (const auto& entry : values) {
        if (!first) out << ",";
        first = false;
        out << "\n    \"" << entry.first
            << "\": " << FormatMetric(entry.second);
    }
    if (!first) out << "\n  ";
    out << "}";
}

}  // namespace

void
MetricsRegistry::SetCounter(const std::string& name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] = value;
}

double
MetricsRegistry::Counter(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

void
MetricsRegistry::SetGauge(const std::string& name, double value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[name] = value;
}

double
MetricsRegistry::Gauge(const std::string& name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = gauges_.find(name);
    return it == gauges_.end() ? 0.0 : it->second;
}

void
MetricsRegistry::SetLatency(const std::string& name,
                            const LatencySummary& summary)
{
    SetGauge(name + ".p50_ms", summary.p50_ms);
    SetGauge(name + ".p90_ms", summary.p90_ms);
    SetGauge(name + ".p99_ms", summary.p99_ms);
    SetGauge(name + ".mean_ms", summary.mean_ms);
    SetGauge(name + ".max_ms", summary.max_ms);
}

std::size_t
MetricsRegistry::counter_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_.size();
}

std::size_t
MetricsRegistry::gauge_count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return gauges_.size();
}

void
MetricsRegistry::Clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
}

void
MetricsRegistry::WriteJson(std::ostream& out) const
{
    std::map<std::string, double> counters;
    std::map<std::string, double> gauges;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        counters = counters_;
        gauges = gauges_;
    }
    out << "{\n";
    WriteSection(out, "counters", counters);
    out << ",\n";
    WriteSection(out, "gauges", gauges);
    out << "\n}\n";
}

std::string
MetricsRegistry::ToJson() const
{
    std::ostringstream out;
    WriteJson(out);
    return out.str();
}

bool
MetricsRegistry::WriteJsonFile(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        Warn("cannot open metrics output file '" + path + "'");
        return false;
    }
    WriteJson(out);
    return static_cast<bool>(out);
}

}  // namespace flexnerfer
