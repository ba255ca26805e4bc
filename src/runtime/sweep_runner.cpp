#include "runtime/sweep_runner.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "accel/flexnerfer.h"
#include "accel/gpu_model.h"
#include "accel/neurex.h"
#include "common/logging.h"
#include "plan/plan_cache.h"

namespace flexnerfer {

std::string
ToString(Backend backend)
{
    switch (backend) {
      case Backend::kFlexNeRFer: return "FlexNeRFer";
      case Backend::kNeuRex: return "NeuRex";
      case Backend::kGpu: return "RTX 2080 Ti";
      case Backend::kXavierNx: return "Xavier NX";
    }
    return "unknown";
}

FrameCost
SweepOutcome::Total() const
{
    FrameCost total;
    for (const FrameCost& cost : per_model) total += cost;
    return total;
}

std::unique_ptr<Accelerator>
MakeAccelerator(const SweepPoint& point)
{
    switch (point.backend) {
      case Backend::kFlexNeRFer: {
        FlexNeRFerModel::Config config;
        config.precision = point.precision;
        config.noc_style = point.noc_style;
        return std::make_unique<FlexNeRFerModel>(config);
      }
      case Backend::kNeuRex:
        return std::make_unique<NeuRexModel>();
      case Backend::kGpu:
        return std::make_unique<GpuModel>();
      case Backend::kXavierNx:
        return std::make_unique<GpuModel>(GpuModel::XavierNx().config());
    }
    Fatal("unknown sweep backend");
}

std::vector<SweepOutcome>
SweepRunner::Run(const std::vector<SweepPoint>& points) const
{
    return Map<SweepOutcome>(
        static_cast<std::int64_t>(points.size()),
        [this, &points](std::int64_t i) {
            return Evaluate(points[static_cast<std::size_t>(i)]);
        });
}

SweepOutcome
SweepRunner::Evaluate(const SweepPoint& point) const
{
    const std::unique_ptr<Accelerator> accel = MakeAccelerator(point);
    // Frames compile through the plan layer and execute serially on
    // this task's thread: the pool's parallelism is across points,
    // where a task is worth a hand-off. With a cache, revisited
    // (config, workload) pairs replay the compiled plan, bit-identical
    // to a fresh run, keeping the sweep contract (results independent
    // of thread count and cache state).
    const auto run_frame = [this, &accel](const NerfWorkload& w) {
        return cache_ != nullptr ? cache_->Run(*accel, w)
                                 : accel->RunWorkload(w);
    };
    SweepOutcome outcome;
    outcome.point = point;
    if (point.model.empty()) {
        outcome.per_model.reserve(AllModelNames().size());
        for (const std::string& model : AllModelNames()) {
            outcome.per_model.push_back(
                run_frame(BuildWorkload(model, point.params)));
        }
    } else {
        outcome.per_model = {
            run_frame(BuildWorkload(point.model, point.params))};
    }
    return outcome;
}

namespace {

/**
 * Value of "<name> V" / "<name>=V" in argv, or null when the flag is
 * absent. A trailing flag with no value is a usage error, not a silent
 * fall-through to the default.
 */
const char*
FlagValue(int argc, char** argv, const char* name)
{
    const std::size_t name_len = std::strlen(name);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], name, name_len) == 0 &&
            argv[i][name_len] == '=') {
            return argv[i] + name_len + 1;
        }
        if (std::strcmp(argv[i], name) == 0) {
            if (i + 1 >= argc) {
                Fatal(std::string(name) + " requires a value");
            }
            return argv[i + 1];
        }
    }
    return nullptr;
}

}  // namespace

std::int64_t
IntFromArgs(int argc, char** argv, const char* name,
            std::int64_t default_value)
{
    const char* value = FlagValue(argc, argv, name);
    if (value == nullptr) return default_value;
    char* end = nullptr;
    errno = 0;
    const long long n = std::strtoll(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE || n < 0) {
        Fatal(std::string("invalid ") + name + " value '" + value +
              "' (expected a non-negative integer)");
    }
    return n;
}

double
DoubleFromArgs(int argc, char** argv, const char* name,
               double default_value)
{
    const char* value = FlagValue(argc, argv, name);
    if (value == nullptr) return default_value;
    char* end = nullptr;
    errno = 0;
    const double x = std::strtod(value, &end);
    if (end == value || *end != '\0' || errno == ERANGE || x <= 0.0) {
        Fatal(std::string("invalid ") + name + " value '" + value +
              "' (expected a positive number)");
    }
    return x;
}

const char*
StringFromArgs(int argc, char** argv, const char* name,
               const char* default_value)
{
    const char* value = FlagValue(argc, argv, name);
    return value == nullptr ? default_value : value;
}

int
ThreadsFromArgs(int argc, char** argv, int default_threads)
{
    const std::int64_t n =
        IntFromArgs(argc, argv, "--threads", default_threads);
    if (n > 4096) {
        Fatal("invalid --threads value " + std::to_string(n) +
              " (expected an integer in [0, 4096]; 0 = hardware "
              "concurrency)");
    }
    return static_cast<int>(n);
}

SweepTimer::SweepTimer(std::size_t count, const char* noun, int threads)
    : count_(count), noun_(noun), threads_(threads),
      start_(std::chrono::steady_clock::now())
{}

SweepTimer::~SweepTimer()
{
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start_)
            .count();
    std::fprintf(stderr, "[sweep] %zu %s on %d threads: %.1f ms\n", count_,
                 noun_, threads_, wall_ms);
}

}  // namespace flexnerfer
