/**
 * @file
 * design_sweep: the Fig. 19 grid — the RTX 2080 Ti, NeuRex x 5 prune
 * ratios, and FlexNeRFer x 3 precisions x 5 prune ratios, each over the
 * 7 NeRF models: 147 frames per pass. Every frame runs cold through
 * BuildWorkload -> FramePlanner::Compile -> serial FramePlan::Execute
 * with no cache, the paper-reproduction path; serve and runtime do no
 * work here. The seed draws each frame's scene complexity within
 * +-kComplexityJitter of the nominal scene, so modeled frame latencies
 * differ (slightly) per seed.
 */
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "plan/frame_planner.h"
#include "plan/plan_cache.h"
#include "runtime/sweep_runner.h"
#include "slo.h"
#include "workloads.h"

namespace perfbench {

using namespace flexnerfer;

namespace {

constexpr double kPrunes[] = {0.0, 0.3, 0.5, 0.7, 0.9};
constexpr double kComplexityJitter = 0.005;
constexpr double kReplayLoad = 1.25;
constexpr std::size_t kReplayRequests = 100000;

/** One frame of the grid: its design point and its workload inputs. */
struct SweepFrame {
    std::size_t design = 0;  //!< index into the design accelerators
    std::string model;
    WorkloadParams params;
};

/** The 21 design points of Fig. 19, GPU first. */
std::vector<SweepPoint>
DesignPoints()
{
    std::vector<SweepPoint> points(1);
    points[0].backend = Backend::kGpu;
    for (double prune : kPrunes) {
        SweepPoint p;
        p.backend = Backend::kNeuRex;
        p.params.weight_prune_ratio = prune;
        points.push_back(p);
    }
    for (Precision precision :
         {Precision::kInt16, Precision::kInt8, Precision::kInt4}) {
        for (double prune : kPrunes) {
            SweepPoint p;
            p.backend = Backend::kFlexNeRFer;
            p.precision = precision;
            p.params.weight_prune_ratio = prune;
            points.push_back(p);
        }
    }
    return points;
}

class DesignSweep final : public Workload
{
  public:
    explicit DesignSweep(std::uint64_t seed) : seed_(seed)
    {
        Rng rng(seed);
        const std::vector<SweepPoint> points = DesignPoints();
        for (std::size_t design = 0; design < points.size(); ++design) {
            for (const std::string& model : AllModelNames()) {
                SweepFrame frame;
                frame.design = design;
                frame.model = model;
                frame.params = points[design].params;
                frame.params.scene_complexity =
                    1.0 + rng.Uniform(-kComplexityJitter, kComplexityJitter);
                frames_.push_back(frame);
            }
        }
    }

    /** Builds the accelerators and the PlanCache replay references. */
    void
    Setup() override
    {
        for (const SweepPoint& point : DesignPoints()) {
            accels_.push_back(MakeAccelerator(point));
        }
        cache_ = std::make_unique<PlanCache>();
        for (const SweepFrame& frame : frames_) {
            const PlanCache::PreparedFrame prepared = cache_->Prepare(
                *accels_[frame.design],
                BuildWorkload(frame.model, frame.params));
            cache_->Run(prepared);
            expected_.push_back(cache_->Run(prepared));  // a replay
        }
    }

    void
    Teardown() override
    {
        accels_.clear();
        cache_.reset();
        expected_.clear();
    }

    /** Set-up (~3 ms) outweighs a pass (~1.6 ms). */
    double SetupsPerPass() const override { return 0.1; }

    std::size_t
    RunPass(bool traced, std::vector<double>* op_us) override
    {
        results_.resize(frames_.size());
        for (std::size_t i = 0; i < frames_.size(); ++i) {
            results_[i] = TimedOp(op_us, [&] { return RunFrame(i, traced); });
        }
        return frames_.size();
    }

    std::size_t
    CheckPass() override
    {
        // Each cold frame must equal the PlanCache replay of that frame.
        std::size_t failed = 0;
        for (std::size_t i = 0; i < frames_.size(); ++i) {
            if (results_[i] != expected_[i]) ++failed;
        }
        if (reference_.empty()) reference_ = results_;
        return failed;
    }

    void
    AddModelMetrics(Report* report) override
    {
        std::vector<double> latencies;
        std::vector<double> est_ms;
        double total_ms = 0.0;
        MacUtil util;
        for (const FrameCost& cost : reference_) {
            latencies.push_back(cost.latency_ms);
            est_ms.push_back(EstimatedServiceMs(cost));
            total_ms += cost.latency_ms;
            util.AddFrame(cost);
        }
        AddModelLatencies(latencies, report);
        report->Add("model_qps",
                    1000.0 * static_cast<double>(reference_.size()) / total_ms,
                    "1/s");
        const auto shed_at = [&](double load) {
            return ReplayShedRate(est_ms, load, seed_, kReplayRequests);
        };
        report->Add("model_shed_rate", shed_at(kReplayLoad), "ratio");
        report->Add("model_capacity_load", CapacityLoad(shed_at), "load");
        AddPaperErr(report);
        report->Add("model_mac_util", util.Value(), "ratio");
    }

    void
    AddLayerMetrics(Report* report) override
    {
        report->Add("models.build_us", build_.MeanUs(), "us");
        report->Add("accel.plan_us", plan_.MeanUs(), "us");
        report->Add("plan.execute_us", execute_.MeanUs(), "us");
        // Standalone GemmEngine::RunFromShape over every engine op of
        // the grid's compiled plans.
        std::vector<std::pair<GemmEngine, GemmShape>> runs;
        std::size_t ops = 0;
        for (const SweepFrame& frame : frames_) {
            const FramePlan plan = FramePlanner::Compile(
                *accels_[frame.design],
                BuildWorkload(frame.model, frame.params));
            ops += plan.ops().size();
            for (const PlannedOp& op : plan.ops()) {
                if (op.uses_engine) {
                    runs.emplace_back(GemmEngine(op.engine_config), op.shape);
                }
            }
        }
        report->Add("gemm.shape_us",
                    ProbeUs(static_cast<double>(runs.size()), [&] {
                        for (const auto& [engine, shape] : runs) {
                            engine.RunFromShape(shape);
                        }
                    }),
                    "us");
        report->Add("plan.ops_per_frame",
                    static_cast<double>(ops) /
                        static_cast<double>(frames_.size()),
                    "count");
        report->Add("gemm.shape_runs", static_cast<double>(runs.size()),
                    "count");
    }

    void CorruptReference() override { expected_[0].energy_mj += 1; }

  private:
    /** One cold frame: build, compile, execute. */
    FrameCost
    RunFrame(std::size_t i, bool traced)
    {
        const SweepFrame& frame = frames_[i];
        const NerfWorkload workload = Timed(traced ? &build_ : nullptr, [&] {
            return BuildWorkload(frame.model, frame.params);
        });
        const FramePlan plan = Timed(traced ? &plan_ : nullptr, [&] {
            return FramePlanner::Compile(*accels_[frame.design], workload);
        });
        return Timed(traced ? &execute_ : nullptr,
                     [&] { return plan.Execute(); });
    }

    const std::uint64_t seed_;
    std::vector<SweepFrame> frames_;
    std::vector<std::unique_ptr<Accelerator>> accels_;
    std::unique_ptr<PlanCache> cache_;
    std::vector<FrameCost> expected_;  //!< PlanCache replays
    std::vector<FrameCost> results_;
    std::vector<FrameCost> reference_;
    LayerTime build_;
    LayerTime plan_;
    LayerTime execute_;
};

}  // namespace

std::unique_ptr<Workload>
MakeDesignSweep(std::uint64_t seed)
{
    return std::make_unique<DesignSweep>(seed);
}

}  // namespace perfbench
