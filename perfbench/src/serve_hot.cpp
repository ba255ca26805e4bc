/**
 * @file
 * serve_hot: one RenderService with one worker and the warmed 21-scene
 * catalogue, offered 1.25x load by the serving benches' open-loop
 * Poisson stream. Every accepted request replays a prepared frame, so
 * the per-request plumbing in serve/runtime is what a pass times.
 */
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "open_loop.h"
#include "plan/plan_cache.h"
#include "runtime/thread_pool.h"
#include "scene_repertoire.h"
#include "serve/render_service.h"
#include "slo.h"
#include "workloads.h"

namespace perfbench {

using namespace flexnerfer;

namespace {

constexpr double kLoad = 1.25;
constexpr std::size_t kRequests = 200000;
/** Submissions between two WaitAll drains. */
constexpr std::size_t kDrainEvery = 1000;
constexpr int kHandoffs = 2000;

/** One request of the stream, with the scene it names. */
struct StreamRequest {
    SceneRequest request;
    std::size_t scene = 0;
};

/** The scene catalogue, warmed into @p service; returns warm costs. */
std::vector<FrameCost>
WarmCatalogue(RenderService& service)
{
    std::vector<FrameCost> warm;
    for (const NamedScene& scene : PaperSceneRepertoire()) {
        service.RegisterScene(scene.name, scene.spec);
        warm.push_back(service.WarmScene(scene.name));
    }
    return warm;
}

std::unique_ptr<RenderService>
MakeService()
{
    ServeConfig config;
    config.threads = 1;
    config.admission = ReplayPolicy();
    return std::make_unique<RenderService>(config);
}

/** The open-loop stream at @p load over a catalogue with @p est_ms. */
std::vector<StreamRequest>
MakeStream(std::uint64_t seed, double load, const std::vector<double>& est_ms)
{
    double mean_ms = 0.0;
    for (double est : est_ms) mean_ms += est;
    mean_ms /= static_cast<double>(est_ms.size());
    const std::vector<NamedScene> scenes = PaperSceneRepertoire();
    OpenLoopPoissonStream stream(seed, load, mean_ms, est_ms);
    std::vector<StreamRequest> requests(kRequests);
    for (StreamRequest& r : requests) {
        const OpenLoopRequest drawn = stream.Next();
        r.scene = drawn.scene_index;
        r.request.scene = scenes[drawn.scene_index].name;
        r.request.arrival_ms = drawn.arrival_ms;
        r.request.priority = drawn.priority;
        r.request.deadline_ms = drawn.deadline_ms;
    }
    return requests;
}

/**
 * Submits @p stream to @p service, draining every kDrainEvery
 * submissions: that bounds the backlog of unclaimed tickets (and so
 * peak memory) without changing any verdict, since admission runs in
 * virtual time in submission order. Returns results in stream order.
 */
std::vector<RenderResult>
Serve(RenderService& service, const std::vector<StreamRequest>& stream,
      LayerTime* submit, LayerTime* drain)
{
    std::vector<RenderResult> results;
    results.reserve(stream.size());
    for (std::size_t begin = 0; begin < stream.size(); begin += kDrainEvery) {
        const std::size_t end = std::min(stream.size(), begin + kDrainEvery);
        for (std::size_t i = begin; i < end; ++i) {
            Timed(submit, [&] { return service.Submit(stream[i].request); });
        }
        std::vector<RenderResult> drained =
            Timed(drain, [&] { return service.WaitAll(); });
        std::move(drained.begin(), drained.end(),
                  std::back_inserter(results));
    }
    return results;
}

class ServeHot final : public Workload
{
  public:
    explicit ServeHot(std::uint64_t seed) : seed_(seed) {}

    void
    Setup() override
    {
        service_ = MakeService();
        warm_ = WarmCatalogue(*service_);
        if (stream_.empty()) {
            for (const FrameCost& cost : warm_) {
                est_ms_.push_back(EstimatedServiceMs(cost));
            }
            stream_ = MakeStream(seed_, kLoad, est_ms_);
        }
    }

    void Teardown() override { service_.reset(); }

    /** Set-up is ~0.7 ms against a ~0.5 s pass: extra set-ups are
     *  cheap samples that steady the setup_s median. */
    double SetupsPerPass() const override { return 16; }

    std::size_t
    RunPass(bool traced, std::vector<double>* /*op_us*/) override
    {
        results_ = Serve(*service_, stream_, traced ? &submit_ : nullptr,
                         traced ? &drain_ : nullptr);
        return stream_.size();
    }

    std::size_t
    CheckPass() override
    {
        stats_ = service_->Snapshot();
        if (results_.size() != stream_.size() ||
            stats_.cache.frame_hits != stats_.accepted ||
            stats_.completed != stats_.accepted) {
            return stream_.size();
        }
        // Every completed request replays its scene's warm frame, and
        // every pass reproduces the first one's verdicts exactly.
        const bool first = reference_.empty();
        std::size_t failed = 0;
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const RenderResult& r = results_[i];
            const bool ok =
                (r.status != RequestStatus::kCompleted ||
                 r.cost == warm_[stream_[i].scene]) &&
                (first || (r.status == reference_[i].status &&
                           r.latency_ms == reference_[i].latency_ms));
            if (!ok) ++failed;
        }
        if (first) {
            reference_ = results_;
            reference_stats_ = stats_;
        }
        return failed;
    }

    void
    AddModelMetrics(Report* report) override
    {
        std::vector<double> latencies;
        MacUtil util;
        for (const RenderResult& r : reference_) {
            if (r.status != RequestStatus::kCompleted) continue;
            latencies.push_back(r.latency_ms);
            util.AddFrame(r.cost);
        }
        AddModelLatencies(latencies, report);
        report->Add("model_qps", reference_stats_.sustained_qps, "1/s");
        report->Add("model_shed_rate", reference_stats_.ShedRate(), "ratio");
        report->Add("model_capacity_load", CapacityLoad([&](double load) {
                        return ShedRateAt(load);
                    }),
                    "load");
        AddPaperErr(report);
        report->Add("model_mac_util", util.Value(), "ratio");
    }

    void
    AddLayerMetrics(Report* report) override
    {
        report->Add("serve.submit_us", submit_.MeanUs(), "us");
        report->Add("serve.drain_us",
                    drain_.seconds * 1e6 / static_cast<double>(submit_.calls),
                    "us");
        report->Add("serve.admit_us", AdmitReplayUs(), "us");
        report->Add("plan.replay_us", PlanReplayUs(), "us");
        report->Add("runtime.handoff_us", HandoffUs(), "us");
        report->Add("serve.accepted",
                    static_cast<double>(stats_.accepted), "count");
        report->Add("serve.refused",
                    static_cast<double>(stats_.rejected_queue_full +
                                        stats_.shed_deadline),
                    "count");
        report->Add("plan.frame_hit_ratio",
                    static_cast<double>(stats_.cache.frame_hits) /
                        static_cast<double>(stats_.accepted),
                    "ratio");
    }

    void CorruptReference() override { warm_[stream_[0].scene].energy_mj += 1; }

  private:
    /** Shed rate of the same service and stream at another load. */
    double
    ShedRateAt(double load) const
    {
        std::unique_ptr<RenderService> service = MakeService();
        WarmCatalogue(*service);
        Serve(*service, MakeStream(seed_, load, est_ms_), nullptr, nullptr);
        return service->Snapshot().ShedRate();
    }

    /** Standalone AdmissionController::Admit over the stream, us/call. */
    double
    AdmitReplayUs() const
    {
        return ProbeUs(static_cast<double>(stream_.size()), [&] {
            AdmissionController admission(ReplayPolicy());
            for (const StreamRequest& r : stream_) {
                admission.Admit(r.request.arrival_ms, est_ms_[r.scene],
                                r.request.deadline_ms, r.request.tier);
            }
        });
    }

    /** PlanCache::Run(PreparedFrame) per stream request, us/call. */
    double
    PlanReplayUs() const
    {
        PlanCache cache;
        std::vector<PlanCache::PreparedFrame> frames;
        for (const NamedScene& scene : PaperSceneRepertoire()) {
            const std::unique_ptr<Accelerator> accel =
                MakeAccelerator(scene.spec);
            frames.push_back(cache.Prepare(
                *accel, BuildWorkload(scene.spec.model, scene.spec.params)));
            cache.Run(frames.back());
        }
        return ProbeUs(static_cast<double>(stream_.size()), [&] {
            for (const StreamRequest& r : stream_) {
                cache.Run(frames[r.scene]);
            }
        });
    }

    /** ThreadPool::Enqueue -> task done round trip, us. */
    static double
    HandoffUs()
    {
        ThreadPool pool(1);
        return ProbeUs(kHandoffs, [&] {
            for (int i = 0; i < kHandoffs; ++i) pool.Submit([] {}).get();
        });
    }

    const std::uint64_t seed_;
    std::vector<double> est_ms_;
    std::vector<StreamRequest> stream_;
    std::unique_ptr<RenderService> service_;
    std::vector<FrameCost> warm_;
    std::vector<RenderResult> results_;
    ServiceStats stats_;
    std::vector<RenderResult> reference_;
    ServiceStats reference_stats_;
    LayerTime submit_;
    LayerTime drain_;
};

}  // namespace

std::unique_ptr<Workload>
MakeServeHot(std::uint64_t seed)
{
    return std::make_unique<ServeHot>(seed);
}

}  // namespace perfbench
