/**
 * @file
 * fleet_mixed: a 2-shard x 1-worker ShardedRenderService under
 * Zipf-skewed, tiered TrafficZooStream traffic, with a batch window,
 * per-shard plan caches capped below the working set, and top-k
 * replication; every 4th request is a trajectory-session frame whose
 * pans sometimes cross the coherence break. It takes the serve/plan
 * paths serve_hot never does: misses, fused and delta compiles,
 * evictions, spills and power-of-two-choices routing.
 */
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "models/trajectory.h"
#include "open_loop.h"
#include "plan/frame_planner.h"
#include "scene_repertoire.h"
#include "serve/cluster.h"
#include "slo.h"
#include "workloads.h"

namespace perfbench {

using namespace flexnerfer;

namespace {

/*
 * The traffic: traffic_zoo's tier policy and default mix (10% paid, 30%
 * standard, 60% free) and its zipf scenario's exponent, 1.1. The load,
 * the batch window and the break chance are chosen so that one pass of
 * 100k requests shows about 300 plan compiles (delta and fused shapes,
 * each compiled once per shard and pass), as many evictions (the warmed
 * catalogue already overfills the 6-entry caches), 34% of requests
 * routed by power-of-two-choices among replicas, 1.5 requests per
 * dispatched batch and 1200 coherence breaks. Compiles saturate as the
 * pass lengthens (the shape space is finite), so the pass length sets
 * the compile share. The load is 3x per device, with 54% of requests
 * refused: at 1.3-2.25x per device the median modeled latency falls
 * between the standard and the free tier's latencies and moved 7-26%
 * (interquartile range over median) from seed to seed; at 3x, under 1%.
 */
constexpr std::size_t kRequests = 100000;
/** Offered load relative to ONE device (the fleet has two). */
constexpr double kLoad = 6.0;
constexpr std::size_t kShards = 2;
constexpr std::size_t kCacheCapacity = 6;
constexpr double kZipfExponent = 1.1;
/** Batch window, in mean scene service times. */
constexpr double kBatchWindow = 3.0;
/** Every kSessionStride-th request is a session frame. */
constexpr std::size_t kSessionStride = 4;
/** Catalogue indices the trajectory sessions view. */
constexpr std::size_t kSessionScenes[] = {1, 4, 9, 15};
/** Chance a session frame pans across the coherence break. */
constexpr double kBreakChance = 0.05;

/** One request of the stream (session frames carry a session slot). */
struct FleetRequest {
    SceneRequest request;
    std::size_t scene = 0;
    bool session = false;
    std::size_t session_slot = 0;
    Pose pose;
};

/** traffic_zoo's three SLO tiers (ZooPolicy, weighted-fair sharing),
 *  deadlines scaled to the heaviest scene. */
AdmissionPolicy
TieredPolicy(double max_est_ms)
{
    AdmissionPolicy policy;
    policy.max_queue_depth = 0;
    TierPolicy paid{"paid", 6.0, 3.0 * max_est_ms, 0.02, 256};
    TierPolicy standard{"standard", 3.0, 6.0 * max_est_ms, 0.10, 128};
    TierPolicy free_tier{"free", 1.0, 12.0 * max_est_ms, 1.0, 64};
    policy.tiers = {paid, standard, free_tier};
    return policy;
}

class FleetMixed final : public Workload
{
  public:
    explicit FleetMixed(std::uint64_t seed) : seed_(seed)
    {
        // Scene estimates are pure functions of the scene, so one
        // throwaway service prices the catalogue for the stream.
        ServeConfig config;
        config.threads = 1;
        RenderService probe(config);
        for (const NamedScene& scene : scenes_) {
            probe.RegisterScene(scene.name, scene.spec);
            est_ms_.push_back(EstimatedServiceMs(probe.WarmScene(scene.name)));
            mean_est_ms_ += est_ms_.back();
            max_est_ms_ = std::max(max_est_ms_, est_ms_.back());
        }
        mean_est_ms_ /= static_cast<double>(scenes_.size());
        stream_ = MakeStream(kLoad);
    }

    void
    Setup() override
    {
        std::tie(cluster_, sessions_) = MakeCluster();
        warm_.clear();
        for (const NamedScene& scene : scenes_) {
            warm_.push_back(cluster_->WarmScene(scene.name));
        }
    }

    void
    Teardown() override
    {
        cluster_.reset();
        sessions_.clear();
    }

    /** ~0.5 ms set-ups against a ~0.8 s pass: extra setup_s samples. */
    double SetupsPerPass() const override { return 48; }

    std::size_t
    RunPass(bool traced, std::vector<double>* /*op_us*/) override
    {
        Submit(*cluster_, sessions_, stream_, traced);
        results_ = Timed(traced ? &drain_ : nullptr,
                         [&] { return cluster_->WaitAll(); });
        return stream_.size();
    }

    std::size_t
    CheckPass() override
    {
        stats_ = cluster_->Snapshot();
        bool shards_ok = true;
        shard_stats_.clear();
        for (std::size_t i = 0; i < kShards; ++i) {
            shard_stats_.push_back(cluster_->shard(i).Snapshot());
            // One frame hit per dispatched batch and per accepted
            // session frame (session frames never batch).
            const ServiceStats& shard = shard_stats_.back();
            shards_ok = shards_ok &&
                        shard.cache.frame_hits ==
                            shard.batches_dispatched + shard.delta_frames +
                                shard.session_full_frames;
        }
        // Every ticket resolved exactly once, and completed plus
        // refused accounts for every submission.
        if (!shards_ok || results_.size() != stream_.size() ||
            stats_.submitted != stream_.size() ||
            stats_.completed + stats_.rejected_queue_full +
                    stats_.shed_deadline !=
                stats_.submitted) {
            return stream_.size();
        }
        const bool first = reference_.empty();
        std::size_t failed = 0;
        for (std::size_t i = 0; i < results_.size(); ++i) {
            const RenderResult& r = results_[i].result;
            const bool resolved = r.status == RequestStatus::kCompleted ||
                                  r.status == RequestStatus::kShedDeadline ||
                                  r.status == RequestStatus::kRejectedQueueFull;
            // Non-session frames replay their scene's warm frame on
            // whichever shard served them (fused or not).
            const bool cost_ok = stream_[i].session ||
                                 r.status != RequestStatus::kCompleted ||
                                 r.cost == warm_[stream_[i].scene];
            const ClusterRenderResult& ref =
                first ? results_[i] : reference_[i];
            const bool same = r.status == ref.result.status &&
                              r.latency_ms == ref.result.latency_ms &&
                              results_[i].shard == ref.shard;
            if (!resolved || !cost_ok || !same) ++failed;
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
        for (const ClusterRenderResult& r : reference_) {
            if (r.result.status != RequestStatus::kCompleted) continue;
            latencies.push_back(r.result.latency_ms);
            util.AddFrame(r.result.cost);
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
        report->Add("serve.cluster.submit_us", submit_.MeanUs(), "us");
        report->Add("serve.cluster.session_submit_us",
                    session_submit_.MeanUs(), "us");
        report->Add("serve.cluster.drain_us",
                    drain_.seconds * 1e6 /
                        static_cast<double>(submit_.calls +
                                            session_submit_.calls),
                    "us");
        report->Add("models.fuse_batch_us", FuseBatchUs(), "us");
        report->Add("models.delta_workload_us", DeltaWorkloadUs(), "us");
        report->Add("plan.compile_us", CompileUs(), "us");
        // Every dispatch replays a prepared frame (a frame hit); a
        // plan miss is a compile one of them needed first.
        double hits = 0.0;
        double misses = 0.0;
        double evictions = 0.0;
        for (const ServiceStats& shard : shard_stats_) {
            hits += static_cast<double>(shard.cache.frame_hits);
            misses += static_cast<double>(shard.cache.plan_misses);
            evictions += static_cast<double>(shard.cache.evictions);
        }
        report->Add("plan.hit_ratio", hits / (hits + misses), "ratio");
        report->Add("plan.evictions", evictions, "count");
        report->Add("serve.batch_occupancy", stats_.batch_occupancy,
                    "req/batch");
        report->Add("serve.delta_hit_rate", stats_.delta_hit_rate, "ratio");
        report->Add("serve.coherence_breaks",
                    static_cast<double>(stats_.coherence_breaks), "count");
        report->Add("serve.cluster.spill_rate", stats_.SpillRate(), "ratio");
        report->Add("serve.cluster.p2c_share",
                    static_cast<double>(stats_.p2c_routed) /
                        static_cast<double>(stats_.cluster_submitted),
                    "ratio");
    }

    void CorruptReference() override { warm_[stream_[0].scene].energy_mj += 1; }

  private:
    using Cluster = std::unique_ptr<ShardedRenderService>;

    /** A fresh cluster with the catalogue registered and one session
     *  per kSessionScenes entry. */
    std::pair<Cluster, std::vector<SessionId>>
    MakeCluster() const
    {
        ClusterConfig config;
        config.shards = kShards;
        config.threads_per_shard = 1;
        config.plan_cache_capacity = kCacheCapacity;
        config.admission = TieredPolicy(max_est_ms_);
        config.batch_window_ms = kBatchWindow * mean_est_ms_;
        config.replication.top_k = 2;
        config.replication.factor = 2;
        config.replication.refresh_every = 500;
        Cluster cluster = std::make_unique<ShardedRenderService>(config);
        for (const NamedScene& scene : scenes_) {
            cluster->RegisterScene(scene.name, scene.spec);
        }
        std::vector<SessionId> sessions;
        for (std::size_t scene : kSessionScenes) {
            sessions.push_back(cluster->OpenSession(scenes_[scene].name));
        }
        return {std::move(cluster), std::move(sessions)};
    }

    /** Zipf-skewed tiered arrivals at @p load; session frames pan. */
    std::vector<FleetRequest>
    MakeStream(double load) const
    {
        ZooScenarioConfig zoo;
        zoo.load = load;
        zoo.zipf_exponent = kZipfExponent;
        zoo.mix = {{0, 2, 0.10}, {1, 1, 0.30}, {2, 0, 0.60}};
        TrafficZooStream stream(seed_, mean_est_ms_, scenes_.size(), zoo);
        Rng pan(seed_ ^ 0x9E3779B97F4A7C15ull);
        const std::size_t n_sessions = std::size(kSessionScenes);
        std::vector<Pose> poses(n_sessions);
        std::vector<FleetRequest> requests(kRequests);
        for (std::size_t i = 0; i < kRequests; ++i) {
            const OpenLoopRequest drawn = stream.Next();
            FleetRequest& r = requests[i];
            r.scene = drawn.scene_index;
            r.request.tier = drawn.tier;
            r.request.priority = drawn.priority;
            r.request.arrival_ms = drawn.arrival_ms;
            if (i % kSessionStride == kSessionStride - 1) {
                r.session = true;
                r.session_slot = (i / kSessionStride) % n_sessions;
                r.scene = kSessionScenes[r.session_slot];
                Pose& pose = poses[r.session_slot];
                pose.x += pan.Bernoulli(kBreakChance) ? pan.Uniform(0.8, 1.0)
                                                      : pan.Uniform(0.0, 0.1);
                r.pose = pose;
            }
            r.request.scene = scenes_[r.scene].name;
        }
        return requests;
    }

    void
    Submit(ShardedRenderService& cluster, const std::vector<SessionId>& ids,
           const std::vector<FleetRequest>& stream, bool traced)
    {
        for (const FleetRequest& r : stream) {
            if (!r.session) {
                Timed(traced ? &submit_ : nullptr,
                      [&] { return cluster.Submit(r.request); });
                continue;
            }
            SubmitOptions options;
            options.session = ids[r.session_slot];
            options.pose = r.pose;
            Timed(traced ? &session_submit_ : nullptr,
                  [&] { return cluster.Submit(r.request, options); });
        }
    }

    /** Shed rate of a fresh fleet offered the stream at @p load. */
    double
    ShedRateAt(double load)
    {
        auto [cluster, ids] = MakeCluster();
        Submit(*cluster, ids, MakeStream(load), false);
        cluster->WaitAll();
        return cluster->Snapshot().ShedRate();
    }

    std::vector<NerfWorkload>
    CatalogueWorkloads() const
    {
        std::vector<NerfWorkload> workloads;
        for (const NamedScene& scene : scenes_) {
            workloads.push_back(
                BuildWorkload(scene.spec.model, scene.spec.params));
        }
        return workloads;
    }

    /** FuseBatch over every catalogue frame at 2..4 elements. */
    double
    FuseBatchUs() const
    {
        const std::vector<NerfWorkload> bases = CatalogueWorkloads();
        return ProbeUs(static_cast<double>(bases.size() * 3), [&] {
            for (const NerfWorkload& base : bases) {
                for (std::size_t elements = 2; elements <= 4; ++elements) {
                    FuseBatch(base, elements);
                }
            }
        });
    }

    /** DeltaWorkload over the session scenes at four reuse quanta. */
    double
    DeltaWorkloadUs() const
    {
        const std::vector<NerfWorkload> bases = CatalogueWorkloads();
        const std::size_t quanta[] = {16, 32, 48, 60};
        const auto calls = std::size(kSessionScenes) * std::size(quanta);
        return ProbeUs(static_cast<double>(calls), [&] {
            for (std::size_t scene : kSessionScenes) {
                for (std::size_t q : quanta) {
                    DeltaWorkload(bases[scene], q, 64);
                }
            }
        });
    }

    /** FramePlanner::Compile of every catalogue frame. */
    double
    CompileUs() const
    {
        const std::vector<NerfWorkload> workloads = CatalogueWorkloads();
        std::vector<std::unique_ptr<Accelerator>> accels;
        for (const NamedScene& scene : scenes_) {
            accels.push_back(MakeAccelerator(scene.spec));
        }
        return ProbeUs(static_cast<double>(workloads.size()), [&] {
            for (std::size_t i = 0; i < workloads.size(); ++i) {
                FramePlanner::Compile(*accels[i], workloads[i]);
            }
        });
    }

    const std::uint64_t seed_;
    const std::vector<NamedScene> scenes_ = PaperSceneRepertoire();
    std::vector<double> est_ms_;
    double mean_est_ms_ = 0.0;
    double max_est_ms_ = 0.0;
    std::vector<FleetRequest> stream_;

    Cluster cluster_;
    std::vector<SessionId> sessions_;
    std::vector<FrameCost> warm_;
    std::vector<ClusterRenderResult> results_;
    ClusterStats stats_;
    std::vector<ServiceStats> shard_stats_;
    std::vector<ClusterRenderResult> reference_;
    ClusterStats reference_stats_;

    LayerTime submit_;
    LayerTime session_submit_;
    LayerTime drain_;
};

}  // namespace

std::unique_ptr<Workload>
MakeFleetMixed(std::uint64_t seed)
{
    return std::make_unique<FleetMixed>(seed);
}

}  // namespace perfbench
