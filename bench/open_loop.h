/**
 * @file
 * Deterministic request-stream generators for the serving benches: the
 * shared open-loop Poisson stream plus the traffic-zoo scenario
 * generators (diurnal ramps, flash crowds, Zipf scene popularity,
 * tiered traffic mixes).
 *
 * bench/serving and bench/serving_sharded drive the same arrival
 * process: exponential interarrivals at a configured multiple of the
 * modeled service rate, a uniformly random scene per request, a small
 * priority spread, and a deadline that leaves slack when the queue is
 * short and sheds when the backlog outgrows it. Hoisting the generator
 * here keeps the two benches' schedules byte-identical for one seed —
 * the sharded bench serves exactly the stream the single-device bench
 * sheds — instead of drifting as two copies.
 *
 * bench/traffic_zoo composes the scenario knobs below into
 * production-shaped workloads (see TrafficZooStream): a
 * time-modulated Poisson process via thinning (diurnal ramps, flash
 * crowd windows), Zipf-distributed scene popularity, and an SLO tier
 * mix. Closed-loop clients need service feedback, so they live in the
 * bench driver, not here.
 *
 * Determinism: every stream is a pure function of (seed, mean service
 * time, per-scene estimates, scenario config); the fixed-seed Rng makes
 * every draw platform- and thread-count-independent, and thinning draws
 * one accept-uniform per candidate arrival so the sequence never
 * depends on how rates modulate between requests.
 */
#ifndef FLEXNERFER_BENCH_OPEN_LOOP_H_
#define FLEXNERFER_BENCH_OPEN_LOOP_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace flexnerfer {

/** One synthesized request of an open-loop arrival process. */
struct OpenLoopRequest {
    double arrival_ms = 0.0;    //!< absolute virtual arrival
    std::size_t scene_index = 0;
    std::size_t tier = 0;       //!< SLO tier (0 outside the zoo)
    int priority = 0;           //!< client-declared priority
    double deadline_ms = 0.0;   //!< relative to arrival (0 = tier/policy
                                //!< default)
};

/** Fixed-seed Poisson stream over a scene repertoire. */
class OpenLoopPoissonStream
{
  public:
    /**
     * Arrivals are exponential with mean @p mean_service_ms / @p load
     * (offered load is relative to one modeled device); deadlines are
     * 1.5x the drawn scene's estimate plus up to 6x the mean service
     * time of uniform slack.
     */
    OpenLoopPoissonStream(std::uint64_t seed, double load,
                          double mean_service_ms,
                          const std::vector<double>& scene_est_ms)
        : rng_(seed), mean_interarrival_ms_(mean_service_ms / load),
          mean_service_ms_(mean_service_ms), scene_est_ms_(scene_est_ms)
    {}

    OpenLoopRequest
    Next()
    {
        OpenLoopRequest request;
        arrival_ms_ += -mean_interarrival_ms_ *
                       std::log(1.0 - rng_.Uniform(0.0, 1.0));
        request.arrival_ms = arrival_ms_;
        request.scene_index = static_cast<std::size_t>(rng_.UniformInt(
            0, static_cast<std::int64_t>(scene_est_ms_.size()) - 1));
        request.priority = static_cast<int>(rng_.UniformInt(0, 2));
        request.deadline_ms = 1.5 * scene_est_ms_[request.scene_index] +
                              mean_service_ms_ * rng_.Uniform(0.0, 6.0);
        return request;
    }

  private:
    Rng rng_;
    double mean_interarrival_ms_;
    double mean_service_ms_;
    std::vector<double> scene_est_ms_;
    double arrival_ms_ = 0.0;
};

/** One tier of a zoo scenario's traffic mix. */
struct TierMixEntry {
    std::size_t tier = 0;   //!< index into the admission policy's tiers
    int priority = 0;       //!< client-declared priority of the tier
    double share = 1.0;     //!< fraction of arrivals (shares must sum ~1)
};

/**
 * Knobs of one traffic-zoo scenario. Everything composes: a diurnal
 * ramp can carry a flash crowd over a Zipf-skewed catalogue, all drawn
 * from one seed.
 */
struct ZooScenarioConfig {
    /** Baseline offered load relative to one modeled device. */
    double load = 1.0;

    /**
     * Diurnal modulation depth in [0, 1): the arrival rate swings
     * sinusoidally between load x (1 - amplitude) (trough, at t = 0)
     * and load x 1 (peak). 0 = flat.
     */
    double diurnal_amplitude = 0.0;
    /** Period of the diurnal swing, model ms (required when the
     *  amplitude is > 0). */
    double diurnal_period_ms = 0.0;

    /** Flash-crowd window in model ms; an empty window (end <= start)
     *  disables it. */
    double flash_start_ms = 0.0;
    double flash_end_ms = 0.0;
    /** Arrival-rate multiplier inside the window (>= 1). */
    double flash_rate_boost = 1.0;
    /** Probability an in-window request targets the hot scene. */
    double flash_hot_share = 0.0;
    /** The one scene the crowd hammers — the worst case for
     *  scene-affine HRW routing, whose home shard takes the burst. */
    std::size_t hot_scene = 0;

    /** Zipf popularity exponent over scene indices (scene 0 most
     *  popular); 0 = uniform. */
    double zipf_exponent = 0.0;

    /** Tier mix; empty = everything tier 0, priority 0. */
    std::vector<TierMixEntry> mix;
};

/**
 * Deterministic scenario stream: a non-homogeneous Poisson process
 * generated by thinning (candidates at the peak rate, each kept with
 * probability rate(t) / peak), scene choice by flash-crowd override
 * then Zipf CDF inversion, tier by mix share. Zoo requests carry no
 * explicit deadline — the per-tier admission defaults rule, which is
 * exactly the knob the zoo exists to exercise.
 */
class TrafficZooStream
{
  public:
    TrafficZooStream(std::uint64_t seed, double mean_service_ms,
                     std::size_t n_scenes, const ZooScenarioConfig& config)
        : rng_(seed), config_(config), mean_service_ms_(mean_service_ms)
    {
        FLEX_CHECK_MSG(config.load > 0.0, "zoo scenario needs load > 0");
        FLEX_CHECK_MSG(
            config.diurnal_amplitude >= 0.0 &&
                config.diurnal_amplitude < 1.0,
            "diurnal amplitude must be in [0, 1)");
        FLEX_CHECK_MSG(
            config.diurnal_amplitude == 0.0 ||
                config.diurnal_period_ms > 0.0,
            "a diurnal swing needs a positive period");
        FLEX_CHECK_MSG(config.flash_rate_boost >= 1.0,
                       "flash_rate_boost must be >= 1");
        // Peak arrival rate, for thinning: diurnal peak modulation is 1.
        peak_rate_per_ms_ =
            config.load / mean_service_ms * config.flash_rate_boost;
        // Zipf CDF over scene indices (exponent 0 degrades to uniform).
        zipf_cdf_.reserve(n_scenes);
        double total = 0.0;
        for (std::size_t i = 0; i < n_scenes; ++i) {
            total += 1.0 /
                     std::pow(static_cast<double>(i + 1),
                              config.zipf_exponent);
            zipf_cdf_.push_back(total);
        }
        for (double& c : zipf_cdf_) c /= total;
        // Tier mix CDF.
        double share_total = 0.0;
        for (const TierMixEntry& entry : config.mix) {
            share_total += entry.share;
            mix_cdf_.push_back(share_total);
        }
    }

    OpenLoopRequest
    Next()
    {
        // Thinning: candidates at the peak rate, kept with probability
        // rate(t) / peak. One uniform per candidate, always drawn, so
        // the stream is a pure function of the seed.
        for (;;) {
            arrival_ms_ += -std::log(1.0 - rng_.Uniform(0.0, 1.0)) /
                           peak_rate_per_ms_;
            const double keep =
                RatePerMs(arrival_ms_) / peak_rate_per_ms_;
            if (rng_.Uniform(0.0, 1.0) < keep) break;
        }

        OpenLoopRequest request;
        request.arrival_ms = arrival_ms_;
        request.scene_index = DrawScene(arrival_ms_);
        DrawTier(&request);
        return request;
    }

  private:
    bool
    InFlashWindow(double t_ms) const
    {
        return config_.flash_end_ms > config_.flash_start_ms &&
               t_ms >= config_.flash_start_ms &&
               t_ms < config_.flash_end_ms;
    }

    double
    RatePerMs(double t_ms) const
    {
        double rate = config_.load / mean_service_ms_;
        if (config_.diurnal_amplitude > 0.0) {
            // Trough at t = 0 ramping to the peak half a period later.
            const double phase =
                std::cos(2.0 * 3.14159265358979323846 * t_ms /
                         config_.diurnal_period_ms);
            rate *= 1.0 -
                    config_.diurnal_amplitude * 0.5 * (1.0 + phase);
        }
        if (InFlashWindow(t_ms)) rate *= config_.flash_rate_boost;
        return rate;
    }

    std::size_t
    DrawScene(double t_ms)
    {
        // The flash-crowd draw happens whenever the window is armed so
        // the random sequence does not depend on arrival timing.
        const bool hot = config_.flash_end_ms > config_.flash_start_ms &&
                         rng_.Uniform(0.0, 1.0) < config_.flash_hot_share;
        const double u = rng_.Uniform(0.0, 1.0);
        if (hot && InFlashWindow(t_ms)) return config_.hot_scene;
        const auto it =
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
        return it == zipf_cdf_.end()
                   ? zipf_cdf_.size() - 1
                   : static_cast<std::size_t>(it - zipf_cdf_.begin());
    }

    void
    DrawTier(OpenLoopRequest* request)
    {
        if (mix_cdf_.empty()) return;
        const double u = rng_.Uniform(0.0, 1.0);
        std::size_t pick = mix_cdf_.size() - 1;
        for (std::size_t i = 0; i < mix_cdf_.size(); ++i) {
            if (u < mix_cdf_[i]) {
                pick = i;
                break;
            }
        }
        request->tier = config_.mix[pick].tier;
        request->priority = config_.mix[pick].priority;
    }

    Rng rng_;
    const ZooScenarioConfig config_;
    double mean_service_ms_;
    double peak_rate_per_ms_ = 0.0;
    std::vector<double> zipf_cdf_;
    std::vector<double> mix_cdf_;
    double arrival_ms_ = 0.0;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_BENCH_OPEN_LOOP_H_
