/**
 * @file
 * SimTransport: a seeded, deterministic network model on the virtual
 * clock for the cross-host cluster shape.
 *
 * The cluster stays one process, but every request/response between the
 * cluster router and a shard pays a simulated RPC hop over a per-shard
 * *link*. The model is a pure function of (seed, link, direction,
 * per-link message ordinal, virtual send time): no wall clock, no
 * global RNG — so a fault drill replays byte-identically for any
 * `--threads N`, and two transports built from the same seed agree
 * draw-for-draw.
 *
 * Fault injection is a *schedule*, not a dice roll: callers register
 * `FaultEvent`s (extra loss, delay spikes, partitions, shard deaths)
 * with explicit virtual-time windows before or during a run. Whether an
 * event applies to a message depends only on the message's virtual send
 * time, so the same schedule hits the same messages every run.
 *
 * Semantics:
 *  - Request direction (router -> shard): each attempt can be lost
 *    (base loss + active kLoss magnitudes) or blocked by an active
 *    partition; the sender retries with a fixed virtual backoff up to
 *    `max_attempts`, then reports a terminal transport failure.
 *  - Response direction (shard -> router): pays latency/jitter and
 *    delay spikes but never fails — the shard already holds the
 *    verdict, so the worst the return channel does is arrive late.
 *    This keeps admission verdicts independent of response-channel
 *    luck.
 *  - Transport delay does NOT re-time admission: the shard judges the
 *    request at its original virtual arrival. Delay is reported as
 *    `rpc_delay_ms` telemetry. This is what keeps the side-effect-free
 *    probe == Admit agreement exact under faults; loss and partitions
 *    instead gate *which* requests reach a shard at all.
 */
#ifndef FLEXNERFER_SERVE_TRANSPORT_H_
#define FLEXNERFER_SERVE_TRANSPORT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace flexnerfer {

/** Tuning for the simulated network. All times are virtual model-ms. */
struct TransportConfig {
    /** One-way delivery latency added to every message. */
    double base_latency_ms = 0.05;
    /** Uniform jitter in [0, jitter_ms) added per delivered message. */
    double jitter_ms = 0.0;
    /** Baseline per-attempt loss probability on every link. */
    double loss = 0.0;
    /** Virtual backoff between retransmit attempts. */
    double retry_backoff_ms = 0.1;
    /** Attempts before a request-direction send fails terminally. */
    std::size_t max_attempts = 4;
};

/**
 * One scheduled fault. `link` selects the shard link (kAllLinks for a
 * cluster-wide event); the window [start_ms, end_ms) is half-open in
 * virtual time. kShardDeath ignores end_ms and magnitude: it marks the
 * link's shard as dying at start_ms, to be consumed exactly once by
 * the cluster's Submit (serve/cluster.h), which kills the shard at
 * start_ms.
 */
struct FaultEvent {
    enum class Kind : std::uint8_t {
        kLoss,        //!< adds `magnitude` to per-attempt loss in-window
        kDelaySpike,  //!< adds `magnitude` ms to delivery in-window
        kPartition,   //!< drops every in-window attempt on the link
        kShardDeath,  //!< shard `link` dies at start_ms (end unused)
    };

    Kind kind = Kind::kLoss;
    std::size_t link = 0;
    double start_ms = 0.0;
    double end_ms = 0.0;
    double magnitude = 0.0;
};

/** Deterministic simulated RPC transport (see file comment). */
class SimTransport {
public:
    /** Wildcard link id: the fault applies to every shard link. */
    static constexpr std::size_t kAllLinks = static_cast<std::size_t>(-1);

    enum class Direction : std::uint8_t {
        kRequest = 0,
        kResponse = 1,
    };

    /** Outcome of one logical send (including retransmits). */
    struct Delivery {
        bool delivered = false;
        /** Virtual delivery time (valid when delivered). */
        double deliver_ms = 0.0;
        /** Attempts spent, including the successful one. */
        std::size_t attempts = 0;
    };

    /** Lifetime counters, split by direction. */
    struct Stats {
        std::uint64_t messages = 0;  //!< logical sends
        std::uint64_t delivered = 0;
        std::uint64_t failed = 0;  //!< request sends that exhausted retries
        std::uint64_t dropped_attempts = 0;
        std::uint64_t retries = 0;
        std::uint64_t bytes = 0;  //!< frame bytes (header included) delivered
    };

    explicit SimTransport(std::uint64_t seed,
                          const TransportConfig& config = TransportConfig());

    /** Registers a fault. Events may arrive in any order. */
    void Schedule(const FaultEvent& event);

    /**
     * Sends `bytes` over `link` at virtual time `send_ms`. Loss and
     * jitter draws hash (seed, link, direction, ordinal, attempt), where
     * the ordinal counts logical sends per (link, direction) — so
     * request-channel draws depend only on submission order and
     * response-channel draws only on wait order, never on cross-channel
     * interleaving.
     */
    Delivery Transmit(std::size_t link, std::size_t bytes, double send_ms,
                      Direction direction);

    /**
     * Returns scheduled kShardDeath events with start_ms <= now_ms that
     * have not been returned before, ordered by (start_ms, link). The
     * cluster calls this before routing each submission.
     */
    std::vector<FaultEvent> ConsumeDeaths(double now_ms);

    /** Snapshot of the lifetime counters (copied under the lock). */
    Stats stats() const;
    const TransportConfig& config() const { return config_; }
    std::uint64_t seed() const { return seed_; }

private:
    bool PartitionActive(std::size_t link, double at_ms) const;
    double ExtraLoss(std::size_t link, double at_ms) const;
    double ExtraDelay(std::size_t link, double at_ms) const;

    std::uint64_t seed_;
    TransportConfig config_;
    /**
     * Guards windows_/deaths_/ordinals_/stats_. Transmit is called from
     * both Submit (under the cluster mutex) and Finish (outside it), so
     * the transport serializes itself. Determinism is unaffected: draws
     * depend on per-(link, direction) ordinals, not on lock order.
     */
    mutable std::mutex mutex_;
    std::vector<FaultEvent> windows_;  //!< loss/spike/partition events
    std::vector<FaultEvent> deaths_;   //!< sorted by (start_ms, link)
    std::size_t deaths_consumed_ = 0;
    /** Logical-send ordinal per (link, direction). */
    std::map<std::pair<std::size_t, std::uint8_t>, std::uint64_t> ordinals_;
    Stats stats_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_SERVE_TRANSPORT_H_
