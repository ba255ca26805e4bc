/**
 * @file
 * ClusterController: the cross-host control plane over a
 * ShardedRenderService and its SimTransport.
 *
 * The cluster (serve/cluster.h) knows how to route, replicate, kill,
 * and replay; the transport (serve/transport.h) knows which faults are
 * scheduled. The controller wires the two together the way an operator
 * process would:
 *
 *  - It owns the SimTransport, injects it into the ClusterConfig, and
 *    exposes ScheduleFault() so a drill script (or a chaos test) can
 *    register loss windows, delay spikes, partitions, and shard deaths
 *    up front.
 *  - Before routing each submission it pumps the fault schedule:
 *    every kShardDeath whose instant has passed is consumed exactly
 *    once and applied via KillShard at its *scheduled* virtual time —
 *    never at the observing request's arrival — so the kill point is a
 *    pure function of (fault schedule), not of traffic.
 *  - RollingResize() rebalances under load: outstanding tickets are
 *    resolved by the drain inside Resize and stay claimable, so a
 *    stream can keep submitting across the boundary.
 *  - PullShardSnapshots() fetches every live shard's telemetry summary
 *    over its response channel (one snapshot-sized message per shard;
 *    see serve/wire.h), which is how chaos drills reconcile merged
 *    cluster counters against shard-local truth.
 *
 * Determinism: the controller adds no randomness of its own. Deaths
 * apply in (start_ms, link) order at scheduled instants, snapshots pull
 * in shard order, and everything else delegates to the cluster — so the
 * repo-wide contract holds: fixed submission sequence + fixed fault
 * schedule => bit-identical verdicts, replay counts, and telemetry for
 * any threads_per_shard.
 *
 * Thread-safety: Submit() pumps deaths and KillShard must not race
 * other members, so drive the controller from one submitting thread
 * (Wait/WaitAll may be called from it too). This matches the benches:
 * parallelism lives inside the shards, not in the control plane.
 */
#ifndef FLEXNERFER_SERVE_CLUSTER_CONTROLLER_H_
#define FLEXNERFER_SERVE_CLUSTER_CONTROLLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "serve/cluster.h"
#include "serve/transport.h"
#include "serve/wire.h"

namespace flexnerfer {

/** Configuration of a ClusterController. */
struct ClusterControllerConfig {
    /** Cluster shape. `cluster.transport` is ignored: the controller
     *  installs its own SimTransport. */
    ClusterConfig cluster;
    /** Simulated network tuning. */
    TransportConfig transport;
    /** Seed for every transport draw (loss, jitter). */
    std::uint64_t transport_seed = 0x5EEDu;
};

/** Control plane over a ShardedRenderService (see file header). */
class ClusterController
{
  public:
    explicit ClusterController(const ClusterControllerConfig& config);

    ClusterController(const ClusterController&) = delete;
    ClusterController& operator=(const ClusterController&) = delete;

    /** Registers a fault with the transport (any order, any time). */
    void ScheduleFault(const FaultEvent& event);

    void RegisterScene(const std::string& name, const SweepPoint& spec);
    FrameCost WarmScene(const std::string& scene);

    /**
     * Pumps due shard deaths (see PumpFaults), then routes the request
     * through the cluster.
     */
    ClusterTicket Submit(const SceneRequest& request);

    ClusterRenderResult Wait(ClusterTicket ticket);
    std::vector<ClusterRenderResult> WaitAll();

    /**
     * Applies every scheduled kShardDeath with start_ms <= @p now_ms
     * that has not been applied yet, in (start_ms, link) order, each at
     * its own scheduled instant. A death is skipped (and counted in
     * skipped_kills()) when its shard is already dead or is the last
     * live shard — a drill can over-schedule without Fatal-ing the run.
     * Returns the number of tickets replayed. Fatal if a death names a
     * link outside the shard range: that is a malformed drill, not a
     * survivable fault.
     */
    std::size_t PumpFaults(double now_ms);

    /**
     * Resize under load: outstanding tickets are drained and resolved
     * by the cluster's Resize and stay claimable via Wait, so callers
     * keep streaming across the boundary. Returns the number of scenes
     * whose home moved.
     */
    std::size_t RollingResize(std::size_t new_shards);

    /**
     * Pulls every live shard's telemetry summary: each row crosses the
     * shard's response channel at wire::SnapshotBytes() (pays latency,
     * never fails). Rows arrive in shard-index order; dead shards are
     * skipped. @p now_ms is the virtual pull time (feeds the
     * transport's fault windows).
     */
    std::vector<wire::WireSnapshot> PullShardSnapshots(double now_ms);

    ClusterStats Snapshot() const { return cluster_.Snapshot(); }

    ShardedRenderService& cluster() { return cluster_; }
    const ShardedRenderService& cluster() const { return cluster_; }
    SimTransport& transport() { return transport_; }
    /** Tickets replayed by deaths this controller pumped. */
    std::uint64_t replayed_total() const { return replayed_total_; }
    /** Scheduled deaths skipped (shard already dead / last live). */
    std::uint64_t skipped_kills() const { return skipped_kills_; }

  private:
    static ClusterConfig WithTransport(ClusterConfig config,
                                       SimTransport* transport);

    SimTransport transport_;
    ShardedRenderService cluster_;
    std::uint64_t replayed_total_ = 0;
    std::uint64_t skipped_kills_ = 0;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_SERVE_CLUSTER_CONTROLLER_H_
