#include "serve/cluster_controller.h"

#include "common/logging.h"

namespace flexnerfer {

ClusterConfig
ClusterController::WithTransport(ClusterConfig config, SimTransport* transport)
{
    config.transport = transport;
    return config;
}

ClusterController::ClusterController(const ClusterControllerConfig& config)
    : transport_(config.transport_seed, config.transport),
      cluster_(WithTransport(config.cluster, &transport_))
{
}

void
ClusterController::ScheduleFault(const FaultEvent& event)
{
    transport_.Schedule(event);
}

void
ClusterController::RegisterScene(const std::string& name,
                                 const SweepPoint& spec)
{
    cluster_.RegisterScene(name, spec);
}

FrameCost
ClusterController::WarmScene(const std::string& scene)
{
    return cluster_.WarmScene(scene);
}

std::size_t
ClusterController::PumpFaults(double now_ms)
{
    std::size_t replays = 0;
    for (const FaultEvent& death : transport_.ConsumeDeaths(now_ms)) {
        FLEX_CHECK_MSG(death.link < cluster_.shards(),
                       "chaos drill names shard " << death.link
                           << " but the cluster has " << cluster_.shards());
        if (!cluster_.alive(death.link) || cluster_.live_shards() < 2) {
            ++skipped_kills_;
            continue;
        }
        // Kill at the *scheduled* instant, not the observing request's
        // arrival: the kill point must be a pure function of the fault
        // schedule.
        replays += cluster_.KillShard(death.link, death.start_ms);
    }
    replayed_total_ += replays;
    return replays;
}

ClusterTicket
ClusterController::Submit(const SceneRequest& request)
{
    PumpFaults(request.arrival_ms);
    return cluster_.Submit(request);
}

ClusterRenderResult
ClusterController::Wait(ClusterTicket ticket)
{
    return cluster_.Wait(ticket);
}

std::vector<ClusterRenderResult>
ClusterController::WaitAll()
{
    return cluster_.WaitAll();
}

std::size_t
ClusterController::RollingResize(std::size_t new_shards)
{
    return cluster_.Resize(new_shards);
}

std::vector<wire::WireSnapshot>
ClusterController::PullShardSnapshots(double now_ms)
{
    std::vector<wire::WireSnapshot> rows;
    for (std::size_t i = 0; i < cluster_.shards(); ++i) {
        if (!cluster_.alive(i)) {
            continue;
        }
        const ServiceStats stats = cluster_.shard(i).Snapshot();
        const ServeLedger ledger = cluster_.shard(i).Ledger();

        wire::WireSnapshot snapshot;
        snapshot.shard = i;
        snapshot.submitted = stats.submitted;
        snapshot.accepted = stats.accepted;
        snapshot.rejected_queue_full = stats.rejected_queue_full;
        snapshot.shed_deadline = stats.shed_deadline;
        snapshot.completed = stats.completed;
        snapshot.busy_ms = ledger.busy_ms;
        snapshot.p50_latency_ms = stats.p50_ms;
        snapshot.p99_latency_ms = stats.p99_ms;

        // The summary crosses the shard's response channel like any
        // other result: pays latency (and any delay spike), never
        // fails, and adds its frame size to the link's byte count.
        transport_.Transmit(i, wire::SnapshotBytes(), now_ms,
                            SimTransport::Direction::kResponse);
        rows.push_back(snapshot);
    }
    return rows;
}

}  // namespace flexnerfer
