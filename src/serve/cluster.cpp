#include "serve/cluster.h"

#include <algorithm>
#include <utility>

#include "common/intern.h"
#include "common/logging.h"
#include "obs/metrics_registry.h"
#include "serve/transport.h"
#include "serve/wire.h"

namespace flexnerfer {

double
ClusterStats::SpillRate() const
{
    if (submitted == 0) return 0.0;
    return static_cast<double>(spilled) / static_cast<double>(submitted);
}

void
ClusterStats::PublishTo(MetricsRegistry& registry,
                        const std::string& prefix) const
{
    const auto count = [&](const std::string& key, std::uint64_t value) {
        registry.SetCounter(key, static_cast<double>(value));
    };
    PublishShared(registry, prefix);
    count(prefix + ".cluster_submitted", cluster_submitted);
    count(prefix + ".spilled", spilled);
    count(prefix + ".spill_recompiles", spill_recompiles);
    count(prefix + ".transport_failures", transport_failures);
    count(prefix + ".replayed", replayed);
    count(prefix + ".killed_shards", killed_shards);
    count(prefix + ".p2c_routed", p2c_routed);
    count(prefix + ".replica_served", replica_served);
    count(prefix + ".replication_refreshes", replication_refreshes);
    // Gated like the shared session block (PublishShared).
    if (sessions_opened > 0) {
        count(prefix + ".session_rehomes", session_rehomes);
    }
    registry.SetGauge(prefix + ".shards", static_cast<double>(shards));
    registry.SetGauge(prefix + ".live_shards",
                      static_cast<double>(live_shards));
    registry.SetGauge(prefix + ".replicated_scenes",
                      static_cast<double>(replicated_scenes));
    registry.SetGauge(prefix + ".spill_rate", SpillRate());

    for (std::size_t i = 0; i < per_shard.size(); ++i) {
        const ShardTelemetry& shard = per_shard[i];
        const std::string base = prefix + ".shard" + std::to_string(i);
        registry.SetGauge(base + ".alive", shard.alive ? 1.0 : 0.0);
        count(base + ".homed", shard.homed);
        count(base + ".spill_in", shard.spill_in);
        count(base + ".spill_out", shard.spill_out);
        count(base + ".spill_recompiles", shard.spill_recompiles);
        count(base + ".replica_in", shard.replica_in);
        count(base + ".replayed_in", shard.replayed_in);
        shard.service.PublishTo(registry, base);
    }
}

namespace {

ServeConfig
ReplicaConfig(const ClusterConfig& config)
{
    ServeConfig replica;
    replica.plan_cache_capacity = config.plan_cache_capacity;
    replica.admission = config.admission;
    replica.batch_window_ms = config.batch_window_ms;
    replica.max_batch_elements = config.max_batch_elements;
    return replica;
}

std::vector<std::unique_ptr<RenderService>>
MakeReplicas(const ClusterConfig& config, std::size_t shards)
{
    std::vector<std::unique_ptr<RenderService>> replicas;
    replicas.reserve(shards);
    for (std::size_t i = 0; i < shards; ++i) {
        replicas.push_back(
            std::make_unique<RenderService>(ReplicaConfig(config)));
    }
    return replicas;
}

}  // namespace

ShardedRenderService::ShardedRenderService(const ClusterConfig& config)
    : config_(config), router_(config.shards),
      shards_(MakeReplicas(config, config.shards)),
      alive_(config.shards, 1), aux_(config.shards)
{
    if (config.spill_recompile_factor < 0.0) {
        Fatal("spill_recompile_factor must be >= 0");
    }
    if (config.replication.top_k > 0 && config.replication.factor == 0) {
        Fatal("replication.factor must be >= 1 when replication is on");
    }
    // Every replica resolves the same tier list; the lifetime per-tier
    // aggregates are indexed by it from day one.
    const std::size_t tiers = ResolvedTiers(config.admission).size();
    retired_.ledger.tiers.resize(tiers);
    retired_.tier_latency.resize(tiers);
}

ShardedRenderService::~ShardedRenderService()
{
    // Resolve every outstanding cluster ticket before the replicas go
    // down.
    WaitAll();
}

void
ShardedRenderService::RegisterScene(const std::string& name,
                                    const SweepPoint& spec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto id = static_cast<SceneId>(scenes_.size());
    if (!scene_ids_.emplace(name, id).second) {
        Fatal("scene '" + name + "' registered twice with the cluster");
    }
    SceneDesc& desc = scenes_.emplace_back();
    desc.name = name;
    desc.spec = spec;
    desc.shard_ids.assign(shards_.size(), kNoScene);
    desc.pinned_on.assign(shards_.size(), 0);
    desc.rank = router_.Rank(name);
    // Register on the home shard eagerly (it validates the spec and the
    // alias guard); spill shards register lazily on first landing.
    EnsureRegisteredLocked(desc, LiveHomeLocked(desc));
}

SceneId
ShardedRenderService::ResolveLocked(const std::string& scene) const
{
    const auto it = scene_ids_.find(scene);
    if (it == scene_ids_.end()) {
        Fatal("request names scene '" + scene +
              "' not registered with the cluster");
    }
    return it->second;
}

void
ShardedRenderService::EnsureRegisteredLocked(SceneDesc& desc,
                                             std::size_t shard)
{
    if (desc.shard_ids[shard] != kNoScene) return;
    desc.shard_ids[shard] = shards_[shard]->RegisterScene(desc.name, desc.spec);
}

ShardedRenderService::SceneDesc&
ShardedRenderService::EnsureWarmLocked(SceneId id)
{
    SceneDesc& desc = scenes_[id];
    if (!desc.warmed) {
        // The router probes with the scene's latency estimate, so the
        // home pin must exist before the first routing decision. This
        // is an administrative warm-up: it does not count as a request.
        const std::size_t home = LiveHomeLocked(desc);
        EnsureRegisteredLocked(desc, home);
        desc.warm_cost = shards_[home]->WarmScene(desc.name);
        // Critical-path estimate (EstimatedServiceMs): the router's
        // probes and the spill surcharge price pipeline depth, not the
        // flat op sum, matching what RenderService::Submit admits with.
        desc.est_latency_ms = EstimatedServiceMs(desc.warm_cost);
        desc.pinned_on[home] = 1;
        desc.warmed = true;
    }
    return desc;
}

void
ShardedRenderService::PinLocked(SceneDesc& desc, std::size_t shard)
{
    EnsureRegisteredLocked(desc, shard);
    if (desc.pinned_on[shard]) return;
    // Administrative warm (no request counts move): the shard holds the
    // pin before real traffic or a probe prices against it.
    const FrameCost warmed = shards_[shard]->WarmScene(desc.name);
    FLEX_CHECK_MSG(warmed == desc.warm_cost,
                   "warm-up on shard " << shard << " diverged for scene '"
                                       << desc.name << "'");
    desc.pinned_on[shard] = 1;
}

double
ShardedRenderService::RecompileSurchargeLocked(const SceneDesc& desc,
                                               std::size_t shard) const
{
    return desc.pinned_on[shard]
               ? 0.0
               : config_.spill_recompile_factor * desc.est_latency_ms;
}

std::size_t
ShardedRenderService::LiveHomeLocked(const SceneDesc& desc) const
{
    for (const std::size_t shard : desc.rank) {
        if (alive_[shard]) return shard;
    }
    Fatal("cluster has no live shard left");
}

std::size_t
ShardedRenderService::LiveCountLocked() const
{
    std::size_t live = 0;
    for (const char a : alive_) {
        if (a) ++live;
    }
    return live;
}

FrameCost
ShardedRenderService::WarmScene(const std::string& scene)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return EnsureWarmLocked(ResolveLocked(scene)).warm_cost;
}

SessionId
ShardedRenderService::OpenSession(const std::string& scene,
                                  const CoherenceModel& model)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const SceneId id = ResolveLocked(scene);
    const std::size_t home = LiveHomeLocked(EnsureWarmLocked(id));
    SessionDesc session;
    session.scene = id;
    session.model = model;
    session.shard = home;
    // The shard-local session holds the coherence state (last pose,
    // delta plans); the cluster only remembers where it lives.
    session.shard_session = shards_[home]->OpenSession(scene, model);
    sessions_.push_back(session);
    return sessions_.size();
}

ClusterTicket
ShardedRenderService::Submit(const SceneRequest& request,
                             const SubmitOptions& options)
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Due shard deaths first, so the warm-up below lands on the live
    // home. Each kills at its *scheduled* instant, not this arrival:
    // the kill point is a pure function of the fault schedule. A drill
    // may over-schedule (dead or last live target: skipped), but
    // naming a shard that does not exist is a malformed drill.
    if (config_.transport != nullptr) {
        for (const FaultEvent& death :
             config_.transport->ConsumeDeaths(request.arrival_ms)) {
            FLEX_CHECK_MSG(death.link < shards_.size(),
                           "chaos drill names shard "
                               << death.link << " but the cluster has "
                               << shards_.size());
            if (alive_[death.link] && LiveCountLocked() >= 2) {
                KillShardLocked(death.link, death.start_ms);
            }
        }
    }
    // The request's one string lookup: routing keys by the id.
    const SceneId id = ResolveLocked(request.scene);
    SceneDesc& desc = EnsureWarmLocked(id);
    ++cluster_submitted_;
    // Popularity census drives the hot-scene replica sets (replays do
    // not re-count: the demand already did). On the refresh cadence the
    // request that completes it routes under the fresh sets.
    ++desc.submits;
    if (config_.replication.top_k > 0 &&
        config_.replication.refresh_every > 0 &&
        cluster_submitted_ % config_.replication.refresh_every == 0) {
        RefreshReplicationLocked();
    }

    // The routing decision gets its own root span; the replica's
    // request span nests under it through the ScopedTraceContext set
    // around the shard Submit below. Opened after the warm-up so warm
    // traces precede request traces deterministically (mutex_ makes
    // the cluster a serialized submitter).
    TraceRecorder* const recorder = TraceRecorder::Global();
    TraceContext route_ctx;
    double wall_route_begin_us = 0.0;
    if (recorder != nullptr) {
        route_ctx.trace_id = recorder->BeginTrace("req:" + request.scene);
        route_ctx.parent_span = SpanId(route_ctx.trace_id, "cluster_submit");
        wall_route_begin_us = recorder->NowWallUs();
    }

    const SessionDesc* session = nullptr;
    if (options.session != 0) {
        FLEX_CHECK_MSG(options.session <= sessions_.size(),
                       "unknown cluster session " << options.session);
        session = &sessions_[options.session - 1];
        FLEX_CHECK_MSG(session->scene == id,
                       "cluster session " << options.session
                                          << " belongs to scene '"
                                          << scenes_[session->scene].name
                                          << "', not '" << request.scene
                                          << "'");
    }

    // A session frame routes sticky to the session's home shard — the
    // coherence state lives in that replica's plan cache, so p2c and
    // spill would silently turn every frame into a full recompute.
    const std::size_t home =
        session != nullptr ? session->shard : LiveHomeLocked(desc);
    std::size_t chosen = home;
    bool spilled = false;
    bool cold_spill = false;
    bool via_replica = false;
    double surcharge_ms = 0.0;

    // One replica lock per candidate: Quote prices the request as the
    // shard's Submit would (batch-join marginal or solo estimate, plus
    // the caller's surcharge and the candidate's extra_ms) and probes
    // admission at that price.
    const auto quote = [&](std::size_t shard, double extra_ms) {
        SubmitOptions quoted = options;
        quoted.extra_service_ms += extra_ms;
        return shards_[shard]->Quote(desc.shard_ids[shard], request,
                                     desc.est_latency_ms, quoted);
    };
    using Outcome = AdmissionController::Outcome;
    if (session != nullptr) {
        if (recorder != nullptr) {
            recorder->RecordInstant(
                route_ctx, "route", "session_sticky", request.arrival_ms,
                {TraceArg::Int("session", static_cast<std::int64_t>(
                                              options.session)),
                 TraceArg::Int("shard",
                               static_cast<std::int64_t>(chosen))});
        }
    } else if (desc.replicas.size() >= 2) {
        // Power-of-two-choices between replicas: probe a rotating pair,
        // take the accepting one; both accept -> earlier virtual
        // completion (tie: first of the pair); both refuse -> the first
        // records the real verdict. Replicas hold the pin, so no
        // surcharge either way.
        const std::size_t n = desc.replicas.size();
        const std::uint64_t cursor = desc.p2c_cursor++;
        const std::size_t a = desc.replicas[cursor % n];
        const std::size_t b = desc.replicas[(cursor + 1) % n];
        const AdmissionController::Verdict va = quote(a, 0.0);
        const AdmissionController::Verdict vb = quote(b, 0.0);
        const bool a_ok = va.outcome == Outcome::kAccepted;
        const bool b_ok = vb.outcome == Outcome::kAccepted;
        if (a_ok != b_ok) {
            chosen = a_ok ? a : b;
        } else if (a_ok && vb.completion_ms < va.completion_ms) {
            chosen = b;
        } else {
            chosen = a;
        }
        via_replica = true;
        ++p2c_routed_;
        if (recorder != nullptr) {
            recorder->RecordInstant(
                route_ctx, "route", "p2c", request.arrival_ms,
                {TraceArg::Int("candidate_a", static_cast<std::int64_t>(a)),
                 TraceArg::Int("candidate_b", static_cast<std::int64_t>(b)),
                 TraceArg::Int("chosen", static_cast<std::int64_t>(chosen)),
                 TraceArg::Int("accepted", (a_ok || b_ok) ? 1 : 0)});
        }
    } else if (config_.enable_spill && LiveCountLocked() > 1) {
        const AdmissionController::Verdict at_home = quote(home, 0.0);
        if (recorder != nullptr) {
            recorder->RecordInstant(
                route_ctx, "route", "probe:shard" + std::to_string(home),
                request.arrival_ms,
                {TraceArg::Int("accepted",
                               at_home.outcome == Outcome::kAccepted ? 1
                                                                     : 0),
                 TraceArg::Num("wait_ms", at_home.wait_ms)});
        }
        if (at_home.outcome != Outcome::kAccepted) {
            // The spill candidate: the next live shard in the rank past
            // the live home (the rank's first live shard).
            std::size_t candidate = home;
            for (const std::size_t shard : desc.rank) {
                if (shard != home && alive_[shard]) {
                    candidate = shard;
                    break;
                }
            }
            const double candidate_surcharge =
                RecompileSurchargeLocked(desc, candidate);
            const AdmissionController::Verdict verdict =
                quote(candidate, candidate_surcharge);
            if (recorder != nullptr) {
                recorder->RecordInstant(
                    route_ctx, "route",
                    "probe:shard" + std::to_string(candidate),
                    request.arrival_ms,
                    {TraceArg::Int("accepted",
                                   verdict.outcome == Outcome::kAccepted
                                       ? 1
                                       : 0),
                     TraceArg::Num("surcharge_ms", candidate_surcharge)});
            }
            if (verdict.outcome == Outcome::kAccepted) {
                chosen = candidate;
                spilled = true;
                cold_spill = !desc.pinned_on[candidate];
                surcharge_ms = candidate_surcharge;
            }
            // Otherwise the home shard records the real shed/reject
            // verdict.
        }
    }

    if (recorder != nullptr) {
        recorder->RecordInstant(
            route_ctx, "route", "route", request.arrival_ms,
            {TraceArg::Int("home", static_cast<std::int64_t>(home)),
             TraceArg::Int("shard", static_cast<std::int64_t>(chosen)),
             TraceArg::Int("spilled", spilled ? 1 : 0),
             TraceArg::Int("cold_spill", cold_spill ? 1 : 0),
             TraceArg::Num("surcharge_ms", surcharge_ms)});
    }

    // The ticket's slot is appended first and routed into in place.
    const ClusterTicket ticket = pending_.end_seq();
    RouteToShardLocked(request, id, options, chosen, home, spilled,
                       surcharge_ms, via_replica, /*is_replay=*/false,
                       route_ctx, pending_.push_back());

    if (recorder != nullptr) {
        TraceContext root_ctx;
        root_ctx.trace_id = route_ctx.trace_id;
        recorder->RecordSpan(root_ctx, "route", "cluster_submit",
                             request.arrival_ms, request.arrival_ms,
                             wall_route_begin_us, recorder->NowWallUs(),
                             {TraceArg::Str("scene", request.scene)});
    }
    return ticket;
}

void
ShardedRenderService::RouteToShardLocked(
    const SceneRequest& request, SceneId scene,
    const SubmitOptions& options, std::size_t shard, std::size_t home,
    bool spilled, double surcharge_ms, bool via_replica, bool is_replay,
    const TraceContext& route_ctx, Pending& pending)
{
    SceneDesc& desc = scenes_[scene];
    EnsureRegisteredLocked(desc, shard);
    TraceRecorder* const recorder = TraceRecorder::Global();

    // The shard sees its own session handle, not the cluster's, and the
    // spill/replay surcharge rides the same extra_service_ms lane a
    // caller-supplied surcharge does (they add). Translated at submit
    // time so a replay lands on the session's *current* shard session.
    SubmitOptions shard_options = options;
    shard_options.extra_service_ms += surcharge_ms;
    if (options.session != 0) {
        shard_options.session = sessions_[options.session - 1].shard_session;
    }

    pending.scene = scene;
    pending.tier = request.tier;
    pending.arrival_ms = request.arrival_ms;
    pending.options = options;
    pending.shard = shard;
    pending.home_shard = home;
    pending.spilled = spilled;
    pending.spill_surcharge_ms = surcharge_ms;
    pending.replayed = pending.replayed || is_replay;

    // The cross-host hop: the request pays the link model, sized as
    // its frame (serve/wire.h). Delay is telemetry; loss is terminal
    // once the retransmit budget runs out (see serve/transport.h).
    if (config_.transport != nullptr) {
        const SimTransport::Delivery delivery = config_.transport->Transmit(
            shard, wire::RequestBytes(request), request.arrival_ms,
            SimTransport::Direction::kRequest);
        if (!delivery.delivered) {
            ++transport_failures_;
            if (recorder != nullptr) {
                recorder->RecordInstant(
                    route_ctx, "transport", "rpc_failed",
                    request.arrival_ms,
                    {TraceArg::Int("shard",
                                   static_cast<std::int64_t>(shard)),
                     TraceArg::Int("attempts",
                                   static_cast<std::int64_t>(
                                       delivery.attempts))});
            }
            pending.transport_failed = true;
            pending.accepted = false;
            pending.result = std::make_unique<RenderResult>();
            pending.result->status = RequestStatus::kFailedTransport;
            pending.result->scene = InternName(request.scene);
            pending.result->tier = request.tier;
            return;
        }
        pending.rpc_delay_ms += delivery.deliver_ms - request.arrival_ms;
        if (recorder != nullptr) {
            recorder->RecordInstant(
                route_ctx, "transport", "rpc", request.arrival_ms,
                {TraceArg::Int("shard", static_cast<std::int64_t>(shard)),
                 TraceArg::Int("attempts",
                               static_cast<std::int64_t>(delivery.attempts)),
                 TraceArg::Num("delay_ms",
                               delivery.deliver_ms - request.arrival_ms)});
        }
    }

    SubmitReceipt receipt;
    {
        // The replica adopts this trace: its request span parents
        // under the cluster_submit root span.
        ScopedTraceContext scoped(route_ctx, request.arrival_ms);
        receipt = shards_[shard]->Submit(desc.shard_ids[shard], request,
                                         shard_options);
    }
    // The replay bookkeeping KillShard needs comes straight from the
    // verdict the shard admitted with.
    const AdmissionController::Verdict& verdict = receipt.verdict;
    pending.shard_ticket = receipt.ticket;
    pending.reuse = receipt.session_frame.reuse;
    pending.savings_ms = receipt.session_frame.savings_ms;
    pending.delta = receipt.session_frame.delta;
    pending.coherence_break = receipt.session_frame.coherence_break;
    pending.batch = receipt.batch;
    pending.accepted =
        verdict.outcome == AdmissionController::Outcome::kAccepted;
    pending.completion_ms = verdict.completion_ms;
    pending.deadline_abs_ms = verdict.deadline_ms > 0.0
                                  ? verdict.arrival_ms + verdict.deadline_ms
                                  : 0.0;

    if (is_replay) {
        ++aux_[shard].replayed_in;
    } else {
        ++aux_[home].homed;
        if (spilled) {
            ++aux_[shard].spill_in;
            ++aux_[home].spill_out;
            if (surcharge_ms > 0.0) ++aux_[shard].spill_recompiles;
        } else if (via_replica && shard != home) {
            ++aux_[shard].replica_in;
        }
    }
    if (spilled || surcharge_ms > 0.0) {
        // The first touch compiled and pinned the scene there: later
        // spills or replays to this shard pay no recompile surcharge.
        desc.pinned_on[shard] = 1;
    }
}

void
ShardedRenderService::Finish(const Pending& pending,
                             ClusterRenderResult& out)
{
    out.shard = pending.shard;
    out.home_shard = pending.home_shard;
    out.spilled = pending.spilled;
    out.spill_surcharge_ms = pending.spill_surcharge_ms;
    out.replayed = pending.replayed;
    out.transport_failed = pending.transport_failed;
    out.rpc_delay_ms = pending.rpc_delay_ms;
    // The result rides the link home and pays the response leg
    // (latency only — the verdict already exists, so the return channel
    // never fails; see serve/transport.h).
    if (config_.transport != nullptr && !pending.transport_failed) {
        const double done_ms = pending.arrival_ms + out.result.latency_ms;
        const SimTransport::Delivery delivery = config_.transport->Transmit(
            pending.shard, wire::ResultBytes(out.result), done_ms,
            SimTransport::Direction::kResponse);
        out.rpc_delay_ms += delivery.deliver_ms - done_ms;
    }
}

ClusterRenderResult
ShardedRenderService::Wait(ClusterTicket ticket)
{
    Pending pending;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Wraps past size() for a ticket older than the front.
        const std::uint64_t index = ticket - pending_.front_seq();
        FLEX_CHECK_MSG(index < pending_.size() && !pending_[index].claimed,
                       "unknown or already-consumed cluster ticket "
                           << ticket);
        Pending& slot = pending_[index];
        pending = std::move(slot);
        slot.claimed = true;
        while (!pending_.empty() && pending_.front().claimed) {
            pending_.pop_front();
        }
    }
    ClusterRenderResult out;
    out.result = pending.result != nullptr
                     ? std::move(*pending.result)
                     : shards_[pending.shard]->Wait(pending.shard_ticket);
    Finish(pending, out);
    return out;
}

std::vector<ClusterRenderResult>
ShardedRenderService::WaitAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto drains = DrainLiveLocked();
    // Finish every slot in ticket order and pop it, so the store's
    // chunks recycle for the next stream.
    std::vector<ClusterRenderResult> results;
    results.reserve(pending_.size());
    for (; !pending_.empty(); pending_.pop_front()) {
        Pending& pending = pending_.front();
        if (pending.claimed) continue;
        ClusterRenderResult& out = results.emplace_back();
        out.result = pending.result != nullptr
                         ? std::move(*pending.result)
                         : drains[pending.shard]->Take(pending.shard_ticket);
        Finish(pending, out);
    }
    return results;
}

std::vector<std::unique_ptr<RenderService::Drain>>
ShardedRenderService::DrainLiveLocked()
{
    // Holding several service locks is safe: nothing else takes a
    // second service lock while holding one.
    std::vector<std::unique_ptr<RenderService::Drain>> drains(
        shards_.size());
    for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
        if (alive_[shard]) {
            drains[shard] =
                std::make_unique<RenderService::Drain>(*shards_[shard]);
        }
    }
    return drains;
}

std::size_t
ShardedRenderService::KillShard(std::size_t shard, double now_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return KillShardLocked(shard, now_ms);
}

std::size_t
ShardedRenderService::KillShardLocked(std::size_t shard, double now_ms)
{
    FLEX_CHECK_MSG(shard < shards_.size(),
                   "shard " << shard << " out of range (cluster has "
                            << shards_.size() << ")");
    FLEX_CHECK_MSG(alive_[shard], "shard " << shard << " is already dead");
    FLEX_CHECK_MSG(LiveCountLocked() >= 2,
                   "cannot kill the last live shard");

    TraceRecorder* const recorder = TraceRecorder::Global();
    TraceContext drill_ctx;
    if (recorder != nullptr) {
        drill_ctx.trace_id =
            recorder->BeginTrace("drill:kill:shard" + std::to_string(shard));
    }

    // Resolve every ticket the dying replica holds. Requests whose
    // virtual completion lies beyond the death instant never finished:
    // they replay. Everything else (completed, shed, rejected, or
    // already resolved) keeps its original result.
    struct Phantom {
        std::size_t index = 0;  //!< into pending_
        double latency_ms = 0.0;
        std::size_t batch_elements = 1;
    };
    // The walk is in ticket order, so replays are too.
    std::vector<Phantom> phantoms;
    {
        RenderService::Drain drain(*shards_[shard]);
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            Pending& pending = pending_[i];
            if (pending.claimed || pending.result != nullptr ||
                pending.shard != shard) {
                continue;
            }
            RenderResult result = drain.Take(pending.shard_ticket);
            if (pending.accepted && pending.completion_ms > now_ms) {
                phantoms.push_back(
                    Phantom{i, result.latency_ms, result.batch_elements});
            } else {
                pending.result =
                    std::make_unique<RenderResult>(std::move(result));
            }
        }
    }

    // Merge the dead replica's ledger into the lifetime ledger. Its
    // capacity contribution is its own span — it served alone for
    // exactly that long (see ClusterStats::utilization) — taken before
    // the expunge below, phantom completions included.
    ServeLedger ledger;
    FoldReplicaLocked(shard, ledger);
    retired_.capacity_ms += ledger.SpanMs();

    // A ticket that replays never finished here: the replica's ledger
    // recorded a *phantom* completion whose virtual instant lies beyond
    // the death. Expunge everything it booked — its acceptance,
    // completion and latency sample, and its session frame (pricing
    // path, reuse, savings) or batch membership — so lifetime counters,
    // ratios and histograms count real work exactly once. `submitted`
    // keeps both admissions — reconciled by the `replayed` term (see
    // ClusterStats) — while busy_ms, the latest completion, the largest
    // batch and the exact histogram min/max remain high-water marks.
    ledger.accepted -= phantoms.size();
    ledger.completed -= phantoms.size();
    std::unordered_map<std::uint32_t, std::size_t> batch_phantoms;
    for (const Phantom& phantom : phantoms) {
        const Pending& pending = pending_[phantom.index];
        retired_.latency.Expunge(phantom.latency_ms);
        retired_.tier_latency[pending.tier].Expunge(phantom.latency_ms);
        --ledger.tiers[pending.tier].accepted;
        const std::size_t elements = phantom.batch_elements;
        if (pending.options.session != 0) {
            --ledger.session_frames;
            --(pending.delta ? ledger.delta_frames
                             : ledger.session_full_frames);
            if (pending.coherence_break) --ledger.coherence_breaks;
            ledger.session_reuse_sum -= pending.reuse;
            ledger.delta_savings_ms -= pending.savings_ms;
        } else if (pending.batch != 0) {
            --ledger.batched_accepted;
            if (elements >= 2) --ledger.batched_requests;
            // A batch whose every member replays served nobody here.
            if (++batch_phantoms[pending.batch] == elements) {
                --ledger.batches_dispatched;
                if (elements >= 2) --ledger.fused_batches;
            }
        }
    }
    retired_.ledger.Merge(ledger);

    shards_[shard].reset();
    alive_[shard] = 0;
    ++killed_shards_;

    // Re-home: the dead slot drops out of every scene's live rank and
    // every replica set; warmed scenes whose live home moved re-warm
    // there so probes keep pricing against a real pin (administrative
    // — no request counts move).
    for (SceneDesc& desc : scenes_) {
        desc.shard_ids[shard] = kNoScene;
        desc.pinned_on[shard] = 0;
        desc.replicas.erase(
            std::remove(desc.replicas.begin(), desc.replicas.end(), shard),
            desc.replicas.end());
        if (desc.warmed) PinLocked(desc, LiveHomeLocked(desc));
    }

    // Sessions stranded on the dead shard re-home with their scenes:
    // each reopens fresh on the new live home, so the next frame is a
    // full recompute — the trajectory replays from its last full frame.
    RehomeSessionsLocked(drill_ctx, now_ms, /*force=*/false);

    // Replay, in ticket order, at the death instant: new live home
    // (the re-homed session's shard for session frames), remaining
    // deadline budget, spill surcharge if the home is cold (a session
    // replay never pays it: re-homing just pinned the scene there).
    for (const Phantom& phantom : phantoms) {
        Pending& pending = pending_[phantom.index];
        const SceneDesc& desc = scenes_[pending.scene];
        // Rebuild the request and options from the ticket's scalars.
        SceneRequest request;
        request.scene = desc.name;
        request.tier = pending.tier;
        request.arrival_ms = now_ms;
        const SubmitOptions options = pending.options;
        const std::size_t target =
            options.session != 0 ? sessions_[options.session - 1].shard
                                 : LiveHomeLocked(desc);
        if (pending.deadline_abs_ms > 0.0) {
            // The budget left of the verdict's resolved deadline (none
            // resolved resolves none again on any replica). A blown one
            // replays with an epsilon budget: the new shard sheds it
            // honestly instead of rejudging it under a fresh default.
            request.deadline_ms =
                std::max(pending.deadline_abs_ms - now_ms, 1e-9);
        }
        const double surcharge_ms = RecompileSurchargeLocked(desc, target);
        pending.rpc_delay_ms = 0.0;
        pending.spilled = false;
        pending.spill_surcharge_ms = surcharge_ms;
        RouteToShardLocked(request, pending.scene, options, target, target,
                           /*spilled=*/false, surcharge_ms,
                           /*via_replica=*/false, /*is_replay=*/true,
                           drill_ctx, pending);
        ++replayed_;
        if (recorder != nullptr) {
            recorder->RecordInstant(
                drill_ctx, "drill", "replay", now_ms,
                {TraceArg::Str("scene", request.scene),
                 TraceArg::Int("target", static_cast<std::int64_t>(target)),
                 TraceArg::Num("surcharge_ms", surcharge_ms)});
        }
    }

    if (recorder != nullptr) {
        recorder->RecordInstant(
            drill_ctx, "drill", "shard_death", now_ms,
            {TraceArg::Int("shard", static_cast<std::int64_t>(shard)),
             TraceArg::Int("replayed",
                           static_cast<std::int64_t>(phantoms.size())),
             TraceArg::Int("live",
                           static_cast<std::int64_t>(LiveCountLocked()))});
    }
    return phantoms.size();
}

void
ShardedRenderService::RehomeSessionsLocked(const TraceContext& ctx,
                                           double now_ms, bool force)
{
    TraceRecorder* const recorder = TraceRecorder::Global();
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        SessionDesc& session = sessions_[i];
        const SceneDesc& desc = scenes_[session.scene];
        const std::size_t target = LiveHomeLocked(desc);
        if (!force && alive_[session.shard] && session.shard == target) {
            continue;
        }
        session.shard = target;
        // A fresh shard session holds no last pose: the trajectory's
        // next frame is a full recompute (the coherence chain restarts
        // from it), which is the honest cost of losing the warm state.
        session.shard_session =
            shards_[target]->OpenSession(desc.name, session.model);
        ++session.rehomes;
        ++session_rehomes_;
        if (recorder != nullptr && ctx.active()) {
            recorder->RecordInstant(
                ctx, "drill", "session_rehome", now_ms,
                {TraceArg::Int("session", static_cast<std::int64_t>(i + 1)),
                 TraceArg::Int("shard",
                               static_cast<std::int64_t>(target))});
        }
    }
}

std::vector<std::string>
ShardedRenderService::RefreshReplication()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return RefreshReplicationLocked();
}

std::vector<std::string>
ShardedRenderService::RefreshReplicationLocked()
{
    ++replication_refreshes_;
    // Census order: submissions descending, name ascending on ties — a
    // pure function of the recorded history, so two clusters with the
    // same traffic derive the same sets.
    std::vector<SceneId> by_popularity;
    for (SceneId id = 0; id < scenes_.size(); ++id) {
        if (scenes_[id].submits > 0) by_popularity.push_back(id);
    }
    std::sort(by_popularity.begin(), by_popularity.end(),
              [this](SceneId a, SceneId b) {
                  const SceneDesc& da = scenes_[a];
                  const SceneDesc& db = scenes_[b];
                  if (da.submits != db.submits) {
                      return da.submits > db.submits;
                  }
                  return da.name < db.name;
              });
    if (by_popularity.size() > config_.replication.top_k) {
        by_popularity.resize(config_.replication.top_k);
    }
    std::vector<char> hot(scenes_.size(), 0);
    for (const SceneId id : by_popularity) hot[id] = 1;

    for (SceneId id = 0; id < scenes_.size(); ++id) {
        SceneDesc& desc = scenes_[id];
        if (!hot[id]) {
            // Demoted scenes fall back to plain home routing; their
            // extra pins stay (a pin is just a warm plan-cache entry).
            desc.replicas.clear();
            continue;
        }
        EnsureWarmLocked(id);
        desc.replicas.clear();
        for (const std::size_t shard : desc.rank) {
            if (!alive_[shard]) continue;
            PinLocked(desc, shard);
            desc.replicas.push_back(shard);
            if (desc.replicas.size() == config_.replication.factor) break;
        }
    }
    std::vector<std::string> names;
    names.reserve(by_popularity.size());
    for (const SceneId id : by_popularity) names.push_back(scenes_[id].name);
    return names;
}

std::vector<std::size_t>
ShardedRenderService::ReplicasOf(const std::string& scene) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = scene_ids_.find(scene);
    FLEX_CHECK_MSG(it != scene_ids_.end(),
                   "scene '" << scene << "' not registered");
    return scenes_[it->second].replicas;
}

void
ShardedRenderService::FoldReplicaLocked(std::size_t i, ServeLedger& epoch)
{
    epoch.Merge(shards_[i]->Ledger());
    retired_.spilled += aux_[i].spill_in;
    retired_.spill_recompiles += aux_[i].spill_recompiles;
    retired_.replica_served += aux_[i].replica_in;
    retired_.latency.Merge(shards_[i]->latency_histogram());
    for (std::size_t t = 0; t < retired_.tier_latency.size(); ++t) {
        retired_.tier_latency[t].Merge(shards_[i]->tier_latency_histogram(t));
    }
    aux_[i] = ShardAux{};
}

std::size_t
ShardedRenderService::Resize(std::size_t new_shards)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (new_shards == 0) Fatal("a cluster needs at least one shard");

    // Drain: resolve every outstanding ticket against the old replicas.
    // Results are retained, so tickets issued before the resize stay
    // claimable after it. (Dead shards hold no unresolved tickets —
    // KillShard resolved or replayed them.)
    {
        const auto drains = DrainLiveLocked();
        for (std::size_t i = 0; i < pending_.size(); ++i) {
            Pending& pending = pending_[i];
            if (pending.claimed || pending.result != nullptr) continue;
            pending.result = std::make_unique<RenderResult>(
                drains[pending.shard]->Take(pending.shard_ticket));
        }
    }

    // Merge the retiring live replicas' ledgers into the lifetime
    // ledger, so Snapshot keeps reporting cluster-lifetime totals
    // across rebalances.
    const std::size_t live_before = LiveCountLocked();
    ServeLedger epoch;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        if (!alive_[i]) continue;
        FoldReplicaLocked(i, epoch);
    }
    retired_.ledger.Merge(epoch);
    // The epoch's capacity: its own live shard count times its own
    // span. Accumulated per epoch so utilization stays a fraction of
    // the shard-time that actually existed, whatever Resize does later.
    retired_.capacity_ms +=
        static_cast<double>(live_before) * epoch.SpanMs();

    // Count the scenes whose live home moves — the HRW minimum (growing
    // relocates only scenes topping out on the added shards, shrinking
    // only scenes homed on removed ones; reviving a killed slot moves
    // back only what it homed).
    const ShardRouter new_router(new_shards);
    std::size_t moved = 0;
    for (const SceneDesc& desc : scenes_) {
        if (LiveHomeLocked(desc) != new_router.Home(desc.name)) ++moved;
    }

    router_ = new_router;
    shards_ = MakeReplicas(config_, new_shards);
    alive_.assign(new_shards, 1);
    aux_.assign(new_shards, ShardAux{});
    for (SceneId id = 0; id < scenes_.size(); ++id) {
        SceneDesc& desc = scenes_[id];
        desc.shard_ids.assign(new_shards, kNoScene);
        desc.pinned_on.assign(new_shards, 0);
        desc.rank = router_.Rank(desc.name);
        desc.replicas.clear();
        const bool was_warm = desc.warmed;
        desc.warmed = false;
        EnsureRegisteredLocked(desc, desc.rank[0]);
        // Re-warm only scenes that were warm: never-touched scenes stay
        // cold until their first request, exactly as before the resize.
        if (was_warm) EnsureWarmLocked(id);
    }
    // The rebuild invalidated every shard-local session handle: every
    // session reopens fresh on its scene's new home (next frame fully
    // recomputes), whether or not that home moved.
    RehomeSessionsLocked(TraceContext{}, 0.0, /*force=*/true);
    // The census survives the rebalance: re-derive the hot replica
    // sets against the new live topology.
    if (config_.replication.top_k > 0) RefreshReplicationLocked();
    return moved;
}

ClusterStats
ShardedRenderService::Snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ClusterStats stats;
    stats.shards = shards_.size();
    stats.live_shards = LiveCountLocked();
    stats.cluster_submitted = cluster_submitted_;
    stats.transport_failures = transport_failures_;
    stats.replayed = replayed_;
    stats.killed_shards = killed_shards_;
    stats.p2c_routed = p2c_routed_;
    stats.replication_refreshes = replication_refreshes_;
    stats.spilled = retired_.spilled;
    stats.spill_recompiles = retired_.spill_recompiles;
    stats.replica_served = retired_.replica_served;
    stats.sessions_opened = sessions_.size();
    stats.session_rehomes = session_rehomes_;
    for (const SceneDesc& desc : scenes_) {
        if (desc.replicas.size() >= 2) ++stats.replicated_scenes;
    }

    // Lifetime = the retired ledger and histograms plus the current
    // epoch's live replicas.
    ServeLedger epoch;
    LatencyHistogram latency;
    latency.Merge(retired_.latency);
    std::deque<LatencyHistogram> tier_latency(retired_.tier_latency.size());
    for (std::size_t t = 0; t < tier_latency.size(); ++t) {
        tier_latency[t].Merge(retired_.tier_latency[t]);
    }
    stats.per_shard.reserve(shards_.size());
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        ShardTelemetry& shard = stats.per_shard.emplace_back();
        if (!alive_[i]) {
            // A killed slot reports a zeroed row (its lifetime totals
            // live in the retired ledger).
            shard.alive = false;
            continue;
        }
        // The replica's stats and ledger in one cut (one lock).
        ServeLedger ledger;
        shard.service = shards_[i]->Snapshot(&ledger);
        shard.homed = aux_[i].homed;
        shard.spill_in = aux_[i].spill_in;
        shard.spill_out = aux_[i].spill_out;
        shard.spill_recompiles = aux_[i].spill_recompiles;
        shard.replica_in = aux_[i].replica_in;
        shard.replayed_in = aux_[i].replayed_in;
        stats.spilled += shard.spill_in;
        stats.spill_recompiles += shard.spill_recompiles;
        stats.replica_served += shard.replica_in;
        epoch.Merge(ledger);
        latency.Merge(shards_[i]->latency_histogram());
        for (std::size_t t = 0; t < tier_latency.size(); ++t) {
            tier_latency[t].Merge(shards_[i]->tier_latency_histogram(t));
        }
    }
    ServeLedger total = retired_.ledger;
    total.Merge(epoch);
    // Utilization: busy time over the shard-time that actually existed
    // — each epoch weighted by its own live shard count and span, so
    // the ratio survives Resize unchanged in meaning.
    stats.Derive(total, latency, ResolvedTiers(config_.admission),
                 tier_latency,
                 retired_.capacity_ms +
                     static_cast<double>(stats.live_shards) *
                         epoch.SpanMs());
    stats.latency_samples = latency.count();
    stats.latency_sum_ms = latency.sum();
    return stats;
}

std::size_t
ShardedRenderService::shards() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return shards_.size();
}

std::size_t
ShardedRenderService::live_shards() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return LiveCountLocked();
}

bool
ShardedRenderService::alive(std::size_t index) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    FLEX_CHECK_MSG(index < alive_.size(),
                   "shard index " << index << " out of range (cluster "
                                  << "has " << alive_.size() << ")");
    return alive_[index] != 0;
}

RenderService&
ShardedRenderService::shard(std::size_t index)
{
    std::lock_guard<std::mutex> lock(mutex_);
    FLEX_CHECK_MSG(index < shards_.size(),
                   "shard index " << index << " out of range (cluster "
                                  << "has " << shards_.size() << ")");
    FLEX_CHECK_MSG(alive_[index], "shard " << index << " was killed");
    return *shards_[index];
}

}  // namespace flexnerfer
