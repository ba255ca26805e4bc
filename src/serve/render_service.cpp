#include "serve/render_service.h"

#include <algorithm>
#include <utility>

#include "common/intern.h"
#include "common/logging.h"
#include "obs/metrics_registry.h"

namespace flexnerfer {
namespace {

/**
 * Opens (or adopts) a trace for one submitted request. With no
 * recorder installed the result is inactive and every instrumentation
 * site downstream skips itself. A context already live on this thread
 * (the cluster router's ScopedTraceContext) is adopted — the request
 * span then parents under the router's root span instead of opening a
 * new trace.
 */
RequestTrace
BeginRequestTrace(TraceRecorder* recorder, const SceneRequest& request)
{
    RequestTrace trace;
    if (recorder == nullptr) return trace;
    const TraceContext inherited = CurrentTraceContext();
    trace.ctx.trace_id = inherited.active()
                             ? inherited.trace_id
                             : recorder->BeginTrace("req:" + request.scene);
    trace.ctx.parent_span = SpanId(trace.ctx.trace_id, "request");
    trace.root_parent = inherited.parent_span;
    trace.wall_submit_us = recorder->NowWallUs();
    return trace;
}

/** Records the admission instant + queue-depth counter for an
 *  accepted verdict and fixes the trace's virtual schedule. */
void
TraceAccepted(TraceRecorder* recorder, RequestTrace& trace,
              const AdmissionController::Verdict& verdict,
              const std::string& tier_name, double est_service_ms)
{
    if (recorder == nullptr || !trace.active()) return;
    trace.arrival_ms = verdict.arrival_ms;
    trace.start_ms = verdict.start_ms;
    trace.completion_ms = verdict.completion_ms;
    recorder->RecordInstant(
        trace.ctx, "admission", "accepted", verdict.arrival_ms,
        {TraceArg::Str("tier", tier_name),
         TraceArg::Num("wait_ms", verdict.wait_ms),
         TraceArg::Int("queue_depth",
                       static_cast<std::int64_t>(verdict.queue_depth)),
         TraceArg::Int("tier_queue_depth", static_cast<std::int64_t>(
                                               verdict.tier_queue_depth)),
         TraceArg::Num("deadline_ms", verdict.deadline_ms),
         TraceArg::Num("start_tag", verdict.start_tag),
         TraceArg::Num("finish_tag", verdict.finish_tag),
         TraceArg::Num("est_service_ms", est_service_ms)});
    recorder->RecordCounter(trace.ctx, "admission", "queue_depth",
                            verdict.arrival_ms,
                            static_cast<double>(verdict.queue_depth));
    trace.wall_queued_us = recorder->NowWallUs();
}

/** Records the admission instant and a zero-duration request span for
 *  a rejected/shed verdict (the request's whole trace). */
void
TraceNotAccepted(TraceRecorder* recorder, const RequestTrace& trace,
                 const AdmissionController::Verdict& verdict,
                 const std::string& tier_name, RequestStatus status,
                 std::string_view scene)
{
    if (recorder == nullptr || !trace.active()) return;
    recorder->RecordInstant(
        trace.ctx, "admission",
        status == RequestStatus::kRejectedQueueFull ? "rejected" : "shed",
        verdict.arrival_ms,
        {TraceArg::Str("tier", tier_name),
         TraceArg::Int("queue_depth",
                       static_cast<std::int64_t>(verdict.queue_depth)),
         TraceArg::Num("deadline_ms", verdict.deadline_ms)});
    TraceContext root_ctx;
    root_ctx.trace_id = trace.ctx.trace_id;
    root_ctx.parent_span = trace.root_parent;
    recorder->RecordSpan(root_ctx, "request", "request",
                         verdict.arrival_ms, verdict.arrival_ms,
                         trace.wall_submit_us, recorder->NowWallUs(),
                         {TraceArg::Str("scene", std::string(scene)),
                          TraceArg::Str("status", ToString(status))});
}

/** Records an accepted request's queue_wait, service and request spans
 *  around the (solo or fused) replay that served it, which ran over
 *  wall [wall_begin_us, wall_end_us]. */
void
TraceServed(TraceRecorder* recorder, const RequestTrace& trace,
            std::string_view scene, double wall_begin_us,
            double wall_end_us, std::vector<TraceArg> service_args)
{
    recorder->RecordSpan(trace.ctx, "queue", "queue_wait", trace.arrival_ms,
                         trace.start_ms, trace.wall_queued_us,
                         wall_begin_us);
    recorder->RecordSpan(trace.ctx, "service", "service", trace.start_ms,
                         trace.completion_ms, wall_begin_us, wall_end_us,
                         std::move(service_args));
    TraceContext root_ctx;
    root_ctx.trace_id = trace.ctx.trace_id;
    root_ctx.parent_span = trace.root_parent;
    recorder->RecordSpan(root_ctx, "request", "request", trace.arrival_ms,
                         trace.completion_ms, trace.wall_submit_us,
                         wall_end_us,
                         {TraceArg::Str("scene", std::string(scene))});
}

}  // namespace

std::string
ToString(RequestStatus status)
{
    switch (status) {
      case RequestStatus::kCompleted: return "completed";
      case RequestStatus::kRejectedQueueFull: return "rejected";
      case RequestStatus::kShedDeadline: return "shed";
      case RequestStatus::kFailedTransport: return "failed-transport";
    }
    return "unknown";
}

double
TierStats::ShedRate() const
{
    if (submitted == 0) return 0.0;
    return static_cast<double>(rejected_queue_full + shed_deadline) /
           static_cast<double>(submitted);
}

double
SessionStats::DeltaHitRate() const
{
    const std::uint64_t accepted = delta_frames + full_frames;
    if (accepted == 0) return 0.0;
    return static_cast<double>(delta_frames) /
           static_cast<double>(accepted);
}

void
ServeLedger::Merge(const ServeLedger& other)
{
    if (other.submitted > 0 &&
        (submitted == 0 || other.first_arrival_ms < first_arrival_ms)) {
        first_arrival_ms = other.first_arrival_ms;
    }
    last_completion_ms = std::max(last_completion_ms,
                                  other.last_completion_ms);
    submitted += other.submitted;
    accepted += other.accepted;
    rejected_queue_full += other.rejected_queue_full;
    shed_deadline += other.shed_deadline;
    completed += other.completed;
    batches_dispatched += other.batches_dispatched;
    fused_batches += other.fused_batches;
    batched_requests += other.batched_requests;
    batched_accepted += other.batched_accepted;
    max_batch_elements = std::max(max_batch_elements,
                                  other.max_batch_elements);
    session_frames += other.session_frames;
    delta_frames += other.delta_frames;
    session_full_frames += other.session_full_frames;
    coherence_breaks += other.coherence_breaks;
    session_reuse_sum += other.session_reuse_sum;
    delta_savings_ms += other.delta_savings_ms;
    busy_ms += other.busy_ms;
    if (tiers.size() < other.tiers.size()) tiers.resize(other.tiers.size());
    for (std::size_t t = 0; t < other.tiers.size(); ++t) {
        tiers[t].submitted += other.tiers[t].submitted;
        tiers[t].accepted += other.tiers[t].accepted;
        tiers[t].rejected_queue_full += other.tiers[t].rejected_queue_full;
        tiers[t].shed_deadline += other.tiers[t].shed_deadline;
        tiers[t].busy_ms += other.tiers[t].busy_ms;
    }
}

double
ServeLedger::SpanMs() const
{
    // Rejected and shed arrivals set first_arrival_ms but never a
    // completion, so the span exists only once something was accepted.
    return accepted > 0 ? last_completion_ms - first_arrival_ms : 0.0;
}

double
ServingStats::ShedRate() const
{
    if (submitted == 0) return 0.0;
    return static_cast<double>(rejected_queue_full + shed_deadline) /
           static_cast<double>(submitted);
}

void
ServingStats::Derive(const ServeLedger& ledger,
                     const LatencyHistogram& latency,
                     const std::vector<TierPolicy>& policies,
                     const std::deque<LatencyHistogram>& tier_latency,
                     double capacity_ms)
{
    submitted = ledger.submitted;
    accepted = ledger.accepted;
    rejected_queue_full = ledger.rejected_queue_full;
    shed_deadline = ledger.shed_deadline;
    completed = ledger.completed;

    const LatencySummary digest = latency.Summary();
    p50_ms = digest.p50_ms;
    p90_ms = digest.p90_ms;
    p99_ms = digest.p99_ms;
    mean_ms = digest.mean_ms;
    max_ms = digest.max_ms;

    makespan_ms = ledger.SpanMs();
    if (makespan_ms > 0.0) {
        sustained_qps = 1e3 * static_cast<double>(accepted) / makespan_ms;
    }
    if (capacity_ms > 0.0) utilization = ledger.busy_ms / capacity_ms;

    batches_dispatched = ledger.batches_dispatched;
    fused_batches = ledger.fused_batches;
    batched_requests = ledger.batched_requests;
    max_batch_elements = ledger.max_batch_elements;
    if (batches_dispatched > 0) {
        batch_occupancy = static_cast<double>(ledger.batched_accepted) /
                          static_cast<double>(batches_dispatched);
    }

    session_frames = ledger.session_frames;
    delta_frames = ledger.delta_frames;
    session_full_frames = ledger.session_full_frames;
    coherence_breaks = ledger.coherence_breaks;
    delta_savings_ms = ledger.delta_savings_ms;
    const std::uint64_t accepted_session_frames =
        delta_frames + session_full_frames;
    if (accepted_session_frames > 0) {
        delta_hit_rate = static_cast<double>(delta_frames) /
                         static_cast<double>(accepted_session_frames);
        session_mean_reuse = ledger.session_reuse_sum /
                             static_cast<double>(accepted_session_frames);
    }

    // One row per resolved tier: policy knobs echoed next to the
    // counters and latency digest they govern.
    tiers.resize(policies.size());
    for (std::size_t t = 0; t < policies.size(); ++t) {
        TierStats& tier = tiers[t];
        tier.name = policies[t].name;
        tier.weight = policies[t].weight;
        tier.shed_budget = policies[t].shed_budget;
        tier.default_deadline_ms = policies[t].default_deadline_ms;
        const AdmissionController::TierCounters& counters = ledger.tiers[t];
        tier.submitted = counters.submitted;
        tier.accepted = counters.accepted;
        tier.rejected_queue_full = counters.rejected_queue_full;
        tier.shed_deadline = counters.shed_deadline;
        tier.busy_ms = counters.busy_ms;
        tier.latency = tier_latency[t].Summary();
    }
}

void
ServingStats::PublishShared(MetricsRegistry& registry,
                            const std::string& prefix) const
{
    const auto count = [&](const std::string& key, std::uint64_t value) {
        registry.SetCounter(key, static_cast<double>(value));
    };
    count(prefix + ".submitted", submitted);
    count(prefix + ".accepted", accepted);
    count(prefix + ".rejected_queue_full", rejected_queue_full);
    count(prefix + ".shed_deadline", shed_deadline);
    count(prefix + ".completed", completed);
    count(prefix + ".batches_dispatched", batches_dispatched);
    count(prefix + ".fused_batches", fused_batches);
    count(prefix + ".batched_requests", batched_requests);
    if (sessions_opened > 0) {
        count(prefix + ".sessions_opened", sessions_opened);
        count(prefix + ".session_frames", session_frames);
        count(prefix + ".delta_frames", delta_frames);
        count(prefix + ".session_full_frames", session_full_frames);
        count(prefix + ".coherence_breaks", coherence_breaks);
        registry.SetGauge(prefix + ".delta_hit_rate", delta_hit_rate);
        registry.SetGauge(prefix + ".session_mean_reuse",
                          session_mean_reuse);
        registry.SetGauge(prefix + ".delta_savings_ms", delta_savings_ms);
    }

    registry.SetGauge(prefix + ".shed_rate", ShedRate());
    registry.SetGauge(prefix + ".makespan_ms", makespan_ms);
    registry.SetGauge(prefix + ".sustained_qps", sustained_qps);
    registry.SetGauge(prefix + ".utilization", utilization);
    registry.SetGauge(prefix + ".batch_occupancy", batch_occupancy);
    registry.SetGauge(prefix + ".max_batch_elements",
                      static_cast<double>(max_batch_elements));

    LatencySummary latency;
    latency.p50_ms = p50_ms;
    latency.p90_ms = p90_ms;
    latency.p99_ms = p99_ms;
    latency.mean_ms = mean_ms;
    latency.max_ms = max_ms;
    registry.SetLatency(prefix + ".latency", latency);

    for (const TierStats& tier : tiers) {
        const std::string base = prefix + ".tier." + tier.name;
        count(base + ".submitted", tier.submitted);
        count(base + ".accepted", tier.accepted);
        count(base + ".rejected_queue_full", tier.rejected_queue_full);
        count(base + ".shed_deadline", tier.shed_deadline);
        registry.SetGauge(base + ".shed_rate", tier.ShedRate());
        registry.SetLatency(base + ".latency", tier.latency);
    }
}

RenderService::RenderService(const ServeConfig& config)
    : cache_(config.plan_cache_capacity), registry_(cache_),
      admission_(config.admission),
      tier_latency_(admission_.tiers().size()),
      batch_window_ms_(config.batch_window_ms),
      max_batch_elements_(config.max_batch_elements),
      pool_(config.threads)
{
    if (batch_window_ms_ < 0.0) {
        Fatal("ServeConfig::batch_window_ms must be >= 0");
    }
    if (batch_window_ms_ > 0.0 && max_batch_elements_ == 0) {
        Fatal("ServeConfig::max_batch_elements must be >= 1 when the "
              "batch window is on");
    }
}

SceneId
RenderService::RegisterScene(const std::string& name,
                             const SweepPoint& spec)
{
    // Under the service lock: no Submit may resolve the id before its
    // per-scene state exists.
    std::lock_guard<std::mutex> lock(mutex_);
    const SceneId id = registry_.Register(name, spec);
    scenes_.push_back({open_batches_.end(), InternName(name)});
    return id;
}

FrameCost
RenderService::WarmScene(const std::string& scene)
{
    const SceneId id = registry_.Find(scene);
    if (id == kNoScene) {
        Fatal("request names unregistered scene '" + scene + "'");
    }
    TraceRecorder* const recorder = TraceRecorder::Global();
    if (recorder == nullptr) {
        return registry_.Touch(id, &pool_, /*count_request=*/false)->cost;
    }
    // Warm-ups get their own trace: the cold compile + execute they
    // trigger emits the scene's frame and per-op spans here, anchored
    // at virtual 0 — steady-state requests then replay memoized
    // results and never re-emit op spans.
    TraceContext ctx;
    ctx.trace_id = recorder->BeginTrace("warm:" + scene);
    ctx.parent_span = SpanId(ctx.trace_id, "warm_scene");
    const double wall_begin = recorder->NowWallUs();
    FrameCost cost;
    {
        ScopedTraceContext scoped(ctx, 0.0);
        cost = registry_.Touch(id, &pool_, /*count_request=*/false)->cost;
    }
    TraceContext root_ctx;
    root_ctx.trace_id = ctx.trace_id;
    recorder->RecordSpan(root_ctx, "warm", "warm_scene", 0.0,
                         EstimatedServiceMs(cost), wall_begin,
                         recorder->NowWallUs(),
                         {TraceArg::Str("scene", scene)});
    return cost;
}

ServeTicket
RenderService::Resolve(RenderResult result)
{
    const ServeTicket ticket = results_.end_seq();
    results_.push_back() = {TicketSlot::State::kReady, std::move(result)};
    return ticket;
}

void
RenderService::PopClaimedLocked()
{
    while (!results_.empty() &&
           results_.front().state == TicketSlot::State::kClaimed) {
        results_.pop_front();
    }
}

RenderResult
RenderService::Judge(SceneId scene,
                     const AdmissionController::Verdict& verdict,
                     double est_service_ms, TraceRecorder* recorder,
                     RequestTrace& trace)
{
    SceneState& state = scenes_[scene];
    RenderResult result;
    result.scene = state.name;
    result.tier = verdict.tier;
    const std::string& tier_name = admission_.tiers()[verdict.tier].name;
    using Outcome = AdmissionController::Outcome;
    if (verdict.outcome != Outcome::kAccepted) {
        const bool shed = verdict.outcome == Outcome::kShedDeadline;
        result.status = shed ? RequestStatus::kShedDeadline
                             : RequestStatus::kRejectedQueueFull;
        ++(shed ? state.shed : state.rejected);
        TraceNotAccepted(recorder, trace, verdict, tier_name, result.status,
                         state.name);
        return result;
    }
    result.queue_wait_ms = verdict.wait_ms;
    result.latency_ms = verdict.completion_ms - verdict.arrival_ms;
    ++state.accepted;
    // Telemetry is recorded at admission — the virtual latency is fully
    // determined here — so percentiles never depend on execution order.
    latency_.Record(result.latency_ms);
    tier_latency_[verdict.tier].Record(result.latency_ms);
    TraceAccepted(recorder, trace, verdict, tier_name, est_service_ms);
    return result;
}

ServeTicket
RenderService::Replay(const PlanCache::PreparedFrame& frame,
                      const RequestTrace& trace, RenderResult result)
{
    // The steady-state hot path: replay the pinned prepared frame
    // (memoized plan + result; see plan/plan_cache.h).
    TraceRecorder* const recorder =
        trace.active() ? TraceRecorder::Global() : nullptr;
    if (recorder == nullptr) {
        result.cost = cache_.Run(frame, &pool_);
    } else {
        const double wall_begin = recorder->NowWallUs();
        {
            // Propagate the request identity into the plan layer:
            // PlanCache instants and any FramePlan execution land in
            // this trace, anchored at the virtual start.
            ScopedTraceContext scoped(trace.ctx, trace.start_ms);
            result.cost = cache_.Run(frame, &pool_);
        }
        TraceServed(recorder, trace, result.scene, wall_begin,
                    recorder->NowWallUs(), {});
    }
    ++completed_;
    return Resolve(std::move(result));
}

SubmitReceipt
RenderService::Submit(const SceneRequest& request,
                      const SubmitOptions& options)
{
    // One registry call, outside the service lock: name -> pinned entry
    // (a cold first touch compiles it, its wavefronts on the pool).
    const SceneEntry* const scene = registry_.TouchName(request.scene, &pool_);
    if (scene == nullptr) {
        Fatal("request names unregistered scene '" + request.scene + "'");
    }
    // The request's one service-lock acquisition: admission, telemetry,
    // the replay and the ticket all happen inside it.
    std::lock_guard<std::mutex> lock(mutex_);
    ++submitted_;
    // Each path is a separate function, not interleaved conditions:
    // with no session and the window off this body is exactly the
    // pre-batching service, byte-identical telemetry included.
    if (options.session != 0) {
        return SubmitSession(*scene, request, options);
    }
    if (batch_window_ms_ > 0.0 && options.batching) {
        return SubmitBatched(*scene, request, options.extra_service_ms);
    }
    TraceRecorder* const recorder = TraceRecorder::Global();
    RequestTrace trace = BeginRequestTrace(recorder, request);

    // The service-time estimate is the frame's pipeline floor — the
    // dependency-DAG critical path — not the flat op sum: the wavefront
    // executor overlaps independent stages, so a deep-but-narrow frame
    // occupies the device for its longest chain, and admission verdicts
    // must reflect that (see accel/accelerator.h, EstimatedServiceMs).
    const double est_service_ms =
        EstimatedServiceMs(scene->cost) + options.extra_service_ms;
    const AdmissionController::Verdict verdict = admission_.Admit(
        request.arrival_ms, est_service_ms, request.deadline_ms,
        request.tier);
    RenderResult result =
        Judge(scene->id, verdict, est_service_ms, recorder, trace);
    if (result.status != RequestStatus::kCompleted) {
        return {Resolve(std::move(result)), verdict, {}, 0};
    }
    return {Replay(scene->frame, trace, std::move(result)), verdict, {}, 0};
}

SubmitReceipt
RenderService::SubmitBatched(const SceneEntry& scene,
                             const SceneRequest& request,
                             double extra_service_ms)
{
    // The service lock spans the whole join-or-open decision and its
    // Admit: the verdict depends on which batch the request lands in,
    // so both see one consistent submission order. The trace opens
    // under it too, so trace ids stay deterministic in admission order.
    const SceneId id = scene.id;
    TraceRecorder* const recorder = TraceRecorder::Global();
    RequestTrace trace = BeginRequestTrace(recorder, request);
    // Mirror the admission clamp (arrivals are non-decreasing) so
    // window expiry and the device clock agree on "now".
    const double arrival =
        std::max(request.arrival_ms, last_batch_arrival_ms_);
    last_batch_arrival_ms_ = arrival;
    FlushExpiredLocked(arrival);

    auto batch = scenes_[id].open_batch;
    if (batch != open_batches_.end() &&
        batch->members.size() >= max_batch_elements_) {
        // Full: flush it now; this request opens a fresh batch.
        FlushBatchLocked(batch);
        batch = open_batches_.end();
    }
    const bool joining = batch != open_batches_.end();

    // Joiners are priced at the *marginal* critical path: how much the
    // fused frame grows by taking one more element — roughly one
    // bottleneck stage (models/workload.h, FuseBatch) — instead of a
    // whole frame. Openers pay the full solo estimate, exactly like
    // the unbatched path.
    std::shared_ptr<const BatchedSceneFrame> fused;
    double est = 0.0;
    if (joining) {
        // The estimation run executes a cold fused shape on this
        // thread the first time it is seen: propagate the joiner's
        // context so its frame/op spans land in this trace.
        ScopedTraceContext scoped(trace.ctx, arrival);
        fused = registry_.TouchBatched(id, batch->members.size() + 1,
                                       &pool_);
        est = EstimatedMarginalServiceMs(fused->cost, batch->fused_cost);
    } else {
        est = EstimatedServiceMs(scene.cost);
    }
    const AdmissionController::Verdict verdict = admission_.Admit(
        request.arrival_ms, est + extra_service_ms, request.deadline_ms,
        request.tier);
    RenderResult result = Judge(id, verdict, est, recorder, trace);
    if (result.status != RequestStatus::kCompleted) {
        // A shed or rejected joiner consumes no batch slot: the open
        // batch keeps collecting as if the request never arrived.
        return {Resolve(std::move(result)), verdict, {}, 0};
    }
    // Every member reports the scene's solo frame cost — the fused
    // execution is an amortization of identical frames, not a different
    // render — so per-request results are bit-identical to the
    // unbatched path's (the flush checks the fused cost separately).
    result.cost = scene.cost;

    // The ticket is issued now, in submission order; its result is
    // stored when the batch flushes.
    BatchMember member;
    member.ticket = results_.end_seq();
    results_.push_back();  // pending: the slot fills at the flush
    const ServeTicket ticket = member.ticket;
    member.result = std::move(result);
    member.trace = trace;

    if (joining) {
        if (recorder != nullptr && trace.active()) {
            recorder->RecordInstant(
                trace.ctx, "batch", "batch_join", verdict.arrival_ms,
                {TraceArg::Int("elements",
                               static_cast<std::int64_t>(
                                   batch->members.size() + 1)),
                 TraceArg::Int("batch_trace",
                               static_cast<std::int64_t>(
                                   batch->trace_ctx.trace_id)),
                 TraceArg::Num("marginal_ms", est)});
        }
        batch->members.push_back(std::move(member));
        // The batch now *is* the next-larger fused shape: the admitted
        // marginal and the shape a flush replays advance together.
        batch->fused_cost = fused->cost;
        batch->frame = fused->frame;
    } else {
        OpenBatch fresh;
        // Batches opened so far, this one included: a flush moves one
        // batch from open to dispatched, so the sum only grows on open.
        fresh.ordinal = static_cast<std::uint32_t>(
            batches_dispatched_ + open_batches_.size() + 1);
        fresh.scene = id;
        fresh.close_ms = arrival + batch_window_ms_;
        fresh.fused_cost = scene.cost;
        fresh.frame = scene.frame;
        fresh.trace_ctx = trace.ctx;
        if (recorder != nullptr && trace.active()) {
            recorder->RecordInstant(
                trace.ctx, "batch", "batch_open", verdict.arrival_ms,
                {TraceArg::Num("close_ms", fresh.close_ms)});
        }
        fresh.members.push_back(std::move(member));
        open_batches_.push_back(std::move(fresh));
        batch = std::prev(open_batches_.end());
        scenes_[id].open_batch = batch;
    }
    return {ticket, verdict, {}, batch->ordinal};
}

SessionId
RenderService::OpenSession(const std::string& scene,
                           const CoherenceModel& model)
{
    const SceneId id = registry_.Find(scene);
    if (id == kNoScene) {
        Fatal("OpenSession names unregistered scene '" + scene + "'");
    }
    if (model.reuse_quanta < 1) {
        Fatal("CoherenceModel::reuse_quanta must be >= 1");
    }
    if (model.break_threshold < 0.0 || model.break_threshold > 1.0) {
        Fatal("CoherenceModel::break_threshold must be in [0, 1]");
    }
    if (model.translation_scale <= 0.0 || model.rotation_scale_deg <= 0.0) {
        Fatal("CoherenceModel scales must be positive");
    }
    std::lock_guard<std::mutex> lock(mutex_);
    Session session;
    session.scene = id;
    session.model = model;
    sessions_.push_back(session);
    return sessions_.size();
}

double
RenderService::PeekSessionEstimate(SessionId session, const Pose& pose)
{
    Session state;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        FLEX_CHECK_MSG(session != 0 && session <= sessions_.size(),
                       "unknown session " << session);
        state = sessions_[session - 1];
    }
    // Priced off a copy, outside the service lock. Administrative
    // touch: a price preview is not a request.
    const std::shared_ptr<const SceneEntry> scene =
        registry_.Touch(state.scene, &pool_, /*count_request=*/false);
    EstimateContext context;
    if (state.has_last_pose) {
        const std::size_t quantum =
            state.model.ReuseQuantum(state.last_pose, pose);
        if (quantum > 0 && !state.model.IsCoherenceBreak(quantum)) {
            const std::shared_ptr<const DeltaSceneFrame> delta =
                registry_.TouchDelta(state.scene, quantum,
                                     state.model.reuse_quanta, &pool_);
            context.kind = EstimateKind::kDelta;
            context.reference = &scene->cost;
            return Accelerator::Estimate(delta->cost, context).service_ms;
        }
    }
    return Accelerator::Estimate(scene->cost, context).service_ms;
}

SubmitReceipt
RenderService::SubmitSession(const SceneEntry& scene,
                             const SceneRequest& request,
                             const SubmitOptions& options)
{
    // The service lock spans the whole coherence decision and its
    // Admit: the verdict depends on the session's last rendered pose,
    // so both see one consistent submission order.
    const SceneId id = scene.id;
    FLEX_CHECK_MSG(options.session <= sessions_.size(),
                   "unknown session " << options.session);
    Session& session = sessions_[options.session - 1];
    FLEX_CHECK_MSG(session.scene == id,
                   "session " << options.session << " is bound to scene '"
                              << registry_.Name(session.scene)
                              << "', not '" << request.scene << "'");
    ++session.frames;

    TraceRecorder* const recorder = TraceRecorder::Global();
    RequestTrace trace = BeginRequestTrace(recorder, request);

    // Coherence decision: measure the new pose against the last
    // *rendered* pose. The first frame has no predecessor to warp from
    // (a full recompute, not a break); later frames go delta when the
    // overlap clears the model's break threshold.
    SessionFrame booked;
    std::shared_ptr<const DeltaSceneFrame> delta;
    if (session.has_last_pose) {
        const std::size_t quantum =
            session.model.ReuseQuantum(session.last_pose, options.pose);
        if (session.model.IsCoherenceBreak(quantum)) {
            booked.coherence_break = true;
        } else if (quantum > 0) {
            booked.delta = true;
            booked.reuse = static_cast<double>(quantum) /
                           static_cast<double>(session.model.reuse_quanta);
            // The estimation run executes a cold delta shape on this
            // thread the first time its quantum is seen: propagate the
            // request's context so its frame/op spans land in this
            // trace (memoized afterwards, like batch shapes).
            ScopedTraceContext scoped(trace.ctx, request.arrival_ms);
            delta = registry_.TouchDelta(id, quantum,
                                         session.model.reuse_quanta,
                                         &pool_);
        }
    }

    // Admission prices delta vs full recompute through the unified
    // estimator: a delta frame books its shrunken plan's critical path
    // (never more than the full frame's), a break or first frame books
    // the full estimate — both plus any surcharge.
    EstimateContext context;
    context.extra_service_ms = options.extra_service_ms;
    ServiceEstimate estimate;
    if (booked.delta) {
        context.kind = EstimateKind::kDelta;
        context.reference = &scene.cost;
        estimate = Accelerator::Estimate(delta->cost, context);
    } else {
        estimate = Accelerator::Estimate(scene.cost, context);
    }
    const AdmissionController::Verdict verdict = admission_.Admit(
        request.arrival_ms, estimate.service_ms, request.deadline_ms,
        request.tier);
    RenderResult result =
        Judge(id, verdict, estimate.service_ms, recorder, trace);
    if (result.status != RequestStatus::kCompleted) {
        // The session does not advance: a rejected or shed frame was
        // never rendered, so the next frame's reuse is still measured
        // against the last frame that actually exists.
        return {Resolve(std::move(result)), verdict, {}, 0};
    }
    if (recorder != nullptr && trace.active()) {
        recorder->RecordInstant(
            trace.ctx, "session",
            booked.delta ? "session_delta"
                         : (booked.coherence_break ? "session_break"
                                                   : "session_full"),
            verdict.arrival_ms,
            {TraceArg::Int("session",
                           static_cast<std::int64_t>(options.session)),
             TraceArg::Num("reuse", booked.reuse),
             TraceArg::Num("est_ms", estimate.service_ms),
             TraceArg::Num("savings_ms", estimate.savings_ms)});
    }

    // This frame renders: it becomes the session's predecessor.
    booked.savings_ms = estimate.savings_ms;
    session.has_last_pose = true;
    session.last_pose = options.pose;
    session.reuse_sum += booked.reuse;
    session.delta_savings_ms += booked.savings_ms;
    if (booked.delta) {
        ++session.delta_frames;
    } else {
        ++session.full_frames;
        if (booked.coherence_break) ++session.coherence_breaks;
    }

    // The handle pins the plan-cache entry (delta shapes live in the
    // LRU like any entry; the pin keeps the replay safe past eviction)
    // — the same steady-state prepared path as a solo frame.
    return {Replay(booked.delta ? delta->frame : scene.frame, trace,
                   std::move(result)),
            verdict, booked, 0};
}

void
RenderService::FlushBatchLocked(std::list<OpenBatch>::iterator batch)
{
    OpenBatch closing = std::move(*batch);
    open_batches_.erase(batch);
    scenes_[closing.scene].open_batch = open_batches_.end();

    const std::size_t elements = closing.members.size();
    ++batches_dispatched_;
    batched_accepted_total_ += elements;
    if (elements >= 2) {
        ++fused_batches_;
        batched_requests_ += elements;
    }
    max_batch_seen_ = std::max(max_batch_seen_, elements);

    if (closing.trace_ctx.active()) {
        if (TraceRecorder* const recorder = TraceRecorder::Global()) {
            // Flush lands in the opener's trace at the current clamped
            // arrival clock (deterministic: arrivals drive flushes).
            recorder->RecordInstant(
                closing.trace_ctx, "batch", "batch_flush",
                last_batch_arrival_ms_,
                {TraceArg::Int("elements",
                               static_cast<std::int64_t>(elements)),
                 TraceArg::Str("scene", std::string(
                                            closing.members[0].result.scene))});
        }
    }

    // One fused replay serves every member. The shape was executed when
    // its estimation run prepared it (scene_registry.h), so this replay
    // is memoized — the batched-mode invariant is "PlanCache frame hits
    // == batches dispatched".
    const RequestTrace& opener = closing.members[0].trace;
    TraceRecorder* const recorder =
        opener.active() ? TraceRecorder::Global() : nullptr;
    double wall_begin = 0.0;
    double wall_end = 0.0;
    FrameCost fused_cost;
    if (recorder != nullptr) {
        wall_begin = recorder->NowWallUs();
        // The replay runs under the opener's context (one execution,
        // many members): its plan-layer instants land in the opener's
        // trace.
        ScopedTraceContext scoped(opener.ctx, opener.start_ms);
        fused_cost = cache_.Run(closing.frame, &pool_);
        wall_end = recorder->NowWallUs();
    } else {
        fused_cost = cache_.Run(closing.frame, &pool_);
    }
    FLEX_CHECK_MSG(fused_cost == closing.fused_cost,
                   "fused batch replay diverged from its estimation run "
                   "for scene '"
                       << closing.members[0].result.scene << "' ("
                       << elements
                       << " elements)");
    for (BatchMember& member : closing.members) {
        if (recorder != nullptr && member.trace.active()) {
            TraceServed(recorder, member.trace, member.result.scene,
                        wall_begin, wall_end,
                        {TraceArg::Int("batch_elements",
                                       static_cast<std::int64_t>(elements))});
        }
        member.result.batch_elements = elements;
    }
    completed_ += elements;
    for (BatchMember& member : closing.members) {
        // A pending slot is never popped, so the index is live.
        TicketSlot& slot = results_[member.ticket - results_.front_seq()];
        slot.result = std::move(member.result);
        slot.state = TicketSlot::State::kReady;
    }
}

bool
RenderService::ProbeBatchJoin(SceneId scene, double arrival_ms,
                              double* marginal_est_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return ProbeBatchJoinLocked(scene, arrival_ms, marginal_est_ms);
}

bool
RenderService::ProbeBatchJoinLocked(SceneId scene, double arrival_ms,
                                    double* marginal_est_ms)
{
    if (batch_window_ms_ <= 0.0) return false;
    const auto open = scenes_.at(scene).open_batch;
    if (open == open_batches_.end()) return false;
    // Mirror SubmitBatched's view without moving it: the same clamped
    // arrival decides expiry (an expired batch would flush before the
    // join) and a full batch would close, re-opening at the solo price.
    // last_batch_arrival_ms_ is read, never advanced — only a real
    // Submit moves the batching clock.
    const double arrival = std::max(arrival_ms, last_batch_arrival_ms_);
    if (open->close_ms <= arrival) return false;
    if (open->members.size() >= max_batch_elements_) return false;
    // The estimation run for the next-larger fused shape is memoized
    // (scene_registry.h), so the following Submit — or the flush replay
    // — sees exactly the cost priced here.
    const std::shared_ptr<const BatchedSceneFrame> fused =
        registry_.TouchBatched(scene, open->members.size() + 1, &pool_);
    *marginal_est_ms =
        EstimatedMarginalServiceMs(fused->cost, open->fused_cost);
    return true;
}

void
RenderService::FlushExpiredLocked(double arrival_ms)
{
    // Windows close in open order — close_ms is the monotone clamped
    // arrival plus a fixed window — so expiry only ever trims a prefix.
    while (!open_batches_.empty() &&
           open_batches_.front().close_ms <= arrival_ms) {
        FlushBatchLocked(open_batches_.begin());
    }
}

void
RenderService::FlushAllLocked()
{
    while (!open_batches_.empty()) {
        FlushBatchLocked(open_batches_.begin());
    }
}

const LatencyHistogram&
RenderService::tier_latency_histogram(std::size_t tier) const
{
    FLEX_CHECK_MSG(tier < tier_latency_.size(),
                   "tier " << tier << " out of range (service resolves "
                           << tier_latency_.size() << " tiers)");
    return tier_latency_[tier];
}

RenderResult
RenderService::Wait(ServeTicket ticket)
{
    // A waited ticket may ride a still-open batch whose window can only
    // close on a later submission: flush every open batch so the
    // ticket's result exists.
    std::lock_guard<std::mutex> lock(mutex_);
    FlushAllLocked();
    // Wraps past size() for a ticket older than the front.
    const std::uint64_t index = ticket - results_.front_seq();
    FLEX_CHECK_MSG(index < results_.size() &&
                       results_[index].state == TicketSlot::State::kReady,
                   "unknown or already-consumed serve ticket " << ticket);
    TicketSlot& slot = results_[index];
    RenderResult result = std::move(slot.result);
    slot.state = TicketSlot::State::kClaimed;
    PopClaimedLocked();
    return result;
}

std::vector<RenderResult>
RenderService::WaitAll()
{
    std::lock_guard<std::mutex> lock(mutex_);
    FlushAllLocked();
    std::vector<RenderResult> results;
    results.reserve(results_.size());
    // Slots are in ticket order already, and the flush left none
    // pending: every unclaimed slot is ready.
    for (; !results_.empty(); results_.pop_front()) {
        TicketSlot& slot = results_.front();
        if (slot.state == TicketSlot::State::kReady) {
            results.push_back(std::move(slot.result));
        }
    }
    return results;
}

AdmissionController::Verdict
RenderService::Probe(double arrival_ms, double est_latency_ms,
                     double deadline_ms, std::size_t tier)
{
    std::lock_guard<std::mutex> lock(mutex_);
    return admission_.Probe(arrival_ms, est_latency_ms, deadline_ms, tier);
}

AdmissionController::Verdict
RenderService::Quote(SceneId scene, const SceneRequest& request,
                     double solo_est_ms, double surcharge_ms)
{
    std::lock_guard<std::mutex> lock(mutex_);
    double price = solo_est_ms;
    if (scene != kNoScene) {
        ProbeBatchJoinLocked(scene, request.arrival_ms, &price);
    }
    return admission_.Probe(request.arrival_ms, price + surcharge_ms,
                            request.deadline_ms, request.tier);
}

ServeLedger
RenderService::Ledger() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return LedgerLocked();
}

ServeLedger
RenderService::LedgerLocked() const
{
    ServeLedger ledger;
    const AdmissionController::Counters& admitted = admission_.counters();
    ledger.submitted = submitted_;
    ledger.accepted = admitted.accepted;
    ledger.rejected_queue_full = admitted.rejected_queue_full;
    ledger.shed_deadline = admitted.shed_deadline;
    ledger.completed = completed_;
    ledger.busy_ms = admitted.busy_ms;
    ledger.first_arrival_ms = admitted.first_arrival_ms;
    ledger.last_completion_ms = admitted.last_completion_ms;
    ledger.tiers = admitted.tiers;
    ledger.batches_dispatched = batches_dispatched_;
    ledger.fused_batches = fused_batches_;
    ledger.batched_requests = batched_requests_;
    ledger.batched_accepted = batched_accepted_total_;
    ledger.max_batch_elements = max_batch_seen_;
    for (const Session& session : sessions_) {
        ledger.session_frames += session.frames;
        ledger.delta_frames += session.delta_frames;
        ledger.session_full_frames += session.full_frames;
        ledger.coherence_breaks += session.coherence_breaks;
        ledger.session_reuse_sum += session.reuse_sum;
        ledger.delta_savings_ms += session.delta_savings_ms;
    }
    return ledger;
}

ServiceStats
RenderService::Snapshot(ServeLedger* ledger_out) const
{
    // One cut: every figure below is read under one hold of the lock.
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceStats stats;
    const ServeLedger ledger = LedgerLocked();
    if (ledger_out != nullptr) *ledger_out = ledger;
    stats.Derive(ledger, latency_, admission_.tiers(), tier_latency_,
                 ledger.SpanMs());
    stats.sessions_opened = sessions_.size();
    stats.sessions.reserve(sessions_.size());
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
        const Session& session = sessions_[i];
        SessionStats row;
        row.id = i + 1;
        row.scene = registry_.Name(session.scene);
        row.frames = session.frames;
        row.delta_frames = session.delta_frames;
        row.full_frames = session.full_frames;
        row.coherence_breaks = session.coherence_breaks;
        const std::uint64_t accepted =
            session.delta_frames + session.full_frames;
        row.mean_reuse =
            accepted > 0 ? session.reuse_sum / static_cast<double>(accepted)
                         : 0.0;
        row.delta_savings_ms = session.delta_savings_ms;
        stats.sessions.push_back(std::move(row));
    }
    stats.cache = cache_.stats();
    stats.cache_entries = cache_.size();
    stats.scenes = registry_.Stats();
    for (std::size_t id = 0; id < stats.scenes.size(); ++id) {
        stats.scenes[id].accepted = scenes_[id].accepted;
        stats.scenes[id].rejected = scenes_[id].rejected;
        stats.scenes[id].shed = scenes_[id].shed;
    }
    return stats;
}

void
ServiceStats::PublishTo(MetricsRegistry& registry,
                        const std::string& prefix) const
{
    const auto count = [&](const std::string& key, std::uint64_t value) {
        registry.SetCounter(key, static_cast<double>(value));
    };
    PublishShared(registry, prefix);
    count(prefix + ".cache.plan_hits", cache.plan_hits);
    count(prefix + ".cache.plan_misses", cache.plan_misses);
    count(prefix + ".cache.frame_hits", cache.frame_hits);
    count(prefix + ".cache.evictions", cache.evictions);
    registry.SetGauge(prefix + ".cache.entries",
                      static_cast<double>(cache_entries));
    // Gated like the shared session block (PublishShared).
    if (sessions_opened > 0) {
        count(prefix + ".cache.delta_hits", cache.delta_hits);
        count(prefix + ".cache.delta_misses", cache.delta_misses);
        for (const SessionStats& session : sessions) {
            const std::string base =
                prefix + ".session." + std::to_string(session.id);
            count(base + ".frames", session.frames);
            count(base + ".delta_frames", session.delta_frames);
            count(base + ".full_frames", session.full_frames);
            count(base + ".coherence_breaks", session.coherence_breaks);
            registry.SetGauge(base + ".delta_hit_rate",
                              session.DeltaHitRate());
            registry.SetGauge(base + ".mean_reuse", session.mean_reuse);
            registry.SetGauge(base + ".delta_savings_ms",
                              session.delta_savings_ms);
        }
    }
    for (const TierStats& tier : tiers) {
        registry.SetGauge(prefix + ".tier." + tier.name + ".busy_ms",
                          tier.busy_ms);
    }
    for (const SceneStats& scene : scenes) {
        const std::string base = prefix + ".scene." + scene.name;
        count(base + ".requests", scene.requests);
        count(base + ".accepted", scene.accepted);
        count(base + ".rejected", scene.rejected);
        count(base + ".shed", scene.shed);
        count(base + ".prepared_replays", scene.prepared_replays);
        registry.SetGauge(base + ".est_latency_ms", scene.est_latency_ms);
    }
}

}  // namespace flexnerfer
