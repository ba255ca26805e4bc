#include "serve/render_service.h"

#include <algorithm>
#include <utility>

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
                 const std::string& scene)
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
                         {TraceArg::Str("scene", scene),
                          TraceArg::Str("status", ToString(status))});
}

/** Records an accepted request's queue_wait, service and request spans
 *  around the (solo or fused) replay that served it, which ran over
 *  wall [wall_begin_us, wall_end_us]. */
void
TraceServed(TraceRecorder* recorder, const RequestTrace& trace,
            const std::string& scene, double wall_begin_us,
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
                         wall_end_us, {TraceArg::Str("scene", scene)});
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
    registry.SetCounter(prefix + ".submitted",
                        static_cast<double>(submitted));
    registry.SetCounter(prefix + ".accepted", static_cast<double>(accepted));
    registry.SetCounter(prefix + ".rejected_queue_full",
                        static_cast<double>(rejected_queue_full));
    registry.SetCounter(prefix + ".shed_deadline",
                        static_cast<double>(shed_deadline));
    registry.SetCounter(prefix + ".completed",
                        static_cast<double>(completed));
    registry.SetCounter(prefix + ".batches_dispatched",
                        static_cast<double>(batches_dispatched));
    registry.SetCounter(prefix + ".fused_batches",
                        static_cast<double>(fused_batches));
    registry.SetCounter(prefix + ".batched_requests",
                        static_cast<double>(batched_requests));
    if (sessions_opened > 0) {
        registry.SetCounter(prefix + ".sessions_opened",
                            static_cast<double>(sessions_opened));
        registry.SetCounter(prefix + ".session_frames",
                            static_cast<double>(session_frames));
        registry.SetCounter(prefix + ".delta_frames",
                            static_cast<double>(delta_frames));
        registry.SetCounter(prefix + ".session_full_frames",
                            static_cast<double>(session_full_frames));
        registry.SetCounter(prefix + ".coherence_breaks",
                            static_cast<double>(coherence_breaks));
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
        registry.SetCounter(base + ".submitted",
                            static_cast<double>(tier.submitted));
        registry.SetCounter(base + ".accepted",
                            static_cast<double>(tier.accepted));
        registry.SetCounter(base + ".rejected_queue_full",
                            static_cast<double>(tier.rejected_queue_full));
        registry.SetCounter(base + ".shed_deadline",
                            static_cast<double>(tier.shed_deadline));
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
    // Under batch_mutex_: no batching Submit may resolve the id before
    // its open-batch slot exists.
    std::lock_guard<std::mutex> lock(batch_mutex_);
    const SceneId id = registry_.Register(name, spec);
    open_by_scene_.push_back(open_batches_.end());
    return id;
}

SceneId
RenderService::Resolve(const std::string& scene) const
{
    const SceneId id = registry_.Find(scene);
    if (id == kNoScene) {
        Fatal("request names unregistered scene '" + scene + "'");
    }
    return id;
}

FrameCost
RenderService::WarmScene(const std::string& scene)
{
    const SceneId id = Resolve(scene);
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
    std::lock_guard<std::mutex> lock(mutex_);
    const ServeTicket ticket = results_base_ + results_.size();
    results_.push_back({TicketSlot::State::kReady, std::move(result)});
    return ticket;
}

ServeTicket
RenderService::ReserveTicket()
{
    std::lock_guard<std::mutex> lock(mutex_);
    const ServeTicket ticket = results_base_ + results_.size();
    results_.emplace_back();
    return ticket;
}

void
RenderService::PopClaimedLocked()
{
    while (!results_.empty() &&
           results_.front().state == TicketSlot::State::kClaimed) {
        results_.pop_front();
        ++results_base_;
    }
}

RenderResult
RenderService::Judge(SceneId scene, const SceneRequest& request,
                     const AdmissionController::Verdict& verdict,
                     double est_service_ms, TraceRecorder* recorder,
                     RequestTrace& trace)
{
    RenderResult result;
    result.scene = request.scene;
    result.tier = verdict.tier;
    const std::string& tier_name = admission_.tiers()[verdict.tier].name;
    using Outcome = AdmissionController::Outcome;
    if (verdict.outcome != Outcome::kAccepted) {
        result.status = verdict.outcome == Outcome::kRejectedQueueFull
                            ? RequestStatus::kRejectedQueueFull
                            : RequestStatus::kShedDeadline;
        registry_.CountOutcome(scene, /*accepted=*/false,
                               result.status ==
                                   RequestStatus::kShedDeadline);
        TraceNotAccepted(recorder, trace, verdict, tier_name, result.status,
                         request.scene);
        return result;
    }
    result.queue_wait_ms = verdict.wait_ms;
    result.latency_ms = verdict.completion_ms - verdict.arrival_ms;
    registry_.CountOutcome(scene, /*accepted=*/true, /*shed=*/false);
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
    completed_.fetch_add(1);
    return Resolve(std::move(result));
}

SubmitReceipt
RenderService::Submit(const SceneRequest& request,
                      const SubmitOptions& options)
{
    // The request's one string lookup: every path below keys by id.
    const SceneId id = Resolve(request.scene);
    // Each path is a separate function, not interleaved conditions:
    // with no session and the window off this body is exactly the
    // pre-batching service, byte-identical telemetry included.
    if (options.session != 0) {
        return SubmitSession(id, request, options);
    }
    const double extra_service_ms = options.extra_service_ms;
    if (batch_window_ms_ > 0.0 && options.batching) {
        return SubmitBatched(id, request, extra_service_ms);
    }
    submitted_.fetch_add(1);
    TraceRecorder* const recorder = TraceRecorder::Global();
    RequestTrace trace = BeginRequestTrace(recorder, request);
    // First touch compiles and pins the scene; steady state returns the
    // pinned entry (an index lookup).
    const std::shared_ptr<const SceneEntry> scene =
        registry_.Touch(id, &pool_);

    // The service-time estimate is the frame's pipeline floor — the
    // dependency-DAG critical path — not the flat op sum: the wavefront
    // executor overlaps independent stages, so a deep-but-narrow frame
    // occupies the device for its longest chain, and admission verdicts
    // must reflect that (see accel/accelerator.h, EstimatedServiceMs).
    const double est_service_ms =
        EstimatedServiceMs(scene->cost) + extra_service_ms;
    const AdmissionController::Verdict verdict = admission_.Admit(
        request.arrival_ms, est_service_ms, request.deadline_ms,
        request.tier);
    RenderResult result =
        Judge(id, request, verdict, est_service_ms, recorder, trace);
    if (result.status != RequestStatus::kCompleted) {
        return {Resolve(std::move(result)), verdict};
    }
    return {Replay(scene->frame, trace, std::move(result)), verdict};
}

SubmitReceipt
RenderService::SubmitBatched(SceneId id, const SceneRequest& request,
                             double extra_service_ms)
{
    submitted_.fetch_add(1);
    const std::shared_ptr<const SceneEntry> scene =
        registry_.Touch(id, &pool_);

    // One lock around the whole join-or-open decision and its Admit:
    // the verdict depends on which batch the request lands in, so both
    // must see one consistent submission order.
    std::lock_guard<std::mutex> lock(batch_mutex_);
    // The trace opens under the lock too: batched submitters serialize
    // here, so trace ids stay deterministic in admission order.
    TraceRecorder* const recorder = TraceRecorder::Global();
    RequestTrace trace = BeginRequestTrace(recorder, request);
    // Mirror the admission clamp (arrivals are non-decreasing) so
    // window expiry and the device clock agree on "now".
    const double arrival =
        std::max(request.arrival_ms, last_batch_arrival_ms_);
    last_batch_arrival_ms_ = arrival;
    FlushExpiredLocked(arrival);

    auto batch = open_by_scene_[id];
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
        est = EstimatedServiceMs(scene->cost);
    }
    const AdmissionController::Verdict verdict = admission_.Admit(
        request.arrival_ms, est + extra_service_ms, request.deadline_ms,
        request.tier);
    RenderResult result =
        Judge(id, request, verdict, est, recorder, trace);
    if (result.status != RequestStatus::kCompleted) {
        // A shed or rejected joiner consumes no batch slot: the open
        // batch keeps collecting as if the request never arrived.
        return {Resolve(std::move(result)), verdict};
    }
    // Every member reports the scene's solo frame cost — the fused
    // execution is an amortization of identical frames, not a different
    // render — so per-request results are bit-identical to the
    // unbatched path's (the flush checks the fused cost separately).
    result.cost = scene->cost;

    // The ticket is issued now, in submission order; its result is
    // stored when the batch flushes.
    BatchMember member;
    member.ticket = ReserveTicket();
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
        fresh.scene = id;
        fresh.close_ms = arrival + batch_window_ms_;
        fresh.fused_cost = scene->cost;
        fresh.frame = scene->frame;
        fresh.trace_ctx = trace.ctx;
        if (recorder != nullptr && trace.active()) {
            recorder->RecordInstant(
                trace.ctx, "batch", "batch_open", verdict.arrival_ms,
                {TraceArg::Num("close_ms", fresh.close_ms)});
        }
        fresh.members.push_back(std::move(member));
        open_batches_.push_back(std::move(fresh));
        open_by_scene_[id] = std::prev(open_batches_.end());
    }
    return {ticket, verdict};
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
    std::lock_guard<std::mutex> lock(session_mutex_);
    Session session;
    session.scene = id;
    session.model = model;
    sessions_.push_back(session);
    return sessions_.size();
}

double
RenderService::PeekSessionEstimate(SessionId session, const Pose& pose)
{
    std::lock_guard<std::mutex> lock(session_mutex_);
    FLEX_CHECK_MSG(session != 0 && session <= sessions_.size(),
                   "unknown session " << session);
    const Session& state = sessions_[session - 1];
    // Administrative touch: a price preview is not a request.
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
RenderService::SubmitSession(SceneId id, const SceneRequest& request,
                             const SubmitOptions& options)
{
    submitted_.fetch_add(1);
    // One lock around the whole coherence decision and its Admit: the
    // verdict depends on the session's last rendered pose, so both must
    // see one consistent submission order.
    std::lock_guard<std::mutex> lock(session_mutex_);
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
    const std::shared_ptr<const SceneEntry> scene =
        registry_.Touch(id, &pool_);

    // Coherence decision: measure the new pose against the last
    // *rendered* pose. The first frame has no predecessor to warp from
    // (a full recompute, not a break); later frames go delta when the
    // overlap clears the model's break threshold.
    bool as_delta = false;
    bool coherence_break = false;
    double reuse = 0.0;
    std::shared_ptr<const DeltaSceneFrame> delta;
    if (session.has_last_pose) {
        const std::size_t quantum =
            session.model.ReuseQuantum(session.last_pose, options.pose);
        if (session.model.IsCoherenceBreak(quantum)) {
            coherence_break = true;
        } else if (quantum > 0) {
            as_delta = true;
            reuse = static_cast<double>(quantum) /
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
    if (as_delta) {
        context.kind = EstimateKind::kDelta;
        context.reference = &scene->cost;
        estimate = Accelerator::Estimate(delta->cost, context);
    } else {
        estimate = Accelerator::Estimate(scene->cost, context);
    }
    const AdmissionController::Verdict verdict = admission_.Admit(
        request.arrival_ms, estimate.service_ms, request.deadline_ms,
        request.tier);
    RenderResult result =
        Judge(id, request, verdict, estimate.service_ms, recorder, trace);
    if (result.status != RequestStatus::kCompleted) {
        // The session does not advance: a rejected or shed frame was
        // never rendered, so the next frame's reuse is still measured
        // against the last frame that actually exists.
        return {Resolve(std::move(result)), verdict};
    }
    if (recorder != nullptr && trace.active()) {
        recorder->RecordInstant(
            trace.ctx, "session",
            as_delta ? "session_delta"
                     : (coherence_break ? "session_break" : "session_full"),
            verdict.arrival_ms,
            {TraceArg::Int("session",
                           static_cast<std::int64_t>(options.session)),
             TraceArg::Num("reuse", reuse),
             TraceArg::Num("est_ms", estimate.service_ms),
             TraceArg::Num("savings_ms", estimate.savings_ms)});
    }

    // This frame renders: it becomes the session's predecessor.
    session.has_last_pose = true;
    session.last_pose = options.pose;
    session.reuse_sum += reuse;
    session.delta_savings_ms += estimate.savings_ms;
    if (as_delta) {
        ++session.delta_frames;
    } else {
        ++session.full_frames;
        if (coherence_break) ++session.coherence_breaks;
    }

    // The handle pins the plan-cache entry (delta shapes live in the
    // LRU like any entry; the pin keeps the replay safe past eviction)
    // — the same steady-state prepared path as a solo frame.
    return {Replay(as_delta ? delta->frame : scene->frame, trace,
                   std::move(result)),
            verdict};
}

void
RenderService::FlushBatchLocked(std::list<OpenBatch>::iterator batch)
{
    OpenBatch closing = std::move(*batch);
    open_batches_.erase(batch);
    open_by_scene_[closing.scene] = open_batches_.end();

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
                 TraceArg::Str("scene", closing.members[0].result.scene)});
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
    completed_.fetch_add(elements);
    std::lock_guard<std::mutex> lock(mutex_);
    for (BatchMember& member : closing.members) {
        // A pending slot is never popped, so the index is live.
        TicketSlot& slot = results_[member.ticket - results_base_];
        slot.result = std::move(member.result);
        slot.state = TicketSlot::State::kReady;
    }
}

bool
RenderService::ProbeBatchJoin(SceneId scene, double arrival_ms,
                              double* marginal_est_ms)
{
    if (batch_window_ms_ <= 0.0) return false;
    std::lock_guard<std::mutex> lock(batch_mutex_);
    const auto open = open_by_scene_.at(scene);
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
RenderService::FlushAllOpenBatches()
{
    std::lock_guard<std::mutex> lock(batch_mutex_);
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
    FlushAllOpenBatches();
    std::lock_guard<std::mutex> lock(mutex_);
    FLEX_CHECK_MSG(ticket >= results_base_ &&
                       ticket - results_base_ < results_.size() &&
                       results_[ticket - results_base_].state ==
                           TicketSlot::State::kReady,
                   "unknown or already-consumed serve ticket " << ticket);
    TicketSlot& slot = results_[ticket - results_base_];
    RenderResult result = std::move(slot.result);
    slot.state = TicketSlot::State::kClaimed;
    PopClaimedLocked();
    return result;
}

std::vector<RenderResult>
RenderService::WaitAll()
{
    FlushAllOpenBatches();
    std::vector<RenderResult> results;
    std::lock_guard<std::mutex> lock(mutex_);
    results.reserve(results_.size());
    // Slots are in ticket order already. A pending slot here belongs to
    // a Submit racing this call; it stays for a later Wait.
    for (TicketSlot& slot : results_) {
        if (slot.state != TicketSlot::State::kReady) continue;
        results.push_back(std::move(slot.result));
        slot.state = TicketSlot::State::kClaimed;
    }
    PopClaimedLocked();
    return results;
}

ServeLedger
RenderService::Ledger() const
{
    ServeLedger ledger;
    AdmissionController::Counters admitted = admission_.counters();
    ledger.submitted = submitted_.load();
    ledger.accepted = admitted.accepted;
    ledger.rejected_queue_full = admitted.rejected_queue_full;
    ledger.shed_deadline = admitted.shed_deadline;
    ledger.completed = completed_.load();
    ledger.busy_ms = admitted.busy_ms;
    ledger.first_arrival_ms = admitted.first_arrival_ms;
    ledger.last_completion_ms = admitted.last_completion_ms;
    ledger.tiers = std::move(admitted.tiers);
    {
        std::lock_guard<std::mutex> lock(batch_mutex_);
        ledger.batches_dispatched = batches_dispatched_;
        ledger.fused_batches = fused_batches_;
        ledger.batched_requests = batched_requests_;
        ledger.batched_accepted = batched_accepted_total_;
        ledger.max_batch_elements = max_batch_seen_;
    }
    std::lock_guard<std::mutex> lock(session_mutex_);
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
RenderService::Snapshot() const
{
    ServiceStats stats;
    const ServeLedger ledger = Ledger();
    stats.Derive(ledger, latency_, admission_.tiers(), tier_latency_,
                 ledger.SpanMs());
    {
        std::lock_guard<std::mutex> lock(session_mutex_);
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
                accepted > 0
                    ? session.reuse_sum / static_cast<double>(accepted)
                    : 0.0;
            row.delta_savings_ms = session.delta_savings_ms;
            stats.sessions.push_back(std::move(row));
        }
    }
    stats.cache = cache_.stats();
    stats.cache_entries = cache_.size();
    stats.scenes = registry_.Stats();
    return stats;
}

void
ServiceStats::PublishTo(MetricsRegistry& registry,
                        const std::string& prefix) const
{
    PublishShared(registry, prefix);
    registry.SetCounter(prefix + ".cache.plan_hits",
                        static_cast<double>(cache.plan_hits));
    registry.SetCounter(prefix + ".cache.plan_misses",
                        static_cast<double>(cache.plan_misses));
    registry.SetCounter(prefix + ".cache.frame_hits",
                        static_cast<double>(cache.frame_hits));
    registry.SetCounter(prefix + ".cache.evictions",
                        static_cast<double>(cache.evictions));
    registry.SetGauge(prefix + ".cache.entries",
                      static_cast<double>(cache_entries));
    // Gated like the shared session block (PublishShared).
    if (sessions_opened > 0) {
        registry.SetCounter(prefix + ".cache.delta_hits",
                            static_cast<double>(cache.delta_hits));
        registry.SetCounter(prefix + ".cache.delta_misses",
                            static_cast<double>(cache.delta_misses));
        for (const SessionStats& session : sessions) {
            const std::string base =
                prefix + ".session." + std::to_string(session.id);
            registry.SetCounter(base + ".frames",
                                static_cast<double>(session.frames));
            registry.SetCounter(
                base + ".delta_frames",
                static_cast<double>(session.delta_frames));
            registry.SetCounter(base + ".full_frames",
                                static_cast<double>(session.full_frames));
            registry.SetCounter(
                base + ".coherence_breaks",
                static_cast<double>(session.coherence_breaks));
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
        registry.SetCounter(base + ".requests",
                            static_cast<double>(scene.requests));
        registry.SetCounter(base + ".accepted",
                            static_cast<double>(scene.accepted));
        registry.SetCounter(base + ".rejected",
                            static_cast<double>(scene.rejected));
        registry.SetCounter(base + ".shed",
                            static_cast<double>(scene.shed));
        registry.SetCounter(base + ".prepared_replays",
                            static_cast<double>(scene.prepared_replays));
        registry.SetGauge(base + ".est_latency_ms", scene.est_latency_ms);
    }
}

}  // namespace flexnerfer
