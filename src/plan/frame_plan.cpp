#include "plan/frame_plan.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

#include "common/logging.h"
#include "common/units.h"
#include "obs/trace.h"
#include "plan/gemm_memo.h"
#include "runtime/thread_pool.h"

namespace flexnerfer {
namespace {

/** Stage label for trace-derived runtime attribution (the axis of the
 *  paper's Fig. 3 breakdown). */
const char*
StageName(OpKind kind)
{
    switch (kind) {
      case OpKind::kGemm: return "gemm";
      case OpKind::kPositionalEncoding: return "posenc";
      case OpKind::kHashEncoding: return "hash";
      case OpKind::kOther: return "other";
    }
    return "other";
}

/**
 * FlexNeRFer cost assembly: the codec is pipelined with fetch/compute
 * and DRAM is double-buffered against on-chip work; only the cycles
 * where each is the slowest stage are exposed as latency.
 */
OpCost
AssembleCodecAware(const GemmResult& r, double clock_ghz)
{
    OpCost fragment;
    const double codec_exposed_cycles = std::max(
        0.0, r.codec_cycles - std::max(r.fetch_cycles, r.compute_cycles));
    const double codec_ms = CyclesToMs(codec_exposed_cycles, clock_ghz);
    const double dram_exposed = std::max(0.0, r.dram_ms - r.onchip_ms);
    fragment.cost.gemm_ms = r.latency_ms - dram_exposed - codec_ms;
    fragment.cost.codec_ms = codec_ms;
    fragment.cost.dram_ms = dram_exposed;
    fragment.cost.latency_ms = r.latency_ms;
    fragment.cost.energy_mj = r.EnergyMj();
    fragment.utilization_weighted = r.utilization * r.useful_macs;
    fragment.utilization_macs = r.useful_macs;
    return fragment;
}

/**
 * Dense-engine cost assembly: no codec stage; utilization is measured
 * against the truly useful (sparse) work the dense array cannot skip.
 */
OpCost
AssembleDenseEngine(const GemmResult& r, double useful_macs)
{
    OpCost fragment;
    const double dram_exposed = std::max(0.0, r.dram_ms - r.onchip_ms);
    fragment.cost.gemm_ms = r.latency_ms - dram_exposed;
    fragment.cost.dram_ms = dram_exposed;
    fragment.cost.latency_ms = r.latency_ms;
    fragment.cost.energy_mj = r.EnergyMj();
    fragment.utilization_weighted =
        (r.issued_macs > 0.0 ? useful_macs / r.issued_macs : 0.0) *
        useful_macs;
    fragment.utilization_macs = useful_macs;
    return fragment;
}

}  // namespace

OpCost
PlannedOp::Evaluate(GemmMemo* memo) const
{
    if (!uses_engine) return fixed;
    const GemmEngine engine(engine_config);
    const GemmResult r = memo != nullptr
        ? memo->RunFromShape(engine, shape)
        : engine.RunFromShape(shape);
    switch (lowering) {
      case GemmLowering::kCodecAware:
        return AssembleCodecAware(r, engine_config.clock_ghz);
      case GemmLowering::kDenseEngine:
        return AssembleDenseEngine(r, useful_macs);
    }
    return fixed;
}

void
FramePlan::EvaluateOp(std::size_t i, GemmMemo* memo,
                      std::vector<OpCost>* fragments,
                      TraceRecorder* recorder,
                      std::vector<double>* wall_begin_us,
                      std::vector<double>* wall_end_us) const
{
    if (recorder != nullptr) {
        (*wall_begin_us)[i] = recorder->NowWallUs();
        (*fragments)[i] = ops_[i].Evaluate(memo);
        (*wall_end_us)[i] = recorder->NowWallUs();
    } else {
        (*fragments)[i] = ops_[i].Evaluate(memo);
    }
}

void
FramePlan::EvaluateSerial(GemmMemo* memo, std::vector<OpCost>* fragments,
                          TraceRecorder* recorder,
                          std::vector<double>* wall_begin_us,
                          std::vector<double>* wall_end_us) const
{
    // Topological order is the serial analogue of the wavefront: each
    // op runs after its predecessors, as the modeled pipeline would.
    // (Evaluation is pure per op, so any order yields the same
    // fragments; the contract is about fidelity, not correctness.)
    for (const std::size_t i : topo_order_) {
        EvaluateOp(i, memo, fragments, recorder, wall_begin_us,
                   wall_end_us);
    }
}

void
FramePlan::EvaluateWavefront(ThreadPool& pool, GemmMemo* memo,
                             std::vector<OpCost>* fragments,
                             TraceRecorder* recorder,
                             std::vector<double>* wall_begin_us,
                             std::vector<double>* wall_end_us) const
{
    const std::size_t n = ops_.size();
    // Plan-local wavefront state, drained by a ParallelFor over n
    // slots: each iteration completes exactly one op — pop a ready op,
    // evaluate it, retire its out-edges (enabling successors). Riding
    // ParallelFor (rather than raw Enqueues plus a completion future)
    // keeps the wavefront nest-safe: ParallelFor's caller claims
    // iterations itself, so an Execute issued from inside a pool task
    // — the serving hot path — finishes even when every other worker
    // is blocked in a frame of its own.
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::size_t> ready;
    bool aborted = false;  // an Evaluate threw; wake and bail out
    std::vector<std::size_t> pending(n);
    for (std::size_t i = 0; i < n; ++i) {
        pending[i] = ops_[i].deps.size();
        if (pending[i] == 0) ready.push_back(i);
    }

    pool.ParallelFor(
        static_cast<std::int64_t>(n), [&](std::int64_t) {
            std::size_t op;
            {
                // Waiting is deadlock-free: when the ready deque is
                // empty and ops remain, some op is mid-evaluation on
                // another thread (an iteration never blocks while it
                // holds an op), and its retirement — or its failure —
                // signals us.
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&ready, &aborted] {
                    return !ready.empty() || aborted;
                });
                if (aborted) return;
                op = ready.front();
                ready.pop_front();
            }
            try {
                EvaluateOp(op, memo, fragments, recorder, wall_begin_us,
                           wall_end_us);
            } catch (...) {
                // Unblock every waiting iteration before propagating:
                // the op's successors will never retire, and
                // ParallelFor's cancel machinery only skips iterations
                // that have not yet entered this fn.
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    aborted = true;
                }
                cv.notify_all();
                throw;  // ParallelFor rethrows on the calling thread
            }
            bool enabled = false;
            {
                std::lock_guard<std::mutex> lock(mutex);
                for (std::size_t e = successor_begin_[op];
                     e < successor_begin_[op + 1]; ++e) {
                    const std::size_t succ = successors_[e];
                    if (--pending[succ] == 0) {
                        ready.push_back(succ);
                        enabled = true;
                    }
                }
            }
            if (enabled) cv.notify_all();
        });
}

FrameCost
FramePlan::Execute(ThreadPool* pool, GemmMemo* memo) const
{
    // Tracing is on only when a recorder is installed AND the calling
    // thread carries a request context (set by the serving layer's
    // ScopedTraceContext) — a bare Execute records nothing, and the
    // disabled path costs one relaxed load.
    TraceRecorder* recorder = TraceRecorder::Global();
    TraceContext trace_ctx;
    if (recorder != nullptr) {
        trace_ctx = CurrentTraceContext();
        if (!trace_ctx.active() || ops_.empty()) recorder = nullptr;
    }
    std::vector<double> wall_begin_us;
    std::vector<double> wall_end_us;
    double frame_wall_begin_us = 0.0;
    if (recorder != nullptr) {
        wall_begin_us.assign(ops_.size(), 0.0);
        wall_end_us.assign(ops_.size(), 0.0);
        frame_wall_begin_us = recorder->NowWallUs();
    }

    std::vector<OpCost> fragments(ops_.size());
    // The wavefront only pays off when the DAG has width: a pure chain
    // (depth == op count) admits one ready op at a time, so fanning it
    // out would just park pool workers in waits for the whole frame —
    // run it on the calling thread instead (identical result either
    // way; evaluation is pure and the reduction is fixed-order).
    if (pool != nullptr && ops_.size() > 1 && depth_ < ops_.size()) {
        EvaluateWavefront(*pool, memo, &fragments, recorder,
                          &wall_begin_us, &wall_end_us);
    } else {
        EvaluateSerial(memo, &fragments, recorder, &wall_begin_us,
                       &wall_end_us);
    }

    // Enqueue-order reduction: one addition per op per field, in op
    // order, exactly the sequence the legacy serial loops performed —
    // this is what keeps the result bit-identical for any thread count.
    FrameCost total;
    double energy = 0.0;
    double utilization_weighted = 0.0;
    double utilization_macs = 0.0;
    for (const OpCost& fragment : fragments) {
        total.latency_ms += fragment.cost.latency_ms;
        total.gemm_ms += fragment.cost.gemm_ms;
        total.encoding_ms += fragment.cost.encoding_ms;
        total.other_ms += fragment.cost.other_ms;
        total.codec_ms += fragment.cost.codec_ms;
        total.dram_ms += fragment.cost.dram_ms;
        energy += fragment.cost.energy_mj;
        utilization_weighted += fragment.utilization_weighted;
        utilization_macs += fragment.utilization_macs;
    }
    total.gemm_utilization = utilization_macs > 0.0
        ? utilization_weighted / utilization_macs
        : 0.0;
    total.gemm_macs = utilization_macs;
    total.energy_mj = energy * energy_scale_;
    if (static_power_w_ != 0.0) {
        // Clock tree, leakage, and idle-stage power accrue over the
        // frame. The energy basis stays the summed op-active time:
        // pipelining overlaps stages, it does not shorten any stage's
        // powered-on time.
        total.energy_mj += total.latency_ms * static_power_w_;
    }

    // Critical path: the frame's pipeline floor. Folded in topological
    // order with exactly one max per edge and one add per op —
    // finish(i) = max over deps(finish(dep)) + latency(i) — so the
    // value is bit-identical for any thread count and reproducible by
    // an independent implementation of the same recurrence (the parity
    // tests compute it from the legacy per-op latencies).
    std::vector<double> finish(ops_.size(), 0.0);
    double critical_path_ms = 0.0;
    for (const std::size_t i : topo_order_) {
        double ready_ms = 0.0;
        for (const std::size_t dep : ops_[i].deps) {
            ready_ms = std::max(ready_ms, finish[dep]);
        }
        finish[i] = ready_ms + fragments[i].cost.latency_ms;
        critical_path_ms = std::max(critical_path_ms, finish[i]);
    }
    total.critical_path_ms = critical_path_ms;

    if (recorder != nullptr) {
        // Per-op spans on the *virtual* pipeline schedule the critical
        // path implies — op i runs [max dep finish, finish(i)] after
        // the scope's anchor — so the trace lays the frame out as the
        // modeled device executes it, whatever the host interleaving
        // was. Wall endpoints are the measured evaluation windows.
        const double anchor_ms = CurrentTraceAnchorMs();
        const std::string frame_name = "frame:" + workload_name_;
        TraceContext op_ctx;
        op_ctx.trace_id = trace_ctx.trace_id;
        op_ctx.parent_span = SpanId(trace_ctx.trace_id, frame_name);
        for (const std::size_t i : topo_order_) {
            const double latency_ms = fragments[i].cost.latency_ms;
            recorder->RecordSpan(
                op_ctx, "op",
                "op" + std::to_string(i) + ":" + ops_[i].name,
                anchor_ms + finish[i] - latency_ms, anchor_ms + finish[i],
                wall_begin_us[i], wall_end_us[i],
                {TraceArg::Int("index", static_cast<std::int64_t>(i)),
                 TraceArg::Int("layer",
                               static_cast<std::int64_t>(layer_of_[i])),
                 TraceArg::Str("stage", StageName(ops_[i].kind)),
                 TraceArg::Int("engine", ops_[i].uses_engine ? 1 : 0)});
        }
        recorder->RecordSpan(
            trace_ctx, "frame", frame_name, anchor_ms,
            anchor_ms + critical_path_ms, frame_wall_begin_us,
            recorder->NowWallUs(),
            {TraceArg::Int("ops", static_cast<std::int64_t>(ops_.size())),
             TraceArg::Int("engine_ops",
                           static_cast<std::int64_t>(engine_op_count())),
             TraceArg::Int("depth", static_cast<std::int64_t>(depth_))});
    }
    return total;
}

std::size_t
FramePlan::engine_op_count() const
{
    std::size_t count = 0;
    for (const PlannedOp& op : ops_) {
        if (op.uses_engine) ++count;
    }
    return count;
}

FramePlanBuilder::FramePlanBuilder(std::string workload_name,
                                   std::size_t op_count)
{
    plan_.workload_name_ = std::move(workload_name);
    plan_.ops_.reserve(op_count);
}

void
FramePlanBuilder::SetEpilogue(double static_power_w, double energy_scale)
{
    plan_.static_power_w_ = static_power_w;
    plan_.energy_scale_ = energy_scale;
}

void
FramePlanBuilder::AddEngineOp(const WorkloadOp& op,
                              const GemmEngineConfig& config,
                              const GemmShape& shape, GemmLowering lowering,
                              double useful_macs)
{
    PlannedOp& planned = plan_.ops_.emplace_back();
    planned.kind = op.kind;
    planned.name = op.name;
    planned.deps = op.deps;
    planned.uses_engine = true;
    planned.engine_config = config;
    planned.shape = shape;
    planned.lowering = lowering;
    planned.useful_macs = useful_macs;
}

void
FramePlanBuilder::AddFixedOp(const WorkloadOp& op, const OpCost& fragment)
{
    PlannedOp& planned = plan_.ops_.emplace_back();
    planned.kind = op.kind;
    planned.name = op.name;
    planned.deps = op.deps;
    planned.fixed = fragment;
}

FramePlan
FramePlanBuilder::Build()
{
    const std::size_t n = plan_.ops_.size();
    const std::vector<PlannedOp>& ops = plan_.ops_;

    // Validate edges and count each op's out-degree.
    std::vector<std::size_t>& begin = plan_.successor_begin_;
    begin.assign(n + 1, 0);
    std::vector<std::size_t> pending(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        for (const std::size_t dep : ops[i].deps) {
            if (dep >= n) {
                Fatal("plan '" + plan_.workload_name_ + "': op '" +
                      ops[i].name + "' depends on op index " +
                      std::to_string(dep) + ", but the plan has only " +
                      std::to_string(n) + " ops");
            }
            if (dep == i) {
                Fatal("plan '" + plan_.workload_name_ + "': op '" +
                      ops[i].name + "' depends on itself");
            }
            ++begin[dep];
        }
        pending[i] = ops[i].deps.size();
    }
    // Inclusive prefix sum: begin[d] is one past the end of d's run.
    // Scattering each edge to --begin[dep], consumers in descending
    // order, then leaves begin[d] at the start of d's run and every run
    // ascending (the order the nested successor lists had).
    for (std::size_t i = 1; i < n; ++i) begin[i] += begin[i - 1];
    begin[n] = n > 0 ? begin[n - 1] : 0;
    plan_.successors_.resize(begin[n]);
    for (std::size_t i = n; i-- > 0;) {
        for (const std::size_t dep : ops[i].deps) {
            plan_.successors_[--begin[dep]] = i;
        }
    }

    // Kahn's algorithm with a deterministic tie-break: among ready ops,
    // the lowest index runs first. n is a few dozen at most, so the
    // O(n^2) ready scan beats a heap on both simplicity and constant.
    // An emitted op's pending count becomes kEmitted so the scan skips
    // it.
    constexpr std::size_t kEmitted = static_cast<std::size_t>(-1);
    plan_.topo_order_.clear();
    plan_.topo_order_.reserve(n);
    plan_.layer_of_.assign(n, 0);
    for (std::size_t step = 0; step < n; ++step) {
        std::size_t next = n;
        for (std::size_t i = 0; i < n; ++i) {
            if (pending[i] == 0) {
                next = i;
                break;
            }
        }
        if (next == n) {
            Fatal("plan '" + plan_.workload_name_ +
                  "': dependency edges form a cycle (no executable "
                  "order exists)");
        }
        pending[next] = kEmitted;
        plan_.topo_order_.push_back(next);
        std::size_t layer = 0;
        for (const std::size_t dep : ops[next].deps) {
            layer = std::max(layer, plan_.layer_of_[dep] + 1);
        }
        plan_.layer_of_[next] = layer;
        plan_.depth_ = std::max(plan_.depth_, layer + 1);
        for (std::size_t e = begin[next]; e < begin[next + 1]; ++e) {
            --pending[plan_.successors_[e]];
        }
    }
    return std::move(plan_);
}

}  // namespace flexnerfer
