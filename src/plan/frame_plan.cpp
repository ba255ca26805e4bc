#include "plan/frame_plan.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "common/units.h"
#include "obs/trace.h"
#include "plan/gemm_memo.h"

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

/**
 * True when engine ops @p a and @p b evaluate to bit-identical
 * fragments: the same lowering, useful MACs (by bit pattern, so -0.0
 * and +0.0 stay apart) and GemmMemo key. The plan-level fields are
 * compared first; they are the cheapest.
 */
bool
SameEngineRun(const PlannedOp& a, const PlannedOp& b)
{
    return a.lowering == b.lowering &&
           std::memcmp(&a.useful_macs, &b.useful_macs,
                       sizeof(a.useful_macs)) == 0 &&
           GemmMemo::SameRun(a.engine_config, a.shape, b.engine_config,
                             b.shape);
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

FrameCost
FramePlan::Execute(GemmMemo* memo) const
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
    double frame_wall_begin_us = 0.0;
    if (recorder != nullptr) frame_wall_begin_us = recorder->NowWallUs();

    // Topological order, as the modeled pipeline would run the ops. An
    // op repeating a predecessor's engine run copies its fragment: the
    // predecessor was evaluated earlier in this walk.
    std::vector<OpSlot> slots(ops_.size());
    for (std::size_t k = 0; k < ops_.size(); ++k) {
        const std::size_t i = topo_order(k);
        const std::size_t source = run_source(i);
        if (recorder != nullptr) slots[i].wall_begin_us = recorder->NowWallUs();
        slots[i].fragment =
            source == i ? ops_[i].Evaluate(memo) : slots[source].fragment;
        if (recorder != nullptr) slots[i].wall_end_us = recorder->NowWallUs();
    }

    // Enqueue-order reduction: one addition per op per field, in op
    // order, exactly the sequence the legacy serial loops performed.
    FrameCost total;
    double energy = 0.0;
    double utilization_weighted = 0.0;
    double utilization_macs = 0.0;
    for (const OpSlot& slot : slots) {
        const OpCost& fragment = slot.fragment;
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
    // value is reproducible by an independent implementation of the
    // same recurrence (the parity tests compute it from the legacy
    // per-op latencies).
    double critical_path_ms = 0.0;
    for (std::size_t k = 0; k < ops_.size(); ++k) {
        const std::size_t i = topo_order(k);
        double ready_ms = 0.0;
        for (const std::size_t dep : ops_[i].deps) {
            ready_ms = std::max(ready_ms, slots[dep].finish_ms);
        }
        slots[i].finish_ms = ready_ms + slots[i].fragment.cost.latency_ms;
        critical_path_ms = std::max(critical_path_ms, slots[i].finish_ms);
    }
    total.critical_path_ms = critical_path_ms;

    if (recorder != nullptr) {
        // Per-op spans on the *virtual* pipeline schedule the critical
        // path implies — op i runs [max dep finish, finish(i)] after
        // the scope's anchor — so the trace lays the frame out as the
        // modeled device executes it. Wall endpoints are the measured
        // evaluation windows.
        const double anchor_ms = CurrentTraceAnchorMs();
        const std::string frame_name =
            std::string("frame:").append(workload_name_);
        TraceContext op_ctx;
        op_ctx.trace_id = trace_ctx.trace_id;
        op_ctx.parent_span = SpanId(trace_ctx.trace_id, frame_name);
        for (std::size_t k = 0; k < ops_.size(); ++k) {
            const std::size_t i = topo_order(k);
            const OpSlot& slot = slots[i];
            std::string span_name = "op" + std::to_string(i) + ":";
            span_name += ops_[i].name;
            recorder->RecordSpan(
                op_ctx, "op", span_name,
                anchor_ms + slot.finish_ms - slot.fragment.cost.latency_ms,
                anchor_ms + slot.finish_ms, slot.wall_begin_us,
                slot.wall_end_us,
                {TraceArg::Int("index", static_cast<std::int64_t>(i)),
                 TraceArg::Int("layer",
                               static_cast<std::int64_t>(layer_of(i))),
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

std::size_t
FramePlan::engine_run_count() const
{
    std::size_t count = 0;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
        if (ops_[i].uses_engine && run_source(i) == i) ++count;
    }
    return count;
}

FramePlanBuilder::FramePlanBuilder(std::string_view workload_name,
                                   std::size_t op_count)
{
    plan_.workload_name_ = workload_name;
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

    for (std::size_t i = 0; i < n; ++i) {
        for (const std::size_t dep : ops[i].deps) {
            if (dep >= n) {
                Fatal("plan '" + std::string(plan_.workload_name_) +
                      "': op '" + std::string(ops[i].name) +
                      "' depends on op index " +
                      std::to_string(dep) + ", but the plan has only " +
                      std::to_string(n) + " ops");
            }
            if (dep == i) {
                Fatal("plan '" + std::string(plan_.workload_name_) +
                      "': op '" + std::string(ops[i].name) +
                      "' depends on itself");
            }
        }
    }
    plan_.index_.assign(3 * n, 0);
    std::size_t* const topo = plan_.index_.data();
    std::size_t* const layer_of = topo + n;
    std::size_t* const run_source = layer_of + n;

    // Run sources: an engine op whose run is bit-equal to that of one of
    // its direct predecessors (equal layers of an MLP trunk, one layer
    // across the elements of a fused batch) copies that predecessor's
    // fragment instead of running the engine again. A chain of equal
    // ops therefore runs the engine once.
    for (std::size_t i = 0; i < n; ++i) {
        run_source[i] = i;
        if (!ops[i].uses_engine) continue;
        for (const std::size_t dep : ops[i].deps) {
            if (ops[dep].uses_engine && SameEngineRun(ops[i], ops[dep])) {
                run_source[i] = dep;
                break;
            }
        }
    }

    // Kahn's algorithm with a deterministic tie-break: each step emits
    // the lowest-index op whose predecessors have all been emitted, and
    // fixes its layer then (every predecessor's layer is final). An op
    // is unemitted while its layer word reads kUnplaced. Ops below
    // `first` are all emitted, so a plan whose edges all point backward
    // — every workload the models build — finds each op at the cursor.
    constexpr std::size_t kUnplaced = static_cast<std::size_t>(-1);
    std::fill(layer_of, layer_of + n, kUnplaced);
    const auto ready = [&](std::size_t i) {
        if (layer_of[i] != kUnplaced) return false;
        for (const std::size_t dep : ops[i].deps) {
            if (layer_of[dep] == kUnplaced) return false;
        }
        return true;
    };
    std::size_t first = 0;
    for (std::size_t step = 0; step < n; ++step) {
        std::size_t next = first;
        while (next < n && !ready(next)) ++next;
        if (next == n) {
            Fatal("plan '" + std::string(plan_.workload_name_) +
                  "': dependency edges form a cycle (no executable "
                  "order exists)");
        }
        std::size_t layer = 0;
        for (const std::size_t dep : ops[next].deps) {
            layer = std::max(layer, layer_of[dep] + 1);
        }
        layer_of[next] = layer;
        topo[step] = next;
        plan_.depth_ = std::max(plan_.depth_, layer + 1);
        while (first < n && layer_of[first] != kUnplaced) ++first;
    }
    return std::move(plan_);
}

}  // namespace flexnerfer
