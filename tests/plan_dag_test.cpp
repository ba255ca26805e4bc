/**
 * @file
 * Tests for dependency-aware (layer-pipelined) frame plans: DAG
 * compilation (edge validation, cycle rejection, deterministic
 * topological order, layering), the critical-path cost against
 * hand-computed values, and the pipelined-vs-flat suite — every model
 * x accelerator family keeps its critical path within the flat sum.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "accel/flexnerfer.h"
#include "accel/gpu_model.h"
#include "accel/neurex.h"
#include "models/workload.h"
#include "plan/frame_plan.h"
#include "plan/frame_planner.h"
#include "plan/gemm_memo.h"
#include "frame_cost_matchers.h"

namespace flexnerfer {
namespace {

/** A fixed op with a known latency, for synthetic DAGs. @p name must
 *  outlive the plan: pass a literal. */
WorkloadOp
FixedOp(std::string_view name, OpDeps deps)
{
    WorkloadOp op;
    op.kind = OpKind::kOther;
    op.name = name;
    op.deps = deps;
    return op;
}

/** The plan's topological order, copied out for whole-order checks. */
std::vector<std::size_t>
TopoOrder(const FramePlan& plan)
{
    std::vector<std::size_t> order(plan.ops().size());
    for (std::size_t k = 0; k < order.size(); ++k) {
        order[k] = plan.topo_order(k);
    }
    return order;
}

/** Each op's dependency layer, copied out for whole-plan checks. */
std::vector<std::size_t>
Layers(const FramePlan& plan)
{
    std::vector<std::size_t> layers(plan.ops().size());
    for (std::size_t i = 0; i < layers.size(); ++i) {
        layers[i] = plan.layer_of(i);
    }
    return layers;
}

OpCost
FixedFragment(double latency_ms)
{
    OpCost fragment;
    fragment.cost.other_ms = latency_ms;
    fragment.cost.latency_ms = latency_ms;
    return fragment;
}

/** Checks @p order is a valid topological order of @p plan's edges. */
void
ExpectValidTopoOrder(const FramePlan& plan)
{
    const std::vector<std::size_t> order = TopoOrder(plan);
    ASSERT_EQ(order.size(), plan.ops().size());
    std::vector<std::size_t> position(order.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
        position[order[i]] = i;
    }
    for (std::size_t i = 0; i < plan.ops().size(); ++i) {
        for (const std::size_t dep : plan.ops()[i].deps) {
            EXPECT_LT(position[dep], position[i])
                << plan.workload_name() << ": op " << i
                << " ordered before its dependency " << dep;
        }
    }
}

TEST(PlanDag, WorkloadEdgesSurviveLoweringForEveryFamily)
{
    const FlexNeRFerModel flex;
    const NeuRexModel neurex;
    const GpuModel gpu;
    for (const std::string& name : AllModelNames()) {
        const NerfWorkload w = BuildWorkload(name);
        for (const Accelerator* accel :
             {static_cast<const Accelerator*>(&flex),
              static_cast<const Accelerator*>(&neurex),
              static_cast<const Accelerator*>(&gpu)}) {
            const FramePlan plan = FramePlanner::Compile(*accel, w);
            ASSERT_EQ(plan.ops().size(), w.ops.size());
            for (std::size_t i = 0; i < w.ops.size(); ++i) {
                EXPECT_EQ(plan.ops()[i].deps, w.ops[i].deps)
                    << accel->name() << " " << name << " op " << i;
            }
            ExpectValidTopoOrder(plan);
            // Layers are consistent: every op sits one past its
            // deepest dependency, and the depth covers the deepest op.
            std::size_t max_layer = 0;
            for (std::size_t i = 0; i < plan.ops().size(); ++i) {
                std::size_t expect_layer = 0;
                for (const std::size_t dep : plan.ops()[i].deps) {
                    expect_layer = std::max(expect_layer,
                                            plan.layer_of(dep) + 1);
                }
                EXPECT_EQ(plan.layer_of(i), expect_layer);
                max_layer = std::max(max_layer, plan.layer_of(i));
            }
            EXPECT_EQ(plan.depth(), max_layer + 1);
        }
    }
}

TEST(PlanDag, EveryModelHasRealPipelineStructure)
{
    // The stage chains of models/workload.cpp must survive into the
    // compiled plans: depth > 1 (there IS a pipeline), and the MLP
    // chain makes depth substantial, while parallel branches keep some
    // models' critical path strictly below the flat sum.
    const FlexNeRFerModel flex;
    std::size_t models_with_slack = 0;
    for (const std::string& name : AllModelNames()) {
        const FramePlan plan =
            FramePlanner::Compile(flex, BuildWorkload(name));
        EXPECT_GT(plan.depth(), 2u) << name;
        EXPECT_LE(plan.depth(), plan.ops().size()) << name;
        const FrameCost cost = plan.Execute();
        EXPECT_GT(cost.critical_path_ms, 0.0) << name;
        // <= up to rounding: the chain fold (topo order) and the flat
        // sum (op order) add the same terms in different orders, so a
        // pure chain can land an ulp either side of the sum.
        EXPECT_LE(cost.critical_path_ms,
                  cost.latency_ms * (1.0 + 1e-12))
            << name;
        if (cost.critical_path_ms < cost.latency_ms * (1.0 - 1e-9)) {
            ++models_with_slack;
        }
    }
    // At least the branchy models (NSVF, TensoRF, NeRF's view branch)
    // must expose overlap headroom.
    EXPECT_GE(models_with_slack, 3u);
}

TEST(PlanDagDeathTest, RejectsDependencyCycles)
{
    FramePlanBuilder builder("cyclic");
    builder.AddFixedOp(FixedOp("a", {1}), FixedFragment(1.0));
    builder.AddFixedOp(FixedOp("b", {0}), FixedFragment(1.0));
    EXPECT_DEATH(builder.Build(), "cycle");
}

TEST(PlanDagDeathTest, RejectsSelfDependencyAndOutOfRangeEdges)
{
    {
        FramePlanBuilder builder("self");
        builder.AddFixedOp(FixedOp("a", {0}), FixedFragment(1.0));
        EXPECT_DEATH(builder.Build(), "depends on itself");
    }
    {
        FramePlanBuilder builder("dangling");
        builder.AddFixedOp(FixedOp("a", {7}), FixedFragment(1.0));
        EXPECT_DEATH(builder.Build(), "only 1 ops");
    }
}

TEST(PlanDagDeathTest, AFifthDependencyIsFatal)
{
    // Edges are held inline, OpDeps::kCapacity of them: a push past
    // capacity is a simulator bug, not a silent truncation.
    OpDeps deps = {0, 1, 2, 3};
    ASSERT_EQ(deps.size(), OpDeps::kCapacity);
    EXPECT_DEATH(deps.push_back(4), "at most 4 producers");
}

TEST(PlanDag, TopoOrderDeterministicAcrossCompiles)
{
    // Two independent compiles order identically, and executing neither
    // perturbs the plan nor the cost. Ties break toward the lowest op
    // index (Kahn with an index scan).
    const FlexNeRFerModel flex;
    for (const std::string& name : AllModelNames()) {
        const NerfWorkload w = BuildWorkload(name);
        const FramePlan a = FramePlanner::Compile(flex, w);
        const FramePlan b = FramePlanner::Compile(flex, w);
        EXPECT_EQ(TopoOrder(a), TopoOrder(b)) << name;
        EXPECT_EQ(Layers(a), Layers(b)) << name;
        const FrameCost serial = a.Execute();
        ExpectBitIdentical(b.Execute(), serial, name + " recompiled");
        EXPECT_EQ(TopoOrder(a), TopoOrder(b)) << name << " post-run";
    }
}

TEST(PlanDag, CriticalPathOfThreeLayerMlpChainIsHandComputable)
{
    // A 3-layer MLP chain compiled for the FlexNeRFer model: the
    // critical path of a pure chain is exactly the sum of its per-op
    // latencies, accumulated in chain order. Per-op latencies are read
    // from single-op sub-plans of the same ops (compilation is pure,
    // so the op's fragment is identical in isolation).
    const FlexNeRFerModel flex;
    NerfWorkload chain;
    chain.name = "chain3";
    constexpr std::string_view kNames[] = {"fc0", "fc1", "fc2"};
    std::int64_t in = 64;
    for (int layer = 0; layer < 3; ++layer) {
        WorkloadOp op;
        op.kind = OpKind::kGemm;
        op.name = kNames[layer];
        if (layer > 0) op.deps = {static_cast<std::size_t>(layer - 1)};
        op.gemm = {4096, in, 128, 1.0, 1.0, 0.0};
        chain.ops.push_back(op);
        in = 128;
    }

    double expected_cp = 0.0;
    double expected_flat = 0.0;
    for (const WorkloadOp& op : chain.ops) {
        NerfWorkload single;
        single.name = "single_" + std::string(op.name);
        WorkloadOp alone = op;
        alone.deps.clear();
        single.ops.push_back(alone);
        const double op_ms =
            FramePlanner::Compile(flex, single).Execute().latency_ms;
        expected_cp += op_ms;  // chain: finish(i) = finish(i-1) + op_ms
        expected_flat += op_ms;
    }

    const FramePlan plan = FramePlanner::Compile(flex, chain);
    EXPECT_EQ(plan.depth(), 3u);
    const FrameCost cost = plan.Execute();
    EXPECT_EQ(cost.critical_path_ms, expected_cp);
    EXPECT_EQ(cost.latency_ms, expected_flat);
    EXPECT_EQ(cost.critical_path_ms, cost.latency_ms);
}

TEST(PlanDag, CriticalPathOfDiamondTakesTheLongerBranch)
{
    // source -> {fast, slow} -> sink, with hand-picked latencies: the
    // critical path must be source + slow + sink; the flat sum charges
    // both branches.
    FramePlanBuilder builder("diamond");
    builder.AddFixedOp(FixedOp("source", {}), FixedFragment(2.0));
    builder.AddFixedOp(FixedOp("fast", {0}), FixedFragment(1.0));
    builder.AddFixedOp(FixedOp("slow", {0}), FixedFragment(5.0));
    builder.AddFixedOp(FixedOp("sink", {1, 2}), FixedFragment(3.0));
    const FramePlan plan = builder.Build();
    EXPECT_EQ(plan.depth(), 3u);

    const FrameCost serial = plan.Execute();
    EXPECT_EQ(serial.critical_path_ms, 2.0 + 5.0 + 3.0);
    EXPECT_EQ(serial.latency_ms, 2.0 + 1.0 + 5.0 + 3.0);
}

TEST(PlanDag, DuplicateAndForwardEdgesWithTwoSourcesAreHandComputable)
{
    // Build's Kahn order against a hand-worked DAG: a dependency
    // listed twice ("mid" on src_a), forward edges (op 0 waits on ops 2
    // and 3, appended after it) and two sources (src_a, src_b).
    //
    //   0 sink   deps {3, 2}  1.0 ms
    //   1 src_a  deps {}      2.0 ms
    //   2 mid    deps {1, 1}  4.0 ms
    //   3 src_b  deps {}      3.0 ms
    //   4 tail   deps {0}     0.5 ms
    //
    // Kahn, lowest ready index first: 1 (retires both copies of the
    // 1 -> 2 edge), 2, 3, 0, 4. finish: src_a 2, mid 6, src_b 3,
    // sink max(3, 6) + 1 = 7, tail 7.5.
    FramePlanBuilder builder("dup_forward", 5);
    builder.AddFixedOp(FixedOp("sink", {3, 2}), FixedFragment(1.0));
    builder.AddFixedOp(FixedOp("src_a", {}), FixedFragment(2.0));
    builder.AddFixedOp(FixedOp("mid", {1, 1}), FixedFragment(4.0));
    builder.AddFixedOp(FixedOp("src_b", {}), FixedFragment(3.0));
    builder.AddFixedOp(FixedOp("tail", {0}), FixedFragment(0.5));
    const FramePlan plan = builder.Build();

    EXPECT_EQ(TopoOrder(plan), (std::vector<std::size_t>{1, 2, 3, 0, 4}));
    EXPECT_EQ(Layers(plan), (std::vector<std::size_t>{2, 0, 1, 0, 3}));
    EXPECT_EQ(plan.depth(), 4u);

    const FrameCost serial = plan.Execute();
    EXPECT_EQ(serial.critical_path_ms, 7.5);
    EXPECT_EQ(serial.latency_ms, 1.0 + 2.0 + 4.0 + 3.0 + 0.5);
}

TEST(PlanDag, CriticalPathWithinFlatSumAllModelsAllFamilies)
{
    // For all 7 models x 3 accelerator families, the critical path
    // obeys its bounds (0 < cp <= flat sum).
    const FlexNeRFerModel flex;
    const NeuRexModel neurex;
    const GpuModel gpu;
    for (const Accelerator* accel :
         {static_cast<const Accelerator*>(&flex),
          static_cast<const Accelerator*>(&neurex),
          static_cast<const Accelerator*>(&gpu)}) {
        for (const std::string& name : AllModelNames()) {
            const NerfWorkload w = BuildWorkload(name);
            const FramePlan plan = FramePlanner::Compile(*accel, w);
            const std::string label = accel->name() + " " + name;
            const FrameCost serial = plan.Execute();
            EXPECT_GT(serial.critical_path_ms, 0.0) << label;
            // Tolerance: see EveryModelHasRealPipelineStructure.
            EXPECT_LE(serial.critical_path_ms,
                      serial.latency_ms * (1.0 + 1e-12))
                << label;
        }
    }
}

/** Distinct engine runs per plan of the 7 models, in AllModelNames
 *  order: NeRF and Mip-NeRF run their 8 x 256 trunk's equal hidden
 *  layers once, NSVF its equal 128-wide pair and IBRNet its three
 *  equal conv layers. */
constexpr std::size_t kModelEngineRuns[] = {4, 3, 3, 4, 5, 7, 2};

TEST(PlanDag, EachDistinctEngineRunIsCountedOnce)
{
    const FlexNeRFerModel flex;
    const NeuRexModel neurex;
    const std::vector<std::string>& names = AllModelNames();
    ASSERT_EQ(names.size(), std::size(kModelEngineRuns));
    for (std::size_t m = 0; m < names.size(); ++m) {
        const NerfWorkload w = BuildWorkload(names[m]);
        for (const Accelerator* accel :
             {static_cast<const Accelerator*>(&flex),
              static_cast<const Accelerator*>(&neurex)}) {
            const FramePlan plan = FramePlanner::Compile(*accel, w);
            EXPECT_EQ(plan.engine_run_count(), kModelEngineRuns[m])
                << accel->name() << " " << names[m];
            // Every engine op still counts as one.
            std::size_t gemm_ops = 0;
            for (const WorkloadOp& op : w.ops) {
                if (op.kind == OpKind::kGemm) ++gemm_ops;
            }
            EXPECT_EQ(plan.engine_op_count(), gemm_ops)
                << accel->name() << " " << names[m];
        }
    }
    // Fusing chains each element's op behind the previous element's
    // equal op, so three NeRF frames still make NeRF's 4 runs.
    const FramePlan fused =
        FramePlanner::Compile(flex, FuseBatch(BuildWorkload("NeRF"), 3));
    EXPECT_EQ(fused.engine_op_count(), 33u);
    EXPECT_EQ(fused.engine_run_count(), 4u);
}

/** One engine run: everything Build compares to merge two runs. */
struct EngineRun {
    GemmEngineConfig config;
    GemmShape shape{4096, 256, 256, 0.55, 1.0, 0.0};
    GemmLowering lowering = GemmLowering::kCodecAware;
    double useful_macs = 1e6;
};

/** An engine op named @p name (a literal) with edges @p deps. */
WorkloadOp
GemmOp(std::string_view name, OpDeps deps)
{
    WorkloadOp op;
    op.kind = OpKind::kGemm;
    op.name = name;
    op.deps = deps;
    return op;
}

/** fc0 -> fc1, running @p first then @p second. */
FramePlan
EngineChain(const EngineRun& first, const EngineRun& second)
{
    FramePlanBuilder builder("engine_chain", 2);
    builder.AddEngineOp(GemmOp("fc0", {}), first.config, first.shape,
                        first.lowering, first.useful_macs);
    builder.AddEngineOp(GemmOp("fc1", {0}), second.config, second.shape,
                        second.lowering, second.useful_macs);
    return builder.Build();
}

/** Engine lookups one Execute of @p plan makes, counted by a memo. */
std::uint64_t
EngineLookups(const FramePlan& plan)
{
    GemmMemo memo;
    plan.Execute(&memo);
    return memo.hits() + memo.misses();
}

TEST(PlanDag, RunsMergeOnlyWhenBitEqual)
{
    const EngineRun base;
    const FramePlan equal = EngineChain(base, base);
    EXPECT_EQ(equal.engine_op_count(), 2u);
    EXPECT_EQ(equal.engine_run_count(), 1u);
    EXPECT_EQ(EngineLookups(equal), 1u);
    // The copied fragment is the evaluated one: each op's share of the
    // frame equals a fresh evaluation of that op.
    const FrameCost cost = equal.Execute();
    const OpCost fragment = equal.ops()[0].Evaluate(nullptr);
    EXPECT_EQ(cost.latency_ms,
              fragment.cost.latency_ms + fragment.cost.latency_ms);
    EXPECT_EQ(cost.critical_path_ms, cost.latency_ms);

    using Flip = void (*)(EngineRun*);
    const std::vector<std::pair<std::string, Flip>> flips = {
        {"shape.structured_prune_b +0.0 -> -0.0",
         [](EngineRun* r) { r->shape.structured_prune_b = -0.0; }},
        {"config.noc.hop_energy_pj",
         [](EngineRun* r) { r->config.noc.hop_energy_pj *= 2.0; }},
        {"lowering",
         [](EngineRun* r) { r->lowering = GemmLowering::kDenseEngine; }},
        {"useful_macs", [](EngineRun* r) { r->useful_macs = 2e6; }},
    };
    for (const auto& [field, flip] : flips) {
        EngineRun other = base;
        flip(&other);
        const FramePlan plan = EngineChain(base, other);
        EXPECT_EQ(plan.engine_run_count(), 2u) << field;
        EXPECT_EQ(EngineLookups(plan), 2u) << field;
        // The second op's fragment is its own evaluation, not a copy.
        const FrameCost separate = plan.Execute();
        EXPECT_EQ(separate.latency_ms,
                  plan.ops()[0].Evaluate(nullptr).cost.latency_ms +
                      plan.ops()[1].Evaluate(nullptr).cost.latency_ms)
            << field;
    }
}

TEST(PlanDag, EqualRunsWithoutAnEdgeAreBothEvaluated)
{
    // Instant-NGP's density_mlp_fc0 and color_mlp_fc0 are the same
    // engine run, but neither depends on the other, so neither can
    // copy the other's fragment: both reach the engine (the memo sees
    // the second as a hit).
    const FlexNeRFerModel flex;
    const FramePlan plan =
        FramePlanner::Compile(flex, BuildWorkload("Instant-NGP"));
    std::size_t density0 = plan.ops().size();
    std::size_t color0 = plan.ops().size();
    for (std::size_t i = 0; i < plan.ops().size(); ++i) {
        if (plan.ops()[i].name == "density_mlp_fc0") density0 = i;
        if (plan.ops()[i].name == "color_mlp_fc0") color0 = i;
    }
    ASSERT_LT(density0, plan.ops().size());
    ASSERT_LT(color0, plan.ops().size());
    const PlannedOp& a = plan.ops()[density0];
    const PlannedOp& b = plan.ops()[color0];
    ASSERT_TRUE(a.uses_engine && b.uses_engine);
    ASSERT_TRUE(GemmMemo::SameRun(a.engine_config, a.shape,
                                  b.engine_config, b.shape));
    ASSERT_EQ(a.lowering, b.lowering);
    ASSERT_EQ(a.useful_macs, b.useful_macs);
    for (const std::size_t dep : b.deps) EXPECT_NE(dep, density0);
    for (const std::size_t dep : a.deps) EXPECT_NE(dep, color0);

    EXPECT_EQ(plan.engine_run_count(), plan.engine_op_count());
    GemmMemo memo;
    plan.Execute(&memo);
    EXPECT_EQ(memo.hits() + memo.misses(), plan.engine_op_count());
    EXPECT_EQ(memo.hits(), 1u);
}

TEST(PlanDag, FusedPlansSumFreshFragmentsInOpOrder)
{
    // A fused batch is where copies reach furthest (one run feeds a
    // chain of equal ops across elements): every field of the frame
    // equals the op-order sum of fresh per-op evaluations.
    const FlexNeRFerModel flex;
    const NeuRexModel neurex;
    for (const Accelerator* accel :
         {static_cast<const Accelerator*>(&flex),
          static_cast<const Accelerator*>(&neurex)}) {
        for (const std::string& name : AllModelNames()) {
            const FramePlan plan = FramePlanner::Compile(
                *accel, FuseBatch(BuildWorkload(name), 3));
            const std::string label = accel->name() + " fused " + name;
            const FrameCost serial = plan.Execute();
            double latency_ms = 0.0;
            double gemm_ms = 0.0;
            double dram_ms = 0.0;
            double gemm_macs = 0.0;
            for (const PlannedOp& op : plan.ops()) {
                const OpCost fragment = op.Evaluate(nullptr);
                latency_ms += fragment.cost.latency_ms;
                gemm_ms += fragment.cost.gemm_ms;
                dram_ms += fragment.cost.dram_ms;
                gemm_macs += fragment.utilization_macs;
            }
            EXPECT_EQ(serial.latency_ms, latency_ms) << label;
            EXPECT_EQ(serial.gemm_ms, gemm_ms) << label;
            EXPECT_EQ(serial.dram_ms, dram_ms) << label;
            EXPECT_EQ(serial.gemm_macs, gemm_macs) << label;
        }
    }
}

}  // namespace
}  // namespace flexnerfer
