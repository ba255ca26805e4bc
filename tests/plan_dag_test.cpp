/**
 * @file
 * Tests for dependency-aware (layer-pipelined) frame plans: DAG
 * compilation (edge validation, cycle rejection, deterministic
 * topological order, layering), the critical-path cost against
 * hand-computed values, and the pipelined-vs-flat parity suite — the
 * wavefront executor must be bit-identical to serial execution for
 * every model x accelerator family at any thread count.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "accel/flexnerfer.h"
#include "accel/gpu_model.h"
#include "accel/neurex.h"
#include "models/workload.h"
#include "plan/frame_plan.h"
#include "plan/frame_planner.h"
#include "runtime/thread_pool.h"
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

TEST(PlanDag, TopoOrderDeterministicAcrossCompilesAndThreadCounts)
{
    // Two independent compiles order identically, and executing on 1-
    // vs 8-thread pools neither perturbs the plan nor the cost. Ties
    // break toward the lowest op index (Kahn with an index scan).
    ThreadPool pool1(1);
    ThreadPool pool8(8);
    const FlexNeRFerModel flex;
    for (const std::string& name : AllModelNames()) {
        const NerfWorkload w = BuildWorkload(name);
        const FramePlan a = FramePlanner::Compile(flex, w);
        const FramePlan b = FramePlanner::Compile(flex, w);
        EXPECT_EQ(TopoOrder(a), TopoOrder(b)) << name;
        EXPECT_EQ(Layers(a), Layers(b)) << name;
        const FrameCost serial = a.Execute();
        ExpectBitIdentical(a.Execute(&pool1), serial, name + " 1-thread");
        ExpectBitIdentical(a.Execute(&pool8), serial, name + " 8-thread");
        ExpectBitIdentical(b.Execute(&pool8), serial, name + " recompiled");
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

    ThreadPool pool(4);
    const FrameCost serial = plan.Execute();
    EXPECT_EQ(serial.critical_path_ms, 2.0 + 5.0 + 3.0);
    EXPECT_EQ(serial.latency_ms, 2.0 + 1.0 + 5.0 + 3.0);
    ExpectBitIdentical(plan.Execute(&pool), serial, "diamond pooled");
}

TEST(PlanDag, DuplicateAndForwardEdgesWithTwoSourcesAreHandComputable)
{
    // The flat successor array against a hand-worked DAG: a dependency
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
    ThreadPool pool1(1);
    ThreadPool pool8(8);
    ExpectBitIdentical(plan.Execute(&pool1), serial, "1-thread");
    ExpectBitIdentical(plan.Execute(&pool8), serial, "8-thread");
}

TEST(PlanDag, PipelinedVsFlatParityAllModelsAllFamilies)
{
    // The pipelined-parity suite: for all 7 models x 3 accelerator
    // families, the wavefront execution is bit-identical across
    // --threads 1/4/8 and to serial execution, and the critical path
    // obeys its bounds (0 < cp <= flat sum; equality iff the plan is a
    // pure chain).
    ThreadPool pool1(1);
    ThreadPool pool4(4);
    ThreadPool pool8(8);
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
            ExpectBitIdentical(plan.Execute(&pool1), serial,
                               label + " threads=1");
            ExpectBitIdentical(plan.Execute(&pool4), serial,
                               label + " threads=4");
            ExpectBitIdentical(plan.Execute(&pool8), serial,
                               label + " threads=8");
            EXPECT_GT(serial.critical_path_ms, 0.0) << label;
            // Tolerance: see EveryModelHasRealPipelineStructure.
            EXPECT_LE(serial.critical_path_ms,
                      serial.latency_ms * (1.0 + 1e-12))
                << label;
        }
    }
}

}  // namespace
}  // namespace flexnerfer
