#include "mac/reduction_tree.h"

#include "common/logging.h"

namespace flexnerfer {

std::vector<ReductionOperand>
FlexibleReductionTree::Reduce(const std::vector<ReductionOperand>& leaves,
                              ReductionStats* stats)
{
    ReductionStats local;
    // Each level pairs neighbours; a comparator decides add vs. bypass.
    // We keep the stream as ordered runs: merging adjacent equal indices at
    // each level converges to one operand per contiguous index run.
    std::vector<ReductionOperand> current;
    current.reserve(leaves.size());
    for (const ReductionOperand& op : leaves) {
        if (op.index >= 0) current.push_back(op);
    }

    while (current.size() > 1) {
        ++local.levels;
        std::vector<ReductionOperand> next;
        next.reserve((current.size() + 1) / 2);
        std::size_t i = 0;
        while (i < current.size()) {
            if (i + 1 < current.size() &&
                current[i].index == current[i + 1].index) {
                next.push_back({current[i].value + current[i + 1].value,
                                current[i].index});
                ++local.additions;
                i += 2;
            } else {
                next.push_back(current[i]);
                ++local.bypasses;
                i += 1;
            }
        }
        if (next.size() == current.size()) {
            // Fully merged: nothing else can combine.
            current = std::move(next);
            break;
        }
        current = std::move(next);
    }

    if (stats) *stats = local;
    return current;
}

int
FlexibleReductionTree::DepthForLeaves(int n_leaves)
{
    FLEX_CHECK(n_leaves >= 1);
    // ceil(log2(n_leaves)): the bit length of n_leaves - 1.
    if (n_leaves == 1) return 0;
    return 32 - __builtin_clz(static_cast<unsigned>(n_leaves - 1));
}

}  // namespace flexnerfer
