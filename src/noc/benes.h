/**
 * @file
 * Benes network model used by the SIGMA baseline (and bit-scalable SIGMA).
 *
 * An n x n Benes network is a rearrangeably non-blocking multistage fabric
 * of 2x2 switches: 2*log2(n) - 1 stages of n/2 switches. SIGMA uses it to
 * scatter irregular sparse GEMM operands onto its multiplier array. Every
 * delivered element traverses all stages, which is why SIGMA-style fabrics
 * spend more switching energy per delivery than FlexNeRFer's tree NoC with
 * shared multicast prefixes.
 */
#ifndef FLEXNERFER_NOC_BENES_H_
#define FLEXNERFER_NOC_BENES_H_

#include <cstdint>
#include <vector>

namespace flexnerfer {

/** Routing result for one permutation. */
struct BenesRouting {
    /** Output port each input token arrived at (equals the request). */
    std::vector<int> arrived_at;
    /** Total switch traversals summed over all tokens. */
    std::int64_t switch_visits = 0;
};

/** n x n Benes network with looping-algorithm permutation routing. */
class BenesNetwork
{
  public:
    /** @param n port count; must be a power of two >= 2 */
    explicit BenesNetwork(int n);

    /**
     * Routes a full permutation (perm[i] = output port of input i) using the
     * looping algorithm. Internal consistency of the half-network
     * permutations is checked at every recursion level.
     */
    BenesRouting Route(const std::vector<int>& perm) const;

    /** Stage count: 2*log2(n) - 1. */
    int Stages() const;

    /** Total 2x2 switches: (n/2) * stages. */
    int SwitchCount() const;

    int ports() const { return n_; }

  private:
    int n_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_NOC_BENES_H_
