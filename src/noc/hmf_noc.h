/**
 * @file
 * Hierarchical mesh NoC with feedback (HMF-NoC, Fig. 9 of the paper).
 *
 * A complete binary tree of switches distributes one operand element to any
 * subset of leaf destinations (unicast / multicast / broadcast). The
 * FlexNeRFer extension over Eyeriss v2's HM-NoC is a feedback loop turning
 * every 2x2 switch into a 3x3 switch: an element already latched at a leaf
 * (a MAC unit) can be forwarded to other leaves through the lowest common
 * ancestor instead of being re-read from the global buffer — the mechanism
 * behind the paper's ~2.5x on-chip-memory-access energy saving.
 */
#ifndef FLEXNERFER_NOC_HMF_NOC_H_
#define FLEXNERFER_NOC_HMF_NOC_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace flexnerfer {

/** Cost of one Deliver call. */
struct DeliveryStats {
    int switch_hops = 0;     //!< tree edges traversed (shared edges once)
    int buffer_reads = 0;    //!< global-buffer source reads (0 if fed back)
    bool used_feedback = false;
    Dataflow dataflow = Dataflow::kUnicast;
};

/**
 * Binary-tree distribution NoC, with or without the feedback extension.
 *
 * Thread-safety: Deliver mutates per-instance residency and hop counters,
 * so an instance must stay confined to one thread (or one engine run);
 * create one HmfNoc per concurrent simulation, never a shared singleton.
 */
class HmfNoc
{
  public:
    struct Config {
        int leaves = 64;       //!< destination ports (rounded up to 2^k)
        bool feedback = true;  //!< true: HMF-NoC (3x3), false: HM-NoC (2x2)
        double hop_energy_pj = 0.18;        //!< per switch traversal (3x3)
        double hop_energy_2x2_pj = 0.12;    //!< per switch traversal (2x2)
        double buffer_read_energy_pj = 8.0; //!< global-buffer word read
    };

    explicit HmfNoc(const Config& config);
    HmfNoc() : HmfNoc(Config{}) {}

    /**
     * Delivers element @p elem_id to the given leaf destinations.
     *
     * With feedback enabled and the element still resident at some leaf from
     * an earlier wave, the source is that leaf (via the feedback path through
     * the lowest common ancestor); otherwise the element is read from the
     * global buffer and injected at the root. Residency is updated: the
     * destinations now hold @p elem_id.
     */
    DeliveryStats Deliver(std::int64_t elem_id,
                          const std::vector<int>& dests);

    /** Forgets which elements are latched at leaves (new tile). */
    void ClearResidency();

    /** Internal switch nodes (leaves - 1 for a complete tree). */
    int SwitchCount() const;

    /** Tree depth in switch levels. */
    int Depth() const { return depth_; }

    int leaves() const { return leaves_; }

    /** Accumulated delivery energy in pJ. */
    double EnergyPj() const { return energy_pj_; }

    /** Accumulated counts since construction/reset. */
    std::int64_t total_hops() const { return total_hops_; }
    std::int64_t total_buffer_reads() const { return total_buffer_reads_; }
    std::int64_t total_feedback_uses() const { return total_feedback_uses_; }

    /** Resets energy/hop accumulators (keeps residency). */
    void ResetStats();

    /** Classifies a destination count as unicast/multicast/broadcast. */
    Dataflow ClassifyDataflow(std::size_t n_dests) const;

  private:
    Config config_;
    int leaves_;        //!< rounded up to a power of two
    int depth_;
    double energy_pj_ = 0.0;
    std::int64_t total_hops_ = 0;
    std::int64_t total_buffer_reads_ = 0;
    std::int64_t total_feedback_uses_ = 0;
    /** leaf -> element currently latched there. */
    std::unordered_map<int, std::int64_t> residency_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_NOC_HMF_NOC_H_
