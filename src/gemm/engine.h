/**
 * @file
 * Cycle-level GEMM/GEMV engine.
 *
 * Models the full pipeline of FlexNeRFer's GEMM/GEMV acceleration unit and
 * of the baseline compute arrays: operand tiles are fetched (compressed or
 * raw), decoded, distributed across the MAC array by the NoC, executed in
 * dense-mapped waves, reduced, and written back.
 *
 * Three fidelity levels share one cost-assembly path:
 *  - detailed: per-wave NoC + datapath simulation (small shapes, tests);
 *  - tiled:    per-tile non-zero analysis with analytic NoC costs;
 *  - statistical: expectation-based, for large workload sweeps.
 */
#ifndef FLEXNERFER_GEMM_ENGINE_H_
#define FLEXNERFER_GEMM_ENGINE_H_

#include <cstdint>

#include "common/matrix.h"
#include "common/types.h"
#include "noc/distribution_network.h"
#include "noc/hmf_noc.h"
#include "noc/mesh_1d.h"

namespace flexnerfer {

/** Interconnect style of the modelled compute array. */
enum class NocStyle : std::uint8_t {
    kHmfTree,  //!< FlexNeRFer: HMF-NoC multicast tree + 1D mesh
    kHmTree,   //!< Eyeriss-v2-style HM-NoC (no feedback, 2x2 switches)
    kBenes,    //!< SIGMA-style Benes fabric (all deliveries cross all stages)
};

/**
 * Configuration of one modelled GEMM/GEMV array. Every field is cost
 * relevant, so every field is part of GemmMemo's key (plan/gemm_memo.cpp).
 */
struct GemmEngineConfig {
    Precision precision = Precision::kInt16;
    int array_dim = 64;                //!< MAC units per side
    double clock_ghz = 0.8;
    bool support_sparsity = true;      //!< dense mapping of sparse operands
    bool use_flex_codec = true;        //!< compressed operand storage
    /**
     * Column-level bypass links inside each MAC unit (Section 4.1.3).
     * Without them, 16-/8-bit subwords must be re-fetched for each
     * sub-multiplier row group, cutting operand bandwidth utilization to
     * 25% / 50% at INT16 / INT8.
     */
    bool use_clb = true;
    bool detailed = false;             //!< per-wave NoC/datapath simulation
    bool compute_output = true;        //!< produce the numeric result
    NocStyle noc_style = NocStyle::kHmfTree;
    /**
     * Buffer-to-array distribution bandwidth. The I-buffer is banked wide
     * enough that dense mapping stays compute-bound at INT16/INT8; INT4
     * waves consume operands fast enough to become partially BW-bound,
     * matching the paper's effective-efficiency gap at INT4.
     */
    double fetch_bytes_per_cycle = 1024.0;
    double codec_bytes_per_cycle = 1024.0;
    /**
     * Whether operand A (activations) is streamed from DRAM or already
     * resident in the input buffer (hidden layers of an MLP chain), and
     * whether C returns to DRAM or feeds the next layer on-chip.
     */
    bool stream_a_from_dram = true;
    bool write_c_to_dram = true;
    double dram_bandwidth_gb_s = 12.8;  //!< LPDDR3 local DRAM
    double dram_energy_pj_per_byte = 40.0;
    double sram_read_energy_pj_per_byte = 0.85;  //!< 2 MB I-buffer class
    double codec_energy_pj_per_byte = 0.10;
    HmfNoc::Config noc;
    Mesh1d::Config mesh;
};

/** Energy totals by component, in pJ. */
struct EnergyBreakdownPj {
    double mac = 0.0;
    double noc = 0.0;
    double sram = 0.0;
    double dram = 0.0;
    double codec = 0.0;

    double TotalPj() const { return mac + noc + sram + dram + codec; }
    double TotalMj() const { return TotalPj() * 1e-9; }
};

/** Shape-and-density description for the statistical path. */
struct GemmShape {
    std::int64_t m = 1;
    std::int64_t k = 1;
    std::int64_t n = 1;
    double density_a = 1.0;  //!< fraction of non-zeros in the M x K operand
    double density_b = 1.0;  //!< density within surviving rows of B
    /**
     * Fraction of B's K rows removed by structured pruning (Fig. 19).
     * Matrix-1 elements whose inner-dimension row was pruned produce no
     * products and are never delivered.
     */
    double structured_prune_b = 0.0;
};

/** Output of one engine run. */
struct GemmResult {
    Matrix<std::int64_t> output;   //!< empty unless compute_output

    double waves = 0.0;            //!< mapped compute waves (1 per cycle)
    double compute_cycles = 0.0;
    double fetch_cycles = 0.0;
    double codec_cycles = 0.0;
    double cycles = 0.0;           //!< pipelined on-chip total
    double onchip_ms = 0.0;
    double dram_ms = 0.0;
    double latency_ms = 0.0;       //!< max(on-chip, DRAM) — double-buffered

    double useful_macs = 0.0;      //!< non-zero products
    double issued_macs = 0.0;      //!< products issued incl. forced zeros
    double utilization = 0.0;      //!< useful / (waves * slots)

    double a_deliveries = 0.0;     //!< matrix-1 element deliveries
    double b_deliveries = 0.0;     //!< matrix-2 element deliveries
    double a_bytes_encoded = 0.0;  //!< stored footprint of operand A
    double b_bytes_encoded = 0.0;
    double dram_bytes = 0.0;
    double sram_bytes = 0.0;

    SparsityFormat a_format = SparsityFormat::kNone;
    SparsityFormat b_format = SparsityFormat::kNone;

    WaveStats noc;                 //!< hop/dataflow counters
    EnergyBreakdownPj energy;

    double EnergyMj() const { return energy.TotalMj(); }
};

/** Appends an injective fingerprint of @p shape to @p out. */
void AppendFingerprint(const GemmShape& shape, std::string* out);

/**
 * The engine. Stateless between runs; safe to reuse.
 *
 * Thread-safety: Run/RunFromShape are deeply const — the engine holds only
 * its immutable config, and every stateful collaborator (DistributionNetwork,
 * MacArray, FlexFormatCodec) is constructed locally per invocation. One
 * GemmEngine instance may therefore serve concurrent calls from SweepRunner
 * workers or serving threads without synchronization. Results are a pure
 * function of (config, operands): no RNG, clocks, or global counters are
 * consulted, which is what makes parallel sweeps bit-reproducible.
 */
class GemmEngine
{
  public:
    explicit GemmEngine(const GemmEngineConfig& config);
    GemmEngine() : GemmEngine(GemmEngineConfig{}) {}

    /**
     * Runs C = A * B on materialized operands. Uses the detailed per-wave
     * simulation when config.detailed is set, else the tiled analytic path.
     */
    GemmResult Run(const MatrixI& a, const MatrixI& b) const;

    /** Expectation-based run for large workload sweeps (no operand data). */
    GemmResult RunFromShape(const GemmShape& shape) const;

    /** Effective multiplier grid side at the configured precision. */
    int GridDim() const;

    /** Multiplier slots available per wave. */
    std::int64_t SlotsPerWave() const;

    const GemmEngineConfig& config() const { return config_; }

  private:
    struct Aggregates {
        double useful_macs = 0.0;
        double issued_macs = 0.0;
        double waves = 0.0;
        double a_deliveries = 0.0;
        double b_deliveries = 0.0;
        double a_bits_encoded = 0.0;
        double b_bits_encoded = 0.0;
        double a_bits_raw = 0.0;
        double b_bits_raw = 0.0;
        double c_bytes_out = 0.0;
        double tiles_j = 1.0;
        double tiles_i = 1.0;
        double noc_hops = 0.0;       //!< tree/Benes switch hops
        double mesh_hops = 0.0;
        double buffer_reads = 0.0;
        SparsityFormat a_format = SparsityFormat::kNone;
        SparsityFormat b_format = SparsityFormat::kNone;
        bool hops_from_simulation = false;
    };

    GemmResult RunDetailed(const MatrixI& a, const MatrixI& b) const;
    GemmResult RunTiled(const MatrixI& a, const MatrixI& b) const;

    /** Fills analytic NoC hop counts when not simulated per wave. */
    void EstimateNocTraffic(Aggregates* agg) const;

    /** Turns aggregates into cycles, latency, and energy. */
    GemmResult AssembleCosts(const Aggregates& agg) const;

    GemmEngineConfig config_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_GEMM_ENGINE_H_
