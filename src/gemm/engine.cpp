#include "gemm/engine.h"

#include <algorithm>
#include <cmath>

#include "common/fingerprint.h"
#include "common/logging.h"
#include "common/units.h"
#include "gemm/mapper.h"
#include "gemm/tiling.h"
#include "mac/mac_array.h"
#include "mac/reduction_tree.h"
#include "noc/clb.h"
#include "sparse/flex_codec.h"
#include "sparse/footprint.h"
#include "sparse/format_selector.h"

namespace flexnerfer {

void
AppendFingerprint(const GemmShape& shape, std::string* out)
{
    FingerprintAppend(out, shape.m);
    FingerprintAppend(out, shape.k);
    FingerprintAppend(out, shape.n);
    FingerprintAppend(out, shape.density_a);
    FingerprintAppend(out, shape.density_b);
    FingerprintAppend(out, shape.structured_prune_b);
}

GemmEngine::GemmEngine(const GemmEngineConfig& config)
    : config_(config)
{
    FLEX_CHECK_MSG(config.array_dim >= 1, "array dim must be positive");
    FLEX_CHECK_MSG(config.clock_ghz > 0.0, "clock must be positive");
    FLEX_CHECK_MSG(config.fetch_bytes_per_cycle > 0.0,
                   "fetch bandwidth must be positive");
}

int
GemmEngine::GridDim() const
{
    return config_.array_dim * GridScale(config_.precision);
}

std::int64_t
GemmEngine::SlotsPerWave() const
{
    return static_cast<std::int64_t>(GridDim()) * GridDim();
}

GemmResult
GemmEngine::Run(const MatrixI& a, const MatrixI& b) const
{
    FLEX_CHECK_MSG(a.cols() == b.rows(), "GEMM shape mismatch");
    return config_.detailed ? RunDetailed(a, b) : RunTiled(a, b);
}

GemmResult
GemmEngine::RunDetailed(const MatrixI& a, const MatrixI& b) const
{
    const int t = GridDim();
    const DenseMapper mapper(t);
    const MacArray array(
        {config_.array_dim, config_.clock_ghz, /*optimized_shifters=*/true});

    DistributionNetwork::Config dn_config;
    dn_config.dim = t;
    dn_config.noc = config_.noc;
    dn_config.noc.feedback = config_.noc_style == NocStyle::kHmfTree;
    dn_config.mesh = config_.mesh;
    DistributionNetwork dn(dn_config);

    Aggregates agg;
    agg.hops_from_simulation = true;
    agg.tiles_i = TileCount(a.rows(), t);
    agg.tiles_j = TileCount(b.cols(), t);
    const int tiles_k = TileCount(a.cols(), t);

    Matrix<std::int64_t> c(a.rows(), b.cols());
    const FlexFormatCodec codec(
        {config_.array_dim, config_.codec_bytes_per_cycle});

    WaveStats noc_totals;
    for (int ti = 0; ti < agg.tiles_i; ++ti) {
        for (int tj = 0; tj < agg.tiles_j; ++tj) {
            for (int tk = 0; tk < tiles_k; ++tk) {
                const MatrixI a_tile = ExtractTile(a, ti * t, tk * t, t, t);
                const MatrixI b_tile = ExtractTile(b, tk * t, tj * t, t, t);

                if (tj == 0) {
                    const EncodedTile ea = config_.use_flex_codec
                        ? codec.Encode(a_tile, config_.precision)
                        : codec.EncodeAs(a_tile, config_.precision,
                                         SparsityFormat::kNone);
                    agg.a_bits_encoded += static_cast<double>(ea.encoded_bits);
                    agg.a_format = ea.format;
                }
                if (ti == 0) {
                    const EncodedTile eb = config_.use_flex_codec
                        ? codec.Encode(b_tile, config_.precision)
                        : codec.EncodeAs(b_tile, config_.precision,
                                         SparsityFormat::kNone);
                    agg.b_bits_encoded += static_cast<double>(eb.encoded_bits);
                    agg.b_format = eb.format;
                }

                dn.StartTile();
                const auto waves = mapper.MapTilePair(
                    a_tile, b_tile, static_cast<std::int64_t>(ti) * t,
                    static_cast<std::int64_t>(tk) * t,
                    static_cast<std::int64_t>(tj) * t, b.cols(),
                    config_.support_sparsity);

                for (const MappedWave& wave : waves) {
                    const WaveStats ws =
                        dn.DistributeWave(wave.groups, wave.distinct_b);
                    noc_totals.switch_hops += ws.switch_hops;
                    noc_totals.mesh_hops += ws.mesh_hops;
                    noc_totals.buffer_reads += ws.buffer_reads;
                    noc_totals.feedback_uses += ws.feedback_uses;
                    noc_totals.unicast_groups += ws.unicast_groups;
                    noc_totals.multicast_groups += ws.multicast_groups;
                    noc_totals.broadcast_groups += ws.broadcast_groups;

                    agg.a_deliveries += static_cast<double>(wave.groups.size());
                    agg.b_deliveries += wave.distinct_b;
                    agg.waves += 1.0;
                    agg.issued_macs += static_cast<double>(wave.slots.size());
                    for (const MappedOperand& slot : wave.slots) {
                        if (slot.a != 0 && slot.b != 0) agg.useful_macs += 1.0;
                    }

                    if (config_.compute_output) {
                        // Execute the wave on the bit-scalable datapath and
                        // accumulate the reduced partial sums.
                        const auto partials =
                            array.ComputeMapped(config_.precision, wave.slots);
                        const std::int64_t c_elems =
                            static_cast<std::int64_t>(a.rows()) * b.cols();
                        for (const ReductionOperand& p : partials) {
                            if (p.index >= c_elems) {
                                // Padding products in the dense baseline can
                                // target ghost rows; they are always zero.
                                FLEX_CHECK(p.value == 0);
                                continue;
                            }
                            const int r = static_cast<int>(p.index / b.cols());
                            const int col =
                                static_cast<int>(p.index % b.cols());
                            c.at(r, col) += p.value;
                        }
                    }
                }
            }
        }
    }

    agg.noc_hops = static_cast<double>(noc_totals.switch_hops);
    agg.mesh_hops = static_cast<double>(noc_totals.mesh_hops);
    agg.buffer_reads = static_cast<double>(noc_totals.buffer_reads);
    agg.a_bits_raw = static_cast<double>(TileCount(a.rows(), t)) * tiles_k *
                     DenseFootprintBits(t, t, config_.precision);
    agg.b_bits_raw = static_cast<double>(tiles_k) * agg.tiles_j *
                     DenseFootprintBits(t, t, config_.precision);
    agg.c_bytes_out = static_cast<double>(a.rows()) * b.cols() *
                      BitWidth(config_.precision) / 8.0;

    GemmResult result = AssembleCosts(agg);
    result.noc = noc_totals;
    if (config_.compute_output) result.output = std::move(c);
    return result;
}

GemmResult
GemmEngine::RunTiled(const MatrixI& a, const MatrixI& b) const
{
    const int t = GridDim();
    const double slots = static_cast<double>(SlotsPerWave());

    Aggregates agg;
    agg.tiles_i = TileCount(a.rows(), t);
    agg.tiles_j = TileCount(b.cols(), t);
    const int tiles_k = TileCount(a.cols(), t);

    // Per-tile non-zero profiles, computed once per operand tile.
    for (int ti = 0; ti < agg.tiles_i; ++ti) {
        for (int tk = 0; tk < tiles_k; ++tk) {
            const MatrixI a_tile = ExtractTile(a, ti * t, tk * t, t, t);
            const auto a_cols = ColumnNnz(a_tile);
            const auto a_nnz = static_cast<std::int64_t>(a_tile.Nnz());
            const SparsityFormat fa = config_.use_flex_codec
                ? SelectOptimalFormat(t, t, a_nnz, config_.precision)
                : SparsityFormat::kNone;
            agg.a_format = fa;
            agg.a_bits_encoded += static_cast<double>(
                FootprintBits(fa, t, t, a_nnz, config_.precision));
            agg.a_bits_raw +=
                static_cast<double>(DenseFootprintBits(t, t,
                                                       config_.precision));

            for (int tj = 0; tj < agg.tiles_j; ++tj) {
                const MatrixI b_tile = ExtractTile(b, tk * t, tj * t, t, t);
                const auto b_rows = RowNnz(b_tile);
                const auto b_nnz = static_cast<std::int64_t>(b_tile.Nnz());
                if (ti == 0) {
                    const SparsityFormat fb = config_.use_flex_codec
                        ? SelectOptimalFormat(t, t, b_nnz, config_.precision)
                        : SparsityFormat::kNone;
                    agg.b_format = fb;
                    agg.b_bits_encoded += static_cast<double>(
                        FootprintBits(fb, t, t, b_nnz, config_.precision));
                    agg.b_bits_raw += static_cast<double>(
                        DenseFootprintBits(t, t, config_.precision));
                }

                double useful = 0.0;
                double a_live = 0.0;  // A elements with >= 1 product
                for (int kk = 0; kk < t; ++kk) {
                    useful += static_cast<double>(a_cols[kk]) * b_rows[kk];
                    if (b_rows[kk] > 0) a_live += a_cols[kk];
                }
                agg.useful_macs += useful;
                // Matrix-2 (weight) tiles are loaded into MAC-local
                // registers once per (k, j) strip and stay resident while
                // all i tiles of matrix 1 stream through the NoC.
                if (config_.support_sparsity) {
                    const double waves = std::ceil(useful / slots);
                    agg.waves += waves;
                    agg.issued_macs += useful;
                    agg.a_deliveries += a_live;
                    if (ti == 0) {
                        agg.b_deliveries += static_cast<double>(b_nnz);
                    }
                } else {
                    // Dense baseline: one wave per k slice, zeros included.
                    agg.waves += t;
                    agg.issued_macs += slots * t;
                    agg.a_deliveries += slots;
                    if (ti == 0) {
                        agg.b_deliveries += slots;
                    }
                }
            }
        }
    }

    agg.c_bytes_out = static_cast<double>(a.rows()) * b.cols() *
                      BitWidth(config_.precision) / 8.0;
    EstimateNocTraffic(&agg);

    GemmResult result = AssembleCosts(agg);
    if (config_.compute_output) {
        result.output = ReferenceGemm(a, b);
    }
    return result;
}

GemmResult
GemmEngine::RunFromShape(const GemmShape& shape) const
{
    const int t = GridDim();
    const double slots = static_cast<double>(SlotsPerWave());

    Aggregates agg;
    agg.tiles_i = TileCount(static_cast<int>(shape.m), t);
    agg.tiles_j = TileCount(static_cast<int>(shape.n), t);
    const double tiles_k = TileCount(static_cast<int>(shape.k), t);
    const double tile_triples = agg.tiles_i * tiles_k * agg.tiles_j;

    const double m = static_cast<double>(shape.m);
    const double k = static_cast<double>(shape.k);
    const double n = static_cast<double>(shape.n);
    const double alive = 1.0 - shape.structured_prune_b;
    FLEX_CHECK_MSG(alive > 0.0 && alive <= 1.0,
                   "structured pruning ratio outside [0,1)");
    const double nnz_a = m * k * shape.density_a;
    const double nnz_b = k * alive * n * shape.density_b;

    agg.useful_macs = m * k * n * shape.density_a * shape.density_b * alive;

    if (config_.support_sparsity) {
        // Waves are granular per tile triple: at least one wave each.
        const double useful_per_triple = agg.useful_macs / tile_triples;
        agg.waves =
            tile_triples * std::max(1.0, std::ceil(useful_per_triple / slots));
        agg.issued_macs = agg.useful_macs;
        // A elements whose B row was structurally pruned are never
        // delivered; weight tiles load once per (k, j) strip.
        agg.a_deliveries = nnz_a * alive * agg.tiles_j;
        agg.b_deliveries = nnz_b;
    } else {
        agg.waves = tile_triples * t;
        agg.issued_macs = agg.waves * slots;
        agg.a_deliveries = tile_triples * slots;
        agg.b_deliveries = tiles_k * agg.tiles_j * slots;
    }

    // Expected per-tile footprints drive the stored format choice.
    const double tile_elems = slots;
    const auto a_tile_nnz = static_cast<std::int64_t>(
        std::llround(tile_elems * shape.density_a));
    const auto b_tile_nnz = static_cast<std::int64_t>(
        std::llround(tile_elems * shape.density_b * alive));
    agg.a_format = config_.use_flex_codec
        ? SelectOptimalFormat(t, t, a_tile_nnz, config_.precision)
        : SparsityFormat::kNone;
    agg.b_format = config_.use_flex_codec
        ? SelectOptimalFormat(t, t, b_tile_nnz, config_.precision)
        : SparsityFormat::kNone;
    agg.a_bits_encoded =
        agg.tiles_i * tiles_k *
        static_cast<double>(FootprintBits(agg.a_format, t, t, a_tile_nnz,
                                          config_.precision));
    agg.b_bits_encoded =
        tiles_k * agg.tiles_j *
        static_cast<double>(FootprintBits(agg.b_format, t, t, b_tile_nnz,
                                          config_.precision));
    agg.a_bits_raw = agg.tiles_i * tiles_k *
                     static_cast<double>(DenseFootprintBits(
                         t, t, config_.precision));
    agg.b_bits_raw = tiles_k * agg.tiles_j *
                     static_cast<double>(DenseFootprintBits(
                         t, t, config_.precision));
    agg.c_bytes_out = m * n * BitWidth(config_.precision) / 8.0;

    EstimateNocTraffic(&agg);
    return AssembleCosts(agg);
}

void
GemmEngine::EstimateNocTraffic(Aggregates* agg) const
{
    const int t = GridDim();
    // Depth of the power-of-two NoC tree spanning the t leaves.
    const double depth =
        FlexibleReductionTree::DepthForLeaves(std::max(2, t));
    const double avg_group =
        agg->a_deliveries > 0.0
            ? std::clamp(agg->useful_macs / agg->a_deliveries, 1.0,
                         static_cast<double>(t))
            : 1.0;

    switch (config_.noc_style) {
      case NocStyle::kHmfTree:
      case NocStyle::kHmTree:
        // Multicast prefix sharing: a group's union-of-paths edge count is
        // roughly its destination count plus the tree depth.
        agg->noc_hops = agg->a_deliveries * (depth + avg_group);
        break;
      case NocStyle::kBenes:
        // The Benes fabric scatters one operand copy per multiplier slot;
        // every copy traverses every stage (no shared multicast prefixes).
        agg->noc_hops =
            (agg->useful_macs + agg->b_deliveries) * (2.0 * depth - 1.0);
        break;
    }
    agg->mesh_hops =
        agg->b_deliveries * (static_cast<double>(t) + 1.0) / 2.0;
    agg->buffer_reads = agg->a_deliveries + agg->b_deliveries;
}

GemmResult
GemmEngine::AssembleCosts(const Aggregates& agg) const
{
    GemmResult result;
    const double bits = BitWidth(config_.precision);
    const double slots = static_cast<double>(SlotsPerWave());
    const MacArray array(
        {config_.array_dim, config_.clock_ghz, /*optimized_shifters=*/true});

    result.waves = agg.waves;
    result.useful_macs = agg.useful_macs;
    result.issued_macs = agg.issued_macs;
    result.utilization =
        agg.waves > 0.0 ? agg.useful_macs / (agg.waves * slots) : 0.0;
    result.a_deliveries = agg.a_deliveries;
    result.b_deliveries = agg.b_deliveries;
    result.a_format = agg.a_format;
    result.b_format = agg.b_format;
    result.a_bytes_encoded = agg.a_bits_encoded / 8.0;
    result.b_bytes_encoded = agg.b_bits_encoded / 8.0;
    result.noc.switch_hops = static_cast<std::int64_t>(agg.noc_hops);
    result.noc.mesh_hops = static_cast<std::int64_t>(agg.mesh_hops);
    result.noc.buffer_reads = static_cast<std::int64_t>(agg.buffer_reads);

    // --- Cycles -----------------------------------------------------------
    // Compute: one wave per cycle plus the pipelined reduction drain.
    // Without the column-level bypass links, loading the next wave's
    // operands into the sub-multiplier rows takes multiple cycles at
    // high precision (Fig. 10(b)), stalling wave issue.
    const double wave_issue_cycles = config_.use_clb
        ? 1.0
        : static_cast<double>(
              ColumnBypassLink::LoadCycles(config_.precision, false));
    result.compute_cycles =
        agg.waves * wave_issue_cycles +
        FlexibleReductionTree::DepthForLeaves(static_cast<int>(slots));

    // Fetch: operand deliveries stream from the buffers into the array.
    const double delivery_bytes =
        (agg.a_deliveries + agg.b_deliveries) * bits / 8.0;
    result.fetch_cycles = delivery_bytes / config_.fetch_bytes_per_cycle;

    // Codec: the decoder sits inline on the delivery stream (operands are
    // stored compressed, so decode traffic is the compressed image of the
    // delivered words); inputs are additionally encoded once online.
    if (config_.use_flex_codec) {
        const double raw_bits = agg.a_bits_raw + agg.b_bits_raw;
        const double compress_ratio =
            raw_bits > 0.0
                ? (agg.a_bits_encoded + agg.b_bits_encoded) / raw_bits
                : 1.0;
        const double codec_bytes =
            delivery_bytes * compress_ratio + agg.a_bits_encoded / 8.0;
        result.codec_cycles = codec_bytes / config_.codec_bytes_per_cycle;
        result.energy.codec =
            codec_bytes * config_.codec_energy_pj_per_byte;
    }

    // Fetch, the inline codec, and compute form a pipelined triple-stage:
    // the slowest stage sets throughput (double-buffered tiles).
    result.cycles = std::max({result.fetch_cycles, result.codec_cycles,
                              result.compute_cycles}) +
                    FlexibleReductionTree::DepthForLeaves(
                        static_cast<int>(slots));
    result.onchip_ms = CyclesToMs(result.cycles, config_.clock_ghz);

    // --- DRAM -------------------------------------------------------------
    // The simulator's one memory model: DRAM and SRAM traffic are costed
    // here and nowhere else. Weights always stream from local DRAM once
    // (compressed if the codec is active). Activations/outputs touch DRAM
    // only when not resident in the on-chip buffers (standalone GEMMs,
    // first/last layer of a chain).
    result.dram_bytes = agg.b_bits_encoded / 8.0;
    if (config_.stream_a_from_dram) {
        result.dram_bytes += agg.a_bits_encoded / 8.0;
    }
    if (config_.write_c_to_dram) {
        result.dram_bytes += agg.c_bytes_out;
    }
    result.dram_ms =
        result.dram_bytes / (config_.dram_bandwidth_gb_s * 1e9) * 1e3;
    result.latency_ms = std::max(result.onchip_ms, result.dram_ms);

    // --- Energy -----------------------------------------------------------
    const double mac_energy_ops =
        config_.support_sparsity ? agg.useful_macs : agg.issued_macs;
    result.energy.mac =
        mac_energy_ops * array.MacEnergyPj(config_.precision);

    const double hop_energy = config_.noc_style == NocStyle::kHmTree
        ? config_.noc.hop_energy_2x2_pj
        : config_.noc.hop_energy_pj;
    result.energy.noc = agg.noc_hops * hop_energy +
                        agg.mesh_hops * config_.mesh.hop_energy_pj;

    result.sram_bytes = delivery_bytes + agg.c_bytes_out;
    result.energy.sram =
        result.sram_bytes * config_.sram_read_energy_pj_per_byte;
    result.energy.dram =
        result.dram_bytes * config_.dram_energy_pj_per_byte;
    return result;
}

}  // namespace flexnerfer
