/**
 * @file
 * tile_sim: GemmEngine::Run on materialized sparse operand tiles, INT16/
 * INT8/INT4 x sparsity {0.1, 0.5, 0.9}, through both the tiled and the
 * detailed (per-wave NoC + datapath) paths. It is the only workload on
 * which mac, noc and sparse do work: frames use only RunFromShape.
 * Every numeric output is checked against a plain matmul written here.
 */
#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "gemm/engine.h"
#include "mac/bit_scalable_mac.h"
#include "noc/benes.h"
#include "noc/hmf_noc.h"
#include "slo.h"
#include "sparse/flex_codec.h"
#include "workloads.h"

namespace perfbench {

using namespace flexnerfer;

namespace {

constexpr Precision kPrecisions[] = {Precision::kInt16, Precision::kInt8,
                                     Precision::kInt4};
constexpr double kSparsities[] = {0.1, 0.5, 0.9};
/** Operand pairs per (precision, sparsity, fidelity) cell. With 2,
 *  model_mac_util moved 5% (interquartile range / median) from seed to
 *  seed with the sparsity patterns; with 4, 3%. */
constexpr int kTilesPerCell = 4;
/** Tile side (m = k = n) on the tiled path; the per-wave detailed path
 *  costs ~100x more per MAC, so its tiles are smaller. The seed draws
 *  only the operand values and sparsity patterns. */
constexpr int kTiledDim = 64;
constexpr int kDetailedDim = 21;
constexpr double kReplayLoad = 1.25;
constexpr std::size_t kReplayRequests = 100000;
constexpr int kBenesRoutes = 200;

/** One GEMM of the op list. */
struct Tile {
    std::size_t engine = 0;  //!< index into the engines
    MatrixI a;
    MatrixI b;
};

/** C = A x B, the benchmark's own reference. */
Matrix<std::int64_t>
PlainMatmul(const MatrixI& a, const MatrixI& b)
{
    Matrix<std::int64_t> c(a.rows(), b.cols());
    for (int i = 0; i < a.rows(); ++i) {
        for (int j = 0; j < b.cols(); ++j) {
            std::int64_t sum = 0;
            for (int k = 0; k < a.cols(); ++k) {
                sum += static_cast<std::int64_t>(a.at(i, k)) * b.at(k, j);
            }
            c.at(i, j) = sum;
        }
    }
    return c;
}

class TileSim final : public Workload
{
  public:
    /** Materializes the seed's tiles and their reference outputs. */
    explicit TileSim(std::uint64_t seed) : seed_(seed)
    {
        Rng rng(seed_);
        for (std::size_t p = 0; p < std::size(kPrecisions); ++p) {
            for (double sparsity : kSparsities) {
                for (std::size_t fidelity = 0; fidelity < 2; ++fidelity) {
                    for (int t = 0; t < kTilesPerCell; ++t) {
                        const int dim =
                            fidelity == 1 ? kDetailedDim : kTiledDim;
                        Tile tile;
                        tile.engine = 2 * p + fidelity;
                        tile.a = MakeSparseMatrix(dim, dim, sparsity,
                                                  kPrecisions[p], rng);
                        tile.b = MakeSparseMatrix(dim, dim, sparsity,
                                                  kPrecisions[p], rng);
                        expected_.push_back(PlainMatmul(tile.a, tile.b));
                        tiles_.push_back(std::move(tile));
                    }
                }
            }
        }
    }

    /**
     * Builds the engines and loads every operand into the accelerator's
     * compressed storage (FlexFormatCodec::Encode), as the engines'
     * use_flex_codec configuration stores them.
     */
    void
    Setup() override
    {
        for (Precision precision : kPrecisions) {
            for (bool detailed : {false, true}) {
                GemmEngineConfig config;
                config.precision = precision;
                config.detailed = detailed;
                engines_.emplace_back(config);
            }
        }
        const FlexFormatCodec codec;
        for (const Tile& tile : tiles_) {
            encoded_.push_back(codec.Encode(tile.a, PrecisionOf(tile)));
            encoded_.push_back(codec.Encode(tile.b, PrecisionOf(tile)));
        }
    }

    void
    Teardown() override
    {
        engines_.clear();
        encoded_.clear();
    }

    /** Set-up (~3 ms) against a ~140 ms pass: extra setup_s samples. */
    double SetupsPerPass() const override { return 4; }

    /**
     * Appends no per-op times: the 72 tiles fall into 18 cost classes
     * spanning 60x, so a per-op median sits on a class boundary and
     * jumped between classes from seed to seed (spreads over five seeds
     * of 0.12-0.26, against 0.10-0.11 for the pass time per tile).
     */
    std::size_t
    RunPass(bool traced, std::vector<double>* /*op_us*/) override
    {
        results_.resize(tiles_.size());
        for (std::size_t i = 0; i < tiles_.size(); ++i) {
            const Tile& tile = tiles_[i];
            const GemmEngine& engine = engines_[tile.engine];
            LayerTime* layer = nullptr;
            if (traced) layer = engine.config().detailed ? &detailed_ : &tiled_;
            results_[i] =
                Timed(layer, [&] { return engine.Run(tile.a, tile.b); });
        }
        return tiles_.size();
    }

    std::size_t
    CheckPass() override
    {
        const bool first = reference_.empty();
        std::size_t failed = 0;
        for (std::size_t i = 0; i < tiles_.size(); ++i) {
            const GemmResult& r = results_[i];
            const bool same =
                first || (r.latency_ms == reference_[i].latency_ms &&
                          r.useful_macs == reference_[i].useful_macs);
            if (!(r.output == expected_[i]) || !same) ++failed;
        }
        if (first) reference_ = results_;
        return failed;
    }

    void
    AddModelMetrics(Report* report) override
    {
        std::vector<double> latencies;
        double total_ms = 0.0;
        MacUtil util;
        for (std::size_t i = 0; i < reference_.size(); ++i) {
            const GemmResult& r = reference_[i];
            latencies.push_back(r.latency_ms);
            total_ms += r.latency_ms;
            util.Add(r.useful_macs, IssuedSlots(i));
        }
        AddModelLatencies(latencies, report);
        report->Add("model_qps",
                    1000.0 * static_cast<double>(reference_.size()) / total_ms,
                    "1/s");
        const auto shed_at = [&](double load) {
            return ReplayShedRate(latencies, load, seed_, kReplayRequests);
        };
        report->Add("model_shed_rate", shed_at(kReplayLoad), "ratio");
        report->Add("model_capacity_load", CapacityLoad(shed_at), "load");
        AddPaperErr(report);
        report->Add("model_mac_util", util.Value(), "ratio");
    }

    void
    AddLayerMetrics(Report* report) override
    {
        report->Add("gemm.tiled_us", tiled_.MeanUs(), "us");
        report->Add("gemm.detailed_us", detailed_.MeanUs(), "us");
        AddCodecMetrics(report);
        AddNocMetrics(report);
        report->Add("mac.mul_ns", MacMulUs() * 1e3, "ns");
        double useful = 0.0;
        double issued = 0.0;
        for (std::size_t i = 0; i < reference_.size(); ++i) {
            useful += reference_[i].useful_macs;
            issued += IssuedSlots(i);
        }
        report->Add("gemm.useful_macs", useful, "count");
        report->Add("gemm.issued_macs", issued, "count");
    }

    void CorruptReference() override { expected_[0].at(0, 0) += 1; }

  private:
    /** MAC slots tile @p i's reference run issued: waves x slots. */
    double
    IssuedSlots(std::size_t i) const
    {
        return reference_[i].waves *
               static_cast<double>(engines_[tiles_[i].engine].SlotsPerWave());
    }

    Precision
    PrecisionOf(const Tile& tile) const
    {
        return engines_[tile.engine].config().precision;
    }

    /** FlexFormatCodec Encode/Decode of every operand tile. */
    void
    AddCodecMetrics(Report* report) const
    {
        const FlexFormatCodec codec;
        double raw_bits = 0.0;
        double encoded_bits = 0.0;
        for (std::size_t i = 0; i < encoded_.size(); ++i) {
            const Tile& tile = tiles_[i / 2];
            const MatrixI& operand = i % 2 == 0 ? tile.a : tile.b;
            raw_bits += static_cast<double>(operand.size()) *
                        BitWidth(PrecisionOf(tile));
            encoded_bits += static_cast<double>(encoded_[i].encoded_bits);
        }
        const auto calls = static_cast<double>(encoded_.size());
        report->Add("sparse.encode_us", ProbeUs(calls, [&] {
                        for (const Tile& tile : tiles_) {
                            codec.Encode(tile.a, PrecisionOf(tile));
                            codec.Encode(tile.b, PrecisionOf(tile));
                        }
                    }),
                    "us");
        report->Add("sparse.decode_us", ProbeUs(calls, [&] {
                        for (const EncodedTile& e : encoded_) codec.Decode(e);
                    }),
                    "us");
        report->Add("sparse.compression_ratio", raw_bits / encoded_bits,
                    "ratio");
    }

    /**
     * HmfNoc::Deliver multicasting every non-zero A(i, k) to the output
     * columns that consume it (the non-zeros of B's row k), and
     * BenesNetwork::Route over seeded permutations.
     */
    void
    AddNocMetrics(Report* report) const
    {
        std::vector<std::pair<std::int64_t, std::vector<int>>> deliveries;
        for (const Tile& tile : tiles_) {
            for (int i = 0; i < tile.a.rows(); ++i) {
                for (int k = 0; k < tile.a.cols(); ++k) {
                    if (tile.a.at(i, k) == 0) continue;
                    std::vector<int> dests;
                    for (int j = 0; j < tile.b.cols(); ++j) {
                        if (tile.b.at(k, j) != 0) dests.push_back(j % 64);
                    }
                    if (dests.empty()) continue;
                    deliveries.emplace_back(
                        static_cast<std::int64_t>(i) * tile.a.cols() + k,
                        std::move(dests));
                }
            }
        }
        report->Add("noc.deliver_us",
                    ProbeUs(static_cast<double>(deliveries.size()), [&] {
                        HmfNoc noc;
                        for (const auto& [elem, dests] : deliveries) {
                            noc.Deliver(elem, dests);
                        }
                    }),
                    "us");
        report->Add("noc.deliveries", static_cast<double>(deliveries.size()),
                    "count");

        const BenesNetwork benes(64);
        Rng rng(seed_);
        std::vector<std::vector<int>> perms(kBenesRoutes,
                                            std::vector<int>(64));
        for (std::vector<int>& perm : perms) {
            std::iota(perm.begin(), perm.end(), 0);
            std::shuffle(perm.begin(), perm.end(), rng.engine());
        }
        report->Add("noc.benes_route_us", ProbeUs(kBenesRoutes, [&] {
                        for (const std::vector<int>& perm : perms) {
                            benes.Route(perm);
                        }
                    }),
                    "us");
    }

    /** BitScalableMacUnit::Multiply over A x B operand lanes, us/call. */
    double
    MacMulUs() const
    {
        struct Call {
            Precision precision;
            std::vector<std::int32_t> a;
            std::vector<std::int32_t> b;
        };
        std::vector<Call> calls;
        for (const Tile& tile : tiles_) {
            const Precision precision = PrecisionOf(tile);
            const auto lanes =
                static_cast<std::size_t>(MultipliersPerMacUnit(precision));
            const std::vector<std::int32_t>& a = tile.a.data();
            const std::vector<std::int32_t>& b = tile.b.data();
            const std::size_t n = std::min(a.size(), b.size());
            for (std::size_t at = 0; at + lanes <= n; at += lanes) {
                calls.push_back({precision,
                                 {a.begin() + at, a.begin() + at + lanes},
                                 {b.begin() + at, b.begin() + at + lanes}});
            }
        }
        return ProbeUs(static_cast<double>(calls.size()), [&] {
            for (const Call& call : calls) {
                BitScalableMacUnit::Multiply(call.precision, call.a, call.b);
            }
        });
    }

    const std::uint64_t seed_;
    std::vector<Tile> tiles_;
    std::vector<GemmEngine> engines_;
    std::vector<Matrix<std::int64_t>> expected_;
    std::vector<EncodedTile> encoded_;  //!< a then b of each tile
    std::vector<GemmResult> results_;
    std::vector<GemmResult> reference_;
    LayerTime tiled_;
    LayerTime detailed_;
};

}  // namespace

std::unique_ptr<Workload>
MakeTileSim(std::uint64_t seed)
{
    return std::make_unique<TileSim>(seed);
}

}  // namespace perfbench
