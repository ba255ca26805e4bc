/**
 * @file
 * Cross-module integration tests: the full accelerator pipeline driven end
 * to end — render-to-quantize paths and the claims the paper derives from
 * component interactions.
 */
#include <gtest/gtest.h>

#include "accel/flexnerfer.h"
#include "accel/gpu_model.h"
#include "accel/neurex.h"
#include "gemm/engine.h"
#include "nerf/field_fit.h"
#include "nerf/renderer.h"
#include "obs/metrics.h"
#include "sparse/flex_codec.h"
#include "sparse/footprint.h"
#include "sparse/sr_calculator.h"

namespace flexnerfer {
namespace {

TEST(Integration, RenderQuantizeMeasureSparsityCompress)
{
    // End-to-end: fit a grid field, quantize its activations-producing
    // tables, run samples through the MLP-free pipeline, measure the
    // sparsity of a quantized activation tile online, and compress it
    // into the format the selector picks.
    Rng rng(77);
    GridField::Config config;
    config.grid = {5, 11, 4, 4, 1.6, -1.5, 1.5, 1e-2};
    GridField field(config, rng);
    field.Fit(ProceduralScene::Mic(), 1500, 5, 0.08, rng);

    // Sample field outputs over a ray bundle and quantize to INT8.
    MatrixI tile(64, 64);
    Camera cam({8, 8, 50.0, {0.0, 0.0, 3.0}, {0.0, 0.0, 0.0},
                {0.0, 1.0, 0.0}});
    std::vector<double> sigmas;
    for (int y = 0; y < 8; ++y) {
        for (int x = 0; x < 8; ++x) {
            const Ray ray = cam.GenerateRay(x, y);
            for (double t : StratifiedSamples(1.5, 4.8, 64, nullptr)) {
                double sigma;
                Vec3 rgb;
                field.Query(ray.At(t), ray.direction, &sigma, &rgb);
                sigmas.push_back(sigma);
            }
        }
    }
    ASSERT_EQ(sigmas.size(), tile.size());
    const double scale = ComputeScale(sigmas, Precision::kInt8);
    for (int r = 0; r < 64; ++r) {
        for (int c = 0; c < 64; ++c) {
            tile.at(r, c) = QuantizeValue(sigmas[r * 64 + c], scale,
                                          Precision::kInt8);
        }
    }

    // Empty space quantizes to zero: the tile is sparse (Fig. 13(a)).
    EXPECT_GT(tile.Sparsity(), 0.3);

    SrCalculator calc(Precision::kInt8, 32);  // 64x64-element fetches
    calc.Observe(tile);
    EXPECT_NEAR(calc.SparsityRatioPercent(), tile.Sparsity() * 100.0, 1.0);

    const FlexFormatCodec codec;
    const EncodedTile encoded = codec.Encode(tile, Precision::kInt8);
    EXPECT_LT(encoded.encoded_bits,
              DenseFootprintBits(64, 64, Precision::kInt8));
    EXPECT_EQ(codec.Decode(encoded), tile);
}

TEST(Integration, NocAcceleratesMacComputeOnSparseWork)
{
    // Section 6.3.1: the flexible NoC's dense mapping accelerates MAC
    // computation several-fold on sparse workloads vs. a dense array.
    GemmEngineConfig sparse;
    sparse.compute_output = false;
    GemmEngineConfig dense = sparse;
    dense.support_sparsity = false;
    dense.use_flex_codec = false;

    const GemmShape shape{4096, 512, 512, 0.4, 0.5, 0.0};
    const double sparse_compute =
        GemmEngine(sparse).RunFromShape(shape).compute_cycles;
    const double dense_compute =
        GemmEngine(dense).RunFromShape(shape).compute_cycles;
    EXPECT_GT(dense_compute / sparse_compute, 3.0);
}

TEST(Integration, CompressionCutsDramTimeLikeThePaper)
{
    // Section 6.3.1: compressed formats cut DRAM access time sharply on
    // sparse weights (the paper reports -72% on its workloads).
    GemmEngineConfig with;
    with.compute_output = false;
    with.write_c_to_dram = false;  // hidden layer: outputs stay on chip
    GemmEngineConfig without = with;
    without.use_flex_codec = false;

    const GemmShape shape{4096, 512, 512, 0.4, 1.0, 0.8};
    const double ms_with = GemmEngine(with).RunFromShape(shape).dram_ms;
    const double ms_without =
        GemmEngine(without).RunFromShape(shape).dram_ms;
    EXPECT_LT(ms_with, 0.45 * ms_without);
}

TEST(Integration, QuantizedRenderKeepsAcceleratorGainsAndQuality)
{
    // The Fig. 20(a) pipeline in miniature: INT16 render is visually
    // lossless while INT4 is not; meanwhile INT4 execution is faster.
    Rng rng(78);
    GridField::Config config;
    config.grid = {5, 11, 4, 4, 1.6, -1.5, 1.5, 1e-2};
    GridField field(config, rng);
    field.Fit(ProceduralScene::Lego(), 1500, 5, 0.08, rng);

    Renderer renderer({24, 1.5, 4.8, 1.0, {1.0, 1.0, 1.0}});
    Camera cam({24, 24, 50.0, {0.0, 0.3, 3.0}, {0.0, 0.0, 0.0},
                {0.0, 1.0, 0.0}});
    const Image reference = renderer.Render(field, cam);

    GridField q16 = field;
    q16.QuantizeTables(Precision::kInt16);
    GridField q4 = field;
    q4.QuantizeTables(Precision::kInt4);
    const double psnr16 = Psnr(reference, renderer.Render(q16, cam));
    const double psnr4 = Psnr(reference, renderer.Render(q4, cam));
    EXPECT_GT(psnr16, psnr4 + 3.0);

    FlexNeRFerModel::Config c16;
    FlexNeRFerModel::Config c4;
    c4.precision = Precision::kInt4;
    const NerfWorkload w = BuildWorkload("Instant-NGP");
    EXPECT_LT(FlexNeRFerModel(c4).RunWorkload(w).latency_ms,
              FlexNeRFerModel(c16).RunWorkload(w).latency_ms);
}

TEST(Integration, SimpleScenesRenderFasterOnAccelerator)
{
    // Fig. 20(b): the simple scene renders faster than the complex one.
    const FlexNeRFerModel flex;
    WorkloadParams mic;
    mic.scene_complexity = 0.8;
    WorkloadParams palace;
    palace.scene_complexity = 1.3;
    const double t_mic =
        flex.RunWorkload(BuildWorkload("Instant-NGP", mic)).latency_ms;
    const double t_palace =
        flex.RunWorkload(BuildWorkload("Instant-NGP", palace)).latency_ms;
    EXPECT_LT(t_mic, t_palace);
    EXPECT_NEAR(t_palace / t_mic, 1.3 / 0.8, 0.35);
}

}  // namespace
}  // namespace flexnerfer
