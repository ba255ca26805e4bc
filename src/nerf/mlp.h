/**
 * @file
 * Multi-layer perceptron (Step C of the NeRF pipeline): the coordinate
 * regression network mapping encoded features to density and color.
 * Supports an FP64 reference path and a quantized integer path that mirrors
 * what the bit-scalable MAC array executes.
 */
#ifndef FLEXNERFER_NERF_MLP_H_
#define FLEXNERFER_NERF_MLP_H_

#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/types.h"
#include "nerf/quantization.h"

namespace flexnerfer {

/** Fully connected network with ReLU activations on hidden layers. */
class Mlp
{
  public:
    struct Config {
        int input_dim = 32;
        std::vector<int> hidden_dims = {64, 64};
        int output_dim = 4;  //!< sigma + RGB
        /**
         * Fraction of weights drawn from a wide (outlier) distribution.
         * Real trained NeRF weights are heavy-tailed, which is what makes
         * naive INT4/INT8 quantization lossy (Fig. 20(a)).
         */
        double outlier_fraction = 0.05;
        double weight_scale = 0.4;
        double outlier_scale = 2.5;
    };

    Mlp(const Config& config, Rng& rng);

    /** Reference forward pass. */
    std::vector<double> Forward(const std::vector<double>& input) const;

    /**
     * Quantized forward pass: weights and activations are quantized to
     * @p precision (per-tensor absmax scales) and accumulated in int64,
     * mirroring the accelerator datapath. With @p outlier_policy keeping
     * outliers, the top fraction of weight magnitudes is applied at INT16
     * as a sparse correction GEMM (Section 6.3.2 of the paper).
     */
    std::vector<double> ForwardQuantized(
        const std::vector<double>& input, Precision precision,
        const OutlierPolicy& outlier_policy = {}) const;

    int NumLayers() const { return static_cast<int>(weights_.size()); }

    const Config& config() const { return config_; }

  private:
    Config config_;
    std::vector<MatrixD> weights_;
    std::vector<std::vector<double>> biases_;
};

}  // namespace flexnerfer

#endif  // FLEXNERFER_NERF_MLP_H_
