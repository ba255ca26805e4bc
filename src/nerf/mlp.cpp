#include "nerf/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace flexnerfer {

Mlp::Mlp(const Config& config, Rng& rng)
    : config_(config)
{
    FLEX_CHECK_MSG(config.input_dim >= 1 && config.output_dim >= 1,
                   "MLP dims must be positive");
    std::vector<int> dims;
    dims.push_back(config.input_dim);
    for (int h : config.hidden_dims) dims.push_back(h);
    dims.push_back(config.output_dim);

    for (std::size_t layer = 0; layer + 1 < dims.size(); ++layer) {
        const int in = dims[layer];
        const int out = dims[layer + 1];
        MatrixD w(out, in);
        // Heavy-tailed initialization: mostly narrow Gaussian weights with
        // an outlier population, mimicking trained NeRF weight statistics.
        const double base_std = config.weight_scale / std::sqrt(in);
        for (int r = 0; r < out; ++r) {
            for (int c = 0; c < in; ++c) {
                const bool outlier = rng.Bernoulli(config.outlier_fraction);
                w.at(r, c) = rng.Gaussian(
                    0.0, outlier ? base_std * config.outlier_scale
                                 : base_std);
            }
        }
        weights_.push_back(std::move(w));
        biases_.emplace_back(out, 0.0);
    }
}

std::vector<double>
Mlp::Forward(const std::vector<double>& input) const
{
    FLEX_CHECK_MSG(static_cast<int>(input.size()) == config_.input_dim,
                   "input dim " << input.size() << " != "
                                << config_.input_dim);
    std::vector<double> activation = input;
    for (std::size_t layer = 0; layer < weights_.size(); ++layer) {
        const MatrixD& w = weights_[layer];
        std::vector<double> next(w.rows(), 0.0);
        for (int r = 0; r < w.rows(); ++r) {
            double acc = biases_[layer][r];
            for (int c = 0; c < w.cols(); ++c) {
                acc += w.at(r, c) * activation[c];
            }
            next[r] = acc;
        }
        const bool last = layer + 1 == weights_.size();
        if (!last) {
            for (double& v : next) v = std::max(0.0, v);
        }
        activation = std::move(next);
    }
    return activation;
}

std::vector<double>
Mlp::ForwardQuantized(const std::vector<double>& input, Precision precision,
                      const OutlierPolicy& outlier_policy) const
{
    FLEX_CHECK_MSG(static_cast<int>(input.size()) == config_.input_dim,
                   "input dim mismatch");
    std::vector<double> activation = input;
    for (std::size_t layer = 0; layer < weights_.size(); ++layer) {
        const MatrixD& w = weights_[layer];

        // Quantize the current activations per tensor.
        const double act_scale = ComputeScale(activation, precision);
        std::vector<std::int32_t> act_q(activation.size());
        for (std::size_t i = 0; i < activation.size(); ++i) {
            act_q[i] = QuantizeValue(activation[i], act_scale, precision);
        }

        std::vector<double> next(w.rows(), 0.0);
        if (outlier_policy.keep_outliers) {
            const OutlierSplit split = SplitOutliers(
                w, precision, outlier_policy.outlier_fraction);
            // Dense low-precision GEMV + sparse INT16 outlier correction,
            // both in exact integer arithmetic.
            const double act16_scale =
                ComputeScale(activation, Precision::kInt16);
            std::vector<std::int32_t> act16(activation.size());
            for (std::size_t i = 0; i < activation.size(); ++i) {
                act16[i] = QuantizeValue(activation[i], act16_scale,
                                         Precision::kInt16);
            }
            for (int r = 0; r < w.rows(); ++r) {
                std::int64_t acc = 0;
                std::int64_t acc_outlier = 0;
                for (int c = 0; c < w.cols(); ++c) {
                    acc += static_cast<std::int64_t>(
                               split.base.values.at(r, c)) * act_q[c];
                    const std::int32_t o = split.outliers.values.at(r, c);
                    if (o != 0) {
                        acc_outlier +=
                            static_cast<std::int64_t>(o) * act16[c];
                    }
                }
                next[r] = biases_[layer][r] +
                          static_cast<double>(acc) * split.base.scale *
                              act_scale +
                          static_cast<double>(acc_outlier) *
                              split.outliers.scale * act16_scale;
            }
        } else {
            const QuantizedMatrix wq = QuantizeMatrix(w, precision);
            for (int r = 0; r < w.rows(); ++r) {
                std::int64_t acc = 0;
                for (int c = 0; c < w.cols(); ++c) {
                    acc += static_cast<std::int64_t>(wq.values.at(r, c)) *
                           act_q[c];
                }
                next[r] = biases_[layer][r] +
                          static_cast<double>(acc) * wq.scale * act_scale;
            }
        }

        const bool last = layer + 1 == weights_.size();
        if (!last) {
            for (double& v : next) v = std::max(0.0, v);
        }
        activation = std::move(next);
    }
    return activation;
}

}  // namespace flexnerfer
