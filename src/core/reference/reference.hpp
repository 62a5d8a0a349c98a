#pragma once

#include "core/ndarray/ndarray.hpp"
#include "core/ops/ops.hpp"

namespace pyblaz::reference {

/// Exact uncompressed-space counterparts of the compressed-space operations.
/// These are what the paper's Fig. 5 calls "uncompressed scalar functions
/// using plain PyTorch": the ground truth the compressed results are measured
/// against.  All statistics are population statistics, matching §IV.

/// Σ x_i y_i.
double dot(const NDArray<double>& x, const NDArray<double>& y);

/// Arithmetic mean.
double mean(const NDArray<double>& x);

/// Population covariance E[(x - μx)(y - μy)].
double covariance(const NDArray<double>& x, const NDArray<double>& y);

/// Population variance.
double variance(const NDArray<double>& x);

/// sqrt(variance).
double standard_deviation(const NDArray<double>& x);

/// Euclidean norm ‖x‖₂.
double l2_norm(const NDArray<double>& x);

/// ‖x - y‖₂: the adjacent-time-step distance of the fission experiment.
double l2_distance(const NDArray<double>& x, const NDArray<double>& y);

/// Largest absolute difference, ‖x - y‖∞.
double linf_distance(const NDArray<double>& x, const NDArray<double>& y);

/// dot / (‖x‖‖y‖).
double cosine_similarity(const NDArray<double>& x, const NDArray<double>& y);

/// Global SSIM with the same stabilizers/weights as the compressed version
/// (Algorithm 12 evaluated on raw data).
double structural_similarity(const NDArray<double>& x, const NDArray<double>& y,
                             const ops::SsimParams& params = {});

/// Exact 1-D p-order Wasserstein distance between the empirical distributions
/// of x and y: softmax-normalize if needed, sort, and take the p-power mean
/// of sorted differences — Algorithm 13 without the blockwise-mean
/// coarsening.  @p stable selects the log-domain evaluation.  Throws
/// std::invalid_argument unless @p p is finite and >= 1.
double wasserstein_distance(const NDArray<double>& x, const NDArray<double>& y,
                            double p, bool stable = true);

/// Mean absolute error between two arrays of equal shape.
double mean_absolute_error(const NDArray<double>& x, const NDArray<double>& y);

}  // namespace pyblaz::reference
