#include "core/reference/reference.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace pyblaz::reference {

double dot(const NDArray<double>& x, const NDArray<double>& y) {
  assert(x.shape() == y.shape());
  double total = 0.0;
  for (index_t k = 0; k < x.size(); ++k) total += x[k] * y[k];
  return total;
}

double mean(const NDArray<double>& x) {
  double total = 0.0;
  for (index_t k = 0; k < x.size(); ++k) total += x[k];
  return total / static_cast<double>(x.size());
}

double covariance(const NDArray<double>& x, const NDArray<double>& y) {
  assert(x.shape() == y.shape());
  const double mx = mean(x);
  const double my = mean(y);
  double total = 0.0;
  for (index_t k = 0; k < x.size(); ++k) total += (x[k] - mx) * (y[k] - my);
  return total / static_cast<double>(x.size());
}

double variance(const NDArray<double>& x) { return covariance(x, x); }

double standard_deviation(const NDArray<double>& x) {
  return std::sqrt(variance(x));
}

double l2_norm(const NDArray<double>& x) { return std::sqrt(dot(x, x)); }

double l2_distance(const NDArray<double>& x, const NDArray<double>& y) {
  assert(x.shape() == y.shape());
  double total = 0.0;
  for (index_t k = 0; k < x.size(); ++k) {
    const double d = x[k] - y[k];
    total += d * d;
  }
  return std::sqrt(total);
}

double linf_distance(const NDArray<double>& x, const NDArray<double>& y) {
  assert(x.shape() == y.shape());
  double worst = 0.0;
  for (index_t k = 0; k < x.size(); ++k)
    worst = std::max(worst, std::fabs(x[k] - y[k]));
  return worst;
}

double cosine_similarity(const NDArray<double>& x, const NDArray<double>& y) {
  return dot(x, y) / (l2_norm(x) * l2_norm(y));
}

double structural_similarity(const NDArray<double>& x, const NDArray<double>& y,
                             const ops::SsimParams& params) {
  const double mu_x = mean(x);
  const double mu_y = mean(y);
  const double var_x = variance(x);
  const double var_y = variance(y);
  const double sigma_x = std::sqrt(var_x);
  const double sigma_y = std::sqrt(var_y);
  const double sigma_xy = covariance(x, y);

  const double sl = params.luminance_stabilizer;
  const double sc = params.contrast_stabilizer;
  const double luminance =
      (2.0 * mu_x * mu_y + sl) / (mu_x * mu_x + mu_y * mu_y + sl);
  const double contrast = (2.0 * sigma_x * sigma_y + sc) / (var_x + var_y + sc);
  const double structure =
      (sigma_xy + sc / 2.0) / (sigma_x * sigma_y + sc / 2.0);
  return std::pow(luminance, params.luminance_weight) *
         std::pow(contrast, params.contrast_weight) *
         std::pow(structure, params.structure_weight);
}

namespace {

void softmax_inplace(std::vector<double>& values) {
  double biggest = -std::numeric_limits<double>::infinity();
  for (double v : values) biggest = std::max(biggest, v);
  double total = 0.0;
  for (double& v : values) {
    v = std::exp(v - biggest);
    total += v;
  }
  for (double& v : values) v /= total;
}

double power_mean(const std::vector<double>& diffs, double p, bool stable) {
  const double n = static_cast<double>(diffs.size());
  if (!stable) {
    double total = 0.0;
    for (double d : diffs) total += std::pow(std::fabs(d), p);
    return std::pow(total / n, 1.0 / p);
  }
  double max_log = -std::numeric_limits<double>::infinity();
  for (double d : diffs) {
    const double a = std::fabs(d);
    if (a > 0.0) max_log = std::max(max_log, p * std::log(a));
  }
  if (!std::isfinite(max_log)) return 0.0;
  double total = 0.0;
  for (double d : diffs) {
    const double a = std::fabs(d);
    if (a > 0.0) total += std::exp(p * std::log(a) - max_log);
  }
  return std::exp((max_log + std::log(total) - std::log(n)) / p);
}

}  // namespace

double wasserstein_distance(const NDArray<double>& x, const NDArray<double>& y,
                            double p, bool stable) {
  if (!(std::isfinite(p) && p >= 1.0))
    throw std::invalid_argument(
        "wasserstein_distance: order p must be finite and >= 1");
  assert(x.shape() == y.shape());
  std::vector<double> px = x.vector();
  std::vector<double> py = y.vector();

  auto total = [](const std::vector<double>& v) {
    double t = 0.0;
    for (double e : v) t += e;
    return t;
  };
  if (std::fabs(total(px) - 1.0) > 1e-9) softmax_inplace(px);
  if (std::fabs(total(py) - 1.0) > 1e-9) softmax_inplace(py);

  std::sort(px.begin(), px.end());
  std::sort(py.begin(), py.end());

  std::vector<double> diffs(px.size());
  for (std::size_t k = 0; k < px.size(); ++k) diffs[k] = px[k] - py[k];
  return power_mean(diffs, p, stable);
}

double mean_absolute_error(const NDArray<double>& x, const NDArray<double>& y) {
  assert(x.shape() == y.shape());
  double total = 0.0;
  for (index_t k = 0; k < x.size(); ++k) total += std::fabs(x[k] - y[k]);
  return total / static_cast<double>(x.size());
}

}  // namespace pyblaz::reference
