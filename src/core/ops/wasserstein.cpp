#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"

namespace pyblaz::ops {

namespace {

/// softmax(X) = e^X / Σ e^X, evaluated with the usual max-shift so large
/// negative-log-density values cannot overflow.
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

bool sums_to_one(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return std::fabs(total - 1.0) <= 1e-9;
}

/// (Σ |pa_i - pb_i|^p / n)^(1/p) evaluated in the log domain: underflow-free
/// for the large orders (p = 68, 80) the paper's fission experiment sweeps.
/// The differences are streamed, never materialized.
double power_mean_stable(const std::vector<double>& pa,
                         const std::vector<double>& pb, double p) {
  const double n = static_cast<double>(pa.size());
  double max_log = -std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < pa.size(); ++k) {
    const double a = std::fabs(pa[k] - pb[k]);
    if (a > 0.0) max_log = std::max(max_log, p * std::log(a));
  }
  if (!std::isfinite(max_log)) return 0.0;  // All differences are zero.
  double total = 0.0;
  for (std::size_t k = 0; k < pa.size(); ++k) {
    const double a = std::fabs(pa[k] - pb[k]);
    if (a > 0.0) total += std::exp(p * std::log(a) - max_log);
  }
  const double log_sum = max_log + std::log(total);
  return std::exp((log_sum - std::log(n)) / p);
}

/// The naive arithmetic of Algorithm 13; |d|^p underflows to zero for large p,
/// reproducing the paper's "all peaks vanish when p >= 80" behavior.
double power_mean_naive(const std::vector<double>& pa,
                        const std::vector<double>& pb, double p) {
  double total = 0.0;
  for (std::size_t k = 0; k < pa.size(); ++k)
    total += std::pow(std::fabs(pa[k] - pb[k]), p);
  return std::pow(total / static_cast<double>(pa.size()), 1.0 / p);
}

}  // namespace

double wasserstein_distance(const CompressedArray& a, const CompressedArray& b,
                            double p, bool stable) {
  if (!(std::isfinite(p) && p >= 1.0))
    throw std::invalid_argument(
        "wasserstein_distance: order p must be finite and >= 1");
  a.require_layout_match(b);
  internal::require_dc(a, "Wasserstein distance");

  // A' and B': blockwise means, the block-size-granular approximations of the
  // decompressed arrays.
  std::vector<double> pa = internal::blockwise_mean_vector(a);
  std::vector<double> pb = internal::blockwise_mean_vector(b);

  if (!sums_to_one(pa)) softmax_inplace(pa);
  if (!sums_to_one(pb)) softmax_inplace(pb);

  std::sort(pa.begin(), pa.end());
  std::sort(pb.begin(), pb.end());

  // The sorted-quantile differences stream through the power mean; no diffs
  // temporary is materialized.
  return stable ? power_mean_stable(pa, pb, p) : power_mean_naive(pa, pb, p);
}

}  // namespace pyblaz::ops
