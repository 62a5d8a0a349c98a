#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/ops.hpp"
#include "core/reference/reference.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

CompressorSettings settings_with_block(Shape block) {
  return {.block_shape = std::move(block),
          .float_type = FloatType::kFloat64,
          .index_type = IndexType::kInt32};
}

TEST(OpsWasserstein, ZeroForIdenticalArrays) {
  Compressor compressor(settings_with_block(Shape{4, 4}));
  Rng rng(501);
  NDArray<double> x = random_smooth(Shape{16, 16}, rng);
  CompressedArray a = compressor.compress(x);
  EXPECT_NEAR(ops::wasserstein_distance(a, a, 2.0), 0.0, 1e-12);
}

TEST(OpsWasserstein, SymmetricInArguments) {
  Compressor compressor(settings_with_block(Shape{4, 4}));
  Rng rng(503);
  CompressedArray a = compressor.compress(random_smooth(Shape{16, 16}, rng));
  CompressedArray b = compressor.compress(random_smooth(Shape{16, 16}, rng));
  EXPECT_NEAR(ops::wasserstein_distance(a, b, 3.0),
              ops::wasserstein_distance(b, a, 3.0), 1e-12);
}

TEST(OpsWasserstein, OneElementBlocksMatchExactDistance) {
  // §IV-B: one-element blocks make the approximation exact (while discarding
  // all compression benefit).
  Compressor compressor(settings_with_block(Shape{1, 1}));
  Rng rng(507);
  NDArray<double> x = random_smooth(Shape{8, 8}, rng);
  NDArray<double> y = random_smooth(Shape{8, 8}, rng);
  const double approx = ops::wasserstein_distance(compressor.compress(x),
                                                  compressor.compress(y), 2.0);
  const double exact = reference::wasserstein_distance(x, y, 2.0);
  EXPECT_NEAR(approx, exact, 1e-6 * (exact + 1.0));
}

TEST(OpsWasserstein, ApproximationImprovesWithSmallerBlocks) {
  Rng rng(509);
  NDArray<double> x = random_smooth(Shape{32, 32}, rng);
  NDArray<double> y = random_smooth(Shape{32, 32}, rng);
  const double exact = reference::wasserstein_distance(x, y, 2.0);

  double err_small, err_large;
  {
    Compressor compressor(settings_with_block(Shape{2, 2}));
    err_small = std::fabs(ops::wasserstein_distance(compressor.compress(x),
                                                    compressor.compress(y), 2.0) -
                          exact);
  }
  {
    Compressor compressor(settings_with_block(Shape{16, 16}));
    err_large = std::fabs(ops::wasserstein_distance(compressor.compress(x),
                                                    compressor.compress(y), 2.0) -
                          exact);
  }
  // Error is a function of block size (Table I): coarser blocks, worse
  // approximation.
  EXPECT_LT(err_small, err_large);
}

TEST(OpsWasserstein, StableModeSurvivesLargeOrders) {
  Compressor compressor(settings_with_block(Shape{4, 4}));
  Rng rng(511);
  NDArray<double> x = random_smooth(Shape{32, 32}, rng);
  NDArray<double> y = random_smooth(Shape{32, 32}, rng);
  CompressedArray a = compressor.compress(x);
  CompressedArray b = compressor.compress(y);

  const double w68 = ops::wasserstein_distance(a, b, 68.0, /*stable=*/true);
  EXPECT_TRUE(std::isfinite(w68));
  EXPECT_GT(w68, 0.0);
}

TEST(OpsWasserstein, NaiveModeUnderflowsAtHighOrder) {
  // The paper's "all peaks vanish when p >= 80": softmax differences are tiny,
  // so |d|^80 underflows double and the naive sum collapses to zero.
  Compressor compressor(settings_with_block(Shape{4, 4}));
  Rng rng(513);
  NDArray<double> x = random_smooth(Shape{32, 32}, rng);
  NDArray<double> y = random_smooth(Shape{32, 32}, rng);
  CompressedArray a = compressor.compress(x);
  CompressedArray b = compressor.compress(y);

  const double naive = ops::wasserstein_distance(a, b, 300.0, /*stable=*/false);
  const double stable = ops::wasserstein_distance(a, b, 300.0, /*stable=*/true);
  EXPECT_EQ(naive, 0.0);
  EXPECT_GT(stable, 0.0);
}

TEST(OpsWasserstein, ApproachesMaxDifferenceAsOrderGrows) {
  // (mean |d|^p)^(1/p) -> max |d| as p -> inf: high orders emphasize the
  // biggest transport, which is how Fig. 6b isolates the scission peak.
  Compressor compressor(settings_with_block(Shape{4, 4}));
  Rng rng(517);
  NDArray<double> x = random_smooth(Shape{32, 32}, rng);
  NDArray<double> y = random_smooth(Shape{32, 32}, rng);
  CompressedArray a = compressor.compress(x);
  CompressedArray b = compressor.compress(y);

  const double w2 = ops::wasserstein_distance(a, b, 2.0);
  const double w16 = ops::wasserstein_distance(a, b, 16.0);
  const double w128 = ops::wasserstein_distance(a, b, 128.0);
  // Power means of values < 1 with growing p... not monotone in general for
  // the normalized mean, but the limit holds; check convergence by spacing.
  EXPECT_GT(w128, 0.0);
  EXPECT_LT(std::fabs(w128 - w16), std::fabs(w16 - w2) + 1e-9);
}

TEST(OpsWasserstein, ProbabilityInputsSkipSoftmax) {
  // Arrays already summing to 1 are used as-is (Algorithm 13's guard).
  // Block means of a uniform distribution: each block mean = 1/prod(s) and
  // softmax would distort this; the distance between two identical uniform
  // distributions must be zero either way.
  Compressor compressor(settings_with_block(Shape{2, 2}));
  NDArray<double> uniform(Shape{8, 8}, 1.0 / 64.0);
  CompressedArray a = compressor.compress(uniform);
  EXPECT_NEAR(ops::wasserstein_distance(a, a, 1.0), 0.0, 1e-12);
}

TEST(OpsWasserstein, DetectsDistributionShift) {
  // Mass moving far should register a larger distance than mass moving near.
  Compressor compressor(settings_with_block(Shape{2, 2}));
  NDArray<double> base(Shape{16, 16}, 0.0);
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) base[i * 16 + j] = 1.0;

  NDArray<double> near_shift = base;
  // Double the peak (a mild reshaping of the distribution).
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) near_shift[i * 16 + j] = 2.0;

  NDArray<double> far_shift(Shape{16, 16}, 0.0);
  // Split the mass into two distant peaks (a topology change).
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 4; ++j) {
      far_shift[i * 16 + j] = 3.0;
      far_shift[(i + 12) * 16 + (j + 12)] = 3.0;
    }

  CompressedArray a = compressor.compress(base);
  const double d_near =
      ops::wasserstein_distance(a, compressor.compress(near_shift), 2.0);
  const double d_far =
      ops::wasserstein_distance(a, compressor.compress(far_shift), 2.0);
  EXPECT_GT(d_far, d_near);
}

TEST(OpsWasserstein, ThrowsOnLayoutMismatch) {
  Compressor c2(settings_with_block(Shape{2, 2}));
  Compressor c4(settings_with_block(Shape{4, 4}));
  Rng rng(519);
  NDArray<double> x = random_smooth(Shape{16, 16}, rng);
  EXPECT_THROW(ops::wasserstein_distance(c2.compress(x), c4.compress(x), 2.0),
               std::invalid_argument);
}

TEST(OpsWasserstein, RejectsOrdersBelowOneAndNonFiniteOrders) {
  // The p-power mean is a distance only for finite p >= 1; p = 0, negative
  // and NaN orders used to return NaN or meaningless small values.
  Compressor compressor(settings_with_block(Shape{8, 8}));
  Rng rng(521);
  NDArray<double> x = random_smooth(Shape{64, 64}, rng);
  NDArray<double> y = random_smooth(Shape{64, 64}, rng);
  const CompressedArray a = compressor.compress(x);
  const CompressedArray b = compressor.compress(y);
  for (double p : {0.0, 0.5, -1.0, std::numeric_limits<double>::quiet_NaN(),
                   std::numeric_limits<double>::infinity()}) {
    for (bool stable : {true, false}) {
      EXPECT_THROW(ops::wasserstein_distance(a, b, p, stable),
                   std::invalid_argument)
          << "p " << p << " stable " << stable;
      EXPECT_THROW(reference::wasserstein_distance(x, y, p, stable),
                   std::invalid_argument)
          << "p " << p << " stable " << stable;
    }
  }
  EXPECT_GT(ops::wasserstein_distance(a, b, 1.0), 0.0);
  EXPECT_GT(reference::wasserstein_distance(x, y, 1.0), 0.0);
}

}  // namespace
}  // namespace pyblaz
