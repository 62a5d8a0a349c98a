#include <gtest/gtest.h>

#include <cmath>

#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/ops.hpp"
#include "core/reference/reference.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

/// High-fidelity settings: with int32 bins and float64 the compressed-space
/// scalar functions must match the uncompressed truth almost exactly —
/// Table I says these operations add *no* error beyond compression, so at
/// near-zero compression error the results must coincide.
CompressorSettings fine_settings(Shape block = Shape{8, 8}) {
  return {.block_shape = std::move(block),
          .float_type = FloatType::kFloat64,
          .index_type = IndexType::kInt32};
}

// ----------------------------------------------------------------- dot product

TEST(OpsDot, MatchesUncompressedOnDivisibleShapes) {
  Compressor compressor(fine_settings());
  Rng rng(301);
  NDArray<double> x = random_smooth(Shape{32, 32}, rng);
  NDArray<double> y = random_smooth(Shape{32, 32}, rng);
  const double compressed =
      ops::dot(compressor.compress(x), compressor.compress(y));
  EXPECT_NEAR(compressed, reference::dot(x, y),
              1e-5 * std::fabs(reference::dot(x, y)) + 1e-6);
}

TEST(OpsDot, PaddingDoesNotPollute) {
  // Zero padding contributes zero to dot products: ragged shapes still match.
  Compressor compressor(fine_settings());
  Rng rng(303);
  NDArray<double> x = random_smooth(Shape{30, 29}, rng);
  NDArray<double> y = random_smooth(Shape{30, 29}, rng);
  const double compressed =
      ops::dot(compressor.compress(x), compressor.compress(y));
  EXPECT_NEAR(compressed, reference::dot(x, y),
              1e-5 * std::fabs(reference::dot(x, y)) + 1e-6);
}

TEST(OpsDot, DotWithSelfIsSquaredNorm) {
  Compressor compressor(fine_settings());
  Rng rng(307);
  CompressedArray a = compressor.compress(random_smooth(Shape{16, 16}, rng));
  EXPECT_NEAR(ops::dot(a, a), ops::l2_norm(a) * ops::l2_norm(a), 1e-9);
}

// ------------------------------------------------------------------------ mean

TEST(OpsMean, ExactOnDivisibleShapes) {
  Compressor compressor(fine_settings());
  Rng rng(311);
  NDArray<double> x = random_smooth(Shape{64, 64}, rng);
  CompressedArray a = compressor.compress(x);
  EXPECT_NEAR(ops::mean(a), reference::mean(x), 1e-7);
}

TEST(OpsMean, CoarseBinsStillTrackMean) {
  Compressor compressor({.block_shape = Shape{8, 8},
                         .float_type = FloatType::kFloat32,
                         .index_type = IndexType::kInt8});
  Rng rng(313);
  NDArray<double> x = add_scalar(random_smooth(Shape{64, 64}, rng), 2.0);
  EXPECT_NEAR(ops::mean(compressor.compress(x)), reference::mean(x),
              0.02 * std::fabs(reference::mean(x)));
}

TEST(OpsMean, PaddingBiasOnRaggedShapes) {
  // The compressed mean averages over padded blocks; for a constant array of
  // ones with a ragged edge the compressed mean is fill_fraction * 1.
  Compressor compressor(fine_settings(Shape{8, 8}));
  NDArray<double> x(Shape{12, 8}, 1.0);  // 2 blocks tall, second half-filled.
  CompressedArray a = compressor.compress(x);
  EXPECT_NEAR(ops::mean(a), 0.75, 1e-6);  // 96 ones / 128 padded slots.
}

// --------------------------------------------------------------------- variance

TEST(OpsVarianceCovariance, MatchUncompressedOnDivisibleShapes) {
  Compressor compressor(fine_settings());
  Rng rng(317);
  NDArray<double> x = random_smooth(Shape{32, 32}, rng);
  NDArray<double> y = random_smooth(Shape{32, 32}, rng);
  CompressedArray a = compressor.compress(x);
  CompressedArray b = compressor.compress(y);
  EXPECT_NEAR(ops::variance(a), reference::variance(x),
              1e-5 * reference::variance(x) + 1e-9);
  EXPECT_NEAR(ops::covariance(a, b), reference::covariance(x, y),
              1e-5 * std::fabs(reference::covariance(x, y)) + 1e-9);
}

TEST(OpsVariance, EqualsCovarianceWithSelf) {
  Compressor compressor(fine_settings());
  Rng rng(319);
  CompressedArray a = compressor.compress(random_smooth(Shape{16, 16}, rng));
  EXPECT_DOUBLE_EQ(ops::variance(a), ops::covariance(a, a));
}

TEST(OpsVariance, NonNegativeAndZeroForConstants) {
  Compressor compressor(fine_settings());
  NDArray<double> constant(Shape{16, 16}, 7.0);
  CompressedArray a = compressor.compress(constant);
  EXPECT_NEAR(ops::variance(a), 0.0, 1e-9);
  EXPECT_GE(ops::variance(a), -1e-15);
}

TEST(OpsVariance, ShiftInvariantUnderScalarAddition) {
  // Var(A + c) = Var(A): scalar addition only moves DC coefficients, and
  // variance centers them away.
  Compressor compressor(fine_settings());
  Rng rng(323);
  NDArray<double> x = random_smooth(Shape{32, 32}, rng);
  CompressedArray a = compressor.compress(x);
  CompressedArray shifted = ops::add_scalar(a, 5.0);
  EXPECT_NEAR(ops::variance(shifted), ops::variance(a),
              1e-4 * ops::variance(a) + 1e-7);
}

TEST(OpsStandardDeviation, IsSqrtOfVariance) {
  Compressor compressor(fine_settings());
  Rng rng(327);
  CompressedArray a = compressor.compress(random_smooth(Shape{16, 16}, rng));
  EXPECT_DOUBLE_EQ(ops::standard_deviation(a), std::sqrt(ops::variance(a)));
}

// ---------------------------------------------------------------------- L2 norm

TEST(OpsL2Norm, MatchesUncompressed) {
  Compressor compressor(fine_settings());
  Rng rng(331);
  NDArray<double> x = random_smooth(Shape{32, 32}, rng);
  EXPECT_NEAR(ops::l2_norm(compressor.compress(x)), reference::l2_norm(x),
              1e-5 * reference::l2_norm(x));
}

TEST(OpsL2Norm, ScalesLinearly) {
  // ‖cA‖ = |c|‖A‖ exactly, because scalar multiplication is exact.
  Compressor compressor(fine_settings());
  Rng rng(333);
  CompressedArray a = compressor.compress(random_smooth(Shape{16, 16}, rng));
  EXPECT_NEAR(ops::l2_norm(ops::multiply_scalar(a, -4.0)), 4.0 * ops::l2_norm(a),
              1e-9 * ops::l2_norm(a));
}

TEST(OpsL2Norm, TriangleInequalityUnderAdd) {
  Compressor compressor(fine_settings());
  Rng rng(337);
  CompressedArray a = compressor.compress(random_smooth(Shape{16, 16}, rng));
  CompressedArray b = compressor.compress(random_smooth(Shape{16, 16}, rng));
  EXPECT_LE(ops::l2_norm(ops::add(a, b)),
            ops::l2_norm(a) + ops::l2_norm(b) + 1e-6);
}

TEST(OpsL2Norm, DetectsDifferenceMagnitude) {
  // The fission experiment pattern: ‖D1 - D2‖ via compressed subtract.
  Compressor compressor({.block_shape = Shape{8, 8},
                         .float_type = FloatType::kFloat32,
                         .index_type = IndexType::kInt16});
  Rng rng(339);
  NDArray<double> d1 = random_smooth(Shape{32, 32}, rng);
  NDArray<double> d2 = add(d1, scale(random_smooth(Shape{32, 32}, rng), 0.1));
  const double compressed = ops::l2_norm(
      ops::subtract(compressor.compress(d1), compressor.compress(d2)));
  const double truth = reference::l2_distance(d1, d2);
  EXPECT_NEAR(compressed, truth, 0.05 * truth + 1e-3);
}

// ------------------------------------------------------------- cosine similarity

TEST(OpsCosine, SelfSimilarityIsOne) {
  Compressor compressor(fine_settings());
  Rng rng(341);
  CompressedArray a = compressor.compress(random_smooth(Shape{16, 16}, rng));
  EXPECT_NEAR(ops::cosine_similarity(a, a), 1.0, 1e-12);
}

TEST(OpsCosine, NegationGivesMinusOne) {
  Compressor compressor(fine_settings());
  Rng rng(343);
  CompressedArray a = compressor.compress(random_smooth(Shape{16, 16}, rng));
  EXPECT_NEAR(ops::cosine_similarity(a, ops::negate(a)), -1.0, 1e-12);
}

TEST(OpsCosine, MatchesUncompressed) {
  Compressor compressor(fine_settings());
  Rng rng(347);
  NDArray<double> x = random_smooth(Shape{32, 32}, rng);
  NDArray<double> y = random_smooth(Shape{32, 32}, rng);
  EXPECT_NEAR(ops::cosine_similarity(compressor.compress(x), compressor.compress(y)),
              reference::cosine_similarity(x, y), 1e-5);
}

TEST(OpsCosine, ScaleInvariant) {
  Compressor compressor(fine_settings());
  Rng rng(349);
  CompressedArray a = compressor.compress(random_smooth(Shape{16, 16}, rng));
  CompressedArray b = compressor.compress(random_smooth(Shape{16, 16}, rng));
  EXPECT_NEAR(ops::cosine_similarity(ops::multiply_scalar(a, 7.0), b),
              ops::cosine_similarity(a, b), 1e-12);
}

// ---------------------------------------------------------------- blockwise ops

TEST(OpsBlockwise, MeanShapeAndValues) {
  Compressor compressor(fine_settings(Shape{4, 4}));
  NDArray<double> x(Shape{8, 4});
  for (index_t k = 0; k < 32; ++k) x[k] = k < 16 ? 1.0 : 3.0;
  CompressedArray a = compressor.compress(x);
  NDArray<double> means = ops::blockwise_mean(a);
  EXPECT_EQ(means.shape(), Shape({2, 1}));
  EXPECT_NEAR(means[0], 1.0, 1e-9);
  EXPECT_NEAR(means[1], 3.0, 1e-9);
}

TEST(OpsBlockwise, VarianceMatchesPerBlockTruth) {
  Compressor compressor(fine_settings(Shape{4, 4}));
  Rng rng(353);
  NDArray<double> x = random_smooth(Shape{8, 8}, rng);
  CompressedArray a = compressor.compress(x);
  NDArray<double> variances = ops::blockwise_variance(a);
  ASSERT_EQ(variances.shape(), Shape({2, 2}));

  // Compute per-block variance directly.
  for (index_t bi = 0; bi < 2; ++bi)
    for (index_t bj = 0; bj < 2; ++bj) {
      std::vector<double> vals;
      for (index_t i = 0; i < 4; ++i)
        for (index_t j = 0; j < 4; ++j)
          vals.push_back(x[(bi * 4 + i) * 8 + (bj * 4 + j)]);
      double m = 0.0;
      for (double v : vals) m += v;
      m /= 16.0;
      double var = 0.0;
      for (double v : vals) var += (v - m) * (v - m);
      var /= 16.0;
      EXPECT_NEAR(variances[bi * 2 + bj], var, 1e-6);
    }
}

TEST(OpsBlockwise, StdIsSqrtOfVariance) {
  Compressor compressor(fine_settings(Shape{4, 4}));
  Rng rng(359);
  CompressedArray a = compressor.compress(random_smooth(Shape{16, 16}, rng));
  NDArray<double> var = ops::blockwise_variance(a);
  NDArray<double> sd = ops::blockwise_standard_deviation(a);
  for (index_t k = 0; k < var.size(); ++k)
    EXPECT_NEAR(sd[k], std::sqrt(var[k]), 1e-12);
}

// ------------------------------------------------ pinned inner-product bits

/// dot, covariance and l2_norm add each block's coefficient products slot by
/// slot and the block sums in chunk order.  The literals were computed with
/// the centred DC term still inside the slot loop; they pin that order.
TEST(OpsInnerProducts, BitsArePinned) {
  struct Pinned {
    IndexType type;
    double dot, covariance, l2_norm;
  };
  const Pinned pinned[] = {
      {IndexType::kInt8, 0x1.e23b1d046110ap+13, 0x1.56e6054b74146p+1,
       0x1.5f6766429e1fep+7},
      {IndexType::kInt16, 0x1.e243f6344df44p+13, 0x1.56ec5b6538bb4p+1,
       0x1.5f63c9f3a5dc7p+7},
      {IndexType::kInt32, 0x1.e24423f85548cp+13, 0x1.56ec7bd407567p+1,
       0x1.5f63d98fb1177p+7},
      {IndexType::kInt64, 0x1.e24423f858cdfp+13, 0x1.56ec7bd409c1cp+1,
       0x1.5f63d98faf8a7p+7},
  };
  for (const Pinned& p : pinned) {
    Compressor compressor({.block_shape = Shape{4, 4, 4},
                           .float_type = FloatType::kFloat32,
                           .index_type = p.type});
    Rng rng(365);
    NDArray<double> x(Shape{12, 20, 24}), y(Shape{12, 20, 24});
    for (index_t k = 0; k < x.size(); ++k) {
      x[k] = rng.uniform(-4.0, 4.0);
      y[k] = 0.5 * x[k] + rng.uniform(-1.0, 1.0);
    }
    const CompressedArray a = compressor.compress(x);
    const CompressedArray b = compressor.compress(y);
    EXPECT_EQ(ops::dot(a, b), p.dot) << bits(p.type);
    EXPECT_EQ(ops::covariance(a, b), p.covariance) << bits(p.type);
    EXPECT_EQ(ops::l2_norm(a), p.l2_norm) << bits(p.type);
  }
}

// ----------------------------------------- parameterized: op-vs-reference sweep

struct ReductionCase {
  Shape array_shape;
  Shape block_shape;
  IndexType index_type;
  double tolerance;  // Relative.
};

class ReductionsAgree : public ::testing::TestWithParam<ReductionCase> {};

TEST_P(ReductionsAgree, MeanVarianceL2Norm) {
  const auto& p = GetParam();
  Compressor compressor({.block_shape = p.block_shape,
                         .float_type = FloatType::kFloat64,
                         .index_type = p.index_type});
  Rng rng(363);
  NDArray<double> x = random_smooth(p.array_shape, rng);
  CompressedArray a = compressor.compress(x);

  EXPECT_NEAR(ops::mean(a), reference::mean(x),
              p.tolerance * (std::fabs(reference::mean(x)) + 1.0));
  EXPECT_NEAR(ops::variance(a), reference::variance(x),
              p.tolerance * (reference::variance(x) + 1.0));
  EXPECT_NEAR(ops::l2_norm(a), reference::l2_norm(x),
              p.tolerance * reference::l2_norm(x));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReductionsAgree,
    ::testing::Values(
        ReductionCase{Shape{64, 64}, Shape{8, 8}, IndexType::kInt8, 2e-2},
        ReductionCase{Shape{64, 64}, Shape{8, 8}, IndexType::kInt16, 1e-4},
        ReductionCase{Shape{64, 64}, Shape{16, 16}, IndexType::kInt16, 1e-4},
        ReductionCase{Shape{16, 32, 32}, Shape{4, 4, 4}, IndexType::kInt16, 1e-4},
        ReductionCase{Shape{16, 32, 32}, Shape{4, 16, 16}, IndexType::kInt16, 1e-4},
        ReductionCase{Shape{128}, Shape{16}, IndexType::kInt16, 1e-4}));

}  // namespace
}  // namespace pyblaz
