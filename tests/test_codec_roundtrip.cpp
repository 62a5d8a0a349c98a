#include <gtest/gtest.h>

#include <cmath>

#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/reference/reference.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

struct RoundTripCase {
  Shape array_shape;
  Shape block_shape;
  FloatType float_type;
  IndexType index_type;
  TransformKind transform;
};

class RoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(RoundTrip, ReconstructionWithinLooseLinfBound) {
  const auto& p = GetParam();
  CompressorSettings settings{.block_shape = p.block_shape,
                              .float_type = p.float_type,
                              .index_type = p.index_type,
                              .transform = p.transform};
  Compressor compressor(settings);
  Rng rng(31);
  NDArray<double> array = random_smooth(p.array_shape, rng);

  CompressionDiagnostics diag;
  CompressedArray compressed = compressor.compress(array, &diag);
  NDArray<double> restored = compressor.decompress(compressed);

  EXPECT_EQ(restored.shape(), array.shape());

  // §IV-D: the loose L∞ bound plus a float-type rounding allowance must hold
  // everywhere (the bound covers binning + pruning; quantization of the
  // input/output adds at most a few ULP of the storage type).
  const double linf = reference::linf_distance(array, restored);
  const double data_scale = max_abs(array);
  const double rounding_allowance =
      4.0 * data_scale *
      (p.float_type == FloatType::kFloat64   ? 1e-15
       : p.float_type == FloatType::kFloat32 ? 1e-6
       : p.float_type == FloatType::kFloat16 ? 1e-3
                                             : 1e-2);
  EXPECT_LE(linf, diag.loose_linf(compressed) + rounding_allowance)
      << settings.describe();
}

TEST_P(RoundTrip, CompressedMetadataIsConsistent) {
  const auto& p = GetParam();
  CompressorSettings settings{.block_shape = p.block_shape,
                              .float_type = p.float_type,
                              .index_type = p.index_type,
                              .transform = p.transform};
  Compressor compressor(settings);
  Rng rng(37);
  NDArray<double> array = random_smooth(p.array_shape, rng);
  CompressedArray compressed = compressor.compress(array);

  EXPECT_EQ(compressed.shape, p.array_shape);
  EXPECT_EQ(compressed.block_shape, p.block_shape);
  EXPECT_EQ(static_cast<index_t>(compressed.biggest.size()),
            compressed.num_blocks());
  EXPECT_EQ(static_cast<index_t>(compressed.indices.size()),
            compressed.num_blocks() * compressed.kept_per_block());

  // Bin indices must be inside [-r, r].
  const std::int64_t r = compressed.radius();
  for (std::size_t k = 0; k < compressed.indices.size(); ++k) {
    EXPECT_GE(compressed.indices.get(k), -r);
    EXPECT_LE(compressed.indices.get(k), r);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SettingsSweep, RoundTrip,
    ::testing::Values(
        RoundTripCase{Shape{64}, Shape{8}, FloatType::kFloat64, IndexType::kInt16,
                      TransformKind::kDCT},
        RoundTripCase{Shape{64, 64}, Shape{8, 8}, FloatType::kFloat64,
                      IndexType::kInt8, TransformKind::kDCT},
        RoundTripCase{Shape{64, 64}, Shape{8, 8}, FloatType::kFloat32,
                      IndexType::kInt16, TransformKind::kDCT},
        RoundTripCase{Shape{64, 64}, Shape{8, 8}, FloatType::kFloat16,
                      IndexType::kInt8, TransformKind::kDCT},
        RoundTripCase{Shape{64, 64}, Shape{8, 8}, FloatType::kBFloat16,
                      IndexType::kInt8, TransformKind::kDCT},
        RoundTripCase{Shape{30, 50}, Shape{16, 16}, FloatType::kFloat32,
                      IndexType::kInt16, TransformKind::kDCT},
        RoundTripCase{Shape{20, 40, 40}, Shape{4, 4, 4}, FloatType::kFloat32,
                      IndexType::kInt16, TransformKind::kDCT},
        RoundTripCase{Shape{20, 40, 40}, Shape{4, 16, 16}, FloatType::kFloat32,
                      IndexType::kInt8, TransformKind::kDCT},
        RoundTripCase{Shape{64, 64}, Shape{8, 8}, FloatType::kFloat64,
                      IndexType::kInt16, TransformKind::kHaar},
        RoundTripCase{Shape{17, 9, 33}, Shape{8, 2, 16}, FloatType::kFloat64,
                      IndexType::kInt32, TransformKind::kDCT}));

TEST(Codec, FinerIndexTypesGiveSmallerError) {
  Rng rng(41);
  NDArray<double> array = random_smooth(Shape{64, 64}, rng);
  double previous = 1e300;
  for (IndexType itype : {IndexType::kInt8, IndexType::kInt16, IndexType::kInt32}) {
    Compressor compressor({.block_shape = Shape{8, 8},
                           .float_type = FloatType::kFloat64,
                           .index_type = itype});
    const double err =
        reference::l2_distance(array, compressor.decompress(compressor.compress(array)));
    EXPECT_LT(err, previous) << name(itype);
    previous = err;
  }
}

TEST(Codec, Int32OnSmoothDataIsNearlyLossless) {
  Rng rng(43);
  NDArray<double> array = random_smooth(Shape{32, 32}, rng);
  Compressor compressor({.block_shape = Shape{8, 8},
                         .float_type = FloatType::kFloat64,
                         .index_type = IndexType::kInt32});
  const double err =
      reference::linf_distance(array, compressor.decompress(compressor.compress(array)));
  EXPECT_LT(err, 1e-6);
}

TEST(Codec, ConstantArrayReconstructsAlmostExactly) {
  NDArray<double> array(Shape{32, 32}, 3.25);
  Compressor compressor({.block_shape = Shape{8, 8},
                         .float_type = FloatType::kFloat64,
                         .index_type = IndexType::kInt8});
  NDArray<double> restored = compressor.decompress(compressor.compress(array));
  // A constant block has a single nonzero coefficient, which binning maps to
  // exactly ±r; reconstruction is exact up to FP rounding.
  for (index_t k = 0; k < array.size(); ++k) EXPECT_NEAR(restored[k], 3.25, 1e-12);
}

TEST(Codec, ZeroArrayStaysZero) {
  NDArray<double> array(Shape{16, 16}, 0.0);
  Compressor compressor({.block_shape = Shape{4, 4}});
  CompressedArray compressed = compressor.compress(array);
  for (double n : compressed.biggest) EXPECT_EQ(n, 0.0);
  NDArray<double> restored = compressor.decompress(compressed);
  for (index_t k = 0; k < array.size(); ++k) EXPECT_EQ(restored[k], 0.0);
}

TEST(Codec, NegationSymmetry) {
  // compress(-A) reconstructs to -decompress(compress(A)) for symmetric
  // binning (bins are centered at zero).
  Rng rng(47);
  NDArray<double> array = random_smooth(Shape{32, 32}, rng);
  NDArray<double> negated = scale(array, -1.0);
  Compressor compressor({.block_shape = Shape{8, 8},
                         .float_type = FloatType::kFloat64,
                         .index_type = IndexType::kInt8});
  NDArray<double> da = compressor.decompress(compressor.compress(array));
  NDArray<double> dn = compressor.decompress(compressor.compress(negated));
  for (index_t k = 0; k < array.size(); ++k) EXPECT_NEAR(dn[k], -da[k], 1e-12);
}

TEST(Codec, PruningReducesKeptCoefficients) {
  CompressorSettings settings{.block_shape = Shape{8, 8}};
  settings.mask = PruningMask::keep_fraction(Shape{8, 8}, 0.25);
  Compressor compressor(settings);
  Rng rng(53);
  NDArray<double> array = random_smooth(Shape{64, 64}, rng);
  CompressedArray compressed = compressor.compress(array);
  EXPECT_EQ(compressed.kept_per_block(), 16);
  EXPECT_EQ(static_cast<index_t>(compressed.indices.size()),
            compressed.num_blocks() * 16);
}

TEST(Codec, PruningErrorTrackedInDiagnostics) {
  CompressorSettings settings{.block_shape = Shape{8, 8},
                              .float_type = FloatType::kFloat64,
                              .index_type = IndexType::kInt32};
  settings.mask = PruningMask::keep_fraction(Shape{8, 8}, 0.5);
  Compressor compressor(settings);
  Rng rng(59);
  NDArray<double> array = random_normal(Shape{64, 64}, rng);

  CompressionDiagnostics diag;
  CompressedArray compressed = compressor.compress(array, &diag);
  NDArray<double> restored = compressor.decompress(compressed);

  // Orthonormality: whole-array L2 error equals the L2 norm of coefficient
  // errors (binning + pruning), §IV-D.
  const double measured = reference::l2_distance(array, restored);
  EXPECT_NEAR(measured, diag.total_l2(), 1e-9 * (1.0 + diag.total_l2()));

  // White noise has energy at all frequencies: pruning must show up.
  double pruned_energy = 0.0;
  for (double v : diag.pruning_l2) pruned_energy += v * v;
  EXPECT_GT(pruned_energy, 0.0);
}

TEST(Codec, ThrowsOnDimensionalityMismatch) {
  Compressor compressor({.block_shape = Shape{4, 4}});
  NDArray<double> array(Shape{16}, 1.0);
  EXPECT_THROW(compressor.compress(array), std::invalid_argument);
}

TEST(Codec, ThrowsOnNonPowerOfTwoBlocks) {
  EXPECT_THROW(Compressor({.block_shape = Shape{3, 3}}), std::invalid_argument);
}

TEST(Codec, ThrowsOnMismatchedMaskShape) {
  CompressorSettings settings{.block_shape = Shape{4, 4}};
  settings.mask = PruningMask::keep_all(Shape{8, 8});
  EXPECT_THROW(Compressor{settings}, std::invalid_argument);
}

TEST(Codec, Float16InputsCanOverflowToInf) {
  // FP16's dynamic range tops out at 65504; bigger magnitudes become inf
  // during data type conversion — the NaN/inf hazard Fig. 5 discusses.
  NDArray<double> array(Shape{4, 4}, 1e6);
  Compressor compressor({.block_shape = Shape{4, 4},
                         .float_type = FloatType::kFloat16,
                         .index_type = IndexType::kInt8});
  CompressedArray compressed = compressor.compress(array);
  EXPECT_TRUE(std::isinf(compressed.biggest[0]));

  // bfloat16 keeps float32's range: same data compresses finite.
  Compressor bf({.block_shape = Shape{4, 4},
                 .float_type = FloatType::kBFloat16,
                 .index_type = IndexType::kInt8});
  EXPECT_TRUE(std::isfinite(bf.compress(array).biggest[0]));
}

TEST(Codec, DecompressRoundsThroughTheArrayFloatType) {
  // The stored float type belongs to the archive: a float16 archive decodes
  // to the same values whichever compressor (or random-access read) decodes
  // it.
  Rng rng(61);
  const NDArray<double> array = random_smooth(Shape{64, 64}, rng);
  const Compressor f16({.block_shape = Shape{8, 8},
                        .float_type = FloatType::kFloat16,
                        .index_type = IndexType::kInt16});
  const Compressor f32({.block_shape = Shape{8, 8},
                        .float_type = FloatType::kFloat32,
                        .index_type = IndexType::kInt16});
  const CompressedArray compressed = f16.compress(array);
  const NDArray<double> expected = f16.decompress(compressed);
  const NDArray<double> roi = compressed.decompress_roi({0, 0}, {64, 64});
  const NDArray<double> other = f32.decompress(compressed);
  index_t differing = 0;
  for (index_t k = 0; k < array.size(); ++k) {
    EXPECT_EQ(roi[k], expected[k]) << k;
    if (other[k] != expected[k]) ++differing;
  }
  EXPECT_EQ(differing, 0);
}

}  // namespace
}  // namespace pyblaz
