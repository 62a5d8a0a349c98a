/// Kernel-layer equivalence tests: the factorized fast transforms must agree
/// with the dense matrix path (the oracle) to <= 1e-12, the fused
/// gather/quantize/transform/rebin compressor pipeline must be bit-identical
/// to an unfused reimplementation of the seed's step-by-step flow, and the
/// shared rebin/unbin kernels must match their scalar definitions exactly.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/blocking/blocking.hpp"
#include "core/codec/compressor.hpp"
#include "core/kernels/fast_transform.hpp"
#include "core/kernels/rebin.hpp"
#include "core/transform/dct.hpp"
#include "core/transform/haar.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

// ------------------------------------------------------ fast-vs-dense oracle

struct KernelCase {
  TransformKind kind;
  Shape block_shape;
};

class FastVsDense : public ::testing::TestWithParam<KernelCase> {};

TEST_P(FastVsDense, ForwardMatchesDenseOracle) {
  const auto& param = GetParam();
  for (int axis = 0; axis < param.block_shape.ndim(); ++axis)
    ASSERT_TRUE(
        kernels::fast_axis_supported(param.kind, param.block_shape[axis]));

  BlockTransform fast(param.kind, param.block_shape, TransformImpl::kAuto);
  BlockTransform dense(param.kind, param.block_shape, TransformImpl::kDense);
  Rng rng(101);
  NDArray<double> block = random_normal(param.block_shape, rng);

  std::vector<double> via_fast = block.vector();
  std::vector<double> via_dense = block.vector();
  fast.forward(via_fast.data());
  dense.forward(via_dense.data());

  for (index_t k = 0; k < block.size(); ++k)
    EXPECT_NEAR(via_fast[static_cast<std::size_t>(k)],
                via_dense[static_cast<std::size_t>(k)], 1e-12)
        << "coefficient " << k << " of " << param.block_shape.to_string();
}

TEST_P(FastVsDense, InverseMatchesDenseOracle) {
  const auto& param = GetParam();
  BlockTransform fast(param.kind, param.block_shape, TransformImpl::kAuto);
  BlockTransform dense(param.kind, param.block_shape, TransformImpl::kDense);
  Rng rng(103);
  NDArray<double> block = random_normal(param.block_shape, rng);

  std::vector<double> via_fast = block.vector();
  std::vector<double> via_dense = block.vector();
  fast.inverse(via_fast.data());
  dense.inverse(via_dense.data());

  for (index_t k = 0; k < block.size(); ++k)
    EXPECT_NEAR(via_fast[static_cast<std::size_t>(k)],
                via_dense[static_cast<std::size_t>(k)], 1e-12)
        << "coefficient " << k << " of " << param.block_shape.to_string();
}

TEST_P(FastVsDense, FastRoundTripIsIdentity) {
  const auto& param = GetParam();
  BlockTransform fast(param.kind, param.block_shape, TransformImpl::kAuto);
  Rng rng(107);
  NDArray<double> block = random_uniform(param.block_shape, rng, -4.0, 4.0);
  std::vector<double> data = block.vector();
  fast.forward(data.data());
  fast.inverse(data.data());
  for (index_t k = 0; k < block.size(); ++k)
    EXPECT_NEAR(data[static_cast<std::size_t>(k)], block[k], 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllDispatchedSizes, FastVsDense,
    ::testing::Values(
        // Every dispatched DCT size, exercised once as the contiguous last
        // axis (1-D) and once strided.
        KernelCase{TransformKind::kDCT, Shape{2}},
        KernelCase{TransformKind::kDCT, Shape{4}},
        KernelCase{TransformKind::kDCT, Shape{8}},
        KernelCase{TransformKind::kDCT, Shape{16}},
        KernelCase{TransformKind::kDCT, Shape{32}},
        KernelCase{TransformKind::kDCT, Shape{64}},
        KernelCase{TransformKind::kDCT, Shape{128}},
        KernelCase{TransformKind::kDCT, Shape{2, 2}},
        KernelCase{TransformKind::kDCT, Shape{4, 4}},
        KernelCase{TransformKind::kDCT, Shape{8, 8}},
        KernelCase{TransformKind::kDCT, Shape{16, 16}},
        KernelCase{TransformKind::kDCT, Shape{32, 32}},
        KernelCase{TransformKind::kDCT, Shape{64, 8}},
        KernelCase{TransformKind::kDCT, Shape{4, 64}},
        KernelCase{TransformKind::kDCT, Shape{128, 4}},
        KernelCase{TransformKind::kDCT, Shape{2, 128}},
        KernelCase{TransformKind::kDCT, Shape{8, 8, 8}},
        KernelCase{TransformKind::kDCT, Shape{4, 8, 16}},
        KernelCase{TransformKind::kDCT, Shape{32, 4, 2}},
        KernelCase{TransformKind::kDCT, Shape{1, 8, 1}},
        KernelCase{TransformKind::kDCT, Shape{2, 2, 2, 2}},
        KernelCase{TransformKind::kHaar, Shape{2}},
        KernelCase{TransformKind::kHaar, Shape{4}},
        KernelCase{TransformKind::kHaar, Shape{8}},
        KernelCase{TransformKind::kHaar, Shape{16}},
        KernelCase{TransformKind::kHaar, Shape{32}},
        KernelCase{TransformKind::kHaar, Shape{64}},
        KernelCase{TransformKind::kHaar, Shape{8, 8}},
        KernelCase{TransformKind::kHaar, Shape{16, 32}},
        KernelCase{TransformKind::kHaar, Shape{8, 8, 8}},
        KernelCase{TransformKind::kHaar, Shape{4, 16, 8}}));

/// Block shapes mixing a dense-fallback axis (non-power-of-two, so only the
/// DCT can produce one) with fast axes: the only configuration exercising
/// the swap/no-swap buffer tracking in BlockTransform::apply, where a dense
/// axis ping-pongs into scratch and a subsequent fast axis transforms it in
/// place.
TEST(MixedFastAndDenseAxes, MatchDenseOracle) {
  Rng rng(137);
  for (const Shape& shape :
       {Shape{3, 8}, Shape{8, 3}, Shape{5, 8, 4}, Shape{4, 3, 8}}) {
    BlockTransform fast(TransformKind::kDCT, shape, TransformImpl::kAuto);
    BlockTransform dense(TransformKind::kDCT, shape, TransformImpl::kDense);
    NDArray<double> block = random_normal(shape, rng);
    for (bool forward : {true, false}) {
      std::vector<double> via_fast = block.vector();
      std::vector<double> via_dense = block.vector();
      forward ? fast.forward(via_fast.data()) : fast.inverse(via_fast.data());
      forward ? dense.forward(via_dense.data())
              : dense.inverse(via_dense.data());
      for (index_t k = 0; k < block.size(); ++k)
        EXPECT_NEAR(via_fast[static_cast<std::size_t>(k)],
                    via_dense[static_cast<std::size_t>(k)], 1e-12)
            << shape.to_string() << " forward=" << forward << " coeff " << k;
    }
    std::vector<double> roundtrip = block.vector();
    fast.forward(roundtrip.data());
    fast.inverse(roundtrip.data());
    for (index_t k = 0; k < block.size(); ++k)
      EXPECT_NEAR(roundtrip[static_cast<std::size_t>(k)], block[k], 1e-12)
          << shape.to_string() << " roundtrip " << k;
  }
}

/// Every supported (kind, n) exercised directly at the kernel level (the
/// BlockTransform tests above only cover sizes kAuto actually dispatches),
/// against a straightforward dense contraction, for a contiguous and a
/// strided inner extent.
TEST(FastKernelAxis, MatchesDenseContractionForAllSupportedSizes) {
  Rng rng(131);
  for (TransformKind kind : {TransformKind::kDCT, TransformKind::kHaar}) {
    for (index_t n : {index_t{2}, index_t{4}, index_t{8}, index_t{16},
                      index_t{32}, index_t{64}, index_t{128}}) {
      ASSERT_TRUE(kernels::fast_axis_supported(kind, n));
      const auto h = kind == TransformKind::kDCT
                         ? dct_matrix(static_cast<int>(n))
                         : haar_matrix(static_cast<int>(n));
      for (index_t inner : {index_t{1}, index_t{3}}) {
        const index_t outer = 2;
        NDArray<double> noise = random_normal(Shape{outer * n * inner}, rng);
        for (bool forward : {true, false}) {
          std::vector<double> data = noise.vector();
          std::vector<double> tmp(static_cast<std::size_t>(n * inner));
          kernels::fast_transform_axis(kind, data.data(), tmp.data(), n, outer,
                                       inner, forward);
          for (index_t o = 0; o < outer; ++o) {
            for (index_t i = 0; i < inner; ++i) {
              for (index_t k2 = 0; k2 < n; ++k2) {
                double expected = 0.0;
                for (index_t k = 0; k < n; ++k) {
                  const double w =
                      forward ? h[static_cast<std::size_t>(k * n + k2)]
                              : h[static_cast<std::size_t>(k2 * n + k)];
                  expected += w * noise[(o * n + k) * inner + i];
                }
                EXPECT_NEAR(data[static_cast<std::size_t>((o * n + k2) * inner + i)],
                            expected, 1e-12)
                    << name(kind) << " n=" << n << " inner=" << inner
                    << " forward=" << forward << " (o,i,k2)=(" << o << "," << i
                    << "," << k2 << ")";
              }
            }
          }
        }
      }
    }
  }
}

TEST(FastAxisSupported, MatchesDocumentedSizes) {
  EXPECT_TRUE(kernels::fast_axis_supported(TransformKind::kDCT, 1));
  EXPECT_TRUE(kernels::fast_axis_supported(TransformKind::kDCT, 32));
  EXPECT_TRUE(kernels::fast_axis_supported(TransformKind::kDCT, 64));
  EXPECT_TRUE(kernels::fast_axis_supported(TransformKind::kDCT, 128));
  EXPECT_FALSE(kernels::fast_axis_supported(TransformKind::kDCT, 256));
  EXPECT_FALSE(kernels::fast_axis_supported(TransformKind::kDCT, 3));
  EXPECT_TRUE(kernels::fast_axis_supported(TransformKind::kHaar, 64));
  EXPECT_FALSE(kernels::fast_axis_supported(TransformKind::kHaar, 6));
}

TEST(FastAxisPreferred, FixedPolicyMatchesDocumentedHeuristic) {
  for (index_t n : {1, 2, 4, 8, 16, 32, 64, 128})
    EXPECT_TRUE(kernels::fast_axis_preferred(TransformKind::kDCT, n)) << n;
  EXPECT_FALSE(kernels::fast_axis_preferred(TransformKind::kDCT, 256));
  EXPECT_FALSE(kernels::fast_axis_preferred(TransformKind::kDCT, 3));
  EXPECT_TRUE(kernels::fast_axis_preferred(TransformKind::kHaar, 1));
  EXPECT_TRUE(kernels::fast_axis_preferred(TransformKind::kHaar, 8));
  EXPECT_TRUE(kernels::fast_axis_preferred(TransformKind::kHaar, 64));
  EXPECT_FALSE(kernels::fast_axis_preferred(TransformKind::kHaar, 2));
  EXPECT_FALSE(kernels::fast_axis_preferred(TransformKind::kHaar, 4));
}

// ------------------------------------------- fused pipeline vs unfused seed

/// The seed's unfused compress: block, then quantize the whole blocked
/// buffer, then transform, then a scalar find-max/bin loop — each step a
/// separate pass, using only pre-kernel-layer building blocks.
CompressedArray unfused_compress(const NDArray<double>& array,
                                 const CompressorSettings& settings) {
  const PruningMask mask = settings.effective_mask();
  const auto& kept_offsets = mask.kept_offsets();
  const index_t kept = mask.kept_count();
  const double r = static_cast<double>(arithmetic_radius(settings.index_type));

  Blocked blocked = block_array(array, settings.block_shape);
  const index_t num_blocks = blocked.num_blocks();
  const index_t block_volume = blocked.block_volume();

  for (double& v : blocked.data) v = quantize(v, settings.float_type);

  BlockTransform transform(settings.transform, settings.block_shape,
                           settings.transform_impl);
  for (index_t kb = 0; kb < num_blocks; ++kb)
    transform.forward(blocked.block(kb));

  CompressedArray out;
  out.shape = array.shape();
  out.block_shape = settings.block_shape;
  out.float_type = settings.float_type;
  out.index_type = settings.index_type;
  out.transform = settings.transform;
  out.mask = mask;
  out.biggest.resize(static_cast<std::size_t>(num_blocks));
  out.indices = BinIndices(settings.index_type,
                           static_cast<std::size_t>(num_blocks * kept));
  for (index_t kb = 0; kb < num_blocks; ++kb) {
    const double* coeffs = blocked.block(kb);
    double biggest = 0.0;
    for (index_t j = 0; j < block_volume; ++j)
      biggest = std::max(biggest, std::fabs(coeffs[j]));
    biggest = quantize(biggest, settings.float_type);
    out.biggest[static_cast<std::size_t>(kb)] = biggest;
    // Same association as the kernels (c * inv, not (c * r) / biggest): the
    // two differ by an ulp that can cross a rounding boundary.
    const double inv = biggest == 0.0 ? 0.0 : r / biggest;
    for (index_t slot = 0; slot < kept; ++slot) {
      const double c = coeffs[kept_offsets[static_cast<std::size_t>(slot)]];
      const double scaled =
          biggest == 0.0 ? 0.0 : std::clamp(std::round(c * inv), -r, r);
      out.indices.set(static_cast<std::size_t>(kb * kept + slot),
                      static_cast<std::int64_t>(scaled));
    }
  }
  return out;
}

/// The seed's unfused decompress: unbin into a blocked buffer, inverse
/// transform, quantize the whole buffer, then unblock (crop).
NDArray<double> unfused_decompress(const CompressedArray& array,
                                   const CompressorSettings& settings) {
  const auto& kept_offsets = array.mask.kept_offsets();
  const index_t kept = array.kept_per_block();
  const double r = static_cast<double>(array.radius());

  Blocked blocked;
  blocked.array_shape = array.shape;
  blocked.block_shape = array.block_shape;
  blocked.block_grid = array.block_grid();
  blocked.data.assign(
      static_cast<std::size_t>(blocked.num_blocks() * blocked.block_volume()),
      0.0);

  BlockTransform transform(array.transform, array.block_shape,
                           settings.transform_impl);
  for (index_t kb = 0; kb < blocked.num_blocks(); ++kb) {
    double* coeffs = blocked.block(kb);
    const double scale = array.biggest[static_cast<std::size_t>(kb)] / r;
    for (index_t slot = 0; slot < kept; ++slot)
      coeffs[kept_offsets[static_cast<std::size_t>(slot)]] =
          scale * static_cast<double>(
                      array.indices.get(static_cast<std::size_t>(kb * kept + slot)));
    transform.inverse(coeffs);
  }
  for (double& v : blocked.data) v = quantize(v, settings.float_type);
  return unblock_array(blocked);
}

struct FusedCase {
  Shape array_shape;
  CompressorSettings settings;
};

class FusedVsUnfused : public ::testing::TestWithParam<FusedCase> {};

TEST_P(FusedVsUnfused, CompressIsBitIdentical) {
  const auto& param = GetParam();
  Rng rng(211);
  NDArray<double> array = random_smooth(param.array_shape, rng, 5);

  Compressor compressor(param.settings);
  const CompressedArray fused = compressor.compress(array);
  const CompressedArray unfused = unfused_compress(array, param.settings);

  ASSERT_EQ(fused.biggest.size(), unfused.biggest.size());
  for (std::size_t kb = 0; kb < fused.biggest.size(); ++kb)
    EXPECT_EQ(fused.biggest[kb], unfused.biggest[kb]) << "block " << kb;
  EXPECT_TRUE(fused.indices == unfused.indices);
}

TEST_P(FusedVsUnfused, DecompressIsBitIdentical) {
  const auto& param = GetParam();
  Rng rng(223);
  NDArray<double> array = random_smooth(param.array_shape, rng, 5);

  Compressor compressor(param.settings);
  const CompressedArray compressed = compressor.compress(array);
  const NDArray<double> fused = compressor.decompress(compressed);
  const NDArray<double> unfused = unfused_decompress(compressed, param.settings);

  ASSERT_EQ(fused.shape(), unfused.shape());
  for (index_t k = 0; k < fused.size(); ++k)
    EXPECT_EQ(fused[k], unfused[k]) << "element " << k;
}

CompressorSettings make_settings(Shape block, FloatType ft, IndexType it,
                                 TransformKind kind, TransformImpl impl,
                                 double keep_fraction = 1.0) {
  CompressorSettings s;
  s.block_shape = block;
  s.float_type = ft;
  s.index_type = it;
  s.transform = kind;
  s.transform_impl = impl;
  if (keep_fraction < 1.0)
    s.mask = PruningMask::keep_fraction(block, keep_fraction);
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndSettings, FusedVsUnfused,
    ::testing::Values(
        // Divisible shape, fast transform path.
        FusedCase{Shape{32, 32},
                  make_settings(Shape{8, 8}, FloatType::kFloat32,
                                IndexType::kInt8, TransformKind::kDCT,
                                TransformImpl::kAuto)},
        // Divisible shape, dense path (oracle impl for the same flow).
        FusedCase{Shape{32, 32},
                  make_settings(Shape{8, 8}, FloatType::kFloat32,
                                IndexType::kInt8, TransformKind::kDCT,
                                TransformImpl::kDense)},
        // Ragged (non-multiple) edges in every direction.
        FusedCase{Shape{13, 10},
                  make_settings(Shape{8, 8}, FloatType::kFloat32,
                                IndexType::kInt8, TransformKind::kDCT,
                                TransformImpl::kAuto)},
        FusedCase{Shape{9, 7, 5},
                  make_settings(Shape{4, 4, 4}, FloatType::kFloat32,
                                IndexType::kInt16, TransformKind::kDCT,
                                TransformImpl::kAuto)},
        FusedCase{Shape{9, 7, 5},
                  make_settings(Shape{4, 4, 4}, FloatType::kFloat32,
                                IndexType::kInt16, TransformKind::kDCT,
                                TransformImpl::kDense)},
        // A block larger than the array (all edges ragged).
        FusedCase{Shape{5, 3},
                  make_settings(Shape{8, 8}, FloatType::kFloat32,
                                IndexType::kInt8, TransformKind::kDCT,
                                TransformImpl::kAuto)},
        // Haar, 16-bit float storage, pruning.
        FusedCase{Shape{20, 17},
                  make_settings(Shape{8, 8}, FloatType::kBFloat16,
                                IndexType::kInt8, TransformKind::kHaar,
                                TransformImpl::kAuto, 0.25)},
        FusedCase{Shape{16, 16},
                  make_settings(Shape{4, 4}, FloatType::kFloat16,
                                IndexType::kInt16, TransformKind::kDCT,
                                TransformImpl::kAuto, 0.5)},
        // float64 storage (no quantization) with pruning.
        FusedCase{Shape{24, 11},
                  make_settings(Shape{8, 4}, FloatType::kFloat64,
                                IndexType::kInt32, TransformKind::kDCT,
                                TransformImpl::kAuto, 0.75)}));

// ------------------------------------------------- rebin kernels vs scalars

TEST(RebinKernels, MatchScalarDefinitions) {
  Rng rng(307);
  const index_t count = 192;
  NDArray<double> noise = random_normal(Shape{count}, rng, 0.0, 3.0);
  std::vector<double> coeffs = noise.vector();
  // Exercise the clamp: plant values beyond the radius scale.
  coeffs[7] = 100.0;
  coeffs[11] = -100.0;

  const double r = 127.0;
  std::vector<std::int8_t> bins(static_cast<std::size_t>(count));
  const double biggest = kernels::rebin_block(
      coeffs.data(), count, r, FloatType::kFloat32, bins.data());

  double expected_biggest = 0.0;
  for (double c : coeffs) expected_biggest = std::max(expected_biggest, std::fabs(c));
  expected_biggest = quantize(expected_biggest, FloatType::kFloat32);
  EXPECT_EQ(biggest, expected_biggest);
  const double inv = r / biggest;  // Same association as the kernel.
  for (index_t j = 0; j < count; ++j) {
    const double scaled =
        std::clamp(std::round(coeffs[static_cast<std::size_t>(j)] * inv), -r, r);
    EXPECT_EQ(static_cast<double>(bins[static_cast<std::size_t>(j)]), scaled)
        << "slot " << j;
  }

  // Decode: c[j] = scale * f[j], exactly.
  std::vector<double> decoded(static_cast<std::size_t>(count));
  kernels::unbin_block(bins.data(), count, biggest / r, decoded.data());
  for (index_t j = 0; j < count; ++j)
    EXPECT_EQ(decoded[static_cast<std::size_t>(j)],
              (biggest / r) * static_cast<double>(bins[static_cast<std::size_t>(j)]));
}

TEST(RebinKernels, ZeroBlockYieldsZeroBinsAndZeroBiggest) {
  std::vector<double> coeffs(64, 0.0);
  std::vector<std::int8_t> bins(64, 99);
  const double biggest = kernels::rebin_block(coeffs.data(), 64, 127.0,
                                              FloatType::kFloat32, bins.data());
  EXPECT_EQ(biggest, 0.0);
  for (auto b : bins) EXPECT_EQ(b, 0);
}

TEST(RebinKernels, DecodeAxpbyMatchesScalarDefinition) {
  Rng rng(311);
  const index_t count = 64;
  std::vector<std::int8_t> f1(static_cast<std::size_t>(count));
  std::vector<std::int16_t> f2(static_cast<std::size_t>(count));
  for (index_t j = 0; j < count; ++j) {
    f1[static_cast<std::size_t>(j)] = static_cast<std::int8_t>(j - 32);
    f2[static_cast<std::size_t>(j)] = static_cast<std::int16_t>(3 * j - 90);
  }
  const double s1 = 0.031, s2 = -0.007;
  std::vector<double> out(static_cast<std::size_t>(count));
  kernels::decode_axpby(f1.data(), s1, f2.data(), s2, count, out.data());
  for (index_t j = 0; j < count; ++j)
    EXPECT_EQ(out[static_cast<std::size_t>(j)],
              s1 * static_cast<double>(f1[static_cast<std::size_t>(j)]) +
                  s2 * static_cast<double>(f2[static_cast<std::size_t>(j)]));
}

TEST(RebinKernels, QuantizeBlockMatchesElementwiseQuantize) {
  Rng rng(313);
  NDArray<double> noise = random_normal(Shape{97}, rng, 0.0, 10.0);
  for (FloatType ft : kAllFloatTypes) {
    std::vector<double> fused = noise.vector();
    kernels::quantize_block(fused.data(), noise.size(), ft);
    for (index_t j = 0; j < noise.size(); ++j)
      EXPECT_EQ(fused[static_cast<std::size_t>(j)], quantize(noise[j], ft))
          << name(ft) << " element " << j;
  }
}

// ------------------------------------------ streaming add_scalar equivalence

TEST(AddScalarStreaming, MatchesWholeArrayCoefficientPath) {
  Rng rng(401);
  NDArray<double> array = random_smooth(Shape{19, 26}, rng, 4);
  Compressor compressor(make_settings(Shape{8, 8}, FloatType::kFloat32,
                                      IndexType::kInt8, TransformKind::kDCT,
                                      TransformImpl::kAuto, 0.5));
  const CompressedArray a = compressor.compress(array);

  const double x = 1.375;
  const CompressedArray streamed = ops::add_scalar(a, x);

  // Independent scalar oracle (no kernels:: calls, so a kernel regression
  // cannot cancel out of both sides): materialize all specified coefficients,
  // shift every DC, rebin the whole buffer with inline seed-style loops.
  const index_t num_blocks = a.num_blocks();
  const index_t kept = a.kept_per_block();
  const double r = static_cast<double>(a.radius());
  std::vector<double> coefficients(static_cast<std::size_t>(num_blocks * kept));
  for (index_t kb = 0; kb < num_blocks; ++kb) {
    const double scale = a.biggest[static_cast<std::size_t>(kb)] / r;
    for (index_t slot = 0; slot < kept; ++slot)
      coefficients[static_cast<std::size_t>(kb * kept + slot)] =
          scale * static_cast<double>(
                      a.indices.get(static_cast<std::size_t>(kb * kept + slot)));
  }
  const double shift = x * std::sqrt(static_cast<double>(a.block_shape.volume()));
  for (index_t kb = 0; kb < num_blocks; ++kb)
    coefficients[static_cast<std::size_t>(kb * kept)] += shift;
  CompressedArray expected = a;
  expected.indices = BinIndices(a.index_type, a.indices.size());
  for (index_t kb = 0; kb < num_blocks; ++kb) {
    double biggest = 0.0;
    for (index_t slot = 0; slot < kept; ++slot)
      biggest = std::max(
          biggest,
          std::fabs(coefficients[static_cast<std::size_t>(kb * kept + slot)]));
    biggest = quantize(biggest, a.float_type);
    expected.biggest[static_cast<std::size_t>(kb)] = biggest;
    const double inv = biggest == 0.0 ? 0.0 : r / biggest;
    for (index_t slot = 0; slot < kept; ++slot) {
      const double c = coefficients[static_cast<std::size_t>(kb * kept + slot)];
      const double scaled =
          biggest == 0.0 ? 0.0 : std::clamp(std::round(c * inv), -r, r);
      expected.indices.set(static_cast<std::size_t>(kb * kept + slot),
                           static_cast<std::int64_t>(scaled));
    }
  }

  for (std::size_t kb = 0; kb < expected.biggest.size(); ++kb)
    EXPECT_EQ(streamed.biggest[kb], expected.biggest[kb]) << "block " << kb;
  EXPECT_TRUE(streamed.indices == expected.indices);
}

}  // namespace
}  // namespace pyblaz
