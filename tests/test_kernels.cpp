/// Kernel-layer equivalence tests: the factorized fast transforms must agree
/// with the dense matrix path (the oracle) to <= 1e-12, the fused
/// gather/quantize/transform/rebin compressor pipeline must be bit-identical
/// to an unfused reimplementation of the seed's step-by-step flow, and the
/// shared rebin/unbin kernels must match their scalar definitions exactly:
/// a whole row, which runs the compiler-vectorized loop body, must equal
/// the same kernel applied one element at a time.  The results of
/// ops::lincomb and ops::lincomb_batch must equal an inline restatement of
/// their decode and rebin that calls no kernel.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <numeric>
#include <random>
#include <span>
#include <string>
#include <utility>
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
#include "core/parallel/thread_pool.hpp"
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

// ------------------------------------ vectorized rows vs per-element results
//
// The compiler vectorizes the rebin kernels' loop bodies; a call of count 1
// runs none of that vector code.  So every whole-row call must equal the
// same kernel applied one element at a time, bit for bit, at lengths around
// every vector width, with adversarial inputs: NaN, inf, exact half-bin
// boundaries, denormals and clamp overshoots.

/// Bitwise double equality (NaN payloads included): the contract is bit
/// identity, not numeric closeness.
::testing::AssertionResult BitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b))
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bits " << std::hex
         << std::bit_cast<std::uint64_t>(a) << " vs "
         << std::bit_cast<std::uint64_t>(b) << ")";
}

/// Coefficient-like doubles with adversarial structure: smooth values, exact
/// half-bin boundaries, clamp overshoots, signed zeros, denormals, huge
/// magnitudes, and (when @p with_nan) NaN/inf.
std::vector<double> adversarial_doubles(index_t count, std::uint64_t seed,
                                        bool with_nan) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(-3.0, 3.0);
  std::vector<double> out(static_cast<std::size_t>(count));
  for (index_t j = 0; j < count; ++j) {
    switch (rng() % 8) {
      case 0:
        out[j] = uniform(rng);
        break;
      case 1:  // Exact half-away rounding boundary.
        out[j] = (static_cast<double>(rng() % 201) - 100.0) + 0.5;
        break;
      case 2:  // Clamp overshoot.
        out[j] = (rng() % 2 ? 1.0 : -1.0) * (300.0 + uniform(rng));
        break;
      case 3:
        out[j] = rng() % 2 ? 0.0 : -0.0;
        break;
      case 4:
        out[j] = uniform(rng) * 1e-300;
        break;
      case 5:
        out[j] = uniform(rng) * 1e12;
        break;
      case 6:
        out[j] = with_nan && (rng() % 4 == 0)
                     ? std::numeric_limits<double>::quiet_NaN()
                     : uniform(rng);
        break;
      default:
        out[j] = with_nan && (rng() % 4 == 0)
                     ? (rng() % 2 ? 1.0 : -1.0) *
                           std::numeric_limits<double>::infinity()
                     : uniform(rng);
        break;
    }
  }
  return out;
}

/// Odd lengths around the vector widths so every tail path runs.
const index_t kCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 64, 67, 256, 261};

TEST(RebinKernels, MaxAbsWholeRowMatchesPerElementFold) {
  for (index_t count : kCounts) {
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
      const std::vector<double> c =
          adversarial_doubles(count, 1000 + seed, /*with_nan=*/seed % 2 == 1);
      // std::max drops a NaN |c_j|: the fold keeps the running maximum.
      double folded = 0.0;
      for (index_t j = 0; j < count; ++j)
        folded = std::max(folded, kernels::max_abs(&c[j], 1));
      EXPECT_TRUE(BitEqual(kernels::max_abs(c.data(), count), folded))
          << "count " << count << " seed " << seed;
    }
  }
}

template <typename BinT>
void check_rebin_family() {
  const double radii[] = {
      1.0, 100.0,
      std::min(static_cast<double>(std::numeric_limits<BinT>::max()), 0x1p53)};
  for (index_t count : kCounts) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const std::vector<double> c =
          adversarial_doubles(count, 7000 + seed, /*with_nan=*/seed == 3);
      const double biggest = kernels::max_abs(c.data(), count);
      for (double r : radii) {
        // quantize_bins: inv chosen like the codec does (r / biggest).
        const double inv = biggest > 0.0 ? r / biggest : 1.0;
        std::vector<BinT> bins(static_cast<std::size_t>(count));
        kernels::quantize_bins(c.data(), bins.data(), count, inv, r);
        for (index_t j = 0; j < count; ++j) {
          BinT one{};
          kernels::quantize_bins(&c[j], &one, 1, inv, r);
          ASSERT_EQ(bins[j], one)
              << "quantize count " << count << " r " << r << " j " << j;
          // The definition, where the cast is defined (not NaN).
          const double scaled = c[j] * inv;
          if (!std::isnan(scaled)) {
            ASSERT_EQ(static_cast<double>(one),
                      std::clamp(std::round(scaled), -r, r))
                << "definition count " << count << " r " << r << " j " << j;
          }
        }

        // unbin_block on those bins.
        std::vector<double> back(static_cast<std::size_t>(count));
        const double scale = biggest > 0.0 ? biggest / r : 0.25;
        kernels::unbin_block(bins.data(), count, scale, back.data());
        for (index_t j = 0; j < count; ++j) {
          double one = 0.0;
          kernels::unbin_block(&bins[j], 1, scale, &one);
          ASSERT_TRUE(BitEqual(back[j], one))
              << "unbin count " << count << " j " << j;
        }

        // rebin_block: max, round the max through float32, quantize.
        std::vector<BinT> rebinned(static_cast<std::size_t>(count));
        const double stored = kernels::rebin_block(
            c.data(), count, r, FloatType::kFloat32, rebinned.data());
        ASSERT_TRUE(BitEqual(stored, quantize(biggest, FloatType::kFloat32)));
        for (index_t j = 0; j < count; ++j) {
          BinT one{};
          if (stored != 0.0)
            kernels::quantize_bins(&c[j], &one, 1, r / stored, r);
          ASSERT_EQ(rebinned[j], one)
              << "rebin count " << count << " r " << r << " j " << j;
        }
      }
    }
  }
  // All-zero block: the zero-fill path.
  std::vector<double> zeros(9, 0.0);
  std::vector<BinT> bins_out(9, BinT{42});
  const double biggest = kernels::rebin_block(zeros.data(), 9, 100.0,
                                              FloatType::kFloat32,
                                              bins_out.data());
  EXPECT_EQ(biggest, 0.0);
  for (BinT b : bins_out) EXPECT_EQ(b, BinT{0});
}

TEST(RebinKernels, RebinFamilyWholeRowMatchesPerElementInt8) {
  check_rebin_family<std::int8_t>();
}
TEST(RebinKernels, RebinFamilyWholeRowMatchesPerElementInt16) {
  check_rebin_family<std::int16_t>();
}
TEST(RebinKernels, RebinFamilyWholeRowMatchesPerElementInt32) {
  check_rebin_family<std::int32_t>();
}
TEST(RebinKernels, RebinFamilyWholeRowMatchesPerElementInt64) {
  check_rebin_family<std::int64_t>();
}

/// @p operands random bin rows of @p count values in [-bound, bound].
template <typename BinT>
std::vector<std::vector<BinT>> random_bin_rows(index_t operands, index_t count,
                                               std::int64_t bound,
                                               std::mt19937_64& rng) {
  std::vector<std::vector<BinT>> rows(static_cast<std::size_t>(operands));
  for (auto& row : rows) {
    row.resize(static_cast<std::size_t>(count));
    for (auto& b : row)
      b = static_cast<BinT>(static_cast<std::int64_t>(rng()) % (bound + 1));
  }
  return rows;
}

/// decode_lincomb at 1..7 operands: the whole row against the same call
/// made one element at a time.
template <typename BinT>
void check_decode_lincomb() {
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> weight(-2.0, 2.0);
  for (index_t count : kCounts) {
    for (index_t operands = 1; operands <= 7; ++operands) {
      const auto rows = random_bin_rows<BinT>(operands, count, 127, rng);
      std::vector<const BinT*> row_ptrs;
      std::vector<double> scales;
      for (const auto& row : rows) {
        row_ptrs.push_back(row.data());
        scales.push_back(weight(rng));
      }
      std::vector<double> out(static_cast<std::size_t>(count));
      kernels::decode_lincomb(row_ptrs.data(), scales.data(), operands, count,
                              out.data());
      for (index_t j = 0; j < count; ++j) {
        std::vector<const BinT*> element_ptrs;
        for (const auto& row : rows) element_ptrs.push_back(&row[j]);
        double one = 0.0;
        kernels::decode_lincomb(element_ptrs.data(), scales.data(), operands, 1,
                                &one);
        ASSERT_TRUE(BitEqual(out[j], one))
            << "operands " << operands << " count " << count << " j " << j;
      }
    }
  }
}

TEST(RebinKernels, DecodeLincombWholeRowMatchesPerElementInt8) {
  check_decode_lincomb<std::int8_t>();
}
TEST(RebinKernels, DecodeLincombWholeRowMatchesPerElementInt16) {
  check_decode_lincomb<std::int16_t>();
}
TEST(RebinKernels, DecodeLincombWholeRowMatchesPerElementInt32) {
  check_decode_lincomb<std::int32_t>();
}
TEST(RebinKernels, DecodeLincombWholeRowMatchesPerElementInt64) {
  check_decode_lincomb<std::int64_t>();
}

/// decode_lincomb_multi against decode_lincomb run on each output's own term
/// list.  "shared" output k reads rows {0, 1, 2, 3 + k} (odd k repeat row 0,
/// so even and odd arities both occur); "disjoint" output k reads k + 1 rows
/// no other output touches.
template <typename BinT>
void check_decode_lincomb_multi() {
  std::mt19937_64 rng(5151);
  std::uniform_real_distribution<double> weight(-2.0, 2.0);
  const std::int64_t bound = std::min<std::int64_t>(
      std::numeric_limits<BinT>::max(), std::numeric_limits<std::int32_t>::max());
  for (index_t count : kCounts) {
    for (index_t outputs : {1, 2, 4}) {
      for (bool shared : {true, false}) {
        std::vector<index_t> term_rows;
        std::vector<index_t> offsets = {0};
        index_t num_rows = shared ? 3 + outputs : 0;
        for (index_t k = 0; k < outputs; ++k) {
          if (shared) {
            term_rows.insert(term_rows.end(), {0, 1, 2, 3 + k});
            if (k % 2 == 1) term_rows.push_back(0);
          } else {
            for (index_t i = 0; i <= k; ++i) term_rows.push_back(num_rows++);
          }
          offsets.push_back(static_cast<index_t>(term_rows.size()));
        }
        const auto rows = random_bin_rows<BinT>(num_rows, count, bound, rng);
        std::vector<const BinT*> row_ptrs;
        for (const auto& row : rows) row_ptrs.push_back(row.data());
        std::vector<double> scales(term_rows.size());
        for (double& scale : scales) scale = weight(rng);
        std::vector<double> decoded(static_cast<std::size_t>(num_rows * count));
        std::vector<std::vector<double>> outs(
            static_cast<std::size_t>(outputs),
            std::vector<double>(static_cast<std::size_t>(count)));
        std::vector<double*> out_ptrs;
        for (auto& out : outs) out_ptrs.push_back(out.data());
        kernels::decode_lincomb_multi(
            row_ptrs.data(), num_rows, scales.data(), term_rows.data(),
            offsets.data(), outputs, count, decoded.data(), out_ptrs.data());

        for (index_t k = 0; k < outputs; ++k) {
          std::vector<const BinT*> own_rows;
          std::vector<double> own_scales;
          for (index_t term = offsets[k]; term < offsets[k + 1]; ++term) {
            own_rows.push_back(row_ptrs[term_rows[term]]);
            own_scales.push_back(scales[term]);
          }
          std::vector<double> ref(static_cast<std::size_t>(count));
          kernels::decode_lincomb(own_rows.data(), own_scales.data(),
                                  static_cast<index_t>(own_rows.size()), count,
                                  ref.data());
          for (index_t j = 0; j < count; ++j)
            ASSERT_TRUE(BitEqual(outs[k][j], ref[j]))
                << (shared ? "shared" : "disjoint") << " outputs " << outputs
                << " output " << k << " count " << count << " j " << j;
        }
      }
    }
  }
}

TEST(RebinKernels, DecodeLincombMultiMatchesPerOutputDecodeLincombInt8) {
  check_decode_lincomb_multi<std::int8_t>();
}
TEST(RebinKernels, DecodeLincombMultiMatchesPerOutputDecodeLincombInt16) {
  check_decode_lincomb_multi<std::int16_t>();
}
TEST(RebinKernels, DecodeLincombMultiMatchesPerOutputDecodeLincombInt32) {
  check_decode_lincomb_multi<std::int32_t>();
}
TEST(RebinKernels, DecodeLincombMultiMatchesPerOutputDecodeLincombInt64) {
  check_decode_lincomb_multi<std::int64_t>();
}

/// Largest bin magnitude the codec stores for @p BinT: the radius, capped at
/// 2^53 so every bin converts to double exactly.
template <typename BinT>
std::int64_t bin_bound() {
  return std::min<std::int64_t>(std::numeric_limits<BinT>::max(),
                                std::int64_t{1} << 53);
}

/// @p kept distinct positions of a block of @p volume coefficients, in a
/// random order, so a gather or scatter over them is not monotonic.
std::vector<index_t> random_selection(index_t volume, index_t kept,
                                      std::mt19937_64& rng) {
  std::vector<index_t> offsets(static_cast<std::size_t>(volume));
  std::iota(offsets.begin(), offsets.end(), index_t{0});
  std::shuffle(offsets.begin(), offsets.end(), rng);
  offsets.resize(static_cast<std::size_t>(kept));
  return offsets;
}

/// quantize_bins_gather over a pruned selection: the whole selection must
/// equal per-slot calls and quantize_bins over the gathered row.
template <typename BinT>
void check_quantize_bins_gather() {
  std::mt19937_64 rng(6161);
  const double radii[] = {1.0, 100.0, static_cast<double>(bin_bound<BinT>())};
  for (index_t count : kCounts) {
    const index_t volume = 2 * count + 3;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const std::vector<double> c =
          adversarial_doubles(volume, 8000 + seed, /*with_nan=*/seed == 3);
      const std::vector<index_t> offsets = random_selection(volume, count, rng);
      std::vector<double> gathered(static_cast<std::size_t>(count));
      for (index_t slot = 0; slot < count; ++slot)
        gathered[slot] = c[offsets[slot]];
      const double biggest = kernels::max_abs(c.data(), volume);
      for (double r : radii) {
        const double inv = biggest > 0.0 ? r / biggest : 1.0;
        std::vector<BinT> bins(static_cast<std::size_t>(count));
        kernels::quantize_bins_gather(c.data(), offsets.data(), bins.data(),
                                      count, inv, r);
        std::vector<BinT> contiguous(static_cast<std::size_t>(count));
        kernels::quantize_bins(gathered.data(), contiguous.data(), count, inv,
                               r);
        ASSERT_EQ(bins, contiguous) << "count " << count << " r " << r;
        for (index_t slot = 0; slot < count; ++slot) {
          BinT one{};
          kernels::quantize_bins_gather(c.data(), &offsets[slot], &one, 1, inv,
                                        r);
          ASSERT_EQ(bins[slot], one)
              << "count " << count << " r " << r << " slot " << slot;
          const double scaled = gathered[slot] * inv;
          if (!std::isnan(scaled)) {
            ASSERT_EQ(static_cast<double>(one),
                      std::clamp(std::round(scaled), -r, r))
                << "definition count " << count << " r " << r << " slot "
                << slot;
          }
        }
      }
    }
  }
}

TEST(RebinKernels, QuantizeBinsGatherWholeRowMatchesPerElementInt8) {
  check_quantize_bins_gather<std::int8_t>();
}
TEST(RebinKernels, QuantizeBinsGatherWholeRowMatchesPerElementInt16) {
  check_quantize_bins_gather<std::int16_t>();
}
TEST(RebinKernels, QuantizeBinsGatherWholeRowMatchesPerElementInt32) {
  check_quantize_bins_gather<std::int32_t>();
}
TEST(RebinKernels, QuantizeBinsGatherWholeRowMatchesPerElementInt64) {
  check_quantize_bins_gather<std::int64_t>();
}

/// unbin_scatter over a pruned selection: the whole selection must equal
/// per-slot calls and unbin_block's contiguous row, and must leave every
/// pruned position as it was.
template <typename BinT>
void check_unbin_scatter() {
  std::mt19937_64 rng(6262);
  std::uniform_real_distribution<double> weight(-2.0, 2.0);
  const double untouched = -7.5;
  for (index_t count : kCounts) {
    const index_t volume = 2 * count + 3;
    const std::vector<index_t> offsets = random_selection(volume, count, rng);
    const std::vector<BinT> bins =
        random_bin_rows<BinT>(1, count, bin_bound<BinT>(), rng)[0];
    for (double scale : {weight(rng), 0.0, 0x1p-1000}) {
      std::vector<double> c(static_cast<std::size_t>(volume), untouched);
      kernels::unbin_scatter(bins.data(), offsets.data(), count, scale,
                             c.data());
      std::vector<double> one_by_one(static_cast<std::size_t>(volume),
                                     untouched);
      for (index_t slot = 0; slot < count; ++slot)
        kernels::unbin_scatter(&bins[slot], &offsets[slot], 1, scale,
                               one_by_one.data());
      std::vector<double> row(static_cast<std::size_t>(count));
      kernels::unbin_block(bins.data(), count, scale, row.data());
      std::vector<double> expected(static_cast<std::size_t>(volume),
                                   untouched);
      for (index_t slot = 0; slot < count; ++slot)
        expected[offsets[slot]] = row[slot];
      for (index_t p = 0; p < volume; ++p) {
        ASSERT_TRUE(BitEqual(c[p], one_by_one[p]))
            << "count " << count << " scale " << scale << " position " << p;
        ASSERT_TRUE(BitEqual(c[p], expected[p]))
            << "count " << count << " scale " << scale << " position " << p;
      }
    }
  }
}

TEST(RebinKernels, UnbinScatterWholeRowMatchesPerElementInt8) {
  check_unbin_scatter<std::int8_t>();
}
TEST(RebinKernels, UnbinScatterWholeRowMatchesPerElementInt16) {
  check_unbin_scatter<std::int16_t>();
}
TEST(RebinKernels, UnbinScatterWholeRowMatchesPerElementInt32) {
  check_unbin_scatter<std::int32_t>();
}
TEST(RebinKernels, UnbinScatterWholeRowMatchesPerElementInt64) {
  check_unbin_scatter<std::int64_t>();
}

/// The pairwise decode kernels decode_lincomb is built from: decode_axpby
/// (also with an int8 partner row, as the mixed-type signature allows),
/// decode_axpby_accumulate and decode_accumulate.  The accumulators start
/// from adversarial doubles, NaN and inf included.  Each whole row must
/// equal per-element calls and the written-out definition.
template <typename BinT>
void check_decode_axpby_family() {
  std::mt19937_64 rng(6363);
  std::uniform_real_distribution<double> weight(-2.0, 2.0);
  for (index_t count : kCounts) {
    const auto rows = random_bin_rows<BinT>(2, count, bin_bound<BinT>(), rng);
    const auto narrow = random_bin_rows<std::int8_t>(1, count, 127, rng)[0];
    const std::vector<BinT>& f1 = rows[0];
    const std::vector<BinT>& f2 = rows[1];
    const double s1 = weight(rng);
    const double s2 = weight(rng);
    const std::vector<double> start =
        adversarial_doubles(count, 9100 + static_cast<std::uint64_t>(count),
                            /*with_nan=*/true);

    std::vector<double> axpby(static_cast<std::size_t>(count));
    kernels::decode_axpby(f1.data(), s1, narrow.data(), s2, count,
                          axpby.data());
    std::vector<double> pair = start;
    kernels::decode_axpby_accumulate(f1.data(), s1, f2.data(), s2, count,
                                     pair.data());
    std::vector<double> single = start;
    kernels::decode_accumulate(f2.data(), s2, count, single.data());

    for (index_t j = 0; j < count; ++j) {
      const double a = s1 * static_cast<double>(f1[j]);
      const double b = s2 * static_cast<double>(f2[j]);
      double one = 0.0;
      kernels::decode_axpby(&f1[j], s1, &narrow[j], s2, 1, &one);
      ASSERT_TRUE(BitEqual(axpby[j], one))
          << "axpby count " << count << " j " << j;
      ASSERT_TRUE(BitEqual(one, a + s2 * static_cast<double>(narrow[j])))
          << "axpby definition count " << count << " j " << j;

      one = start[j];
      kernels::decode_axpby_accumulate(&f1[j], s1, &f2[j], s2, 1, &one);
      ASSERT_TRUE(BitEqual(pair[j], one))
          << "axpby_accumulate count " << count << " j " << j;
      ASSERT_TRUE(BitEqual(one, start[j] + (a + b)))
          << "axpby_accumulate definition count " << count << " j " << j;

      one = start[j];
      kernels::decode_accumulate(&f2[j], s2, 1, &one);
      ASSERT_TRUE(BitEqual(single[j], one))
          << "accumulate count " << count << " j " << j;
      ASSERT_TRUE(BitEqual(one, start[j] + b))
          << "accumulate definition count " << count << " j " << j;
    }
  }
}

TEST(RebinKernels, DecodeAxpbyFamilyWholeRowMatchesPerElementInt8) {
  check_decode_axpby_family<std::int8_t>();
}
TEST(RebinKernels, DecodeAxpbyFamilyWholeRowMatchesPerElementInt16) {
  check_decode_axpby_family<std::int16_t>();
}
TEST(RebinKernels, DecodeAxpbyFamilyWholeRowMatchesPerElementInt32) {
  check_decode_axpby_family<std::int32_t>();
}
TEST(RebinKernels, DecodeAxpbyFamilyWholeRowMatchesPerElementInt64) {
  check_decode_axpby_family<std::int64_t>();
}

/// Values at the edges of the storage types: ties at float32, float16 and
/// bfloat16 precision, the largest finite values and the first values past
/// them, and the smallest denormals with the ties just below them.
const double kFloatEdges[] = {
    1.0 + 0x1p-24,        1.0 + 3 * 0x1p-24, 1.0 + 0x1p-11,
    1.0 + 3 * 0x1p-11,    1.0 + 0x1p-8,      1.0 + 3 * 0x1p-8,
    65504.0,              65520.0,           -65536.0,
    0x1.fffffep+127,      0x1.ffffffp+127,   -1e39,
    0x1p-149,             0x1p-150,          -0x1p-24,
    0x1p-25,              0x1p-133,          -0.0};

/// quantize_block: the whole row must equal per-element calls and
/// quantize() itself, bit for bit, for adversarial rows seeded with
/// kFloatEdges.
void check_quantize_block(FloatType type) {
  const std::size_t num_edges = std::size(kFloatEdges);
  for (index_t count : kCounts) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      std::vector<double> x =
          adversarial_doubles(count, 9300 + seed, /*with_nan=*/seed % 2 == 1);
      for (index_t j = 0; j < count; j += 3)
        x[j] =
            kFloatEdges[(static_cast<std::size_t>(j) / 3 + seed) % num_edges];
      std::vector<double> row = x;
      kernels::quantize_block(row.data(), count, type);
      for (index_t j = 0; j < count; ++j) {
        double one = x[j];
        kernels::quantize_block(&one, 1, type);
        ASSERT_TRUE(BitEqual(row[j], one))
            << name(type) << " count " << count << " j " << j;
        ASSERT_TRUE(BitEqual(one, quantize(x[j], type)))
            << name(type) << " definition count " << count << " j " << j;
      }
    }
  }
}

TEST(RebinKernels, QuantizeBlockWholeRowMatchesPerElementBFloat16) {
  check_quantize_block(FloatType::kBFloat16);
}
TEST(RebinKernels, QuantizeBlockWholeRowMatchesPerElementFloat16) {
  check_quantize_block(FloatType::kFloat16);
}
TEST(RebinKernels, QuantizeBlockWholeRowMatchesPerElementFloat32) {
  check_quantize_block(FloatType::kFloat32);
}
TEST(RebinKernels, QuantizeBlockWholeRowMatchesPerElementFloat64) {
  check_quantize_block(FloatType::kFloat64);
}

/// rebin_block through one storage float type, for every bin type.  A 16-bit
/// type can round N_k below max |c_j|, so coefficients then scale past the
/// radius and must clamp; rows whose magnitudes exceed 1e4 are also rebinned
/// tamed into (-1000, 1000) so that float16 stores a finite N_k.
template <typename BinT>
void check_rebin_block_through(FloatType type) {
  const double radii[] = {1.0, 100.0, static_cast<double>(bin_bound<BinT>())};
  for (index_t count : kCounts) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const std::vector<double> raw =
          adversarial_doubles(count, 9700 + seed, /*with_nan=*/seed == 3);
      std::vector<double> tamed = raw;
      for (double& v : tamed)
        if (std::isfinite(v) && std::fabs(v) > 1e4) v = std::fmod(v, 1e3);
      const std::vector<double>* inputs[] = {&raw, &tamed};
      for (const std::vector<double>* c : inputs) {
        double folded = 0.0;
        for (double v : *c) folded = std::max(folded, std::fabs(v));
        for (double r : radii) {
          std::vector<BinT> bins(static_cast<std::size_t>(count));
          const double stored =
              kernels::rebin_block(c->data(), count, r, type, bins.data());
          ASSERT_TRUE(BitEqual(stored, quantize(folded, type)))
              << name(type) << " count " << count << " r " << r;
          const double inv = stored == 0.0 ? 0.0 : r / stored;
          for (index_t j = 0; j < count; ++j) {
            BinT one{};
            if (stored != 0.0)
              kernels::quantize_bins(&(*c)[j], &one, 1, inv, r);
            ASSERT_EQ(bins[j], one) << name(type) << " count " << count
                                    << " r " << r << " j " << j;
            const double scaled = (*c)[j] * inv;
            if (stored != 0.0 && !std::isnan(scaled)) {
              ASSERT_EQ(static_cast<double>(one),
                        std::clamp(std::round(scaled), -r, r))
                  << name(type) << " definition count " << count << " r "
                  << r << " j " << j;
            }
          }
        }
      }
    }
  }
}

void check_rebin_block_through_all_bins(FloatType type) {
  check_rebin_block_through<std::int8_t>(type);
  check_rebin_block_through<std::int16_t>(type);
  check_rebin_block_through<std::int32_t>(type);
  check_rebin_block_through<std::int64_t>(type);
}

TEST(RebinKernels, RebinBlockWholeRowMatchesDefinitionBFloat16) {
  check_rebin_block_through_all_bins(FloatType::kBFloat16);
}
TEST(RebinKernels, RebinBlockWholeRowMatchesDefinitionFloat16) {
  check_rebin_block_through_all_bins(FloatType::kFloat16);
}
TEST(RebinKernels, RebinBlockWholeRowMatchesDefinitionFloat32) {
  check_rebin_block_through_all_bins(FloatType::kFloat32);
}
TEST(RebinKernels, RebinBlockWholeRowMatchesDefinitionFloat64) {
  check_rebin_block_through_all_bins(FloatType::kFloat64);
}

// ------------------------------------------ op results vs inline definitions
//
// ops::lincomb and ops::lincomb_batch run the vectorized decode and rebin
// kernels on every block.  The oracle below restates the per-block decode
// (in decode_lincomb's per-element association), the DC bias shift and the
// terminal rebin as plain loops that call no kernels:: function, so a kernel
// regression cannot cancel out of both sides.

/// The expected (N_k, F_k) of Σ_i weights[i] * operands[i] + bias.
CompressedArray lincomb_oracle(
    const std::vector<const CompressedArray*>& operands,
    const std::vector<double>& weights, double bias) {
  const CompressedArray& first = *operands[0];
  const std::size_t n = operands.size();
  const index_t kept = first.kept_per_block();
  const double r = static_cast<double>(first.radius());
  const double bias_shift =
      bias * std::sqrt(static_cast<double>(first.block_shape.volume()));
  CompressedArray expected = first;
  expected.indices = BinIndices(first.index_type, first.indices.size());
  std::vector<double> scales(n);
  std::vector<double> coeffs(static_cast<std::size_t>(kept));
  for (index_t kb = 0; kb < first.num_blocks(); ++kb) {
    const auto k = static_cast<std::size_t>(kb);
    for (std::size_t i = 0; i < n; ++i)
      scales[i] = weights[i] * operands[i]->biggest[k] / r;
    for (index_t slot = 0; slot < kept; ++slot) {
      const auto at = static_cast<std::size_t>(kb * kept + slot);
      auto term = [&](std::size_t i) {
        return scales[i] * static_cast<double>(operands[i]->indices.get(at));
      };
      // First pair, then pair sums accumulated, then the odd tail alone.
      double c = n >= 2 ? term(0) + term(1) : term(0);
      std::size_t i = n >= 2 ? 2 : 1;
      for (; i + 1 < n; i += 2) c += term(i) + term(i + 1);
      if (i < n) c += term(i);
      coeffs[static_cast<std::size_t>(slot)] = c;
    }
    if (bias_shift != 0.0) coeffs[0] += bias_shift;
    double biggest = 0.0;
    for (double c : coeffs) biggest = std::max(biggest, std::fabs(c));
    biggest = quantize(biggest, first.float_type);
    expected.biggest[k] = biggest;
    const double inv = biggest == 0.0 ? 0.0 : r / biggest;
    for (index_t slot = 0; slot < kept; ++slot) {
      const double scaled =
          biggest == 0.0
              ? 0.0
              : std::clamp(std::round(coeffs[static_cast<std::size_t>(slot)] *
                                      inv),
                           -r, r);
      expected.indices.set(static_cast<std::size_t>(kb * kept + slot),
                           static_cast<std::int64_t>(scaled));
    }
  }
  return expected;
}

/// Nine operands compressed with @p index_type: a ragged, pruned 2-D float32
/// layout, and a 3-D bfloat16 layout whose rounded N_k makes the rebin clamp.
std::vector<std::vector<CompressedArray>> oracle_operands(
    IndexType index_type) {
  const std::pair<Shape, CompressorSettings> layouts[] = {
      {Shape{37, 45},
       make_settings(Shape{8, 8}, FloatType::kFloat32, index_type,
                     TransformKind::kDCT, TransformImpl::kAuto, 0.5)},
      {Shape{9, 14, 11},
       make_settings(Shape{4, 4, 4}, FloatType::kBFloat16, index_type,
                     TransformKind::kHaar, TransformImpl::kAuto)}};
  std::vector<std::vector<CompressedArray>> out;
  Rng rng(509);
  for (const auto& [shape, settings] : layouts) {
    Compressor compressor(settings);
    std::vector<CompressedArray> arrays;
    for (int i = 0; i < 9; ++i)
      arrays.push_back(compressor.compress(random_smooth(shape, rng, 5)));
    out.push_back(std::move(arrays));
  }
  return out;
}

struct ThreadCountGuard {
  ~ThreadCountGuard() { parallel::set_num_threads(0); }
};

void expect_matches_oracle(const CompressedArray& got,
                           const std::vector<const CompressedArray*>& operands,
                           const std::vector<double>& weights, double bias,
                           const std::string& label) {
  const CompressedArray expected = lincomb_oracle(operands, weights, bias);
  EXPECT_EQ(got.biggest, expected.biggest) << label;
  EXPECT_TRUE(got.indices == expected.indices) << label;
}

/// Arities 1, 2, 3 with a bias (request_stream's shape), 4 with a repeated
/// operand, and 9 (swe_rk4's height update), at 1 and 4 threads.
void check_lincomb_oracle(IndexType index_type) {
  ThreadCountGuard guard;
  for (const auto& arrays : oracle_operands(index_type)) {
    const auto* a = arrays.data();
    const std::vector<std::pair<std::vector<const CompressedArray*>,
                                std::vector<double>>>
        cases = {{{&a[0]}, {0.75}},
                 {{&a[0], &a[1]}, {1.0, -1.0}},
                 {{&a[0], &a[1], &a[2]}, {1.0, -0.5, 0.25}},
                 {{&a[0], &a[1], &a[0], &a[3]}, {0.5, 2.0, -1.25, 0.125}},
                 {{&a[0], &a[1], &a[2], &a[3], &a[4], &a[5], &a[6], &a[7],
                   &a[8]},
                  {1.0, -0.1, 0.1, -0.2, 0.2, 1.0 / 6, -1.0 / 3, 0.05, -0.05}}};
    for (int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      for (std::size_t c = 0; c < cases.size(); ++c) {
        const auto& [operands, weights] = cases[c];
        const double bias = c == 2 ? 0.375 : 0.0;
        const CompressedArray got = ops::lincomb(
            std::span<const CompressedArray* const>(operands),
            std::span<const double>(weights), bias);
        expect_matches_oracle(got, operands, weights, bias,
                              "case " + std::to_string(c) + " threads " +
                                  std::to_string(threads));
      }
    }
  }
}

TEST(OpsOracle, LincombMatchesInlineDefinitionInt8) {
  check_lincomb_oracle(IndexType::kInt8);
}
TEST(OpsOracle, LincombMatchesInlineDefinitionInt16) {
  check_lincomb_oracle(IndexType::kInt16);
}
TEST(OpsOracle, LincombMatchesInlineDefinitionInt32) {
  check_lincomb_oracle(IndexType::kInt32);
}
TEST(OpsOracle, LincombMatchesInlineDefinitionInt64) {
  check_lincomb_oracle(IndexType::kInt64);
}

/// A K = 4 batch sharing 3 of its operands, so it runs the multi-output
/// kernel: output k reads {a0, a1, a2, a(3 + k)}, output 1 repeats a0 for an
/// odd arity and output 2 carries a bias.  Each output must equal the oracle
/// of its own terms.
void check_lincomb_batch_oracle(IndexType index_type) {
  ThreadCountGuard guard;
  for (const auto& arrays : oracle_operands(index_type)) {
    std::vector<std::vector<const CompressedArray*>> operands;
    std::vector<std::vector<double>> weights;
    std::vector<double> biases;
    for (std::size_t k = 0; k < 4; ++k) {
      operands.push_back({&arrays[0], &arrays[1], &arrays[2], &arrays[3 + k]});
      weights.push_back({1.0, -0.25 * static_cast<double>(k + 1), 0.5,
                         0.125 * static_cast<double>(k + 1)});
      if (k == 1) {
        operands.back().push_back(&arrays[0]);
        weights.back().push_back(-0.75);
      }
      biases.push_back(k == 2 ? -0.625 : 0.0);
    }
    std::vector<ops::LincombRequest> requests;
    for (std::size_t k = 0; k < 4; ++k)
      requests.push_back({std::span<const CompressedArray* const>(operands[k]),
                          std::span<const double>(weights[k]), biases[k]});
    for (int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      const std::vector<CompressedArray> got = ops::lincomb_batch(requests);
      ASSERT_EQ(got.size(), requests.size());
      for (std::size_t k = 0; k < got.size(); ++k)
        expect_matches_oracle(got[k], operands[k], weights[k], biases[k],
                              "output " + std::to_string(k) + " threads " +
                                  std::to_string(threads));
    }
  }
}

TEST(OpsOracle, LincombBatchMatchesInlineDefinitionInt8) {
  check_lincomb_batch_oracle(IndexType::kInt8);
}
TEST(OpsOracle, LincombBatchMatchesInlineDefinitionInt16) {
  check_lincomb_batch_oracle(IndexType::kInt16);
}
TEST(OpsOracle, LincombBatchMatchesInlineDefinitionInt32) {
  check_lincomb_batch_oracle(IndexType::kInt32);
}
TEST(OpsOracle, LincombBatchMatchesInlineDefinitionInt64) {
  check_lincomb_batch_oracle(IndexType::kInt64);
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
