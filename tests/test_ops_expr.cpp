/// The lazy expression-template front end (core/ops/expr.hpp): natural
/// arithmetic over CompressedArray flattens — at compile time — into exactly
/// one ops::lincomb call.  Pins the acceptance properties: an expression like
/// h - dt*a + dt*b + c performs exactly ONE rebin (ops.lincomb.rebin_passes
/// accounting) and evaluates bit-identically to the direct flattened
/// ops::lincomb call, across shapes, dtypes, transforms, and thread counts;
/// compound assignments ride the same path; implicit conversion drops
/// expressions into any CompressedArray API.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

CompressorSettings settings_for(Shape block,
                                FloatType ftype = FloatType::kFloat32,
                                IndexType itype = IndexType::kInt8,
                                TransformKind kind = TransformKind::kDCT) {
  return {.block_shape = std::move(block),
          .float_type = ftype,
          .index_type = itype,
          .transform = kind};
}

/// Terminal rebin passes so far: ops::lincomb bumps the
/// ops.lincomb.rebin_passes counter once per call.
std::uint64_t rebin_passes() {
  return telemetry::counter("ops.lincomb.rebin_passes").value();
}

void expect_bit_identical(const CompressedArray& a, const CompressedArray& b,
                          const char* label) {
  EXPECT_EQ(a.indices, b.indices) << label;
  EXPECT_EQ(a.biggest, b.biggest) << label;
}

TEST(OpsExpr, NaturalExpressionIsOneRebinAndBitIdenticalToLincomb) {
  // The acceptance property, on the acceptance expression: h - dt*a + dt*b + c
  // performs exactly one rebin and matches the direct flattened lincomb call
  // bit for bit.
  Compressor compressor(settings_for(Shape{8, 8}));
  Rng rng(9001);
  const CompressedArray h =
      compressor.compress(random_smooth(Shape{40, 24}, rng, 5));
  const CompressedArray a =
      compressor.compress(random_smooth(Shape{40, 24}, rng, 5));
  const CompressedArray b =
      compressor.compress(random_smooth(Shape{40, 24}, rng, 5));
  const CompressedArray c =
      compressor.compress(random_smooth(Shape{40, 24}, rng, 5));
  const double dt = 0.125;

  const std::uint64_t before = rebin_passes();
  const CompressedArray via_expr = h - dt * a + dt * b + c;
  EXPECT_EQ(rebin_passes() - before, 1u)
      << "a 4-term expression must evaluate as one lincomb, one rebin";

  const CompressedArray direct =
      ops::lincomb({{1.0, &h}, {-dt, &a}, {dt, &b}, {1.0, &c}});
  expect_bit_identical(via_expr, direct, "expr vs direct lincomb");

  // The chained spelling of the same update pays one rebin per binary op.
  const std::uint64_t chained_before = rebin_passes();
  const CompressedArray chained = ops::add(
      ops::add(ops::subtract(h, ops::multiply_scalar(a, dt)),
               ops::multiply_scalar(b, dt)),
      c);
  EXPECT_EQ(rebin_passes() - chained_before, 3u);
}

TEST(OpsExpr, TreeFlattensAtCompileTime) {
  // Structural checks on the flattened (operand, weight, bias) lists: the
  // operators only rescale/concatenate fixed-size arrays, so the whole tree
  // shape is known statically.
  Compressor compressor(settings_for(Shape{8, 8}));
  Rng rng(9011);
  const CompressedArray a =
      compressor.compress(random_smooth(Shape{16, 16}, rng));
  const CompressedArray b =
      compressor.compress(random_smooth(Shape{16, 16}, rng));

  const LinExpr<2> scaled = 2.0 * (a - b) / 4.0 + 1.0;
  EXPECT_EQ(scaled.operands[0], &a);
  EXPECT_EQ(scaled.operands[1], &b);
  EXPECT_DOUBLE_EQ(scaled.weights[0], 0.5);
  EXPECT_DOUBLE_EQ(scaled.weights[1], -0.5);
  EXPECT_DOUBLE_EQ(scaled.bias, 1.0);

  const LinExpr<2> negated = -(a + 2.0 * b) - 3.0;
  EXPECT_DOUBLE_EQ(negated.weights[0], -1.0);
  EXPECT_DOUBLE_EQ(negated.weights[1], -2.0);
  EXPECT_DOUBLE_EQ(negated.bias, -3.0);

  const LinExpr<1> reversed = 1.5 - a;
  EXPECT_DOUBLE_EQ(reversed.weights[0], -1.0);
  EXPECT_DOUBLE_EQ(reversed.bias, 1.5);

  // Duplicate operands are legal terms, not an aliasing hazard.
  const LinExpr<2> doubled = a + a;
  EXPECT_EQ(doubled.operands[0], doubled.operands[1]);
  expect_bit_identical(doubled.eval(), ops::lincomb({{1.0, &a}, {1.0, &a}}),
                       "a + a");
}

TEST(OpsExpr, BitIdenticalToDirectLincombAcrossLayouts) {
  // The no-new-error-source property across storage layouts: for every
  // (block shape, float type, index type, transform) the expression's
  // evaluation equals the direct flattened lincomb call bit for bit.
  struct Case {
    Shape array_shape;
    Shape block_shape;
    FloatType ftype;
    IndexType itype;
    TransformKind kind;
  };
  const Case cases[] = {
      {Shape{32, 32}, Shape{8, 8}, FloatType::kFloat32, IndexType::kInt8,
       TransformKind::kDCT},
      {Shape{33, 21}, Shape{8, 8}, FloatType::kFloat32, IndexType::kInt16,
       TransformKind::kDCT},  // Ragged edges.
      {Shape{16, 16, 16}, Shape{4, 4, 4}, FloatType::kFloat64,
       IndexType::kInt32, TransformKind::kDCT},
      {Shape{32, 32}, Shape{16, 16}, FloatType::kFloat16, IndexType::kInt8,
       TransformKind::kHaar},
      {Shape{64}, Shape{16}, FloatType::kBFloat16, IndexType::kInt16,
       TransformKind::kHaar},
  };
  for (const Case& c : cases) {
    Compressor compressor(
        settings_for(c.block_shape, c.ftype, c.itype, c.kind));
    Rng rng(9021);
    const CompressedArray x =
        compressor.compress(random_smooth(c.array_shape, rng, 5));
    const CompressedArray y =
        compressor.compress(random_smooth(c.array_shape, rng, 5));
    const CompressedArray z =
        compressor.compress(random_smooth(c.array_shape, rng, 5));

    const CompressedArray via_expr = 0.75 * x - y / 3.0 + 2.0 * z + 0.25;
    const CompressedArray direct = ops::lincomb(
        {{0.75, &x}, {-(1.0 / 3.0), &y}, {2.0, &z}}, 0.25);
    expect_bit_identical(via_expr, direct, c.array_shape.to_string().c_str());
  }
}

TEST(OpsExpr, BitIdenticalAcrossThreadCounts) {
  Compressor compressor(settings_for(Shape{8, 4, 8}));
  Rng rng(9031);
  const CompressedArray a =
      compressor.compress(random_smooth(Shape{37, 18, 29}, rng, 5));
  const CompressedArray b =
      compressor.compress(random_smooth(Shape{37, 18, 29}, rng, 5));
  const CompressedArray c =
      compressor.compress(random_smooth(Shape{37, 18, 29}, rng, 5));

  parallel::set_num_threads(1);
  const CompressedArray reference = a - 0.5 * b + 0.25 * c;
  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    const CompressedArray again = a - 0.5 * b + 0.25 * c;
    EXPECT_EQ(again.indices, reference.indices) << threads << " threads";
    EXPECT_EQ(again.biggest, reference.biggest) << threads << " threads";
  }
  parallel::set_num_threads(0);
}

TEST(OpsExpr, CompoundAssignmentsRouteThroughOneRebin) {
  Compressor compressor(settings_for(Shape{8, 8}, FloatType::kFloat32,
                                     IndexType::kInt16));
  Rng rng(9041);
  const CompressedArray a =
      compressor.compress(random_smooth(Shape{32, 32}, rng, 5));
  const CompressedArray b =
      compressor.compress(random_smooth(Shape{32, 32}, rng, 5));
  CompressedArray state =
      compressor.compress(random_smooth(Shape{32, 32}, rng, 5));
  const CompressedArray state0 = state;

  const std::uint64_t before = rebin_passes();
  state += 0.5 * a - 0.25 * b;
  EXPECT_EQ(rebin_passes() - before, 1u);
  expect_bit_identical(
      state, ops::lincomb({{1.0, &state0}, {0.5, &a}, {-0.25, &b}}), "+=");

  const CompressedArray state1 = state;
  state -= 2.0 * a;
  expect_bit_identical(state, ops::lincomb({{1.0, &state1}, {-2.0, &a}}),
                       "-=");

  // Plain array increment too: state += a is the unit-weight case.
  const CompressedArray state2 = state;
  state += a;
  expect_bit_identical(state, ops::lincomb({{1.0, &state2}, {1.0, &a}}),
                       "+= array");
}

TEST(OpsExpr, ImplicitConversionDropsIntoCompressedArrayApis) {
  Compressor compressor(settings_for(Shape{8, 8}, FloatType::kFloat32,
                                     IndexType::kInt16));
  Rng rng(9051);
  NDArray<double> raw_x = random_smooth(Shape{32, 32}, rng, 5);
  NDArray<double> raw_y = random_smooth(Shape{32, 32}, rng, 5);
  const CompressedArray x = compressor.compress(raw_x);
  const CompressedArray y = compressor.compress(raw_y);

  // Scalar reductions accept an expression where they accept an array.
  EXPECT_EQ(ops::l2_norm(x - y), ops::l2_norm(ops::subtract(x, y)));

  // So does the codec: decompress evaluates the expression once.
  const NDArray<double> decoded = compressor.decompress(2.0 * (x - y) + 0.5);
  const NDArray<double> direct =
      compressor.decompress(ops::lincomb({{2.0, &x}, {-2.0, &y}}, 0.5));
  EXPECT_EQ(decoded, direct);

  // Temporaries inside one full expression are safe: they outlive the
  // evaluation (the documented idiomatic pattern).
  const CompressedArray diff = compressor.compress(raw_x) -
                               compressor.compress(raw_y);
  expect_bit_identical(diff, ops::subtract(x, y), "temporaries");
}

TEST(OpsExpr, BiasRequiresDcOnlyWhenNonzero) {
  // The expression layer inherits lincomb's contract: a nonzero bias needs
  // the DC coefficient, a zero bias does not.
  CompressorSettings pruned = settings_for(Shape{8, 8});
  std::vector<std::uint8_t> flags(64, 0);
  for (std::size_t k = 1; k <= 8; ++k) flags[k] = 1;  // DC (offset 0) pruned.
  pruned.mask = PruningMask::from_flags(Shape{8, 8}, std::move(flags));
  Compressor compressor(pruned);
  Rng rng(9061);
  const CompressedArray a =
      compressor.compress(random_smooth(Shape{16, 16}, rng));
  const CompressedArray b =
      compressor.compress(random_smooth(Shape{16, 16}, rng));
  EXPECT_THROW((void)(a + b + 1.0).eval(), std::invalid_argument);
  EXPECT_NO_THROW((void)(a + b).eval());
}

}  // namespace
}  // namespace pyblaz
