#pragma once

#include <vector>

#include "core/ndarray/shape.hpp"
#include "core/transform/transform.hpp"

namespace pyblaz {

/// Separable N-dimensional orthonormal transform applied to one block
/// (the Einstein-summation step of §III-A / Appendix VI-A).
///
/// Holds one basis matrix H_d per block axis.  The forward direction maps a
/// block B (row-major, prod(block_shape) elements) to coefficients
/// C = B ×_1 H_1 ×_2 H_2 ... ×_d H_d; the inverse contracts with the
/// transposes.  Both directions are exact inverses up to floating-point
/// rounding because every H_d is orthonormal.
/// Axes that kernels::fast_axis_preferred() selects (power-of-two sizes up
/// to 128 for the DCT, power-of-two sizes from 8 for Haar) run in O(n log n)
/// butterflies; other axes fall back to the dense matrix apply.  The rule is
/// fixed, so which kernel runs never depends on the host.
/// TransformImpl::kDense forces the dense path everywhere — the oracle the
/// kernel-equivalence tests and benchmarks compare against.
class BlockTransform {
 public:
  BlockTransform(TransformKind kind, Shape block_shape,
                 TransformImpl impl = TransformImpl::kAuto);

  const Shape& block_shape() const { return block_shape_; }
  TransformKind kind() const { return kind_; }
  TransformImpl impl() const { return impl_; }

  /// Number of doubles a scratch buffer must hold (= block volume).
  index_t scratch_size() const { return block_shape_.volume(); }

  /// In-place forward transform of one block.  @p scratch must hold
  /// scratch_size() doubles; the two buffers must not alias.
  void forward(double* block, double* scratch) const;

  /// In-place inverse transform of one block (same contract as forward()).
  void inverse(double* block, double* scratch) const;

  /// Convenience overloads that allocate their own scratch.
  void forward(double* block) const;
  void inverse(double* block) const;

  /// Basis matrix along @p axis, row-major n x n with basis vectors in
  /// columns (H[pos][freq]).
  const std::vector<double>& matrix(int axis) const {
    return matrices_[static_cast<std::size_t>(axis)];
  }

 private:
  enum class Direction { kForward, kInverse };
  void apply(double* block, double* scratch, Direction direction) const;

  TransformKind kind_;
  Shape block_shape_;
  TransformImpl impl_;
  std::vector<std::vector<double>> matrices_;
};

}  // namespace pyblaz
