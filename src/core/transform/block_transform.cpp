#include "core/transform/block_transform.hpp"

#include <algorithm>
#include <cassert>

#include "core/kernels/fast_transform.hpp"
#include "core/transform/dct.hpp"
#include "core/transform/haar.hpp"

namespace pyblaz {

std::string name(TransformKind kind) {
  switch (kind) {
    case TransformKind::kDCT:
      return "dct";
    case TransformKind::kHaar:
      return "haar";
  }
  return "dct";
}

BlockTransform::BlockTransform(TransformKind kind, Shape block_shape,
                               TransformImpl impl)
    : kind_(kind), block_shape_(std::move(block_shape)), impl_(impl) {
  matrices_.reserve(static_cast<std::size_t>(block_shape_.ndim()));
  for (int axis = 0; axis < block_shape_.ndim(); ++axis) {
    const int n = static_cast<int>(block_shape_[axis]);
    matrices_.push_back(kind == TransformKind::kDCT ? dct_matrix(n) : haar_matrix(n));
  }
}

void BlockTransform::apply(double* block, double* scratch,
                           Direction direction) const {
  const int d = block_shape_.ndim();
  const bool forward = direction == Direction::kForward;

  // Factorized axes transform in place (using the other buffer as butterfly
  // scratch); dense axes ping-pong between the two buffers.  Copy back only
  // if the final result landed in scratch.
  double* src = block;
  double* dst = scratch;
  for (int axis = 0; axis < d; ++axis) {
    const index_t n = block_shape_[axis];
    index_t outer = 1, inner = 1;
    for (int a = 0; a < axis; ++a) outer *= block_shape_[a];
    for (int a = axis + 1; a < d; ++a) inner *= block_shape_[a];
    if (impl_ == TransformImpl::kAuto &&
        kernels::fast_axis_preferred(kind_, n)) {
      kernels::fast_transform_axis(kind_, src, dst, n, outer, inner, forward);
    } else {
      kernels::dense_transform_axis(
          src, dst, matrices_[static_cast<std::size_t>(axis)].data(), n, outer,
          inner, forward);
      std::swap(src, dst);
    }
  }
  if (src != block) std::copy(src, src + block_shape_.volume(), block);
}

void BlockTransform::forward(double* block, double* scratch) const {
  apply(block, scratch, Direction::kForward);
}

void BlockTransform::inverse(double* block, double* scratch) const {
  apply(block, scratch, Direction::kInverse);
}

void BlockTransform::forward(double* block) const {
  std::vector<double> scratch(static_cast<std::size_t>(scratch_size()));
  forward(block, scratch.data());
}

void BlockTransform::inverse(double* block) const {
  std::vector<double> scratch(static_cast<std::size_t>(scratch_size()));
  inverse(block, scratch.data());
}

}  // namespace pyblaz
