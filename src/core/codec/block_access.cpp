#include "core/codec/block_access.hpp"

#include <algorithm>

namespace pyblaz::blockio {

void decompose(const Shape& shape, index_t offset, index_t* coords) {
  for (int axis = shape.ndim() - 1; axis >= 0; --axis) {
    coords[axis] = offset % shape[axis];
    offset /= shape[axis];
  }
}

bool advance_row(const Shape& shape, index_t* coords) {
  for (int axis = shape.ndim() - 2; axis >= 0; --axis) {
    if (++coords[axis] < shape[axis]) return true;
    coords[axis] = 0;
  }
  return false;
}

BlockCursor::BlockCursor(const Shape& array_shape, const Shape& block,
                         const Shape& block_grid)
    : shape(array_shape),
      block_shape(block),
      grid(block_grid),
      strides(array_shape.strides()),
      d(array_shape.ndim()),
      block_last(block[array_shape.ndim() - 1]),
      rows_per_block(block.volume() / block[array_shape.ndim() - 1]),
      block_coords(static_cast<std::size_t>(array_shape.ndim())),
      row_coords(static_cast<std::size_t>(array_shape.ndim()), 0) {}

void BlockCursor::gather(const double* array, index_t kb, double* dst,
                         FloatType float_type) {
  decompose(grid, kb, block_coords.data());
  const index_t last_start =
      block_coords[static_cast<std::size_t>(d - 1)] * block_last;
  const index_t copy_count =
      std::clamp<index_t>(shape[d - 1] - last_start, 0, block_last);
  std::fill(row_coords.begin(), row_coords.end(), 0);
  for (index_t row = 0; row < rows_per_block; ++row, dst += block_last) {
    bool inside = copy_count > 0;
    index_t src = last_start;
    for (int axis = 0; inside && axis < d - 1; ++axis) {
      const index_t coord =
          block_coords[static_cast<std::size_t>(axis)] * block_shape[axis] +
          row_coords[static_cast<std::size_t>(axis)];
      if (coord >= shape[axis]) {
        inside = false;
      } else {
        src += coord * strides[static_cast<std::size_t>(axis)];
      }
    }
    if (inside) {
      std::memcpy(dst, array + src,
                  static_cast<std::size_t>(copy_count) * sizeof(double));
      kernels::quantize_block(dst, copy_count, float_type);
      std::fill(dst + copy_count, dst + block_last, 0.0);
    } else {
      std::fill(dst, dst + block_last, 0.0);
    }
    if (d > 1) advance_row(block_shape, row_coords.data());
  }
}

void BlockCursor::scatter(double* array, index_t kb, const double* src,
                          FloatType float_type) {
  decompose(grid, kb, block_coords.data());
  const index_t last_start =
      block_coords[static_cast<std::size_t>(d - 1)] * block_last;
  const index_t copy_count =
      std::clamp<index_t>(shape[d - 1] - last_start, 0, block_last);
  std::fill(row_coords.begin(), row_coords.end(), 0);
  for (index_t row = 0; row < rows_per_block; ++row, src += block_last) {
    bool inside = copy_count > 0;
    index_t dst = last_start;
    for (int axis = 0; inside && axis < d - 1; ++axis) {
      const index_t coord =
          block_coords[static_cast<std::size_t>(axis)] * block_shape[axis] +
          row_coords[static_cast<std::size_t>(axis)];
      if (coord >= shape[axis]) {
        inside = false;
      } else {
        dst += coord * strides[static_cast<std::size_t>(axis)];
      }
    }
    if (inside) {
      std::memcpy(array + dst, src,
                  static_cast<std::size_t>(copy_count) * sizeof(double));
      kernels::quantize_block(array + dst, copy_count, float_type);
    }
    if (d > 1) advance_row(block_shape, row_coords.data());
  }
}

void BlockCursor::quantize_crop(double* block, index_t kb,
                                FloatType float_type) {
  decompose(grid, kb, block_coords.data());
  const index_t last_start =
      block_coords[static_cast<std::size_t>(d - 1)] * block_last;
  const index_t copy_count =
      std::clamp<index_t>(shape[d - 1] - last_start, 0, block_last);
  std::fill(row_coords.begin(), row_coords.end(), 0);
  for (index_t row = 0; row < rows_per_block; ++row, block += block_last) {
    bool inside = copy_count > 0;
    for (int axis = 0; inside && axis < d - 1; ++axis) {
      const index_t coord =
          block_coords[static_cast<std::size_t>(axis)] * block_shape[axis] +
          row_coords[static_cast<std::size_t>(axis)];
      if (coord >= shape[axis]) inside = false;
    }
    if (inside) {
      kernels::quantize_block(block, copy_count, float_type);
      std::fill(block + copy_count, block + block_last, 0.0);
    } else {
      std::fill(block, block + block_last, 0.0);
    }
    if (d > 1) advance_row(block_shape, row_coords.data());
  }
}

void BlockCursor::copy_to_roi(const double* block, index_t kb,
                              const index_t* lo, const index_t* hi,
                              double* out,
                              const std::vector<index_t>& out_strides) {
  decompose(grid, kb, block_coords.data());
  const index_t last_start =
      block_coords[static_cast<std::size_t>(d - 1)] * block_last;
  // Intersect the block's last-axis span with both the array bound and the
  // region's last-axis window.
  const index_t seg_begin = std::max(last_start, lo[d - 1]);
  const index_t seg_end =
      std::min({last_start + block_last, shape[d - 1], hi[d - 1]});
  if (seg_begin >= seg_end) return;
  const index_t seg_len = seg_end - seg_begin;
  std::fill(row_coords.begin(), row_coords.end(), 0);
  for (index_t row = 0; row < rows_per_block; ++row, block += block_last) {
    bool inside = true;
    index_t dst = seg_begin - lo[d - 1];
    for (int axis = 0; inside && axis < d - 1; ++axis) {
      const index_t coord =
          block_coords[static_cast<std::size_t>(axis)] * block_shape[axis] +
          row_coords[static_cast<std::size_t>(axis)];
      if (coord < lo[axis] || coord >= hi[axis] || coord >= shape[axis]) {
        inside = false;
      } else {
        dst += (coord - lo[axis]) * out_strides[static_cast<std::size_t>(axis)];
      }
    }
    if (inside) {
      std::memcpy(out + dst, block + (seg_begin - last_start),
                  static_cast<std::size_t>(seg_len) * sizeof(double));
    }
    if (d > 1) advance_row(block_shape, row_coords.data());
  }
}

void decode_block(const CompressedArray& array, const BlockTransform& transform,
                  BlockCursor& cursor, index_t kb, double* out,
                  double* scratch) {
  const index_t block_volume = array.block_shape.volume();
  const index_t kept = array.kept_per_block();
  const double r = static_cast<double>(array.radius());
  const double scale = array.biggest[static_cast<std::size_t>(kb)] / r;
  array.indices.visit([&](const auto* bins_data) {
    const auto* bins = bins_data + kb * kept;
    using BinT = std::remove_cvref_t<decltype(bins[0])>;
    decode_unbin_itransform<BinT>(transform, bins, block_volume, kept,
                                  array.mask.kept_offsets().data(), scale, out,
                                  scratch);
  });
  cursor.quantize_crop(out, kb, array.float_type);
}

void encode_block(CompressedArray& array, const BlockTransform& transform,
                  index_t kb, const double* block, double* coeffs,
                  double* scratch) {
  const index_t block_volume = array.block_shape.volume();
  const index_t kept = array.kept_per_block();
  const double r = static_cast<double>(array.radius());
  std::memcpy(coeffs, block,
              static_cast<std::size_t>(block_volume) * sizeof(double));
  array.indices.visit_mutable([&](auto* bins_data) {
    auto* bins = bins_data + kb * kept;
    using BinT = std::remove_reference_t<decltype(bins[0])>;
    array.biggest[static_cast<std::size_t>(kb)] = encode_transform_rebin<BinT>(
        transform, coeffs, scratch, block_volume, kept,
        array.mask.kept_offsets().data(), r, array.float_type, bins);
  });
}

}  // namespace pyblaz::blockio
