#pragma once

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/codec/compressed_array.hpp"

namespace pyblaz::ops::internal {

/// Throws unless the DC (first) coefficient survives pruning; operations on
/// block means cannot work without it.
inline void require_dc(const CompressedArray& a, const char* operation) {
  if (a.dc_slot() != 0)
    throw std::invalid_argument(std::string(operation) +
                                " requires the first (DC) coefficient to be "
                                "kept by the pruning mask");
}

/// Throws std::logic_error when @p operand has unflushed dirty cached
/// blocks: compressed-domain kernels read the archive fields
/// (biggest/indices), which do not reflect those writes until flush_cache().
inline void require_flushed(const CompressedArray& operand,
                            const char* operation) {
  if (operand.dirty_cached_blocks() > 0)
    throw std::logic_error(std::string(operation) +
                           ": operand has unflushed dirty cached blocks; call "
                           "flush_cache() so the archive fields reflect the "
                           "writes");
}

/// A result array with the layout of @p first and a fresh (zero) bin buffer.
/// Deliberately NOT `CompressedArray out = first`: that would copy the whole
/// bin payload only to immediately replace it.
inline CompressedArray make_output(const CompressedArray& first) {
  CompressedArray out;
  out.shape = first.shape;
  out.block_shape = first.block_shape;
  out.float_type = first.float_type;
  out.index_type = first.index_type;
  out.transform = first.transform;
  out.mask = first.mask;
  out.biggest.resize(first.biggest.size());
  out.indices = BinIndices(first.index_type, first.indices.size());
  return out;
}

/// sqrt(prod(i)): the factor c relating a block's mean to its DC coefficient.
inline double dc_scale(const Shape& block_shape) {
  return std::sqrt(static_cast<double>(block_shape.volume()));
}

/// The blockwise means A' of Algorithm 13: DC coefficients / sqrt(prod(i)).
std::vector<double> blockwise_mean_vector(const CompressedArray& a);

}  // namespace pyblaz::ops::internal
