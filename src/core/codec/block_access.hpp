#pragma once

#include <cstring>
#include <type_traits>
#include <vector>

#include "core/codec/compressed_array.hpp"
#include "core/dtypes/float_type.hpp"
#include "core/kernels/rebin.hpp"
#include "core/ndarray/shape.hpp"
#include "core/telemetry/trace.hpp"
#include "core/transform/block_transform.hpp"

namespace pyblaz::blockio {

/// The per-block codec path shared by Compressor (whole-array compress /
/// decompress), the decoded-block cache (core/cache/), and the random-access
/// read API (CompressedArray::get / decompress_roi).  Everything here calls
/// the same kernels:: entry points the fused compressor pipeline uses, so a
/// block encoded through encode_block() is bit-identical to the same data
/// going through Compressor::compress, and a block decoded through
/// decode_block() is bit-identical to the corresponding region of
/// Compressor::decompress.  That shared arithmetic is what lets the cache's
/// write-back guarantee byte-identical archives.

/// Decompose @p offset (row-major within @p shape) into per-axis coordinates.
void decompose(const Shape& shape, index_t offset, index_t* coords);

/// Advance row-major coordinates over the leading (all but last) axes.
bool advance_row(const Shape& shape, index_t* coords);

/// Per-thread workspace for fused block processing: block rows are moved
/// with memcpy between the array (row-major) and a local block buffer, so
/// neither compression nor random access ever materializes a whole-array
/// blocked intermediate.
///
/// The referenced shapes must outlive the cursor.
struct BlockCursor {
  const Shape& shape;
  const Shape& block_shape;
  const Shape& grid;
  std::vector<index_t> strides;
  int d;
  index_t block_last;
  index_t rows_per_block;

  std::vector<index_t> block_coords;
  std::vector<index_t> row_coords;

  BlockCursor(const Shape& array_shape, const Shape& block,
              const Shape& block_grid);

  /// Copy block @p kb of the array into @p dst, zero-padding ragged edges and
  /// rounding the copied values through @p float_type in the same cache pass
  /// (padding zeros are exact in every float type, so only copied rows need
  /// the conversion).
  void gather(const double* array, index_t kb, double* dst,
              FloatType float_type);

  /// Copy block @p kb from @p src into the array, cropping ragged edges and
  /// rounding the written values through @p float_type in the same pass (the
  /// cropped padding never reaches the output, so it is never converted).
  void scatter(double* array, index_t kb, const double* src,
               FloatType float_type);

  /// Round the in-bounds values of the standalone block buffer @p block
  /// through @p float_type and zero every padding position.  Elementwise this
  /// matches scatter() exactly for in-bounds positions and gather()'s
  /// zero-fill for padding, so a buffer processed by quantize_crop() is
  /// bit-identical to what gather() would produce from the scattered output —
  /// the property that makes decode_block -> encode_block round-trips match
  /// decompress -> compress.
  void quantize_crop(double* block, index_t kb, FloatType float_type);

  /// Copy the intersection of block @p kb with the half-open region
  /// [lo, hi) from the decoded block buffer @p block into @p out, an array of
  /// shape (hi - lo) with row-major strides @p out_strides.  Rows of the
  /// block outside the region are skipped.
  void copy_to_roi(const double* block, index_t kb, const index_t* lo,
                   const index_t* hi, double* out,
                   const std::vector<index_t>& out_strides);
};

/// Transform + rebin one gathered, float-rounded block: the forward half of
/// the fused pipeline after gather (compress steps 3-5, §III-A c-e).
/// @p coeffs holds the block values on entry and the transform coefficients
/// on exit; @p bins receives the @p kept bin indices.  Returns the stored
/// (float-rounded) biggest coefficient N_k.
template <typename BinT>
inline double encode_transform_rebin(const BlockTransform& transform,
                                     double* coeffs, double* scratch,
                                     index_t block_volume, index_t kept,
                                     const index_t* kept_offsets, double r,
                                     FloatType float_type, BinT* bins) {
  {
    telemetry::TraceSpan stage("codec.stage.transform");
    transform.forward(coeffs, scratch);
  }
  telemetry::TraceSpan stage("codec.stage.rebin");
  if (kept == block_volume)
    return kernels::rebin_block(coeffs, kept, r, float_type, bins);
  const double biggest =
      quantize(kernels::max_abs(coeffs, block_volume), float_type);
  if (biggest == 0.0) {
    std::fill(bins, bins + kept, BinT{0});
  } else {
    kernels::quantize_bins_gather(coeffs, kept_offsets, bins, kept,
                                  r / biggest, r);
  }
  return biggest;
}

/// Unbin + inverse-transform one block: the reverse half of the fused
/// pipeline before scatter (decompress, §III-B / Algorithm 3).  On exit
/// @p coeffs holds the reconstructed block values (not yet rounded through
/// the storage float type — scatter / quantize_crop fuses that step).
template <typename BinT>
inline void decode_unbin_itransform(const BlockTransform& transform,
                                    const BinT* bins, index_t block_volume,
                                    index_t kept, const index_t* kept_offsets,
                                    double scale, double* coeffs,
                                    double* scratch) {
  {
    telemetry::TraceSpan stage("codec.stage.unbin");
    if (kept == block_volume) {
      kernels::unbin_block(bins, kept, scale, coeffs);
    } else {
      std::memset(coeffs, 0,
                  static_cast<std::size_t>(block_volume) * sizeof(double));
      kernels::unbin_scatter(bins, kept_offsets, kept, scale, coeffs);
    }
  }
  telemetry::TraceSpan stage("codec.stage.itransform");
  transform.inverse(coeffs, scratch);
}

/// Decode block @p kb of @p array into @p out (block_shape.volume() doubles):
/// unbin -> inverse transform -> round through the storage float type with
/// padding zeroed (quantize_crop).  Elementwise bit-identical to the
/// corresponding region of Compressor::decompress.  @p cursor must be built
/// for the array's (shape, block_shape, grid); @p scratch must hold
/// block_shape.volume() doubles.
void decode_block(const CompressedArray& array, const BlockTransform& transform,
                  BlockCursor& cursor, index_t kb, double* out,
                  double* scratch);

/// Re-encode the decoded block buffer @p block (storage-float-rounded values,
/// zero padding — the decode_block output domain) into block @p kb of
/// @p array, overwriting biggest[kb] and the block's bin-index row.  Runs the
/// same transform + rebin kernels as Compressor::compress, so the result is
/// bit-identical to compressing an array that holds these decoded values.
/// @p coeffs and @p scratch must each hold block_shape.volume() doubles;
/// @p block is left untouched.
void encode_block(CompressedArray& array, const BlockTransform& transform,
                  index_t kb, const double* block, double* coeffs,
                  double* scratch);

}  // namespace pyblaz::blockio
