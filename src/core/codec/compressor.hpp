#pragma once

#include <memory>

#include "core/codec/compressed_array.hpp"
#include "core/codec/error_bounds.hpp"
#include "core/codec/settings.hpp"
#include "core/ndarray/ndarray.hpp"
#include "core/transform/block_transform.hpp"

namespace pyblaz {

/// The PyBlaz compressor (§III): data-type conversion -> blocking ->
/// orthonormal transform -> binning -> pruning, and the reverse for
/// decompression.  Compression, decompression, and the per-block halves of
/// the compressed-space operations are parallelized over blocks with OpenMP
/// (the CPU analogue of PyBlaz's GPU execution).
///
/// A Compressor is immutable after construction and safe to share across
/// threads.
class Compressor {
 public:
  /// Validates @p settings (throws std::invalid_argument on bad settings) and
  /// precomputes the per-axis transform matrices.
  explicit Compressor(CompressorSettings settings);

  /// Compress @p array.  The array's dimensionality must match the block
  /// shape's.  If @p diagnostics is non-null it receives the exact per-block
  /// binning/pruning error accounting of §IV-D.
  CompressedArray compress(const NDArray<double>& array,
                           CompressionDiagnostics* diagnostics = nullptr) const;

  /// Decompress back to an array shaped like the original.  Values are
  /// rounded through the array's stored float type, as PyBlaz stores and
  /// reconstructs in that type (the same rounding get() and
  /// decompress_roi() apply).
  NDArray<double> decompress(const CompressedArray& array) const;

  const CompressorSettings& settings() const { return settings_; }

  /// The pruning mask in effect (keep-all when none was configured).
  const PruningMask& mask() const { return mask_; }

  /// The per-block transform (shared with compressed-space operations that
  /// need basis information).
  const BlockTransform& transform() const { return *transform_; }

 private:
  CompressorSettings settings_;
  PruningMask mask_;
  std::shared_ptr<BlockTransform> transform_;
};

}  // namespace pyblaz
