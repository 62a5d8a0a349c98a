#pragma once

#include <algorithm>
#include <cmath>

#include "core/dtypes/float_type.hpp"
#include "core/ndarray/shape.hpp"

namespace pyblaz::kernels {

/// The binning/unbinning hot loops (§III-A d, Algorithm 3), written once for
/// the compressor and every compressed-space operation that rebins.  These
/// are the only implementation: every caller quantizes bit-identically
/// because every caller runs this code.  All kernels are branch-free per
/// element, use restrict pointers, and carry `omp simd` hints, and the
/// compiler vectorizes them; CMakeLists.txt sets -fno-trapping-math so that
/// it can vectorize std::round and the float-to-int casts.  Vectorizing
/// changes no bit: each element's operations run in source order with no
/// FMA (-ffp-contract=off), and the one reduction is a max, which never
/// rounds.

/// max |c_j| over a contiguous coefficient row.
inline double max_abs(const double* __restrict c, index_t count) {
  double biggest = 0.0;
#pragma omp simd reduction(max : biggest)
  for (index_t j = 0; j < count; ++j)
    biggest = std::max(biggest, std::fabs(c[j]));
  return biggest;
}

/// Quantize a contiguous coefficient row into bin indices:
/// bins[j] = clamp(round(c[j] * inv), -r, r) with inv = r / biggest.
template <typename BinT>
inline void quantize_bins(const double* __restrict c, BinT* __restrict bins,
                          index_t count, double inv, double r) {
#pragma omp simd
  for (index_t j = 0; j < count; ++j)
    bins[j] = static_cast<BinT>(std::clamp(std::round(c[j] * inv), -r, r));
}

/// quantize_bins over a pruned selection: coefficient offsets[slot] feeds bin
/// slot (the compressor's binning + pruning step in one pass).
template <typename BinT>
inline void quantize_bins_gather(const double* __restrict c,
                                 const index_t* __restrict offsets,
                                 BinT* __restrict bins, index_t kept,
                                 double inv, double r) {
#pragma omp simd
  for (index_t slot = 0; slot < kept; ++slot)
    bins[slot] = static_cast<BinT>(
        std::clamp(std::round(c[offsets[slot]] * inv), -r, r));
}

/// Re-bin one block's coefficient row into (N_k, F_k): find-max, round the
/// max through the storage float type, then clamp-round every coefficient
/// into its bin.  Returns the stored N_k.  The final step of Algorithms 2
/// and 4 and the only error source of compressed-space arithmetic.
template <typename BinT>
inline double rebin_block(const double* __restrict c, index_t count, double r,
                          FloatType float_type, BinT* __restrict bins) {
  const double biggest = quantize(max_abs(c, count), float_type);
  if (biggest == 0.0) {
    std::fill(bins, bins + count, BinT{0});
  } else {
    quantize_bins(c, bins, count, r / biggest, r);
  }
  return biggest;
}

/// Decode one block's bin row back to specified coefficients:
/// c[j] = scale * f[j] with scale = N_k / r (Algorithm 3).
template <typename BinT>
inline void unbin_block(const BinT* __restrict f, index_t count, double scale,
                        double* __restrict c) {
#pragma omp simd
  for (index_t j = 0; j < count; ++j)
    c[j] = scale * static_cast<double>(f[j]);
}

/// unbin_block over a pruned selection: bin slot feeds coefficient
/// offsets[slot]; the caller zero-fills the pruned positions.
template <typename BinT>
inline void unbin_scatter(const BinT* __restrict f,
                          const index_t* __restrict offsets, index_t kept,
                          double scale, double* __restrict c) {
  for (index_t slot = 0; slot < kept; ++slot)
    c[offsets[slot]] = scale * static_cast<double>(f[slot]);
}

/// Fused decode of a linear combination: c[j] = s1 f1[j] + s2 f2[j], the
/// shared core of Algorithm 2 (addition) and its alpha/beta generalization.
template <typename Bin1T, typename Bin2T>
inline void decode_axpby(const Bin1T* __restrict f1, double s1,
                         const Bin2T* __restrict f2, double s2, index_t count,
                         double* __restrict c) {
#pragma omp simd
  for (index_t j = 0; j < count; ++j)
    c[j] = s1 * static_cast<double>(f1[j]) + s2 * static_cast<double>(f2[j]);
}

/// Accumulating variant of decode_axpby: c[j] += s1 f1[j] + s2 f2[j].  Lets
/// decode_lincomb sweep the coefficient row once per *pair* of operands.
template <typename BinT>
inline void decode_axpby_accumulate(const BinT* __restrict f1, double s1,
                                    const BinT* __restrict f2, double s2,
                                    index_t count, double* __restrict c) {
#pragma omp simd
  for (index_t j = 0; j < count; ++j)
    c[j] += s1 * static_cast<double>(f1[j]) + s2 * static_cast<double>(f2[j]);
}

/// Accumulating single-operand decode: c[j] += s f[j] (tail of an odd-arity
/// decode_lincomb).
template <typename BinT>
inline void decode_accumulate(const BinT* __restrict f, double s, index_t count,
                              double* __restrict c) {
#pragma omp simd
  for (index_t j = 0; j < count; ++j) c[j] += s * static_cast<double>(f[j]);
}

/// Fused n-ary decode of one block's linear combination,
/// c[j] = Σ_i s[i] f[i][j]: the core of ops::lincomb.  All operands share one
/// bin type (binary compressed ops require matching index types).  Operands
/// stream pairwise so the coefficient row — which stays cache-resident — is
/// swept ceil(n/2) times instead of n.  For n = 2 this is exactly
/// decode_axpby, so the binary ops rewired through lincomb quantize
/// bit-identically to their previous dedicated loops.
template <typename BinT>
inline void decode_lincomb(const BinT* const* __restrict f,
                           const double* __restrict s, index_t num_operands,
                           index_t count, double* __restrict c) {
  index_t i = 0;
  if (num_operands >= 2) {
    decode_axpby(f[0], s[0], f[1], s[1], count, c);
    i = 2;
  } else if (num_operands == 1) {
    unbin_block(f[0], count, s[0], c);
    i = 1;
  } else {
    std::fill(c, c + count, 0.0);
  }
  for (; i + 1 < num_operands; i += 2)
    decode_axpby_accumulate(f[i], s[i], f[i + 1], s[i + 1], count, c);
  if (i < num_operands) decode_accumulate(f[i], s[i], count, c);
}

/// Multi-output fused decode: evaluate K linear combinations over one shared
/// set of distinct bin rows, converting each distinct row's element to double
/// ONCE per element instead of once per (expression, element).  This is the
/// per-block engine of ops::lincomb_batch: when K expressions share operands,
/// the int->double conversions and bin-row loads fall from Σ_k arity_k to
/// num_rows per element.
///
/// Terms are flattened: output k owns terms [offsets[k], offsets[k+1]); term
/// t reads rows[term_rows[t]] with scale scales[t].  @p decoded is caller
/// scratch of at least num_rows * count doubles: the kernel converts each
/// distinct row into decoded[d*count ..] once, then streams each output's
/// pairwise passes over those contiguous double rows.
///
/// Bit-identity contract: out[k][j] is computed with exactly the per-element
/// association of decode_lincomb — first pair via a*b + c*d, subsequent pairs
/// summed then accumulated, odd tail accumulated alone, single-term outputs
/// as one multiply — and int->double conversion is exact for every bin value
/// (|bin| <= 2^53), so each output row is bit-identical to a separate
/// decode_lincomb call with the same (row, scale) list.
template <typename BinT>
inline void decode_lincomb_multi(const BinT* const* __restrict rows,
                                 index_t num_rows,
                                 const double* __restrict scales,
                                 const index_t* __restrict term_rows,
                                 const index_t* __restrict offsets,
                                 index_t num_outputs, index_t count,
                                 double* __restrict decoded,
                                 double* const* __restrict out) {
  // Convert every distinct row ONCE (exact: int -> double), then run each
  // output's pairwise passes over the converted doubles.  Per element the
  // operation sequence on out[k][j] is identical to decode_lincomb's
  // per-element order, so hoisting the conversion changes no bit.
  for (index_t d = 0; d < num_rows; ++d) {
    double* __restrict dst = decoded + d * count;
    const BinT* __restrict src = rows[d];
#pragma omp simd
    for (index_t j = 0; j < count; ++j) dst[j] = static_cast<double>(src[j]);
  }
  for (index_t k = 0; k < num_outputs; ++k) {
    const index_t begin = offsets[k];
    const index_t end = offsets[k + 1];
    double* __restrict c = out[k];
    index_t t = begin;
    if (end - begin >= 2) {
      const double* __restrict a = decoded + term_rows[begin] * count;
      const double* __restrict b = decoded + term_rows[begin + 1] * count;
      const double sa = scales[begin];
      const double sb = scales[begin + 1];
#pragma omp simd
      for (index_t j = 0; j < count; ++j) c[j] = sa * a[j] + sb * b[j];
      t = begin + 2;
    } else if (end - begin == 1) {
      const double* __restrict a = decoded + term_rows[begin] * count;
      const double sa = scales[begin];
#pragma omp simd
      for (index_t j = 0; j < count; ++j) c[j] = sa * a[j];
      t = begin + 1;
    } else {
      std::fill(c, c + count, 0.0);
    }
    for (; t + 1 < end; t += 2) {
      const double* __restrict a = decoded + term_rows[t] * count;
      const double* __restrict b = decoded + term_rows[t + 1] * count;
      const double sa = scales[t];
      const double sb = scales[t + 1];
#pragma omp simd
      for (index_t j = 0; j < count; ++j) c[j] += sa * a[j] + sb * b[j];
    }
    if (t < end) {
      const double* __restrict a = decoded + term_rows[t] * count;
      const double sa = scales[t];
#pragma omp simd
      for (index_t j = 0; j < count; ++j) c[j] += sa * a[j];
    }
  }
}

/// Round a coefficient row through the storage float type in place.  The
/// float32 case (the default) is a tight vectorizable loop; the 16-bit types
/// go through their bit-exact conversion helpers.
void quantize_block(double* __restrict x, index_t count, FloatType type);

}  // namespace pyblaz::kernels
