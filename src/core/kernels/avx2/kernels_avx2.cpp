/// AVX2 kernel backend.
///
/// Every kernel here must reproduce the scalar oracle in rebin.hpp *bit for
/// bit* (see docs/PERF.md, "SIMD backends").  The rules that make that
/// possible:
///
///  - No FMA, ever: the project builds with -ffp-contract=off and the scalar
///    kernels round after every multiply and add, so each SIMD kernel uses
///    separate mul/add intrinsics (-mavx2 does not enable FMA contraction).
///  - Per-element operation order is preserved exactly; vectorization only
///    runs independent elements side by side.  The one reduction (max_abs)
///    splits into lane accumulators, which is exact because max never rounds.
///  - std::round (half away from zero) is synthesized from truncation:
///    t = trunc(x); |x - t| >= 0.5 selects t +/- 1.  x - t is exact (it is
///    the fraction bits of x), and |x| >= 2^52 gives t == x, diff == 0.
///  - NaN semantics follow the scalar kernels: vmaxpd/vminpd return their
///    *second* operand on an unordered compare, so max_abs keeps the
///    accumulator when the new |c| is NaN (std::max drops NaN) while clamp
///    propagates a NaN value (std::clamp keeps it).
///  - double -> int conversion truncates via cvttpd + byte shuffles, never
///    a saturating pack: gcc's scalar cast produces 0x80000000 -> truncated
///    bytes for NaN, and a saturating pack would disagree.
///  - The int64 bin type stays on the scalar kernels (AVX2 has no packed
///    double<->int64 conversion, and its 2^53 radius exceeds int32 range).
///
/// This TU is compiled with -mavx2 on x86-64 (CMakeLists.txt sets the
/// per-file flag) and collapses to a nullptr-returning stub elsewhere, so
/// the dispatcher needs no platform #ifdefs.

#include "core/kernels/backend_tables.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/kernels/rebin.hpp"

namespace pyblaz::kernels {
namespace {

inline __m256d abs_pd(__m256d v) {
  const __m256d mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  return _mm256_and_pd(v, mask);
}

/// std::round: nearest integral, halfway cases away from zero.
inline __m256d round_half_away(__m256d x) {
  const __m256d t =
      _mm256_round_pd(x, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d diff = _mm256_sub_pd(x, t);  // Exact: the fraction bits of x.
  const __m256d sign_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x8000000000000000ULL));
  const __m256d one_signed =
      _mm256_or_pd(_mm256_set1_pd(1.0), _mm256_and_pd(x, sign_mask));
  const __m256d away = _mm256_add_pd(t, one_signed);
  const __m256d mask =
      _mm256_cmp_pd(abs_pd(diff), _mm256_set1_pd(0.5), _CMP_GE_OQ);
  // NaN x: the compare is false and t (== NaN) passes through, like
  // std::round.
  return _mm256_blendv_pd(t, away, mask);
}

/// std::clamp(v, lo, hi) with std::clamp's NaN behavior (a NaN value
/// propagates): vmaxpd/vminpd return the second operand on unordered, so v
/// must be the second operand of both.
inline __m256d clamp_pd(__m256d v, __m256d lo, __m256d hi) {
  return _mm256_min_pd(hi, _mm256_max_pd(lo, v));
}

// --- int <-> double lane conversions ---------------------------------------

inline __m256d load4_pd(const std::int8_t* p) {
  std::int32_t raw;
  std::memcpy(&raw, p, sizeof raw);
  return _mm256_cvtepi32_pd(_mm_cvtepi8_epi32(_mm_cvtsi32_si128(raw)));
}

inline __m256d load4_pd(const std::int16_t* p) {
  std::int64_t raw;
  std::memcpy(&raw, p, sizeof raw);
  return _mm256_cvtepi32_pd(_mm_cvtepi16_epi32(_mm_cvtsi64_si128(raw)));
}

inline __m256d load4_pd(const std::int32_t* p) {
  return _mm256_cvtepi32_pd(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

/// Truncating double -> int stores.  cvttpd yields 0x80000000 for NaN and
/// out-of-range values; taking the low bytes matches gcc's scalar cast chain
/// (cvttsd2si + integer truncation) exactly.
inline void store4(std::int8_t* p, __m256d v) {
  const __m128i q = _mm256_cvttpd_epi32(v);
  const __m128i bytes = _mm_shuffle_epi8(
      q, _mm_setr_epi8(0, 4, 8, 12, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                       -1, -1));
  const std::int32_t raw = _mm_cvtsi128_si32(bytes);
  std::memcpy(p, &raw, sizeof raw);
}

inline void store4(std::int16_t* p, __m256d v) {
  const __m128i q = _mm256_cvttpd_epi32(v);
  const __m128i words = _mm_shuffle_epi8(
      q, _mm_setr_epi8(0, 1, 4, 5, 8, 9, 12, 13, -1, -1, -1, -1, -1, -1, -1,
                       -1));
  const std::int64_t raw = _mm_cvtsi128_si64(words);
  std::memcpy(p, &raw, sizeof raw);
}

inline void store4(std::int32_t* p, __m256d v) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm256_cvttpd_epi32(v));
}

// --- family 1: rebin / unbin ----------------------------------------------

double max_abs_avx2(const double* c, index_t count) {
  __m256d acc = _mm256_setzero_pd();
  index_t j = 0;
  for (; j + 4 <= count; j += 4)
    // v as the first operand: a NaN |c[j]| keeps the accumulator, matching
    // std::max(biggest, fab).
    acc = _mm256_max_pd(abs_pd(_mm256_loadu_pd(c + j)), acc);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double biggest = 0.0;
  for (double lane : lanes) biggest = std::max(biggest, lane);
  for (; j < count; ++j) biggest = std::max(biggest, std::fabs(c[j]));
  return biggest;
}

template <typename BinT>
void quantize_bins_avx2(const double* c, BinT* bins, index_t count, double inv,
                        double r) {
  const __m256d vinv = _mm256_set1_pd(inv);
  const __m256d vlo = _mm256_set1_pd(-r);
  const __m256d vhi = _mm256_set1_pd(r);
  index_t j = 0;
  for (; j + 4 <= count; j += 4) {
    const __m256d scaled = _mm256_mul_pd(_mm256_loadu_pd(c + j), vinv);
    store4(bins + j, clamp_pd(round_half_away(scaled), vlo, vhi));
  }
  for (; j < count; ++j)
    bins[j] = static_cast<BinT>(std::clamp(std::round(c[j] * inv), -r, r));
}

template <typename BinT>
void unbin_block_avx2(const BinT* f, index_t count, double scale, double* c) {
  const __m256d vs = _mm256_set1_pd(scale);
  index_t j = 0;
  for (; j + 4 <= count; j += 4)
    _mm256_storeu_pd(c + j, _mm256_mul_pd(vs, load4_pd(f + j)));
  for (; j < count; ++j) c[j] = scale * static_cast<double>(f[j]);
}

// --- family 1: fused lincomb decode ----------------------------------------

template <typename BinT>
void decode_axpby_avx2(const BinT* f1, double s1, const BinT* f2, double s2,
                       index_t count, double* c) {
  const __m256d vs1 = _mm256_set1_pd(s1);
  const __m256d vs2 = _mm256_set1_pd(s2);
  index_t j = 0;
  for (; j + 4 <= count; j += 4)
    _mm256_storeu_pd(c + j,
                     _mm256_add_pd(_mm256_mul_pd(vs1, load4_pd(f1 + j)),
                                   _mm256_mul_pd(vs2, load4_pd(f2 + j))));
  for (; j < count; ++j)
    c[j] = s1 * static_cast<double>(f1[j]) + s2 * static_cast<double>(f2[j]);
}

template <typename BinT>
void decode_axpby_accumulate_avx2(const BinT* f1, double s1, const BinT* f2,
                                  double s2, index_t count, double* c) {
  const __m256d vs1 = _mm256_set1_pd(s1);
  const __m256d vs2 = _mm256_set1_pd(s2);
  index_t j = 0;
  for (; j + 4 <= count; j += 4) {
    // c[j] += a + b rounds (a + b) first, then the accumulate — keep that
    // association.
    const __m256d pair =
        _mm256_add_pd(_mm256_mul_pd(vs1, load4_pd(f1 + j)),
                      _mm256_mul_pd(vs2, load4_pd(f2 + j)));
    _mm256_storeu_pd(c + j, _mm256_add_pd(_mm256_loadu_pd(c + j), pair));
  }
  for (; j < count; ++j)
    c[j] += s1 * static_cast<double>(f1[j]) + s2 * static_cast<double>(f2[j]);
}

template <typename BinT>
void decode_accumulate_avx2(const BinT* f, double s, index_t count,
                            double* c) {
  const __m256d vs = _mm256_set1_pd(s);
  index_t j = 0;
  for (; j + 4 <= count; j += 4)
    _mm256_storeu_pd(
        c + j, _mm256_add_pd(_mm256_loadu_pd(c + j),
                             _mm256_mul_pd(vs, load4_pd(f + j))));
  for (; j < count; ++j) c[j] += s * static_cast<double>(f[j]);
}

/// Same pairwise streaming as the scalar decode_lincomb: the per-element
/// evaluation order (and therefore rounding) is identical; only the lane
/// width differs.
template <typename BinT>
void decode_lincomb_avx2(const BinT* const* f, const double* s,
                         index_t num_operands, index_t count, double* c) {
  index_t i = 0;
  if (num_operands >= 2) {
    decode_axpby_avx2(f[0], s[0], f[1], s[1], count, c);
    i = 2;
  } else if (num_operands == 1) {
    unbin_block_avx2(f[0], count, s[0], c);
    i = 1;
  } else {
    std::fill(c, c + count, 0.0);
  }
  for (; i + 1 < num_operands; i += 2)
    decode_axpby_accumulate_avx2(f[i], s[i], f[i + 1], s[i + 1], count, c);
  if (i < num_operands) decode_accumulate_avx2(f[i], s[i], count, c);
}

/// c[j] = sa*a[j] + sb*b[j] over converted double rows — the first-pair pass
/// of the multi-output decode, same per-element association as
/// decode_axpby_avx2 (mul, mul, add; scale broadcasts hoisted).
void axpby_rows_avx2(const double* a, double sa, const double* b, double sb,
                     index_t count, double* c) {
  const __m256d va = _mm256_set1_pd(sa);
  const __m256d vb = _mm256_set1_pd(sb);
  index_t j = 0;
  for (; j + 4 <= count; j += 4)
    _mm256_storeu_pd(
        c + j, _mm256_add_pd(_mm256_mul_pd(va, _mm256_loadu_pd(a + j)),
                             _mm256_mul_pd(vb, _mm256_loadu_pd(b + j))));
  for (; j < count; ++j) c[j] = sa * a[j] + sb * b[j];
}

/// c[j] += sa*a[j] + sb*b[j]: the later-pair pass (pair rounds first, then
/// accumulates — the decode_axpby_accumulate_avx2 association).
void axpby_accumulate_rows_avx2(const double* a, double sa, const double* b,
                                double sb, index_t count, double* c) {
  const __m256d va = _mm256_set1_pd(sa);
  const __m256d vb = _mm256_set1_pd(sb);
  index_t j = 0;
  for (; j + 4 <= count; j += 4)
    _mm256_storeu_pd(
        c + j,
        _mm256_add_pd(_mm256_loadu_pd(c + j),
                      _mm256_add_pd(_mm256_mul_pd(va, _mm256_loadu_pd(a + j)),
                                    _mm256_mul_pd(vb, _mm256_loadu_pd(b + j)))));
  for (; j < count; ++j) c[j] += sa * a[j] + sb * b[j];
}

/// c[j] = sa*a[j]: the single-term output (unbin_block association).
void scale_row_avx2(const double* a, double sa, index_t count, double* c) {
  const __m256d va = _mm256_set1_pd(sa);
  index_t j = 0;
  for (; j + 4 <= count; j += 4)
    _mm256_storeu_pd(c + j, _mm256_mul_pd(va, _mm256_loadu_pd(a + j)));
  for (; j < count; ++j) c[j] = sa * a[j];
}

/// c[j] += sa*a[j]: the odd-tail term (decode_accumulate association).
void accumulate_row_avx2(const double* a, double sa, index_t count,
                         double* c) {
  const __m256d va = _mm256_set1_pd(sa);
  index_t j = 0;
  for (; j + 4 <= count; j += 4)
    _mm256_storeu_pd(c + j,
                     _mm256_add_pd(_mm256_loadu_pd(c + j),
                                   _mm256_mul_pd(va, _mm256_loadu_pd(a + j))));
  for (; j < count; ++j) c[j] += sa * a[j];
}

/// Multi-output batched decode: every distinct row is converted to double
/// ONCE into the caller's decoded scratch (row d at decoded[d*count ..]),
/// then each output's term list streams pairwise passes over those contiguous
/// double rows — contiguous loads, hoisted scale broadcasts, no per-element
/// indirection.  The per-element operation sequence on out[k][j] (first pair
/// a*b + c*d, later pairs summed then accumulated, odd tail alone) matches
/// decode_lincomb_avx2 exactly and int->double conversion is exact, so every
/// output row is bit-identical to a separate decode_lincomb call.
template <typename BinT>
void decode_lincomb_multi_avx2(const BinT* const* rows, index_t num_rows,
                               const double* scales, const index_t* term_rows,
                               const index_t* offsets, index_t num_outputs,
                               index_t count, double* decoded,
                               double* const* out) {
  for (index_t d = 0; d < num_rows; ++d) {
    const BinT* src = rows[d];
    double* dst = decoded + d * count;
    index_t j = 0;
    for (; j + 4 <= count; j += 4)
      _mm256_storeu_pd(dst + j, load4_pd(src + j));
    for (; j < count; ++j) dst[j] = static_cast<double>(src[j]);
  }
  for (index_t k = 0; k < num_outputs; ++k) {
    const index_t begin = offsets[k];
    const index_t end = offsets[k + 1];
    double* c = out[k];
    index_t t = begin;
    if (end - begin >= 2) {
      axpby_rows_avx2(decoded + term_rows[begin] * count, scales[begin],
                      decoded + term_rows[begin + 1] * count,
                      scales[begin + 1], count, c);
      t = begin + 2;
    } else if (end - begin == 1) {
      scale_row_avx2(decoded + term_rows[begin] * count, scales[begin], count,
                     c);
      t = begin + 1;
    } else {
      std::fill(c, c + count, 0.0);
    }
    for (; t + 1 < end; t += 2)
      axpby_accumulate_rows_avx2(decoded + term_rows[t] * count, scales[t],
                                 decoded + term_rows[t + 1] * count,
                                 scales[t + 1], count, c);
    if (t < end)
      accumulate_row_avx2(decoded + term_rows[t] * count, scales[t], count, c);
  }
}

// --- table ------------------------------------------------------------------

/// int64 bins stay scalar (see file comment); address-taking wrappers over
/// the inline templates.
void quantize_bins_i64(const double* c, std::int64_t* bins, index_t count,
                       double inv, double r) {
  quantize_bins<std::int64_t>(c, bins, count, inv, r);
}
void unbin_block_i64(const std::int64_t* f, index_t count, double scale,
                     double* c) {
  unbin_block<std::int64_t>(f, count, scale, c);
}
void decode_lincomb_i64(const std::int64_t* const* f, const double* s,
                        index_t num_operands, index_t count, double* c) {
  decode_lincomb<std::int64_t>(f, s, num_operands, count, c);
}
void decode_lincomb_multi_i64(const std::int64_t* const* rows,
                              index_t num_rows, const double* scales,
                              const index_t* term_rows, const index_t* offsets,
                              index_t num_outputs, index_t count,
                              double* decoded, double* const* out) {
  decode_lincomb_multi<std::int64_t>(rows, num_rows, scales, term_rows,
                                     offsets, num_outputs, count, decoded,
                                     out);
}

template <typename BinT>
constexpr BinKernels<BinT> avx2_bin_kernels() {
  return {&quantize_bins_avx2<BinT>, &unbin_block_avx2<BinT>,
          &decode_lincomb_avx2<BinT>, &decode_lincomb_multi_avx2<BinT>};
}

}  // namespace

namespace internal {

const KernelTable* avx2_table() {
  static const KernelTable table = {
      "avx2",
      &max_abs_avx2,
      avx2_bin_kernels<std::int8_t>(),
      avx2_bin_kernels<std::int16_t>(),
      avx2_bin_kernels<std::int32_t>(),
      {&quantize_bins_i64, &unbin_block_i64, &decode_lincomb_i64,
       &decode_lincomb_multi_i64},
  };
  return &table;
}

}  // namespace internal
}  // namespace pyblaz::kernels

#else  // !defined(__AVX2__)

namespace pyblaz::kernels::internal {

const KernelTable* avx2_table() { return nullptr; }

}  // namespace pyblaz::kernels::internal

#endif
