#pragma once

#include <cstdint>

#include "core/ndarray/shape.hpp"
#include "core/transform/transform.hpp"

namespace pyblaz::kernels {

/// True when the factorized O(n log n) path can transform an axis of length
/// @p n: always for n = 1 (identity), the Lee/recursive DCT-II for
/// n in {2, 4, 8, 16, 32, 64, 128}, and the butterfly Haar for any power of
/// two.
bool fast_axis_supported(TransformKind kind, index_t n);

/// The only transform dispatch policy: the fixed rule in
/// fast_axis_preferred().  This enum and its no-op setter exist only because
/// perfbench/src/main.cpp still calls them, and the benchmark harness under
/// perfbench/ is kept unchanged so its runs stay comparable across library
/// changes.
enum class FastAxisPolicy : std::uint8_t { kFixed };
void set_fast_axis_policy(FastAxisPolicy policy);

/// True when the factorized path is supported AND preferred over the dense
/// matrix apply for this axis length — what TransformImpl::kAuto uses.  One
/// fixed, host-independent rule, so archive bits never depend on the
/// machine: every supported DCT size, and Haar n = 1 or n >= 8 (very short
/// Haar axes are dominated by butterfly level overhead, so the dense path
/// keeps them; measured in bench/micro_kernels.cpp).
bool fast_axis_preferred(TransformKind kind, index_t n);

/// Dense matrix contraction of one axis of a row-major block viewed as
/// (outer, n, inner), out of place (@p src -> @p dst): forward contracts
/// with basis rows, inverse with basis columns.  @p matrix is the n x n
/// orthonormal basis.  This is TransformImpl::kDense's kernel and the
/// oracle the factorized kernels are tested against.
void dense_transform_axis(const double* src, double* dst, const double* matrix,
                          index_t n, index_t outer, index_t inner,
                          bool forward);

/// In-place factorized transform along one axis of a row-major block viewed
/// as (outer, n, inner): each of the @p outer panels is an n x inner slab
/// whose n dimension is contracted with the orthonormal basis.  The butterfly
/// arithmetic runs elementwise across the inner dimension, so strided axes
/// vectorize as well as contiguous ones.
///
/// @p tmp must hold n * inner doubles and must not alias @p data.  Requires
/// fast_axis_supported(kind, n); call the dense matrix path otherwise.
void fast_transform_axis(TransformKind kind, double* data, double* tmp,
                         index_t n, index_t outer, index_t inner, bool forward);

}  // namespace pyblaz::kernels
