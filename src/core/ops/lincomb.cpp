#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/codec/workspace.hpp"
#include "core/kernels/rebin.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/telemetry/trace.hpp"

namespace pyblaz::ops {

namespace {

/// One increment per lincomb call = one terminal rebin pass over the result,
/// visible in CC_STATS snapshots as ops.lincomb.rebin_passes.
telemetry::Counter& rebin_passes_counter() {
  static telemetry::Counter& counter =
      telemetry::counter("ops.lincomb.rebin_passes");
  return counter;
}

/// Calls bucketed by operand count: arities 1..7 get their own counter, the
/// tail shares one.  Resolved through a small static table so the hot path
/// never builds a name string.
telemetry::Counter& arity_counter(std::size_t num_operands) {
  static telemetry::Counter* const counters[] = {
      &telemetry::counter("ops.lincomb.arity1"),
      &telemetry::counter("ops.lincomb.arity2"),
      &telemetry::counter("ops.lincomb.arity3"),
      &telemetry::counter("ops.lincomb.arity4"),
      &telemetry::counter("ops.lincomb.arity5"),
      &telemetry::counter("ops.lincomb.arity6"),
      &telemetry::counter("ops.lincomb.arity7"),
      &telemetry::counter("ops.lincomb.arity8plus"),
  };
  return *counters[std::min<std::size_t>(num_operands, 8) - 1];
}

}  // namespace

/// The fused expression kernel behind the whole compressed-arithmetic family:
/// gather every operand's specified coefficients per block, accumulate the
/// weighted sum into one reusable per-thread coefficient row, and rebin once
/// at the end.  A chained ops::add sequence pays one rebin — the only error
/// source of Table I addition — per binary op; an n-term lincomb pays exactly
/// one, so it is both fewer passes and a strictly tighter error bound.
CompressedArray lincomb(std::span<const CompressedArray* const> operands,
                        std::span<const double> weights, double bias) {
  if (operands.empty())
    throw std::invalid_argument("lincomb: at least one operand required");
  if (operands.size() != weights.size())
    throw std::invalid_argument(
        "lincomb: weights.size() must equal operands.size()");
  const CompressedArray& first = *operands[0];
  for (const CompressedArray* operand : operands) {
    first.require_layout_match(*operand);
    internal::require_flushed(*operand, "lincomb");
  }
  if (bias != 0.0) internal::require_dc(first, "lincomb bias");

  static telemetry::Counter& calls = telemetry::counter("ops.lincomb.calls");
  static telemetry::Histogram& wall =
      telemetry::histogram("ops.lincomb.wall_ns");
  calls.increment();
  arity_counter(operands.size()).increment();
  telemetry::ScopedLatency latency(wall);
  telemetry::TraceSpan span("ops.lincomb",
                            static_cast<std::uint64_t>(operands.size()));

  const index_t num_blocks = first.num_blocks();
  const index_t kept = first.kept_per_block();
  const index_t num_operands = static_cast<index_t>(operands.size());
  const double r = static_cast<double>(first.radius());
  const double bias_shift = bias * internal::dc_scale(first.block_shape);

  CompressedArray out = internal::make_output(first);

  out.indices.visit_mutable([&](auto* out_data) {
    using BinT = std::remove_cv_t<std::remove_pointer_t<decltype(out_data)>>;
    // Layout matching guarantees one shared index type, so a single dispatch
    // covers every operand's bin row.
    std::vector<const BinT*> bases(operands.size());
    for (std::size_t i = 0; i < operands.size(); ++i)
      operands[i]->indices.visit([&](const auto* f) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(*f)>, BinT>)
          bases[i] = f;
      });

    parallel::parallel_for(
        0, num_blocks, parallel::default_grain(num_blocks),
        [&](index_t begin, index_t end) {
          // The kept-size coefficient row is the hot allocation; it comes
          // from the per-thread workspace and is reused across every block,
          // chunk, and lincomb call on this thread.  The per-operand pointer
          // and scale rows are a few machine words per chunk.
          double* coeffs = pyblaz::internal::coefficient_workspace(
              static_cast<std::size_t>(kept));
          std::vector<const BinT*> rows(operands.size());
          std::vector<double> scales(operands.size());
          for (index_t kb = begin; kb < end; ++kb) {
            for (std::size_t i = 0; i < operands.size(); ++i) {
              rows[i] = bases[i] + kb * kept;
              scales[i] =
                  weights[i] * operands[i]->biggest[static_cast<std::size_t>(kb)] /
                  r;
            }
            kernels::decode_lincomb(rows.data(), scales.data(), num_operands,
                                    kept, coeffs);
            if (bias_shift != 0.0) coeffs[0] += bias_shift;
            out.biggest[static_cast<std::size_t>(kb)] = kernels::rebin_block(
                coeffs, kept, r, first.float_type, out_data + kb * kept);
          }
        });
  });
  rebin_passes_counter().increment();
  return out;
}

CompressedArray lincomb(
    std::initializer_list<std::pair<double, const CompressedArray*>> terms,
    double bias) {
  std::vector<const CompressedArray*> operands;
  std::vector<double> weights;
  operands.reserve(terms.size());
  weights.reserve(terms.size());
  for (const auto& [weight, array] : terms) {
    weights.push_back(weight);
    operands.push_back(array);
  }
  return lincomb(std::span<const CompressedArray* const>(operands),
                 std::span<const double>(weights), bias);
}

CompressedArray linear_combination(double alpha, const CompressedArray& a,
                                   double beta, const CompressedArray& b) {
  // A two-term expression: flattens to the identical lincomb call.
  return (alpha * a + beta * b).eval();
}

}  // namespace pyblaz::ops
