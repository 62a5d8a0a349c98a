#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/codec/workspace.hpp"
#include "core/kernels/rebin.hpp"
#include "core/ops/ops.hpp"
#include "core/ops/ops_internal.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/telemetry/trace.hpp"

namespace pyblaz::ops {

namespace {

/// Validated, deduplicated view of a request batch: the distinct operand set
/// plus every request's term list flattened into (row index, weight) arrays
/// with prefix offsets — exactly the layout kernels::decode_lincomb_multi
/// consumes.
struct BatchPlan {
  std::vector<const CompressedArray*> distinct;
  std::vector<index_t> term_rows;    ///< distinct[] index per term.
  std::vector<double> term_weights;  ///< weight per term.
  std::vector<index_t> offsets;     ///< requests.size() + 1 prefix offsets.
  std::vector<double> bias_shifts;  ///< DC shift per request.
};

BatchPlan plan_batch(std::span<const LincombRequest> requests) {
  for (const LincombRequest& req : requests) {
    if (req.operands.empty())
      throw std::invalid_argument(
          "lincomb_batch: every request needs at least one operand");
    if (req.operands.size() != req.weights.size())
      throw std::invalid_argument(
          "lincomb_batch: weights.size() must equal operands.size()");
  }
  const CompressedArray& first = *requests[0].operands[0];
  BatchPlan plan;
  plan.offsets.reserve(requests.size() + 1);
  plan.offsets.push_back(0);
  plan.bias_shifts.reserve(requests.size());
  std::unordered_map<const CompressedArray*, index_t> row_of;
  for (const LincombRequest& req : requests) {
    if (req.bias != 0.0) internal::require_dc(first, "lincomb_batch bias");
    for (std::size_t i = 0; i < req.operands.size(); ++i) {
      const CompressedArray* operand = req.operands[i];
      first.require_layout_match(*operand);
      internal::require_flushed(*operand, "lincomb_batch");
      auto [it, inserted] =
          row_of.try_emplace(operand, static_cast<index_t>(plan.distinct.size()));
      if (inserted) plan.distinct.push_back(operand);
      plan.term_rows.push_back(it->second);
      plan.term_weights.push_back(req.weights[i]);
    }
    plan.offsets.push_back(static_cast<index_t>(plan.term_rows.size()));
    plan.bias_shifts.push_back(req.bias *
                               internal::dc_scale(first.block_shape));
  }
  return plan;
}

}  // namespace

std::vector<CompressedArray> lincomb_batch(
    std::span<const LincombRequest> requests) {
  if (requests.empty()) return {};

  static telemetry::Counter& calls =
      telemetry::counter("ops.lincomb_batch.calls");
  static telemetry::Counter& expressions =
      telemetry::counter("ops.lincomb_batch.expressions");
  static telemetry::Counter& operands_distinct =
      telemetry::counter("ops.lincomb_batch.operands_distinct");
  static telemetry::Counter& decodes_avoided =
      telemetry::counter("ops.lincomb_batch.decodes_avoided");
  static telemetry::Counter& rebin_passes =
      telemetry::counter("ops.lincomb.rebin_passes");
  static telemetry::Histogram& wall =
      telemetry::histogram("ops.lincomb_batch.wall_ns");

  calls.increment();
  expressions.add(requests.size());
  telemetry::ScopedLatency latency(wall);
  telemetry::TraceSpan span("ops.lincomb_batch",
                            static_cast<std::uint64_t>(requests.size()));

  BatchPlan plan = plan_batch(requests);
  operands_distinct.add(plan.distinct.size());

  const std::size_t num_requests = requests.size();
  const std::size_t total_terms = plan.term_rows.size();
  const index_t num_rows = static_cast<index_t>(plan.distinct.size());

  // Nothing shared (or nothing to share against): sequential per-request
  // evaluation IS the batch semantics, so just run it.  lincomb bumps the
  // rebin-pass counter once per request itself.
  if (num_requests == 1 || total_terms == static_cast<std::size_t>(num_rows)) {
    std::vector<CompressedArray> results;
    results.reserve(num_requests);
    for (const LincombRequest& req : requests)
      results.push_back(lincomb(req.operands, req.weights, req.bias));
    return results;
  }

  const CompressedArray& first = *requests[0].operands[0];
  const index_t num_blocks = first.num_blocks();
  const index_t kept = first.kept_per_block();
  const index_t num_outputs = static_cast<index_t>(num_requests);
  const double r = static_cast<double>(first.radius());

  // Every term beyond the distinct set would have been a separate bin-row
  // decode in the sequential path, once per block.
  decodes_avoided.add(
      static_cast<std::uint64_t>(total_terms - plan.distinct.size()) *
      static_cast<std::uint64_t>(num_blocks));

  std::vector<CompressedArray> results;
  results.reserve(num_requests);
  for (std::size_t k = 0; k < num_requests; ++k)
    results.push_back(internal::make_output(first));

  results[0].indices.visit_mutable([&](auto* out0) {
    using BinT = std::remove_cv_t<std::remove_pointer_t<decltype(out0)>>;
    // One shared index type across operands and outputs (layout matching),
    // so a single dispatch covers every row.
    std::vector<const BinT*> bases(plan.distinct.size());
    for (std::size_t d = 0; d < plan.distinct.size(); ++d)
      plan.distinct[d]->indices.visit([&](const auto* f) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(*f)>, BinT>)
          bases[d] = f;
      });
    std::vector<BinT*> out_bases(num_requests);
    for (std::size_t k = 0; k < num_requests; ++k)
      results[k].indices.visit_mutable([&](auto* p) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(*p)>, BinT>)
          out_bases[k] = p;
      });

    // Per-term biggest-row base pointers, hoisted so the per-block scale loop
    // is two flat passes (gather + multiply, then a vectorizable divide)
    // instead of a pointer chase per term.
    std::vector<const double*> term_biggest(total_terms);
    for (std::size_t t = 0; t < total_terms; ++t)
      term_biggest[t] =
          plan.distinct[static_cast<std::size_t>(plan.term_rows[t])]
              ->biggest.data();

    parallel::parallel_for(
        0, num_blocks, parallel::default_grain(num_blocks),
        [&](index_t begin, index_t end) {
          // Lane 0: K coefficient rows the multi-kernel writes, one per
          // output.  Lane 1: the shared decode scratch — one full converted
          // double row per distinct operand (the kernel converts each row
          // once per block, then streams every output's passes over them).
          // Both come from the per-thread workspace and are reused across
          // blocks and chunks.
          double* coeffs = pyblaz::internal::coefficient_workspace(
              static_cast<std::size_t>(num_outputs) *
              static_cast<std::size_t>(kept));
          double* decoded = pyblaz::internal::coefficient_workspace(
              static_cast<std::size_t>(num_rows) *
                  static_cast<std::size_t>(kept),
              1);
          std::vector<const BinT*> rows(plan.distinct.size());
          std::vector<double> scales(total_terms);
          std::vector<double*> out_rows(num_requests);
          for (std::size_t k = 0; k < num_requests; ++k)
            out_rows[k] = coeffs + k * static_cast<std::size_t>(kept);
          for (index_t kb = begin; kb < end; ++kb) {
            for (std::size_t d = 0; d < plan.distinct.size(); ++d)
              rows[d] = bases[d] + kb * kept;
            // Same expression as lincomb's per-operand scale —
            // weights[i] * biggest[kb] / r, left to right — so the fused
            // pass rounds identically (the split multiply/divide loops keep
            // that order; the divide pass vectorizes, and IEEE division is
            // identical per lane).
            for (std::size_t t = 0; t < total_terms; ++t)
              scales[t] = plan.term_weights[t] *
                          term_biggest[t][static_cast<std::size_t>(kb)];
            for (std::size_t t = 0; t < total_terms; ++t)
              scales[t] = scales[t] / r;
            kernels::decode_lincomb_multi(
                rows.data(), num_rows, scales.data(), plan.term_rows.data(),
                plan.offsets.data(), num_outputs, kept, decoded,
                out_rows.data());
            for (std::size_t k = 0; k < num_requests; ++k) {
              if (plan.bias_shifts[k] != 0.0)
                out_rows[k][0] += plan.bias_shifts[k];
              results[k].biggest[static_cast<std::size_t>(kb)] =
                  kernels::rebin_block(out_rows[k], kept, r, first.float_type,
                                       out_bases[k] + kb * kept);
            }
          }
        });
  });
  // K terminal rebin passes — one per output, exactly as K lincomb calls
  // would have recorded.
  rebin_passes.add(num_requests);
  return results;
}

}  // namespace pyblaz::ops
