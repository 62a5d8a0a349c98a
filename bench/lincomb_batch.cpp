/// Batched lincomb benchmark: what ops::lincomb_batch buys over evaluating
/// the same expressions one ops::lincomb call at a time.
///
///   - shared3of4_i32: the acceptance workload — K=4 expressions of arity 4
///     over a 7-array operand set where every expression shares 3 operands
///     (16 terms, 7 distinct), int32 bins.  "sequential" evaluates the 4
///     requests as 4 lincomb calls; "batch" is one lincomb_batch call that
///     decodes each distinct operand's coefficient row once per block and
///     fans it into all 4 outputs.  The batch-over-sequential ratio is the
///     headline acceptance number (>= 1.5x single-thread).  int32 bins make
///     the 7-operand set ~7 MB — well past L2 on typical hosts — so the
///     sequential path re-reads 16 bin rows per block out of the slower cache
///     levels while the batch reads each of the 7 distinct rows once; that
///     traffic gap is the regime the decode-amortization model describes.
///   - shared3of4_i8: the same expressions over int8 bins — the honesty row
///     for cache-resident narrow-bin workloads, where int->double conversion
///     is a small fraction of the work and the ratio sits near 1.0x (the
///     batch then mostly saves per-call overhead, not decode work).
///   - noshare: 4 expressions with fully disjoint operand sets, where
///     lincomb_batch detects nothing is shared and falls back to exactly the
///     sequential path; the ratio should sit near 1.0x.
///
/// Every run first verifies the batch outputs bit-identical (indices and
/// biggest both) to per-expression sequential evaluation and exits nonzero
/// on any mismatch, so wiring this into CI gates correctness even though the
/// >= 1.5x ratio check below only warns.
///
/// Usage: bench_lincomb_batch [OUTPUT.json] [--smoke]
///
/// Writes BENCH_lincomb_batch.local.json by default (gitignored; pass a path
/// when refreshing the committed baseline via tools/bench_merge.py).  --smoke
/// shrinks the arrays for CI.  The batch[] JSON section is diffed by
/// tools/bench_compare.py like any other section.  Timing is single-thread
/// (CC_THREADS pinned to 1 here) to keep the ratio a pure
/// decode-amortization measurement.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/util/rng.hpp"
#include "core/util/timer.hpp"

namespace {

using namespace pyblaz;  // NOLINT

struct Result {
  std::string name;  // "shared3of4_i32", "shared3of4_i8", "noshare"
  std::string impl;  // "sequential", "batch"
  std::string shape;
  double seconds_per_call = 0.0;   // One call = all K expressions.
  double elements_per_call = 0.0;  // K * numel.
  int expressions = 0;
  int distinct_operands = 0;
};

/// Interleaved best-of-trials timing for a (sequential, batch) pair.  One
/// call here is milliseconds of compute whose ratio is partly a memory-system
/// property, so the two sides are timed in ALTERNATING trials: slow drift
/// (frequency scaling, a noisy co-tenant, page-cache state) lands on both
/// sides instead of biasing whichever happened to run second.  Best-of per
/// side, like bench_micro_kernels.
std::pair<double, double> time_pair(const std::function<void()>& a,
                                    const std::function<void()>& b) {
  constexpr double kTrialSeconds = 0.2;
  constexpr int kTrials = 7;

  a();  // Warm both paths (allocator, page cache, branch predictors).
  b();
  std::int64_t reps = 1;
  for (;;) {
    Timer timer;
    for (std::int64_t i = 0; i < reps; ++i) a();
    const double elapsed = timer.seconds();
    if (elapsed > kTrialSeconds / 4 || reps > (1LL << 30)) break;
    reps = elapsed <= 0.0
               ? reps * 16
               : std::max<std::int64_t>(
                     reps + 1, static_cast<std::int64_t>(
                                   static_cast<double>(reps) * kTrialSeconds /
                                   elapsed * 0.5));
  }

  double best_a = 1e300;
  double best_b = 1e300;
  for (int trial = 0; trial < kTrials; ++trial) {
    {
      Timer timer;
      for (std::int64_t i = 0; i < reps; ++i) a();
      best_a = std::min(best_a, timer.seconds() / static_cast<double>(reps));
    }
    {
      Timer timer;
      for (std::int64_t i = 0; i < reps; ++i) b();
      best_b = std::min(best_b, timer.seconds() / static_cast<double>(reps));
    }
  }
  return {best_a, best_b};
}

std::string shape_string(const Shape& shape) {
  std::string text;
  for (int axis = 0; axis < shape.ndim(); ++axis) {
    if (axis) text += "x";
    text += std::to_string(shape[axis]);
  }
  return text;
}

class Harness {
 public:
  /// Time a sequential/batch pair with interleaved trials, record both rows.
  void run_pair(const std::string& name, const Shape& shape, double elements,
                int expressions, int distinct,
                const std::function<void()>& sequential,
                const std::function<void()>& batch) {
    const auto [seq_s, batch_s] = time_pair(sequential, batch);
    add({name, "sequential", shape_string(shape), seq_s, elements,
         expressions, distinct});
    add({name, "batch", shape_string(shape), batch_s, elements, expressions,
         distinct});
  }

  const Result* find(const std::string& name, const std::string& impl) const {
    for (const auto& r : results_)
      if (r.name == name && r.impl == impl) return &r;
    return nullptr;
  }

 private:
  void add(Result result) {
    std::printf("%-15s %-10s %-10s %12.1f us/call  (K=%d, %d distinct)\n",
                result.name.c_str(), result.impl.c_str(),
                result.shape.c_str(), result.seconds_per_call * 1e6,
                result.expressions, result.distinct_operands);
    std::fflush(stdout);
    results_.push_back(std::move(result));
  }

 public:

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\n  \"schema\": \"pyblaz-bench-kernels-v1\",\n");
    std::fprintf(f, "  \"batch\": [\n");
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Result& r = results_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"impl\": \"%s\", \"shape\": "
                   "\"%s\", \"seconds_per_call\": %.6e, \"elements_per_call\": "
                   "%.0f, \"expressions\": %d, \"distinct_operands\": %d}%s\n",
                   r.name.c_str(), r.impl.c_str(), r.shape.c_str(),
                   r.seconds_per_call, r.elements_per_call, r.expressions,
                   r.distinct_operands, i + 1 < results_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<Result> results_;
};

/// A request batch plus the arrays backing it (requests hold pointers).
struct Workload {
  std::vector<CompressedArray> arrays;
  std::vector<std::vector<const CompressedArray*>> operand_lists;
  std::vector<std::vector<double>> weight_lists;
  int distinct = 0;

  std::vector<ops::LincombRequest> requests() const {
    std::vector<ops::LincombRequest> reqs;
    reqs.reserve(operand_lists.size());
    for (std::size_t k = 0; k < operand_lists.size(); ++k)
      reqs.push_back({std::span<const CompressedArray* const>(
                          operand_lists[k].data(), operand_lists[k].size()),
                      std::span<const double>(weight_lists[k]), 0.0});
    return reqs;
  }
};

/// K=4 arity-4 requests over 3 shared + 4 unique arrays (16 terms, 7
/// distinct) — the acceptance workload from ISSUE 10.
Workload make_shared_workload(const Compressor& compressor,
                              const Shape& shape) {
  Workload w;
  Rng rng(7);
  for (int i = 0; i < 7; ++i)
    w.arrays.push_back(compressor.compress(random_smooth(shape, rng, 6)));
  for (int k = 0; k < 4; ++k) {
    w.operand_lists.push_back(
        {&w.arrays[0], &w.arrays[1], &w.arrays[2], &w.arrays[3 + k]});
    w.weight_lists.push_back({1.0, -0.25 * (k + 1), 0.5, 0.125 * (k + 1)});
  }
  w.distinct = 7;
  return w;
}

/// K=4 arity-2 requests with fully disjoint operands (8 terms, 8 distinct):
/// lincomb_batch falls back to the sequential path, so this row measures the
/// fallback's overhead honestly.
Workload make_noshare_workload(const Compressor& compressor,
                               const Shape& shape) {
  Workload w;
  Rng rng(9);
  for (int i = 0; i < 8; ++i)
    w.arrays.push_back(compressor.compress(random_smooth(shape, rng, 6)));
  for (int k = 0; k < 4; ++k) {
    w.operand_lists.push_back({&w.arrays[2 * k], &w.arrays[2 * k + 1]});
    w.weight_lists.push_back({0.75, -0.5 * (k + 1)});
  }
  w.distinct = 8;
  return w;
}

/// Evaluates @p reqs one lincomb call at a time into @p out, releasing the
/// previous contents first.  Both timed paths use this release-before-evaluate
/// discipline: freeing the prior results before computing lets the allocator
/// serve every ~1 MB output buffer from the same warm pages call after call.
/// Building the new results while the old ones are still live instead forces
/// fresh mappings each call, and the page-fault churn it leaves behind was
/// measured to slow the OTHER path's trials by ~35% — poisoning the ratio,
/// not just the absolute numbers.
void eval_sequential(std::span<const ops::LincombRequest> reqs,
                     std::vector<CompressedArray>& out) {
  out.clear();
  out.reserve(reqs.size());
  for (const auto& req : reqs)
    out.push_back(ops::lincomb(req.operands, req.weights, req.bias));
}

/// The CI gate: batch outputs must match sequential bit-for-bit.
bool check_bit_identity(const Workload& w, const char* label) {
  const auto reqs = w.requests();
  std::vector<CompressedArray> sequential;
  eval_sequential(reqs, sequential);
  const std::vector<CompressedArray> batch =
      ops::lincomb_batch(std::span<const ops::LincombRequest>(reqs));
  if (batch.size() != sequential.size()) {
    std::fprintf(stderr, "FAIL %s: batch returned %zu results, expected %zu\n",
                 label, batch.size(), sequential.size());
    return false;
  }
  for (std::size_t k = 0; k < batch.size(); ++k) {
    if (batch[k].indices != sequential[k].indices ||
        batch[k].biggest != sequential[k].biggest) {
      std::fprintf(stderr,
                   "FAIL %s: output %zu differs from sequential lincomb — "
                   "bit-identity contract broken\n",
                   label, k);
      return false;
    }
  }
  return true;
}

void bench_workload(Harness& harness, const Workload& w,
                    const std::string& name, const Shape& shape) {
  const auto reqs = w.requests();
  const double elements = static_cast<double>(reqs.size()) *
                          static_cast<double>(shape.volume());
  const int k = static_cast<int>(reqs.size());

  std::vector<CompressedArray> sink;
  harness.run_pair(
      name, shape, elements, k, w.distinct,
      [&] { eval_sequential(reqs, sink); },
      [&] {
        sink.clear();  // Release-before-evaluate; see eval_sequential.
        sink = ops::lincomb_batch(std::span<const ops::LincombRequest>(reqs));
      });
  if (sink.empty()) std::printf("unreachable\n");  // Defeat dead-code elim.
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_lincomb_batch.local.json";
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0)
      smoke = true;
    else
      out_path = argv[a];
  }

  // Single-thread by contract: the acceptance ratio is a decode-amortization
  // measurement, not a scheduler one (and CI hosts are often single-core).
  parallel::set_num_threads(1);

  const Shape array_shape = smoke ? Shape{96, 96} : Shape{512, 512};
  const Shape block_shape{8, 8};
  Compressor comp_i32({.block_shape = block_shape,
                       .float_type = FloatType::kFloat32,
                       .index_type = IndexType::kInt32});
  Compressor comp_i8({.block_shape = block_shape,
                      .float_type = FloatType::kFloat32,
                      .index_type = IndexType::kInt8});

  const Workload shared_i32 = make_shared_workload(comp_i32, array_shape);
  const Workload shared_i8 = make_shared_workload(comp_i8, array_shape);
  const Workload noshare = make_noshare_workload(comp_i32, array_shape);

  // Gate before timing: a fast batch that computes different bits is a bug,
  // not a result.
  if (!check_bit_identity(shared_i32, "shared3of4_i32") ||
      !check_bit_identity(shared_i8, "shared3of4_i8") ||
      !check_bit_identity(noshare, "noshare"))
    return 1;
  std::printf("bit-identity check passed (batch == sequential, all "
              "workloads)\n\n");

  Harness harness;
  bench_workload(harness, shared_i32, "shared3of4_i32", array_shape);
  bench_workload(harness, shared_i8, "shared3of4_i8", array_shape);
  bench_workload(harness, noshare, "noshare", array_shape);

  const Result* seq = harness.find("shared3of4_i32", "sequential");
  const Result* bat = harness.find("shared3of4_i32", "batch");
  if (seq && bat && bat->seconds_per_call > 0) {
    const double speedup = seq->seconds_per_call / bat->seconds_per_call;
    std::printf("\nbatched evaluation speedup (K=4, 3 of 4 operands shared, "
                "int32 bins, 1 thread): %.2fx\n",
                speedup);
    if (!smoke && speedup < 1.5)
      std::fprintf(stderr,
                   "warning: batch measured <1.5x over sequential; expected "
                   ">=1.5x on the full-size shared3of4_i32 workload — rerun "
                   "on a quiet machine before trusting this\n");
  }
  const Result* seq8 = harness.find("shared3of4_i8", "sequential");
  const Result* bat8 = harness.find("shared3of4_i8", "batch");
  if (seq8 && bat8 && bat8->seconds_per_call > 0)
    std::printf("int8-bin ratio (cache-resident, expect ~1.0-1.1x): %.2fx\n",
                seq8->seconds_per_call / bat8->seconds_per_call);
  const Result* nseq = harness.find("noshare", "sequential");
  const Result* nbat = harness.find("noshare", "batch");
  if (nseq && nbat && nbat->seconds_per_call > 0)
    std::printf("no-share fallback ratio (should be ~1.0x): %.2fx\n",
                nseq->seconds_per_call / nbat->seconds_per_call);

  if (!harness.write_json(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
