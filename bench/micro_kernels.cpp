/// JSON-emitting micro-benchmark harness for the codec kernel layer: times
/// the block transform (factorized fast path vs dense matrix oracle), the
/// shared rebin/unbin kernels, end-to-end compress/decompress,
/// compressed-space add, the fused n-ary lincomb vs the chained per-op
/// sequence it replaces, and the expression-template front end vs the
/// handwritten lincomb call it compiles to (expected ~zero overhead), per
/// block shape.
///
/// Usage: bench_micro_kernels [OUTPUT.json]
///
/// Writes BENCH_kernels.local.json (gitignored; pass a path to write
/// elsewhere, e.g. when refreshing the committed BENCH_kernels.json
/// baseline) and prints a human-readable table plus the fast-over-dense
/// speedups.  Compare two runs with
/// tools/bench_compare.py to catch regressions; docs/PERF.md explains the
/// schema and records this PR's trajectory.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "blaz/blaz.hpp"
#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/kernels/fast_transform.hpp"
#include "core/kernels/rebin.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/transform/block_transform.hpp"
#include "core/util/rng.hpp"
#include "core/util/timer.hpp"
#include "zfpx/zfpx.hpp"

namespace {

using namespace pyblaz;  // NOLINT

struct Result {
  std::string name;   // e.g. "transform_forward"
  std::string kind;   // "dct", "haar", or "" when not transform-specific
  std::string impl;   // "fast", "dense", or "" when there is only one path
  std::string shape;  // e.g. "8x8x8" (block shape or array shape)
  double seconds_per_call = 0.0;
  double elements_per_call = 0.0;
};

/// Best-of-trials timing: calibrate the repetition count until a trial runs
/// at least ~10 ms (targeting ~20 ms), then report the fastest of three
/// trials' seconds per call.
double time_op(const std::function<void()>& op) {
  constexpr double kTrialSeconds = 0.04;
  constexpr int kTrials = 3;

  // Calibrate.
  std::int64_t reps = 1;
  for (;;) {
    Timer timer;
    for (std::int64_t i = 0; i < reps; ++i) op();
    const double elapsed = timer.seconds();
    if (elapsed > kTrialSeconds / 4 || reps > (1LL << 30)) break;
    reps = elapsed <= 0.0
               ? reps * 16
               : std::max<std::int64_t>(
                     reps + 1, static_cast<std::int64_t>(
                                   static_cast<double>(reps) * kTrialSeconds /
                                   elapsed * 0.5));
  }

  double best = 1e300;
  for (int trial = 0; trial < kTrials; ++trial) {
    Timer timer;
    for (std::int64_t i = 0; i < reps; ++i) op();
    best = std::min(best, timer.seconds() / static_cast<double>(reps));
  }
  return best;
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
  void run(const std::string& name, const std::string& kind,
           const std::string& impl, const Shape& shape, double elements,
           const std::function<void()>& op) {
    Result result{name, kind, impl, shape_string(shape), time_op(op), elements};
    std::printf("%-22s %-5s %-6s %-12s %12.1f ns/call %10.1f Melem/s\n",
                name.c_str(), kind.c_str(), impl.c_str(), result.shape.c_str(),
                result.seconds_per_call * 1e9,
                elements / result.seconds_per_call / 1e6);
    std::fflush(stdout);
    results_.push_back(std::move(result));
  }

  const Result* find(const std::string& name, const std::string& kind,
                     const std::string& impl, const std::string& shape) const {
    for (const auto& r : results_)
      if (r.name == name && r.kind == kind && r.impl == impl && r.shape == shape)
        return &r;
    return nullptr;
  }

  /// Fast-over-dense ratios for every (name, kind, shape) that has both.
  struct Speedup {
    std::string name, kind, shape;
    double fast_over_dense;
  };
  std::vector<Speedup> speedups() const {
    std::vector<Speedup> out;
    for (const auto& fast : results_) {
      if (fast.impl != "fast") continue;
      const Result* dense = find(fast.name, fast.kind, "dense", fast.shape);
      if (dense)
        out.push_back({fast.name, fast.kind, fast.shape,
                       dense->seconds_per_call / fast.seconds_per_call});
    }
    return out;
  }

  /// Fused-over-chained ratios for every (name, shape) measured under both
  /// lincomb paths (the one-terminal-rebin comparison).
  struct FusionSpeedup {
    std::string name, shape;
    double fused_over_chained;
  };
  std::vector<FusionSpeedup> fusion_speedups() const {
    std::vector<FusionSpeedup> out;
    for (const auto& fused : results_) {
      if (fused.impl != "fused") continue;
      const Result* chained = find(fused.name, fused.kind, "chained", fused.shape);
      if (chained)
        out.push_back({fused.name, fused.shape,
                       chained->seconds_per_call / fused.seconds_per_call});
    }
    return out;
  }

  /// Expression-front-end cost relative to the handwritten ops::lincomb call
  /// it flattens to, for every (name, shape) measured under both: the "expr"
  /// series divided by the "fused" series.  The front end only rearranges a
  /// few stack words before making the identical lincomb call, so this ratio
  /// is the zero-overhead assertion (~1.0 at t1, within timer noise).
  struct ExprOverhead {
    std::string name, shape;
    double expr_over_fused;
  };
  std::vector<ExprOverhead> expr_overheads() const {
    std::vector<ExprOverhead> out;
    for (const auto& expr : results_) {
      if (expr.impl != "expr") continue;
      const Result* fused = find(expr.name, expr.kind, "fused", expr.shape);
      if (fused)
        out.push_back({expr.name, expr.shape,
                       expr.seconds_per_call / fused->seconds_per_call});
    }
    return out;
  }

  /// Checksummed-container series: serialize/deserialize timed for the v2
  /// (unchecksummed) and v3 (CRC32 header + per-chunk) containers, with the
  /// stream size recorded so both the time and the byte overhead of the
  /// integrity layer stay measured.  Separate from results_ so baseline
  /// files recorded before the section existed still diff cleanly.
  void run_checksum(const std::string& name, const std::string& impl,
                    const Shape& shape, double elements, double stream_bytes,
                    const std::function<void()>& op) {
    Result result{name, "", impl, shape_string(shape), time_op(op), elements};
    std::printf("%-22s %-5s %-6s %-12s %12.1f ns/call %10.1f Melem/s\n",
                name.c_str(), "", impl.c_str(), result.shape.c_str(),
                result.seconds_per_call * 1e9,
                elements / result.seconds_per_call / 1e6);
    std::fflush(stdout);
    checksum_results_.push_back(std::move(result));
    checksum_bytes_.push_back(stream_bytes);
  }

  /// v3-over-v2 time ratios for every (name, shape) with both entries.
  struct ChecksumOverhead {
    std::string name, shape;
    double v3_over_v2_time;
    double v3_over_v2_bytes;
  };
  std::vector<ChecksumOverhead> checksum_overheads() const {
    std::vector<ChecksumOverhead> out;
    for (std::size_t i = 0; i < checksum_results_.size(); ++i) {
      const Result& v3 = checksum_results_[i];
      if (v3.impl != "v3") continue;
      for (std::size_t j = 0; j < checksum_results_.size(); ++j) {
        const Result& v2 = checksum_results_[j];
        if (v2.impl == "v2" && v2.name == v3.name && v2.shape == v3.shape)
          out.push_back({v3.name, v3.shape,
                         v3.seconds_per_call / v2.seconds_per_call,
                         checksum_bytes_[i] / checksum_bytes_[j]});
      }
    }
    return out;
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\n  \"schema\": \"pyblaz-bench-kernels-v1\",\n");
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Result& r = results_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"kind\": \"%s\", \"impl\": \"%s\", "
                   "\"shape\": \"%s\", \"seconds_per_call\": %.6e, "
                   "\"elements_per_call\": %.0f, \"elements_per_second\": "
                   "%.6e}%s\n",
                   r.name.c_str(), r.kind.c_str(), r.impl.c_str(),
                   r.shape.c_str(), r.seconds_per_call, r.elements_per_call,
                   r.elements_per_call / r.seconds_per_call,
                   i + 1 < results_.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"speedups\": [\n");
    const auto ratios = speedups();
    for (std::size_t i = 0; i < ratios.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"kind\": \"%s\", \"shape\": "
                   "\"%s\", \"fast_over_dense\": %.3f}%s\n",
                   ratios[i].name.c_str(), ratios[i].kind.c_str(),
                   ratios[i].shape.c_str(), ratios[i].fast_over_dense,
                   i + 1 < ratios.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"fusion_speedups\": [\n");
    const auto fusion = fusion_speedups();
    for (std::size_t i = 0; i < fusion.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"shape\": \"%s\", "
                   "\"fused_over_chained\": %.3f}%s\n",
                   fusion[i].name.c_str(), fusion[i].shape.c_str(),
                   fusion[i].fused_over_chained,
                   i + 1 < fusion.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"expr_overheads\": [\n");
    const auto overheads = expr_overheads();
    for (std::size_t i = 0; i < overheads.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"shape\": \"%s\", "
                   "\"expr_over_fused\": %.3f}%s\n",
                   overheads[i].name.c_str(), overheads[i].shape.c_str(),
                   overheads[i].expr_over_fused,
                   i + 1 < overheads.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"checksums\": [\n");
    for (std::size_t i = 0; i < checksum_results_.size(); ++i) {
      const Result& r = checksum_results_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"impl\": \"%s\", \"shape\": "
                   "\"%s\", \"seconds_per_call\": %.6e, \"elements_per_call\": "
                   "%.0f, \"stream_bytes\": %.0f}%s\n",
                   r.name.c_str(), r.impl.c_str(), r.shape.c_str(),
                   r.seconds_per_call, r.elements_per_call, checksum_bytes_[i],
                   i + 1 < checksum_results_.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"checksum_overheads\": [\n");
    const auto checksum_ratios = checksum_overheads();
    for (std::size_t i = 0; i < checksum_ratios.size(); ++i) {
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"shape\": \"%s\", "
                   "\"v3_over_v2_time\": %.3f, \"v3_over_v2_bytes\": %.4f}%s\n",
                   checksum_ratios[i].name.c_str(),
                   checksum_ratios[i].shape.c_str(),
                   checksum_ratios[i].v3_over_v2_time,
                   checksum_ratios[i].v3_over_v2_bytes,
                   i + 1 < checksum_ratios.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<Result> results_;
  std::vector<Result> checksum_results_;  // impl = container version.
  std::vector<double> checksum_bytes_;    // Parallel to checksum_results_.
};

void bench_transforms(Harness& harness) {
  const Shape kShapes[] = {Shape{4, 4},    Shape{8, 8},    Shape{16, 16},
                           Shape{32, 32},  Shape{4, 4, 4}, Shape{8, 8, 8},
                           Shape{16, 16, 16}};
  const TransformKind kKinds[] = {TransformKind::kDCT, TransformKind::kHaar};
  for (TransformKind kind : kKinds) {
    for (const Shape& shape : kShapes) {
      // Shapes where kAuto dispatches every axis to the dense path anyway
      // (short Haar axes) would time dense against itself and record a
      // vacuous ~1.0x "speedup" — skip the kAuto run there.
      bool any_fast_axis = false;
      for (int axis = 0; axis < shape.ndim(); ++axis)
        any_fast_axis |= shape[axis] > 1 &&
                         kernels::fast_axis_preferred(kind, shape[axis]);
      for (TransformImpl impl : {TransformImpl::kAuto, TransformImpl::kDense}) {
        if (impl == TransformImpl::kAuto && !any_fast_axis) continue;
        BlockTransform transform(kind, shape, impl);
        Rng rng(1);
        NDArray<double> block = random_normal(shape, rng);
        std::vector<double> data = block.vector();
        std::vector<double> scratch(static_cast<std::size_t>(block.size()));
        const char* impl_name = impl == TransformImpl::kAuto ? "fast" : "dense";
        const double volume = static_cast<double>(shape.volume());
        // Orthonormal transforms preserve norms, so repeatedly transforming
        // in place neither overflows nor decays: no per-call reset needed.
        harness.run("transform_forward", name(kind), impl_name, shape, volume,
                    [&] { transform.forward(data.data(), scratch.data()); });
        harness.run("transform_inverse", name(kind), impl_name, shape, volume,
                    [&] { transform.inverse(data.data(), scratch.data()); });
      }
    }
  }
}

void bench_rebin(Harness& harness) {
  const index_t kept = 512;
  const index_t num_blocks = 1024;
  Rng rng(2);
  NDArray<double> noise =
      random_normal(Shape{num_blocks * kept}, rng, 0.0, 2.0);
  const std::vector<double>& coeffs = noise.vector();
  std::vector<std::int8_t> bins(static_cast<std::size_t>(num_blocks * kept));
  std::vector<double> biggest(static_cast<std::size_t>(num_blocks));
  std::vector<double> decoded(static_cast<std::size_t>(num_blocks * kept));
  const double r = 127.0;
  const Shape row_shape{num_blocks, kept};

  harness.run("rebin_block", "", "", row_shape,
              static_cast<double>(num_blocks * kept), [&] {
                for (index_t kb = 0; kb < num_blocks; ++kb)
                  biggest[static_cast<std::size_t>(kb)] = kernels::rebin_block(
                      coeffs.data() + kb * kept, kept, r, FloatType::kFloat32,
                      bins.data() + kb * kept);
              });
  harness.run("unbin_block", "", "", row_shape,
              static_cast<double>(num_blocks * kept), [&] {
                for (index_t kb = 0; kb < num_blocks; ++kb)
                  kernels::unbin_block(bins.data() + kb * kept, kept,
                                       biggest[static_cast<std::size_t>(kb)] / r,
                                       decoded.data() + kb * kept);
              });
  // The decode of a fused 4-operand compressed-space combine, over four
  // cache-resident int8 rows.
  const std::int8_t* rows[4] = {bins.data(), bins.data() + kept,
                                bins.data() + 2 * kept, bins.data() + 3 * kept};
  const double weights[4] = {1.0, -0.5, 0.25, 0.125};
  harness.run("decode_lincomb4", "", "", row_shape,
              static_cast<double>(num_blocks * kept), [&] {
                for (index_t kb = 0; kb < num_blocks; ++kb)
                  kernels::decode_lincomb(rows, weights, 4, kept,
                                          decoded.data() + kb * kept);
              });
}

CompressorSettings codec_settings(const Shape& block, TransformImpl impl) {
  CompressorSettings settings;
  settings.block_shape = block;
  settings.float_type = FloatType::kFloat32;
  settings.index_type = IndexType::kInt8;
  settings.transform = TransformKind::kDCT;
  settings.transform_impl = impl;
  return settings;
}

void bench_codec(Harness& harness) {
  struct CodecCase {
    Shape array_shape;
    Shape block_shape;
  };
  const CodecCase kCases[] = {
      {Shape{256, 256}, Shape{8, 8}},
      {Shape{64, 64, 64}, Shape{8, 8, 8}},
  };
  for (const auto& c : kCases) {
    Rng rng(3);
    NDArray<double> array = random_smooth(c.array_shape, rng, 6);
    const double volume = static_cast<double>(c.array_shape.volume());
    for (TransformImpl impl : {TransformImpl::kAuto, TransformImpl::kDense}) {
      Compressor compressor(codec_settings(c.block_shape, impl));
      const char* impl_name = impl == TransformImpl::kAuto ? "fast" : "dense";
      CompressedArray compressed = compressor.compress(array);
      harness.run("compress", "dct", impl_name, c.array_shape, volume,
                  [&] { compressed = compressor.compress(array); });
      NDArray<double> decompressed = compressor.decompress(compressed);
      harness.run("decompress", "dct", impl_name, c.array_shape, volume,
                  [&] { decompressed = compressor.decompress(compressed); });
    }
  }
}

void bench_compressed_ops(Harness& harness) {
  const Shape array_shape{256, 256};
  Rng rng(4);
  Compressor compressor(codec_settings(Shape{8, 8}, TransformImpl::kAuto));
  const CompressedArray a =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const CompressedArray b =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const double volume = static_cast<double>(array_shape.volume());

  CompressedArray sum = ops::add(a, b);
  harness.run("compressed_add", "", "", array_shape, volume,
              [&] { sum = ops::add(a, b); });
  harness.run("compressed_add_scalar", "", "", array_shape, volume,
              [&] { sum = ops::add_scalar(a, 0.5); });
  double dot = 0.0;
  harness.run("compressed_dot", "", "", array_shape, volume,
              [&] { dot += ops::dot(a, b); });
}

/// The fused-pipeline comparison: fused n-ary lincomb (one pass over all
/// operands, one terminal rebin, workspace-backed coefficient row) against
/// the chained add/multiply_scalar sequence it replaces (one rebin and one
/// intermediate CompressedArray per binary op), plus the expression-template
/// front end writing the same combination naturally (which must compile to
/// the identical lincomb call — the "expr" series exists to keep that
/// zero-overhead claim measured).  The 3-operand case is the shape of a
/// simulation height update (eta' = eta - dt fx - dt fy); the 5-operand case
/// is an RK-style combine.
void bench_fused_lincomb(Harness& harness) {
  const Shape array_shape{256, 256};
  Rng rng(7);
  Compressor compressor(codec_settings(Shape{8, 8}, TransformImpl::kAuto));
  const CompressedArray a =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const CompressedArray b =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const CompressedArray c =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const CompressedArray d =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const CompressedArray e =
      compressor.compress(random_smooth(array_shape, rng, 6));
  const double volume = static_cast<double>(array_shape.volume());

  CompressedArray out = ops::lincomb({{1.0, &a}, {-0.5, &b}, {0.25, &c}});
  harness.run("compressed_lincomb3", "", "fused", array_shape, volume, [&] {
    out = ops::lincomb({{1.0, &a}, {-0.5, &b}, {0.25, &c}});
  });
  harness.run("compressed_lincomb3", "", "expr", array_shape, volume, [&] {
    out = a - 0.5 * b + 0.25 * c;
  });
  harness.run("compressed_lincomb3", "", "chained", array_shape, volume, [&] {
    out = ops::add(ops::add(a, ops::multiply_scalar(b, -0.5)),
                   ops::multiply_scalar(c, 0.25));
  });

  harness.run("compressed_lincomb5", "", "fused", array_shape, volume, [&] {
    out = ops::lincomb(
        {{1.0, &a}, {0.5, &b}, {0.25, &c}, {0.125, &d}, {-0.75, &e}});
  });
  harness.run("compressed_lincomb5", "", "expr", array_shape, volume, [&] {
    out = a + 0.5 * b + 0.25 * c + 0.125 * d - 0.75 * e;
  });
  harness.run("compressed_lincomb5", "", "chained", array_shape, volume, [&] {
    out = ops::add(
        ops::add(ops::add(ops::add(a, ops::multiply_scalar(b, 0.5)),
                          ops::multiply_scalar(c, 0.25)),
                 ops::multiply_scalar(d, 0.125)),
        ops::multiply_scalar(e, -0.75));
  });
}

/// Thread-scaling sweep over the parallel block-execution runtime: the
/// end-to-end codec plus the chunked serializer on the 64^3 workload at 1,
/// 2, and 4 threads (impl records the thread count, e.g. "t4").  The
/// determinism contract means every timed run produces identical bytes; the
/// thread count is purely a throughput knob.  On a single-core host the tN
/// entries land within noise of t1 — scaling numbers are only meaningful
/// where the hardware has cores to scale onto.
void bench_threaded_codec(Harness& harness) {
  const Shape array_shape{64, 64, 64};
  const Shape block_shape{8, 8, 8};
  Rng rng(6);
  NDArray<double> array = random_smooth(array_shape, rng, 6);
  const double volume = static_cast<double>(array_shape.volume());
  Compressor compressor(codec_settings(block_shape, TransformImpl::kAuto));
  CompressedArray compressed = compressor.compress(array);
  std::vector<std::uint8_t> stream = serialize(compressed);
  NDArray<double> decompressed = compressor.decompress(compressed);

  for (int threads : {1, 2, 4}) {
    parallel::set_num_threads(threads);
    const std::string impl = "t" + std::to_string(threads);
    harness.run("compress_threads", "dct", impl, array_shape, volume,
                [&] { compressed = compressor.compress(array); });
    harness.run("decompress_threads", "dct", impl, array_shape, volume,
                [&] { decompressed = compressor.decompress(compressed); });
    harness.run("serialize_threads", "", impl, array_shape, volume,
                [&] { stream = serialize(compressed); });
    harness.run("deserialize_threads", "", impl, array_shape, volume,
                [&] { compressed = deserialize(stream); });
  }
  parallel::set_num_threads(0);  // Restore the CC_THREADS / hardware default.
}

/// Integrity-layer cost: serialize/deserialize through the unchecksummed v2
/// container and the checksummed v3 default, on a 2-D and a 3-D workload.
/// The CRC32 work is one table-driven pass over the chunk payloads inside
/// the already-parallel chunk loops, so the expected time overhead is a few
/// percent and the byte overhead is 4 B + 4 B per ~64 KiB chunk; main()
/// warns when the v3/v2 time ratio exceeds 1.15 (warn-only).
void bench_checksums(Harness& harness) {
  struct ChecksumCase {
    Shape array_shape;
    Shape block_shape;
  };
  const ChecksumCase kCases[] = {
      {Shape{256, 256}, Shape{8, 8}},
      {Shape{64, 64, 64}, Shape{8, 8, 8}},
  };
  for (const auto& c : kCases) {
    Rng rng(9);
    NDArray<double> array = random_smooth(c.array_shape, rng, 6);
    const double volume = static_cast<double>(c.array_shape.volume());
    Compressor compressor(codec_settings(c.block_shape, TransformImpl::kAuto));
    const CompressedArray compressed = compressor.compress(array);

    std::vector<std::uint8_t> v2 = serialize_v2(compressed);
    std::vector<std::uint8_t> v3 = serialize(compressed);
    const double v2_bytes = static_cast<double>(v2.size());
    const double v3_bytes = static_cast<double>(v3.size());
    harness.run_checksum("serialize_container", "v2", c.array_shape, volume,
                         v2_bytes, [&] { v2 = serialize_v2(compressed); });
    harness.run_checksum("serialize_container", "v3", c.array_shape, volume,
                         v3_bytes, [&] { v3 = serialize(compressed); });
    CompressedArray decoded = deserialize(v2);
    harness.run_checksum("deserialize_container", "v2", c.array_shape, volume,
                         v2_bytes, [&] { decoded = deserialize(v2); });
    harness.run_checksum("deserialize_container", "v3", c.array_shape, volume,
                         v3_bytes, [&] { decoded = deserialize(v3); });
  }
}

/// The paper's comparison-baseline codecs, kept in the harness so their
/// block pipelines stay under the same regression tracking as pyblaz's.
void bench_baseline_codecs(Harness& harness) {
  const Shape array_shape{256, 256};
  Rng rng(5);
  NDArray<double> array = random_smooth(array_shape, rng, 6);
  const double volume = static_cast<double>(array_shape.volume());

  auto blaz_compressed = blaz::compress(array);
  harness.run("blaz_compress", "", "", array_shape, volume,
              [&] { blaz_compressed = blaz::compress(array); });
  NDArray<double> blaz_rt = blaz::decompress(blaz_compressed);
  harness.run("blaz_decompress", "", "", array_shape, volume,
              [&] { blaz_rt = blaz::decompress(blaz_compressed); });

  zfpx::Codec codec(2, 16.0);
  auto zfpx_stream = codec.compress(array);
  harness.run("zfpx_compress", "", "", array_shape, volume,
              [&] { zfpx_stream = codec.compress(array); });
  NDArray<double> zfpx_rt = codec.decompress(zfpx_stream, array.shape());
  harness.run("zfpx_decompress", "", "", array_shape, volume,
              [&] { zfpx_rt = codec.decompress(zfpx_stream, array.shape()); });
}

}  // namespace

int main(int argc, char** argv) {
  // The default is a gitignored name so running the harness from the repo
  // root never clobbers the committed BENCH_kernels.json baseline; pass the
  // path explicitly when refreshing the baseline itself.
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_kernels.local.json";

  Harness harness;
  bench_transforms(harness);
  bench_rebin(harness);
  bench_codec(harness);
  bench_compressed_ops(harness);
  bench_fused_lincomb(harness);
  bench_threaded_codec(harness);
  bench_checksums(harness);
  bench_baseline_codecs(harness);

  std::printf("\nfast-over-dense speedups:\n");
  for (const auto& s : harness.speedups())
    std::printf("  %-22s %-5s %-12s %6.2fx\n", s.name.c_str(), s.kind.c_str(),
                s.shape.c_str(), s.fast_over_dense);

  std::printf("\nfused-over-chained lincomb speedups:\n");
  for (const auto& s : harness.fusion_speedups())
    std::printf("  %-22s %-12s %6.2fx\n", s.name.c_str(), s.shape.c_str(),
                s.fused_over_chained);

  std::printf("\nexpression-front-end cost over handwritten lincomb"
              " (~1.00x expected):\n");
  bool expr_overhead_suspect = false;
  for (const auto& o : harness.expr_overheads()) {
    std::printf("  %-22s %-12s %6.2fx\n", o.name.c_str(), o.shape.c_str(),
                o.expr_over_fused);
    expr_overhead_suspect |= o.expr_over_fused > 1.10;
  }
  if (expr_overhead_suspect)
    std::fprintf(stderr,
                 "warning: expression front end measured >10%% over the "
                 "handwritten lincomb call; expected ~zero overhead — rerun "
                 "on a quiet machine before trusting this\n");

  std::printf("\nchecksummed container (v3 over v2):\n");
  bool checksum_suspect = false;
  for (const auto& o : harness.checksum_overheads()) {
    std::printf("  %-22s %-12s %6.2fx time %8.4fx bytes\n", o.name.c_str(),
                o.shape.c_str(), o.v3_over_v2_time, o.v3_over_v2_bytes);
    checksum_suspect |= o.v3_over_v2_time > 1.15;
  }
  if (checksum_suspect)
    std::fprintf(stderr,
                 "warning: checksummed v3 container measured >15%% over v2; "
                 "the CRC pass should ride inside the parallel chunk loops — "
                 "rerun on a quiet machine before trusting this\n");

  std::printf("\nthread scaling (t1 over tN, 64x64x64):\n");
  for (const char* name : {"compress_threads", "decompress_threads",
                           "serialize_threads", "deserialize_threads"}) {
    const Result* t1 = harness.find(name, "", "t1", "64x64x64");
    if (!t1) t1 = harness.find(name, "dct", "t1", "64x64x64");
    for (const char* impl : {"t2", "t4"}) {
      const Result* tn = harness.find(name, "", impl, "64x64x64");
      if (!tn) tn = harness.find(name, "dct", impl, "64x64x64");
      if (t1 && tn)
        std::printf("  %-22s %-3s %6.2fx\n", name, impl,
                    t1->seconds_per_call / tn->seconds_per_call);
    }
  }

  if (!harness.write_json(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
