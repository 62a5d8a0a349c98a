/// Decoded-block cache benchmark: measures what the cache subsystem
/// (core/cache/block_cache.hpp) buys and what it costs.
///
///   - roi_read: a hot 24x24 window read repeatedly through decompress_roi
///     with the cache warm ("cached"), with the cache off ("direct": partial
///     per-block decode every call), and via the pre-ROI alternative of
///     decompressing the whole array per read ("full").  The cached-over-full
///     ratio is the headline acceptance number (>= 5x on a cache-resident
///     hot set).
///   - get_sweep: a fixed pseudo-random single-element get() stream under a
///     capacity sweep; each entry records its measured hit rate, so the JSON
///     carries the hit-rate curve, not just timings.
///   - write_set: one write per block across a working set, through the
///     cache (set() + one flush_cache() per call) and with the cache off
///     (every set() pays an immediate decode + re-encode) — the write-back
///     overhead comparison.
///
/// Usage: bench_block_cache [OUTPUT.json] [--smoke]
///
/// Writes BENCH_cache.local.json by default (gitignored; pass a path when
/// refreshing the committed baseline via tools/bench_merge.py).  --smoke
/// shrinks the array and the sweep for CI.  The cache[] JSON section is
/// diffed by tools/bench_compare.py like any other section; the >= 5x
/// cached-over-full check warns from here.  The determinism contract means
/// none of these knobs change a single output bit; the test suite pins that,
/// this harness only measures time.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "core/cache/block_cache.hpp"
#include "core/codec/compressor.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/util/rng.hpp"
#include "core/util/timer.hpp"

namespace {

using namespace pyblaz;  // NOLINT

struct Result {
  std::string name;  // "roi_read", "get_sweep", "write_set"
  std::string impl;  // "cached"/"direct"/"full" or "c<capacity>"
  std::string shape;
  double seconds_per_call = 0.0;
  double elements_per_call = 0.0;
  double hit_rate = -1.0;  // Fraction of lookups served hot; -1 = n/a.
};

/// Best-of-trials timing, same calibration scheme as bench_micro_kernels.
double time_op(const std::function<void()>& op) {
  constexpr double kTrialSeconds = 0.04;
  constexpr int kTrials = 3;

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
  void run(const std::string& name, const std::string& impl,
           const Shape& shape, double elements, double hit_rate,
           const std::function<void()>& op) {
    Result result{name, impl, shape_string(shape), time_op(op), elements,
                  hit_rate};
    std::printf("%-12s %-8s %-10s %12.1f ns/call", name.c_str(), impl.c_str(),
                result.shape.c_str(), result.seconds_per_call * 1e9);
    if (hit_rate >= 0.0) std::printf("  %5.1f%% hits", hit_rate * 100.0);
    std::printf("\n");
    std::fflush(stdout);
    results_.push_back(std::move(result));
  }

  /// Patch the hit rate of the most recent entry (measured after timing).
  void set_last_hit_rate(double hit_rate) {
    if (!results_.empty()) results_.back().hit_rate = hit_rate;
  }

  const Result* find(const std::string& name, const std::string& impl) const {
    for (const auto& r : results_)
      if (r.name == name && r.impl == impl) return &r;
    return nullptr;
  }

  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\n  \"schema\": \"pyblaz-bench-kernels-v1\",\n");
    std::fprintf(f, "  \"cache\": [\n");
    for (std::size_t i = 0; i < results_.size(); ++i) {
      const Result& r = results_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"impl\": \"%s\", \"shape\": "
                   "\"%s\", \"seconds_per_call\": %.6e, \"elements_per_call\": "
                   "%.0f, \"hit_rate\": %.4f}%s\n",
                   r.name.c_str(), r.impl.c_str(), r.shape.c_str(),
                   r.seconds_per_call, r.elements_per_call, r.hit_rate,
                   i + 1 < results_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<Result> results_;
};

double hit_rate_of(const CompressedArray& array) {
  const cache::BlockCache* cache = array.block_cache();
  if (!cache) return -1.0;
  const auto stats = cache->stats();
  const double total = static_cast<double>(stats.hits + stats.misses);
  return total > 0.0 ? static_cast<double>(stats.hits) / total : -1.0;
}

/// Hot-window reads: cached vs direct partial decode vs full decompress.
void bench_roi_read(Harness& harness, const Compressor& compressor,
                    const CompressedArray& compressed, const Shape& shape) {
  const std::vector<index_t> lo = {8, 8};
  const std::vector<index_t> hi = {32, 32};
  const double roi_elements = 24.0 * 24.0;

  cache::set_default_capacity(64);
  const CompressedArray cached = compressed;
  NDArray<double> roi = cached.decompress_roi(lo, hi);  // Warm the hot set.
  harness.run("roi_read", "cached", shape, roi_elements, -1.0,
              [&] { roi = cached.decompress_roi(lo, hi); });
  harness.set_last_hit_rate(hit_rate_of(cached));

  cache::set_default_capacity(0);
  const CompressedArray direct = compressed;
  harness.run("roi_read", "direct", shape, roi_elements, -1.0,
              [&] { roi = direct.decompress_roi(lo, hi); });

  NDArray<double> full = compressor.decompress(compressed);
  harness.run("roi_read", "full", shape, roi_elements, -1.0,
              [&] { full = compressor.decompress(compressed); });
}

/// Hit-rate curve: one fixed pseudo-random get() stream, capacity swept.
void bench_get_sweep(Harness& harness, const CompressedArray& compressed,
                     const Shape& shape, const std::vector<index_t>& capacities,
                     index_t stream_length) {
  // The access stream is fixed across capacities (and runs), so the hit-rate
  // column is a property of capacity alone.
  Rng rng(12);
  std::vector<std::vector<index_t>> stream;
  stream.reserve(static_cast<std::size_t>(stream_length));
  for (index_t i = 0; i < stream_length; ++i) {
    std::vector<index_t> idx(static_cast<std::size_t>(shape.ndim()));
    for (int axis = 0; axis < shape.ndim(); ++axis)
      idx[static_cast<std::size_t>(axis)] = rng.integer(0, shape[axis] - 1);
    stream.push_back(std::move(idx));
  }

  for (index_t capacity : capacities) {
    cache::set_default_capacity(capacity);
    const CompressedArray array = compressed;
    double sink = 0.0;
    index_t next = 0;
    harness.run("get_sweep", "c" + std::to_string(capacity), shape, 1.0, -1.0,
                [&] {
                  sink += array.get(stream[static_cast<std::size_t>(next)]);
                  next = (next + 1) % stream_length;
                });
    harness.set_last_hit_rate(hit_rate_of(array));
    if (sink == 1e300) std::printf("unreachable\n");  // Defeat dead-code elim.
  }
}

/// Write-back: one write per block over a working set, cached (deferred
/// re-encode at flush, decoded buffers reused across calls) vs cache-off
/// (every set() is a full decode + re-encode of its block).
void bench_write_set(Harness& harness, const CompressedArray& compressed,
                     const Shape& shape) {
  const Shape grid = compressed.block_grid();
  std::vector<std::vector<index_t>> targets;
  for_each_index(grid, [&](const std::vector<index_t>& block_idx) {
    std::vector<index_t> element = block_idx;
    for (std::size_t axis = 0; axis < element.size(); ++axis)
      element[axis] *= compressed.block_shape[static_cast<int>(axis)];
    targets.push_back(std::move(element));
  });
  const double elements = static_cast<double>(targets.size());
  double value = 0.0;

  cache::set_default_capacity(compressed.num_blocks());
  CompressedArray cached = compressed;
  harness.run("write_set", "cached", shape, elements, -1.0, [&] {
    for (const auto& idx : targets) cached.set(idx, value);
    value += 1.0 / 1024.0;
    cached.flush_cache();
  });

  cache::set_default_capacity(0);
  CompressedArray direct = compressed;
  harness.run("write_set", "direct", shape, elements, -1.0, [&] {
    for (const auto& idx : targets) direct.set(idx, value);
    value += 1.0 / 1024.0;
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_cache.local.json";
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--smoke") == 0)
      smoke = true;
    else
      out_path = argv[a];
  }

  const Shape array_shape = smoke ? Shape{96, 96} : Shape{256, 256};
  const Shape block_shape{8, 8};
  const std::vector<index_t> capacities =
      smoke ? std::vector<index_t>{16, 144}
            : std::vector<index_t>{16, 64, 256, 1024};
  const index_t stream_length = smoke ? 512 : 4096;

  Compressor compressor({.block_shape = block_shape,
                         .float_type = FloatType::kFloat32,
                         .index_type = IndexType::kInt8});
  Rng rng(11);
  const CompressedArray compressed =
      compressor.compress(random_smooth(array_shape, rng, 6));

  Harness harness;
  bench_roi_read(harness, compressor, compressed, array_shape);
  bench_get_sweep(harness, compressed, array_shape, capacities, stream_length);
  bench_write_set(harness, compressed, array_shape);
  cache::set_default_capacity(0);  // Restore the CC_CACHE_BLOCKS default.

  const Result* cached = harness.find("roi_read", "cached");
  const Result* direct = harness.find("roi_read", "direct");
  const Result* full = harness.find("roi_read", "full");
  if (cached && full && cached->seconds_per_call > 0) {
    const double over_full = full->seconds_per_call / cached->seconds_per_call;
    const double over_direct =
        direct ? direct->seconds_per_call / cached->seconds_per_call : 0.0;
    std::printf("\nhot-ROI read speedup: %.1fx over full decompress, "
                "%.1fx over direct partial decode\n",
                over_full, over_direct);
    if (over_full < 5.0)
      std::fprintf(stderr,
                   "warning: cached hot-ROI read measured <5x over full "
                   "decompress; expected >=5x on a cache-resident hot set — "
                   "rerun on a quiet machine before trusting this\n");
  }
  const Result* wb_cached = harness.find("write_set", "cached");
  const Result* wb_direct = harness.find("write_set", "direct");
  if (wb_cached && wb_direct && wb_cached->seconds_per_call > 0)
    std::printf("write-back (set all blocks + flush): %.2fx over "
                "cache-off immediate re-encode\n",
                wb_direct->seconds_per_call / wb_cached->seconds_per_call);

  if (!harness.write_json(out_path)) {
    std::fprintf(stderr, "failed to write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
