#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pyblaz::telemetry {

/// Runtime telemetry: named monotonic counters and streaming latency
/// histograms, collected always (the write path is a handful of relaxed
/// per-thread-shard atomic adds — cheap enough to leave on; the ≤2% overhead
/// bound on bench_micro_kernels is part of the acceptance for every PR that
/// touches a hot loop) and reported only on demand: snapshot()/to_json() at
/// any time, or automatically at process exit when CC_STATS=stderr|<path> is
/// set.  Tracing (core/telemetry/trace.hpp) is the opt-in counterpart.
///
/// Telemetry observes the data path, never branches it: nothing in this
/// subsystem feeds back into chunking, dispatch, or arithmetic, so every
/// determinism and bit-identity contract is untouched by construction.
///
/// Usage at a hot call site — resolve the handle once, then add:
///
///     static telemetry::Counter& calls =
///         telemetry::counter("codec.compress.calls");
///     calls.increment();
///
/// Handles are process-lifetime singletons with stable addresses; the only
/// lock is taken at first registration of a name.

/// Number of per-thread shards a counter/histogram stripes over.  Threads map
/// onto shards round-robin at first use; two threads sharing a shard is only
/// a (relaxed, correct) contention cost, never a correctness issue.
inline constexpr int kShards = 16;

namespace internal {
/// Stable shard slot of the calling thread, in [0, kShards).
int thread_slot();
}  // namespace internal

/// Monotonic counter: relaxed per-thread-shard adds, exact sum on read.
class Counter {
 public:
  void add(std::uint64_t n) {
    shards_[internal::thread_slot()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  void increment() { add(1); }

  /// Sum over all shards.  Monotonic; concurrent adds may or may not be
  /// included (relaxed), but nothing is ever lost or double-counted.
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& shard : shards_)
      total += shard.value.load(std::memory_order_relaxed);
    return total;
  }

  const std::string& name() const { return name_; }

 private:
  friend class Registry;
  explicit Counter(std::string name) : name_(std::move(name)) {}

  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };
  std::string name_;
  std::array<Shard, kShards> shards_;
};

/// Streaming histogram over fixed log-spaced buckets: 8 sub-buckets per
/// power of two (values below 8 are exact), so any recorded value lands in a
/// bucket whose width is at most 1/8 of its magnitude.  Quantiles read from a
/// snapshot are the lower bound of the bucket holding the target rank —
/// exact for values that are bucket boundaries, and never more than 12.5%
/// below the true sample quantile otherwise.
///
/// Values are plain uint64; the convention for latency histograms is
/// nanoseconds (record_seconds() converts).  Writes are two relaxed adds on
/// the caller's shard; snapshots merge shards without stopping writers.
class Histogram {
 public:
  static constexpr int kSubBits = 3;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 8.
  /// Values 0..7 occupy buckets 0..7; each further octave b (values in
  /// [2^b, 2^(b+1)) for b >= 3) contributes kSubBuckets buckets.
  static constexpr int kNumBuckets = (64 - kSubBits + 1) * kSubBuckets;

  /// Bucket index of @p value (total order preserved: v1 <= v2 implies
  /// index(v1) <= index(v2)).
  static int bucket_index(std::uint64_t value) {
    if (value < kSubBuckets) return static_cast<int>(value);
    const int b = 63 - std::countl_zero(value);  // floor(log2(value)) >= 3.
    const int sub = static_cast<int>((value >> (b - kSubBits)) &
                                     (kSubBuckets - 1));
    return (b - kSubBits + 1) * kSubBuckets + sub;
  }

  /// Smallest value mapping to bucket @p index (its representative value).
  static std::uint64_t bucket_lower_bound(int index) {
    if (index < kSubBuckets) return static_cast<std::uint64_t>(index);
    const int b = index / kSubBuckets + kSubBits - 1;
    const int sub = index % kSubBuckets;
    return (std::uint64_t{1} << b) +
           (static_cast<std::uint64_t>(sub) << (b - kSubBits));
  }

  void record(std::uint64_t value) {
    Shard& shard = shards_[internal::thread_slot()];
    shard.buckets[static_cast<std::size_t>(bucket_index(value))].fetch_add(
        1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
  }

  /// Latency convenience: seconds -> nanoseconds (negative clamps to 0).
  void record_seconds(double seconds) {
    record(seconds <= 0.0 ? 0
                          : static_cast<std::uint64_t>(seconds * 1e9));
  }

  const std::string& name() const { return name_; }
  const std::string& unit() const { return unit_; }

 private:
  friend class Registry;
  friend struct HistogramSnapshot;
  Histogram(std::string name, std::string unit)
      : name_(std::move(name)), unit_(std::move(unit)) {}

  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
    std::atomic<std::uint64_t> sum{0};
  };
  std::string name_;
  std::string unit_;
  std::array<Shard, kShards> shards_;
};

/// RAII latency probe: records the scope's wall time into @p histogram on
/// destruction.  One steady_clock read at each end; no allocation.
class ScopedLatency {
 public:
  explicit ScopedLatency(Histogram& histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ScopedLatency(const ScopedLatency&) = delete;
  ScopedLatency& operator=(const ScopedLatency&) = delete;
  ~ScopedLatency() {
    histogram_.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count()));
  }

 private:
  Histogram& histogram_;
  std::chrono::steady_clock::time_point start_;
};

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::string unit;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::array<std::uint64_t, Histogram::kNumBuckets> buckets{};

  /// Inverse CDF at @p q in [0, 1]: the lower bound of the bucket holding
  /// sample rank ceil(q * count) (type-1 / lower-value convention, so a
  /// quantile is always a value that was actually recorded, rounded down to
  /// its bucket boundary).  0 when the histogram is empty.
  std::uint64_t quantile(double q) const;
  double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Lower bound of the highest occupied bucket (0 when empty).
  std::uint64_t max_bucket_bound() const;
};

/// Consistent-enough point-in-time view: each shard is read atomically per
/// cell; concurrent writers may land on either side of the snapshot.
struct Snapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<HistogramSnapshot> histograms;

  /// The whole snapshot as a JSON object (schema "pyblaz-telemetry-v1"):
  /// counters as {name: value}, histograms as {name: {unit, count, sum,
  /// mean, p50, p95, p99, max}}.
  std::string to_json() const;
};

/// The process-wide registry handle for @p name, created on first use.
/// Repeated calls with the same name return the same object; a name already
/// registered as the other kind throws std::logic_error.
Counter& counter(std::string_view name);
Histogram& histogram(std::string_view name, std::string_view unit = "ns");

/// Snapshot every registered counter and histogram, sorted by name.
Snapshot snapshot();

namespace internal {

/// Shared CC_STATS / CC_TRACE sink policy, the same as CC_FAULT's: a bad
/// value (here: empty) warns once and disables the feature rather than
/// guessing.  "stderr" is the only non-path spelling.
enum class SinkKind { kDisabled, kStderr, kFile };
struct SinkPolicy {
  SinkKind kind = SinkKind::kDisabled;
  std::string path;
  bool bad = false;  ///< True when the value was rejected (warn + disable).
};

/// Parse an environment value (nullptr = unset = disabled, not bad).
SinkPolicy parse_sink_env(const char* value);

/// Write @p policy's sink: stderr or the named file.  Unopenable paths warn
/// to stderr and return false: never fatal, never silent.
bool write_to_sink(const SinkPolicy& policy, const std::string& text,
                   const char* what);

}  // namespace internal

}  // namespace pyblaz::telemetry
