#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/codec/compressed_array.hpp"
#include "core/ndarray/ndarray.hpp"

/// The benchmark's workload interface.  A workload owns its seeded inputs,
/// the library state built from them, and the references its outputs are
/// checked against; the runner (main.cpp) owns timing, clients and tracing.
namespace perfbench {

using pyblaz::CompressedArray;
using pyblaz::NDArray;

struct WorkloadOptions {
  std::uint64_t seed = 1;
  bool smoke = false;  ///< Tiny sizes, for the benchmark's own check.
};

class Workload {
 public:
  virtual ~Workload() = default;

  virtual const char* name() const = 0;

  /// Closed-loop clients, and the scheduler thread count to run them with
  /// (callers + pool workers <= nproc).
  virtual int clients() const = 0;
  virtual int pool_threads() const = 0;

  /// Set-up, timed as setup_s: make the raw inputs from the seed and build
  /// the library state the units run against.  Repeatable: each call starts
  /// over from the seed.
  virtual void setup() = 0;

  /// Untimed preparation after setup(): sequential single-thread references
  /// for every output the units can produce, set-up checks, and the
  /// deterministic error/ratio figures.  Returns the number of failed
  /// set-up checks.
  virtual int prepare() = 0;

  /// Return the unit-visible state to where the first unit starts (a fresh
  /// model for stepping workloads; a no-op for stateless ones).
  virtual void reset() {}

  /// Run unit @p seq of @p client: the library calls only, each inside its
  /// layer span.  The output stays in the client's slot for check().
  virtual void run(int client, std::uint64_t seq) = 0;

  /// Compare the client's last output with its reference.
  virtual bool check(int client, std::uint64_t seq) = 0;

  /// Units in the prefix the single-thread replay times.
  virtual std::uint64_t replay_units() const = 0;

  /// Units per round: throughput is the median rate over consecutive
  /// rounds of this many completions, so a stall of a second or two on a
  /// shared host moves one round, not the figure.  For a fixed query mix,
  /// one round is one pass over the mix.
  virtual std::uint64_t round_units() const = 0;

  /// Deterministic for a given seed (computed in prepare()).  The error is
  /// the median (swe_rk4: the mean) over the workload's reference outputs
  /// of each output's L-infinity error against the uncompressed
  /// computation — fields divided by the reference range, scalars
  /// relative.  An average over many outputs is stable across seeds where a
  /// maximum over single outputs is not.
  virtual double error_linf_rel() const = 0;
  virtual double compression_ratio() const = 0;

  /// Working set of one unit and of the whole workload, in bytes (computed).
  virtual double unit_working_set_bytes() const = 0;
  virtual double total_working_set_bytes() const = 0;

  /// Telemetry invariants: ops.lincomb.rebin_passes must advance by exactly
  /// expected_rebins(), and ops.lincomb_batch.decodes_avoided by at most
  /// decodes_avoided_bound(), over the units run since the last reset of
  /// these counters.
  std::uint64_t expected_rebins() const { return expected_rebins_.load(); }
  std::uint64_t decodes_avoided_bound() const {
    return decodes_avoided_bound_.load();
  }
  void reset_invariant_counters() {
    expected_rebins_ = 0;
    decodes_avoided_bound_ = 0;
  }

 protected:
  std::atomic<std::uint64_t> expected_rebins_{0};
  std::atomic<std::uint64_t> decodes_avoided_bound_{0};
};

std::unique_ptr<Workload> make_request_stream(const WorkloadOptions& options);
std::unique_ptr<Workload> make_swe_rk4(const WorkloadOptions& options);
std::unique_ptr<Workload> make_analysis_query(const WorkloadOptions& options);

// --- Helpers shared by the workloads (workload.cpp). ---

/// Bytes of the compressed form {N, F} (computed, not measured).
std::uint64_t compressed_bytes(const CompressedArray& a);

/// Bytes of a raw double array.
inline std::uint64_t raw_bytes(const NDArray<double>& a) {
  return static_cast<std::uint64_t>(a.size()) * sizeof(double);
}

/// 64-bit digest of raw bytes: equal outputs give equal digests, and the
/// checks compare digests of outputs with digests of references.
std::uint64_t digest(const void* data, std::size_t bytes,
                     std::uint64_t seed = 0);
inline std::uint64_t digest(const NDArray<double>& a) {
  return digest(a.data(), static_cast<std::size_t>(a.size()) * sizeof(double));
}
std::uint64_t digest(const CompressedArray& a);

/// max |x - ref|; shapes must match.
double linf(const NDArray<double>& x, const NDArray<double>& ref);

/// linf(x, ref) / (max ref - min ref).
double linf_over_range(const NDArray<double>& x, const NDArray<double>& ref);

/// |x - ref| / |ref|.
double relative_error(double x, double ref);

/// Median of a sample (linear interpolation between the middle two).
double median(std::vector<double> values);

/// Uniform double in [0, 1) from (seed, stream, index), for per-unit choices
/// that must not depend on how many units ran before.
double hash_uniform(std::uint64_t seed, std::uint64_t stream,
                    std::uint64_t index);

}  // namespace perfbench
