/// perfbench: the repository benchmark.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
///
/// Runs one seeded workload (request_stream, swe_rk4, analysis_query)
/// against the library's public API in closed loops for S seconds, checks
/// every output against a single-thread sequential reference, prints each
/// metric on its own line, and ends with one JSON line:
///
///   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
///
/// --trace 0 reports the end-to-end metrics.  --trace 1 runs the same
/// workload untraced and then traced (half of S each), replays a short
/// prefix on one thread, probes memcpy bandwidth, and reports the per-layer
/// metrics; its spans are written as a Chrome trace under
/// .bench_build/traces/.  perfbench/README.md explains every metric.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/kernels/fast_transform.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace telemetry = pyblaz::telemetry;

/// Set-up runs at least this many times and until this long has passed, so
/// a cheap set-up is timed often enough for a steady median.
constexpr std::size_t kSetupRepeats = 3;
constexpr double kSetupSeconds = 2.0;
constexpr int kWarmupUnits = 3;

/// latency_tail_ms: p95 — the highest of p90/p95/p99/p99.9 that keeps at
/// least ten samples beyond it in each of kTailWindows windows of a
/// full-length run of every workload on the reference host.  One fixed
/// level keeps runs and commits comparable.
constexpr double kTailQuantile = 0.95;
constexpr int kTailWindows = 4;

/// The layers the traced run reports, in output order.
constexpr const char* kLayers[] = {
    "codec.compress",  "codec.decompress", "codec.serialize",
    "codec.deserialize", "codec.roi",      "ops.lincomb",
    "ops.lincomb_batch", "ops.reduce",     "ops.ssim_map",
    "ops.wasserstein", "sim.model_step"};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --------------------------------------------------------------- statistics

/// Linear-interpolated quantile of an ascending sample (numpy's default).
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// The highest of p90, p95, p99, p99.9 with at least ten samples beyond it
/// among @p count samples (p50 below 100 samples).
double tail_level(std::uint64_t count) {
  double level = 0.5;
  for (double q : {0.9, 0.95, 0.99, 0.999})
    if (static_cast<double>(count) * (1.0 - q) >= 10.0) level = q;
  return level;
}

std::string percentile_name(double q) {
  char text[32];
  std::snprintf(text, sizeof text, "p%g", q * 100.0);
  return text;
}

// ---------------------------------------------------------------- telemetry

struct Telemetry {
  telemetry::Snapshot snapshot = telemetry::snapshot();

  std::uint64_t counter(const std::string& name) const {
    for (const auto& c : snapshot.counters)
      if (c.name == name) return c.value;
    return 0;
  }
  const telemetry::HistogramSnapshot* histogram(const std::string& name) const {
    for (const auto& h : snapshot.histograms)
      if (h.name == name) return &h;
    return nullptr;
  }
};

double delta(const Telemetry& before, const Telemetry& after,
             const std::string& name) {
  return static_cast<double>(after.counter(name) - before.counter(name));
}

/// num / den, or 0 when nothing was counted.
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Bucket counts recorded into histogram @p name between two snapshots.
std::vector<std::uint64_t> histogram_delta(const Telemetry& before,
                                           const Telemetry& after,
                                           const std::string& name) {
  std::vector<std::uint64_t> out(telemetry::Histogram::kNumBuckets, 0);
  const auto* b = before.histogram(name);
  const auto* a = after.histogram(name);
  if (a == nullptr) return out;
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = a->buckets[i] - (b != nullptr ? b->buckets[i] : 0);
  return out;
}

/// Lower bucket bound at quantile @p q (the telemetry convention).
double bucket_quantile(const std::vector<std::uint64_t>& buckets, double q) {
  std::uint64_t count = 0;
  for (std::uint64_t c : buckets) count += c;
  if (count == 0) return 0.0;
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= rank)
      return static_cast<double>(
          telemetry::Histogram::bucket_lower_bound(static_cast<int>(i)));
  }
  return 0.0;
}

// ------------------------------------------------------------------ runner

struct Sample {
  double end_s = 0.0;  ///< Completion time since the phase started.
  double latency_ms = 0.0;
};

struct Phase {
  std::vector<Sample> samples;     ///< One per completed unit, by end time.
  std::vector<double> latency_ms;  ///< The same latencies, ascending.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wall_s = 0.0;

  /// Median rate over consecutive rounds of @p round completions; the
  /// plain rate when the phase is shorter than one round.
  double throughput(std::uint64_t round) const {
    std::vector<double> rates;
    double previous = 0.0;
    for (std::size_t k = round; k <= samples.size(); k += round) {
      rates.push_back(static_cast<double>(round) /
                      (samples[k - 1].end_s - previous));
      previous = samples[k - 1].end_s;
    }
    if (rates.empty())
      return wall_s > 0.0 ? static_cast<double>(samples.size()) / wall_s : 0.0;
    return median(rates);
  }

  /// Latency at quantile @p q, as the median over kTailWindows equal time
  /// windows (a window with fewer than ten samples beyond @p q uses the
  /// highest level that has them), so host interference in a quarter of
  /// the run does not set the figure.  @p note receives the level and the
  /// sample counts.
  double tail(double q, std::string* note) const {
    std::vector<std::vector<double>> windows(kTailWindows);
    for (const Sample& s : samples)
      windows[std::min<std::size_t>(
                  kTailWindows - 1,
                  static_cast<std::size_t>(s.end_s / wall_s * kTailWindows))]
          .push_back(s.latency_ms);
    std::vector<double> tails;
    std::string levels;
    for (std::vector<double>& w : windows) {
      std::sort(w.begin(), w.end());
      const double level = std::min(q, tail_level(w.size()));
      tails.push_back(quantile(w, level));
      levels += (levels.empty() ? "" : "/") + percentile_name(level);
    }
    *note = levels + ", median of " + std::to_string(kTailWindows) +
            " windows of " + std::to_string(samples.size() / kTailWindows) +
            " samples";
    return median(tails);
  }
};

/// Closed loops: each of @p clients threads runs its next unit only after
/// the previous one finished and was checked, until @p seconds elapse or it
/// ran @p max_units (0 = no cap).  Latency covers the library calls only;
/// the check runs outside it.
Phase run_phase(Workload& w, int clients, double seconds,
                std::uint64_t max_units) {
  struct ClientResult {
    std::vector<Sample> samples;
    std::uint64_t attempted = 0, failed = 0;
  };
  std::vector<ClientResult> results(static_cast<std::size_t>(clients));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::chrono::steady_clock::time_point start;

  auto client_loop = [&](int client) {
    ClientResult& r = results[static_cast<std::size_t>(client)];
    ++ready;
    while (!go.load()) std::this_thread::yield();
    for (std::uint64_t seq = 0;
         (max_units == 0 || seq < max_units) && seconds_since(start) < seconds;
         ++seq) {
      ++r.attempted;
      trace::set_unit((static_cast<std::uint64_t>(client) << 32) | seq);
      bool ok = false;
      try {
        const auto t0 = std::chrono::steady_clock::now();
        {
          trace::Span unit("unit");
          w.run(client, seq);
        }
        const double latency_ms = seconds_since(t0) * 1e3;
        r.samples.push_back({seconds_since(start), latency_ms});
        ok = w.check(client, seq);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "unit %d/%llu failed: %s\n", client,
                     static_cast<unsigned long long>(seq), e.what());
      }
      if (!ok) ++r.failed;
    }
  };

  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client_loop, c);
  while (ready.load() < clients - 1) std::this_thread::yield();
  start = std::chrono::steady_clock::now();
  go = true;
  client_loop(0);  // The calling thread is client 0: N clients, N threads.
  for (std::thread& t : threads) t.join();

  Phase phase;
  for (const ClientResult& r : results) {
    phase.samples.insert(phase.samples.end(), r.samples.begin(),
                         r.samples.end());
    phase.attempted += r.attempted;
    phase.failed += r.failed;
  }
  std::sort(phase.samples.begin(), phase.samples.end(),
            [](const Sample& a, const Sample& b) { return a.end_s < b.end_s; });
  for (const Sample& s : phase.samples)
    phase.latency_ms.push_back(s.latency_ms);
  std::sort(phase.latency_ms.begin(), phase.latency_ms.end());
  phase.wall_s = phase.samples.empty() ? 0.0 : phase.samples.back().end_s;
  return phase;
}

/// Failed telemetry invariants over the units run since the workload's
/// invariant counters were reset.
int broken_invariants(const Workload& w, const Telemetry& before,
                      const Telemetry& after) {
  int broken = 0;
  const double rebins = delta(before, after, "ops.lincomb.rebin_passes");
  const auto expected = static_cast<double>(w.expected_rebins());
  if (rebins != expected) {
    std::fprintf(stderr, "invariant: rebin_passes %.0f != lincomb calls %.0f\n",
                 rebins, expected);
    ++broken;
  }
  const double avoided =
      delta(before, after, "ops.lincomb_batch.decodes_avoided");
  const auto bound = static_cast<double>(w.decodes_avoided_bound());
  if (avoided > bound) {
    std::fprintf(stderr,
                 "invariant: decodes_avoided %.0f > expressions*arity*blocks "
                 "%.0f\n",
                 avoided, bound);
    ++broken;
  }
  return broken;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("%-44s %16.6g %-9s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }

  void print_json(bool correct, std::uint64_t attempted,
                  std::uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t k = 0; k < metrics_.size(); ++k)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  k == 0 ? "" : ", ", metrics_[k].name.c_str(),
                  metrics_[k].value, metrics_[k].unit.c_str());
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> metrics_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void print_host(const Workload& w) {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  std::printf("# host: nproc=%u L2=%.1f MiB LLC=%.1f MiB | %s working set "
              "(computed): unit %.1f MiB, workload %.1f MiB\n",
              std::thread::hardware_concurrency(),
              static_cast<double>(l2) / (1 << 20),
              static_cast<double>(llc) / (1 << 20), w.name(),
              w.unit_working_set_bytes() / (1 << 20),
              w.total_working_set_bytes() / (1 << 20));
}

/// Copy bandwidth with one thread per core over buffers far larger than L2,
/// bytes read plus bytes written, median of several passes.
double memcpy_gbps() {
  const std::size_t bytes = std::size_t{128} << 20;
  const int threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::vector<char> src(bytes, 1), dst(bytes, 0);
  const std::size_t slice = bytes / static_cast<std::size_t>(threads);
  std::vector<double> rates;
  for (int pass = 0; pass < 7; ++pass) {
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
      pool.emplace_back([&, t] {
        const std::size_t off = static_cast<std::size_t>(t) * slice;
        std::memcpy(dst.data() + off, src.data() + off, slice);
      });
    for (std::thread& t : pool) t.join();
    rates.push_back(2.0 * static_cast<double>(slice * threads) /
                    seconds_since(t0) / 1e9);
  }
  std::printf("# memcpy probe: %d threads, %zu MiB buffers\n", threads,
              bytes >> 20);
  return median(rates);
}

// ------------------------------------------------------------------- modes

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Untraced run: the end-to-end metrics.
int run_end_to_end(Workload& w, const Options& options) {
  std::vector<double> setups;
  const auto setup_start = std::chrono::steady_clock::now();
  while (setups.size() < kSetupRepeats ||
         seconds_since(setup_start) < kSetupSeconds) {
    const auto t0 = std::chrono::steady_clock::now();
    w.setup();
    setups.push_back(seconds_since(t0));
  }
  std::uint64_t failed = static_cast<std::uint64_t>(w.prepare());
  print_host(w);

  const Phase warm = run_phase(w, w.clients(), 1e9, kWarmupUnits);
  w.reset();
  w.reset_invariant_counters();
  const Telemetry before;
  const Phase phase = run_phase(w, w.clients(), options.seconds, 0);
  const Telemetry after;
  failed += warm.failed + phase.failed +
            static_cast<std::uint64_t>(broken_invariants(w, before, after));
  const std::uint64_t attempted = warm.attempted + phase.attempted;

  std::string tail_note;
  const double tail = phase.tail(kTailQuantile, &tail_note);
  std::printf("# failed_frac %.6g (%llu of %llu units)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  Report report;
  report.add("setup_s", median(setups), "s",
             "median of " + std::to_string(setups.size()) + " set-ups");
  report.add("throughput", phase.throughput(w.round_units()), "1/s",
             "median over rounds of " + std::to_string(w.round_units()) +
                 " units");
  report.add("latency_p50_ms", quantile(phase.latency_ms, 0.5), "ms");
  report.add("latency_tail_ms", tail, "ms", tail_note);
  report.add("error_linf_rel", w.error_linf_rel(), "ratio");
  report.add("compression_ratio", w.compression_ratio(), "ratio");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
  report.print_json(failed == 0, attempted, failed);
  return 0;
}

struct Layer {
  double self_ns = 0.0;
  double bytes = 0.0;  ///< Computed.
  double calls = 0.0;
};

/// Per-layer totals from the recorded spans.
struct LayerTotals {
  std::map<std::string, Layer> layers;
  double unit_ns = 0.0;     ///< Sum of unit span durations.
  double covered_ns = 0.0;  ///< Part of it inside layer spans.
  std::uint64_t units = 0;
};

LayerTotals analyse(const std::vector<trace::Record>& records) {
  std::vector<double> child_ns(records.size(), 0.0);
  for (const trace::Record& r : records)
    if (r.parent >= 0)
      child_ns[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.end_ns - r.start_ns);
  LayerTotals totals;
  for (std::size_t k = 0; k < records.size(); ++k) {
    const trace::Record& r = records[k];
    const double duration = static_cast<double>(r.end_ns - r.start_ns);
    const std::string name = r.name;
    if (name == "unit") {
      totals.unit_ns += duration;
      totals.covered_ns += child_ns[k];
      ++totals.units;
      continue;
    }
    Layer& layer = totals.layers[name];
    layer.self_ns += duration - child_ns[k];
    layer.bytes += static_cast<double>(r.bytes);
    ++layer.calls;
  }
  return totals;
}

/// Traced run: the per-layer metrics.
int run_traced(Workload& w, const Options& options) {
  w.setup();
  std::uint64_t failed = static_cast<std::uint64_t>(w.prepare());
  print_host(w);
  const double memcpy = memcpy_gbps();
  const double half = options.seconds / 2.0;

  const Phase warm = run_phase(w, w.clients(), 1e9, kWarmupUnits);
  w.reset();
  const Phase untraced = run_phase(w, w.clients(), half, 0);

  w.reset();
  w.reset_invariant_counters();
  trace::clear();
  const Telemetry before;
  trace::set_enabled(true);
  const Phase traced = run_phase(w, w.clients(), half, 0);
  trace::set_enabled(false);
  const Telemetry after;
  failed += warm.failed + untraced.failed + traced.failed +
            static_cast<std::uint64_t>(broken_invariants(w, before, after));

  // Single-client replay of the same prefix at one thread and at the
  // workload's thread count.
  const std::uint64_t prefix = w.replay_units();
  w.reset();
  pyblaz::parallel::set_num_threads(1);
  const Phase t1 = run_phase(w, 1, 1e9, prefix);
  w.reset();
  pyblaz::parallel::set_num_threads(w.pool_threads());
  const Phase tn = run_phase(w, 1, 1e9, prefix);
  failed += t1.failed + tn.failed;

  const std::vector<trace::Record> records = trace::collect();
  const LayerTotals totals = analyse(records);
  const double units = static_cast<double>(totals.units);

  const std::filesystem::path dir = ".bench_build/traces";
  std::filesystem::create_directories(dir);
  const std::filesystem::path file =
      dir / (std::string(w.name()) + "-seed" + std::to_string(options.seed) +
             ".json");
  if (!trace::write_chrome_json(file.string(), records)) {
    std::fprintf(stderr, "cannot write %s\n", file.c_str());
    return 1;
  }
  std::printf("# trace: %zu spans in %s (%llu traced units)\n", records.size(),
              file.c_str(), static_cast<unsigned long long>(totals.units));
  std::printf("# bytes are computed from array sizes, not measured\n");

  Report report;
  for (const char* name : kLayers) {
    const auto it = totals.layers.find(name);
    const Layer layer = it == totals.layers.end() ? Layer{} : it->second;
    const double gbps = ratio(layer.bytes, layer.self_ns);
    const std::string base = name;
    report.add(base + ".calls", ratio(layer.calls, units), "count");
    report.add(base + ".self_ms", ratio(layer.self_ns / 1e6, units),
               "ms");
    report.add(base + ".share", ratio(layer.self_ns, totals.unit_ns),
               "fraction");
    report.add(base + ".bytes", ratio(layer.bytes, units), "B",
               "computed");
    report.add(base + ".gbps", gbps, "GB/s", "computed");
    report.add(base + ".frac_of_memcpy", ratio(gbps, memcpy),
               "fraction", "computed");
  }

  const auto wait =
      histogram_delta(before, after, "sched.region.queue_wait_ns");
  std::uint64_t waits = 0;
  for (std::uint64_t c : wait) waits += c;
  const double wait_tail = tail_level(waits);
  report.add("sched.queue_wait_p50_us", bucket_quantile(wait, 0.5) / 1e3, "us",
             std::to_string(waits) + " regions");
  report.add("sched.queue_wait_tail_us",
             bucket_quantile(wait, wait_tail) / 1e3, "us",
             percentile_name(wait_tail));
  report.add("sched.regions_per_unit",
             ratio(delta(before, after, "sched.regions_submitted"), units),
             "count");
  const double hits = delta(before, after, "cache.hits");
  const double misses = delta(before, after, "cache.misses");
  report.add("cache.hit_ratio", ratio(hits, hits + misses), "fraction");
  report.add("cache.misses_per_unit", ratio(misses, units), "count");
  report.add("codec.roi.blocks_touched",
             ratio(delta(before, after, "codec.roi.blocks_touched"),
                   delta(before, after, "codec.roi.calls")),
             "count", "per ROI call");
  report.add("ops.lincomb.rebin_passes_per_unit",
             ratio(delta(before, after, "ops.lincomb.rebin_passes"), units),
             "count");
  report.add(
      "ops.lincomb_batch.decodes_avoided_per_unit",
      ratio(delta(before, after, "ops.lincomb_batch.decodes_avoided"), units),
      "count");
  report.add("parallel.speedup_vs_t1", ratio(t1.wall_s, tn.wall_s), "ratio",
             std::to_string(prefix) + "-unit prefix, 1 client, 1 vs " +
                 std::to_string(w.pool_threads()) + " threads");
  report.add("hw.memcpy_gbps", memcpy, "GB/s");
  report.add("trace.coverage", ratio(totals.covered_ns, totals.unit_ns),
             "fraction");
  report.add("trace.overhead",
             ratio(traced.throughput(w.round_units()),
                   untraced.throughput(w.round_units())),
             "ratio", "traced over untraced throughput");

  const std::uint64_t attempted = warm.attempted + untraced.attempted +
                                  traced.attempted + t1.attempted +
                                  tn.attempted;
  report.print_json(failed == 0, attempted, failed);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload request_stream|swe_rk4|"
               "analysis_query --seed N --seconds S --trace 0|1 [--smoke]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int k = 1; k < argc; ++k) {
    const std::string arg = argv[k];
    const bool has_value = k + 1 < argc;
    if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--workload" && has_value) {
      options.workload = argv[++k];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::stoull(argv[++k]);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::stod(argv[++k]);
    } else if (arg == "--trace" && has_value) {
      options.trace = std::string(argv[++k]) == "1";
    } else {
      return usage();
    }
  }

  const WorkloadOptions workload_options{options.seed, options.smoke};
  std::unique_ptr<Workload> w;
  if (options.workload == "request_stream")
    w = make_request_stream(workload_options);
  else if (options.workload == "swe_rk4")
    w = make_swe_rk4(workload_options);
  else if (options.workload == "analysis_query")
    w = make_analysis_query(workload_options);
  else
    return usage();

  // Host-independent transform dispatch, so archive bits (and therefore the
  // error and ratio figures) do not depend on a timing probe.
  pyblaz::kernels::set_fast_axis_policy(
      pyblaz::kernels::FastAxisPolicy::kFixed);
  pyblaz::parallel::set_num_threads(w->pool_threads());
  try {
    return options.trace ? run_traced(*w, options)
                         : run_end_to_end(*w, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
