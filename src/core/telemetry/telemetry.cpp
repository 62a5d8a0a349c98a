#include "core/telemetry/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <variant>

namespace pyblaz::telemetry {

namespace internal {

int thread_slot() {
  static std::atomic<unsigned> next{0};
  thread_local const int slot = static_cast<int>(
      next.fetch_add(1, std::memory_order_relaxed) % kShards);
  return slot;
}

SinkPolicy parse_sink_env(const char* value) {
  SinkPolicy policy;
  if (value == nullptr) return policy;  // Unset: disabled, not an error.
  if (*value == '\0') {
    policy.bad = true;  // Set-but-empty names no sink: warn and disable.
    return policy;
  }
  if (std::string_view(value) == "stderr") {
    policy.kind = SinkKind::kStderr;
  } else {
    policy.kind = SinkKind::kFile;
    policy.path = value;
  }
  return policy;
}

bool write_to_sink(const SinkPolicy& policy, const std::string& text,
                   const char* what) {
  switch (policy.kind) {
    case SinkKind::kDisabled:
      return false;
    case SinkKind::kStderr:
      std::fwrite(text.data(), 1, text.size(), stderr);
      return true;
    case SinkKind::kFile: {
      std::FILE* f = std::fopen(policy.path.c_str(), "w");
      if (!f) {
        std::fprintf(stderr, "pyblaz: cannot open %s sink \"%s\"; %s dropped\n",
                     what, policy.path.c_str(), what);
        return false;
      }
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      return true;
    }
  }
  return false;
}

}  // namespace internal

/// Name -> metric.  Pointers stay valid for the process lifetime (values are
/// heap-allocated, the map only ever grows), so hot sites cache references.
/// Deliberately not in the anonymous namespace: it is the class the metric
/// types befriend.
class Registry {
 public:
  static Registry& instance() {
    static Registry* registry = new Registry;  // Leaked: see note below.
    return *registry;
  }

  Counter& counter(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = metrics_.find(std::string(name));
    if (it == metrics_.end()) {
      auto owned = std::unique_ptr<Counter>(new Counter(std::string(name)));
      Counter& ref = *owned;
      metrics_.emplace(ref.name(), Metric{std::move(owned)});
      return ref;
    }
    if (auto* held = std::get_if<std::unique_ptr<Counter>>(&it->second.value))
      return **held;
    throw std::logic_error("telemetry: \"" + std::string(name) +
                           "\" is registered as a histogram");
  }

  Histogram& histogram(std::string_view name, std::string_view unit) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = metrics_.find(std::string(name));
    if (it == metrics_.end()) {
      auto owned = std::unique_ptr<Histogram>(
          new Histogram(std::string(name), std::string(unit)));
      Histogram& ref = *owned;
      metrics_.emplace(ref.name(), Metric{std::move(owned)});
      return ref;
    }
    if (auto* held = std::get_if<std::unique_ptr<Histogram>>(&it->second.value))
      return **held;
    throw std::logic_error("telemetry: \"" + std::string(name) +
                           "\" is registered as a counter");
  }

  Snapshot snapshot() const {
    Snapshot out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, metric] : metrics_) {
      if (auto* held = std::get_if<std::unique_ptr<Counter>>(&metric.value)) {
        out.counters.push_back({name, (*held)->value()});
      } else {
        const Histogram& h = *std::get<std::unique_ptr<Histogram>>(metric.value);
        HistogramSnapshot snap;
        snap.name = name;
        snap.unit = h.unit();
        for (const Histogram::Shard& shard : h.shards_) {
          for (int b = 0; b < Histogram::kNumBuckets; ++b) {
            const std::uint64_t n =
                shard.buckets[static_cast<std::size_t>(b)].load(
                    std::memory_order_relaxed);
            snap.buckets[static_cast<std::size_t>(b)] += n;
            snap.count += n;
          }
          snap.sum += shard.sum.load(std::memory_order_relaxed);
        }
        out.histograms.push_back(std::move(snap));
      }
    }
    return out;
  }

 private:
  struct Metric {
    std::variant<std::unique_ptr<Counter>, std::unique_ptr<Histogram>> value;
  };

  // Intentionally leaked (never destroyed): metric handles are cached by
  // reference at call sites that may run during static destruction (the
  // scheduler's worker teardown, the CC_STATS atexit dump), so the registry
  // must outlive every other static.
  Registry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, Metric, std::less<>> metrics_;
};

namespace {

/// CC_STATS atexit hook: resolved once at static-init time so the policy
/// warning (bad value) appears exactly once, early.
///
/// The policy is heap-allocated and leaked on purpose.  atexit handlers and
/// static destructors share one reverse-order stack, and this object's
/// destructor is registered AFTER the std::atexit(&dump) call inside its own
/// constructor — so at exit the destructor would run first and dump() would
/// read a destroyed std::string path.  A leaked policy has no destructor to
/// race.
struct StatsAtExit {
  static internal::SinkPolicy*& policy() {
    static internal::SinkPolicy* leaked = new internal::SinkPolicy;
    return leaked;
  }

  StatsAtExit() {
    *policy() = internal::parse_sink_env(std::getenv("CC_STATS"));
    if (policy()->bad)
      std::fprintf(stderr,
                   "pyblaz: CC_STATS is set but empty (want stderr or a file "
                   "path); stats dump disabled\n");
    if (policy()->kind != internal::SinkKind::kDisabled) std::atexit(&dump);
  }

  static void dump();
};

StatsAtExit g_stats_at_exit;

void StatsAtExit::dump() {
  internal::write_to_sink(*StatsAtExit::policy(),
                          telemetry::snapshot().to_json() + "\n", "CC_STATS");
}

void append_json_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}

Histogram& histogram(std::string_view name, std::string_view unit) {
  return Registry::instance().histogram(name, unit);
}

Snapshot snapshot() { return Registry::instance().snapshot(); }

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Type-1 inverse CDF: the smallest recorded bucket bound with at least
  // ceil(q * count) samples at or below it.
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t cumulative = 0;
  for (int b = 0; b < Histogram::kNumBuckets; ++b) {
    cumulative += buckets[static_cast<std::size_t>(b)];
    if (cumulative >= rank) return Histogram::bucket_lower_bound(b);
  }
  return Histogram::bucket_lower_bound(Histogram::kNumBuckets - 1);
}

std::uint64_t HistogramSnapshot::max_bucket_bound() const {
  for (int b = Histogram::kNumBuckets - 1; b >= 0; --b)
    if (buckets[static_cast<std::size_t>(b)] != 0)
      return Histogram::bucket_lower_bound(b);
  return 0;
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"schema\": \"pyblaz-telemetry-v1\",\n";
  out += "  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out += i ? ",\n    \"" : "\n    \"";
    append_json_escaped(out, counters[i].name);
    out += "\": " + std::to_string(counters[i].value);
  }
  out += counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  char buffer[64];
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSnapshot& h = histograms[i];
    out += i ? ",\n    \"" : "\n    \"";
    append_json_escaped(out, h.name);
    out += "\": {\"unit\": \"";
    append_json_escaped(out, h.unit);
    out += "\", \"count\": " + std::to_string(h.count);
    out += ", \"sum\": " + std::to_string(h.sum);
    std::snprintf(buffer, sizeof(buffer), "%.6g", h.mean());
    out += std::string(", \"mean\": ") + buffer;
    out += ", \"p50\": " + std::to_string(h.quantile(0.50));
    out += ", \"p95\": " + std::to_string(h.quantile(0.95));
    out += ", \"p99\": " + std::to_string(h.quantile(0.99));
    out += ", \"max\": " + std::to_string(h.max_bucket_bound()) + "}";
  }
  out += histograms.empty() ? "}\n" : "\n  }\n";
  out += "}";
  return out;
}

}  // namespace pyblaz::telemetry
