#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// In-memory span recorder for the traced benchmark run.
///
/// The benchmark opens one span per unit of work ("unit") and one per call
/// into a library layer ("codec.compress", "ops.lincomb", ...), all from its
/// own code: nothing inside the library is instrumented.  Spans land in a
/// per-thread buffer (no locks on the hot path), carry their parent (the
/// span open on the same thread when they started) and the unit id, and are
/// merged and written out once, after the clients have joined.
///
/// When recording is disabled a Span is a single branch.
namespace perfbench::trace {

struct Record {
  const char* name = nullptr;  ///< Static string: the layer name.
  std::int64_t start_ns = 0;   ///< Since the recorder's epoch.
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;    ///< Index in the merged list; -1 = root.
  std::uint64_t unit = 0;      ///< Unit id shared by every span of one unit.
  std::uint64_t bytes = 0;     ///< Computed bytes moved by the call.
  int thread = 0;              ///< Recording thread, numbered at first use.
};

void set_enabled(bool on);
bool enabled();

/// Nanoseconds since the recorder's epoch (steady clock).
std::int64_t now_ns();

/// Unit id stamped on spans the calling thread opens from now on.
void set_unit(std::uint64_t unit);

class Span {
 public:
  explicit Span(const char* name, std::uint64_t bytes = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Bytes only known after the call (the size of its output).
  void add_bytes(std::uint64_t bytes);

 private:
  std::int64_t index_ = -1;  ///< Slot in the thread's buffer; -1 = off.
};

/// Every recorded span, merged across threads (parents remapped to the
/// merged indices).  Call only while no thread is recording.
std::vector<Record> collect();

/// Drop everything recorded so far.  Call only while no thread is recording.
void clear();

/// Write @p records as a Chrome trace (chrome://tracing, Perfetto): one
/// complete event per span, with its unit, parent and bytes in args.
bool write_chrome_json(const std::string& path,
                       const std::vector<Record>& records);

}  // namespace perfbench::trace
