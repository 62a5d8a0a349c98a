#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::trace {
namespace {

struct ThreadBuffer {
  int thread = 0;
  std::vector<Record> records;
  std::vector<std::int64_t> open;  ///< Stack of open span slots.
  std::uint64_t unit = 0;
};

std::atomic<bool> g_enabled{false};
const auto g_epoch = std::chrono::steady_clock::now();

// Buffers outlive their threads so collect() can read them after a join.
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<int>(g_buffers.size());
    g_buffers.back()->records.reserve(1 << 14);
    return g_buffers.back().get();
  }();
  return *buffer;
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

void set_unit(std::uint64_t unit) {
  if (enabled()) local_buffer().unit = unit;
}

Span::Span(const char* name, std::uint64_t bytes) {
  if (!enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  Record record;
  record.name = name;
  record.parent = buffer.open.empty() ? -1 : buffer.open.back();
  record.unit = buffer.unit;
  record.bytes = bytes;
  record.thread = buffer.thread;
  index_ = static_cast<std::int64_t>(buffer.records.size());
  buffer.open.push_back(index_);
  record.start_ns = now_ns();
  buffer.records.push_back(record);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& buffer = local_buffer();
  buffer.records[static_cast<std::size_t>(index_)].end_ns = now_ns();
  buffer.open.pop_back();
}

void Span::add_bytes(std::uint64_t bytes) {
  if (index_ < 0) return;
  local_buffer().records[static_cast<std::size_t>(index_)].bytes += bytes;
}

std::vector<Record> collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::vector<Record> merged;
  for (const auto& buffer : g_buffers) {
    const auto offset = static_cast<std::int64_t>(merged.size());
    for (Record record : buffer->records) {
      if (record.parent >= 0) record.parent += offset;
      merged.push_back(record);
    }
  }
  return merged;
}

void clear() {
  std::lock_guard<std::mutex> lock(g_buffers_mutex);
  for (const auto& buffer : g_buffers) {
    buffer->records.clear();
    buffer->open.clear();
  }
}

bool write_chrome_json(const std::string& path,
                       const std::vector<Record>& records) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", file);
  for (std::size_t k = 0; k < records.size(); ++k) {
    const Record& r = records[k];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"unit\":%llu,"
                 "\"parent\":%lld,\"bytes\":%llu}}\n",
                 k == 0 ? "" : ",", r.name, r.thread,
                 static_cast<double>(r.start_ns) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3,
                 static_cast<unsigned long long>(r.unit),
                 static_cast<long long>(r.parent),
                 static_cast<unsigned long long>(r.bytes));
  }
  std::fputs("]}\n", file);
  return std::fclose(file) == 0;
}

}  // namespace perfbench::trace
