#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/ndarray/shape.hpp"
#include "core/parallel/task_context.hpp"

namespace pyblaz::parallel {

/// Deterministic concurrent-region scheduler.
///
/// The paper's whole premise is that blocks are independent, so every hot
/// loop in the codec, the serializer, and the compressed-space operations is
/// a fan-out over blocks.  This scheduler runs those fan-outs with one hard
/// design constraint: **the result must not depend on the thread count or on
/// what else is running**.  Three rules deliver that:
///
///   1. Work is split into chunks whose boundaries depend only on the range
///      and the caller's grain — never on how many threads exist or how many
///      regions are in flight.  Chunks may execute in any order on any
///      thread (claiming is a single atomic counter per region, no work
///      stealing), so bodies that write disjoint slots are
///      value-deterministic for free.
///   2. parallel_reduce() stores one partial per chunk and combines them in
///      chunk-index order after the barrier, so floating-point reductions
///      are bit-identical at 1, 4, or 64 threads.
///   3. Each region's state lives in its own TaskContext, so two regions
///      share nothing but the workers — concurrent callers can neither
///      perturb each other's chunking nor each other's rounding.
///
/// Concurrency model: N top-level callers submit N regions that run at once.
/// A submission appends its TaskContext to one FIFO region list; idle
/// workers scan the list and drain the first claimable region they find.
/// The submitting caller always drains its own region alongside the
/// workers, which bounds latency even when every worker is busy elsewhere: a
/// region never waits for another region to finish.  Waiting callers are
/// work-conserving: while a region's tail chunks finish on other threads,
/// its caller drains other regions' chunks — rechecking its own completion
/// between chunks — instead of sleeping, so claimable work is never
/// stranded behind a blocked or busy worker.  Each concurrent caller
/// therefore adds one executing thread on top of the shared workers —
/// overlap is the point; the worker count is a parallelism target, not a
/// hard cap on running threads.
///
/// The worker count defaults to std::thread::hardware_concurrency() and is
/// overridden by the CC_THREADS environment variable (checked once, at first
/// use); tests and benchmarks adjust it at runtime with set_num_threads(),
/// which waits for all in-flight regions to finish (holding new submissions
/// at the gate) before resizing.  Nested parallel regions run inline on the
/// calling worker — the scheduler never deadlocks on reentry, it just
/// declines to oversubscribe.
class ThreadPool {
 public:
  /// The process-wide scheduler.  Workers are spawned lazily on the first
  /// parallel call, so a CC_THREADS=1 process never creates a thread.
  static ThreadPool& instance();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Current target thread count (callers + workers), always >= 1.
  int num_threads() const { return target_threads_.load(std::memory_order_relaxed); }

  /// Change the thread count at runtime.  Waits for every in-flight region
  /// to complete (new submissions queue at the gate meanwhile), joins the
  /// existing workers, and lets new ones spawn lazily — so a resize racing
  /// concurrent submitters is safe.  n <= 0 restores the CC_THREADS /
  /// hardware default.  Throws std::logic_error when called from inside a
  /// parallel region, whose own in-flight region the resize would wait for.
  void set_num_threads(int n);

  /// Run fn(chunk) for every chunk in [0, num_chunks), distributed over the
  /// workers plus the calling thread.  Blocks until all chunks finished.
  /// The first exception thrown by any chunk is rethrown on the caller.
  /// Safe to call from any number of threads at once; independent regions
  /// overlap.
  void run_chunks(index_t num_chunks, const std::function<void(index_t)>& fn);

 private:
  ThreadPool();
  ~ThreadPool();

  void run_region(index_t num_chunks, const std::function<void(index_t)>& fn,
                  std::chrono::steady_clock::time_point deadline);
  void ensure_workers_locked();
  void worker_loop();
  /// The first claimable listed region, with the calling thread registered
  /// as its drainer; nullptr when there is none.  Requires mutex_.
  TaskContext* find_work_locked();
  /// Claim and run @p context's chunks until they are exhausted, then delist
  /// it.  With @p own set, the caller is a waiter assisting another region:
  /// it returns as soon as @p own's chunks are all finished, leaving
  /// @p context listed (still claimable by others).
  void drain(TaskContext* context, TaskContext* own = nullptr);
  /// Work conservation: instead of sleeping while @p own's tail chunks
  /// finish on other threads, the submitting caller drains other regions'
  /// chunks, rechecking its own completion between chunks.  Returns once
  /// @p own is fully torn down (wait_complete semantics).
  void assist_while_incomplete(TaskContext* own);
  void delist(TaskContext* context);

  std::atomic<int> target_threads_;

  // Scheduler state, all under mutex_.  The region list is locked once per
  // submission, once per worker scan and once per delist — never per chunk;
  // chunk claiming stays lock-free on the region's own counter.
  std::mutex mutex_;
  std::condition_variable worker_cv_;     // Workers: new submission or stop.
  std::condition_variable submit_cv_;     // Submitters: reconfigure gate open.
  std::condition_variable quiescent_cv_;  // Reconfigurers: live_regions_ == 0.
  std::vector<TaskContext*> regions_;     // Listed regions, oldest first.
  std::vector<std::thread> workers_;
  bool stop_ = false;
  int live_regions_ = 0;
  int reconfigure_waiters_ = 0;

  std::mutex reconfigure_mutex_;  // Serializes concurrent reconfigurers.
};

/// The calling thread's current region deadline (time_point::max() = none).
/// Regions submitted by this thread inherit it — see DeadlineScope.
std::chrono::steady_clock::time_point current_deadline();

/// RAII deadline for every parallel region the current thread submits while
/// the scope is alive.  Nested scopes compose by taking the earlier
/// deadline; the previous value is restored on destruction.
///
/// Semantics (cooperative, chunk-grained): once the deadline passes, the
/// region's unstarted chunks are skipped — a chunk already running is never
/// preempted — the region is drained cleanly through the normal teardown
/// protocol, and the submitting call throws cc::Error(kDeadlineExceeded).
/// The scheduler remains fully usable afterwards: a deadline cancels one
/// region, not the pool.  Results of a cancelled region are unspecified
/// (some chunks never ran); only the exception is the contract.
///
///   parallel::DeadlineScope deadline(std::chrono::milliseconds(50));
///   auto decoded = compressor.decompress(archive);  // throws if > 50 ms
class DeadlineScope {
 public:
  explicit DeadlineScope(std::chrono::steady_clock::time_point deadline);
  /// Convenience: deadline = now + @p budget.
  explicit DeadlineScope(std::chrono::nanoseconds budget)
      : DeadlineScope(std::chrono::steady_clock::now() + budget) {}
  ~DeadlineScope();

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

 private:
  std::chrono::steady_clock::time_point previous_;
};

/// Effective thread count of the process-wide scheduler.
inline int num_threads() { return ThreadPool::instance().num_threads(); }

/// Runtime override of the scheduler size (0 restores the CC_THREADS /
/// hardware default).  Used by tests and benchmarks to compare thread counts
/// within one process; never from inside a parallel region.
inline void set_num_threads(int n) { ThreadPool::instance().set_num_threads(n); }

/// Grain for loops whose per-element cost is modest: targets ~64 chunks so
/// any plausible machine is saturated, with a floor that keeps per-chunk
/// bookkeeping negligible.  Depends only on @p range — never on the thread
/// count — so chunk boundaries (and therefore reduction order) are stable.
inline index_t default_grain(index_t range, index_t min_grain = 16) {
  return std::max(min_grain, (range + 63) / 64);
}

/// Run body(chunk_begin, chunk_end) over [begin, end) split into chunks of
/// @p grain iterations (the last chunk may be short).  Chunk boundaries are a
/// pure function of (begin, end, grain): bodies writing per-index outputs
/// produce identical results at any thread count and any concurrency level.
template <typename Body>
void parallel_for(index_t begin, index_t end, index_t grain, Body&& body) {
  const index_t range = end - begin;
  if (range <= 0) return;
  grain = std::max<index_t>(grain, 1);
  const index_t chunks = (range + grain - 1) / grain;
  if (chunks <= 1) {
    body(begin, end);
    return;
  }
  const std::function<void(index_t)> fn = [&](index_t chunk) {
    const index_t b = begin + chunk * grain;
    body(b, std::min(end, b + grain));
  };
  ThreadPool::instance().run_chunks(chunks, fn);
}

/// Ordered deterministic reduction: evaluates
/// body(chunk_begin, chunk_end, identity) -> T per chunk, then folds the
/// partials with combine() in ascending chunk order.  Because the chunking
/// depends only on (begin, end, grain), the combine tree — and hence every
/// floating-point rounding — is bit-identical at any thread count.
template <typename T, typename Body, typename Combine>
T parallel_reduce(index_t begin, index_t end, index_t grain, T identity,
                  Body&& body, Combine&& combine) {
  const index_t range = end - begin;
  if (range <= 0) return identity;
  grain = std::max<index_t>(grain, 1);
  const index_t chunks = (range + grain - 1) / grain;
  if (chunks <= 1) return body(begin, end, std::move(identity));
  std::vector<T> partials(static_cast<std::size_t>(chunks), identity);
  const std::function<void(index_t)> fn = [&](index_t chunk) {
    const index_t b = begin + chunk * grain;
    partials[static_cast<std::size_t>(chunk)] =
        body(b, std::min(end, b + grain), identity);
  };
  ThreadPool::instance().run_chunks(chunks, fn);
  T total = std::move(partials[0]);
  for (index_t chunk = 1; chunk < chunks; ++chunk)
    total = combine(std::move(total),
                    std::move(partials[static_cast<std::size_t>(chunk)]));
  return total;
}

}  // namespace pyblaz::parallel
