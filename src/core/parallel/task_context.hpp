#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>

#include "core/error/error.hpp"
#include "core/ndarray/shape.hpp"

namespace pyblaz::parallel {

/// Per-region job object of the concurrent-region scheduler.
///
/// One TaskContext lives on the submitting caller's stack for the duration of
/// its parallel region and owns everything that used to be the pool's single
/// global job state: the chunk-claim counter, the completion accounting, and
/// the exception slot.  Because each region carries its own context, N
/// top-level callers can have N regions in flight at once — the scheduler
/// only has to route workers to contexts, never to serialize regions.
///
/// Determinism is unchanged from the single-job pool: the chunk -> work
/// mapping is fixed by the caller (a pure function of range and grain), and
/// claim() is a bare atomic counter, so the order in which threads — from
/// this region's caller, the shared workers, or nobody at all — claim chunks
/// never affects results.
///
/// Lifecycle protocol (what makes stack ownership safe):
///   - The context is discoverable by other threads only while it is listed
///     in the scheduler's region list.  A thread registers as a drainer
///     (add_drainer) under the list's mutex, and delisting also happens under
///     that mutex, so after delisting no new drainer can appear.
///   - Every drainer's claim loop ends by observing exhaustion, which delists
///     the context (idempotently).  The submitting caller always drains its
///     own region, so delisting is guaranteed before the caller waits.
///   - wait_complete() returns only when every chunk has finished *and* every
///     registered drainer has left, after which no other thread can hold a
///     pointer to the context and destruction is safe.
///
/// Deadlines (parallel::DeadlineScope): a region may carry an absolute
/// deadline.  Cancellation is cooperative and chunk-grained — drainers call
/// check_deadline() between chunks, and once it trips they keep *claiming*
/// chunks but skip *running* them, so the normal exhaustion/delist/teardown
/// machinery drains the region cleanly and the scheduler stays reusable.  A
/// chunk already running is never preempted; the caller observes
/// cc::Error(kDeadlineExceeded) through the ordinary exception slot.
class TaskContext {
 public:
  /// The submit time is captured here, before the caller waits at the
  /// reconfigure gate, so submit -> first-claim telemetry measures true
  /// scheduling latency including queueing.  @p deadline is absolute;
  /// time_point::max() means none.
  TaskContext(index_t num_chunks, const std::function<void(index_t)>& fn,
              std::chrono::steady_clock::time_point deadline =
                  std::chrono::steady_clock::time_point::max())
      : fn_(&fn),
        num_chunks_(num_chunks),
        submit_time_(std::chrono::steady_clock::now()),
        deadline_(deadline) {}

  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

  index_t num_chunks() const { return num_chunks_; }

  /// When the caller submitted the region (see constructor).
  std::chrono::steady_clock::time_point submit_time() const {
    return submit_time_;
  }

  /// Hand out the next chunk index.  May overshoot num_chunks() by up to the
  /// number of drainers — an overshooting claim just tells that drainer to
  /// leave.
  index_t claim() { return next_chunk_.fetch_add(1, std::memory_order_relaxed); }

  /// True while unclaimed chunks remain — the region-scan predicate.
  bool claimable() const {
    return next_chunk_.load(std::memory_order_relaxed) < num_chunks_;
  }

  void run(index_t chunk) const { (*fn_)(chunk); }

  /// Chunk completion.  The release pairs with wait_complete()'s acquire, so
  /// every chunk body's writes happen-before the caller's return.
  void finish_chunk() { chunks_done_.fetch_add(1, std::memory_order_acq_rel); }

  /// Register a drainer.  MUST be called under the region list's mutex
  /// while the context is still listed — that is what keeps the caller from
  /// destroying the context underneath the drainer.
  void add_drainer() { drainers_.fetch_add(1, std::memory_order_relaxed); }

  /// Deregister a drainer.  Taking the mutex around the decrement pairs with
  /// the wait in wait_complete(): the final leave cannot slip between the
  /// caller's predicate check and its sleep.  The notify stays UNDER the
  /// mutex deliberately: once drainers_ hits zero the caller may wake (even
  /// spuriously), see the predicate true, and destroy this stack-allocated
  /// context — notifying after unlock would touch a dead condition
  /// variable.  Held-lock notify forces the waiter to block on mutex_ until
  /// this call has finished with the object.
  void remove_drainer_and_notify() {
    std::lock_guard<std::mutex> lock(mutex_);
    drainers_.fetch_sub(1, std::memory_order_release);
    done_cv_.notify_all();
  }

  /// Record the region's first exception (later ones are dropped, matching
  /// the single-job pool's contract).
  void record_exception(std::exception_ptr error) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!exception_) exception_ = std::move(error);
  }

  /// True once every chunk has finished (drainers may still be leaving).
  /// The work-conserving waiter polls this between foreign chunks: it is the
  /// signal to stop assisting and return to its own region.
  bool chunks_complete() const {
    return chunks_done_.load(std::memory_order_acquire) >= num_chunks_;
  }

  /// Block the submitting caller until the region is fully torn down: all
  /// chunks finished and all drainers gone.
  void wait_complete() {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return chunks_done_.load(std::memory_order_acquire) >= num_chunks_ &&
             drainers_.load(std::memory_order_acquire) == 0;
    });
  }

  /// wait_complete() with a timeout, for the work-conserving waiter's
  /// rescan cadence.  Returns true when the region is fully torn down
  /// (chunks finished AND drainers gone), false on timeout.
  bool wait_complete_for(std::chrono::microseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return done_cv_.wait_for(lock, timeout, [&] {
      return chunks_done_.load(std::memory_order_acquire) >= num_chunks_ &&
             drainers_.load(std::memory_order_acquire) == 0;
    });
  }

  /// The recorded exception, if any.  Only meaningful after wait_complete()
  /// (no drainer can still be writing).
  std::exception_ptr exception() const { return exception_; }

  bool has_deadline() const {
    return deadline_ != std::chrono::steady_clock::time_point::max();
  }

  /// True once the region has been cancelled: drainers still claim and
  /// finish chunks (teardown must run), but skip the bodies.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Deadline observation point, called by every drain loop between chunks.
  /// Returns true when the region is (now) cancelled.  The first observer
  /// records kDeadlineExceeded through the ordinary exception slot — and
  /// record_exception()'s first-wins rule means a real chunk exception that
  /// arrived earlier is preserved, never clobbered by the cancellation.
  bool check_deadline() {
    if (cancelled()) return true;
    if (!has_deadline() || std::chrono::steady_clock::now() < deadline_)
      return false;
    bool expected = false;
    if (cancelled_.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
      record_exception(std::make_exception_ptr(cc::Error(
          cc::ErrorCode::kDeadlineExceeded, "sched.region",
          "region exceeded its deadline; unstarted chunks were skipped")));
    }
    return true;
  }

 private:
  const std::function<void(index_t)>* fn_;
  const index_t num_chunks_;
  const std::chrono::steady_clock::time_point submit_time_;
  const std::chrono::steady_clock::time_point deadline_;

  std::atomic<index_t> next_chunk_{0};
  std::atomic<index_t> chunks_done_{0};
  std::atomic<int> drainers_{0};
  std::atomic<bool> cancelled_{false};

  std::mutex mutex_;
  std::condition_variable done_cv_;
  std::exception_ptr exception_;
};

}  // namespace pyblaz::parallel
