#include "core/parallel/thread_pool.hpp"

#include <chrono>
#include <cstdlib>
#include <stdexcept>

#include "core/codec/workspace.hpp"
#include "core/error/error.hpp"
#include "core/fault/fault.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/telemetry/trace.hpp"

namespace pyblaz::parallel {

namespace {

/// The calling thread's inherited region deadline (DeadlineScope).
thread_local std::chrono::steady_clock::time_point t_deadline =
    std::chrono::steady_clock::time_point::max();

// --------------------------------------------------------------- telemetry
// All observational: counters and histograms never influence chunking or
// claim order, so the determinism contract is untouched.

/// Submit -> first chunk claim: how long a region queued before anything ran
/// (includes any wait at the reconfigure gate).
void record_first_claim(const TaskContext* context) {
  static telemetry::Histogram& queue_wait =
      telemetry::histogram("sched.region.queue_wait_ns");
  queue_wait.record_seconds(std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                context->submit_time())
                                .count());
}

/// Once per region that missed its deadline — pool path (run_region's
/// rethrow) and inline path both land here, so the counters agree no matter
/// where the region executed.
void record_deadline_exceeded() {
  static telemetry::Counter& missed =
      telemetry::counter("sched.deadline_exceeded");
  static telemetry::Counter& detected =
      telemetry::counter("fault.detected.deadline_exceeded");
  missed.increment();
  detected.increment();
}

/// True on any thread currently executing scheduler chunks (workers and the
/// participating callers).  Nested parallel calls from such a thread run
/// inline: re-entering the scheduler would oversubscribe the machine, and a
/// worker parked inside a nested submission could deadlock the region it is
/// already draining.
thread_local bool t_inside_pool = false;

struct InsidePoolGuard {
  // Saves and restores rather than clearing: a nested inline region must not
  // strip the "inside pool" mark from the enclosing region when it ends.
  bool previous = t_inside_pool;
  InsidePoolGuard() { t_inside_pool = true; }
  ~InsidePoolGuard() { t_inside_pool = previous; }
};

/// CC_THREADS parsed as a positive int (clamped to 1024), else the hardware
/// thread count.
int default_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  if (const char* env = std::getenv("CC_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0)
      return static_cast<int>(std::min<long>(parsed, 1024));
  }
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool;
  return pool;
}

ThreadPool::ThreadPool() : target_threads_(default_thread_count()) {}

ThreadPool::~ThreadPool() {
  std::vector<std::thread> stopped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    stopped.swap(workers_);
  }
  worker_cv_.notify_all();
  for (std::thread& worker : stopped) worker.join();
}

void ThreadPool::set_num_threads(int n) {
  // Quiescence counts the caller's own region, so a resize from inside one
  // would wait for itself forever while its closed gate blocked every other
  // submitter.  Refuse it at every thread count, inline path included.
  if (t_inside_pool)
    throw std::logic_error(
        "parallel::set_num_threads called from inside a parallel region");
  std::lock_guard<std::mutex> serial(reconfigure_mutex_);
  std::vector<std::thread> stopped;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Closing the gate first guarantees progress against a stream of
    // concurrent submitters: they queue at submit_cv_ while the regions
    // already in flight drain to zero.
    ++reconfigure_waiters_;
    quiescent_cv_.wait(lock, [&] { return live_regions_ == 0; });
    stop_ = true;
    stopped.swap(workers_);
  }
  worker_cv_.notify_all();
  for (std::thread& worker : stopped) worker.join();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = false;
    target_threads_.store(n > 0 ? std::min(n, 1024) : default_thread_count(),
                          std::memory_order_relaxed);
    --reconfigure_waiters_;
  }
  submit_cv_.notify_all();
}

void ThreadPool::ensure_workers_locked() {
  stop_ = false;
  const int wanted = std::max(0, num_threads() - 1);  // Callers participate.
  while (static_cast<int>(workers_.size()) < wanted)
    workers_.emplace_back([this] { worker_loop(); });
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // Scanning under the same mutex that lists regions closes the submit
    // race: a region listed after this scan notifies worker_cv_, and the
    // wait rescans before sleeping.
    TaskContext* context = nullptr;
    worker_cv_.wait(lock, [&] {
      return stop_ || (context = find_work_locked()) != nullptr;
    });
    if (stop_) return;
    lock.unlock();
    drain(context);
    context->remove_drainer_and_notify();
    lock.lock();
  }
}

TaskContext* ThreadPool::find_work_locked() {
  for (TaskContext* context : regions_) {
    if (context->claimable()) {
      // Registering under mutex_, while the context is still listed, is
      // what keeps the submitting caller from tearing the region down
      // before this drainer's claims are accounted.
      context->add_drainer();
      return context;
    }
  }
  return nullptr;
}

void ThreadPool::drain(TaskContext* context, TaskContext* own) {
  InsidePoolGuard guard;
  // A fresh workspace frame per drain: chunk bodies of this region can never
  // clobber coefficient rows held by an enclosing chunk body on this thread
  // (nested inline regions) — see core/codec/workspace.hpp.
  internal::WorkspaceScope workspace_frame;
  // Work-conservation accounting: every assist is a waiting caller usefully
  // draining somebody else's region instead of spinning.
  static telemetry::Counter& drains =
      telemetry::counter("sched.cross_region.drains");
  static telemetry::Counter& drained_chunks =
      telemetry::counter("sched.cross_region.drained_chunks");
  if (own) drains.increment();
  telemetry::TraceSpan span(own ? "sched.assist" : "sched.region");
  for (;;) {
    const index_t chunk = context->claim();
    if (chunk >= context->num_chunks()) {
      // Every drainer that observes exhaustion delists (idempotently), so the
      // region is delisted before its caller can pass wait_complete().
      delist(context);
      return;
    }
    // The claim counter starts at 0, so chunk 0 is the region's first claim.
    if (chunk == 0) record_first_claim(context);
    if (own) drained_chunks.increment();
    // A cancelled region's chunks are claimed and finished but not run:
    // exhaustion, delisting, and wait_complete() tear the region down
    // through the normal protocol, leaving the scheduler reusable.  The
    // deadline is the drained region's own, not the assisting caller's.
    if (!context->check_deadline()) {
      try {
        fault::point("sched.chunk");
        context->run(chunk);
      } catch (...) {
        context->record_exception(std::current_exception());
      }
    }
    context->finish_chunk();
    // An assisting waiter returns as soon as its own region finishes.  The
    // drained region stays listed — it is still claimable, and delisting on
    // an early stop would hide its remaining chunks from every scanner.
    if (own && own->chunks_complete()) return;
  }
}

void ThreadPool::assist_while_incomplete(TaskContext* own) {
  while (!own->chunks_complete()) {
    // The waiting caller is a deadline observer too: if every chunk was
    // claimed before the deadline passed but the tail is stalled in a
    // worker, this is where cancellation gets recorded.
    own->check_deadline();
    TaskContext* other = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      other = find_work_locked();
    }
    if (!other) {
      // Nothing claimable anywhere: sleep on our own completion, but keep
      // rescanning in case a new region arrives while our tail still runs.
      if (own->wait_complete_for(std::chrono::microseconds(200))) return;
      continue;
    }
    drain(other, own);
    other->remove_drainer_and_notify();
  }
  own->wait_complete();
}

void ThreadPool::delist(TaskContext* context) {
  std::lock_guard<std::mutex> lock(mutex_);
  regions_.erase(std::remove(regions_.begin(), regions_.end(), context),
                 regions_.end());
}

void ThreadPool::run_region(index_t num_chunks,
                            const std::function<void(index_t)>& fn,
                            std::chrono::steady_clock::time_point deadline) {
  static telemetry::Counter& submitted =
      telemetry::counter("sched.regions_submitted");
  static telemetry::Histogram& region_wall =
      telemetry::histogram("sched.region.wall_ns");
  submitted.increment();

  TaskContext context(num_chunks, fn, deadline);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    submit_cv_.wait(lock, [&] { return reconfigure_waiters_ == 0; });
    ++live_regions_;
    ensure_workers_locked();
    regions_.push_back(&context);
  }
  worker_cv_.notify_all();

  drain(&context);                    // The caller drains alongside the workers.
  assist_while_incomplete(&context);  // Work-conserving wait for the tail.

  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--live_regions_ == 0) quiescent_cv_.notify_all();
  }
  // Submit -> fully drained, the per-region latency a service tier would
  // report.
  region_wall.record_seconds(
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    context.submit_time())
          .count());
  if (std::exception_ptr error = context.exception()) {
    try {
      std::rethrow_exception(error);
    } catch (const cc::Error& e) {
      if (e.code() == cc::ErrorCode::kDeadlineExceeded)
        record_deadline_exceeded();
      throw;
    }
  }
}

void ThreadPool::run_chunks(index_t num_chunks,
                            const std::function<void(index_t)>& fn) {
  if (num_chunks <= 0) return;
  const auto deadline = current_deadline();
  if (t_inside_pool || num_threads() <= 1 || num_chunks == 1) {
    InsidePoolGuard guard;
    internal::WorkspaceScope workspace_frame;
    // The inline path honors the same chunk-grained contract as the pool:
    // the deadline is observed between chunks (never preempting one), and
    // the sched.chunk fault site fires here too, so CC_THREADS=1 runs and
    // nested regions are testable like any other.
    const bool has_deadline =
        deadline != std::chrono::steady_clock::time_point::max();
    for (index_t chunk = 0; chunk < num_chunks; ++chunk) {
      if (has_deadline && std::chrono::steady_clock::now() >= deadline) {
        record_deadline_exceeded();
        throw cc::Error(cc::ErrorCode::kDeadlineExceeded, "sched.region",
                        "region exceeded its deadline; unstarted chunks were "
                        "skipped");
      }
      fault::point("sched.chunk");
      fn(chunk);
    }
    return;
  }
  run_region(num_chunks, fn, deadline);
}

std::chrono::steady_clock::time_point current_deadline() {
  return t_deadline;
}

DeadlineScope::DeadlineScope(std::chrono::steady_clock::time_point deadline)
    : previous_(t_deadline) {
  t_deadline = std::min(previous_, deadline);
}

DeadlineScope::~DeadlineScope() { t_deadline = previous_; }

}  // namespace pyblaz::parallel
