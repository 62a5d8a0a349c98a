/// The concurrency contract of the concurrent-region scheduler
/// (src/core/parallel/): independent top-level parallel regions overlap
/// instead of queueing, and overlapping changes NOTHING about the results —
/// archives stay byte-identical and operation results bit-identical to
/// sequential runs, at any thread count and any number of concurrent
/// callers.  Chunk boundaries and the chunk -> work mapping are a
/// pure function of range and grain, each region claims from its own
/// TaskContext counter, and regions share nothing but the workers; the tests
/// here drive real concurrent clients through every layer (codec, ops,
/// serializer) and compare bitwise against sequential references.
///
/// Also covered: the quiescence protocol (set_num_threads racing in-flight
/// submitters, and refused from inside a region), per-region exception
/// isolation, and the frame-scoped coefficient workspace.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/codec/workspace.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/ops/expr.hpp"
#include "core/ops/ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

/// Restores the default thread count when a test exits, pass or fail.
struct SchedulerGuard {
  ~SchedulerGuard() { parallel::set_num_threads(0); }
};

CompressorSettings test_settings() {
  CompressorSettings settings;
  settings.block_shape = Shape{8, 8};
  settings.float_type = FloatType::kFloat32;
  settings.index_type = IndexType::kInt8;
  settings.transform = TransformKind::kDCT;
  return settings;
}

TEST(Scheduler, ConcurrentRegionsCoverEveryChunkExactlyOnce) {
  SchedulerGuard guard;
  constexpr int kClients = 4;
  constexpr int kRegionsPerClient = 20;
  constexpr index_t kRange = 257;
  parallel::set_num_threads(4);
  std::vector<std::vector<std::atomic<int>>> hits(kClients);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kRange);
    for (auto& cell : h) cell.store(0);
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRegionsPerClient; ++r) {
        parallel::parallel_for(0, kRange, 16, [&](index_t begin, index_t end) {
          for (index_t k = begin; k < end; ++k)
            hits[c][static_cast<std::size_t>(k)]++;
        });
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c)
    for (index_t k = 0; k < kRange; ++k)
      ASSERT_EQ(hits[c][static_cast<std::size_t>(k)].load(), kRegionsPerClient)
          << "client " << c << " index " << k;
}

/// The tentpole determinism property: M clients concurrently compressing,
/// combining (ops::lincomb via the expression front end), serializing, and
/// decompressing their own arrays produce exactly the bytes and bits the
/// sequential run produces, at every thread count.
TEST(Scheduler, ConcurrentClientsBitIdenticalToSequential) {
  SchedulerGuard guard;
  constexpr int kClients = 3;
  constexpr int kRounds = 3;
  Compressor compressor(test_settings());

  // Distinct per-client inputs catch cross-region contamination that
  // identical inputs would mask.
  std::vector<NDArray<double>> inputs_a, inputs_b;
  for (int c = 0; c < kClients; ++c) {
    Rng rng(100 + static_cast<std::uint64_t>(c));
    inputs_a.push_back(random_smooth(Shape{96, 96}, rng, 5));
    inputs_b.push_back(random_smooth(Shape{96, 96}, rng, 5));
  }

  struct ClientResult {
    std::vector<std::uint8_t> archive;
    std::vector<double> mixed;
    double dot = 0.0;
  };
  auto session = [&](int c) {
    const CompressedArray a = compressor.compress(inputs_a[c]);
    const CompressedArray b = compressor.compress(inputs_b[c]);
    const CompressedArray mix = a - 0.5 * b + 0.25 * a;
    return ClientResult{serialize(mix),
                        compressor.decompress(mix).vector(),
                        ops::dot(a, b)};
  };

  // Sequential references, one thread, no concurrency.
  parallel::set_num_threads(1);
  std::vector<ClientResult> reference;
  for (int c = 0; c < kClients; ++c) reference.push_back(session(c));

  for (int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    for (int round = 0; round < kRounds; ++round) {
      std::vector<ClientResult> results(kClients);
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] { results[c] = session(c); });
      for (auto& t : clients) t.join();
      for (int c = 0; c < kClients; ++c) {
        ASSERT_EQ(results[c].archive, reference[c].archive)
            << "client " << c << " archive differs at threads=" << threads;
        ASSERT_EQ(results[c].mixed, reference[c].mixed);
        ASSERT_EQ(results[c].dot, reference[c].dot);
      }
    }
  }
}

/// A throwing region must not poison concurrent healthy regions: the
/// exception surfaces on the throwing caller only, and the scheduler stays
/// usable.
TEST(Scheduler, ExceptionsStayWithinTheirRegion) {
  SchedulerGuard guard;
  parallel::set_num_threads(4);
  constexpr int kRounds = 10;
  std::atomic<int> healthy_total{0};
  std::atomic<int> caught{0};
  std::thread thrower([&] {
    for (int r = 0; r < kRounds; ++r) {
      try {
        parallel::parallel_for(0, 64, 1, [&](index_t begin, index_t) {
          if (begin == 13) throw std::runtime_error("chunk 13");
        });
      } catch (const std::runtime_error&) {
        ++caught;
      }
    }
  });
  std::thread healthy([&] {
    for (int r = 0; r < kRounds; ++r) {
      parallel::parallel_for(0, 64, 1, [&](index_t begin, index_t end) {
        healthy_total += static_cast<int>(end - begin);
      });
    }
  });
  thrower.join();
  healthy.join();
  EXPECT_EQ(caught.load(), kRounds);
  EXPECT_EQ(healthy_total.load(), kRounds * 64);
  // Still usable afterwards.
  std::atomic<int> total{0};
  parallel::parallel_for(0, 100, 1, [&](index_t begin, index_t end) {
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 100);
}

/// The set_num_threads quiescence rule: resizing while other threads are
/// mid-submission must neither crash, deadlock, nor lose chunks.
TEST(Scheduler, ResizeWaitsForInFlightRegions) {
  SchedulerGuard guard;
  parallel::set_num_threads(4);
  constexpr int kSubmitters = 3;
  std::atomic<bool> done{false};
  std::atomic<int> started{0};
  std::atomic<long> executed{0};
  std::vector<std::thread> submitters;
  for (int c = 0; c < kSubmitters; ++c) {
    submitters.emplace_back([&] {
      bool first = true;
      while (!done.load()) {
        parallel::parallel_for(0, 128, 4, [&](index_t begin, index_t end) {
          executed += static_cast<long>(end - begin);
        });
        if (first) {
          first = false;
          ++started;
        }
      }
    });
  }
  // Only start resizing once every submitter demonstrably has regions in
  // flight (on a single-core host the resizes could otherwise win every
  // race and never actually contend).
  while (started.load() < kSubmitters) std::this_thread::yield();
  // Hammer resizes against the in-flight submitters.
  for (int r = 0; r < 12; ++r) parallel::set_num_threads(1 + r % 4);
  done.store(true);
  for (auto& t : submitters) t.join();
  // Coverage is exact: every region contributes exactly 128.
  EXPECT_EQ(executed.load() % 128, 0);
  EXPECT_GE(executed.load(), kSubmitters * 128);
}

/// A resize from inside a region would wait for its own region to drain, so
/// it is refused with std::logic_error — on the pool path and on the inline
/// (1-thread) path alike — and the pool stays usable afterwards.
TEST(Scheduler, ResizeInsideRegionThrows) {
  SchedulerGuard guard;
  for (int threads : {4, 1}) {
    parallel::set_num_threads(threads);
    EXPECT_THROW(parallel::parallel_for(0, 64, 1,
                                        [](index_t, index_t) {
                                          parallel::set_num_threads(2);
                                        }),
                 std::logic_error)
        << "threads=" << threads;
    EXPECT_EQ(parallel::num_threads(), threads);
    std::atomic<int> total{0};
    parallel::parallel_for(0, 64, 1, [&](index_t begin, index_t end) {
      total += static_cast<int>(end - begin);
    });
    EXPECT_EQ(total.load(), 64) << "threads=" << threads;
  }
}

/// Concurrent resizers must also serialize cleanly among themselves.
TEST(Scheduler, ConcurrentResizersDoNotDeadlock) {
  SchedulerGuard guard;
  std::vector<std::thread> resizers;
  for (int c = 0; c < 3; ++c)
    resizers.emplace_back([c] {
      for (int r = 0; r < 8; ++r) parallel::set_num_threads(1 + (c + r) % 4);
    });
  for (auto& t : resizers) t.join();
  parallel::set_num_threads(0);
  std::atomic<int> total{0};
  parallel::parallel_for(0, 64, 1, [&](index_t begin, index_t end) {
    total += static_cast<int>(end - begin);
  });
  EXPECT_EQ(total.load(), 64);
}

// ---------------------------------------------------------------------------
// Work-conserving waiters: a caller whose region's tail chunks run on other
// threads drains other regions' chunks instead of sleeping.

/// Deterministic tail-latency scenario: with exactly one shared worker
/// (2 threads total) wedged inside a long chunk of region A, a second
/// client's region B can only complete if A's waiting caller drains one of
/// B's chunks itself — B's chunk 0 blocks until chunk 1 runs, B's own caller
/// is inside chunk 0, and the worker is wedged.  Without work conservation
/// the waiter sleeps in wait_complete() and B deadlocks.
TEST(Scheduler, WaitingCallerDrainsOtherRegionsChunks) {
  SchedulerGuard guard;
  parallel::set_num_threads(2);  // One shared worker + the callers.

  std::mutex m;
  std::condition_variable cv;
  bool worker_engaged = false;  // A's wedged chunk has started.
  bool release_a = false;       // Lets A's wedged chunk finish.
  bool b1_done = false;         // B's chunk 1 ran.
  std::atomic<bool> timed_out{false};
  const auto deadline = std::chrono::seconds(30);

  std::atomic<std::thread::id> a_submitter{};
  std::atomic<std::thread::id> b_runners[2] = {};
  std::atomic<int> b1_frame_depth{0};

  std::thread ta([&] {
    a_submitter.store(std::this_thread::get_id());
    parallel::parallel_for(0, 2, 1, [&](index_t chunk, index_t) {
      (void)chunk;
      if (std::this_thread::get_id() == a_submitter.load()) {
        // The submitting caller's chunk: hold until the worker is wedged in
        // the other chunk, so the caller reaches its work-conserving wait
        // with A's tail demonstrably running on another thread.
        std::unique_lock<std::mutex> lock(m);
        if (!cv.wait_for(lock, deadline, [&] { return worker_engaged; }))
          timed_out = true;
      } else {
        // The worker's chunk: wedge until the test releases it.
        {
          std::lock_guard<std::mutex> lock(m);
          worker_engaged = true;
        }
        cv.notify_all();
        std::unique_lock<std::mutex> lock(m);
        if (!cv.wait_for(lock, deadline, [&] { return release_a; }))
          timed_out = true;
      }
    });
  });

  {
    std::unique_lock<std::mutex> lock(m);
    if (!cv.wait_for(lock, deadline, [&] { return worker_engaged; }))
      timed_out = true;
  }

  std::thread tb([&] {
    parallel::parallel_for(0, 2, 1, [&](index_t chunk, index_t) {
      b_runners[chunk].store(std::this_thread::get_id());
      if (chunk == 0) {
        std::unique_lock<std::mutex> lock(m);
        if (!cv.wait_for(lock, deadline, [&] { return b1_done; }))
          timed_out = true;
      } else {
        // The drain honors the workspace contract: foreign chunks run
        // inside a fresh execution frame.
        b1_frame_depth.store(internal::workspace_frame_depth());
        {
          std::lock_guard<std::mutex> lock(m);
          b1_done = true;
        }
        cv.notify_all();
      }
    });
  });

  tb.join();  // Completes only because SOMEONE ran b1 while b0 held its caller.
  {
    std::lock_guard<std::mutex> lock(m);
    release_a = true;
  }
  cv.notify_all();
  ta.join();

  EXPECT_FALSE(timed_out.load());
  // With the worker wedged in A and B's own caller blocked inside whichever
  // B chunk it claimed, the other B chunk can only have run on A's
  // work-conserving waiter.
  EXPECT_TRUE(b_runners[0].load() == a_submitter.load() ||
              b_runners[1].load() == a_submitter.load());
  EXPECT_GE(b1_frame_depth.load(), 1);
}

// ---------------------------------------------------------------------------
// Frame-scoped coefficient workspace (core/codec/workspace.*).

/// A chunk body that holds a workspace row while running a nested parallel
/// region whose chunks use the same lane must get its row back untouched:
/// the nested region executes in a deeper workspace frame.
TEST(WorkspaceFrames, NestedRegionsCannotClobberHeldRows) {
  SchedulerGuard guard;
  parallel::set_num_threads(4);
  std::atomic<int> violations{0};
  parallel::parallel_for(0, 8, 1, [&](index_t outer_begin, index_t) {
    constexpr std::size_t kCount = 64;
    double* held = internal::coefficient_workspace(kCount, 0);
    const double sentinel = 1000.0 + static_cast<double>(outer_begin);
    for (std::size_t k = 0; k < kCount; ++k) held[k] = sentinel;

    // Nested region (runs inline on this thread) stomps lane 0 of ITS frame.
    parallel::parallel_for(0, 8, 1, [&](index_t, index_t) {
      double* inner = internal::coefficient_workspace(kCount, 0);
      for (std::size_t k = 0; k < kCount; ++k) inner[k] = -1.0;
    });

    for (std::size_t k = 0; k < kCount; ++k)
      if (held[k] != sentinel) ++violations;
  });
  EXPECT_EQ(violations.load(), 0);
}

TEST(WorkspaceFrames, DepthTracksExecutionScopes) {
  SchedulerGuard guard;
  parallel::set_num_threads(2);
  EXPECT_EQ(internal::workspace_frame_depth(), 0);
  parallel::parallel_for(0, 4, 1, [&](index_t, index_t) {
    EXPECT_GE(internal::workspace_frame_depth(), 1);
    const int outer_depth = internal::workspace_frame_depth();
    parallel::parallel_for(0, 4, 1, [&](index_t, index_t) {
      EXPECT_EQ(internal::workspace_frame_depth(), outer_depth + 1);
    });
    EXPECT_EQ(internal::workspace_frame_depth(), outer_depth);
  });
  EXPECT_EQ(internal::workspace_frame_depth(), 0);
}

/// Two clients running workspace-hungry lincombs at once: the per-thread,
/// per-frame rows must never mix operands across regions.  (Bit-identity to
/// the sequential run is the sensitive detector.)
TEST(WorkspaceFrames, ConcurrentLincombsDoNotShareRows) {
  SchedulerGuard guard;
  Compressor compressor(test_settings());
  constexpr int kClients = 2;
  std::vector<CompressedArray> a, b, c;
  for (int k = 0; k < kClients; ++k) {
    Rng rng(500 + static_cast<std::uint64_t>(k));
    a.push_back(compressor.compress(random_smooth(Shape{64, 64}, rng, 4)));
    b.push_back(compressor.compress(random_smooth(Shape{64, 64}, rng, 4)));
    c.push_back(compressor.compress(random_smooth(Shape{64, 64}, rng, 4)));
  }
  auto combine = [&](int k) {
    const CompressedArray mix = a[k] + 0.5 * b[k] - 0.25 * c[k] + 0.125;
    return std::make_pair(mix.biggest, mix.indices);
  };
  parallel::set_num_threads(1);
  std::vector<decltype(combine(0))> reference;
  for (int k = 0; k < kClients; ++k) reference.push_back(combine(k));

  parallel::set_num_threads(4);
  for (int round = 0; round < 5; ++round) {
    std::vector<decltype(combine(0))> results(kClients);
    std::vector<std::thread> clients;
    for (int k = 0; k < kClients; ++k)
      clients.emplace_back([&, k] { results[k] = combine(k); });
    for (auto& t : clients) t.join();
    for (int k = 0; k < kClients; ++k) ASSERT_EQ(results[k], reference[k]);
  }
}

}  // namespace
}  // namespace pyblaz
