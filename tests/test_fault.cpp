/// Fault-injection subsystem (src/core/fault/) and the failure paths it
/// unlocks: CC_FAULT grammar round-trips through arm(), corruption replays
/// byte-identically from its seed, injected allocation failures and chunk
/// exceptions surface as typed cc::Error without poisoning the scheduler,
/// and deadlines cancel stalled regions and leave the pool reusable.  The
/// FaultEnv suite runs only under the `fault_env_corruption` ctest leg,
/// which arms CC_FAULT=serialize.output:flip=2,seed=11 through the
/// environment path.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/codec/compressor.hpp"
#include "core/codec/serialization.hpp"
#include "core/error/error.hpp"
#include "core/fault/fault.hpp"
#include "core/ndarray/ndarray_ops.hpp"
#include "core/parallel/thread_pool.hpp"
#include "core/telemetry/telemetry.hpp"
#include "core/util/rng.hpp"

namespace pyblaz {
namespace {

/// Disarms every fault spec when a test exits, pass or fail — an armed
/// corruption spec leaking into later tests would corrupt *their* archives.
struct FaultGuard {
  ~FaultGuard() { fault::disarm_all(); }
};

/// Restores the default thread count.
struct SchedulerGuard {
  ~SchedulerGuard() { parallel::set_num_threads(0); }
};

CompressedArray small_archive_source() {
  Compressor compressor({.block_shape = Shape{4, 4},
                         .float_type = FloatType::kFloat32,
                         .index_type = IndexType::kInt8});
  Rng rng(1601);
  return compressor.compress(random_smooth(Shape{16, 16}, rng));
}

void expect_arrays_equal(const CompressedArray& a, const CompressedArray& b) {
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_EQ(a.block_shape, b.block_shape);
  EXPECT_EQ(a.float_type, b.float_type);
  EXPECT_EQ(a.index_type, b.index_type);
  EXPECT_EQ(a.transform, b.transform);
  EXPECT_EQ(a.biggest, b.biggest);
  EXPECT_EQ(a.indices, b.indices);
}

// ---------------------------------------------------------------- arm grammar

TEST(Fault, ArmAcceptsTheDocumentedGrammar) {
  FaultGuard guard;
  EXPECT_TRUE(fault::arm("site:throw"));
  EXPECT_TRUE(fault::arm("site:badalloc"));
  EXPECT_TRUE(fault::arm("site:delay=0"));
  EXPECT_TRUE(fault::arm("site:flip=3,seed=7,nth=2"));
  EXPECT_TRUE(fault::arm("site:truncate=9,every=4"));
  EXPECT_TRUE(fault::arm("site:throw,p=0.5,seed=1"));
  EXPECT_TRUE(fault::arm("a.b:throw;c.d:flip=1,seed=2"));
  EXPECT_TRUE(fault::arm("a:throw;;b:throw"));  // Empty clause is skipped.
}

TEST(Fault, ArmRejectsMalformedSpecsWithoutArmingAnything) {
  FaultGuard guard;
  const char* bad[] = {
      "",                  // No clause at all.
      "site",              // No action.
      ":throw",            // No site.
      "site:",             // Empty action.
      "site:bogus",        // Unknown action.
      "site:throw=1",      // throw takes no value.
      "site:flip",         // flip needs a count.
      "site:flip=0",       // Zero flips is a no-op typo, not a spec.
      "site:truncate=0",   // Likewise.
      "site:delay",        // delay needs milliseconds.
      "site:delay=abc",    // Not a number.
      "site:throw,foo=1",  // Unknown selector.
      "site:throw,nth=",   // Selector needs a value.
      "site:throw,every=0",
      "site:throw,p=2",        // Probability out of [0, 1].
      "site:p=0.5",            // p is a selector, not an action.
      "good:throw;bad:bogus",  // All-or-nothing across clauses.
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(fault::arm(spec)) << "accepted: " << spec;
  }
  // Nothing half-armed: a site named by a rejected clause never fires.
  EXPECT_FALSE(fault::armed());
  fault::point("good");
  fault::point("site");
  EXPECT_EQ(fault::hits("site"), 0u);
}

// --------------------------------------------------------- firing + selectors

TEST(Fault, PointThrowsTypedErrorAndCounts) {
  FaultGuard guard;
  ASSERT_TRUE(fault::arm("t.site:throw"));
  try {
    fault::point("t.site");
    FAIL() << "armed throw did not fire";
  } catch (const cc::Error& e) {
    EXPECT_EQ(e.code(), cc::ErrorCode::kFaultInjected);
    EXPECT_EQ(e.site(), "t.site");
  }
  EXPECT_EQ(fault::hits("t.site"), 1u);
  EXPECT_EQ(fault::fired("t.site"), 1u);
  fault::point("other.site");  // No spec for this site: silent.
}

TEST(Fault, NthSelectorFiresExactlyOnce) {
  FaultGuard guard;
  ASSERT_TRUE(fault::arm("n.site:throw,nth=2"));
  fault::point("n.site");  // Hit 0.
  fault::point("n.site");  // Hit 1.
  EXPECT_THROW(fault::point("n.site"), cc::Error);  // Hit 2 fires.
  fault::point("n.site");  // Hit 3: armed but spent.
  EXPECT_EQ(fault::hits("n.site"), 4u);
  EXPECT_EQ(fault::fired("n.site"), 1u);
}

TEST(Fault, EverySelectorFiresPeriodically) {
  FaultGuard guard;
  ASSERT_TRUE(fault::arm("e.site:throw,every=3"));
  int fires = 0;
  for (int hit = 0; hit < 9; ++hit) {
    try {
      fault::point("e.site");
    } catch (const cc::Error&) {
      ++fires;
      EXPECT_EQ(hit % 3, 0) << "fired off-period at hit " << hit;
    }
  }
  EXPECT_EQ(fires, 3);
}

TEST(Fault, ProbabilityEndpointsAreExact) {
  FaultGuard guard;
  ASSERT_TRUE(fault::arm("never.site:throw,p=0"));
  ASSERT_TRUE(fault::arm("always.site:throw,p=1,seed=5"));
  for (int hit = 0; hit < 16; ++hit) fault::point("never.site");
  EXPECT_EQ(fault::fired("never.site"), 0u);
  for (int hit = 0; hit < 16; ++hit)
    EXPECT_THROW(fault::point("always.site"), cc::Error);
  EXPECT_EQ(fault::fired("always.site"), 16u);
}

TEST(Fault, DisarmAllResetsCounters) {
  FaultGuard guard;
  ASSERT_TRUE(fault::arm("d.site:throw,nth=99"));
  fault::point("d.site");
  EXPECT_EQ(fault::hits("d.site"), 1u);
  fault::disarm_all();
  EXPECT_FALSE(fault::armed());
  EXPECT_EQ(fault::hits("d.site"), 0u);
  fault::point("d.site");  // Disarmed: silent, uncounted.
  EXPECT_EQ(fault::hits("d.site"), 0u);
}

// ------------------------------------------------------ corruption determinism

TEST(Fault, CorruptionReplaysByteIdentically) {
  FaultGuard guard;
  std::vector<std::uint8_t> original(64);
  for (std::size_t k = 0; k < original.size(); ++k)
    original[k] = static_cast<std::uint8_t>(k);

  // Two arm/corrupt passes over the same call sequence must produce the
  // same bytes hit for hit — this is the CC_FAULT replay contract.
  std::vector<std::vector<std::uint8_t>> first, second;
  for (int pass = 0; pass < 2; ++pass) {
    fault::disarm_all();
    ASSERT_TRUE(fault::arm("c.site:flip=4,seed=42"));
    auto& outs = pass == 0 ? first : second;
    for (int hit = 0; hit < 3; ++hit) {
      std::vector<std::uint8_t> bytes = original;
      fault::corrupt("c.site", bytes);
      outs.push_back(std::move(bytes));
    }
  }
  EXPECT_EQ(first, second);
  EXPECT_NE(first[0], original);       // It actually corrupted.
  EXPECT_NE(first[0], first[1]);       // Distinct hits corrupt differently.

  // A different seed corrupts differently on the same hit.
  fault::disarm_all();
  ASSERT_TRUE(fault::arm("c.site:flip=4,seed=43"));
  std::vector<std::uint8_t> other = original;
  fault::corrupt("c.site", other);
  EXPECT_NE(other, first[0]);
}

TEST(Fault, FlipChangesExactlyTheRequestedBitCount) {
  FaultGuard guard;
  std::vector<std::uint8_t> original(32, 0x00);
  ASSERT_TRUE(fault::arm("f.site:flip=5,seed=7"));
  std::vector<std::uint8_t> bytes = original;
  fault::corrupt("f.site", bytes);
  int flipped = 0;
  for (std::size_t k = 0; k < bytes.size(); ++k)
    flipped += __builtin_popcount(bytes[k] ^ original[k]);
  EXPECT_EQ(flipped, 5);  // Positions are distinct, so no un-flips.
}

TEST(Fault, TruncateDropsTailBytesAndSaturates) {
  FaultGuard guard;
  std::vector<std::uint8_t> bytes(12);
  for (std::size_t k = 0; k < bytes.size(); ++k)
    bytes[k] = static_cast<std::uint8_t>(k);
  ASSERT_TRUE(fault::arm("tr.site:truncate=5"));
  fault::corrupt("tr.site", bytes);
  ASSERT_EQ(bytes.size(), 7u);
  for (std::size_t k = 0; k < bytes.size(); ++k) EXPECT_EQ(bytes[k], k);
  fault::corrupt("tr.site", bytes);
  ASSERT_EQ(bytes.size(), 2u);
  fault::corrupt("tr.site", bytes);  // 5 > 2: drops everything, no underflow.
  EXPECT_TRUE(bytes.empty());
}

// ---------------------------------------------------- archive-path fault sites

TEST(Fault, SerializeOutputCorruptionIsDetectedOnDecode) {
  FaultGuard guard;
  const CompressedArray array = small_archive_source();
  const std::vector<std::uint8_t> clean = serialize(array);

  ASSERT_TRUE(fault::arm("serialize.output:flip=2,seed=9"));
  const std::vector<std::uint8_t> corrupted = serialize(array);
  EXPECT_NE(corrupted, clean);
  EXPECT_EQ(fault::fired("serialize.output"), 1u);
  fault::disarm_all();

  // The v3 checksums catch the damage — decode throws typed, never garbage.
  EXPECT_THROW((void)deserialize(corrupted), cc::Error);
  expect_arrays_equal(deserialize(clean), array);  // The clean copy is fine.
}

TEST(Fault, DeserializeInputFaultLeavesTheCallersBufferIntact) {
  FaultGuard guard;
  const CompressedArray array = small_archive_source();
  const std::vector<std::uint8_t> clean = serialize(array);

  ASSERT_TRUE(fault::arm("deserialize.input:flip=3,seed=4"));
  std::vector<std::uint8_t> buffer = clean;
  EXPECT_THROW((void)deserialize(buffer), cc::Error);
  // The fault corrupts a defensive copy, not the caller's bytes.
  EXPECT_EQ(buffer, clean);
  fault::disarm_all();
  expect_arrays_equal(deserialize(buffer), array);
}

TEST(Fault, AllocationFailureSurfacesAsResourceExhausted) {
  FaultGuard guard;
  const CompressedArray array = small_archive_source();
  const std::vector<std::uint8_t> stream = serialize(array);

  ASSERT_TRUE(fault::arm("deserialize.alloc:badalloc,nth=0"));
  try {
    (void)deserialize(stream);
    FAIL() << "injected bad_alloc did not surface";
  } catch (const cc::Error& e) {
    EXPECT_EQ(e.code(), cc::ErrorCode::kResourceExhausted);
    EXPECT_EQ(e.site(), "deserialize.alloc");
  }
  fault::disarm_all();
  // Allocation failure is survivable: the same stream decodes afterwards.
  expect_arrays_equal(deserialize(stream), array);
}

// --------------------------------------------- scheduler: exception isolation

/// Satellite hammer: concurrent clients submit regions while every 97th
/// scheduler chunk (globally) throws an injected fault.  A faulted region
/// must (a) surface exactly cc::Error(kFaultInjected) to its own submitter,
/// (b) never scribble on another client's buffer, and (c) leave the pool
/// fully usable — the post-storm run must be bit-identical to sequential.
TEST(Fault, SchedulerIsolatesInjectedChunkFailures) {
  SchedulerGuard scheduler_guard;
  FaultGuard fault_guard;
  constexpr int kClients = 4;
  constexpr int kRegionsPerClient = 12;
  constexpr index_t kElems = 4096;
  constexpr index_t kGrain = 64;  // 64 chunks per region.

  const auto expected = [](int client, index_t k) {
    return std::sqrt(static_cast<double>(k + 1)) * (client + 2);
  };

  ASSERT_TRUE(fault::arm("sched.chunk:throw,every=97,seed=3"));
  std::atomic<int> failed_regions{0};
  std::atomic<int> completed_regions{0};
  std::atomic<int> contract_violations{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int client = 0; client < kClients; ++client) {
    clients.emplace_back([&, client] {
      for (int region = 0; region < kRegionsPerClient; ++region) {
        std::vector<double> out(static_cast<std::size_t>(kElems), -1.0);
        bool threw = false;
        try {
          parallel::parallel_for(0, kElems, kGrain,
                                 [&](index_t begin, index_t end) {
                                   for (index_t k = begin; k < end; ++k)
                                     out[static_cast<std::size_t>(k)] =
                                         expected(client, k);
                                 });
        } catch (const cc::Error& e) {
          threw = true;
          if (e.code() != cc::ErrorCode::kFaultInjected)
            contract_violations.fetch_add(1);
        } catch (...) {
          threw = true;
          contract_violations.fetch_add(1);  // Untyped escape.
        }
        for (index_t k = 0; k < kElems; ++k) {
          const double got = out[static_cast<std::size_t>(k)];
          // Finished chunks wrote this client's values; skipped chunks left
          // the sentinel.  Anything else means cross-region interference.
          if (got != expected(client, k) && !(threw && got == -1.0))
            contract_violations.fetch_add(1);
        }
        (threw ? failed_regions : completed_regions).fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(contract_violations.load(), 0);
  EXPECT_GT(failed_regions.load(), 0) << "storm never fired";
  EXPECT_GT(completed_regions.load(), 0) << "storm killed every region";

  // Post-storm: the scheduler is intact and value-deterministic.
  fault::disarm_all();
  std::vector<double> out(static_cast<std::size_t>(kElems));
  parallel::parallel_for(0, kElems, kGrain, [&](index_t begin, index_t end) {
    for (index_t k = begin; k < end; ++k)
      out[static_cast<std::size_t>(k)] = expected(0, k);
  });
  for (index_t k = 0; k < kElems; ++k)
    ASSERT_EQ(out[static_cast<std::size_t>(k)], expected(0, k));
}

// ------------------------------------------------------------------ deadlines

TEST(Deadline, NestedScopesKeepTheEarlierDeadline) {
  using clock = std::chrono::steady_clock;
  EXPECT_EQ(parallel::current_deadline(), clock::time_point::max());
  const clock::time_point near = clock::now() + std::chrono::seconds(1);
  const clock::time_point far = clock::now() + std::chrono::seconds(10);
  {
    parallel::DeadlineScope outer(near);
    EXPECT_EQ(parallel::current_deadline(), near);
    {
      parallel::DeadlineScope inner(far);  // Later: cannot extend.
      EXPECT_EQ(parallel::current_deadline(), near);
    }
    EXPECT_EQ(parallel::current_deadline(), near);
  }
  EXPECT_EQ(parallel::current_deadline(), clock::time_point::max());
}

TEST(Deadline, StalledRegionIsCancelledAndPoolStaysUsable) {
  SchedulerGuard scheduler_guard;
  FaultGuard fault_guard;
  parallel::set_num_threads(2);
  constexpr index_t kElems = 256;
  constexpr index_t kGrain = 16;  // 16 chunks, each stalled 20 ms.

  ASSERT_TRUE(fault::arm("sched.chunk:delay=20"));
  telemetry::Counter& exceeded = telemetry::counter("sched.deadline_exceeded");
  telemetry::Counter& detected =
      telemetry::counter("fault.detected.deadline_exceeded");
  const std::uint64_t exceeded_before = exceeded.value();
  const std::uint64_t detected_before = detected.value();

  std::vector<double> out(static_cast<std::size_t>(kElems), 0.0);
  bool threw = false;
  try {
    parallel::DeadlineScope deadline(std::chrono::milliseconds(5));
    parallel::parallel_for(0, kElems, kGrain, [&](index_t begin, index_t end) {
      for (index_t k = begin; k < end; ++k)
        out[static_cast<std::size_t>(k)] = static_cast<double>(k);
    });
  } catch (const cc::Error& e) {
    threw = true;
    EXPECT_EQ(e.code(), cc::ErrorCode::kDeadlineExceeded);
    EXPECT_EQ(e.site(), "sched.region");
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(exceeded.value(), exceeded_before + 1);
  EXPECT_EQ(detected.value(), detected_before + 1);

  // One cancelled region, not a poisoned pool: with the stall disarmed and
  // no deadline, the identical region completes with the right values.
  fault::disarm_all();
  std::fill(out.begin(), out.end(), 0.0);
  parallel::parallel_for(0, kElems, kGrain, [&](index_t begin, index_t end) {
    for (index_t k = begin; k < end; ++k)
      out[static_cast<std::size_t>(k)] = static_cast<double>(k);
  });
  for (index_t k = 0; k < kElems; ++k)
    ASSERT_EQ(out[static_cast<std::size_t>(k)], static_cast<double>(k));
}

TEST(Deadline, InlineRegionsHonorDeadlinesToo) {
  SchedulerGuard scheduler_guard;
  parallel::set_num_threads(1);  // CC_THREADS=1 shape: chunks run inline.
  bool threw = false;
  try {
    parallel::DeadlineScope deadline(std::chrono::milliseconds(2));
    parallel::parallel_for(0, 64, 8, [&](index_t, index_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
  } catch (const cc::Error& e) {
    threw = true;
    EXPECT_EQ(e.code(), cc::ErrorCode::kDeadlineExceeded);
  }
  EXPECT_TRUE(threw);

  // Inline path stays usable as well.
  std::atomic<int> chunks{0};
  parallel::parallel_for(0, 64, 8,
                         [&](index_t, index_t) { chunks.fetch_add(1); });
  EXPECT_EQ(chunks.load(), 8);
}

TEST(Deadline, GenerousDeadlineIsANoOp) {
  SchedulerGuard scheduler_guard;
  telemetry::Counter& exceeded = telemetry::counter("sched.deadline_exceeded");
  const std::uint64_t before = exceeded.value();
  constexpr index_t kElems = 1024;
  std::vector<double> out(static_cast<std::size_t>(kElems), 0.0);
  {
    parallel::DeadlineScope deadline(std::chrono::minutes(10));
    parallel::parallel_for(0, kElems, 32, [&](index_t begin, index_t end) {
      for (index_t k = begin; k < end; ++k)
        out[static_cast<std::size_t>(k)] = static_cast<double>(3 * k);
    });
  }
  for (index_t k = 0; k < kElems; ++k)
    ASSERT_EQ(out[static_cast<std::size_t>(k)], static_cast<double>(3 * k));
  EXPECT_EQ(exceeded.value(), before);
}

// ------------------------------------------------------- CC_FAULT environment

/// Runs under the `fault_env_corruption` ctest leg, which sets
/// CC_FAULT=serialize.output:flip=2,seed=11.  Pins the environment arming
/// path end to end: the spec parses at first use, the armed corruption
/// fires on serialize(), and the checksummed container detects it.
TEST(FaultEnv, EnvArmedCorruptionFiresAndIsDetected) {
  if (std::getenv("CC_FAULT") == nullptr)
    GTEST_SKIP() << "set CC_FAULT=serialize.output:flip=2,seed=11 to run "
                    "(ctest leg: fault_env_corruption)";
  ASSERT_TRUE(fault::armed());

  const CompressedArray array = small_archive_source();
  const std::uint64_t fired_before = fault::fired("serialize.output");
  const std::vector<std::uint8_t> corrupted = serialize(array);
  EXPECT_GT(fault::fired("serialize.output"), fired_before);
  EXPECT_THROW((void)deserialize(corrupted), cc::Error);
}

}  // namespace
}  // namespace pyblaz
