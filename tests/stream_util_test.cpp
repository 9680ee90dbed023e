// The streaming daemon's infrastructure pieces in isolation: the SPSC ring
// (including a two-thread stress pass that gives TSan a real interleaving
// to check) and the commit-latency histogram.
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "stream/daemon.hpp"
#include "util/spsc_ring.hpp"

namespace icecube {
namespace {

// --- SPSC ring ------------------------------------------------------------

TEST(SpscRing, FifoOrderAndCapacity) {
  SpscRing<int, 8> ring;
  EXPECT_EQ(ring.capacity(), 7u);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));  // full: backpressure, not overwrite
  EXPECT_EQ(ring.size(), 7u);
  for (int i = 0; i < 7; ++i) {
    int out = -1;
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SpscRing, WrapAroundManyRevolutions) {
  SpscRing<std::uint64_t, 16> ring;
  std::uint64_t next_in = 0;
  std::uint64_t next_out = 0;
  // Push/pop in ragged runs so head and tail cross the wrap point at
  // different offsets many times.
  for (int round = 0; round < 1000; ++round) {
    const std::size_t burst = 1 + (static_cast<std::size_t>(round) % 11);
    for (std::size_t i = 0; i < burst; ++i) {
      if (!ring.try_push(next_in)) break;
      ++next_in;
    }
    const std::size_t drain = 1 + (static_cast<std::size_t>(round) % 7);
    for (std::size_t i = 0; i < drain; ++i) {
      std::uint64_t out = 0;
      if (!ring.try_pop(out)) break;
      EXPECT_EQ(out, next_out++);
    }
  }
  std::uint64_t out = 0;
  while (ring.try_pop(out)) EXPECT_EQ(out, next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(SpscRing, PopBatchDrainsInOrder) {
  SpscRing<int, 32> ring;
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(ring.try_push(i));
  std::vector<int> got(32, -1);
  EXPECT_EQ(ring.pop_batch(got.begin(), 8), 8u);
  EXPECT_EQ(ring.pop_batch(got.begin() + 8, 32), 12u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, MovesOwnershipThroughTheRing) {
  SpscRing<std::unique_ptr<int>, 8> ring;
  ASSERT_TRUE(ring.try_push(std::make_unique<int>(42)));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);
}

/// The TSan workhorse: one producer pushes 1M sequenced values while the
/// consumer concurrently drains (mixing try_pop and pop_batch). Any missing
/// ordering in the ring shows up as a TSan race or a sequence gap.
TEST(SpscRing, TwoThreadStressOneMillion) {
  constexpr std::uint64_t kCount = 1'000'000;
  SpscRing<std::uint64_t, 1024> ring;
  std::thread producer([&ring] {
    for (std::uint64_t i = 0; i < kCount; ++i) {
      while (!ring.try_push(i)) std::this_thread::yield();
    }
  });
  std::uint64_t expected = 0;
  std::uint64_t checksum = 0;
  std::vector<std::uint64_t> batch(256);
  while (expected < kCount) {
    if (expected % 3 == 0) {
      const std::size_t got = ring.pop_batch(batch.begin(), batch.size());
      for (std::size_t i = 0; i < got; ++i) {
        ASSERT_EQ(batch[i], expected++);
        checksum += batch[i];
      }
      if (got == 0) std::this_thread::yield();
    } else {
      std::uint64_t out = 0;
      if (ring.try_pop(out)) {
        ASSERT_EQ(out, expected++);
        checksum += out;
      } else {
        std::this_thread::yield();
      }
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(checksum, kCount * (kCount - 1) / 2);
}

// --- latency histogram ----------------------------------------------------

TEST(LatencyHistogram, QuantilesBracketTheSamples) {
  LatencyHistogram hist;
  // 1µs and 1ms populations, 90/10.
  for (int i = 0; i < 900; ++i) hist.record(1'000);
  for (int i = 0; i < 100; ++i) hist.record(1'000'000);
  EXPECT_EQ(hist.count(), 1000u);
  const double p50 = hist.quantile_ms(0.50);
  const double p99 = hist.quantile_ms(0.99);
  EXPECT_GT(p50, 0.0005);
  EXPECT_LT(p50, 0.005);
  EXPECT_GT(p99, 0.5);
  EXPECT_LT(p99, 3.0);
  EXPECT_LE(p50, p99);
}

TEST(LatencyHistogram, InterpolatesByRankWithinOneBucket) {
  LatencyHistogram hist;
  // Every sample lands in the bucket [2^20, 2^21) ns.
  for (std::uint64_t ns = 1'100'000; ns < 2'000'000; ns += 1'000) {
    hist.record(ns);
  }
  const double lo_ms = 1048576 / 1e6;
  const double hi_ms = 2097152 / 1e6;
  const double p10 = hist.quantile_ms(0.10);
  const double p50 = hist.quantile_ms(0.50);
  const double p90 = hist.quantile_ms(0.90);
  EXPECT_LT(p10, p50);
  EXPECT_LT(p50, p90);
  EXPECT_GE(p10, lo_ms);
  EXPECT_LT(p90, hi_ms);
}

TEST(LatencyHistogram, EmptyHistogramReportsZero) {
  const LatencyHistogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.quantile_ms(0.5), 0.0);
}

}  // namespace
}  // namespace icecube
