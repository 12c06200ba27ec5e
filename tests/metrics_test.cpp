/// \file metrics_test.cpp
/// gap::common metrics registry: exact counters under concurrency,
/// thread-count-independent histogram content, and snapshot deltas. The
/// exposition rendering of a registry is tested in obs_test.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"

namespace gap::common {
namespace {

/// Zeroes the global registry around each case; registrations (and any
/// cached references in engine code) survive reset() by contract.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { metrics().reset(); }
  void TearDown() override { metrics().reset(); }
};

TEST_F(MetricsTest, CounterIsExactUnderConcurrentIncrements) {
  Counter& c = metrics().counter("test.concurrent_adds");
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST_F(MetricsTest, SameNameReturnsSameCounter) {
  Counter& a = metrics().counter("test.same");
  Counter& b = metrics().counter("test.same");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(b.value(), 3u);
}

TEST_F(MetricsTest, ResetZeroesButKeepsRegistrationsValid) {
  Counter& c = metrics().counter("test.reset_me");
  c.add(42);
  metrics().reset();
  EXPECT_EQ(c.value(), 0u);  // same object, zeroed
  c.add(1);
  EXPECT_EQ(metrics().snapshot().counters.at("test.reset_me"), 1u);
}

TEST_F(MetricsTest, GaugeHoldsLastWrite) {
  Gauge& g = metrics().gauge("test.util");
  g.set(0.25);
  g.set(0.75);
  EXPECT_DOUBLE_EQ(g.value(), 0.75);
  EXPECT_DOUBLE_EQ(metrics().snapshot().gauges.at("test.util"), 0.75);
}

TEST_F(MetricsTest, HistogramBucketsArePowerOfTwoAroundUnit) {
  EXPECT_EQ(Histogram::bucket_of(1.0), Histogram::kUnitBucket);
  EXPECT_EQ(Histogram::bucket_of(1.5), Histogram::kUnitBucket);
  EXPECT_EQ(Histogram::bucket_of(2.0), Histogram::kUnitBucket + 1);
  EXPECT_EQ(Histogram::bucket_of(0.5), Histogram::kUnitBucket - 1);
  EXPECT_EQ(Histogram::bucket_of(0.0), 0);
}

TEST_F(MetricsTest, HistogramTracksCountMinMax) {
  Histogram& h = metrics().histogram("test.tau");
  h.record(2.0);
  h.record(0.5);
  h.record(8.0);
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, 3u);
  EXPECT_DOUBLE_EQ(d.min, 0.5);
  EXPECT_DOUBLE_EQ(d.max, 8.0);
}

TEST_F(MetricsTest, HistogramIgnoresNonFiniteClampsNegatives) {
  Histogram& h = metrics().histogram("test.clamp");
  h.record(std::numeric_limits<double>::quiet_NaN());
  h.record(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.data().count, 0u);
  h.record(-3.0);  // clamped to 0
  const HistogramData d = h.data();
  EXPECT_EQ(d.count, 1u);
  EXPECT_DOUBLE_EQ(d.min, 0.0);
  EXPECT_DOUBLE_EQ(d.max, 0.0);
}

/// The determinism contract: the same multiset of samples, recorded in
/// any order from any number of threads, yields identical content.
TEST_F(MetricsTest, HistogramContentIndependentOfThreadCount) {
  constexpr std::size_t kSamples = 4096;
  const auto sample = [](std::size_t i) {
    // Deterministic pseudo-values spanning many buckets.
    return 0.001 * static_cast<double>((i * 2654435761u) % 100000u);
  };

  Histogram& serial = metrics().histogram("test.serial");
  for (std::size_t i = 0; i < kSamples; ++i) serial.record(sample(i));

  Histogram& parallel = metrics().histogram("test.parallel");
  parallel_for(8, kSamples,
               [&](std::size_t i) { parallel.record(sample(i)); });

  EXPECT_EQ(serial.data(), parallel.data());
  EXPECT_EQ(serial.data().count, kSamples);
}

/// The batching API contract: accumulate + record_batch produces content
/// identical to per-sample record(), and drain_batch leaves the local
/// batch zeroed and reusable.
TEST_F(MetricsTest, HistogramBatchMatchesPerSampleRecord) {
  const std::vector<double> samples = {
      2.0, 0.5, 8.0, -3.0, 0.0, 1.5,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), 1e-12, 1e12};

  Histogram& direct = metrics().histogram("test.batch.direct");
  for (double v : samples) direct.record(v);

  Histogram& batched = metrics().histogram("test.batch.merged");
  HistogramData batch;
  for (double v : samples) Histogram::accumulate(batch, v);
  batched.record_batch(batch);
  EXPECT_EQ(direct.data(), batched.data());

  // drain_batch: same merge, and the batch comes back empty so a second
  // drain is a no-op and the batch can be refilled in place.
  Histogram& drained = metrics().histogram("test.batch.drained");
  drained.drain_batch(batch);
  EXPECT_EQ(direct.data(), drained.data());
  EXPECT_EQ(batch.count, 0u);
  EXPECT_EQ(batch.clamped, 0u);
  drained.drain_batch(batch);  // empty batch: no change
  EXPECT_EQ(direct.data(), drained.data());
  Histogram::accumulate(batch, 4.0);
  EXPECT_EQ(batch.count, 1u);
}

TEST_F(MetricsTest, CounterTotalsIndependentOfThreadCount) {
  // Batched per-work-unit counting (the convention every engine follows)
  // gives bit-equal totals at any lane count.
  constexpr std::size_t kItems = 1000;
  for (int threads : {1, 2, 8}) {
    metrics().reset();
    Counter& c = metrics().counter("test.items");
    parallel_for(threads, kItems, [&](std::size_t) { c.add(); });
    EXPECT_EQ(c.value(), kItems) << "threads=" << threads;
  }
}

TEST_F(MetricsTest, SnapshotDeltasReportOnlyGrowth) {
  metrics().counter("test.grew").add(5);
  metrics().counter("test.static").add(7);
  const MetricsSnapshot before = metrics().snapshot();
  metrics().counter("test.grew").add(10);
  metrics().counter("test.fresh").add(2);
  const auto deltas = metrics().snapshot().counter_deltas_since(before);

  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas[0].first, "test.fresh");
  EXPECT_EQ(deltas[0].second, 2u);
  EXPECT_EQ(deltas[1].first, "test.grew");
  EXPECT_EQ(deltas[1].second, 10u);
}

}  // namespace
}  // namespace gap::common
