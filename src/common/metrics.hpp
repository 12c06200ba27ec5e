#pragma once
/// \file metrics.hpp
/// Named counters / gauges / histograms for the flow engines, exported
/// as Prometheus exposition text by obs::expose_text (gapflow
/// --metrics-out FILE, gapd --expose-out FILE). Three contracts:
///
///  1. **Exactness.** Counters are atomic; concurrent increments from
///     ThreadPool lanes never lose updates, so totals are exact.
///  2. **Determinism.** Metric *content* is independent of thread count:
///     engines increment per unit of deterministic work (per sample, per
///     move, per propagation pass), and histograms store only
///     order-independent state (bucket counts, count, min, max — no
///     floating-point running sum, whose value would depend on addition
///     order). `--threads 1` and `--threads N` therefore produce
///     identical metric files for the same seed (outside the "wall."
///     section, see is_wall_metric).
///  3. **Longevity.** Metric objects registered in a registry are never
///     deallocated before process exit; reset() zeroes values but keeps
///     registrations. Engines may therefore cache references:
///
///       static Counter& c = metrics().counter("sta.arrival_passes");
///       c.add();
///
/// Naming convention (docs/observability.md): "<engine>.<quantity>",
/// lowercase, e.g. "place.sa_moves_accepted".

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace gap::common {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written value (die size, utilization, ...).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  [[nodiscard]] double value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Order-independent histogram state; see Histogram.
struct HistogramData {
  std::uint64_t count = 0;
  std::uint64_t clamped = 0;  ///< negative samples clamped to zero
  double min = 0.0;           ///< 0 when count == 0
  double max = 0.0;           ///< 0 when count == 0
  /// Power-of-two buckets: bucket i counts values v with
  /// 2^(i - kUnitBucket) <= v < 2^(i - kUnitBucket + 1); bucket 0
  /// collects everything smaller (including zero), the last bucket
  /// everything larger.
  std::vector<std::uint64_t> buckets;

  [[nodiscard]] bool operator==(const HistogramData&) const = default;
};

/// Log2-bucketed histogram of nonnegative samples. Negative samples are
/// clamped to zero and counted in `clamped`, so exposition consumers can
/// tell "many zero samples" from "many out-of-domain samples". All state
/// is commutative over record() calls, so two runs that record the same
/// multiset of values — in any order, from any number of threads — hold
/// identical content.
class Histogram {
 public:
  static constexpr int kNumBuckets = 96;
  /// Bucket holding values in [1, 2); each step halves / doubles.
  static constexpr int kUnitBucket = 32;

  void record(double v);
  [[nodiscard]] HistogramData data() const;
  void reset();

  /// Accumulate `v` into a local, non-atomic HistogramData with the
  /// same binning, clamping, and NaN/inf handling as record(). For hot
  /// loops recording many samples per call site: accumulate locally,
  /// then merge the batch with one record_batch() — the resulting
  /// histogram content is identical to per-sample record() calls (the
  /// state is commutative), at a fraction of the atomic traffic.
  /// Defined inline (with bucket_of) so per-sample call sites on engine
  /// hot paths pay no cross-TU call.
  static void accumulate(HistogramData& d, double v);

  /// Merge a locally-accumulated batch: one atomic add per non-empty
  /// bucket plus one min/max update, instead of ~6 per sample.
  void record_batch(const HistogramData& d);

  /// record_batch() that also zeroes the batch in the same pass over the
  /// bucket array. For thread_local batches reused across flushes: the
  /// caller skips the separate std::fill, halving the bucket-array
  /// traffic on hot paths that flush small batches frequently.
  void drain_batch(HistogramData& d);

  /// Bucket index for a value (exposed for tests).
  [[nodiscard]] static int bucket_of(double v);

 private:
  /// Bit pattern of +infinity: raw-bit ordering matches double ordering
  /// for the nonnegative values stored here, so min/max are plain
  /// monotonic CAS updates with no racy first-sample special case.
  static constexpr std::uint64_t kMinInit = 0x7ff0000000000000ull;

  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> clamped_{0};
  std::atomic<std::uint64_t> min_bits_{kMinInit};  ///< valid when count_ > 0
  std::atomic<std::uint64_t> max_bits_{0};
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
};

/// Plain-value snapshot of a registry, diffable and comparable.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramData> histograms;

  /// Counters that grew relative to `before`, with their deltas.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>>
  counter_deltas_since(const MetricsSnapshot& before) const;
};

/// Registry of named metrics. Lookup takes a mutex; engines are expected
/// to look up once (static local or hoisted out of loops) and increment
/// through the returned reference, which stays valid for the process
/// lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Zero every metric; registrations (and references) survive.
  void reset();

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// True for metric names in the wall-clock section: names starting
  /// with "wall." hold wall-clock measurements (latencies, dispatch
  /// decisions taken by the pool) and are the one sanctioned exception to
  /// the determinism contract. The exposition renderer (obs/expose.hpp)
  /// emits them after its wall marker so the rest stays byte-comparable.
  [[nodiscard]] static bool is_wall_metric(const std::string& name);

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/// The process-wide registry the engines report into.
[[nodiscard]] MetricsRegistry& metrics();

inline int Histogram::bucket_of(double v) {
  if (!(v > 0.0)) return 0;  // zero, negatives, NaN
  int exp = 0;
  (void)std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1)
  // v in [1, 2) has exp == 1 and must land in kUnitBucket.
  const int idx = kUnitBucket + exp - 1;
  if (idx < 0) return 0;
  if (idx >= kNumBuckets) return kNumBuckets - 1;
  return idx;
}

inline void Histogram::accumulate(HistogramData& d, double v) {
  if (!std::isfinite(v)) return;
  if (v < 0.0) {
    v = 0.0;
    ++d.clamped;
  }
  if (d.buckets.size() != static_cast<std::size_t>(kNumBuckets))
    d.buckets.assign(kNumBuckets, 0);
  ++d.buckets[static_cast<std::size_t>(bucket_of(v))];
  if (d.count == 0) {
    d.min = v;
    d.max = v;
  } else {
    if (v < d.min) d.min = v;
    if (v > d.max) d.max = v;
  }
  ++d.count;
}

}  // namespace gap::common
