// Unit tests of the benchmark's own statistics (stats.hpp). Built as
// e2ebench_stats_test; exits nonzero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void test_best_of() {
  using e2ebench::BestOf;
  BestOf b(3);
  b.add({3.0, 1.0, 5.0});
  b.add({2.0, 4.0, 5.0});
  b.add({9.0, 0.5, 6.0});
  expect(b.passes() == 3, "best-of counts passes");
  expect(b.best() == std::vector<double>({2.0, 0.5, 5.0}),
         "best-of keeps each operation's minimum across passes");
  expect(b.sum() == 7.5, "best-of sum is the sum of per-operation bests");
  // The sum of bests is not the best pass total: no single pass reached 7.5.
  expect(b.sum() < 8.0, "sum of bests lies below every pass total");
  expect(throws([&] { b.add({1.0}); }), "best-of rejects a short pass");
}

void test_percentile_index() {
  using e2ebench::percentile_index;
  expect(percentile_index(1, 50) == 0, "p50 of one sample");
  expect(percentile_index(27, 50) == 13, "p50 of 27 is the 14th value");
  expect(percentile_index(4, 50) == 1, "p50 of 4 is the 2nd value");
  expect(percentile_index(100, 99) == 98, "p99 of 100 is the 99th value");
  expect(percentile_index(10, 99) == 9, "p99 of 10 is the largest");
  expect(percentile_index(10, 100) == 9, "p100 is the largest");
  expect(percentile_index(10, 0.1) == 0, "tiny p is the smallest");
  expect(throws([] { (void)percentile_index(0, 50); }), "empty sample");
  expect(throws([] { (void)percentile_index(5, 0); }), "p = 0 rejected");
  expect(throws([] { (void)percentile_index(5, 101); }), "p > 100 rejected");
  expect(e2ebench::percentile({5.0, 1.0, 3.0, 2.0, 4.0}, 50) == 3.0,
         "percentile sorts its sample");
}

void test_geomean() {
  using e2ebench::geomean;
  expect(std::fabs(geomean({2.0, 8.0}) - 4.0) < 1e-12, "geomean of 2 and 8");
  expect(std::fabs(geomean({5.0}) - 5.0) < 1e-12, "geomean of one value");
  expect(std::fabs(geomean({1.0, 10.0, 100.0}) - 10.0) < 1e-12,
         "geomean of a decade ladder");
  expect(throws([] { (void)geomean({}); }), "geomean of nothing");
  expect(throws([] { (void)geomean({1.0, 0.0}); }), "geomean of zero");
  expect(throws([] { (void)geomean({1.0, -2.0}); }), "geomean of negative");
}

void test_log_histogram() {
  using e2ebench::LogHistogram;
  LogHistogram h;
  for (int i = 1; i <= 100; ++i) h.add(i * 1e-6);  // 1 .. 100 us
  expect(h.count() == 100, "histogram counts samples");
  const double p50 = h.percentile(50), p99 = h.percentile(99);
  expect(p50 >= 50e-6 && p50 <= 50e-6 * 1.01, "histogram p50 within 1%");
  expect(p99 >= 99e-6 && p99 <= 99e-6 * 1.01, "histogram p99 within 1%");
  LogHistogram edges;
  edges.add(0.0);
  edges.add(1e6);
  expect(edges.percentile(50) <= 1e-7 * 1.01, "tiny samples land in bin 0");
  expect(edges.percentile(100) > 100.0, "huge samples land in the last bin");
  expect(throws([] { (void)LogHistogram().percentile(50); }),
         "percentile of an empty histogram");
}

}  // namespace

int main() {
  test_best_of();
  test_percentile_index();
  test_geomean();
  test_log_histogram();
  if (failures == 0) std::puts("e2ebench stats: all tests passed");
  return failures == 0 ? 0 : 1;
}
