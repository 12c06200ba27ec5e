#pragma once
/// \file stats.hpp
/// The benchmark's own statistics, kept apart from the program's so the
/// numbers it reports do not depend on the code they measure.
///
///  - BestOf: element-wise minimum of per-operation times across passes.
///    A pass repeats the same operations, so an operation's best time is
///    the run's least-disturbed measurement of it; end-to-end figures are
///    built from these bests (README.md explains why).
///  - percentile_index / percentile: nearest-rank percentiles.
///  - geomean: geometric mean of positive values.
///  - LogHistogram: fixed-memory latency histogram for reference figures.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

namespace e2ebench {

/// Element-wise minimum over passes of equal length.
class BestOf {
 public:
  explicit BestOf(std::size_t ops)
      : best_(ops, std::numeric_limits<double>::infinity()) {}

  void add(const std::vector<double>& pass) {
    if (pass.size() != best_.size())
      throw std::invalid_argument("BestOf::add: pass length mismatch");
    for (std::size_t i = 0; i < pass.size(); ++i)
      best_[i] = std::min(best_[i], pass[i]);
    ++passes_;
  }

  [[nodiscard]] const std::vector<double>& best() const { return best_; }
  [[nodiscard]] std::size_t passes() const { return passes_; }

  /// Sum of the per-operation bests: one pass at its best.
  [[nodiscard]] double sum() const {
    double s = 0.0;
    for (double v : best_) s += v;
    return s;
  }

 private:
  std::vector<double> best_;
  std::size_t passes_ = 0;
};

/// Nearest-rank index of percentile `p` (0 < p <= 100) in a sorted sample
/// of size n >= 1: the smallest index whose rank covers p percent.
[[nodiscard]] inline std::size_t percentile_index(std::size_t n, double p) {
  if (n == 0) throw std::invalid_argument("percentile_index: empty sample");
  if (!(p > 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile_index: p outside (0, 100]");
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  const std::size_t r = static_cast<std::size_t>(std::max(rank, 1.0));
  return std::min(r, n) - 1;
}

/// Nearest-rank percentile of an unsorted sample (copied, then sorted).
[[nodiscard]] inline double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  return v[percentile_index(v.size(), p)];
}

/// Geometric mean of strictly positive values.
[[nodiscard]] inline double geomean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("geomean: empty sample");
  double log_sum = 0.0;
  for (double x : v) {
    if (!(x > 0.0) || !std::isfinite(x))
      throw std::invalid_argument("geomean: non-positive value");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

/// Latency samples in log-spaced bins 1% wide, from 100 ns to about 1,000 s.
/// Its memory is fixed, so the number of samples a run takes does not show
/// up in the run's peak RSS.
class LogHistogram {
 public:
  static constexpr double kMinSeconds = 1e-7;
  static constexpr double kRatio = 1.01;
  static constexpr std::size_t kBins = 2320;  ///< kRatio^kBins ~ 1e10

  void add(double seconds) {
    std::size_t bin = 0;
    if (seconds > kMinSeconds) {
      const double b = std::floor(std::log(seconds / kMinSeconds) /
                                  std::log(kRatio));
      bin = std::min(static_cast<std::size_t>(b), kBins - 1);
    }
    ++bins_[bin];
    ++count_;
  }

  [[nodiscard]] std::size_t count() const { return count_; }

  /// Nearest-rank percentile, as the upper edge of the bin that holds it:
  /// at most 1% above the true sample.
  [[nodiscard]] double percentile(double p) const {
    const std::size_t rank = percentile_index(count_, p) + 1;
    std::size_t seen = 0;
    std::size_t bin = 0;
    while (seen + bins_[bin] < rank) seen += bins_[bin++];
    return kMinSeconds * std::pow(kRatio, static_cast<double>(bin + 1));
  }

 private:
  std::vector<std::size_t> bins_ = std::vector<std::size_t>(kBins, 0);
  std::size_t count_ = 0;
};

}  // namespace e2ebench
