#pragma once
/// \file harness.hpp
/// What every workload provides to the run loop in main.cpp, and what the
/// loop provides back: output checks, the seed, the traced-run switch.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace e2ebench {

/// Named deliberate faults for showing that each output check can fail
/// (`--break NAME`; README.md lists them). Empty in a benchmark run.
struct Faults {
  std::string name;
  [[nodiscard]] bool is(const char* n) const { return name == n; }
};

/// Output-check failures. A failed check makes the run incorrect; the
/// first few messages go to stderr.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] bool ok() const { return failures_ == 0; }

 private:
  std::size_t failures_ = 0;
};

/// Deterministic generator: the same seed gives the same inputs on every
/// platform (no std distributions, whose output is implementation-defined).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : gen_(seed) {}
  /// Uniform-ish integer in [0, n).
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(gen_() % static_cast<std::uint64_t>(n));
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::mt19937_64 gen_;
};

struct RunContext {
  std::uint64_t seed = 1;
  std::string work_dir;  ///< scratch space inside the checkout
  Faults faults;
  Checks checks;
  /// common::metrics() counter deltas of reference computations made
  /// inside a pass (see outside_counters); the run loop subtracts them
  /// from the pass's deltas and clears them.
  std::map<std::string, std::uint64_t> reference_counts;

  /// Run a reference computation inside a pass without counting its
  /// common::metrics() work as the program's.
  template <typename F>
  void outside_counters(F&& f) {
    const gap::common::MetricsSnapshot before =
        gap::common::metrics().snapshot();
    f();
    for (const auto& [name, d] :
         gap::common::metrics().snapshot().counter_deltas_since(before))
      reference_counts[name] += d;
  }
};

/// One set-up: its timed duration, and in a traced run the per-layer self
/// times of the calls it made.
struct SetupTiming {
  double seconds = 0.0;
  LayerBreakdown layers;
};

/// Per-request-type latencies for the reference (non-metric) lines.
using Samples = std::map<std::string, LogHistogram>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build the state the passes run on, from scratch (destroying any
  /// previous set-up). Called several times, also between passes; the
  /// passes that follow run on the new state. The timed part excludes
  /// the benchmark's own independent reference computations.
  virtual SetupTiming setup(bool traced) = 0;
  /// Untimed, after the first set-up: checks of its outputs that need no
  /// reference computation.
  virtual void check_setup() = 0;
  /// After the run's peak RSS has been read: the independent reference
  /// computations (outside flows, mirror netlists) and the checks of the
  /// stored outputs against them. Keeping them here keeps the
  /// benchmark's own data out of peak_rss_mb.
  virtual void check_references() = 0;

  /// Operations per pass; every pass repeats the same operations.
  [[nodiscard]] virtual std::size_t ops() const = 0;
  /// Requests that make up one operation. Best-of is taken per request
  /// (each is identical in every pass); an operation's best time is the
  /// sum of its requests' bests.
  [[nodiscard]] virtual std::size_t requests_per_op() const { return 1; }
  /// Upper bound on passes a run may make (resource caps).
  [[nodiscard]] virtual int max_passes() const { return 1 << 30; }

  /// One untraced pass through the program's public entry point. Fills
  /// req_s with each request's seconds (operation-major), keeps the
  /// outputs for check_pass, and returns the number of operations that
  /// failed.
  virtual std::size_t pass(int index, std::vector<double>& req_s,
                           Samples& samples) = 0;
  /// Check the outputs of the untraced pass just run. Called outside the
  /// pass's counter window, so reference computations here do not show
  /// up as the program's work.
  virtual void check_pass(int index) = 0;
  /// One traced pass: the same operations replayed layer by layer from
  /// public calls. Fills op_s and per-op layer self times, checks that
  /// the replay reproduces the untraced outputs, returns failures.
  virtual std::size_t traced_pass(int index, Tracer& tracer,
                                  std::vector<double>& op_s,
                                  std::vector<LayerBreakdown>& op_layers) = 0;

  /// Sign-off frequency and area of every flow the workload implements.
  [[nodiscard]] virtual std::vector<double> fmax_mhz() const = 0;
  [[nodiscard]] virtual std::vector<double> area_um2() const = 0;

  /// common::metrics() counters whose per-pass deltas must repeat exactly.
  [[nodiscard]] virtual std::vector<std::string> work_counters() const = 0;
  /// Per-layer counts of one traced pass that no common::metrics()
  /// counter holds (serve.journal_bytes), measured by the replay itself.
  [[nodiscard]] virtual std::map<std::string, double> extra_layer_counts()
      const {
    return {};
  }

  /// Set-ups per run; setup_s is their median.
  [[nodiscard]] virtual int setup_repeats() const { return 20; }
};

std::unique_ptr<Workload> make_flow_sweep(RunContext& ctx);
std::unique_ptr<Workload> make_serve_eco(RunContext& ctx);
std::unique_ptr<Workload> make_serve_query(RunContext& ctx);

}  // namespace e2ebench
