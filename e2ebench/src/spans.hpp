#pragma once
/// \file spans.hpp
/// Outside-in layer tracing for the traced run. The benchmark wraps each
/// public call it makes into a layer in a span; spans nest under the
/// operation that caused them and share its id. A layer's self time is
/// its span minus the spans nested in it, and whatever the operation's
/// own span covers outside every layer span is "other", so the self
/// times of one operation sum exactly to its traced duration.
///
/// Spans stay in memory; the raw records of the first few traced passes
/// are written out once, when the run ends (write_jsonl).

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Layer names in reporting order. Indices into LayerBreakdown.
enum Layer : int {
  kSynthMap,
  kPipelineInsert,
  kNetlistVerify,
  kPlace,
  kRoute,
  kSizing,
  kStaSignoff,
  kLibraryBuild,
  kDesignsAig,
  kServeLoad,
  kServeDecode,
  kStaCheck,
  kStaApply,
  kServeEncode,
  kJournalAppend,
  kStaRetime,
  kStaReport,
  kStaTopPaths,
  kStaSlacks,
  kQorCapture,
  kLintScan,
  kLintDataflow,
  kOther,  ///< the operation's own span outside every layer span
  kNumLayers,
};

struct LayerInfo {
  const char* metric;  ///< per-layer metric name
  double scale;        ///< seconds -> the metric's unit
  const char* unit;
};

[[nodiscard]] const LayerInfo& layer_info(Layer l);

/// Self seconds per layer for one operation (or a sum of operations).
struct LayerBreakdown {
  double self_s[kNumLayers] = {};

  [[nodiscard]] double total() const {
    double t = 0.0;
    for (double v : self_s) t += v;
    return t;
  }
  LayerBreakdown& operator+=(const LayerBreakdown& o) {
    for (int i = 0; i < kNumLayers; ++i) self_s[i] += o.self_s[i];
    return *this;
  }
};

class Tracer {
 public:
  /// `keep_passes`: raw spans are retained for passes < keep_passes.
  explicit Tracer(int keep_passes = 2) : keep_passes_(keep_passes) {}

  /// Open the root span of the next operation, within traced pass `pass`.
  void begin_op(int pass);
  /// Close the root span; returns the operation's traced duration and
  /// fills `out` with per-layer self times (kOther = root self time).
  double end_op(LayerBreakdown& out);

  /// Run `fn` inside a span of `layer`, nested in the innermost open span.
  template <typename Fn>
  decltype(auto) span(Layer layer, Fn&& fn) {
    const int index = open(layer);
    struct Closer {
      Tracer* t;
      int i;
      ~Closer() { t->close(i); }
    } closer{this, index};
    return fn();
  }

  /// Write every retained span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

 private:
  /// One finished span, as written to the spans file.
  struct SpanRecord {
    std::uint64_t op_id = 0;  ///< shared by every span of one operation
    int pass = 0;
    int parent = -1;  ///< index into the op's span list; -1 = the op span
    Layer layer = kOther;   ///< kNumLayers marks the op span itself
    double start_us = 0.0;  ///< relative to the tracer's epoch
    double end_us = 0.0;
  };

  struct Open {
    Layer layer;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
    double child_s = 0.0;
  };

  int open(Layer layer);
  void close(int index);

  int keep_passes_;
  Clock::time_point epoch_ = Clock::now();
  std::uint64_t next_op_id_ = 0;
  int pass_ = 0;
  Clock::time_point op_start_;
  double op_child_s_ = 0.0;
  std::vector<Open> spans_;  ///< spans of the current operation
  std::vector<int> stack_;   ///< open span indices
  std::vector<SpanRecord> kept_;
};

}  // namespace e2ebench
