// e2ebench: end-to-end benchmark of the gapflow flow engine (core::Flow)
// and the gapd resident timing service (serve::Server), in-process.
//
//   e2ebench --workload flow_sweep|serve_eco|serve_query --seed N
//            --seconds S --trace 0|1 [--work-dir DIR]
//            [--spans-out FILE] [--break FAULT]
//
// Prints reference lines, a "work" line (deterministic counts), and as
// its last line one JSON object {correct, attempted, failed, metrics}.
// Exit code 0 when every output check passed, 1 when one failed, 2 on a
// usage error. README.md describes the workloads and metrics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "harness.hpp"
#include "stats.hpp"

namespace e2ebench {

namespace common = gap::common;

void Checks::expect(bool ok, const std::string& what) {
  if (ok) return;
  if (failures_ < 10) std::fprintf(stderr, "check failed: %s\n", what.c_str());
  ++failures_;
}

namespace {

constexpr int kMinPasses = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/work";
  std::string spans_out;
  std::string fault;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2ebench: %s\nusage: e2ebench --workload "
               "flow_sweep|serve_eco|serve_query --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] "
               "[--spans-out FILE] [--break FAULT]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value after " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("--seed needs an integer");
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(a.seconds > 0.0) ||
          a.seconds > 600.0)
        usage("--seconds needs a number in (0, 600]");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--work-dir") {
      a.work_dir = v;
    } else if (flag == "--spans-out") {
      a.spans_out = v;
    } else if (flag == "--break") {
      a.fault = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  return a;
}

/// Counter deltas since `before`, less the reference computations the
/// workload ran in between (RunContext::outside_counters).
std::map<std::string, std::uint64_t> counter_deltas(
    const common::MetricsSnapshot& before, RunContext& ctx) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, d] :
       common::metrics().snapshot().counter_deltas_since(before))
    out[name] = d - ctx.reference_counts[name];
  ctx.reference_counts.clear();
  return out;
}

std::uint64_t get(const std::map<std::string, std::uint64_t>& m,
                  const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0 : it->second;
}

/// Per-layer count metrics derived from the counter deltas of one pass.
std::map<std::string, double> counts_from(
    const std::map<std::string, std::uint64_t>& d) {
  const auto g = [&](const char* k) { return static_cast<double>(get(d, k)); };
  return {
      {"place.sa_moves",
       g("place.sa_moves_accepted") + g("place.sa_moves_rejected")},
      {"route.segments", g("route.segments_committed")},
      {"sizing.tilos_moves", g("tilos.moves_accepted")},
      {"sta.nodes_repropagated", g("sta.incremental.nodes_repropagated")},
      {"sta.wave.levels_touched", g("sta.wave.levels_touched")},
      {"common.pool_items_dispatched", g("wall.pool.items_dispatched")},
      {"serve.journal_bytes", 0.0},
  };
}

struct Metric {
  double value;
  const char* unit;
};

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + json_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// High-water resident set of this process image, in MiB: VmHWM from
/// /proc/self/status. getrusage's ru_maxrss is not used because Linux
/// carries it across execve, so a binary started from a larger launcher
/// (python3 run.py) would report the launcher's footprint.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  std::fclose(f);
  if (kib < 0.0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return kib / 1024.0;
}

int run(const Args& args) {
  RunContext ctx;
  ctx.seed = args.seed;
  ctx.work_dir = args.work_dir;
  ctx.faults.name = args.fault;

  std::unique_ptr<Workload> w;
  if (args.workload == "flow_sweep") w = make_flow_sweep(ctx);
  else if (args.workload == "serve_eco") w = make_serve_eco(ctx);
  else if (args.workload == "serve_query") w = make_serve_query(ctx);
  else usage("unknown workload");

  // --- set-up, repeated; setup_s is the median --------------------------
  // One set-up runs before the passes and the others between passes, at
  // evenly spaced times over the run, so that they sample the host as
  // the passes do: this host is slow or fast in spells of seconds, and a
  // block of set-ups tends to fall within one spell.
  const std::size_t n_setups = static_cast<std::size_t>(w->setup_repeats());
  std::vector<SetupTiming> setups;
  setups.push_back(w->setup(args.trace));
  w->check_setup();

  // --- passes -----------------------------------------------------------
  const std::size_t ops = w->ops();
  const std::size_t per_op = w->requests_per_op();
  BestOf best(ops * per_op), traced_best(ops);
  std::vector<LayerBreakdown> best_layers(ops);
  std::vector<double> req_s(ops * per_op), op_s(ops);
  std::vector<LayerBreakdown> op_layers(ops);
  Samples samples;
  Tracer tracer;
  std::uint64_t attempted = 0, failed = 0;
  std::map<std::string, std::uint64_t> work0, traced_work0;
  const std::vector<std::string> work_names = w->work_counters();
  std::map<std::string, double> layer_counts;
  std::vector<double> fmax_first, area_first;  ///< after the first pass

  const auto t_begin = Clock::now();
  int passes = 0;
  while (passes < w->max_passes() &&
         (passes < kMinPasses ||
          seconds_between(t_begin, Clock::now()) < args.seconds)) {
    common::MetricsSnapshot before = common::metrics().snapshot();
    failed += w->pass(passes, req_s, samples);
    attempted += ops;
    best.add(req_s);
    const auto deltas = counter_deltas(before, ctx);
    std::map<std::string, std::uint64_t> work;
    for (const std::string& n : work_names) work[n] = get(deltas, n);
    if (passes == 1 && ctx.faults.is("work-counter"))
      ++work[work_names.front()];
    if (passes == 0) work0 = work;
    ctx.checks.expect(work == work0, "pass " + std::to_string(passes) +
                                         " did different work than pass 0");
    w->check_pass(passes);
    if (passes == 0) {
      fmax_first = w->fmax_mhz();
      area_first = w->area_um2();
    }

    if (args.trace) {
      before = common::metrics().snapshot();
      failed += w->traced_pass(passes, tracer, op_s, op_layers);
      attempted += ops;
      for (std::size_t i = 0; i < ops; ++i)
        if (op_s[i] < traced_best.best()[i]) best_layers[i] = op_layers[i];
      traced_best.add(op_s);
      const auto traced_deltas = counter_deltas(before, ctx);
      std::map<std::string, std::uint64_t> tw;
      for (const std::string& n : work_names) tw[n] = get(traced_deltas, n);
      if (passes == 0) {
        traced_work0 = tw;
        layer_counts = counts_from(traced_deltas);
        for (const auto& [k, v] : w->extra_layer_counts()) layer_counts[k] = v;
      }
      ctx.checks.expect(tw == traced_work0,
                        "traced pass " + std::to_string(passes) +
                            " did different work than traced pass 0");
      ctx.checks.expect(tw == work0, "traced pass " + std::to_string(passes) +
                                         " did different work than the "
                                         "untraced pass");
    }
    ++passes;
    const double due = args.seconds * static_cast<double>(setups.size()) /
                       static_cast<double>(n_setups);
    if (setups.size() < n_setups &&
        seconds_between(t_begin, Clock::now()) >= due)
      setups.push_back(w->setup(args.trace));
  }
  while (setups.size() < n_setups) setups.push_back(w->setup(args.trace));
  ctx.checks.expect(
      w->fmax_mhz() == fmax_first && w->area_um2() == area_first,
      "a repeated set-up implemented different QoR");
  // Read before the reference computations, which hold data of their own.
  const double peak_rss = peak_rss_mib();
  w->check_references();

  // --- reference lines (not metrics) --------------------------------------
  std::printf("passes %d, operations per pass %zu, set-ups %d\n", passes, ops,
              static_cast<int>(setups.size()));
  {
    std::vector<double> v;
    for (const SetupTiming& t : setups) v.push_back(t.seconds);
    std::printf("reference setup best %.9f median %.9f\n",
                *std::min_element(v.begin(), v.end()), percentile(v, 50));
  }
  for (const auto& [type, h] : samples) {
    std::printf("reference %-16s n=%-7zu p50=%.1f us", type.c_str(), h.count(),
                h.percentile(50) * 1e6);
    if (h.count() >= 1000) std::printf(" p99=%.1f us", h.percentile(99) * 1e6);
    std::printf("\n");
  }

  // Sorted, so the geometric means do not depend on the seeded job order.
  std::vector<double> fmax = w->fmax_mhz();
  std::vector<double> area_mm2;
  for (double a : w->area_um2()) area_mm2.push_back(a / 1e6);
  std::sort(fmax.begin(), fmax.end());
  std::sort(area_mm2.begin(), area_mm2.end());
  const double fmax_geo = geomean(fmax);
  const double area_geo = geomean(area_mm2);

  std::string work_line = "work {\"fmax_mhz_geomean\":" +
                          json_number(fmax_geo) + ",\"area_mm2_geomean\":" +
                          json_number(area_geo);
  for (const auto& [k, v] : work0)
    work_line += ",\"" + k + "\":" + std::to_string(v);
  for (const auto& [k, v] : layer_counts)
    work_line += ",\"" + k + "\":" + json_number(v);
  std::printf("%s}\n", work_line.c_str());

  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    std::vector<double> setup_s;
    for (const SetupTiming& t : setups) setup_s.push_back(t.seconds);
    metrics["setup_s"] = {percentile(setup_s, 50), "s"};
    // An operation's best is the sum of its requests' bests.
    std::vector<double> op_best(ops, 0.0);
    for (std::size_t r = 0; r < ops * per_op; ++r)
      op_best[r / per_op] += best.best()[r];
    metrics["pass_s"] = {best.sum(), "s"};
    metrics["op_ms_p50"] = {percentile(op_best, 50) * 1e3, "ms"};
    metrics["peak_rss_mb"] = {peak_rss, "MiB"};
    metrics["fmax_mhz_geomean"] = {fmax_geo, "MHz"};
    metrics["area_mm2_geomean"] = {area_geo, "mm2"};
  } else {
    LayerBreakdown sum;
    for (const LayerBreakdown& b : best_layers) sum += b;
    for (Layer l : {kLibraryBuild, kDesignsAig, kServeLoad}) {
      std::vector<double> v;
      for (const SetupTiming& t : setups) v.push_back(t.layers.self_s[l]);
      sum.self_s[l] = percentile(v, 50);
    }
    for (int l = 0; l < kNumLayers; ++l) {
      const LayerInfo& info = layer_info(static_cast<Layer>(l));
      metrics[info.metric] = {sum.self_s[l] * info.scale, info.unit};
    }
    // Self times of the passes' layers plus "other" equal the traced
    // operation time: the tracer's bookkeeping is exact by construction,
    // and this guards it.
    double op_layers_s = 0.0;
    for (const LayerBreakdown& b : best_layers) op_layers_s += b.total();
    const double traced_s = traced_best.sum();
    ctx.checks.expect(std::fabs(op_layers_s - traced_s) <= 1e-9 * traced_s,
                      "layer self times do not sum to the traced op time");
    metrics["trace.op_total_ms"] = {traced_s * 1e3, "ms"};
    metrics["trace.overhead_ms"] = {(traced_s - best.sum()) * 1e3, "ms"};
    for (const auto& [k, v] : layer_counts) metrics[k] = {v, "count"};
    if (!args.spans_out.empty() && !tracer.write_jsonl(args.spans_out))
      std::fprintf(stderr, "e2ebench: cannot write %s\n",
                   args.spans_out.c_str());
  }

  const bool correct = ctx.checks.ok();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  const e2ebench::Args args = e2ebench::parse_args(argc, argv);
  try {
    return e2ebench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
