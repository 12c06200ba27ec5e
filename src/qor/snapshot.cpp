#include "qor/snapshot.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "netlist/checks.hpp"
#include "sizing/tilos.hpp"
#include "sta/compact_graph.hpp"
#include "sta/statistical.hpp"
#include "variation/variation.hpp"

namespace gap::qor {
namespace {

/// Levelize the netlist exactly as the timing kernels do (sequential and
/// PI-fed cones at level 0; a combinational gate one past its deepest
/// combinational driver) and summarize the wavefront shape. Computed
/// directly from the netlist so both capture() overloads report
/// identical bytes.
void wave_profile(const netlist::Netlist& nl, QorSnapshot& s) {
  const std::vector<InstanceId> order = netlist::topo_order(nl);
  std::vector<int> level(nl.num_instances(), 0);
  int max_level = 0;
  for (InstanceId id : order) {
    if (nl.is_sequential(id)) continue;
    int lvl = 0;
    for (NetId in : nl.instance(id).inputs) {
      const netlist::NetDriver& d = nl.net(in).driver;
      if (d.kind != netlist::NetDriver::Kind::kInstance) continue;
      const int dl = nl.is_sequential(d.inst) ? 0 : level[d.inst.index()];
      lvl = std::max(lvl, dl + 1);
    }
    level[id.index()] = lvl;
    max_level = std::max(max_level, lvl);
  }
  std::vector<std::size_t> width(static_cast<std::size_t>(max_level) + 1, 0);
  for (int lvl : level) ++width[static_cast<std::size_t>(lvl)];
  s.wave_levels = width.size();
  std::size_t narrow = 0;
  for (std::size_t w : width) {
    s.wave_widest = std::max(s.wave_widest, w);
    if (w < sta::kWaveDispatchHint) ++narrow;
  }
  s.wave_narrow_fraction =
      static_cast<double>(narrow) / static_cast<double>(width.size());
}

/// Everything in a snapshot besides the arrival/slack analysis itself:
/// both capture() overloads feed their (identical, by the incremental
/// contract) timing result and histogram through this one body.
QorSnapshot assemble(const netlist::Netlist& nl, const SnapshotOptions& options,
                     const sta::TimingResult& timing,
                     sta::SlackHistogramData histogram) {
  QorSnapshot s;
  s.worst_path_tau = timing.worst_path_tau;
  s.min_period_tau = timing.min_period_tau;
  s.min_period_ps = timing.min_period_ps;
  s.min_period_fo4 = timing.min_period_fo4;
  s.critical_path_fo4 = timing.worst_path_tau / 5.0;
  s.critical_path_gates = timing.critical_path.size();
  s.endpoints = timing.num_endpoints;
  s.slack_histogram = std::move(histogram);

  s.area_um2 = nl.total_area_um2();
  for (NetId id : nl.all_nets()) s.total_wirelength_um += nl.net(id).length_um;
  // Each distinct net on the critical path counts once, even when the
  // path visits it through several gates.
  std::unordered_set<NetId> seen;
  for (InstanceId id : timing.critical_path) {
    const NetId out = nl.instance(id).output;
    if (seen.insert(out).second)
      s.critical_wirelength_um += nl.net(out).length_um;
  }

  sizing::SizingOptions sopt;
  sopt.sta = options.sta;
  sopt.continuous = options.continuous_sizing;
  s.sizing_headroom_tau =
      sizing::path_upsize_headroom_tau(nl, timing.critical_path, sopt);

  wave_profile(nl, s);

  if (options.mc_samples > 0) {
    sta::McStaOptions mc;
    mc.base = options.sta;
    mc.samples = options.mc_samples;
    mc.seed = options.mc_seed;
    mc.threads = options.mc_threads;
    const sta::McStaResult r = sta::monte_carlo_sta(nl, mc);
    s.mc_samples = options.mc_samples;
    s.mc_relative_spread = r.relative_spread();
    s.mc_mean_shift = r.mean_shift();
  }
  return s;
}

}  // namespace

QorSnapshot capture(const netlist::Netlist& nl,
                    const SnapshotOptions& options) {
  const sta::TimingResult timing = sta::analyze(nl, options.sta);
  return assemble(nl, options, timing,
                  sta::compute_slack_histogram(nl, options.sta,
                                               timing.min_period_tau,
                                               options.histogram_buckets));
}

QorSnapshot capture(sta::IncrementalTimer& timer,
                    const SnapshotOptions& options) {
  const sta::TimingResult timing = timer.timing();
  return assemble(timer.netlist(), options, timing,
                  sta::slack_histogram_from_slacks(
                      timer.slacks(timing.min_period_tau),
                      options.histogram_buckets));
}

}  // namespace gap::qor
