/// \file soa_graph_test.cpp
/// Differential + structural suite for the timing graph
/// (sta/compact_graph.hpp) and the engines built on it, run under
/// `ctest -L soa`. Four concerns:
///
///  1. **Agreement with an independent reference STA.** Every batch query
///     (analyze, net_arrivals, net_slacks, top_critical_paths) over every
///     designs::registry entry, Monte Carlo STA on its shared graph, and
///     twin resident IncrementalTimers over randomized edit scripts must
///     match tests/reference_sta.hpp — a plain netlist walk that shares no
///     code with sta/kernels.hpp — so a wrong kernel formula fails here
///     even though every engine evaluates the same kernels.
///  2. **Thread-count invariance.** The twin timers run at 1 and 4 lanes
///     and must stay bitwise equal to each other at every step, including
///     on a design whose waves are wide enough to reach the pool.
///  3. **Construction round-trips.** For every registry entry: node/edge/
///     port counts match the netlist, ids are positional and stable across
///     rebuilds, the levelization is a valid wavefront schedule, and
///     rebuild-after-edit lands on the same bytes as a fresh build from the
///     edited netlist.
///  4. **Staleness bookkeeping.** built_version() tracks structural
///     (re)builds of Netlist::version(); value patches refresh in place.
///
/// The reference evaluates every quantity in the engines' expression
/// order, so values are compared bit for bit. The one tolerance,
/// kRelTol, decides only when a worst endpoint is unique enough that the
/// critical-path instance lists must agree too (ties are broken by
/// convention, not by the model).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "pipeline/pipeline.hpp"
#include "place/place.hpp"
#include "reference_sta.hpp"
#include "sizing/tilos.hpp"
#include "sta/compact_graph.hpp"
#include "sta/incremental.hpp"
#include "sta/statistical.hpp"
#include "sta/sta.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

namespace gap {
namespace {

using netlist::Netlist;
using sta::CompactGraph;
using sta::Edit;
using sta::IncrementalTimer;

/// Relative separation above which a worst endpoint counts as unique.
constexpr double kRelTol = 1e-12;

/// Map + pipeline one registry design into the register-bounded netlist
/// the timing engines see in the real flow.
Netlist implemented(const std::string& name, const library::CellLibrary& lib,
                    int stages = 1) {
  Netlist mapped = synth::map_to_netlist(
      designs::make_design(name, designs::DatapathStyle::kSynthesized), lib,
      synth::MapOptions{}, name + "_impl");
  pipeline::PipelineOptions popt;
  popt.stages = stages;
  Netlist nl = pipeline::pipeline_insert(mapped, popt).nl;
  sizing::initial_drive_assignment(nl);
  return nl;
}

/// implemented() plus a placement, so nets carry wire lengths. `scatter`
/// strews the cells over a 1.5 mm die, giving long nets that take the
/// optimal-repeater branch; otherwise a short careful placement.
Netlist placed(const std::string& name, const library::CellLibrary& lib,
               bool scatter, int stages = 1) {
  Netlist nl = implemented(name, lib, stages);
  place::PlaceOptions popt;
  popt.mode = scatter ? place::PlacementMode::kScattered
                      : place::PlacementMode::kCareful;
  popt.scatter_die_mm = 1.5;
  popt.sa_moves = 2000;
  place::place(nl, popt);
  return nl;
}

/// Option variants flipping the repeater branch, the corner factor and
/// the clock skew (fractional and absolute).
[[nodiscard]] sta::StaOptions options_variant(int v) {
  sta::StaOptions opt;
  opt.optimal_repeaters = v % 2 == 1;
  opt.corner_delay_factor = v % 3 == 0 ? 1.0 : 1.15;
  opt.clock.skew_fraction = v % 4 < 2 ? 0.10 : 0.05;
  opt.clock.extra_skew_tau = v % 5 == 2 ? 1.5 : 0.0;
  return opt;
}

void expect_bits(double got, double want, const std::string& what) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
      << what << ": got " << got << ", want " << want;
}

void expect_bytes_equal(const std::vector<double>& got,
                        const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    if (std::memcmp(&got[i], &want[i], sizeof(double)) != 0) {
      ADD_FAILURE() << what << " differ first at index " << i << ": got "
                    << got[i] << ", want " << want[i];
      return;
    }
}

/// True when no endpoint on another net comes within kRelTol of
/// `path_tau` — the path through `net` is then the model's answer, not a
/// tie-break.
bool unique_endpoint(const ref::Timing& t, NetId net, double path_tau) {
  for (const ref::Endpoint& e : t.endpoints)
    if (e.net != net &&
        std::abs(e.path_tau - path_tau) <= kRelTol * std::abs(path_tau))
      return false;
  return true;
}

/// analyze()-equivalent result against the reference on `nl`. Returns
/// whether the critical path was unique enough to compare.
bool expect_timing_matches(const sta::TimingResult& got, const Netlist& nl,
                           const sta::StaOptions& opt) {
  const sta::TimingResult want = ref::analyze(nl, opt);
  expect_bits(got.worst_path_tau, want.worst_path_tau, "worst_path_tau");
  expect_bits(got.min_period_tau, want.min_period_tau, "min_period_tau");
  expect_bits(got.min_period_ps, want.min_period_ps, "min_period_ps");
  expect_bits(got.min_period_fo4, want.min_period_fo4, "min_period_fo4");
  EXPECT_EQ(got.num_endpoints, want.num_endpoints);
  const ref::Timing t = ref::forward(nl, opt);
  const ref::Endpoint* worst = ref::worst_endpoint(t);
  if (worst == nullptr || !unique_endpoint(t, worst->net, worst->path_tau))
    return false;
  EXPECT_EQ(got.critical_path, want.critical_path);
  expect_bytes_equal(got.critical_arrival_tau, want.critical_arrival_tau,
                     "critical-path arrivals");
  return true;
}

void expect_paths_match(const std::vector<sta::CriticalPath>& got,
                        const Netlist& nl, const sta::StaOptions& opt,
                        int k) {
  const std::vector<sta::CriticalPath> want = ref::top_paths(nl, opt, k);
  const ref::Timing t = ref::forward(nl, opt);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t p = 0; p < got.size(); ++p) {
    expect_bits(got[p].path_tau, want[p].path_tau,
                "path " + std::to_string(p));
    if (!unique_endpoint(t, want[p].endpoint_net, want[p].path_tau))
      continue;
    EXPECT_EQ(got[p].endpoint_net, want[p].endpoint_net) << p;
    EXPECT_EQ(got[p].endpoint, want[p].endpoint) << p;
    ASSERT_EQ(got[p].nodes.size(), want[p].nodes.size()) << p;
    for (std::size_t i = 0; i < got[p].nodes.size(); ++i) {
      const std::string at =
          "path " + std::to_string(p) + " node " + std::to_string(i);
      EXPECT_EQ(got[p].nodes[i].inst, want[p].nodes[i].inst) << at;
      EXPECT_EQ(got[p].nodes[i].input_net, want[p].nodes[i].input_net) << at;
      expect_bits(got[p].nodes[i].arrival_tau, want[p].nodes[i].arrival_tau,
                  at);
    }
  }
}

class SoaGraph : public ::testing::Test {
 protected:
  SoaGraph() : lib_(library::make_rich_asic_library(tech::asic_025um())) {}
  library::CellLibrary lib_;
};

// --- batch queries vs the reference --------------------------------------

/// Every batch query, over every registry design, across the option
/// variants and both placements.
TEST_F(SoaGraph, BatchQueriesMatchReferenceSta) {
  int v = 0;
  int unique_paths = 0;
  int repeated_nets = 0;
  for (const std::string& name : designs::design_names()) {
    SCOPED_TRACE(name);
    const Netlist nl = placed(name, lib_, v % 4 < 2);
    ASSERT_EQ(ref::topological(nl).size(), nl.num_instances());
    const sta::StaOptions opt = options_variant(v++);
    if (opt.optimal_repeaters)
      for (NetId n : nl.all_nets())
        if (ref::wire_of(nl, n, opt).load != nl.net_load(n)) ++repeated_nets;

    const sta::TimingResult r = sta::analyze(nl, opt);
    if (expect_timing_matches(r, nl, opt)) ++unique_paths;
    expect_bytes_equal(sta::net_arrivals(nl, opt),
                       ref::forward(nl, opt).arrival, "arrivals");
    expect_bytes_equal(sta::net_slacks(nl, opt, r.min_period_tau),
                       ref::slacks(nl, opt, r.min_period_tau), "slacks");
    expect_paths_match(sta::top_critical_paths(nl, opt, 5), nl, opt, 5);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(unique_paths, 0);
  EXPECT_GT(repeated_nets, 0);  // the repeater branch was exercised
}

/// Monte Carlo signoff shares one graph across samples; every sampled
/// period must be the reference period of the same sample's delay
/// factors, drawn from the same Rng::stream.
TEST_F(SoaGraph, MonteCarloMatchesReferenceSta) {
  const Netlist nl = placed("mac8", lib_, true);
  for (int threads : {1, 4}) {
    sta::McStaOptions mc;
    mc.base = options_variant(1);
    mc.samples = 32;
    mc.sigma_die = 0.03;
    mc.threads = threads;
    const sta::McStaResult r = sta::monte_carlo_sta(nl, mc);
    expect_bits(r.nominal_period_tau,
                ref::analyze(nl, mc.base).min_period_tau, "nominal");

    const std::vector<double>& got = r.period_tau.samples();
    ASSERT_EQ(got.size(), static_cast<std::size_t>(mc.samples));
    for (std::size_t s = 0; s < got.size(); ++s) {
      Rng rng = Rng::stream(mc.seed, s);
      const double die = std::exp(mc.sigma_die * rng.normal());
      std::vector<double> factors(nl.num_instances());
      for (double& f : factors)
        f = die * std::exp(mc.sigma_gate * rng.normal());
      sta::StaOptions opt = mc.base;
      opt.instance_delay_factors = &factors;
      expect_bits(got[s], ref::analyze(nl, opt).min_period_tau,
                  "sample " + std::to_string(s));
    }
  }
}

// --- construction round-trips --------------------------------------------

/// Counts, per-element values, and adjacency all round-trip the netlist,
/// for every registry entry.
TEST_F(SoaGraph, ConstructionRoundTripsEveryRegistryDesign) {
  for (const std::string& name : designs::design_names()) {
    const Netlist nl = implemented(name, lib_);
    const CompactGraph g(nl);

    EXPECT_EQ(g.num_nets(), nl.num_nets()) << name;
    EXPECT_EQ(g.num_instances(), nl.num_instances()) << name;
    EXPECT_EQ(g.num_ports(), nl.num_ports()) << name;

    std::size_t pins = 0;
    for (InstanceId id : nl.all_instances()) {
      const netlist::Instance& inst = nl.instance(id);
      pins += inst.inputs.size();
      EXPECT_EQ(g.output(id), inst.output);
      EXPECT_EQ(g.is_sequential(id), nl.is_sequential(id));
      // Value arrays hold the exact bytes the Netlist accessors derive.
      const double want_drive = nl.drive_of(id);
      const double got_drive = g.drive(id);
      const double want_cap = nl.pin_cap(id);
      const double got_cap = g.pin_cap(id);
      EXPECT_EQ(std::memcmp(&got_drive, &want_drive, sizeof(double)), 0);
      EXPECT_EQ(std::memcmp(&got_cap, &want_cap, sizeof(double)), 0);
      const auto in = g.inputs(id);
      ASSERT_EQ(in.size(), inst.inputs.size());
      for (std::size_t p = 0; p < in.size(); ++p)
        EXPECT_EQ(in[p], inst.inputs[p]) << name << " pin order";
    }
    EXPECT_EQ(g.num_edges(), pins) << name;

    for (NetId n : nl.all_nets()) {
      const netlist::Net& net = nl.net(n);
      EXPECT_EQ(g.driver(n).kind, net.driver.kind);
      const auto sinks = g.sinks(n);
      ASSERT_EQ(sinks.size(), net.sinks.size());
      for (std::size_t s = 0; s < sinks.size(); ++s) {
        EXPECT_EQ(sinks[s].kind, net.sinks[s].kind) << name << " sink order";
        EXPECT_EQ(sinks[s].inst, net.sinks[s].inst);
      }
    }
    if (HasFatalFailure()) return;
  }
}

/// The schedule is a valid wavefront: order() is a topological order,
/// every combinational instance sits strictly above the combinational
/// drivers of its instance-driven inputs, sequentials sit at level 0, and
/// the wave CSR partitions the instances in ascending id per level.
TEST_F(SoaGraph, LevelizationIsValidTopologicalOrder) {
  for (const std::string& name : designs::design_names()) {
    const Netlist nl = implemented(name, lib_);
    const CompactGraph g(nl);
    const std::vector<int>& level = g.levels();

    ASSERT_EQ(g.order().size(), nl.num_instances());
    std::vector<std::size_t> pos(nl.num_instances());
    std::vector<char> seen(nl.num_instances(), 0);
    for (std::size_t i = 0; i < g.order().size(); ++i) {
      const std::size_t idx = g.order()[i].index();
      EXPECT_EQ(seen[idx], 0) << name << ": duplicate in order()";
      seen[idx] = 1;
      pos[idx] = i;
    }

    for (InstanceId id : nl.all_instances()) {
      if (nl.is_sequential(id)) {
        EXPECT_EQ(level[id.index()], 0) << name;
        continue;
      }
      for (NetId in : nl.instance(id).inputs) {
        const netlist::NetDriver& d = nl.net(in).driver;
        if (d.kind != netlist::NetDriver::Kind::kInstance) continue;
        // Topological: combinational drivers precede their readers.
        if (!nl.is_sequential(d.inst))
          EXPECT_LT(pos[d.inst.index()], pos[id.index()]) << name;
        // Wavefront: a level reads only arrivals from strictly below it.
        const int dl = nl.is_sequential(d.inst) ? 0 : level[d.inst.index()];
        EXPECT_LT(dl, level[id.index()]) << name;
      }
    }

    std::size_t waved = 0;
    for (int l = 0; l < g.num_levels(); ++l) {
      const auto wave = g.wave(l);
      waved += wave.size();
      for (std::size_t i = 0; i < wave.size(); ++i) {
        EXPECT_EQ(level[wave[i].index()], l) << name;
        if (i > 0) EXPECT_LT(wave[i - 1].index(), wave[i].index()) << name;
      }
    }
    EXPECT_EQ(waved, nl.num_instances()) << name;
    if (HasFatalFailure()) return;
  }
}

/// Two builds from the same netlist agree element for element, and a
/// rebuild after an edit lands on the same bytes as a fresh build from
/// the edited netlist — ids are positional, so they never shift.
TEST_F(SoaGraph, StableIdsAndRebuildAfterEditEqualsFreshBuild) {
  Netlist nl = implemented("alu16", lib_);
  CompactGraph a(nl);
  const CompactGraph b(nl);
  EXPECT_EQ(a.order(), b.order());
  EXPECT_EQ(a.levels(), b.levels());
  EXPECT_EQ(a.num_edges(), b.num_edges());

  // A value edit patched in place equals the fresh-build value array.
  const InstanceId target(0);
  const library::Cell& c = nl.cell_of(target);
  const auto& ladder = nl.lib().cells_of(c.func, c.family);
  nl.replace_cell(target, ladder.back());
  a.refresh_instance(nl, target);
  const CompactGraph after_value(nl);
  const double want_drive = after_value.drive(target);
  const double got_drive = a.drive(target);
  EXPECT_EQ(std::memcmp(&got_drive, &want_drive, sizeof(double)), 0);

  // A structural edit + rebuild_structure equals a fresh build. Rewire a
  // combinational input to a primary-input net: that can never create a
  // combinational cycle, so the raw netlist mutation stays well-formed.
  NetId pi_net;
  for (PortId p : nl.all_ports())
    if (nl.port(p).is_input) {
      pi_net = nl.port(p).net;
      break;
    }
  ASSERT_TRUE(pi_net.valid());
  InstanceId rewired;
  for (InstanceId id : nl.all_instances())
    if (!nl.is_sequential(id) && !nl.instance(id).inputs.empty()) {
      rewired = id;
      break;
    }
  ASSERT_TRUE(rewired.valid());
  nl.rewire_input(rewired, 0, pi_net);
  a.rebuild_structure(nl);
  const CompactGraph fresh(nl);
  EXPECT_EQ(a.order(), fresh.order());
  EXPECT_EQ(a.levels(), fresh.levels());
  EXPECT_EQ(a.built_version(), fresh.built_version());
  for (InstanceId id : nl.all_instances()) {
    const auto ga = a.inputs(id);
    const auto gf = fresh.inputs(id);
    ASSERT_EQ(ga.size(), gf.size());
    for (std::size_t p = 0; p < ga.size(); ++p) EXPECT_EQ(ga[p], gf[p]);
  }
  // Propagation over both graphs is byte-identical.
  const sta::StaOptions opt = options_variant(0);
  sta::detail::ArrivalState sa, sf;
  sta::compact_propagate(a, opt, sa);
  sta::compact_propagate(fresh, opt, sf);
  expect_bytes_equal(sa.arrival, sf.arrival, "arrivals after rebuild");
}

// --- staleness bookkeeping -----------------------------------------------

/// built_version() records the netlist version at (re)build time; value
/// patches deliberately do not advance it.
TEST_F(SoaGraph, BuiltVersionTracksStructuralRebuilds) {
  Netlist nl = implemented("alu16", lib_);
  CompactGraph g(nl);
  EXPECT_EQ(g.built_version(), nl.version());

  const InstanceId target(0);
  const library::Cell& c = nl.cell_of(target);
  nl.replace_cell(target, nl.lib().cells_of(c.func, c.family).front());
  EXPECT_LT(g.built_version(), nl.version());  // value patch: not a rebuild
  g.refresh_instance(nl, target);
  EXPECT_LT(g.built_version(), nl.version());
  g.rebuild_structure(nl);
  EXPECT_EQ(g.built_version(), nl.version());
}

// --- incremental timers: 1 vs 4 lanes vs the reference -----------------

Edit random_edit(Rng& rng, const Netlist& nl) {
  const auto pick_inst = [&] {
    return InstanceId(
        static_cast<std::uint32_t>(rng.uniform_index(nl.num_instances())));
  };
  switch (rng.uniform_index(8)) {
    case 0:
    case 1:
    case 2: {
      const InstanceId id = pick_inst();
      const library::Cell& c = nl.cell_of(id);
      const auto& ladder = nl.lib().cells_of(c.func, c.family);
      return Edit::replace_cell(id, ladder[rng.uniform_index(ladder.size())]);
    }
    case 3:
    case 4:
    case 5:
      return Edit::set_drive(
          pick_inst(), rng.bernoulli(0.2) ? 0.0 : rng.uniform(1.0, 24.0));
    case 6: {
      const InstanceId id = pick_inst();
      const auto& inputs = nl.instance(id).inputs;
      if (inputs.empty()) return Edit::set_drive(id, 4.0);
      return Edit::rewire(
          id, static_cast<int>(rng.uniform_index(inputs.size())),
          NetId(static_cast<std::uint32_t>(rng.uniform_index(nl.num_nets()))));
    }
    default: {
      sta::ClockSpec ck;
      ck.skew_fraction = rng.uniform(0.0, 0.3);
      ck.extra_skew_tau = rng.uniform(0.0, 2.0);
      return Edit::set_clock(ck);
    }
  }
}

/// Apply an accepted edit to a plain netlist copy, bypassing the timer.
void mirror_apply(Netlist& nl, sta::StaOptions& opt, const Edit& e) {
  switch (e.kind) {
    case Edit::Kind::kReplaceCell:
      nl.replace_cell(e.inst, e.cell);
      break;
    case Edit::Kind::kSetDriveOverride:
      nl.instance(e.inst).drive_override = e.drive;
      break;
    case Edit::Kind::kRewireInput:
      nl.rewire_input(e.inst, e.pin, e.net);
      break;
    case Edit::Kind::kSetClock:
      opt.clock = e.clock;
      break;
  }
}

/// Work items that reached a common::ThreadPool so far, process-wide.
std::uint64_t pool_items() {
  return common::metrics().counter("wall.pool.items_dispatched").value();
}

/// Twin resident timers at 1 and 4 lanes, driven by the same randomized
/// edit scripts in batches of 1-3 edits, stay bitwise equal to each other
/// after every batch, and match the reference run on a mirror netlist the
/// test edits directly. This is the contract the flow, gapd and TILOS
/// lean on.
///
/// alu16's waves are narrower than sta::wave_for's 4-lane threshold, so
/// the last scripts run on a 5-stage mac16 whose waves are several
/// hundred instances wide. There the pooled relaxation must actually run:
/// the 4-lane timer dispatches to its pool during a full rebuild and
/// during one flush after a batch that resizes every register.
TEST_F(SoaGraph, IncrementalTimersMatchAcrossThreadsAndReference) {
  const Netlist careful = placed("alu16", lib_, false);
  const Netlist scattered = placed("alu16", lib_, true);
  const Netlist wide = placed("mac16", lib_, false, 5);
  constexpr std::uint64_t kSeed = 0x50A0ull;
  constexpr int kScripts = 24;
  constexpr int kWideScripts = 4;
  constexpr int kEdits = 12;
  int applied = 0;
  for (int script = 0; script < kScripts + kWideScripts; ++script) {
    SCOPED_TRACE("script " + std::to_string(script));
    const bool is_wide = script >= kScripts;
    const Netlist& base =
        is_wide ? wide : (script % 4 < 2 ? scattered : careful);
    Netlist n1 = base;
    Netlist n4 = base;
    Netlist mirror = base;
    sta::StaOptions mirror_opt = options_variant(script);
    IncrementalTimer t1(n1, mirror_opt, 1);
    IncrementalTimer t4(n4, mirror_opt, 4);
    const auto apply_all = [&](const Edit& edit) {
      const common::Status s1 = t1.apply(edit);
      const common::Status s4 = t4.apply(edit);
      ASSERT_EQ(s1.ok(), s4.ok());
      if (s1.ok()) {
        mirror_apply(mirror, mirror_opt, edit);
        ++applied;
      }
    };
    const auto expect_batch_matches = [&] {
      expect_bytes_equal(t4.arrivals(), t1.arrivals(), "1 vs 4 lanes");
      expect_bytes_equal(t1.arrivals(),
                         ref::forward(mirror, mirror_opt).arrival,
                         "arrivals vs reference");
      const sta::TimingResult tr = t1.timing();
      expect_timing_matches(tr, mirror, mirror_opt);
      expect_timing_matches(t4.timing(), mirror, mirror_opt);
      const std::vector<double> want =
          ref::slacks(mirror, mirror_opt, tr.min_period_tau);
      expect_bytes_equal(t1.slacks(tr.min_period_tau), want, "slacks");
      expect_bytes_equal(t4.slacks(tr.min_period_tau), want, "slacks");
      expect_paths_match(t1.top_paths(5), mirror, mirror_opt, 5);
      expect_paths_match(t4.top_paths(5), mirror, mirror_opt, 5);
    };
    Rng rng = Rng::stream(kSeed, static_cast<std::uint64_t>(script));
    const int batch = 1 + script % 3;
    for (int e = 0; e < kEdits; ++e) {
      apply_all(random_edit(rng, mirror));
      if (HasFatalFailure()) return;
      if (e % batch != batch - 1) continue;
      expect_batch_matches();
      if (HasFatalFailure()) return;
    }
    if (is_wide) {
      // Many dirty registers, one flush: the level-0 wave alone is
      // hundreds of instances wide.
      const double drive = 1.5 + 0.5 * script;
      for (InstanceId id : mirror.all_instances())
        if (mirror.is_sequential(id)) apply_all(Edit::set_drive(id, drive));
      if (HasFatalFailure()) return;
      const std::uint64_t before = pool_items();
      (void)t4.arrivals();
      EXPECT_GT(pool_items(), before) << "register batch flush";
      expect_batch_matches();
      if (HasFatalFailure()) return;
    }
    // invalidate_all(): the full-rebuild path.
    t1.invalidate_all();
    t4.invalidate_all();
    expect_bytes_equal(t1.arrivals(), ref::forward(mirror, mirror_opt).arrival,
                       "arrivals after invalidate_all");
    const std::uint64_t before = pool_items();
    expect_bytes_equal(t4.arrivals(), t1.arrivals(),
                       "1 vs 4 lanes after invalidate_all");
    if (is_wide) EXPECT_GT(pool_items(), before) << "full rebuild";
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(applied, (kScripts + kWideScripts) * kEdits / 2);
}

/// A single edit whose cone is a few narrow waves stays on the calling
/// thread: sta::wave_for keeps waves below kWaveDispatchHint per lane off
/// the pool, so a 4-lane timer dispatches nothing for it.
TEST_F(SoaGraph, SmallConeEditStaysOffThePool) {
  Netlist nl = synth::map_to_netlist(
      designs::make_design("mac16", designs::DatapathStyle::kSynthesized),
      lib_, synth::MapOptions{}, "mac16_mapped");
  IncrementalTimer t4(nl, sta::StaOptions{}, 4);
  (void)t4.timing();  // the full build
  const common::Counter& reprops =
      common::metrics().counter("sta.incremental.nodes_repropagated");
  // The last mapped gate drives a primary output: a small fanout cone.
  const InstanceId victim{static_cast<std::uint32_t>(nl.num_instances() - 1)};
  const std::uint64_t items = pool_items();
  const std::uint64_t nodes = reprops.value();
  ASSERT_TRUE(t4.apply(Edit::set_drive(victim, 8.0)).ok());
  (void)t4.timing();
  EXPECT_GT(reprops.value(), nodes);  // the edit was re-timed
  EXPECT_EQ(pool_items(), items);
}

}  // namespace
}  // namespace gap
