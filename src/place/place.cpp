#include "place/place.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "netlist/checks.hpp"

namespace gap::place {
namespace {

using netlist::NetDriver;
using netlist::Netlist;
using netlist::NetSink;

/// The placer's flat view of a netlist (docs/data-layout.md, "Placement
/// view"): two CSR adjacency arrays and flat positions, indexed by the
/// netlist's own InstanceId / NetId values, so an HPWL streams through
/// contiguous arrays instead of chasing Instance and Net objects.
struct PlacementView {
  /// Instance i's nets: inst_nets[inst_start[i] .. inst_start[i + 1]),
  /// its inputs in pin order, then its output (a repeated net repeats).
  std::vector<std::uint32_t> inst_start, inst_nets;
  /// Net n's pins: net_pins[net_start[n] .. net_start[n + 1]), its driver
  /// instance, then its instance-pin sinks in sink order. Ports are left
  /// out: they sit at the die boundary of whichever block the netlist
  /// models.
  std::vector<std::uint32_t> net_start, net_pins;
  std::vector<double> xs, ys;  ///< per instance; x < 0 means unplaced

  explicit PlacementView(const Netlist& nl) {
    const std::size_t ni = nl.num_instances();
    const std::size_t nn = nl.num_nets();
    inst_start.reserve(ni + 1);
    xs.reserve(ni);
    ys.reserve(ni);
    inst_start.push_back(0);
    for (std::uint32_t i = 0; i < ni; ++i) {
      const netlist::Instance& inst = nl.instance(InstanceId{i});
      for (NetId n : inst.inputs) inst_nets.push_back(n.value());
      inst_nets.push_back(inst.output.value());
      inst_start.push_back(static_cast<std::uint32_t>(inst_nets.size()));
      xs.push_back(inst.x_um);
      ys.push_back(inst.y_um);
    }
    net_start.reserve(nn + 1);
    net_start.push_back(0);
    for (std::uint32_t n = 0; n < nn; ++n) {
      const netlist::Net& net = nl.net(NetId{n});
      if (net.driver.kind == NetDriver::Kind::kInstance)
        net_pins.push_back(net.driver.inst.value());
      for (const NetSink& s : net.sinks)
        if (s.kind == NetSink::Kind::kInstancePin)
          net_pins.push_back(s.inst.value());
      net_start.push_back(static_cast<std::uint32_t>(net_pins.size()));
    }
  }

  [[nodiscard]] std::size_t num_nets() const { return net_start.size() - 1; }

  [[nodiscard]] std::span<const std::uint32_t> nets(std::uint32_t i) const {
    return {inst_nets.data() + inst_start[i],
            inst_nets.data() + inst_start[i + 1]};
  }

  /// The one HPWL kernel: half-perimeter of net n's placed pins, 0 with
  /// fewer than two.
  [[nodiscard]] double hpwl(std::uint32_t n) const {
    double x0 = 1e30, x1 = -1e30, y0 = 1e30, y1 = -1e30;
    int placed = 0;
    for (std::uint32_t k = net_start[n]; k < net_start[n + 1]; ++k) {
      const std::uint32_t p = net_pins[k];
      if (xs[p] < 0.0) continue;  // unplaced
      x0 = std::min(x0, xs[p]);
      x1 = std::max(x1, xs[p]);
      y0 = std::min(y0, ys[p]);
      y1 = std::max(y1, ys[p]);
      ++placed;
    }
    if (placed < 2) return 0.0;
    return (x1 - x0) + (y1 - y0);
  }
};

struct Region {
  double x, y, w, h;
  std::vector<std::uint32_t> members;  ///< instance indices
};

}  // namespace

void annotate_net_lengths(netlist::Netlist& nl) {
  const PlacementView v(nl);
  for (std::uint32_t n = 0; n < v.num_nets(); ++n)
    nl.net(NetId{n}).length_um = v.hpwl(n);
}

double total_hpwl(const netlist::Netlist& nl) {
  const PlacementView v(nl);
  double t = 0.0;
  for (std::uint32_t n = 0; n < v.num_nets(); ++n) t += v.hpwl(n);
  return t;
}

PlaceResult place(netlist::Netlist& nl, const PlaceOptions& options) {
  GAP_TRACE_SPAN("place::place");
  static common::Counter& runs = common::metrics().counter("place.runs");
  static common::Counter& placed =
      common::metrics().counter("place.instances_placed");
  runs.add();

  PlaceResult result;
  Rng rng(options.seed);
  if (nl.num_instances() == 0) return result;
  placed.add(nl.num_instances());

  // --- determine die and regions ---
  double die_w, die_h;
  const double die_area = nl.total_area_um2() / options.utilization;
  die_w = die_h = std::sqrt(std::max(die_area, 1.0));
  if (options.mode == PlacementMode::kScattered) {
    if (options.scatter_die_mm > 0.0)
      die_w = die_h = options.scatter_die_mm * 1000.0;
    else
      die_w = die_h = die_w * options.scatter_spread;
  }
  result.die_w_um = die_w;
  result.die_h_um = die_h;

  // Group instances by region. Instances whose module has no floorplan
  // rectangle use the full die.
  std::vector<Region> regions;
  std::unordered_map<std::uint32_t, std::size_t> region_of_module;
  Region whole{0.0, 0.0, die_w, die_h, {}};
  // Topological order seeds locality: connected cells land near each other.
  const auto order = netlist::topo_order(nl);
  GAP_EXPECTS(order.size() == nl.num_instances());
  for (InstanceId id : order) {
    const ModuleId m = nl.instance(id).module;
    if (m.valid()) {
      const auto it = options.regions.find(m);
      if (it != options.regions.end()) {
        auto rit = region_of_module.find(m.value());
        if (rit == region_of_module.end()) {
          const floorplan::PlacedModule& pm = it->second;
          regions.push_back(Region{pm.x_um, pm.y_um, pm.w_um, pm.h_um, {}});
          rit = region_of_module.emplace(m.value(), regions.size() - 1).first;
        }
        regions[rit->second].members.push_back(id.value());
        continue;
      }
    }
    whole.members.push_back(id.value());
  }
  if (!whole.members.empty()) regions.push_back(std::move(whole));

  // --- initial placement: grid sites per region ---
  PlacementView v(nl);
  for (Region& r : regions) {
    const std::size_t count = r.members.size();
    if (count == 0) continue;
    const auto cols = static_cast<std::size_t>(std::ceil(
        std::sqrt(static_cast<double>(count) * r.w / std::max(r.h, 1.0))));
    const std::size_t rows =
        (count + std::max<std::size_t>(cols, 1) - 1) / std::max<std::size_t>(cols, 1);
    const double sx = r.w / static_cast<double>(std::max<std::size_t>(cols, 1));
    const double sy = r.h / static_cast<double>(std::max<std::size_t>(rows, 1));

    std::vector<std::uint32_t> members = r.members;
    if (options.mode == PlacementMode::kScattered) {
      // Random shuffle destroys locality: the "no floorplanning" flow.
      for (std::size_t i = members.size(); i > 1; --i)
        std::swap(members[i - 1],
                  members[static_cast<std::size_t>(rng.uniform_index(i))]);
    }
    for (std::size_t k = 0; k < members.size(); ++k) {
      v.xs[members[k]] = r.x + (static_cast<double>(k % cols) + 0.5) * sx;
      v.ys[members[k]] = r.y + (static_cast<double>(k / cols) + 0.5) * sy;
    }
  }
  // Every net's HPWL, kept exact for the current positions: SA moves
  // read it and update it only when a swap is accepted.
  std::vector<double> hpwl_cache(v.num_nets());
  for (std::uint32_t n = 0; n < v.num_nets(); ++n) {
    hpwl_cache[n] = v.hpwl(n);
    result.initial_hpwl_um += hpwl_cache[n];
  }

  // --- SA refinement (careful mode only) ---
  if (options.mode == PlacementMode::kCareful && options.sa_moves > 0) {
    GAP_TRACE_SPAN("place::sa_refine");
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    // Cost of the nets of a, then of b, in pin order with repeats: the
    // summation order is part of the result, since a rounding difference
    // can flip an accept.
    auto cached_cost = [&](std::uint32_t a, std::uint32_t b) {
      double c = 0.0;
      for (std::uint32_t n : v.nets(a)) c += hpwl_cache[n];
      for (std::uint32_t n : v.nets(b)) c += hpwl_cache[n];
      return c;
    };
    auto swapped_cost = [&](std::uint32_t a, std::uint32_t b) {
      double c = 0.0;
      for (std::uint32_t n : v.nets(a)) c += v.hpwl(n);
      for (std::uint32_t n : v.nets(b)) c += v.hpwl(n);
      return c;
    };
    auto swap_cells = [&](std::uint32_t a, std::uint32_t b) {
      std::swap(v.xs[a], v.xs[b]);
      std::swap(v.ys[a], v.ys[b]);
    };

    double temp = 0.05 * (die_w + die_h);
    const double cooling =
        std::pow(1e-3, 1.0 / std::max(1, options.sa_moves));
    for (int move = 0; move < options.sa_moves; ++move) {
      Region& r = regions[rng.uniform_index(regions.size())];
      if (r.members.size() < 2) {
        temp *= cooling;
        continue;
      }
      const std::uint32_t a = r.members[rng.uniform_index(r.members.size())];
      const std::uint32_t b = r.members[rng.uniform_index(r.members.size())];
      if (a == b) {
        temp *= cooling;
        continue;
      }
      const double before = cached_cost(a, b);
      swap_cells(a, b);
      const double delta = swapped_cost(a, b) - before;
      if (!(delta <= 0.0 || rng.uniform() < std::exp(-delta / temp))) {
        swap_cells(a, b);  // reject: swap back, the cache still holds
        ++rejected;
      } else {
        for (std::uint32_t n : v.nets(a)) hpwl_cache[n] = v.hpwl(n);
        for (std::uint32_t n : v.nets(b)) hpwl_cache[n] = v.hpwl(n);
        ++accepted;
      }
      temp *= cooling;
    }
    // Batched adds: the SA loop stays free of atomics.
    static common::Counter& acc =
        common::metrics().counter("place.sa_moves_accepted");
    static common::Counter& rej =
        common::metrics().counter("place.sa_moves_rejected");
    acc.add(accepted);
    rej.add(rejected);
  }

  // Write back once: positions to instances, cached HPWLs to nets.
  for (std::uint32_t i = 0; i < v.xs.size(); ++i) {
    netlist::Instance& inst = nl.instance(InstanceId{i});
    inst.x_um = v.xs[i];
    inst.y_um = v.ys[i];
  }
  for (std::uint32_t n = 0; n < v.num_nets(); ++n) {
    nl.net(NetId{n}).length_um = hpwl_cache[n];
    result.total_hpwl_um += hpwl_cache[n];
  }
  return result;
}

}  // namespace gap::place
