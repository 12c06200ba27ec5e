#pragma once
/// \file reference_place.hpp
/// A deliberately plain placer, used only as a test oracle for
/// place::place, place::annotate_net_lengths and place::total_hpwl.
///
/// It is the pointer-walking placer the flat-array one replaced: every
/// net's HPWL is recomputed from netlist::Instance positions, and every
/// SA move re-evaluates the nets of both swapped cells twice. It shares
/// no code with src/place/place.cpp (it includes only the public
/// options/result types), so a production placer that drifts by one RNG
/// draw, one summation order or one stale cached HPWL fails the
/// differential test bit for bit.
///
/// It leaves the metrics registry alone and reports its SA accept/reject
/// counts in RefPlaceResult instead, so a test can compare them with the
/// production `place.sa_moves_accepted` / `_rejected` counter deltas.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "netlist/checks.hpp"
#include "netlist/netlist.hpp"
#include "place/place.hpp"

namespace gap::ref {

struct RefPlaceResult {
  place::PlaceResult result;
  std::uint64_t sa_accepted = 0;
  std::uint64_t sa_rejected = 0;
};

/// HPWL of one net over placed instance pins (ports are ignored: they sit
/// at the die boundary of whichever block the netlist models).
inline double net_hpwl(const netlist::Netlist& nl, NetId id) {
  const netlist::Net& n = nl.net(id);
  double x0 = 1e30, x1 = -1e30, y0 = 1e30, y1 = -1e30;
  int pins = 0;
  auto visit = [&](InstanceId inst) {
    const netlist::Instance& i = nl.instance(inst);
    if (i.x_um < 0.0) return;  // unplaced
    x0 = std::min(x0, i.x_um);
    x1 = std::max(x1, i.x_um);
    y0 = std::min(y0, i.y_um);
    y1 = std::max(y1, i.y_um);
    ++pins;
  };
  if (n.driver.kind == netlist::NetDriver::Kind::kInstance)
    visit(n.driver.inst);
  for (const netlist::NetSink& s : n.sinks)
    if (s.kind == netlist::NetSink::Kind::kInstancePin) visit(s.inst);
  if (pins < 2) return 0.0;
  return (x1 - x0) + (y1 - y0);
}

inline void annotate_net_lengths(netlist::Netlist& nl) {
  for (NetId n : nl.all_nets()) nl.net(n).length_um = net_hpwl(nl, n);
}

inline double total_hpwl(const netlist::Netlist& nl) {
  double t = 0.0;
  for (NetId n : nl.all_nets()) t += net_hpwl(nl, n);
  return t;
}

inline RefPlaceResult place(netlist::Netlist& nl,
                            const place::PlaceOptions& options) {
  struct Region {
    double x, y, w, h;
    std::vector<InstanceId> members;
  };

  RefPlaceResult out;
  place::PlaceResult& result = out.result;
  Rng rng(options.seed);
  if (nl.num_instances() == 0) return out;

  // --- determine die and regions ---
  double die_w, die_h;
  const double die_area = nl.total_area_um2() / options.utilization;
  die_w = die_h = std::sqrt(std::max(die_area, 1.0));
  if (options.mode == place::PlacementMode::kScattered) {
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
        regions[rit->second].members.push_back(id);
        continue;
      }
    }
    whole.members.push_back(id);
  }
  if (!whole.members.empty()) regions.push_back(std::move(whole));

  // --- initial placement: grid sites per region ---
  for (Region& r : regions) {
    const std::size_t count = r.members.size();
    if (count == 0) continue;
    const auto cols = static_cast<std::size_t>(std::ceil(
        std::sqrt(static_cast<double>(count) * r.w / std::max(r.h, 1.0))));
    const std::size_t rows =
        (count + std::max<std::size_t>(cols, 1) - 1) / std::max<std::size_t>(cols, 1);
    const double sx = r.w / static_cast<double>(std::max<std::size_t>(cols, 1));
    const double sy = r.h / static_cast<double>(std::max<std::size_t>(rows, 1));

    std::vector<InstanceId> members = r.members;
    if (options.mode == place::PlacementMode::kScattered) {
      // Random shuffle destroys locality: the "no floorplanning" flow.
      for (std::size_t i = members.size(); i > 1; --i)
        std::swap(members[i - 1],
                  members[static_cast<std::size_t>(rng.uniform_index(i))]);
    }
    for (std::size_t k = 0; k < members.size(); ++k) {
      netlist::Instance& inst = nl.instance(members[k]);
      inst.x_um = r.x + (static_cast<double>(k % cols) + 0.5) * sx;
      inst.y_um = r.y + (static_cast<double>(k / cols) + 0.5) * sy;
    }
  }
  result.initial_hpwl_um = total_hpwl(nl);

  // --- SA refinement (careful mode only) ---
  if (options.mode == place::PlacementMode::kCareful && options.sa_moves > 0) {
    // Nets touching an instance, for incremental cost evaluation.
    auto nets_of = [&](InstanceId id) {
      std::vector<NetId> nets = nl.instance(id).inputs;
      nets.push_back(nl.instance(id).output);
      return nets;
    };
    auto local_cost = [&](InstanceId a, InstanceId b) {
      double c = 0.0;
      for (NetId n : nets_of(a)) c += net_hpwl(nl, n);
      for (NetId n : nets_of(b)) c += net_hpwl(nl, n);
      return c;
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
      const InstanceId a = r.members[rng.uniform_index(r.members.size())];
      const InstanceId b = r.members[rng.uniform_index(r.members.size())];
      if (a == b) {
        temp *= cooling;
        continue;
      }
      const double before = local_cost(a, b);
      netlist::Instance& ia = nl.instance(a);
      netlist::Instance& ib = nl.instance(b);
      std::swap(ia.x_um, ib.x_um);
      std::swap(ia.y_um, ib.y_um);
      const double delta = local_cost(a, b) - before;
      if (!(delta <= 0.0 || rng.uniform() < std::exp(-delta / temp))) {
        std::swap(ia.x_um, ib.x_um);  // reject: swap back
        std::swap(ia.y_um, ib.y_um);
        ++out.sa_rejected;
      } else {
        ++out.sa_accepted;
      }
      temp *= cooling;
    }
  }

  annotate_net_lengths(nl);
  result.total_hpwl_um = total_hpwl(nl);
  return out;
}

}  // namespace gap::ref
