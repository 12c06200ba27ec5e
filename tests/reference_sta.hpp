#pragma once
/// \file reference_sta.hpp
/// A deliberately plain static timing analysis, used only as a test
/// oracle for the production engines (sta::analyze / net_slacks /
/// top_critical_paths, Monte Carlo STA and sta::IncrementalTimer).
///
/// It walks netlist::Netlist objects directly, orders instances with its
/// own Kahn sort, and shares no code with sta/kernels.hpp or
/// sta/propagation.hpp (it includes neither). What it does share is the
/// model itself, restated here from its documentation: logical-effort
/// gate delay at the net load, Elmore wire delay (wire:: physics),
/// optionally an optimally repeated line behind a fanout-of-4 ramp,
/// capture setup at sequential D pins, and
///
///   T = (worst_path + extra_skew) / (1 - skew_fraction).
///
/// Each quantity is written in the same expression order the model
/// documents, so a correct engine agrees with it bit for bit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "sta/sta.hpp"
#include "wire/elmore.hpp"
#include "wire/repeaters.hpp"

namespace gap::ref {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One timing endpoint: a primary-output sink or a sequential D pin.
struct Endpoint {
  double path_tau = 0.0;  ///< launch to capture, incl. setup
  NetId net;
  netlist::NetSink sink;
};

/// Forward-pass results, indexed by NetId / InstanceId.
struct Timing {
  std::vector<double> wire_tau;     ///< per net, post-corner, at every sink
  std::vector<double> load;         ///< per net, load its driver sees
  std::vector<double> arrival;      ///< per net at the driver; -inf if none
  std::vector<NetId> worst_input;   ///< per instance; invalid for launches
  std::vector<InstanceId> order;    ///< drivers before their readers
  std::vector<Endpoint> endpoints;  ///< net order, then sink order
};

/// Gate delay of `id` driving `load` units, corner and MC factor applied.
inline double gate_delay(const netlist::Netlist& nl,
                         const sta::StaOptions& opt, InstanceId id,
                         double load) {
  const library::Cell& c = nl.cell_of(id);
  double intrinsic = c.parasitic + load / nl.drive_of(id);
  if (c.is_sequential()) intrinsic += c.clk_to_q_tau;
  const double factor = opt.instance_delay_factors == nullptr
                            ? 1.0
                            : (*opt.instance_delay_factors)[id.index()];
  return opt.corner_delay_factor * factor * intrinsic;
}

/// Setup time a sequential sink imposes, corner and MC factor applied.
inline double setup_delay(const netlist::Netlist& nl,
                          const sta::StaOptions& opt, InstanceId id) {
  const double factor = opt.instance_delay_factors == nullptr
                            ? 1.0
                            : (*opt.instance_delay_factors)[id.index()];
  return opt.corner_delay_factor * factor * nl.cell_of(id).setup_tau;
}

/// Wire delay (pre-corner) and driver load of one net.
struct Wire {
  double delay_tau = 0.0;
  double load = 0.0;
};

inline Wire wire_of(const netlist::Netlist& nl, NetId id,
                    const sta::StaOptions& opt) {
  const netlist::Net& net = nl.net(id);
  Wire w;
  w.load = nl.net_load(id);
  if (!opt.include_wire_delay || net.length_um <= 0.0) return w;
  const tech::Technology& t = nl.lib().technology();

  double sink_units = net.extra_cap_units;
  for (const netlist::NetSink& s : net.sinks)
    if (s.kind == netlist::NetSink::Kind::kInstancePin)
      sink_units += nl.pin_cap(s.inst);
  wire::WireSegment seg;
  seg.length_um = net.length_um;
  seg.width_multiple = net.width_multiple;
  w.delay_tau = wire::elmore_delay_tau(t, seg, sink_units);

  if (!opt.optimal_repeaters || net.length_um <= opt.repeater_threshold_um)
    return w;
  // Repeated line: a fanout-of-4 ramp (5 tau per stage) from the driver up
  // to the plan's repeater size, then the repeated wire. Taken only when
  // faster than the raw RC line, the driver's own effort included.
  double drv = 1.0;
  if (net.driver.kind == netlist::NetDriver::Kind::kInstance)
    drv = nl.drive_of(net.driver.inst);
  else if (net.driver.kind == netlist::NetDriver::Kind::kPrimaryInput)
    drv = nl.port(net.driver.port).ext_drive;
  const wire::RepeaterPlan plan =
      wire::plan_repeaters(t, seg, sink_units * t.unit_inv_cin_ff);
  const double stages = std::ceil(
      std::log(std::max(1.0, plan.repeater_size / drv)) / std::log(4.0));
  const double ramp_tau = stages * 5.0;
  const double repeated = 4.0 + ramp_tau + t.ps_to_tau(plan.delay_ps);
  const double raw = w.load / drv + w.delay_tau;
  if (repeated < raw) {
    w.delay_tau = ramp_tau + t.ps_to_tau(plan.delay_ps);
    w.load = 4.0 * drv;
  }
  return w;
}

/// Kahn order: a combinational instance follows every instance driving
/// one of its inputs; sequential instances launch at the clock and wait
/// for nothing. Shorter than num_instances() on a combinational cycle.
inline std::vector<InstanceId> topological(const netlist::Netlist& nl) {
  const std::size_t n = nl.num_instances();
  std::vector<int> pending(n, 0);
  for (InstanceId id : nl.all_instances()) {
    if (nl.is_sequential(id)) continue;
    for (NetId in : nl.instance(id).inputs)
      if (nl.net(in).driver.kind == netlist::NetDriver::Kind::kInstance)
        ++pending[id.index()];
  }
  std::vector<InstanceId> order;
  for (InstanceId id : nl.all_instances())
    if (pending[id.index()] == 0) order.push_back(id);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const NetId out = nl.instance(order[head]).output;
    for (const netlist::NetSink& s : nl.net(out).sinks)
      if (s.kind == netlist::NetSink::Kind::kInstancePin &&
          !nl.is_sequential(s.inst) && --pending[s.inst.index()] == 0)
        order.push_back(s.inst);
  }
  return order;
}

inline Timing forward(const netlist::Netlist& nl,
                      const sta::StaOptions& opt) {
  const double k = opt.corner_delay_factor;
  Timing t;
  for (NetId n : nl.all_nets()) {
    const Wire w = wire_of(nl, n, opt);
    t.wire_tau.push_back(k * w.delay_tau);
    t.load.push_back(w.load);
  }
  t.arrival.assign(nl.num_nets(), -kInf);
  for (PortId p : nl.all_ports()) {
    const netlist::Port& port = nl.port(p);
    if (port.is_input)
      t.arrival[port.net.index()] =
          k * t.load[port.net.index()] / port.ext_drive;
  }

  t.order = topological(nl);
  t.worst_input.assign(nl.num_instances(), NetId{});
  for (InstanceId id : t.order) {
    const netlist::Instance& inst = nl.instance(id);
    double in = 0.0;  // a register launches at the clock edge
    if (!nl.is_sequential(id)) {
      in = -kInf;
      for (NetId n : inst.inputs) {
        const double a = t.arrival[n.index()] + t.wire_tau[n.index()];
        if (a > in) {
          in = a;
          t.worst_input[id.index()] = n;
        }
      }
      if (in == -kInf) in = 0.0;  // only floating inputs
    }
    t.arrival[inst.output.index()] =
        in + gate_delay(nl, opt, id, t.load[inst.output.index()]);
  }

  for (NetId n : nl.all_nets()) {
    if (t.arrival[n.index()] == -kInf) continue;
    const double at = t.arrival[n.index()] + t.wire_tau[n.index()];
    for (const netlist::NetSink& s : nl.net(n).sinks) {
      if (s.kind == netlist::NetSink::Kind::kPrimaryOutput)
        t.endpoints.push_back({at, n, s});
      else if (nl.is_sequential(s.inst))
        t.endpoints.push_back({at + setup_delay(nl, opt, s.inst), n, s});
    }
  }
  return t;
}

/// Launch-to-capture instances ending at the driver of `net`, following
/// each gate's worst input back to a register or a primary input.
inline std::vector<sta::PathNode> backtrack(const netlist::Netlist& nl,
                                            const Timing& t, NetId net) {
  std::vector<sta::PathNode> nodes;
  while (net.valid()) {
    const netlist::NetDriver& d = nl.net(net).driver;
    if (d.kind != netlist::NetDriver::Kind::kInstance) break;
    sta::PathNode node;
    node.inst = d.inst;
    node.arrival_tau = t.arrival[net.index()];
    const bool launch = nl.is_sequential(d.inst);
    if (!launch) node.input_net = t.worst_input[d.inst.index()];
    nodes.push_back(node);
    if (launch) break;
    net = t.worst_input[d.inst.index()];
  }
  std::reverse(nodes.begin(), nodes.end());
  return nodes;
}

/// The worst endpoint; the first one in net/sink order wins a tie.
inline const Endpoint* worst_endpoint(const Timing& t) {
  const Endpoint* worst = nullptr;
  for (const Endpoint& e : t.endpoints)
    if (worst == nullptr || e.path_tau > worst->path_tau) worst = &e;
  return worst;
}

inline sta::TimingResult analyze(const netlist::Netlist& nl,
                                 const sta::StaOptions& opt) {
  const Timing t = forward(nl, opt);
  sta::TimingResult r;
  r.num_endpoints = t.endpoints.size();
  const Endpoint* worst = worst_endpoint(t);
  if (worst == nullptr) return r;
  r.worst_path_tau = worst->path_tau;
  r.min_period_tau = (worst->path_tau + opt.clock.extra_skew_tau) /
                     (1.0 - opt.clock.skew_fraction);
  const tech::Technology& tech = nl.lib().technology();
  r.min_period_ps = tech.tau_to_ps(r.min_period_tau);
  r.min_period_fo4 = tech.tau_to_fo4(r.min_period_tau);
  for (const sta::PathNode& node : backtrack(nl, t, worst->net)) {
    r.critical_path.push_back(node.inst);
    r.critical_arrival_tau.push_back(node.arrival_tau);
  }
  return r;
}

/// Required time per net for a data budget of one `period_tau` cycle
/// minus skew: the tightest requirement over the net's sinks.
inline std::vector<double> required(const netlist::Netlist& nl,
                                    const sta::StaOptions& opt,
                                    const Timing& t, double period_tau) {
  const double budget = period_tau * (1.0 - opt.clock.skew_fraction) -
                        opt.clock.extra_skew_tau;
  const double k = opt.corner_delay_factor;
  std::vector<double> req(nl.num_nets(), kInf);
  const auto settle = [&](NetId n) {
    double r = kInf;
    for (const netlist::NetSink& s : nl.net(n).sinks) {
      double sink_req;
      if (s.kind == netlist::NetSink::Kind::kPrimaryOutput) {
        sink_req = budget - t.wire_tau[n.index()];
      } else if (nl.is_sequential(s.inst)) {
        // Nominal setup: the engines apply MC factors to the arrival
        // side of an endpoint only.
        sink_req = budget - k * nl.cell_of(s.inst).setup_tau -
                   t.wire_tau[n.index()];
      } else {
        const NetId out = nl.instance(s.inst).output;
        if (req[out.index()] == kInf) continue;
        sink_req = req[out.index()] -
                   gate_delay(nl, opt, s.inst, t.load[out.index()]) -
                   t.wire_tau[n.index()];
      }
      r = std::min(r, sink_req);
    }
    req[n.index()] = r;
  };
  // Readers come after their drivers in t.order, so walking it backwards
  // settles every sink's output before the nets feeding that sink.
  for (auto it = t.order.rbegin(); it != t.order.rend(); ++it)
    settle(nl.instance(*it).output);
  for (NetId n : nl.all_nets())
    if (nl.net(n).driver.kind != netlist::NetDriver::Kind::kInstance)
      settle(n);
  return req;
}

inline std::vector<double> slacks(const netlist::Netlist& nl,
                                  const sta::StaOptions& opt,
                                  double period_tau) {
  const Timing t = forward(nl, opt);
  const std::vector<double> req = required(nl, opt, t, period_tau);
  std::vector<double> out(nl.num_nets(), kInf);
  for (std::size_t i = 0; i < out.size(); ++i)
    if (t.arrival[i] != -kInf && req[i] != kInf)
      out[i] = req[i] - t.arrival[i];
  return out;
}

/// Every endpoint, worst first; ties break on net, then sink kind, then
/// instance and pin (or port).
inline std::vector<Endpoint> ranked_endpoints(const Timing& t) {
  std::vector<Endpoint> eps = t.endpoints;
  const auto sink_key = [](const netlist::NetSink& s) {
    return s.kind == netlist::NetSink::Kind::kInstancePin
               ? std::make_tuple(0, s.inst.index(), s.pin)
               : std::make_tuple(1, s.port.index(), 0);
  };
  std::stable_sort(eps.begin(), eps.end(),
                   [&](const Endpoint& a, const Endpoint& b) {
                     if (a.path_tau != b.path_tau)
                       return a.path_tau > b.path_tau;
                     if (a.net != b.net) return a.net.index() < b.net.index();
                     return sink_key(a.sink) < sink_key(b.sink);
                   });
  return eps;
}

inline std::vector<sta::CriticalPath> top_paths(const netlist::Netlist& nl,
                                                const sta::StaOptions& opt,
                                                int k) {
  const Timing t = forward(nl, opt);
  std::vector<sta::CriticalPath> out;
  for (const Endpoint& e : ranked_endpoints(t)) {
    if (static_cast<int>(out.size()) >= k) break;
    sta::CriticalPath p;
    p.nodes = backtrack(nl, t, e.net);
    p.endpoint_net = e.net;
    p.endpoint = e.sink;
    p.path_tau = e.path_tau;
    out.push_back(std::move(p));
  }
  return out;
}

}  // namespace gap::ref
