#pragma once
/// \file propagation.hpp
/// Timing state shared by the batch engine (sta.cpp, statistical.cpp)
/// and the incremental engine (incremental.cpp). Both fill it through
/// the kernels of sta/kernels.hpp over a sta::CompactGraph, so they must
/// — and do — produce *byte-identical* arrivals, required times, slacks
/// and critical paths; tests/incremental_sta_test.cpp enforces the
/// batch-vs-incremental contract and tests/soa_graph_test.cpp checks both
/// against an independent reference STA.

#include <vector>

#include "netlist/netlist.hpp"
#include "sta/sta.hpp"

namespace gap::sta::detail {

/// Per-net / per-instance forward-timing state. Index arrays by
/// NetId::index() / InstanceId::index(). `wire_delay` is stored
/// post-corner (already multiplied by the corner delay factor).
struct ArrivalState {
  std::vector<double> arrival;      ///< per net, at the driver output
  std::vector<double> wire_delay;   ///< per net, added at every sink
  std::vector<double> driver_load;  ///< per net, load seen by the driver
  std::vector<NetId> crit_input;    ///< per instance, worst input net
};

/// Per-instance statistical delay multiplier (1.0 without MC sampling).
[[nodiscard]] inline double inst_factor(const StaOptions& opt,
                                        InstanceId id) {
  if (opt.instance_delay_factors == nullptr) return 1.0;
  return (*opt.instance_delay_factors)[id.index()];
}

/// Data budget inside one cycle once skew is taken out.
[[nodiscard]] inline double cycle_budget(const StaOptions& opt,
                                         double period_tau) {
  return period_tau * (1.0 - opt.clock.skew_fraction) -
         opt.clock.extra_skew_tau;
}

/// The worst endpoint over the whole design, with the batch engine's
/// tie-break (first net in id order, first sink in sink order).
struct WorstEndpoint {
  double path_tau;
  NetId net;
  std::size_t count = 0;
};

}  // namespace gap::sta::detail
