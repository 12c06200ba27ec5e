#include "lint/dataflow.hpp"

#include <algorithm>
#include <optional>
#include <string>

#include "common/check.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "netlist/checks.hpp"

namespace gap::lint {

namespace {

using library::Func;

constexpr ConstVal kX = ConstVal::kVarying;

bool known(ConstVal v) { return v != kX; }

ConstVal cv_of(bool b) { return b ? ConstVal::kOne : ConstVal::kZero; }

ConstVal cv_not(ConstVal v) {
  if (!known(v)) return kX;
  return cv_of(v == ConstVal::kZero);
}

ConstVal cv_and(ConstVal a, ConstVal b) {
  if (a == ConstVal::kZero || b == ConstVal::kZero) return ConstVal::kZero;
  if (a == ConstVal::kOne && b == ConstVal::kOne) return ConstVal::kOne;
  return kX;
}

ConstVal cv_or(ConstVal a, ConstVal b) {
  if (a == ConstVal::kOne || b == ConstVal::kOne) return ConstVal::kOne;
  if (a == ConstVal::kZero && b == ConstVal::kZero) return ConstVal::kZero;
  return kX;
}

ConstVal cv_xor(ConstVal a, ConstVal b) {
  if (!known(a) || !known(b)) return kX;
  return cv_of(a != b);
}

/// Three-valued transfer function of one cell over its input constants.
/// Controlling values fold through unknowns (0 kills an AND even if the
/// other leg is unknown); kDff/kLatch never reach here (seeded).
ConstVal fold(Func f, const ConstVal* v, std::size_t n) {
  const auto and_all = [&] {
    ConstVal r = ConstVal::kOne;
    for (std::size_t i = 0; i < n; ++i) r = cv_and(r, v[i]);
    return r;
  };
  const auto or_all = [&] {
    ConstVal r = ConstVal::kZero;
    for (std::size_t i = 0; i < n; ++i) r = cv_or(r, v[i]);
    return r;
  };
  switch (f) {
    case Func::kInv: return cv_not(v[0]);
    case Func::kBuf: return v[0];
    case Func::kNand2:
    case Func::kNand3:
    case Func::kNand4: return cv_not(and_all());
    case Func::kNor2:
    case Func::kNor3: return cv_not(or_all());
    case Func::kAnd2:
    case Func::kAnd3: return and_all();
    case Func::kOr2:
    case Func::kOr3: return or_all();
    case Func::kXor2: return cv_xor(v[0], v[1]);
    case Func::kXnor2: return cv_not(cv_xor(v[0], v[1]));
    case Func::kAoi21: return cv_not(cv_or(cv_and(v[0], v[1]), v[2]));
    case Func::kOai21: return cv_not(cv_and(cv_or(v[0], v[1]), v[2]));
    case Func::kMux2: {
      const ConstVal s = v[2];
      if (s == ConstVal::kZero) return v[0];
      if (s == ConstVal::kOne) return v[1];
      if (known(v[0]) && v[0] == v[1]) return v[0];
      return kX;
    }
    case Func::kMaj3: {
      int zeros = 0, ones = 0;
      for (std::size_t i = 0; i < 3; ++i) {
        if (v[i] == ConstVal::kZero) ++zeros;
        if (v[i] == ConstVal::kOne) ++ones;
      }
      if (zeros >= 2) return ConstVal::kZero;
      if (ones >= 2) return ConstVal::kOne;
      return kX;
    }
    case Func::kDff:
    case Func::kLatch: return kX;
  }
  return kX;
}

}  // namespace

void DataflowEngine::seed_ports(const netlist::Netlist& nl) {
  for (PortId pid : nl.all_ports()) {
    const netlist::Port& p = nl.port(pid);
    if (!p.is_input || !p.net.valid()) continue;
    NetState& s = states_[p.net.index()];
    if (p.tie == 0 || p.tie == 1) {
      s = NetState{p.tie == 1 ? ConstVal::kOne : ConstVal::kZero, 0, 0, 0};
      continue;
    }
    s.cval = ConstVal::kVarying;
    s.taint = 0;  // external data is assumed defined at time zero
    if (p.is_reset) {
      s.doms = 0;
      s.rsts = p.domain.empty() ? kUnknownDomainBit
                                : table_.mask_of_name(p.domain);
    } else {
      s.doms = p.domain.empty()
                   ? (table_.declared() ? kUnknownDomainBit : 0u)
                   : table_.mask_of_name(p.domain);
      s.rsts = 0;
    }
  }
}

void DataflowEngine::eval_instance(const netlist::Netlist& nl, InstanceId id) {
  NetState& o = states_[graph_.output(id).index()];
  if (graph_.is_sequential(id)) {
    // Register outputs are pure seeds: synchronous to the instance's own
    // clock phase, defined iff the register has a reset. Independence
    // from the inputs is what makes one level-ordered sweep a fixpoint.
    const netlist::Instance& inst = nl.instance(id);
    o.cval = ConstVal::kVarying;
    o.taint = inst.has_reset ? 0 : 1;
    o.doms = table_.mask_of_phase(inst.clock_phase);
    o.rsts = 0;
    return;
  }
  const std::span<const NetId> ins = graph_.inputs(id);
  ConstVal v[4] = {kX, kX, kX, kX};
  const std::size_t n = std::min<std::size_t>(ins.size(), 4);
  for (std::size_t i = 0; i < n; ++i) v[i] = states_[ins[i].index()].cval;
  const Func f = nl.cell_of(id).func;
  const ConstVal cv = fold(f, v, n);
  if (known(cv)) {
    // A provably constant net carries no data: it belongs to no clock
    // domain, no reset network, and can never be undefined.
    o = NetState{cv, 0, 0, 0};
    return;
  }
  o.cval = ConstVal::kVarying;
  if (f == Func::kMux2 && n == 3 && known(v[2])) {
    // Constant select: only the selected leg (and the select itself,
    // whose sets are empty anyway) flows to the output.
    const NetState& pick =
        states_[ins[v[2] == ConstVal::kOne ? 1 : 0].index()];
    const NetState& sel = states_[ins[2].index()];
    o.taint = static_cast<std::uint8_t>(pick.taint | sel.taint);
    o.doms = pick.doms | sel.doms;
    o.rsts = pick.rsts | sel.rsts;
    return;
  }
  std::uint8_t taint = 0;
  std::uint32_t doms = 0, rsts = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const NetState& s = states_[ins[i].index()];
    taint |= s.taint;
    doms |= s.doms;
    rsts |= s.rsts;
  }
  o.taint = taint;
  o.doms = doms;
  o.rsts = rsts;
}

void DataflowEngine::forward_sweep(const netlist::Netlist& nl, int threads) {
  std::optional<common::ThreadPool> pool;
  if (threads != 1) pool.emplace(threads);
  const int levels = graph_.num_levels();
  for (int l = 0; l < levels; ++l) {
    const std::span<const InstanceId> w = graph_.wave(l);
    // Every instance in a wave writes its own single-driver output net
    // and reads nets finalized at lower levels: disjoint writes, so the
    // parallel relaxation is bit-identical to the serial loop.
    sta::wave_for(pool ? &*pool : nullptr, w.size(),
                  [&](std::size_t i) { eval_instance(nl, w[i]); });
  }
}

void DataflowEngine::reverse_passes(const netlist::Netlist& nl) {
  observed_.assign(graph_.num_nets(), 0);
  reaches_po_.assign(graph_.num_nets(), 0);

  // Structural PO reachability (the GL-S006 notion): reverse BFS from
  // primary-output nets through every driver, sequential included.
  std::vector<NetId> stack;
  for (PortId pid : nl.all_ports()) {
    if (graph_.port_is_input(pid)) continue;
    const NetId n = graph_.port_net(pid);
    if (!n.valid() || reaches_po_[n.index()]) continue;
    reaches_po_[n.index()] = 1;
    stack.push_back(n);
  }
  while (!stack.empty()) {
    const NetId n = stack.back();
    stack.pop_back();
    const netlist::NetDriver& d = graph_.driver(n);
    if (d.kind != netlist::NetDriver::Kind::kInstance) continue;
    for (const NetId m : graph_.inputs(d.inst)) {
      if (!m.valid() || reaches_po_[m.index()]) continue;
      reaches_po_[m.index()] = 1;
      stack.push_back(m);
    }
  }

  // Observability: a net is observed when its *value* can influence a
  // primary output or captured register state. Seeds first — output
  // ports and every register input (capture is observation) — then one
  // reverse-topological walk over combinational instances. Register
  // inputs are pre-seeded rather than walked because registers sit at
  // level 0: in reverse order they would come *after* the combinational
  // logic that feeds them.
  for (PortId pid : nl.all_ports()) {
    if (graph_.port_is_input(pid)) continue;
    const NetId n = graph_.port_net(pid);
    if (n.valid()) observed_[n.index()] = 1;
  }
  for (InstanceId id : nl.all_instances()) {
    if (!graph_.is_sequential(id)) continue;
    for (const NetId m : graph_.inputs(id)) {
      if (m.valid()) observed_[m.index()] = 1;
    }
  }
  const std::vector<InstanceId>& order = graph_.order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const InstanceId id = *it;
    if (graph_.is_sequential(id)) continue;
    const NetId out = graph_.output(id);
    if (!observed_[out.index()]) continue;
    const NetState& o = states_[out.index()];
    // A constant output transmits nothing: its inputs stay unobserved
    // through this gate.
    if (o.cval != ConstVal::kVarying) continue;
    const std::span<const NetId> ins = graph_.inputs(id);
    if (nl.cell_of(id).func == Func::kMux2 && ins.size() == 3 &&
        known(states_[ins[2].index()].cval)) {
      // Constant select: the unselected leg is dead through this mux.
      const bool sel_one = states_[ins[2].index()].cval == ConstVal::kOne;
      observed_[ins[sel_one ? 1 : 0].index()] = 1;
      observed_[ins[2].index()] = 1;
      continue;
    }
    for (const NetId m : ins) observed_[m.index()] = 1;
  }
}

common::Status DataflowEngine::analyze(const netlist::Netlist& nl,
                                       const std::vector<DomainDecl>& decls,
                                       int threads) {
  static common::Counter& sweeps =
      common::metrics().counter("lint.dataflow.full_sweeps");
  static common::Counter& evals =
      common::metrics().counter("lint.dataflow.evals");

  valid_ = false;
  if (&decls != &decls_) decls_ = decls;
  if (nl.num_instances() > 0 && netlist::topo_order(nl).empty()) {
    return common::Status::error(
        common::ErrorCode::kStructural,
        "combinational cycle: dataflow analysis skipped (see GL-S004)");
  }
  try {
    ScopedContractCapture capture;
    graph_.build(nl);
  } catch (const std::exception& e) {
    return common::Status::error(
        common::ErrorCode::kContract,
        std::string("netlist rejected by dataflow graph build: ") + e.what());
  }
  table_ = DomainTable::build(nl, decls_);
  states_.assign(graph_.num_nets(), NetState{});
  seed_ports(nl);
  forward_sweep(nl, threads);
  reverse_passes(nl);
  valid_ = true;
  synced_version_ = nl.version();
  stats_.full_sweeps += 1;
  stats_.evals += graph_.num_instances();
  sweeps.add(1);
  evals.add(graph_.num_instances());
  return {};
}

common::Status DataflowEngine::refresh(const netlist::Netlist& nl,
                                       const std::vector<DomainDecl>& decls,
                                       int threads) {
  static common::Counter& reuses =
      common::metrics().counter("lint.dataflow.reuses");
  if (valid_ && synced_version_ == nl.version() && decls == decls_) {
    stats_.reuses += 1;
    reuses.add(1);
    return {};
  }
  return analyze(nl, decls, threads);
}

common::Status DataflowEngine::recompute_cones(
    const netlist::Netlist& nl, const std::vector<InstanceId>& roots) {
  static common::Counter& cones =
      common::metrics().counter("lint.dataflow.cone_passes");
  static common::Counter& evals =
      common::metrics().counter("lint.dataflow.evals");

  // Collect the combinational forward cone: registers are lattice seeds,
  // so traversal stops at every sequential sink (a root register is still
  // re-evaluated — its own seed may have changed).
  std::vector<std::uint8_t> in_cone(graph_.num_instances(), 0);
  std::vector<InstanceId> work;
  std::vector<InstanceId> members;
  for (const InstanceId r : roots) {
    if (in_cone[r.index()]) continue;
    in_cone[r.index()] = 1;
    work.push_back(r);
  }
  while (!work.empty()) {
    const InstanceId id = work.back();
    work.pop_back();
    members.push_back(id);
    for (const netlist::NetSink& s : graph_.sinks(graph_.output(id))) {
      if (s.kind != netlist::NetSink::Kind::kInstancePin) continue;
      if (graph_.is_sequential(s.inst)) continue;
      if (in_cone[s.inst.index()]) continue;
      in_cone[s.inst.index()] = 1;
      work.push_back(s.inst);
    }
  }
  // Level-ordered serial evaluation: each member reads only nets
  // finalized at lower levels, so one pass is exact. Deterministic by
  // construction — the schedule is the same at any thread count.
  const std::vector<int>& level = graph_.levels();
  std::sort(members.begin(), members.end(),
            [&](InstanceId a, InstanceId b) {
              const int la = level[a.index()], lb = level[b.index()];
              if (la != lb) return la < lb;
              return a < b;
            });
  for (const InstanceId id : members) eval_instance(nl, id);
  reverse_passes(nl);
  synced_version_ = nl.version();
  stats_.cone_passes += 1;
  stats_.evals += members.size();
  cones.add(1);
  evals.add(members.size());
  return {};
}

common::Status DataflowEngine::update_rewire(const netlist::Netlist& nl,
                                             InstanceId inst, int threads) {
  if (!valid_ || graph_.num_instances() != nl.num_instances() ||
      graph_.num_nets() != nl.num_nets() ||
      graph_.num_ports() != nl.num_ports()) {
    return analyze(nl, decls_, threads);
  }
  if (nl.num_instances() > 0 && netlist::topo_order(nl).empty()) {
    valid_ = false;
    return common::Status::error(
        common::ErrorCode::kStructural,
        "combinational cycle after rewire: dataflow analysis skipped");
  }
  try {
    ScopedContractCapture capture;
    graph_.rebuild_structure(nl);
  } catch (const std::exception& e) {
    valid_ = false;
    return common::Status::error(
        common::ErrorCode::kContract,
        std::string("rewired netlist rejected by schedule rebuild: ") +
            e.what());
  }
  seed_ports(nl);
  return recompute_cones(nl, {inst});
}

common::Status DataflowEngine::update_clock(const netlist::Netlist& nl,
                                            InstanceId inst, int threads) {
  if (!valid_ || graph_.num_instances() != nl.num_instances() ||
      graph_.num_nets() != nl.num_nets() ||
      graph_.num_ports() != nl.num_ports()) {
    return analyze(nl, decls_, threads);
  }
  // A phase edit can change the domain universe itself (a brand-new
  // phase, or the design flipping between single- and multi-clock).
  // Rebuilding the table is O(ports + instances) — cheap next to a
  // sweep — and any difference forces the full path.
  const DomainTable fresh = DomainTable::build(nl, decls_);
  if (!(fresh == table_)) return analyze(nl, decls_, threads);
  if (!graph_.is_sequential(inst)) {
    resync_value(nl);
    return {};
  }
  return recompute_cones(nl, {inst});
}

}  // namespace gap::lint
