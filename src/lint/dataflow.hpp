#pragma once
/// \file dataflow.hpp
/// Whole-netlist forward dataflow analysis over the levelized wavefront
/// schedule of sta::CompactGraph. One lattice value per net:
///
///   - a three-valued constant (0 / 1 / varying),
///   - an uninitialized-state taint bit (X-reachability),
///   - a 32-bit set of clock domains the net's data is synchronous to,
///   - a 32-bit set of reset domains whose reset logic reaches the net.
///
/// Register outputs are pure seeds — their lattice value depends only on
/// the instance's own clock phase and reset annotation, never on its
/// inputs — so a single level-ordered sweep reaches the fixpoint: every
/// combinational instance reads values finalized at strictly lower
/// levels. Each wave writes disjoint single-driver nets, so a wave wide
/// enough for sta::wave_for relaxes in parallel over common::ThreadPool
/// with bit-identical results at any lane count (the same argument as
/// compact_propagate).
///
/// A reverse pass computes per-net observability (does the net's value
/// influence a primary output or captured register state, after folding
/// constant mux selects?) and structural PO-reachability; the GL-D/GL-X
/// rule family (rules.cpp) reads all of it through LintContext::dataflow.
///
/// The engine is resident-service friendly: gapd caches one per session
/// and resynchronizes it against Netlist::version() per edit kind —
/// value-only edits reuse everything, an input rewire re-evaluates only
/// the forward cone of the edited instance (update_rewire). All metrics
/// ("lint.dataflow.*") are derived from the schedule, never from pool
/// behavior, so counters are thread-count-invariant.

#include <cstdint>
#include <vector>

#include "common/status.hpp"
#include "lint/domains.hpp"
#include "netlist/netlist.hpp"
#include "sta/compact_graph.hpp"

namespace gap::lint {

/// Three-valued constant lattice for one net.
enum class ConstVal : std::uint8_t {
  kZero,     ///< provably tied low
  kOne,      ///< provably tied high
  kVarying,  ///< not a constant (or unknown)
};

/// Full lattice value of one net.
struct NetState {
  ConstVal cval = ConstVal::kVarying;
  /// Uninitialized-state taint: some register without a reset (or some
  /// undisciplined source) can place an undefined power-up value here.
  std::uint8_t taint = 0;
  /// Clock domains (DomainTable bits) whose registered data reaches here.
  std::uint32_t doms = 0;
  /// Reset domains whose reset network reaches here.
  std::uint32_t rsts = 0;

  friend bool operator==(const NetState&, const NetState&) = default;
};

/// Schedule-derived work counters for the last analyze/update; the same
/// numbers land on the "lint.dataflow.*" metrics. Thread-count-invariant
/// by construction (they count scheduled evaluations, not pool activity).
struct DataflowStats {
  std::uint64_t full_sweeps = 0;  ///< whole-netlist forward sweeps run
  std::uint64_t cone_passes = 0;  ///< incremental forward-cone recomputes
  std::uint64_t evals = 0;        ///< instance transfer evaluations, total
  std::uint64_t reuses = 0;       ///< refresh() calls satisfied from cache
};

/// The engine. One instance per analyzed netlist; all queries are valid
/// only after a successful analyze()/refresh() (valid() == true).
class DataflowEngine {
 public:
  /// Full analysis: build the domain table and schedule, seed ports and
  /// registers, run one forward sweep (parallel when threads != 1) and
  /// the reverse observability/reachability passes. Fails — leaving the
  /// engine invalid and the GL-D/GL-X rules silent — on a combinational
  /// cycle or a structurally unsound netlist.
  [[nodiscard]] common::Status analyze(const netlist::Netlist& nl,
                                       const std::vector<DomainDecl>& decls,
                                       int threads = 1);

  /// Resident-service sync: no-op when the engine is valid and
  /// Netlist::version() is unchanged (counts a reuse); otherwise a full
  /// analyze().
  [[nodiscard]] common::Status refresh(const netlist::Netlist& nl,
                                       const std::vector<DomainDecl>& decls,
                                       int threads = 1);

  /// After one input rewire of `inst` (instance/net counts unchanged):
  /// rebuild the schedule, re-evaluate only the combinational forward
  /// cone of `inst` (cut at register boundaries — register outputs are
  /// seeds), and redo the reverse passes. Falls back to a full analyze()
  /// when the engine is invalid or the netlist grew.
  [[nodiscard]] common::Status update_rewire(const netlist::Netlist& nl,
                                             InstanceId inst, int threads = 1);

  /// After a clock-phase edit on a sequential instance: re-seed that
  /// register and re-evaluate its combinational forward cone. Falls back
  /// to a full analyze() when the new phase has no bit in the domain
  /// table yet (the table itself must grow).
  [[nodiscard]] common::Status update_clock(const netlist::Netlist& nl,
                                            InstanceId inst, int threads = 1);

  /// After a value-only edit with no lattice impact (drive override,
  /// same-function cell swap): mark the lattice synchronized with the
  /// netlist's current version. No recomputation.
  void resync_value(const netlist::Netlist& nl) {
    if (valid_) synced_version_ = nl.version();
  }

  [[nodiscard]] bool valid() const { return valid_; }
  /// Netlist::version() the lattice is synchronized with.
  [[nodiscard]] std::uint64_t synced_version() const {
    return synced_version_;
  }

  [[nodiscard]] const DomainTable& domains() const { return table_; }
  [[nodiscard]] const NetState& state(NetId n) const {
    return states_[n.index()];
  }
  /// Net value can influence a primary output or captured register state
  /// (after constant-mux-select folding).
  [[nodiscard]] bool observed(NetId n) const {
    return observed_[n.index()] != 0;
  }
  /// Net structurally reaches a primary output (no value folding) — the
  /// GL-S006 notion of liveness, used to keep GL-X002 disjoint from it.
  [[nodiscard]] bool reaches_po(NetId n) const {
    return reaches_po_[n.index()] != 0;
  }
  [[nodiscard]] const sta::CompactGraph& graph() const { return graph_; }
  [[nodiscard]] const DataflowStats& stats() const { return stats_; }

 private:
  void seed_ports(const netlist::Netlist& nl);
  void eval_instance(const netlist::Netlist& nl, InstanceId id);
  void forward_sweep(const netlist::Netlist& nl, int threads);
  void reverse_passes(const netlist::Netlist& nl);
  [[nodiscard]] common::Status
  recompute_cones(const netlist::Netlist& nl,
                  const std::vector<InstanceId>& roots);

  sta::CompactGraph graph_;
  DomainTable table_;
  std::vector<DomainDecl> decls_;
  std::vector<NetState> states_;
  std::vector<std::uint8_t> observed_;
  std::vector<std::uint8_t> reaches_po_;
  DataflowStats stats_;
  bool valid_ = false;
  std::uint64_t synced_version_ = 0;
};

}  // namespace gap::lint
