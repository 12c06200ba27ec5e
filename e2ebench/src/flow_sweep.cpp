// flow_sweep: the paper's experiment. Every registry design under the
// typical-ASIC, good-ASIC and full-custom methodologies, 27 core::Flow
// runs per pass through one resident Flow (asic025). The seed orders the
// jobs within a pass.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/methodology.hpp"
#include "designs/registry.hpp"
#include "harness.hpp"
#include "netlist/checks.hpp"
#include "pipeline/pipeline.hpp"
#include "place/place.hpp"
#include "route/router.hpp"
#include "sizing/buffers.hpp"
#include "sizing/tilos.hpp"
#include "sizing/wires.hpp"
#include "sta/incremental.hpp"
#include "sta/sta.hpp"
#include "synth/mapper.hpp"

namespace e2ebench {
namespace {

using namespace gap;

/// Composed custom/typical frequency ratio the paper's factors multiply
/// to (x4.00 * x1.25 * x1.25 * x1.50 * x1.90 ~ x17.8).
constexpr double kMaxCustomRatio = 18.0;

struct Job {
  std::size_t design;
  std::size_t meth;  ///< index into FlowSweep::meths_
};

struct Implemented {
  bool ok = false;
  double freq_mhz = 0.0;
  double area_um2 = 0.0;
};

class FlowSweep final : public Workload {
 public:
  explicit FlowSweep(RunContext& ctx) : ctx_(ctx) {
    for (std::size_t d = 0; d < names_.size(); ++d)
      for (std::size_t m = 0; m < meths_.size(); ++m) jobs_.push_back({d, m});
    Rng rng(ctx.seed);
    rng.shuffle(jobs_);
  }

  SetupTiming setup(bool traced) override {
    flow_.reset();
    aigs_.clear();
    Tracer tr;
    SetupTiming t;
    const auto t0 = Clock::now();
    if (traced) tr.begin_op(0);
    const auto build_library = [&] {
      flow_ = std::make_unique<core::Flow>(tech::asic_025um());
    };
    const auto build_aigs = [&] {
      for (const std::string& name : names_)
        for (auto style : {designs::DatapathStyle::kSynthesized,
                           designs::DatapathStyle::kMacro})
          aigs_.push_back(designs::make_design(name, style));
    };
    if (traced) {
      tr.span(kLibraryBuild, build_library);
      tr.span(kDesignsAig, build_aigs);
      (void)tr.end_op(t.layers);
    } else {
      build_library();
      build_aigs();
    }
    t.seconds = seconds_between(t0, Clock::now());
    return t;
  }

  /// A set-up takes milliseconds; many repeats steady its median.
  [[nodiscard]] int setup_repeats() const override { return 20; }

  void check_setup() override {
    ctx_.checks.expect(aigs_.size() == 2 * names_.size(),
                       "flow_sweep: one AIG per design and datapath style");
  }

  [[nodiscard]] std::size_t ops() const override { return jobs_.size(); }

  std::size_t pass(int index, std::vector<double>& op_s,
                   Samples& samples) override {
    std::size_t failed = 0;
    current_.assign(jobs_.size(), {});
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      const Job& j = jobs_[i];
      const auto t0 = Clock::now();
      const core::FlowResult r = flow_->run(aig(j), meths_[j.meth]);
      op_s[i] = seconds_between(t0, Clock::now());
      samples["flow." + meth_names_[j.meth]].add(op_s[i]);
      current_[i] = {r.ok() && r.nl != nullptr, r.freq_mhz, r.area_um2};
      if (!current_[i].ok) ++failed;
      // Checked at once and dropped, so that no more than one final
      // netlist is alive at a time.
      if (index == 0 && r.nl != nullptr)
        ctx_.outside_counters([&] { check_netlist(i, *r.nl); });
    }
    return failed;
  }

  void check_pass(int index) override {
    if (index != 0) {
      for (std::size_t i = 0; i < jobs_.size(); ++i)
        ctx_.checks.expect(current_[i].freq_mhz == first_[i].freq_mhz &&
                               current_[i].area_um2 == first_[i].area_um2,
                           "flow_sweep: " + label(i) +
                               " changed QoR between passes");
      return;
    }
    first_ = current_;
    // The paper's ordering: each step toward custom practice is faster,
    // and the whole gap stays within the composed factor product.
    for (std::size_t d = 0; d < names_.size(); ++d) {
      double f[3] = {0.0, 0.0, 0.0};
      for (std::size_t i = 0; i < jobs_.size(); ++i)
        if (jobs_[i].design == d) f[jobs_[i].meth] = first_[i].freq_mhz;
      ctx_.checks.expect(f[0] < f[1] && f[1] < f[2],
                         "flow_sweep: " + names_[d] +
                             " fmax not typical < good < custom");
      const double ratio = f[0] > 0.0 ? f[2] / f[0] : 0.0;
      ctx_.checks.expect(ratio > 1.0 && ratio <= kMaxCustomRatio,
                         "flow_sweep: " + names_[d] +
                             " custom/typical ratio outside (1, 18]");
    }
  }

  /// Every check of flow_sweep runs in the first pass.
  void check_references() override {}

  std::size_t traced_pass(int index, Tracer& tracer, std::vector<double>& op_s,
                          std::vector<LayerBreakdown>& op_layers) override {
    std::size_t failed = 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      tracer.begin_op(index);
      const Implemented r = replay(jobs_[i], tracer);
      op_s[i] = tracer.end_op(op_layers[i]);
      if (!r.ok) ++failed;
      ctx_.checks.expect(r.freq_mhz == first_[i].freq_mhz &&
                             r.area_um2 == first_[i].area_um2,
                         "flow_sweep: replayed " + label(i) +
                             " differs from Flow::run");
    }
    return failed;
  }

  [[nodiscard]] std::vector<double> fmax_mhz() const override {
    std::vector<double> v;
    for (const Implemented& r : first_) v.push_back(r.freq_mhz);
    return v;
  }
  [[nodiscard]] std::vector<double> area_um2() const override {
    std::vector<double> v;
    for (const Implemented& r : first_) v.push_back(r.area_um2);
    return v;
  }

  [[nodiscard]] std::vector<std::string> work_counters() const override {
    return {"mapper.gates_mapped",
            "place.sa_moves_accepted",
            "place.sa_moves_rejected",
            "route.segments_committed",
            "tilos.moves_accepted",
            "tilos.moves_rejected",
            "sta.incremental.nodes_repropagated"};
  }

 private:
  [[nodiscard]] const logic::Aig& aig(const Job& j) const {
    const bool macro =
        meths_[j.meth].datapath == designs::DatapathStyle::kMacro;
    return aigs_[2 * j.design + (macro ? 1 : 0)];
  }

  [[nodiscard]] std::string label(std::size_t i) const {
    return names_[jobs_[i].design] + "/" + meth_names_[jobs_[i].meth];
  }

  /// Job i's final netlist is clean, and a from-scratch analysis of it
  /// reproduces the flow's sign-off frequency.
  void check_netlist(std::size_t i, const netlist::Netlist& nl) {
    ctx_.checks.expect(netlist::verify(nl).ok(),
                       "flow_sweep: " + label(i) +
                           " final netlist fails netlist::verify");
    const core::Methodology& m = ctx_.faults.is("flow-signoff-options")
                                     ? meths_[0]
                                     : meths_[jobs_[i].meth];
    const double fmax =
        sta::analyze(nl, core::signoff_sta_options(m)).frequency_mhz();
    ctx_.checks.expect(fmax == current_[i].freq_mhz,
                       "flow_sweep: " + label(i) +
                           " from-scratch STA disagrees with sign-off");
  }

  /// Flow::run's stage sequence (default FlowOptions) from the stages'
  /// public entry points, one span per layer.
  Implemented replay(const Job& j, Tracer& tr) const {
    const core::Methodology& m = meths_[j.meth];
    const library::CellLibrary& lib = flow_->library_for(m.library);
    const logic::Aig& design = aig(j);
    const sta::StaOptions sta_opt = core::signoff_sta_options(m);
    Implemented out;
    const auto verified = [&](const netlist::Netlist& nl) {
      return tr.span(kNetlistVerify, [&] { return netlist::verify(nl).ok(); });
    };

    std::optional<netlist::Netlist> mapped = tr.span(kSynthMap, [&] {
      synth::MapOptions map_opt;
      map_opt.objective = synth::MapObjective::kDelay;
      map_opt.family = m.dynamic_logic ? library::Family::kDomino
                                       : library::Family::kStatic;
      return std::optional<netlist::Netlist>(synth::map_to_netlist(
          design, lib, map_opt, design.po_name(0) + "_impl"));
    });
    if (!verified(*mapped)) return out;

    pipeline::PipelineResult piped = tr.span(kPipelineInsert, [&] {
      pipeline::PipelineOptions pipe_opt;
      pipe_opt.stages = m.pipeline_stages;
      pipe_opt.balanced = m.balanced_stages;
      return pipeline::pipeline_insert(*mapped, pipe_opt);
    });
    mapped.reset();
    netlist::Netlist& nl = piped.nl;
    if (!verified(nl)) return out;

    tr.span(kPlace, [&] {
      place::PlaceOptions place_opt;
      place_opt.mode = m.placement;
      place_opt.seed = flow_->seed();
      (void)place::place(nl, place_opt);
    });
    if (!verified(nl)) return out;
    if (!ctx_.faults.is("replay-skip-route"))
      tr.span(kRoute, [&] { (void)route::route(nl, route::RouteOptions{}); });

    std::optional<sta::IncrementalTimer> timer;
    if (m.sizing != core::SizingLevel::kNone) {
      tr.span(kSizing, [&] {
        sizing::initial_drive_assignment(nl);
        sizing::insert_buffers(nl, 96.0);
        sizing::initial_drive_assignment(nl);
        sizing::SizingOptions size_opt;
        size_opt.sta = sta_opt;
        size_opt.continuous = m.sizing == core::SizingLevel::kContinuous &&
                              lib.continuous_sizing;
        size_opt.continuous_step = 1.25;
        size_opt.incremental = true;
        timer.emplace(nl, sta_opt);
        (void)sizing::tilos_size(*timer, size_opt);
        if (m.sizing == core::SizingLevel::kContinuous) {
          sizing::WireSizingOptions wopt;
          wopt.sta = sta_opt;
          (void)sizing::widen_critical_wires(nl, wopt);
          timer->invalidate_all();
        }
      });
      if (!verified(nl)) return out;
    }

    tr.span(kStaSignoff, [&] {
      const sta::TimingResult t =
          timer ? timer->timing() : sta::analyze(nl, sta_opt);
      out.freq_mhz = t.frequency_mhz();
      out.area_um2 = nl.total_area_um2();
    });
    out.ok = true;
    return out;
  }

  RunContext& ctx_;
  const std::vector<std::string> names_ = designs::design_names();
  const std::vector<core::Methodology> meths_ = {
      core::typical_asic(), core::good_asic(), core::full_custom()};
  const std::vector<std::string> meth_names_ = {"typical", "good", "custom"};
  std::vector<Job> jobs_;
  std::unique_ptr<core::Flow> flow_;
  std::vector<logic::Aig> aigs_;  ///< [2 * design + (macro ? 1 : 0)]
  std::vector<Implemented> current_, first_;
};

}  // namespace

std::unique_ptr<Workload> make_flow_sweep(RunContext& ctx) {
  return std::make_unique<FlowSweep>(ctx);
}

}  // namespace e2ebench
