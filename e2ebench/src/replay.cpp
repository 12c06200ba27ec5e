#include "replay.hpp"

#include <utility>
#include <vector>

#include "core/flow.hpp"
#include "core/methodology.hpp"
#include "designs/registry.hpp"
#include "lint/dataflow.hpp"
#include "lint/lint.hpp"
#include "lint/report.hpp"
#include "qor/snapshot.hpp"
#include "serve/journal.hpp"
#include "serve/protocol.hpp"
#include "sta/incremental.hpp"
#include "sta/report.hpp"

namespace e2ebench {

using namespace gap;
namespace json = common::json;

namespace {

constexpr std::size_t kMaxFrameBytes = 1u << 20;  // ServerOptions default
constexpr int kLanes = 1;  // the workloads' ServerOptions::threads

[[nodiscard]] std::string compact(const std::string& text) {
  auto v = json::Value::parse_checked(text);
  return v.ok() ? v->dump() : std::string();
}

[[nodiscard]] int int_member(const json::Value& frame, const char* key,
                             int def) {
  const json::Value* f = frame.find(key);
  return f != nullptr && f->is_number() ? static_cast<int>(f->num) : def;
}

}  // namespace

struct ReplayServer::Session {
  std::string name;
  core::Methodology meth;
  std::unique_ptr<core::Flow> flow;
  std::shared_ptr<netlist::Netlist> nl;
  std::unique_ptr<sta::IncrementalTimer> timer;
  std::unique_ptr<lint::DataflowEngine> dataflow;
  serve::Journal journal;
  std::uint64_t seq = 0;
  std::vector<sta::Edit> undo;
};

ReplayServer::ReplayServer(std::string journal_dir)
    : journal_dir_(std::move(journal_dir)) {}
ReplayServer::~ReplayServer() = default;

std::uint64_t ReplayServer::journal_bytes() const {
  std::uint64_t n = 0;
  for (const auto& [name, s] : sessions_) n += s->journal.bytes_appended();
  return n;
}

std::string ReplayServer::load(const std::string& line, Tracer& tr) {
  return tr.span(kServeLoad, [&]() -> std::string {
    auto req = serve::parse_request(line, kMaxFrameBytes);
    if (!req.ok()) return {};
    const json::Value& f = req->frame;
    auto s = std::make_unique<Session>();
    s->name = f.member_string("session", "");
    const std::string design = f.member_string("design", "");
    const std::string methodology = f.member_string("methodology", "typical");
    const std::string tech = f.member_string("tech", "asic025");
    auto m = core::methodology_by_name(methodology);
    auto t = tech::technology_by_name(tech);
    if (s->name.empty() || sessions_.count(s->name) != 0 || !m || !t)
      return {};
    s->meth = *m;

    const logic::Aig aig = tr.span(
        kDesignsAig, [&] { return designs::make_design(design, m->datapath); });
    tr.span(kLibraryBuild,
            [&] { s->flow = std::make_unique<core::Flow>(*t); });
    const core::FlowResult result = s->flow->run(aig, *m);
    if (!result.ok() || !result.nl) return {};
    s->nl = result.nl;
    s->timer = std::make_unique<sta::IncrementalTimer>(
        *s->nl, core::signoff_sta_options(*m), kLanes);
    s->timer->flush();
    if (!journal_dir_.empty()) {
      auto journal =
          serve::Journal::open(journal_dir_ + "/" + s->name + ".gapj");
      if (!journal.ok()) return {};
      s->journal = std::move(journal).value();
      const std::string header =
          "{\"gapd_journal\":1,\"session\":\"" + json::escape(s->name) +
          "\",\"design\":\"" + json::escape(design) +
          "\",\"methodology\":\"" + json::escape(methodology) +
          "\",\"tech\":\"" + json::escape(tech) + "\",\"corner\":null}";
      if (!s->journal.append(header).ok()) return {};
    }
    std::string result_json =
        "{\"session\":\"" + json::escape(s->name) + "\",\"design\":\"" +
        json::escape(design) + "\",\"methodology\":\"" +
        json::escape(methodology) + "\",\"tech\":\"" + json::escape(tech) +
        "\",\"corner\":null";
    result_json += ",\"freq_mhz\":" + json::number(result.freq_mhz);
    result_json += ",\"area_um2\":" + json::number(result.area_um2);
    result_json += ",\"instances\":" + std::to_string(s->nl->num_instances());
    result_json +=
        ",\"registers\":" + std::to_string(result.pipeline_registers);
    result_json += '}';
    const std::string name = s->name;
    sessions_[name] = std::move(s);
    return serve::ok_reply(req->id_json, result_json);
  });
}

std::string ReplayServer::edit(Session& s, const std::string& id_json,
                               const json::Value* edit_json, bool undo,
                               Tracer& tr) {
  sta::Edit e;
  if (undo) {
    if (s.undo.empty()) return {};
    e = s.undo.back();
  } else {
    if (edit_json == nullptr) return {};
    auto parsed = tr.span(
        kServeDecode, [&] { return serve::edit_from_json(*edit_json); });
    if (!parsed.ok()) return {};
    e = std::move(parsed).value();
  }
  const common::Status check_st =
      tr.span(kStaCheck, [&] { return s.timer->check(e); });
  if (!check_st.ok()) return {};
  if (s.journal.is_open()) {
    const std::string rec = "{\"seq\":" + std::to_string(s.seq + 1) +
                            ",\"edit\":" + serve::edit_to_json(e) +
                            (undo ? ",\"undo\":true}" : "}");
    const common::Status jst =
        tr.span(kJournalAppend, [&] { return s.journal.append(rec); });
    if (!jst.ok()) return {};
  }
  ++s.seq;
  common::Result<sta::Edit> inverse =
      tr.span(kStaApply, [&] { return s.timer->apply_undoable(e); });
  if (!inverse.ok()) return {};
  return tr.span(kServeEncode, [&] {
    std::string result = "{\"seq\":" + std::to_string(s.seq);
    if (undo) {
      s.undo.pop_back();
      result += ",\"edit\":" + serve::edit_to_json(e);
    } else {
      s.undo.push_back(inverse.value());
      result += ",\"undo\":" + serve::edit_to_json(inverse.value());
    }
    result += '}';
    return serve::ok_reply(id_json, result);
  });
}

std::string ReplayServer::handle(const std::string& line, Tracer& tr) {
  auto req = tr.span(kServeDecode, [&] {
    return serve::parse_request(line, kMaxFrameBytes);
  });
  if (!req.ok()) return {};
  const json::Value& f = req->frame;
  const auto it = sessions_.find(f.member_string("session", ""));
  if (it == sessions_.end()) return {};
  Session& s = *it->second;
  const std::string& cmd = req->cmd;
  const std::string& id = req->id_json;

  if (cmd == "edit" || cmd == "undo")
    return edit(s, id, f.find("edit"), cmd == "undo", tr);

  if (cmd == "timing") {
    const sta::TimingResult timing =
        tr.span(kStaRetime, [&] { return s.timer->timing(); });
    const std::string text = tr.span(kStaReport, [&] {
      return sta::critical_path_json(*s.nl, s.timer->options(), timing);
    });
    return tr.span(kServeEncode,
                   [&] { return serve::ok_reply(id, compact(text)); });
  }

  if (cmd == "slacks") {
    const int buckets = int_member(f, "buckets", 10);
    double period = f.member_number("period_tau", 0.0);
    if (period <= 0.0)
      period = tr.span(kStaRetime,
                       [&] { return s.timer->timing().min_period_tau; });
    const sta::SlackHistogramData hist = tr.span(kStaSlacks, [&] {
      return sta::slack_histogram_from_slacks(s.timer->slacks(period),
                                              buckets);
    });
    return tr.span(kServeEncode, [&] {
      return serve::ok_reply(
          id, "{\"period_tau\":" + json::number(period) + ",\"histogram\":" +
                  compact(sta::slack_histogram_json(hist)) + '}');
    });
  }

  if (cmd == "top_paths") {
    const int k = int_member(f, "k", 5);
    const std::vector<sta::CriticalPath> paths =
        tr.span(kStaTopPaths, [&] { return s.timer->top_paths(k); });
    return tr.span(kServeEncode, [&] {
      std::string result = "{\"paths\":[";
      for (std::size_t i = 0; i < paths.size(); ++i) {
        const sta::CriticalPath& p = paths[i];
        if (i != 0) result += ',';
        result += "{\"path_tau\":" + json::number(p.path_tau) +
                  ",\"endpoint_net\":" +
                  std::to_string(p.endpoint_net.value()) + ",\"nodes\":[";
        for (std::size_t j = 0; j < p.nodes.size(); ++j) {
          const sta::PathNode& n = p.nodes[j];
          if (j != 0) result += ',';
          result += "{\"inst\":" + std::to_string(n.inst.value()) +
                    ",\"name\":\"" +
                    json::escape(s.nl->instance(n.inst).name) +
                    "\",\"arrival_tau\":" + json::number(n.arrival_tau) + '}';
        }
        result += "]}";
      }
      result += "]}";
      return serve::ok_reply(id, result);
    });
  }

  if (cmd == "qor") {
    qor::SnapshotOptions opts;
    opts.sta = s.timer->options();
    opts.histogram_buckets = int_member(f, "buckets", 10);
    opts.continuous_sizing = s.meth.sizing == core::SizingLevel::kContinuous;
    const qor::QorSnapshot snap =
        tr.span(kQorCapture, [&] { return qor::capture(*s.timer, opts); });
    return tr.span(kServeEncode, [&] {
      std::string result =
          "{\"worst_path_tau\":" + json::number(snap.worst_path_tau) +
          ",\"min_period_tau\":" + json::number(snap.min_period_tau) +
          ",\"min_period_ps\":" + json::number(snap.min_period_ps) +
          ",\"min_period_fo4\":" + json::number(snap.min_period_fo4) +
          ",\"critical_path_fo4\":" + json::number(snap.critical_path_fo4) +
          ",\"critical_path_gates\":" +
          std::to_string(snap.critical_path_gates) +
          ",\"endpoints\":" + std::to_string(snap.endpoints) +
          ",\"area_um2\":" + json::number(snap.area_um2) +
          ",\"total_wirelength_um\":" +
          json::number(snap.total_wirelength_um) +
          ",\"critical_wirelength_um\":" +
          json::number(snap.critical_wirelength_um) +
          ",\"sizing_headroom_tau\":" +
          json::number(snap.sizing_headroom_tau) + ",\"slack_histogram\":" +
          compact(sta::slack_histogram_json(snap.slack_histogram)) + '}';
      return serve::ok_reply(id, result);
    });
  }

  if (cmd == "lint") {
    const std::string mode = f.member_string("mode", "scan");
    const bool dataflow = mode == "dataflow";
    if (!dataflow && mode != "scan") return {};
    if (dataflow) {
      if (s.dataflow == nullptr)
        s.dataflow = std::make_unique<lint::DataflowEngine>();
      const common::Status st = tr.span(kLintDataflow, [&] {
        return s.dataflow->refresh(*s.nl, {}, kLanes);
      });
      if (!st.ok()) return {};
    }
    const double period =
        tr.span(kStaRetime, [&] { return s.timer->timing().min_period_tau; });
    const std::string text =
        tr.span(dataflow ? kLintDataflow : kLintScan, [&] {
          const lint::RuleRegistry registry = lint::default_registry();
          lint::LintConfig config;
          if (!dataflow) {
            for (std::size_t i = 0; i < registry.size(); ++i) {
              const lint::RuleInfo& info = registry.rule(i).info();
              if (info.category == lint::Category::kDomain ||
                  info.category == lint::Category::kDataflow)
                config.rule_levels.emplace_back(
                    info.id, lint::SeverityOverride::kOff);
            }
          }
          lint::LintContext ctx;
          ctx.nl = s.nl.get();
          ctx.limits = tech::default_electrical_limits();
          ctx.constraints.period_tau = period;
          ctx.constraints.skew_fraction =
              s.timer->options().clock.skew_fraction;
          if (dataflow && s.dataflow->valid()) ctx.dataflow = s.dataflow.get();
          const lint::LintReport report =
              lint::run_lint(registry, ctx, config, kLanes);
          return lint::write_json(registry, report, s.name);
        });
    return tr.span(kServeEncode,
                   [&] { return serve::ok_reply(id, compact(text)); });
  }
  return {};
}

}  // namespace e2ebench
