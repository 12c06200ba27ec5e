// serve_eco and serve_query: one in-process serve::Server driven through
// Server::handle_line by a single closed-loop client (each request is
// sent when the previous reply is back).
//
//  - serve_eco: one journaled cpu32 (typical) session. Each operation is
//    one what-if ECO step: a seeded set_drive or same-function
//    replace_cell edit, `timing`, `undo`. Every pass ends at the loaded
//    state.
//  - serve_query: three resident sessions (cpu32, mac16, fir8),
//    read-only: a seeded order of timing / slacks / top_paths / qor /
//    lint (scan and dataflow) requests.
//
// Both run the server's engines on one lane (README.md says why).

#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "core/flow.hpp"
#include "core/methodology.hpp"
#include "designs/registry.hpp"
#include "harness.hpp"
#include "replay.hpp"
#include "serve/server.hpp"
#include "sta/sta.hpp"

namespace e2ebench {
namespace {

using namespace gap;
namespace json = common::json;
namespace fs = std::filesystem;

struct Timed {
  std::string reply;
  double seconds;
};

Timed timed(serve::Server& server, const std::string& line) {
  const auto t0 = Clock::now();
  std::string reply = server.handle_line(line);
  return {std::move(reply), seconds_between(t0, Clock::now())};
}

/// A replayed request whose layer times are not wanted.
std::string replay_untimed(ReplayServer& replica, const std::string& line) {
  Tracer tracer(/*keep_passes=*/0);
  tracer.begin_op(0);
  std::string reply = replica.handle(line, tracer);
  LayerBreakdown ignored;
  (void)tracer.end_op(ignored);
  return reply;
}

/// Whether `reply` is a success reply (serve::ok_reply's fixed prefix).
[[nodiscard]] bool reply_ok(const std::string& reply) {
  const std::size_t id_end = reply.find(",\"ok\":");
  return reply.rfind("{\"serve\":\"gap-serve-v1\",\"id\":", 0) == 0 &&
         id_end != std::string::npos &&
         reply.compare(id_end, 10, ",\"ok\":true") == 0;
}

/// The `result` member of an ok reply (a null value otherwise).
[[nodiscard]] json::Value result_of(const std::string& reply) {
  auto v = json::Value::parse_checked(reply);
  if (!v.ok()) return {};
  const json::Value* r = v->find("result");
  return r != nullptr ? *r : json::Value{};
}

/// A `timing` reply against a from-scratch sta::analyze of `nl`: the
/// period, frequency, endpoint count, and every critical-path stage's
/// instance, cell, drive and load.
[[nodiscard]] bool timing_matches(const std::string& reply,
                                  const netlist::Netlist& nl,
                                  const sta::StaOptions& opts) {
  const json::Value r = result_of(reply);
  const sta::TimingResult t = sta::analyze(nl, opts);
  const json::Value* path = r.find("path");
  if (path == nullptr || path->array.size() != t.critical_path.size())
    return false;
  if (r.member_number("min_period_ps", -1) != t.min_period_ps ||
      r.member_number("min_period_fo4", -1) != t.min_period_fo4 ||
      r.member_number("frequency_mhz", -1) != t.frequency_mhz() ||
      r.member_number("endpoints", -1) !=
          static_cast<double>(t.num_endpoints))
    return false;
  for (std::size_t i = 0; i < t.critical_path.size(); ++i) {
    const InstanceId id = t.critical_path[i];
    const json::Value& stage = path->array[i];
    if (stage.member_string("instance", "") != nl.instance(id).name ||
        stage.member_string("cell", "") != nl.cell_of(id).name ||
        stage.member_number("drive", -1) != nl.drive_of(id) ||
        stage.member_number("load", -1) !=
            nl.net_load(nl.instance(id).output))
      return false;
  }
  return true;
}

/// An independent implementation of `design` under `m`, outside any
/// server: the reference the serve workloads check their replies against.
struct Reference {
  std::unique_ptr<core::Flow> flow;  ///< owns the libraries nl points into
  core::FlowResult result;

  Reference(const std::string& design, const core::Methodology& m)
      : flow(std::make_unique<core::Flow>(tech::asic_025um())),
        result(flow->run(designs::make_design(design, m.datapath), m)) {}
};

void check_load_reply(Checks& checks, const std::string& reply,
                      const Reference& ref, const std::string& what) {
  const json::Value r = result_of(reply);
  checks.expect(reply_ok(reply) && ref.result.ok() && ref.result.nl,
                what + ": load failed");
  if (!ref.result.nl) return;
  checks.expect(
      r.member_number("freq_mhz", -1) == ref.result.freq_mhz &&
          r.member_number("area_um2", -1) == ref.result.area_um2 &&
          r.member_number("instances", -1) ==
              static_cast<double>(ref.result.nl->num_instances()) &&
          r.member_number("registers", -1) ==
              static_cast<double>(ref.result.pipeline_registers),
      what + ": load reply disagrees with an outside core::Flow run");
}

std::string request(int id, const std::string& cmd, const std::string& session,
                    const std::string& extra = "") {
  return "{\"id\":" + std::to_string(id) + ",\"cmd\":\"" + cmd +
         "\",\"session\":\"" + session + "\"" + extra + "}";
}

/// Replace the digits after the first "seq": with '#', returning them.
std::string strip_seq(std::string reply, std::uint64_t* seq) {
  const std::string key = "\"seq\":";
  const std::size_t at = reply.find(key);
  if (at == std::string::npos) {
    *seq = 0;
    return reply;
  }
  std::size_t end = at + key.size();
  while (end < reply.size() && reply[end] >= '0' && reply[end] <= '9') ++end;
  *seq = std::stoull(reply.substr(at + key.size(), end - at - key.size()));
  return reply.substr(0, at + key.size()) + "#" + reply.substr(end);
}

/// Shared plumbing: the server, its replay twin, and set-up bookkeeping.
class ServeWorkload : public Workload {
 protected:
  explicit ServeWorkload(RunContext& ctx, std::string name, bool journal)
      : ctx_(ctx), dir_(ctx.work_dir + "/" + name), journal_(journal) {}

  ~ServeWorkload() override {
    replica_.reset();
    server_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Fresh Server (and in a traced run a fresh replay twin), then `loads`.
  SetupTiming start(bool traced, const std::vector<std::string>& loads,
                    const std::vector<std::string>& warmups) {
    replica_.reset();
    server_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_ + "/server", ec);
    fs::create_directories(dir_ + "/replay", ec);

    SetupTiming t;
    load_replies_.clear();
    const auto t0 = Clock::now();
    serve::ServerOptions opts;
    opts.threads = 1;
    if (journal_) opts.journal_dir = dir_ + "/server";
    server_ = std::make_unique<serve::Server>(opts);
    for (const std::string& line : loads)
      load_replies_.push_back(server_->handle_line(line));
    for (const std::string& line : warmups)
      setup_ok_ = reply_ok(server_->handle_line(line)) && setup_ok_;
    t.seconds = seconds_between(t0, Clock::now());

    if (traced) {
      Tracer tr;
      replica_ = std::make_unique<ReplayServer>(
          journal_ ? dir_ + "/replay" : std::string());
      tr.begin_op(0);
      for (std::size_t i = 0; i < loads.size(); ++i)
        setup_ok_ = replica_->load(loads[i], tr) == load_replies_[i] &&
                    setup_ok_;
      (void)tr.end_op(t.layers);
      for (const std::string& line : warmups)
        setup_ok_ = !replay_untimed(*replica_, line).empty() && setup_ok_;
    }
    return t;
  }

  [[nodiscard]] std::vector<double> load_figure(const char* key) const {
    std::vector<double> v;
    for (const std::string& r : load_replies_)
      v.push_back(result_of(r).member_number(key, 0.0));
    return v;
  }

 public:
  [[nodiscard]] std::vector<double> fmax_mhz() const override {
    return load_figure("freq_mhz");
  }
  [[nodiscard]] std::vector<double> area_um2() const override {
    return load_figure("area_um2");
  }

 protected:
  RunContext& ctx_;
  std::string dir_;
  bool journal_;
  bool setup_ok_ = true;
  std::unique_ptr<serve::Server> server_;
  std::unique_ptr<ReplayServer> replica_;
  std::vector<std::string> load_replies_;
};

// --- serve_eco -------------------------------------------------------------

class ServeEco final : public ServeWorkload {
 public:
  static constexpr std::size_t kOps = 128;
  static constexpr std::uint64_t kJournalCap = 100000;  // ServerOptions

  /// The edits are chosen on an outside implementation of the design,
  /// which is dropped before the first set-up.
  explicit ServeEco(RunContext& ctx)
      : ServeWorkload(ctx, "serve_eco", /*journal=*/true),
        opts_(core::signoff_sta_options(meth_)) {
    const Reference ref(kDesign, meth_);
    if (ref.result.nl) make_edits(*ref.result.nl);
  }

  SetupTiming setup(bool traced) override {
    passes_on_server_ = 0;
    return start(traced, {load_line()}, {});
  }

  void check_setup() override {
    ctx_.checks.expect(setup_ok_ && edits_.size() == kOps,
                       "serve_eco: set-up failed");
    loaded_timing_ = server_->handle_line(timing_line(0));
    if (replica_)
      ctx_.checks.expect(
          replay_untimed(*replica_, timing_line(0)) == loaded_timing_,
          "serve_eco: replay timing differs after load");
  }

  void check_references() override {
    Reference ref(kDesign, meth_);
    check_load_reply(ctx_.checks, load_replies_[0], ref, "serve_eco");
    if (!ref.result.nl) return;
    ctx_.checks.expect(timing_matches(loaded_timing_, *ref.result.nl, opts_),
                       "serve_eco: loaded timing differs from sta::analyze");
    check_against_mirror(*ref.result.nl);
  }

  [[nodiscard]] std::size_t ops() const override { return edits_.size(); }

  [[nodiscard]] int max_passes() const override {
    // Every edit and undo is one journal record; stay under the cap so no
    // edit is ever refused.
    return static_cast<int>((kJournalCap - 1) / (2 * kOps));
  }

  [[nodiscard]] std::size_t requests_per_op() const override { return 3; }

  std::size_t pass(int, std::vector<double>& req_s,
                   Samples& samples) override {
    std::size_t failed = 0;
    seq_base_ = static_cast<std::uint64_t>(passes_on_server_++) * 2 * kOps;
    replies_.assign(3 * edits_.size(), {});
    for (std::size_t i = 0; i < edits_.size(); ++i) {
      const std::string* lines[3] = {&edits_[i], &timings_[i], &undos_[i]};
      static const char* const kTypes[3] = {"edit", "timing", "undo"};
      bool ok = true;
      for (int k = 0; k < 3; ++k) {
        Timed r = timed(*server_, *lines[k]);
        req_s[3 * i + k] = r.seconds;
        samples[kTypes[k]].add(r.seconds);
        ok = reply_ok(r.reply) && ok;
        replies_[3 * i + k] = std::move(r.reply);
      }
      if (!ok) ++failed;
    }
    end_timing_ = server_->handle_line(timing_line(0));
    return failed;
  }

  void check_pass(int index) override {
    ctx_.checks.expect(end_timing_ == loaded_timing_,
                       "serve_eco: pass " + std::to_string(index) +
                           " did not end at the loaded state");
    std::uint64_t first_seq = 0;
    for (std::size_t i = 0; i < edits_.size(); ++i) {
      std::uint64_t seq_edit = 0, seq_undo = 0;
      const std::string edit = strip_seq(replies_[3 * i], &seq_edit);
      const std::string undo = strip_seq(replies_[3 * i + 2], &seq_undo);
      ctx_.checks.expect(seq_edit == seq_base_ + 2 * i + 1 &&
                             seq_undo == seq_base_ + 2 * i + 2,
                         "serve_eco: edit sequence numbers out of order");
      if (index == 0) continue;
      ctx_.checks.expect(edit == strip_seq(first_[3 * i], &first_seq) &&
                             replies_[3 * i + 1] == first_[3 * i + 1] &&
                             undo == strip_seq(first_[3 * i + 2], &first_seq),
                         "serve_eco: op " + std::to_string(i) +
                             " replied differently than in pass 0");
    }
    // The pass-0 replies are checked against the mirror netlist in
    // check_references.
    if (index == 0) first_ = replies_;
  }

  std::size_t traced_pass(int index, Tracer& tr, std::vector<double>& op_s,
                          std::vector<LayerBreakdown>& op_layers) override {
    std::size_t failed = 0;
    const std::uint64_t bytes0 = replica_->journal_bytes();
    for (std::size_t i = 0; i < edits_.size(); ++i) {
      tr.begin_op(index);
      const std::string e = replica_->handle(edits_[i], tr);
      std::string t = replica_->handle(timings_[i], tr);
      const std::string u = replica_->handle(undos_[i], tr);
      if (index == 1 && i == 0 && ctx_.faults.is("eco-replay-reply"))
        t += ' ';
      op_s[i] = tr.end_op(op_layers[i]);
      if (e.empty() || t.empty() || u.empty()) ++failed;
      ctx_.checks.expect(e == replies_[3 * i] && t == replies_[3 * i + 1] &&
                             u == replies_[3 * i + 2],
                         "serve_eco: replayed op " + std::to_string(i) +
                             " differs from handle_line");
    }
    if (index == 0) journal_bytes_ = replica_->journal_bytes() - bytes0;
    ctx_.checks.expect(
        replay_untimed(*replica_, timing_line(0)) == end_timing_,
        "serve_eco: replay did not end at the loaded state");
    return failed;
  }

  [[nodiscard]] std::vector<std::string> work_counters() const override {
    return {"sta.incremental.edits_applied",
            "sta.incremental.nodes_repropagated",
            "sta.incremental.flushes",
            "sta.wave.levels_touched",
            "sta.arrival_passes",
            "wall.pool.items_dispatched"};
  }

  [[nodiscard]] std::map<std::string, double> extra_layer_counts()
      const override {
    return {{"serve.journal_bytes", static_cast<double>(journal_bytes_)}};
  }

 private:
  static constexpr const char* kDesign = "cpu32";

  static std::string load_line() {
    return "{\"id\":0,\"cmd\":\"load\",\"session\":\"eco\",\"design\":\"" +
           std::string(kDesign) + "\",\"methodology\":\"typical\"}";
  }
  static std::string timing_line(int id) {
    return request(id, "timing", "eco");
  }

  struct EcoEdit {
    InstanceId inst;
    bool resize;        ///< set_drive; otherwise replace_cell
    double drive = 0.0;
    CellId cell;
  };

  /// Seeded edits over the loaded netlist: even operations touch its
  /// critical path (they always move timing), odd ones any gate.
  void make_edits(const netlist::Netlist& nl) {
    Rng rng(ctx_.seed);
    const library::CellLibrary& lib = nl.lib();
    std::vector<InstanceId> gates, critical;
    for (InstanceId id : nl.all_instances())
      if (!nl.is_sequential(id)) gates.push_back(id);
    for (InstanceId id : sta::analyze(nl, opts_).critical_path)
      if (!nl.is_sequential(id)) critical.push_back(id);
    if (critical.empty()) critical = gates;
    for (std::size_t i = 0; i < kOps; ++i) {
      const std::vector<InstanceId>& pool = i % 2 == 0 ? critical : gates;
      EcoEdit e;
      e.inst = pool[rng.below(pool.size())];
      const library::Cell& cur = nl.cell_of(e.inst);
      std::vector<CellId> alts;
      for (std::size_t c = 0; c < lib.size(); ++c) {
        const CellId id(static_cast<std::uint32_t>(c));
        const library::Cell& cell = lib.cell(id);
        if (id != nl.instance(e.inst).cell && cell.func == cur.func &&
            cell.family == cur.family && cell.num_inputs() == cur.num_inputs())
          alts.push_back(id);
      }
      e.resize = alts.empty() || rng.below(2) == 0;
      if (e.resize) {
        // Drives 0.5 .. 8 in halves, never the gate's present drive.
        do {
          e.drive = 0.5 * static_cast<double>(1 + rng.below(16));
        } while (e.drive == nl.drive_of(e.inst));
      } else {
        e.cell = alts[rng.below(alts.size())];
      }
      eco_.push_back(e);
      const int id = static_cast<int>(3 * i + 1);
      const std::string payload =
          e.resize ? "{\"op\":\"set_drive\",\"inst\":" +
                         std::to_string(e.inst.value()) +
                         ",\"drive\":" + json::number(e.drive) + "}"
                   : "{\"op\":\"replace_cell\",\"inst\":" +
                         std::to_string(e.inst.value()) + ",\"cell\":\"" +
                         lib.cell(e.cell).name + "\"}";
      edits_.push_back(request(id, "edit", "eco", ",\"edit\":" + payload));
      timings_.push_back(timing_line(id + 1));
      undos_.push_back(request(id + 2, "undo", "eco"));
    }
  }

  /// Re-apply each edit to the benchmark's own netlist copy and compare
  /// the server's pass-0 replies with a from-scratch analysis of it.
  void check_against_mirror(netlist::Netlist& nl) {
    bool skipped = false;
    for (std::size_t i = 0; i < edits_.size(); ++i) {
      const EcoEdit& e = eco_[i];
      netlist::Instance& inst = nl.instance(e.inst);
      const double old_drive = inst.drive_override;
      const CellId old_cell = inst.cell;
      // The inverse the server must report, in its own wire form.
      const bool wrong = i == 0 && ctx_.faults.is("eco-undo-inverse");
      const std::string inverse =
          e.resize ? "{\"op\":\"set_drive\",\"inst\":" +
                         std::to_string(e.inst.value()) + ",\"drive\":" +
                         json::number(wrong ? e.drive : old_drive) + "}"
                   : "{\"op\":\"replace_cell\",\"inst\":" +
                         std::to_string(e.inst.value()) + ",\"cell_id\":" +
                         std::to_string((wrong ? e.cell : old_cell).value()) +
                         "}";
      const bool skip = ctx_.faults.is("mirror-skip-edit") && !skipped;
      skipped = skipped || skip;
      if (!skip) {
        if (e.resize)
          inst.drive_override = e.drive;
        else
          nl.replace_cell(e.inst, e.cell);
      }
      ctx_.checks.expect(timing_matches(first_[3 * i + 1], nl, opts_),
                         "serve_eco: timing after edit " + std::to_string(i) +
                             " differs from sta::analyze of the mirror");
      const json::Value undo = result_of(first_[3 * i]);
      const json::Value redo = result_of(first_[3 * i + 2]);
      ctx_.checks.expect(
          undo.find("undo") != nullptr &&
              undo.find("undo")->dump() == inverse &&
              redo.find("edit") != nullptr &&
              redo.find("edit")->dump() == inverse,
          "serve_eco: edit " + std::to_string(i) +
              " does not undo to the pre-edit state");
      if (!skip) {
        if (e.resize)
          inst.drive_override = old_drive;
        else
          nl.replace_cell(e.inst, old_cell);
      }
    }
    ctx_.checks.expect(timing_matches(loaded_timing_, nl, opts_),
                       "serve_eco: mirror did not return to the loaded state");
  }

  const core::Methodology meth_ = core::typical_asic();
  const sta::StaOptions opts_;
  std::string loaded_timing_, end_timing_;
  int passes_on_server_ = 0;    ///< passes since the last set-up
  std::uint64_t seq_base_ = 0;  ///< journal sequence number before the pass
  std::vector<EcoEdit> eco_;
  std::vector<std::string> edits_, timings_, undos_;
  std::vector<std::string> replies_, first_;
  std::uint64_t journal_bytes_ = 0;
};

// --- serve_query -----------------------------------------------------------

class ServeQuery final : public ServeWorkload {
 public:
  explicit ServeQuery(RunContext& ctx)
      : ServeWorkload(ctx, "serve_query", /*journal=*/false) {
    // Fixed make-up, seeded order: every seed sends the same requests.
    struct Line {
      std::string type, session, extra;
    };
    std::vector<Line> mix;
    for (const auto& [session, design] : sessions_) {
      (void)design;
      for (int n : {1, 3, 5, 8}) {
        const std::string b = std::to_string(4 * (n + 1));
        mix.push_back({"timing", session, ""});
        mix.push_back({"slacks", session, ",\"buckets\":" + b});
        mix.push_back({"top_paths", session, ",\"k\":" + std::to_string(n)});
        mix.push_back({"qor", session, ",\"buckets\":" + b});
        mix.push_back({"lint.scan", session, ",\"mode\":\"scan\""});
        mix.push_back({"lint.dataflow", session, ",\"mode\":\"dataflow\""});
      }
    }
    Rng rng(ctx.seed);
    rng.shuffle(mix);
    for (std::size_t i = 0; i < mix.size(); ++i) {
      const std::string cmd = mix[i].type.rfind("lint", 0) == 0
                                  ? std::string("lint")
                                  : mix[i].type;
      types_.push_back(mix[i].type);
      sessions_of_.push_back(mix[i].session);
      lines_.push_back(request(static_cast<int>(i + 1), cmd, mix[i].session,
                               mix[i].extra));
    }
  }

  SetupTiming setup(bool traced) override {
    std::vector<std::string> loads, warmups;
    for (const auto& [session, design] : sessions_) {
      loads.push_back("{\"id\":0,\"cmd\":\"load\",\"session\":\"" + session +
                      "\",\"design\":\"" + design + "\"}");
      // The dataflow lattice is built lazily by the first dataflow lint;
      // build it here so every pass does the same work.
      warmups.push_back(request(0, "lint", session, ",\"mode\":\"dataflow\""));
    }
    return start(traced, loads, warmups);
  }

  void check_setup() override {
    ctx_.checks.expect(setup_ok_, "serve_query: set-up failed");
  }

  /// The load replies, and each session's first timing and qor replies
  /// of pass 0, against outside flows built one at a time.
  void check_references() override {
    const core::Methodology m = core::typical_asic();
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      const auto& [session, design] = sessions_[i];
      const std::string what = "serve_query " + session + " (" + design + ")";
      const Reference ref(
          ctx_.faults.is("query-outside-flow") && design == "mac16" ? "mac8"
                                                                    : design,
          m);
      check_load_reply(ctx_.checks, load_replies_[i], ref, what);
      if (!ref.result.nl) continue;
      const netlist::Netlist& nl = *ref.result.nl;
      const sta::StaOptions opts = core::signoff_sta_options(m);
      ctx_.checks.expect(
          timing_matches(first_reply("timing", session), nl, opts),
          what + ": timing differs from sta::analyze of an outside flow");
      const json::Value q = result_of(first_reply("qor", session));
      ctx_.checks.expect(
          q.member_number("min_period_ps", -1) ==
                  sta::analyze(nl, opts).min_period_ps &&
              q.member_number("area_um2", -1) == ref.result.area_um2,
          what + ": qor differs from an outside flow");
    }
  }

  [[nodiscard]] std::size_t ops() const override { return lines_.size(); }

  std::size_t pass(int index, std::vector<double>& op_s,
                   Samples& samples) override {
    std::size_t failed = 0;
    replies_.assign(lines_.size(), {});
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      Timed r = timed(*server_, lines_[i]);
      op_s[i] = r.seconds;
      samples[types_[i]].add(r.seconds);
      if (!reply_ok(r.reply)) ++failed;
      replies_[i] = std::move(r.reply);
    }
    if (index == 1 && ctx_.faults.is("query-pass-reply")) replies_[0] += ' ';
    return failed;
  }

  void check_pass(int index) override {
    if (index == 0) {
      first_ = replies_;
      return;
    }
    for (std::size_t i = 0; i < lines_.size(); ++i)
      ctx_.checks.expect(replies_[i] == first_[i],
                         "serve_query: request " + std::to_string(i) +
                             " replied differently than in pass 0");
  }

  std::size_t traced_pass(int index, Tracer& tr, std::vector<double>& op_s,
                          std::vector<LayerBreakdown>& op_layers) override {
    std::size_t failed = 0;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      tr.begin_op(index);
      const std::string r = replica_->handle(lines_[i], tr);
      op_s[i] = tr.end_op(op_layers[i]);
      if (r.empty()) ++failed;
      ctx_.checks.expect(r == replies_[i],
                         "serve_query: replayed request " + std::to_string(i) +
                             " differs from handle_line");
    }
    return failed;
  }

  [[nodiscard]] std::vector<std::string> work_counters() const override {
    return {"sta.incremental.edits_applied",
            "sta.incremental.nodes_repropagated",
            "sta.incremental.flushes",
            "sta.wave.levels_touched",
            "sta.arrival_passes",
            "lint.dataflow.evals",
            "lint.dataflow.reuses",
            "wall.pool.items_dispatched"};
  }

 private:
  /// Pass 0's reply to the first request of `type` on `session`.
  [[nodiscard]] std::string first_reply(const std::string& type,
                                        const std::string& session) const {
    for (std::size_t i = 0; i < lines_.size(); ++i)
      if (types_[i] == type && sessions_of_[i] == session) return first_[i];
    return {};
  }

  const std::vector<std::pair<std::string, std::string>> sessions_ = {
      {"q1", "cpu32"}, {"q2", "mac16"}, {"q3", "fir8"}};
  std::vector<std::string> types_, sessions_of_, lines_, replies_, first_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_eco(RunContext& ctx) {
  return std::make_unique<ServeEco>(ctx);
}

std::unique_ptr<Workload> make_serve_query(RunContext& ctx) {
  return std::make_unique<ServeQuery>(ctx);
}

}  // namespace e2ebench
