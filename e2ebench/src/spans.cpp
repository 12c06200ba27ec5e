#include "spans.hpp"

#include <cstdio>
#include <stdexcept>

namespace e2ebench {

const LayerInfo& layer_info(Layer l) {
  static const LayerInfo kInfo[kNumLayers] = {
      {"synth.map_ms", 1e3, "ms"},
      {"pipeline.insert_ms", 1e3, "ms"},
      {"netlist.verify_ms", 1e3, "ms"},
      {"place.place_ms", 1e3, "ms"},
      {"route.route_ms", 1e3, "ms"},
      {"sizing.size_ms", 1e3, "ms"},
      {"sta.signoff_ms", 1e3, "ms"},
      {"library.build_ms", 1e3, "ms"},
      {"designs.aig_ms", 1e3, "ms"},
      {"serve.load_ms", 1e3, "ms"},
      {"serve.decode_us", 1e6, "us"},
      {"sta.check_us", 1e6, "us"},
      {"sta.apply_us", 1e6, "us"},
      {"serve.encode_us", 1e6, "us"},
      {"serve.journal_append_us", 1e6, "us"},
      {"sta.retime_us", 1e6, "us"},
      {"sta.report_us", 1e6, "us"},
      {"sta.top_paths_us", 1e6, "us"},
      {"sta.slacks_us", 1e6, "us"},
      {"qor.capture_us", 1e6, "us"},
      {"lint.scan_us", 1e6, "us"},
      {"lint.dataflow_us", 1e6, "us"},
      {"other_ms", 1e3, "ms"},
  };
  return kInfo[l];
}

void Tracer::begin_op(int pass) {
  if (!stack_.empty()) throw std::logic_error("Tracer: operation still open");
  pass_ = pass;
  ++next_op_id_;
  spans_.clear();
  op_child_s_ = 0.0;
  op_start_ = Clock::now();
}

int Tracer::open(Layer layer) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({layer, parent, Clock::now(), {}, 0.0});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int index) {
  Open& s = spans_[static_cast<std::size_t>(index)];
  s.end = Clock::now();
  const double d = seconds_between(s.start, s.end);
  if (s.parent < 0)
    op_child_s_ += d;
  else
    spans_[static_cast<std::size_t>(s.parent)].child_s += d;
  stack_.pop_back();
}

double Tracer::end_op(LayerBreakdown& out) {
  if (!stack_.empty()) throw std::logic_error("Tracer: span still open");
  const Clock::time_point op_end = Clock::now();
  const double total = seconds_between(op_start_, op_end);
  out = LayerBreakdown{};
  for (const Open& s : spans_)
    out.self_s[s.layer] += seconds_between(s.start, s.end) - s.child_s;
  out.self_s[kOther] += total - op_child_s_;
  if (pass_ < keep_passes_) {
    const auto us = [&](Clock::time_point t) {
      return seconds_between(epoch_, t) * 1e6;
    };
    kept_.push_back({next_op_id_, pass_, -1, kNumLayers, us(op_start_),
                     us(op_end)});
    for (const Open& s : spans_)
      kept_.push_back(
          {next_op_id_, pass_, s.parent, s.layer, us(s.start), us(s.end)});
  }
  return total;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : kept_) {
    const char* name =
        s.layer == kNumLayers ? "op" : layer_info(s.layer).metric;
    std::fprintf(f,
                 "{\"op\":%llu,\"pass\":%d,\"parent\":%d,\"span\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 static_cast<unsigned long long>(s.op_id), s.pass, s.parent,
                 name, s.start_us, s.end_us);
  }
  return std::fclose(f) == 0;
}

}  // namespace e2ebench
