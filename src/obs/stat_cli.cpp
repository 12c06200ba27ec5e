#include "obs/stat_cli.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "obs/expose.hpp"

namespace gap::obs {

namespace json = gap::common::json;

namespace {

constexpr const char* kUsage =
    "usage: gapstat show FILE            [--format text|csv|json]\n"
    "       gapstat diff OLD NEW         [--format text|csv|json] [--strict]\n"
    "       gapstat agg FILE [FILE...]   [--format text|csv|json]\n"
    "\n"
    "Load, diff, and aggregate gap run artifacts: Prometheus\n"
    "exposition text (gapflow --metrics-out, gapd --expose-out),\n"
    "gap-flight-v1 flight-recorder dumps, and QoR run manifests\n"
    "(gapflow --qor-out). The format of each input is sniffed, so\n"
    "mixed diffs work. diff --strict exits 1 on any difference.\n"
    "See docs/observability.md.\n";

/// How a value combines under `agg` (and renders in `show`).
enum class StatKind { kCounter, kGauge, kMin };

struct StatValue {
  StatKind kind = StatKind::kCounter;
  double value = 0.0;
};

using StatMap = std::map<std::string, StatValue>;

int usage_error(std::ostream& err, const std::string& message) {
  err << "gapstat: error: " << message << '\n' << kUsage;
  return kStatExitUsage;
}

// --- loaders -------------------------------------------------------------

void put(StatMap& m, const std::string& name, StatKind kind, double v) {
  m[name] = StatValue{kind, v};
}

/// Flatten one JSON value of a QoR manifest under `path`: numbers are
/// values, booleans 0/1, strings and nulls carry no value. Array
/// elements that are objects with a "name" member are keyed by that
/// name, all others by index. Two spellings keep manifest paths short:
/// the "stages" array is keyed "stage", and a stage's "qor" snapshot
/// adds no segment (stage.signoff.min_period_tau).
void flatten(const json::Value& v, const std::string& path, StatMap& m) {
  const auto child = [&](const std::string& key) {
    return path.empty() ? key : path + '.' + key;
  };
  switch (v.kind) {
    case json::Value::Kind::kNumber:
      put(m, path, StatKind::kGauge, v.num);
      break;
    case json::Value::Kind::kBool:
      put(m, path, StatKind::kGauge, v.boolean ? 1.0 : 0.0);
      break;
    case json::Value::Kind::kArray:
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        const json::Value* name = v.array[i].find("name");
        flatten(v.array[i],
                child(name != nullptr && name->is_string() ? name->str
                                                          : std::to_string(i)),
                m);
      }
      break;
    case json::Value::Kind::kObject:
      for (const auto& [key, member] : v.object) {
        if (key == "qor") flatten(member, path, m);
        else flatten(member, child(key == "stages" ? "stage" : key), m);
      }
      break;
    default:
      break;
  }
}

/// gap-flight-v1 dump: per-kind event tallies plus the ring accounting.
bool load_flight_json(const json::Value& doc, StatMap& m) {
  const json::Value* events = doc.find("events");
  if (events == nullptr || !events->is_array()) return false;
  put(m, "flight.total", StatKind::kCounter, doc.member_number("total", 0));
  put(m, "flight.dropped", StatKind::kCounter,
      doc.member_number("dropped", 0));
  put(m, "flight.capacity", StatKind::kGauge,
      doc.member_number("capacity", 0));
  std::map<std::string, double> kinds;
  for (const json::Value& ev : events->array)
    kinds[ev.member_string("kind", "unknown")] += 1.0;
  for (const auto& [kind, n] : kinds)
    put(m, "flight.events." + kind, StatKind::kCounter, n);
  return true;
}

/// Prometheus exposition text (expose.hpp). `# TYPE` comments carry the
/// metric kind; histogram series map their plain (label-free) lines.
bool load_exposition(const std::string& text, StatMap& m) {
  std::map<std::string, std::string> type_of;  // prometheus name -> kind
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream ls(line);
      std::string hash, word, name, kind;
      if (ls >> hash >> word >> name >> kind && word == "TYPE")
        type_of[name] = kind;
      continue;
    }
    if (line.find('{') != std::string::npos) continue;  // labeled series
    std::istringstream ls(line);
    std::string name;
    double value = 0.0;
    if (!(ls >> name >> value)) return false;
    StatKind kind = StatKind::kGauge;
    if (type_of.count(name) != 0) {
      kind = type_of[name] == "counter" ? StatKind::kCounter
                                        : StatKind::kGauge;
    } else {
      // A histogram's scalar series: <base>_count etc., typed via base.
      const auto ends_with = [&](const char* suffix) {
        const std::string s = suffix;
        return name.size() > s.size() &&
               name.compare(name.size() - s.size(), s.size(), s) == 0;
      };
      if (ends_with("_count") || ends_with("_clamped"))
        kind = StatKind::kCounter;
      else if (ends_with("_min"))
        kind = StatKind::kMin;
    }
    put(m, name, kind, value);
  }
  return true;
}

/// Read and sniff one file. Returns an exit code; 0 on success.
int load_file(const std::string& path, StatMap& m, std::ostream& err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    err << "gapstat: error[io]: cannot read '" << path << "'\n";
    return kStatExitIo;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  const std::size_t first = text.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) {
    err << "gapstat: error[parse]: '" << path << "' is empty\n";
    return kStatExitParse;
  }
  bool ok = false;
  if (text[first] == '#') {
    ok = load_exposition(text, m);
  } else if (text[first] == '{') {
    auto doc = json::Value::parse_checked(text);
    if (!doc.ok()) {
      err << "gapstat: error[parse]: '" << path
          << "': " << doc.status().message() << '\n';
      return kStatExitParse;
    }
    if (doc->member_string("flight", "") == "gap-flight-v1") {
      ok = load_flight_json(*doc, m);
    } else if (doc->member_string("tool", "") == "gapflow") {
      flatten(*doc, "", m);
      ok = true;
    }
  }
  if (!ok) {
    err << "gapstat: error[parse]: '" << path
        << "' is not an exposition, flight, or QoR manifest file\n";
    return kStatExitParse;
  }
  return kStatExitOk;
}

// --- rendering -----------------------------------------------------------

enum class Format { kText, kCsv, kJson };

bool parse_format(const std::string& text, Format* out) {
  if (text == "text") *out = Format::kText;
  else if (text == "csv") *out = Format::kCsv;
  else if (text == "json") *out = Format::kJson;
  else return false;
  return true;
}

void render_map(const StatMap& m, Format format, std::ostream& out) {
  if (format == Format::kCsv) out << "name,value\n";
  if (format == Format::kJson) out << '{';
  std::size_t width = 0;
  if (format == Format::kText)
    for (const auto& [name, v] : m) width = std::max(width, name.size());
  bool first = true;
  for (const auto& [name, v] : m) {
    const std::string value = json::number(v.value);
    switch (format) {
      case Format::kText:
        out << name << std::string(width - name.size() + 2, ' ') << value
            << '\n';
        break;
      case Format::kCsv:
        out << name << ',' << value << '\n';
        break;
      case Format::kJson:
        if (!first) out << ',';
        out << '"' << json::escape(name) << "\":" << value;
        break;
    }
    first = false;
  }
  if (format == Format::kJson) out << "}\n";
}

/// Entries whose values differ, or that exist in one map only (a key
/// that vanished is a difference even when its value was 0).
[[nodiscard]] std::size_t render_diff(const StatMap& a, const StatMap& b,
                                      Format format, std::ostream& out) {
  std::map<std::string, std::pair<const StatValue*, const StatValue*>> rows;
  for (const auto& [name, v] : a) rows[name].first = &v;
  for (const auto& [name, v] : b) rows[name].second = &v;
  std::size_t differing = 0;
  if (format == Format::kCsv) out << "name,old,new,delta\n";
  if (format == Format::kJson) out << '{';
  bool first = true;
  for (const auto& [name, ab] : rows) {
    const auto [oldp, newp] = ab;
    const bool both = oldp != nullptr && newp != nullptr;
    if (both && oldp->value == newp->value) continue;
    ++differing;
    const std::string oldv = oldp ? json::number(oldp->value) : "";
    const std::string newv = newp ? json::number(newp->value) : "";
    const std::string delta =
        both ? json::number(newp->value - oldp->value)
             : (oldp ? "only in OLD" : "only in NEW");
    switch (format) {
      case Format::kText:
        if (both)
          out << name << "  " << oldv << " -> " << newv << "  (" << delta
              << ")\n";
        else  // one of oldv/newv is empty
          out << name << "  " << oldv << newv << "  " << delta << '\n';
        break;
      case Format::kCsv:
        out << name << ',' << oldv << ',' << newv << ',' << delta << '\n';
        break;
      case Format::kJson:
        if (!first) out << ',';
        out << '"' << json::escape(name) << "\":{\"old\":"
            << (oldp ? oldv : "null") << ",\"new\":"
            << (newp ? newv : "null") << ",\"delta\":"
            << (both ? delta : '"' + delta + '"') << '}';
        break;
    }
    first = false;
  }
  if (format == Format::kJson) out << "}\n";
  if (format == Format::kText && differing == 0) out << "no differences\n";
  return differing;
}

void merge_into(StatMap& acc, const StatMap& m) {
  for (const auto& [name, v] : m) {
    auto it = acc.find(name);
    if (it == acc.end()) {
      acc[name] = v;
      continue;
    }
    switch (v.kind) {
      case StatKind::kCounter: it->second.value += v.value; break;
      case StatKind::kGauge:
        it->second.value = std::max(it->second.value, v.value);
        break;
      case StatKind::kMin:
        it->second.value = std::min(it->second.value, v.value);
        break;
    }
  }
}

}  // namespace

int run_gapstat(int argc, const char* const* argv, std::ostream& out,
                std::ostream& err) {
  std::vector<std::string> positional;
  Format format = Format::kText;
  bool strict = false;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      out << kUsage;
      return kStatExitOk;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--format") {
      if (i + 1 >= argc || !parse_format(argv[++i], &format))
        return usage_error(err, "--format needs 'text', 'csv', or 'json'");
    } else if (arg.rfind("--format=", 0) == 0) {
      if (!parse_format(arg.substr(9), &format))
        return usage_error(err, "--format needs 'text', 'csv', or 'json'");
    } else if (!arg.empty() && arg[0] == '-') {
      return usage_error(err, "unknown flag '" + arg + "'");
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty())
    return usage_error(err, "missing command (show | diff | agg)");
  const std::string cmd = positional.front();
  positional.erase(positional.begin());

  if (cmd == "show") {
    if (positional.size() != 1)
      return usage_error(err, "show needs exactly one FILE");
    StatMap m;
    if (const int rc = load_file(positional[0], m, err); rc != 0) return rc;
    render_map(m, format, out);
    return kStatExitOk;
  }
  if (cmd == "diff") {
    if (positional.size() != 2)
      return usage_error(err, "diff needs exactly OLD and NEW files");
    StatMap a, b;
    if (const int rc = load_file(positional[0], a, err); rc != 0) return rc;
    if (const int rc = load_file(positional[1], b, err); rc != 0) return rc;
    const std::size_t differing = render_diff(a, b, format, out);
    return strict && differing != 0 ? kStatExitDiff : kStatExitOk;
  }
  if (cmd == "agg") {
    if (positional.empty())
      return usage_error(err, "agg needs at least one FILE");
    StatMap acc;
    for (const std::string& path : positional) {
      StatMap m;
      if (const int rc = load_file(path, m, err); rc != 0) return rc;
      merge_into(acc, m);
    }
    render_map(acc, format, out);
    return kStatExitOk;
  }
  return usage_error(err, "unknown command '" + cmd + "'");
}

}  // namespace gap::obs
