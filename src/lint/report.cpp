#include "lint/report.hpp"

#include <sstream>

#include "common/check.hpp"
#include "common/json.hpp"

namespace gap::lint {

namespace {

namespace json = common::json;

std::string quoted(const std::string& s) {
  return "\"" + json::escape(s) + "\"";
}

/// SARIF `level` for a severity (kFatal collapses to "error"; gap::lint
/// itself never emits it, but overrides shouldn't be able to break SARIF).
const char* sarif_level(common::Severity s) {
  switch (s) {
    case common::Severity::kNote: return "note";
    case common::Severity::kWarning: return "warning";
    default: return "error";
  }
}

const RuleInfo& info_of(const RuleRegistry& registry,
                        const std::string& id) {
  const Rule* r = registry.find(id);
  GAP_EXPECTS(r != nullptr);  // findings always come from registry rules
  return r->info();
}

std::size_t index_of(const RuleRegistry& registry, const std::string& id) {
  for (std::size_t i = 0; i < registry.size(); ++i)
    if (registry.rule(i).info().id == id) return i;
  GAP_EXPECTS(false);
  return 0;
}

}  // namespace

std::string format_text(const RuleRegistry& registry,
                        const LintReport& report,
                        const std::string& artifact) {
  std::ostringstream out;
  for (const Finding& f : report.findings) {
    if (f.waived) {
      out << "waived";
    } else {
      out << common::to_string(f.severity);
    }
    out << "[" << f.rule << "] " << to_string(f.anchor) << " '"
        << f.anchor_name << "': " << f.message;
    if (f.loc.valid()) {
      out << " (" << (artifact.empty() ? "input" : artifact) << ":"
          << f.loc.line << ":" << f.loc.column << ")";
    }
    if (f.waived) out << " [waiver: " << f.waiver_justification << "]";
    out << "\n";
    (void)registry;
  }
  const LintSummary& s = report.summary;
  out << "gaplint: " << s.errors << " error(s), " << s.warnings
      << " warning(s), " << s.notes << " note(s), " << s.waived
      << " waived\n";
  return out.str();
}

std::string write_json(const RuleRegistry& registry, const LintReport& report,
                       const std::string& artifact) {
  std::string out = "{\"schema\":\"gap-lint-report-v1\",\"artifact\":";
  out += quoted(artifact);
  out += ",\"findings\":[";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    if (i != 0) out += ',';
    out += "{\"rule\":" + quoted(f.rule);
    out += ",\"category\":" +
           quoted(to_string(info_of(registry, f.rule).category));
    out += ",\"severity\":" + quoted(common::to_string(f.severity));
    out += ",\"anchor\":{\"kind\":" + quoted(to_string(f.anchor)) +
           ",\"name\":" + quoted(f.anchor_name) + "}";
    out += ",\"message\":" + quoted(f.message);
    if (f.loc.valid()) {
      out += ",\"line\":" + std::to_string(f.loc.line);
      out += ",\"column\":" + std::to_string(f.loc.column);
    }
    out += ",\"waived\":";
    out += f.waived ? "true" : "false";
    if (f.waived) out += ",\"justification\":" + quoted(f.waiver_justification);
    out += '}';
  }
  const LintSummary& s = report.summary;
  out += "],\"summary\":{\"errors\":" + std::to_string(s.errors) +
         ",\"warnings\":" + std::to_string(s.warnings) +
         ",\"notes\":" + std::to_string(s.notes) +
         ",\"waived\":" + std::to_string(s.waived) + "}}";
  return out;
}

std::string write_sarif(const RuleRegistry& registry,
                        const LintReport& report,
                        const std::string& artifact) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n";
  out << "  \"version\": \"2.1.0\",\n";
  out << "  \"runs\": [\n    {\n";
  out << "      \"tool\": {\n        \"driver\": {\n";
  out << "          \"name\": \"gaplint\",\n";
  out << "          \"rules\": [";
  for (std::size_t i = 0; i < registry.size(); ++i) {
    const RuleInfo& info = registry.rule(i).info();
    out << (i == 0 ? "\n" : ",\n");
    out << "            {\n";
    out << "              \"id\": " << quoted(info.id) << ",\n";
    out << "              \"shortDescription\": { \"text\": "
        << quoted(info.title) << " },\n";
    out << "              \"defaultConfiguration\": { \"level\": \""
        << sarif_level(info.default_severity) << "\" },\n";
    out << "              \"properties\": { \"category\": "
        << quoted(to_string(info.category)) << " }\n";
    out << "            }";
  }
  out << (registry.empty() ? "]\n" : "\n          ]\n");
  out << "        }\n      },\n";
  out << "      \"results\": [";
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    const Finding& f = report.findings[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "        {\n";
    out << "          \"ruleId\": " << quoted(f.rule) << ",\n";
    out << "          \"ruleIndex\": " << index_of(registry, f.rule)
        << ",\n";
    out << "          \"level\": \"" << sarif_level(f.severity) << "\",\n";
    out << "          \"message\": { \"text\": " << quoted(f.message)
        << " },\n";
    out << "          \"locations\": [\n            {\n";
    if (f.loc.valid() && !artifact.empty()) {
      out << "              \"physicalLocation\": {\n";
      out << "                \"artifactLocation\": { \"uri\": "
          << quoted(artifact) << " },\n";
      out << "                \"region\": { \"startLine\": " << f.loc.line
          << ", \"startColumn\": " << f.loc.column << " }\n";
      out << "              },\n";
    }
    out << "              \"logicalLocations\": [\n";
    out << "                { \"name\": " << quoted(f.anchor_name)
        << ", \"kind\": " << quoted(to_string(f.anchor)) << " }\n";
    out << "              ]\n";
    out << "            }\n          ]";
    if (f.waived) {
      out << ",\n          \"suppressions\": [\n";
      out << "            { \"kind\": \"external\", \"justification\": "
          << quoted(f.waiver_justification) << " }\n";
      out << "          ]";
    }
    out << "\n        }";
  }
  out << (report.findings.empty() ? "]\n" : "\n      ]\n");
  out << "    }\n  ]\n";
  out << "}\n";
  return out.str();
}

}  // namespace gap::lint
