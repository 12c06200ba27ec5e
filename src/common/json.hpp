#pragma once
/// \file json.hpp
/// Minimal JSON helpers shared by the JSON writers (trace.cpp,
/// obs/flight.cpp, qor/manifest.cpp) and the in-repo consumers that read
/// JSON back: `gapstat`, which diffs QoR run manifests and flight dumps,
/// and `gapd`, which parses untrusted protocol frames. Emission is
/// header-only; parsing lives in json.cpp as a small recursive-descent
/// DOM (`Value`) with no external dependency.
///
/// Untrusted input: parse_checked() never aborts and never overflows the
/// stack — nesting is depth-limited (kMaxParseDepth), and every rejection
/// carries a coded diagnostic with the line:column of the offending byte.

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace gap::common::json {

/// Escape a string for use inside JSON double quotes.
inline std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// A finite double as a JSON number (non-finite values are not valid
/// JSON; callers must clamp before emitting).
inline std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Parsed JSON value. Objects preserve insertion order (manifest diffs
/// report keys in the order the writer emitted them); lookup is linear,
/// which is fine at manifest sizes.
class Value {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double num = 0.0;
  std::string str;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  /// Maximum container nesting parse()/parse_checked() accept. Inputs
  /// nested deeper (e.g. a 100k-deep "[[[[...") are rejected with
  /// ErrorCode::kInvalidValue instead of recursing toward a stack
  /// overflow.
  static constexpr int kMaxParseDepth = 64;

  /// Parse one complete JSON document; nullopt on any syntax error or
  /// trailing garbage. Escapes are decoded (\uXXXX to UTF-8; surrogate
  /// pairs are not needed by any in-repo writer and decode independently).
  [[nodiscard]] static std::optional<Value> parse(const std::string& text);

  /// parse() for untrusted input: rejections come back as a failed Status
  /// with a coded diagnostic — kParse for syntax errors, kInvalidValue
  /// for semantic limits (nesting beyond kMaxParseDepth) — whose
  /// SourceLoc is the 1-based line:column of the offending byte.
  [[nodiscard]] static Result<Value> parse_checked(const std::string& text);

  /// Compact single-line serialization (no spaces, no newlines; object
  /// members in stored order, numbers via number()). parse(dump()) is the
  /// identity on the DOM, and dump() output never contains a raw newline,
  /// so any parsed document can be embedded in a line-delimited protocol.
  [[nodiscard]] std::string dump() const;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member by key; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const;

  /// Convenience accessors with fallback defaults.
  [[nodiscard]] double number_or(double def) const {
    return kind == Kind::kNumber ? num : def;
  }
  [[nodiscard]] std::string string_or(std::string def) const {
    return kind == Kind::kString ? str : std::move(def);
  }

  /// Member lookups combining find() + the accessor above.
  [[nodiscard]] double member_number(const std::string& key, double def) const;
  [[nodiscard]] std::string member_string(const std::string& key,
                                          std::string def) const;
};

}  // namespace gap::common::json
