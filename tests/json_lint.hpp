/// \file json_lint.hpp
/// Minimal recursive-descent JSON validator shared by the observability
/// tests (trace_test, driver_test, qor_test). Not a parser — it only
/// answers "is this well-formed JSON?" so the trace/manifest writers can be
/// checked without adding a JSON library dependency.

#ifndef GAP_TESTS_JSON_LINT_HPP_
#define GAP_TESTS_JSON_LINT_HPP_

#include <cctype>
#include <cstddef>
#include <string>

namespace gap::testing {

class JsonLint {
 public:
  /// True iff `text` is one complete, well-formed JSON value.
  static bool valid(const std::string& text) {
    JsonLint lint(text);
    lint.skip_ws();
    if (!lint.value()) return false;
    lint.skip_ws();
    return lint.pos_ == text.size();
  }

 private:
  explicit JsonLint(const std::string& text) : text_(text) {}

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool eat(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool literal(const char* s) {
    std::size_t i = 0;
    while (s[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != s[i]) return false;
      ++i;
    }
    pos_ += i;
    return true;
  }

  bool string() {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char e = text_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i)
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_++])))
              return false;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' &&
                   e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      }
    }
    return false;  // unterminated
  }

  bool digits() {
    if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
    while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    return true;
  }

  bool number() {
    eat('-');
    if (peek() == '0') {
      ++pos_;
    } else if (!digits()) {
      return false;
    }
    if (eat('.') && !digits()) return false;
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return true;
  }

  bool value() {  // NOLINT(misc-no-recursion)
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  bool object() {  // NOLINT(misc-no-recursion)
    if (!eat('{')) return false;
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!eat(':')) return false;
      if (!value()) return false;
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array() {  // NOLINT(misc-no-recursion)
    if (!eat('[')) return false;
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace gap::testing

#endif  // GAP_TESTS_JSON_LINT_HPP_
