// Minimal recursive-descent JSON *reader*: enough of RFC 8259 to validate
// the planner's own machine-readable output (stats records, NDJSON
// diagnostics, Chrome trace-event files) without pulling in a JSON library.
// The writer half lives in support/json.hpp; the two share the
// sekitei::json namespace.  Numbers parse as double; \uXXXX escapes decode
// to UTF-8 (no surrogate pairs — the planner never emits them).  Nesting is
// capped at kMaxDepth so a hostile document (the wire codec parses every
// frame body) fails with a parse error instead of overflowing the stack.
#pragma once

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace sekitei::json {

struct Value;
using Array = std::vector<Value>;
using Object = std::map<std::string, Value>;

struct Value {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  // shared_ptr keeps Value copyable while Array/Object are still incomplete.
  std::shared_ptr<Array> arr;
  std::shared_ptr<Object> obj;

  [[nodiscard]] bool is_null() const { return kind == Kind::Null; }
  [[nodiscard]] bool is_bool() const { return kind == Kind::Bool; }
  [[nodiscard]] bool is_number() const { return kind == Kind::Number; }
  [[nodiscard]] bool is_string() const { return kind == Kind::String; }
  [[nodiscard]] bool is_array() const { return kind == Kind::Array; }
  [[nodiscard]] bool is_object() const { return kind == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(const std::string& key) const {
    if (!is_object()) return nullptr;
    auto it = obj->find(key);
    return it == obj->end() ? nullptr : &it->second;
  }
};

/// Deepest array/object nesting the reader accepts.
inline constexpr std::size_t kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse(Value& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  bool fail(const char* what) {
    if (error_.empty()) {
      error_ = what;
      error_ += " at offset ";
      error_ += std::to_string(pos_);
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  [[nodiscard]] char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  bool consume(char c) {
    if (peek() != c) return fail("unexpected character");
    ++pos_;
    return true;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool value(Value& out) {
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) return fail("nesting too deep");
        ++depth_;
        const bool ok = peek() == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.kind = Value::Kind::String;
        return string(out.str);
      case 't':
        out.kind = Value::Kind::Bool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::Bool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = Value::Kind::Null;
        return literal("null");
      default: return number(out);
    }
  }

  bool object(Value& out) {
    out.kind = Value::Kind::Object;
    out.obj = std::make_shared<Object>();
    if (!consume('{')) return false;
    skip_ws();
    if (peek() == '}') return consume('}');
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!consume(':')) return false;
      skip_ws();
      Value member;
      if (!value(member)) return false;
      out.obj->emplace(std::move(key), std::move(member));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return consume('}');
    }
  }

  bool array(Value& out) {
    out.kind = Value::Kind::Array;
    out.arr = std::make_shared<Array>();
    if (!consume('[')) return false;
    skip_ws();
    if (peek() == ']') return consume(']');
    while (true) {
      skip_ws();
      Value item;
      if (!value(item)) return false;
      out.arr->push_back(std::move(item));
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      return consume(']');
    }
  }

  bool string(std::string& out) {
    if (!consume('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') {
              cp |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              cp |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              cp |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return fail("bad \\u digit");
            }
          }
          if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool number(Value& out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) return fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    out.kind = Value::Kind::Number;
    out.number = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    return true;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  std::string error_;
};

/// Parses `text` into `out`; on failure returns false and fills `*error`.
inline bool parse(std::string_view text, Value& out, std::string* error = nullptr) {
  Parser p(text);
  const bool ok = p.parse(out);
  if (!ok && error != nullptr) *error = p.error();
  return ok;
}

}  // namespace sekitei::json
