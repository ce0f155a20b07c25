#include "serve/json.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <string>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace banger::serve {

namespace {

// Recursive-descent parser with line/column tracking so malformed
// requests report a position, matching the PITL parser's diagnostics.
// It recurses once per array or object level, so nesting is capped at
// Json::kMaxDepth: a request line must not be able to exhaust the
// stack of the thread that serves it.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    banger::fail(ErrorCode::Parse, "json: " + what, {line_, column_});
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  char next() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  void skip_ws() {
    while (!at_end()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      next();
    }
  }

  void expect(char c) {
    if (at_end() || peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    next();
  }

  Json parse_value() {
    skip_ws();
    if (at_end()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (depth_ == Json::kMaxDepth) {
          fail("arrays and objects nest deeper than " +
               std::to_string(Json::kMaxDepth) + " levels");
        }
        ++depth_;
        Json nested = c == '{' ? parse_object() : parse_array();
        --depth_;
        return nested;
      }
      case '"': return Json::string(parse_string());
      case 't': parse_literal("true"); return Json::boolean(true);
      case 'f': parse_literal("false"); return Json::boolean(false);
      case 'n': parse_literal("null"); return Json();
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail(std::string("unexpected character '") + c + "'");
    }
  }

  void parse_literal(std::string_view lit) {
    for (char c : lit) {
      if (at_end() || peek() != c) fail("invalid literal");
      next();
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (!at_end() && peek() == '-') next();
    while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
      next();
    }
    if (!at_end() && peek() == '.') {
      next();
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        next();
      }
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      next();
      if (!at_end() && (peek() == '+' || peek() == '-')) next();
      while (!at_end() && std::isdigit(static_cast<unsigned char>(peek()))) {
        next();
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') fail("invalid number");
    return Json::number(v);
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (at_end()) fail("unterminated escape");
      const char esc = next();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            if (at_end()) fail("unterminated \\u escape");
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the code point; surrogate pairs are not
          // needed for the protocol (payloads are .pitl/ASCII text).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  Json parse_array() {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (!at_end() && peek() == ']') {
      next();
      return out;
    }
    for (;;) {
      out.push(parse_value());
      skip_ws();
      if (at_end()) fail("unterminated array");
      const char c = next();
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  Json parse_object() {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (!at_end() && peek() == '}') {
      next();
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.add(std::move(key), parse_value());
      skip_ws();
      if (at_end()) fail("unterminated object");
      const char c = next();
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int depth_ = 0;  ///< arrays and objects open around the cursor
};

void dump_to(const Json& v, std::ostream& out) {
  switch (v.kind()) {
    case Json::Kind::Null: out << "null"; break;
    case Json::Kind::Bool: out << (v.as_bool() ? "true" : "false"); break;
    case Json::Kind::Number: out << obs::json_number(v.as_number()); break;
    case Json::Kind::String:
      out << '"' << obs::json_escape(v.as_string()) << '"';
      break;
    case Json::Kind::Array: {
      out << '[';
      bool first = true;
      for (const Json& e : v.as_array()) {
        if (!first) out << ',';
        first = false;
        dump_to(e, out);
      }
      out << ']';
      break;
    }
    case Json::Kind::Object: {
      out << '{';
      bool first = true;
      for (const auto& [key, value] : v.as_object()) {
        if (!first) out << ',';
        first = false;
        out << '"' << obs::json_escape(key) << "\":";
        dump_to(value, out);
      }
      out << '}';
      break;
    }
  }
}

}  // namespace

Json Json::boolean(bool v) {
  Json j;
  j.kind_ = Kind::Bool;
  j.bool_ = v;
  return j;
}

Json Json::number(double v) {
  Json j;
  j.kind_ = Kind::Number;
  j.number_ = v;
  return j;
}

Json Json::string(std::string v) {
  Json j;
  j.kind_ = Kind::String;
  j.str_ = std::move(v);
  return j;
}

Json Json::array(Array v) {
  Json j;
  j.kind_ = Kind::Array;
  j.arr_ = std::move(v);
  return j;
}

Json Json::object(Object v) {
  Json j;
  j.kind_ = Kind::Object;
  j.obj_ = std::move(v);
  return j;
}

const Json* Json::find(std::string_view key) const noexcept {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::add(std::string key, Json value) {
  kind_ = Kind::Object;
  obj_.emplace_back(std::move(key), std::move(value));
}

void Json::push(Json value) {
  kind_ = Kind::Array;
  arr_.push_back(std::move(value));
}

std::string Json::dump() const {
  std::ostringstream out;
  dump_to(*this, out);
  return out.str();
}

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace banger::serve
