// banger/serve/json.hpp
//
// A small JSON value for the serve wire protocol: parse one request
// line, build one response line. Deliberately minimal — no DOM-style
// mutation helpers, no number-preservation tricks (numbers are doubles,
// rendered via obs::json_number so integers round-trip without a
// fraction). Object member order is preserved, which keeps every
// serialized response deterministic and diffable.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace banger::serve {

class Json {
 public:
  enum class Kind : unsigned char { Null, Bool, Number, String, Array, Object };
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  Json() = default;  // null
  static Json boolean(bool v);
  static Json number(double v);
  static Json string(std::string v);
  static Json array(Array v = {});
  static Json object(Object v = {});

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::String;
  }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::Object;
  }

  /// Typed accessors; only valid for the matching kind.
  [[nodiscard]] bool as_bool() const noexcept { return bool_; }
  [[nodiscard]] double as_number() const noexcept { return number_; }
  [[nodiscard]] const std::string& as_string() const noexcept { return str_; }
  [[nodiscard]] const Array& as_array() const noexcept { return arr_; }
  [[nodiscard]] const Object& as_object() const noexcept { return obj_; }

  /// Object member lookup (first match); nullptr when absent or when
  /// this value is not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;

  /// Appends a member to an object / element to an array.
  void add(std::string key, Json value);
  void push(Json value);

  /// Compact deterministic serialization (no whitespace).
  [[nodiscard]] std::string dump() const;

  /// Deepest array/object nesting parse() accepts.
  static constexpr int kMaxDepth = 256;

  /// Parses a complete JSON document (trailing junk rejected). Throws
  /// Error{Parse} with a 1-based line/column position on malformed text
  /// and on nesting deeper than kMaxDepth.
  static Json parse(std::string_view text);

 private:
  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

}  // namespace banger::serve
