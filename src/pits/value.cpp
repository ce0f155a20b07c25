#include "pits/value.hpp"

#include "util/strings.hpp"

namespace banger::pits {

std::string_view Value::type_name() const noexcept {
  if (is_scalar()) return "number";
  if (is_vector()) return "vector";
  return "string";
}

void Value::mismatch(std::string_view expected) const {
  fail(ErrorCode::Type, "expected a " + std::string(expected) + ", got a " +
                            std::string(type_name()));
}

const Str& Value::as_string() const {
  if (const auto* s = std::get_if<Str>(&data_)) return *s;
  mismatch("string");
}

bool Value::equals(const Value& other) const noexcept {
  return data_ == other.data_;
}

std::string Value::to_display() const {
  std::string out;
  append_display(out);
  return out;
}

void Value::append_display(std::string& out) const {
  if (const auto* s = std::get_if<Scalar>(&data_)) {
    util::append_double(out, *s, 12);
    return;
  }
  if (const auto* v = std::get_if<Vector>(&data_)) {
    out += '[';
    for (std::size_t i = 0; i < v->size(); ++i) {
      if (i > 0) out += ", ";
      util::append_double(out, (*v)[i], 12);
    }
    out += ']';
    return;
  }
  out += std::get<Str>(data_);
}

}  // namespace banger::pits
