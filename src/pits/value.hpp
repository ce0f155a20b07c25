// banger/pits/value.hpp
//
// Runtime values of the PITS calculator language. The calculator is a
// scientific instrument: it computes with real scalars, numeric vectors
// (for the engineering workloads: signals, matrix rows), and strings
// (labels for the instant-feedback `print`).
#pragma once

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace banger::pits {

using Scalar = double;
using Vector = std::vector<double>;
using Str = std::string;

class Value {
 public:
  Value() : data_(0.0) {}
  Value(double v) : data_(v) {}                 // NOLINT(google-explicit-constructor)
  Value(Vector v) : data_(std::move(v)) {}      // NOLINT(google-explicit-constructor)
  Value(Str v) : data_(std::move(v)) {}         // NOLINT(google-explicit-constructor)
  Value(const char* v) : data_(Str(v)) {}       // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool is_scalar() const noexcept {
    return std::holds_alternative<Scalar>(data_);
  }
  [[nodiscard]] bool is_vector() const noexcept {
    return std::holds_alternative<Vector>(data_);
  }
  [[nodiscard]] bool is_string() const noexcept {
    return std::holds_alternative<Str>(data_);
  }

  /// "number", "vector", or "string" — used in error messages.
  [[nodiscard]] std::string_view type_name() const noexcept;

  /// Accessors that throw Error{Type} (with position context added by the
  /// interpreter) on mismatch. The matching case is inline: the VM reads
  /// operands through them on every index, store and loop step.
  [[nodiscard]] Scalar as_scalar() const {
    if (const auto* s = std::get_if<Scalar>(&data_)) return *s;
    mismatch("number");
  }
  [[nodiscard]] const Vector& as_vector() const {
    if (const auto* v = std::get_if<Vector>(&data_)) return *v;
    mismatch("vector");
  }
  [[nodiscard]] Vector& as_vector() {
    if (auto* v = std::get_if<Vector>(&data_)) return *v;
    mismatch("vector");
  }
  [[nodiscard]] const Str& as_string() const;

  /// Non-throwing accessors for the execution-engine hot paths: one
  /// variant probe, nullptr on mismatch, no Error construction.
  [[nodiscard]] const Scalar* scalar_if() const noexcept {
    return std::get_if<Scalar>(&data_);
  }
  [[nodiscard]] Scalar* scalar_if() noexcept {
    return std::get_if<Scalar>(&data_);
  }
  [[nodiscard]] const Vector* vector_if() const noexcept {
    return std::get_if<Vector>(&data_);
  }
  [[nodiscard]] Vector* vector_if() noexcept {
    return std::get_if<Vector>(&data_);
  }
  [[nodiscard]] const Str* string_if() const noexcept {
    return std::get_if<Str>(&data_);
  }

  /// Truthiness: nonzero scalar / nonempty vector / nonempty string.
  [[nodiscard]] bool truthy() const noexcept {
    if (const auto* s = std::get_if<Scalar>(&data_)) return *s != 0.0;
    if (const auto* v = std::get_if<Vector>(&data_)) return !v->empty();
    return !std::get_if<Str>(&data_)->empty();
  }

  /// Structural equality (scalar==scalar elementwise etc.; values of
  /// different types are never equal).
  [[nodiscard]] bool equals(const Value& other) const noexcept;

  /// Calculator-display rendering ("3.5", "[1, 2, 3]", "text").
  [[nodiscard]] std::string to_display() const;
  /// to_display appended to `out` element by element, with no
  /// temporary string per element.
  void append_display(std::string& out) const;

  friend bool operator==(const Value& a, const Value& b) noexcept {
    return a.equals(b);
  }

 private:
  /// Throws "expected a <expected>, got a <type_name()>".
  [[noreturn, gnu::cold]] void mismatch(std::string_view expected) const;

  std::variant<Scalar, Vector, Str> data_;
};

}  // namespace banger::pits
