// banger/pits/builtins.hpp
//
// The calculator's button panel as a function registry: scientific and
// engineering functions, vector/statistics operations, constants — the
// "simple programming constructs, scientific and engineering functions,
// constants, and formulas" of the paper's third principle. All functions
// are pure except `print` (writes to the trial-run transcript) and
// `rand` (advances the interpreter's seeded generator).
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "pits/value.hpp"
#include "util/rng.hpp"

namespace banger::pits {

/// Side-channel passed to impure builtins.
struct BuiltinContext {
  util::Rng* rng = nullptr;
  std::ostream* out = nullptr;  ///< trial-run transcript (may be null)
};

struct Builtin {
  std::string name;
  int min_args = 0;
  int max_args = 0;  ///< -1 = unbounded
  std::function<Value(std::vector<Value>&, BuiltinContext&)> fn;
  std::string group;  ///< button group on the panel ("trig", "vector", ...)
  std::string help;   ///< one-line tooltip
};

class BuiltinRegistry {
 public:
  static const BuiltinRegistry& instance();

  /// nullptr when no such function exists.
  [[nodiscard]] const Builtin* find(std::string_view name) const;
  /// All function names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;
  /// Names within one button group, sorted.
  [[nodiscard]] std::vector<std::string> group(const std::string& g) const;
  [[nodiscard]] std::size_t size() const noexcept { return table_.size(); }

 private:
  BuiltinRegistry();
  std::map<std::string, Builtin, std::less<>> table_;
};

/// The calculator's constant buttons (pi, e, golden, plus the physical
/// constants an engineering user expects). Name -> value; the compare
/// is transparent, so a string_view looks a name up without a copy.
const std::map<std::string, double, std::less<>>& constants();

}  // namespace banger::pits
