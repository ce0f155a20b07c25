#include "pits/builtins.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>

namespace banger::pits {

namespace {

[[noreturn]] void runtime_error(const std::string& msg) {
  fail(ErrorCode::Runtime, msg);
}

double checked_index(double raw, std::size_t size, const char* what) {
  const double floored = std::floor(raw);
  if (floored != raw) {
    runtime_error(std::string(what) + " index must be an integer");
  }
  if (floored < 0 || floored >= static_cast<double>(size)) {
    runtime_error(std::string(what) + " index " +
                  std::to_string(static_cast<long long>(floored)) +
                  " out of range [0," + std::to_string(size) + ")");
  }
  return floored;
}

double factorial(double n) {
  if (n < 0 || std::floor(n) != n) {
    runtime_error("fact() requires a non-negative integer");
  }
  if (n > 170) runtime_error("fact() overflows beyond 170");
  double r = 1;
  for (double k = 2; k <= n; ++k) r *= k;
  return r;
}

/// Applies a scalar function elementwise when handed a vector — the
/// calculator's natural broadcasting.
Value map1(const Value& v, double (*fn)(double)) {
  if (v.is_vector()) {
    Vector out = v.as_vector();
    for (double& x : out) x = fn(x);
    return out;
  }
  return fn(v.as_scalar());
}

}  // namespace

const std::map<std::string, double, std::less<>>& constants() {
  static const std::map<std::string, double, std::less<>> table = {
      {"pi", 3.14159265358979323846},
      {"e", 2.71828182845904523536},
      {"golden", 1.61803398874989484820},
      {"g_accel", 9.80665},           // m/s^2
      {"c_light", 299792458.0},       // m/s
      {"h_planck", 6.62607015e-34},   // J*s
      {"k_boltzmann", 1.380649e-23},  // J/K
      {"avogadro", 6.02214076e23},    // 1/mol
      {"eps0", 8.8541878128e-12},     // F/m
      {"mu0", 1.25663706212e-6},      // N/A^2
  };
  return table;
}

const BuiltinRegistry& BuiltinRegistry::instance() {
  static const BuiltinRegistry registry;
  return registry;
}

const Builtin* BuiltinRegistry::find(std::string_view name) const {
  auto it = table_.find(name);
  return it == table_.end() ? nullptr : &it->second;
}

std::vector<std::string> BuiltinRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(table_.size());
  for (const auto& [name, fn] : table_) out.push_back(name);
  return out;
}

std::vector<std::string> BuiltinRegistry::group(const std::string& g) const {
  std::vector<std::string> out;
  for (const auto& [name, fn] : table_)
    if (fn.group == g) out.push_back(name);
  return out;
}

BuiltinRegistry::BuiltinRegistry() {
  auto add = [this](std::string name, int min_args, int max_args,
                    std::string group, std::string help,
                    std::function<Value(std::vector<Value>&, BuiltinContext&)>
                        fn) {
    Builtin b;
    b.name = name;
    b.min_args = min_args;
    b.max_args = max_args;
    b.fn = std::move(fn);
    b.group = std::move(group);
    b.help = std::move(help);
    table_.emplace(std::move(name), std::move(b));
  };
  auto add1 = [&](std::string name, std::string group, std::string help,
                  double (*fn)(double)) {
    add(std::move(name), 1, 1, std::move(group), std::move(help),
        [fn](std::vector<Value>& args, BuiltinContext&) {
          return map1(args[0], fn);
        });
  };
  auto add2 = [&](std::string name, std::string group, std::string help,
                  double (*fn)(double, double)) {
    add(std::move(name), 2, 2, std::move(group), std::move(help),
        [fn](std::vector<Value>& args, BuiltinContext&) {
          return Value(fn(args[0].as_scalar(), args[1].as_scalar()));
        });
  };

  // --- trig ---
  add1("sin", "trig", "sine (radians)", [](double x) { return std::sin(x); });
  add1("cos", "trig", "cosine (radians)", [](double x) { return std::cos(x); });
  add1("tan", "trig", "tangent (radians)", [](double x) { return std::tan(x); });
  add1("asin", "trig", "arcsine", [](double x) { return std::asin(x); });
  add1("acos", "trig", "arccosine", [](double x) { return std::acos(x); });
  add1("atan", "trig", "arctangent", [](double x) { return std::atan(x); });
  add2("atan2", "trig", "two-argument arctangent",
       [](double y, double x) { return std::atan2(y, x); });
  add1("sinh", "trig", "hyperbolic sine", [](double x) { return std::sinh(x); });
  add1("cosh", "trig", "hyperbolic cosine",
       [](double x) { return std::cosh(x); });
  add1("tanh", "trig", "hyperbolic tangent",
       [](double x) { return std::tanh(x); });
  add1("deg", "trig", "radians to degrees",
       [](double x) { return x * 57.29577951308232; });
  add1("rad", "trig", "degrees to radians",
       [](double x) { return x * 0.017453292519943295; });

  // --- exp/log ---
  add1("exp", "explog", "e^x", [](double x) { return std::exp(x); });
  add1("ln", "explog", "natural logarithm", [](double x) {
    if (x <= 0) runtime_error("ln() of a non-positive number");
    return std::log(x);
  });
  add1("log10", "explog", "base-10 logarithm", [](double x) {
    if (x <= 0) runtime_error("log10() of a non-positive number");
    return std::log10(x);
  });
  add1("log2", "explog", "base-2 logarithm", [](double x) {
    if (x <= 0) runtime_error("log2() of a non-positive number");
    return std::log2(x);
  });
  add1("sqrt", "explog", "square root", [](double x) {
    if (x < 0) runtime_error("sqrt() of a negative number");
    return std::sqrt(x);
  });
  add1("cbrt", "explog", "cube root", [](double x) { return std::cbrt(x); });
  add2("pow", "explog", "x raised to y",
       [](double x, double y) { return std::pow(x, y); });
  add2("hypot", "explog", "sqrt(x^2+y^2)",
       [](double x, double y) { return std::hypot(x, y); });

  // --- rounding / misc scalar ---
  add1("abs", "round", "absolute value", [](double x) { return std::fabs(x); });
  add1("floor", "round", "round down", [](double x) { return std::floor(x); });
  add1("ceil", "round", "round up", [](double x) { return std::ceil(x); });
  add1("round", "round", "round to nearest",
       [](double x) { return std::round(x); });
  add1("trunc", "round", "drop the fraction",
       [](double x) { return std::trunc(x); });
  add1("frac", "round", "fractional part",
       [](double x) { return x - std::trunc(x); });
  add1("sign", "round", "-1, 0 or 1",
       [](double x) { return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0); });
  add("min", 1, -1, "round", "smallest argument",
      [](std::vector<Value>& args, BuiltinContext&) {
        double best = args[0].as_scalar();
        for (std::size_t i = 1; i < args.size(); ++i)
          best = std::min(best, args[i].as_scalar());
        return Value(best);
      });
  add("max", 1, -1, "round", "largest argument",
      [](std::vector<Value>& args, BuiltinContext&) {
        double best = args[0].as_scalar();
        for (std::size_t i = 1; i < args.size(); ++i)
          best = std::max(best, args[i].as_scalar());
        return Value(best);
      });
  add("clamp", 3, 3, "round", "clamp(x, lo, hi)",
      [](std::vector<Value>& args, BuiltinContext&) {
        const double x = args[0].as_scalar();
        const double lo = args[1].as_scalar();
        const double hi = args[2].as_scalar();
        if (lo > hi) runtime_error("clamp() with lo > hi");
        return Value(std::clamp(x, lo, hi));
      });
  add("fact", 1, 1, "round", "factorial",
      [](std::vector<Value>& args, BuiltinContext&) {
        return Value(factorial(args[0].as_scalar()));
      });
  add("ncr", 2, 2, "round", "combinations n choose r",
      [](std::vector<Value>& args, BuiltinContext&) {
        const double n = args[0].as_scalar();
        const double r = args[1].as_scalar();
        if (r < 0 || r > n) return Value(0.0);
        return Value(std::round(factorial(n) / (factorial(r) * factorial(n - r))));
      });

  // --- vector construction ---
  add("zeros", 1, 1, "vector", "vector of n zeros",
      [](std::vector<Value>& args, BuiltinContext&) {
        const double n = args[0].as_scalar();
        if (n < 0 || std::floor(n) != n || n > 1e8) {
          runtime_error("zeros() needs a small non-negative integer");
        }
        return Value(Vector(static_cast<std::size_t>(n), 0.0));
      });
  add("ones", 1, 1, "vector", "vector of n ones",
      [](std::vector<Value>& args, BuiltinContext&) {
        const double n = args[0].as_scalar();
        if (n < 0 || std::floor(n) != n || n > 1e8) {
          runtime_error("ones() needs a small non-negative integer");
        }
        return Value(Vector(static_cast<std::size_t>(n), 1.0));
      });
  add("range", 2, 3, "vector", "range(a, b [, step]): a inclusive to b exclusive",
      [](std::vector<Value>& args, BuiltinContext&) {
        const double a = args[0].as_scalar();
        const double b = args[1].as_scalar();
        const double step = args.size() > 2 ? args[2].as_scalar() : 1.0;
        if (step == 0) runtime_error("range() with zero step");
        Vector out;
        if (step > 0) {
          for (double x = a; x < b - 1e-12; x += step) out.push_back(x);
        } else {
          for (double x = a; x > b + 1e-12; x += step) out.push_back(x);
        }
        if (out.size() > 100000000) runtime_error("range() too large");
        return Value(std::move(out));
      });
  add("append", 2, 2, "vector", "append(v, x): v with x added",
      [](std::vector<Value>& args, BuiltinContext&) {
        Vector out = args[0].as_vector();
        out.push_back(args[1].as_scalar());
        return Value(std::move(out));
      });
  add("concat", 2, 2, "vector", "concat(u, v)",
      [](std::vector<Value>& args, BuiltinContext&) {
        Vector out = args[0].as_vector();
        const Vector& v = args[1].as_vector();
        out.insert(out.end(), v.begin(), v.end());
        return Value(std::move(out));
      });
  add("slice", 3, 3, "vector", "slice(v, i, j): elements [i, j)",
      [](std::vector<Value>& args, BuiltinContext&) {
        const Vector& v = args[0].as_vector();
        const double i = args[1].as_scalar();
        const double j = args[2].as_scalar();
        if (std::floor(i) != i || std::floor(j) != j || i < 0 ||
            j > static_cast<double>(v.size()) || i > j) {
          runtime_error("slice() bounds out of range");
        }
        return Value(Vector(v.begin() + static_cast<std::ptrdiff_t>(i),
                            v.begin() + static_cast<std::ptrdiff_t>(j)));
      });
  add("reverse", 1, 1, "vector", "reverse(v)",
      [](std::vector<Value>& args, BuiltinContext&) {
        Vector out = args[0].as_vector();
        std::reverse(out.begin(), out.end());
        return Value(std::move(out));
      });
  add("sort", 1, 1, "vector", "ascending sort",
      [](std::vector<Value>& args, BuiltinContext&) {
        Vector out = args[0].as_vector();
        std::sort(out.begin(), out.end());
        return Value(std::move(out));
      });
  add("set", 3, 3, "vector", "set(v, i, x): copy of v with v[i] = x",
      [](std::vector<Value>& args, BuiltinContext&) {
        Vector out = args[0].as_vector();
        const auto i = static_cast<std::size_t>(
            checked_index(args[1].as_scalar(), out.size(), "set()"));
        out[i] = args[2].as_scalar();
        return Value(std::move(out));
      });
  add("get", 2, 2, "vector", "get(v, i) = v[i]",
      [](std::vector<Value>& args, BuiltinContext&) {
        const Vector& v = args[0].as_vector();
        const auto i = static_cast<std::size_t>(
            checked_index(args[1].as_scalar(), v.size(), "get()"));
        return Value(v[i]);
      });

  // --- vector reductions / stats ---
  add("len", 1, 1, "stats", "element count (strings: characters)",
      [](std::vector<Value>& args, BuiltinContext&) {
        if (args[0].is_string())
          return Value(static_cast<double>(args[0].as_string().size()));
        return Value(static_cast<double>(args[0].as_vector().size()));
      });
  add("sum", 1, 1, "stats", "sum of elements",
      [](std::vector<Value>& args, BuiltinContext&) {
        const Vector& v = args[0].as_vector();
        return Value(std::accumulate(v.begin(), v.end(), 0.0));
      });
  add("prod", 1, 1, "stats", "product of elements",
      [](std::vector<Value>& args, BuiltinContext&) {
        const Vector& v = args[0].as_vector();
        return Value(std::accumulate(v.begin(), v.end(), 1.0,
                                     std::multiplies<>()));
      });
  add("mean", 1, 1, "stats", "arithmetic mean",
      [](std::vector<Value>& args, BuiltinContext&) {
        const Vector& v = args[0].as_vector();
        if (v.empty()) runtime_error("mean() of an empty vector");
        return Value(std::accumulate(v.begin(), v.end(), 0.0) /
                     static_cast<double>(v.size()));
      });
  add("stddev", 1, 1, "stats", "population standard deviation",
      [](std::vector<Value>& args, BuiltinContext&) {
        const Vector& v = args[0].as_vector();
        if (v.empty()) runtime_error("stddev() of an empty vector");
        const double m = std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
        double acc = 0;
        for (double x : v) acc += (x - m) * (x - m);
        return Value(std::sqrt(acc / static_cast<double>(v.size())));
      });
  add("minv", 1, 1, "stats", "smallest element",
      [](std::vector<Value>& args, BuiltinContext&) {
        const Vector& v = args[0].as_vector();
        if (v.empty()) runtime_error("minv() of an empty vector");
        return Value(*std::min_element(v.begin(), v.end()));
      });
  add("maxv", 1, 1, "stats", "largest element",
      [](std::vector<Value>& args, BuiltinContext&) {
        const Vector& v = args[0].as_vector();
        if (v.empty()) runtime_error("maxv() of an empty vector");
        return Value(*std::max_element(v.begin(), v.end()));
      });
  add("dot", 2, 2, "stats", "inner product",
      [](std::vector<Value>& args, BuiltinContext&) {
        const Vector& u = args[0].as_vector();
        const Vector& v = args[1].as_vector();
        if (u.size() != v.size()) {
          runtime_error("dot() of vectors with different lengths");
        }
        return Value(std::inner_product(u.begin(), u.end(), v.begin(), 0.0));
      });
  add("norm", 1, 1, "stats", "Euclidean norm",
      [](std::vector<Value>& args, BuiltinContext&) {
        const Vector& v = args[0].as_vector();
        double acc = 0;
        for (double x : v) acc += x * x;
        return Value(std::sqrt(acc));
      });

  // --- misc / impure ---
  add("rand", 0, 0, "misc", "uniform [0,1) from the seeded generator",
      [](std::vector<Value>&, BuiltinContext& ctx) {
        if (ctx.rng == nullptr) runtime_error("rand() unavailable here");
        return Value(ctx.rng->next_double());
      });
  add("print", 0, -1, "misc", "write values to the trial-run transcript",
      [](std::vector<Value>& args, BuiltinContext& ctx) {
        if (ctx.out != nullptr) {
          for (std::size_t i = 0; i < args.size(); ++i) {
            if (i > 0) *ctx.out << ' ';
            *ctx.out << args[i].to_display();
          }
          *ctx.out << '\n';
        }
        return Value(0.0);
      });
  add("str", 1, 1, "misc", "value rendered as a string",
      [](std::vector<Value>& args, BuiltinContext&) {
        return Value(args[0].to_display());
      });
}

}  // namespace banger::pits
