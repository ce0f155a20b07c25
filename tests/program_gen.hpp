// Random valid PITS routines for the fuzz suites (pits_fuzz_test,
// shape_test): straight-line code, ifs, bounded loops and calls over the
// scalars v0..v3 and the vector w, which every program defines first.
#pragma once

#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace banger::pits {

/// Generates a random expression of bounded depth over variables v0..v3
/// (always defined as scalars) and w (a vector).
class ProgramGen {
 public:
  explicit ProgramGen(std::uint64_t seed) : rng_(seed) {}

  std::string program(int statements) {
    std::string out =
        "v0 := 1\nv1 := 2.5\nv2 := -3\nv3 := 0.5\nw := [1, 2, 3, 4]\n";
    for (int i = 0; i < statements; ++i) out += statement(2);
    return out;
  }

 private:
  std::string scalar_expr(int depth) {
    if (depth <= 0 || rng_.chance(0.3)) {
      switch (rng_.next_below(4)) {
        case 0: return std::to_string(rng_.uniform_int(1, 9));
        case 1: return "v" + std::to_string(rng_.next_below(4));
        case 2: return "w[" + std::to_string(rng_.next_below(4)) + "]";
        default: return "pi";
      }
    }
    switch (rng_.next_below(7)) {
      case 0:
        return "(" + scalar_expr(depth - 1) + " + " + scalar_expr(depth - 1) +
               ")";
      case 1:
        return "(" + scalar_expr(depth - 1) + " * " + scalar_expr(depth - 1) +
               ")";
      case 2:
        // Guarded division: add a constant so the denominator is nonzero
        // often; division by zero is a legal typed error anyway.
        return "(" + scalar_expr(depth - 1) + " / (" +
               scalar_expr(depth - 1) + " + 17))";
      case 3: return "abs(" + scalar_expr(depth - 1) + ")";
      case 4: return "min(" + scalar_expr(depth - 1) + ", " +
                     scalar_expr(depth - 1) + ")";
      case 5:
        return "when(" + scalar_expr(depth - 1) + " > 0, " +
               scalar_expr(depth - 1) + ", " + scalar_expr(depth - 1) + ")";
      default:
        return "(" + scalar_expr(depth - 1) + " - " + scalar_expr(depth - 1) +
               ")";
    }
  }

  std::string statement(int depth) {
    switch (rng_.next_below(depth > 0 ? 6 : 2)) {
      case 0:
        return "v" + std::to_string(rng_.next_below(4)) + " := " +
               scalar_expr(2) + "\n";
      case 1:
        return "w[" + std::to_string(rng_.next_below(4)) + "] := " +
               scalar_expr(2) + "\n";
      case 2: {
        std::string body;
        const int n = 1 + static_cast<int>(rng_.next_below(2));
        for (int i = 0; i < n; ++i) body += "  " + statement(depth - 1);
        return "if " + scalar_expr(1) + " > " + scalar_expr(1) + " then\n" +
               body + "end\n";
      }
      case 3: {
        std::string body = "  " + statement(depth - 1);
        return "repeat " + std::to_string(rng_.next_below(4)) + " times\n" +
               body + "end\n";
      }
      case 4: {
        std::string body = "  " + statement(depth - 1);
        return "for it := 0 to " + std::to_string(rng_.next_below(5)) +
               " do\n" + body + "end\n";
      }
      default: {
        // Bounded while: counts down from a small value.
        return "cnt := " + std::to_string(rng_.next_below(4)) +
               "\nwhile cnt > 0 do\n  cnt := cnt - 1\n  " +
               statement(depth - 1) + "end\n";
      }
    }
  }

  util::Rng rng_;
};

}  // namespace banger::pits
