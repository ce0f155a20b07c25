// The PITS differential corpus: small programs covering every operator,
// statement and builtin family, each assigning its result to `o`.
// differential_test runs them under every scheduler; codegen_test runs
// them as one generated program beside `banger run`.
#pragma once

#include <cctype>
#include <string>

namespace banger {

struct CorpusEntry {
  const char* name;
  const char* body;  // must assign variable `o`
};

inline const CorpusEntry kCorpus[] = {
    {"arith", "o := (2 + 3) * 4 - 7 / 2 ^ 2"},
    {"precedence", "o := -2 ^ 2 + 3 mod 2"},
    {"compare", "o := (1 < 2) + (2 <= 2) + (3 > 4) + (4 >= 4) + (5 = 5) + "
                "(6 <> 6)"},
    {"logic", "o := (1 and 0) + (0 or 3) * 10 + (not 0) * 100"},
    {"short_circuit", "o := 0 and 1 / 0\no := o + (1 or 1 / 0)"},
    {"while_sum", "s := 0\ni := 1\nwhile i <= 50 do\n  s := s + i\n  i := i + "
                  "1\nend\no := s"},
    {"repeat_double", "o := 1\nrepeat 8 times\n  o := o * 2\nend"},
    {"for_step",
     "s := 0\nfor i := 10 to 0 step -2.5 do\n  s := s + i\nend\no := s"},
    {"if_chain", "x := 7\nif x < 0 then\n  o := -1\nelsif x = 7 then\n  o := "
                 "42\nelse\n  o := 1\nend"},
    {"early_return", "o := 5\nif o > 1 then\n  return\nend\no := 99"},
    {"vectors", "v := [1, 2, 3] * 2 + [10, 10, 10]\nv[1] := -v[1]\no := v"},
    {"broadcast", "o := 10 - [1, 2, 3] ^ 2"},
    {"vector_fns",
     "v := sort(reverse(concat(range(0, 4), [9, 7])))\no := append(slice(v, "
     "1, 5), sum(v))"},
    {"stats", "v := [2, 4, 4, 4, 5, 5, 7, 9]\no := [mean(v), stddev(v), "
              "minv(v), maxv(v), norm([3, 4])]"},
    {"trig", "o := [sin(pi / 6), cos(pi / 3), tan(pi / 4), deg(pi), "
             "rad(180)]"},
    {"explog", "o := [exp(1), ln(e), log10(100), log2(8), sqrt(2), cbrt(27), "
               "hypot(3, 4)]"},
    {"rounding", "o := [floor(2.7), ceil(2.1), round(2.5), trunc(-2.7), "
                 "frac(2.75), sign(-3), abs(-8)]"},
    {"minmax", "o := [min(3, 1, 2), max(4, 9, 2), clamp(5, 0, 3), fact(6), "
               "ncr(6, 2)]"},
    {"strings", "s := \"he\" + \"llo\"\no := len(s) + (s = \"hello\") * 10"},
    {"escapes",
     "s := \"a\\\"b\" + \"c\\\\d\" + \"e\\nf\"\no := len(s) + (s > \"a\")"},
    {"formulas", "formula sq(x) := x * x\nformula hyp(a, b) := sqrt(sq(a) + "
                 "sq(b))\no := hyp(5, 12)"},
    {"recursion", "formula fact2(n) := when(n <= 1, 1, n * fact2(n - 1))\n"
                  "o := fact2(9)"},
    {"when_vectors", "o := when(len([1, 2]) = 2, [1, 1] + 1, [0])"},
    {"rand_stream", "a := rand()\nb := rand()\no := [a, b, a < 1, b >= 0]"},
    {"nested_loops",
     "o := 0\nfor i := 1 to 5 do\n  for j := 1 to i do\n    o := o + i * "
     "j\n  end\nend"},
    {"indexed_state",
     "v := zeros(5)\nfor i := 0 to 4 do\n  v[i] := i * i\nend\no := v"},
};

/// The entry's routine with its result variable `o` renamed to
/// `out_var`, so the programs can be tasks of one design.
inline std::string corpus_routine(const CorpusEntry& entry,
                                  const std::string& out_var) {
  const std::string body = entry.body;
  auto ident = [&](std::size_t i) {
    return std::isalnum(static_cast<unsigned char>(body[i])) != 0 ||
           body[i] == '_';
  };
  std::string renamed;
  for (std::size_t i = 0; i < body.size(); ++i) {
    const bool is_o = body[i] == 'o' && (i == 0 || !ident(i - 1)) &&
                      (i + 1 >= body.size() || !ident(i + 1));
    renamed += is_o ? out_var : std::string(1, body[i]);
  }
  return renamed + "\n";
}

}  // namespace banger
