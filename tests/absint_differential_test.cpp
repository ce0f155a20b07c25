// Differential suite for the PITS rules: analyze::check_routine, where one
// abstract interpretation decides BAN101-BAN108 and BAN301-BAN305,
// against the two engines it replaced (tests/reference_pits_rules.hpp,
// the dataflow layer, then tests/reference_absint.hpp, the interval
// engine that deferred to it and erased the BAN101s it disproved).
//
// Seeded generated routines and the PITS corpus run through both. Every
// finding the two do not share must be one of the three deliberate
// differences, recognised mechanically from the oracle's own record of
// what its recording pass reached:
//   D1  a BAN101/104/105/108 the oracle reports in code its interpreter
//       proves never runs (a statement, or an `if` arm's condition, that
//       the recording pass did not reach);
//   D2  a constant-folding finding (BAN104/105/108) the new engine gives
//       because a path that disagreed cannot reach the site: a reached
//       `if` before the site has an arm the recording pass did not
//       complete. The oracle gave the interval proof at that site
//       (BAN301/302, or BAN304 at the `while` condition) or nothing;
//   D3  a BAN101 the oracle's erase could not see, on an indexed
//       assignment's target or inside the arguments of a `when` with the
//       wrong number of arguments, which the new engine decides from its
//       must-assign state like every other read.
// Anything else fails the test. compute_facts and the shape summary must
// match the oracle's exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analyze/absint.hpp"
#include "analyze/analyze.hpp"
#include "analyze/pits_rules.hpp"
#include "pits/interp.hpp"
#include "pits_corpus.hpp"
#include "reference_absint.hpp"
#include "reference_pits_rules.hpp"
#include "util/rng.hpp"

namespace banger::analyze {
namespace {

using pits::Block;
using pits::Expr;
using pits::Stmt;

// ------------------------------------------------------------ generator

/// Random PITS routines over scalars a, b, c, z, vectors v, w, loop
/// variables i, k, inputs x (a number) and xs (a vector), and a formula
/// f. They need not run: they exercise the rules' corners — `return`,
/// constant and input-dependent `if` and `while`, literal and propagated
/// zero divisors, constant out-of-range and fractional indexes, reads
/// assigned on some paths only, indexed assignments, `repeat 0`,
/// formulas reading task variables and misused `when`.
class RoutineGen {
 public:
  explicit RoutineGen(std::uint64_t seed) : rng_(seed) {}

  std::string routine() {
    std::string out;
    const int n = 2 + static_cast<int>(rng_.next_below(7));
    for (int s = 0; s < n; ++s) out += statement(2, "");
    out += "r := " + expr(1) + "\n";
    return out;
  }

 private:
  std::string pick(std::initializer_list<const char*> options) {
    return *(options.begin() + rng_.next_below(options.size()));
  }

  std::string scalar() { return pick({"a", "b", "c", "z"}); }
  std::string vector() { return pick({"v", "w"}); }
  std::string index() {
    return pick({"0", "1", "2", "3", "(-1)", "0.5", "i", "a", "k"});
  }
  std::string divisor() {
    return pick({"0", "z", "(a - a)", "(b - 1)", "c", "x", "v[0]"});
  }

  std::string atom() {
    switch (rng_.next_below(9)) {
      case 0: return pick({"0", "1", "2", "3", "0.5", "(-1)"});
      case 1:
      case 2: return scalar();
      case 3: return "x";
      case 4: return vector() + "[" + index() + "]";
      case 5: return "xs[" + index() + "]";
      case 6: return pick({"len(xs)", "pi", "[1, 2, 3][3]", "[0, 5][0]"});
      case 7: return vector();
      default: return pick({"i", "k"});
    }
  }

  std::string cond(int depth) {
    switch (rng_.next_below(6)) {
      case 0: return pick({"x > 0", "len(xs) > 2", "xs[0] = 1"});
      case 1: return pick({"1 < 0", "0 < 1", "0", "1"});
      case 2: return pick({"a > 0", "b = 2", "z", "c <> 0"});
      case 3: return pick({"len(xs) >= 0", "k < 3", "i < 2"});
      default: return expr(depth) + pick({" < ", " > ", " = "}) + expr(depth);
    }
  }

  std::string expr(int depth) {
    if (depth <= 0 || rng_.chance(0.35)) return atom();
    const int d = depth - 1;
    switch (rng_.next_below(11)) {
      case 0: return "(" + expr(d) + " + " + expr(d) + ")";
      case 1: return "(" + expr(d) + " - " + expr(d) + ")";
      case 2: return "(" + expr(d) + " * " + expr(d) + ")";
      case 3: return "(" + expr(d) + " / " + divisor() + ")";
      case 4: return "(" + expr(d) + " mod " + divisor() + ")";
      case 5:
        return "when(" + cond(d) + ", " + expr(d) + ", " + expr(d) + ")";
      case 6:
        return rng_.chance(0.5) ? "when(" + expr(d) + ")"
                                : "when(" + cond(d) + ", " + expr(d) + ")";
      case 7: return "f(" + expr(d) + ")";
      case 8: return "abs(" + expr(d) + ")";
      case 9: return "(" + vector() + " + " + pick({"[1, 2]", "v", "xs"}) + ")";
      default: return "(" + cond(d) + ")";
    }
  }

  std::string vector_value() {
    return pick({"[1, 2, 3]", "[0, 5]", "zeros(3)", "[z, 1]", "xs", "[]"});
  }

  std::string block(int depth, const std::string& indent) {
    std::string out;
    const int n = 1 + static_cast<int>(rng_.next_below(3));
    for (int s = 0; s < n; ++s) out += statement(depth, indent + "  ");
    return out;
  }

  std::string statement(int depth, const std::string& in) {
    const int d = depth - 1;
    switch (rng_.next_below(depth > 0 ? 15 : 6)) {
      case 0:
      case 1: return in + scalar() + " := " + expr(2) + "\n";
      case 2: return in + "z := " + pick({"0", "1", "0", "a - a"}) + "\n";
      case 3: return in + vector() + " := " + vector_value() + "\n";
      case 4:
        return in + vector() + "[" + index() + "] := " + expr(1) + "\n";
      case 5:
        return in + scalar() + " := when(" + expr(1) +
               pick({")\n", ", 1)\n"});
      case 6: {
        std::string out = in + "if " + cond(1) + " then\n" + block(d, in);
        if (rng_.chance(0.3))
          out += in + "elsif " + cond(1) + " then\n" + block(d, in);
        if (rng_.chance(0.5)) out += in + "else\n" + block(d, in);
        return out + in + "end\n";
      }
      case 7:
        switch (rng_.next_below(4)) {
          case 0:
            return in + "k := 0\n" + in + "while k < " + pick({"3", "x"}) +
                   " do\n" + block(d, in) + in + "  k := k + 1\n" + in +
                   "end\n";
          case 1:
            // The condition's divisor is constant on entry only.
            return in + "while " + pick({"1 / z", "x mod z", "v[z]"}) +
                   " > 0 do\n" + block(d, in) + in + "  z := z + 1\n" +
                   in + "end\n";
          case 2:
            return in + "while " + cond(1) + " do\n" + block(d, in) + in +
                   "end\n";
          default:
            return in + "while " + pick({"0", "1", "z", "a"}) + " do\n" +
                   block(d, in) + in + "end\n";
        }
      case 8:
        return in + "repeat " + pick({"0", "1", "3", "x", "(-1)"}) +
               " times\n" + block(d, in) + in + "end\n";
      case 9:
        return in + "for i := " + pick({"0", "1"}) + " to " +
               pick({"2", "x", "(-1)", "len(xs)"}) + " do\n" + block(d, in) +
               in + "end\n";
      case 10:
        return rng_.chance(0.5)
                   ? in + "if " + cond(1) + " then\n" + in + "  return\n" +
                         in + "end\n"
                   : in + "return\n";
      case 11:
        return in + "formula f(p) := " +
               pick({"p + a", "p / 0", "p * v[3]", "p + [1, 2][5]",
                     "b / (1 - 1)", "p"}) +
               "\n";
      case 12:
        return in + "i := " + pick({"0", "1", "x"}) + "\n";
      case 13:
        // Arms that disagree on constants, one of them dead or cut short.
        return in + "if " + pick({"1 < 0", "0 < 1", "len(xs) >= 0", "x > 0"}) +
               " then\n" + in + "  z := " + pick({"0", "1"}) + "\n" + in +
               "  v := " + pick({"[0, 5]", "[5, 0]", "[1, 2, 3]"}) + "\n" +
               (rng_.chance(0.3) ? in + "  return\n" : "") + in + "else\n" +
               in + "  z := " + pick({"0", "1"}) + "\n" + in + "  v := " +
               pick({"[0, 5]", "[5, 0]", "[1, 2]"}) + "\n" + in + "end\n";
      default:
        return in + scalar() + " := " + expr(1) + "\n";
    }
  }

  util::Rng rng_;
};

// ------------------------------------------------------- routine layout

bool before(SourcePos a, SourcePos b) {
  return std::tie(a.line, a.column) < std::tie(b.line, b.column);
}

using Spot = std::pair<int, int>;
Spot spot(SourcePos p) { return {p.line, p.column}; }

/// Where each position of a routine sits: its region (the statement, or
/// for an `if` condition the condition itself, whose reaching the
/// oracle records), plus what the attributions need to know.
struct Layout {
  struct If {
    SourcePos pos;
    const Stmt* stmt = nullptr;
    std::vector<const Block*> arms;  ///< every arm body and the else body
    std::set<const void*> inner;     ///< regions inside the statement
  };
  std::map<Spot, const void*> region;
  std::set<Spot> indexed_targets;   ///< indexed assignment statements
  std::set<Spot> misused_when;      ///< inside a `when` without 3 args
  std::map<Spot, SourcePos> while_of_cond;
  std::vector<If> ifs;

  explicit Layout(const Block& body) {
    std::vector<std::size_t> open;
    walk(body, open);
  }

 private:
  void add(SourcePos p, const void* owner,
           const std::vector<std::size_t>& open) {
    region.emplace(spot(p), owner);
    for (const std::size_t i : open) ifs[i].inner.insert(owner);
  }

  void add_expr(const Expr& root, const void* owner,
                const std::vector<std::size_t>& open) {
    for_each_expr(root, [&](const Expr& e) {
      add(e.pos, owner, open);
      const auto* call = std::get_if<pits::Call>(&e.node);
      if (call == nullptr || call->callee != "when" || call->args.size() == 3)
        return;
      for (const auto& a : call->args)
        for_each_expr(*a, [&](const Expr& x) {
          misused_when.insert(spot(x.pos));
        });
    });
  }

  void walk(const Block& block, std::vector<std::size_t>& open) {
    for (const auto& sp : block) {
      const Stmt& s = *sp;
      add(s.pos, &s, open);
      std::visit(
          [&](const auto& node) {
            using T = std::decay_t<decltype(node)>;
            if constexpr (std::is_same_v<T, pits::AssignStmt>) {
              if (node.index) {
                indexed_targets.insert(spot(s.pos));
                add_expr(*node.index, &s, open);
              }
              add_expr(*node.value, &s, open);
            } else if constexpr (std::is_same_v<T, pits::IfStmt>) {
              const std::size_t me = ifs.size();
              ifs.push_back({s.pos, &s, {}, {}});
              open.push_back(me);
              for (const auto& arm : node.arms) {
                add_expr(*arm.cond, arm.cond.get(), open);
                ifs[me].arms.push_back(&arm.body);
                walk(arm.body, open);
              }
              ifs[me].arms.push_back(&node.else_body);
              walk(node.else_body, open);
              open.pop_back();
            } else if constexpr (std::is_same_v<T, pits::WhileStmt>) {
              add_expr(*node.cond, &s, open);
              while_of_cond.emplace(spot(node.cond->pos), s.pos);
              walk(node.body, open);
            } else if constexpr (std::is_same_v<T, pits::RepeatStmt>) {
              add_expr(*node.count, &s, open);
              walk(node.body, open);
            } else if constexpr (std::is_same_v<T, pits::ForStmt>) {
              add_expr(*node.from, &s, open);
              add_expr(*node.to, &s, open);
              if (node.step) add_expr(*node.step, &s, open);
              walk(node.body, open);
            } else if constexpr (std::is_same_v<T, pits::FormulaDef>) {
              add_expr(*node.body, &s, open);
            } else if constexpr (std::is_same_v<T, pits::ExprStmt>) {
              add_expr(*node.expr, &s, open);
            }
          },
          s.node);
    }
  }
};

// ---------------------------------------------------------- attribution

struct Tally {
  int routines = 0;
  int same = 0;  ///< routines whose findings are identical
  int d1 = 0;
  int d2 = 0;
  int d3 = 0;
};

using Key = std::tuple<std::string, int, int, std::string, std::string>;

std::set<Key> keys(const std::vector<Diagnostic>& diags) {
  std::set<Key> out;
  for (const Diagnostic& d : diags) {
    out.emplace(d.code, d.pos.line, d.pos.column, d.message, d.hint);
  }
  return out;
}

bool is_value_code(const std::string& code) {
  return code == "BAN101" || code == "BAN104" || code == "BAN105" ||
         code == "BAN108";
}

/// Compares the two engines on one routine; returns what failed to be
/// attributed, empty when every difference is D1, D2 or D3.
std::string compare_routine(const std::string& src, Tally& tally) {
  const pits::Program program = pits::Program::parse(src);
  const Block& body = program.body();
  RoutineContext ctx;
  ctx.subject = "t";
  ctx.inputs = {"x", "xs"};
  ctx.outputs = {"r", "a"};

  std::vector<Diagnostic> now;
  const ShapeSummary summary = check_routine(body, ctx, {}, now);
  std::vector<Diagnostic> head;
  reference::Reached reached;
  reference::analyze_routine(body, ctx, head);
  const reference::ShapeSummary head_summary =
      reference::run_absint_rules(body, ctx, head, &reached);
  sort_and_dedupe(now);
  sort_and_dedupe(head);
  ++tally.routines;

  std::string failures;
  auto fail = [&](const std::string& why) { failures += "  " + why + "\n"; };

  // The shape summary and the compiler's facts are not allowed to move.
  auto same_val = [](const AbsVal& a, const reference::AbsVal& b) {
    auto iv = [](const Interval& p, const reference::Interval& q) {
      return p.lo == q.lo && p.hi == q.hi && p.integer == q.integer &&
             p.maybe_nan == q.maybe_nan;
    };
    return a.may_scalar == b.may_scalar && a.may_vector == b.may_vector &&
           a.may_string == b.may_string && a.may_unbound == b.may_unbound &&
           a.must_assigned == b.must_assigned && iv(a.num, b.num) &&
           iv(a.len, b.len) && iv(a.elem, b.elem) && a.origin == b.origin;
  };
  bool summary_same = summary.outputs.size() == head_summary.outputs.size() &&
                      summary.demands.size() == head_summary.demands.size();
  for (const auto& [name, v] : summary.outputs) {
    auto it = head_summary.outputs.find(name);
    summary_same = summary_same && it != head_summary.outputs.end() &&
                   same_val(v, it->second);
  }
  for (const auto& [name, d] : summary.demands) {
    auto it = head_summary.demands.find(name);
    summary_same =
        summary_same && it != head_summary.demands.end() &&
        d.needs_vector == it->second.needs_vector &&
        d.min_len == it->second.min_len &&
        d.needs_scalar == it->second.needs_scalar &&
        d.elem_len == it->second.elem_len && d.pos == it->second.pos;
  }
  if (!summary_same) fail("shape summary differs");

  const pits::bc::AnalysisFacts facts = compute_facts(body);
  const pits::bc::AnalysisFacts head_facts = reference::compute_facts(body);
  bool facts_same =
      facts.single_tick.size() == head_facts.single_tick.size() &&
      facts.safe_index.size() == head_facts.safe_index.size() &&
      facts.safe_indexed_store.size() ==
          head_facts.safe_indexed_store.size() &&
      facts.bound_reads.size() == head_facts.bound_reads.size();
  auto same_facts = [&](const Expr& root) {
    for_each_expr(root, [&](const Expr& e) {
      facts_same = facts_same && facts.safe_index.contains(&e) ==
                                     head_facts.safe_index.contains(&e);
      if (const auto* v = std::get_if<pits::VarRef>(&e.node)) {
        facts_same = facts_same && facts.bound_reads.contains(v) ==
                                       head_facts.bound_reads.contains(v);
      }
    });
  };
  for_each_stmt(body, [&](const Stmt& s) {
    facts_same = facts_same && facts.single_tick.contains(&s) ==
                                   head_facts.single_tick.contains(&s);
    if (const auto* a = std::get_if<pits::AssignStmt>(&s.node)) {
      facts_same = facts_same && facts.safe_indexed_store.contains(a) ==
                                     head_facts.safe_indexed_store.contains(a);
    } else if (const auto* def = std::get_if<pits::FormulaDef>(&s.node)) {
      same_facts(*def->body);
    }
    for_each_root(s, same_facts);
  });
  if (!facts_same) fail("compute_facts differs");

  const std::set<Key> now_keys = keys(now);
  const std::set<Key> head_keys = keys(head);
  if (now_keys == head_keys) {
    if (failures.empty()) ++tally.same;
    return failures.empty() ? failures
                            : "routine:\n" + src + "differences:\n" + failures;
  }
  const Layout layout(body);
  auto has = [](const std::set<Key>& set, const std::string& code, Spot at) {
    return std::any_of(set.begin(), set.end(), [&](const Key& k) {
      return std::get<0>(k) == code && std::get<1>(k) == at.first &&
             std::get<2>(k) == at.second;
    });
  };
  auto region_of = [&](Spot at) -> const void* {
    auto it = layout.region.find(at);
    return it == layout.region.end() ? nullptr : it->second;
  };
  auto reached_at = [&](Spot at) {
    const void* r = region_of(at);
    return r != nullptr && reached.entered.contains(r);
  };
  // A reached `if` before the site, not around it, with an arm the
  // recording pass did not complete: a path that cannot reach the site.
  auto cut_before = [&](Spot at) {
    const void* r = region_of(at);
    const SourcePos p{at.first, at.second};
    return std::any_of(
        layout.ifs.begin(), layout.ifs.end(), [&](const Layout::If& i) {
          return before(i.pos, p) && !i.inner.contains(r) &&
                 reached.entered.contains(i.stmt) &&
                 std::any_of(i.arms.begin(), i.arms.end(),
                             [&](const Block* arm) {
                               return !reached.completed.contains(arm);
                             });
        });
  };
  auto describe = [](const Key& k) {
    return std::get<0>(k) + " " + std::to_string(std::get<1>(k)) + ":" +
           std::to_string(std::get<2>(k)) + " " + std::get<3>(k);
  };

  for (const Key& k : head_keys) {
    if (now_keys.contains(k)) continue;
    const std::string& code = std::get<0>(k);
    const Spot at{std::get<1>(k), std::get<2>(k)};
    if (is_value_code(code) && region_of(at) != nullptr && !reached_at(at)) {
      ++tally.d1;
    } else if (code == "BAN101" && reached_at(at) &&
               (layout.indexed_targets.contains(at) ||
                layout.misused_when.contains(at))) {
      ++tally.d3;
    } else if ((code == "BAN301" && has(now_keys, "BAN104", at) &&
                cut_before(at)) ||
               (code == "BAN302" && has(now_keys, "BAN105", at) &&
                cut_before(at))) {
      ++tally.d2;
    } else if (auto w = layout.while_of_cond.find(at);
               code == "BAN304" && w != layout.while_of_cond.end() &&
               has(now_keys, "BAN108", spot(w->second)) &&
               cut_before(spot(w->second))) {
      ++tally.d2;
    } else {
      fail("only the oracle reports " + describe(k));
    }
  }
  for (const Key& k : now_keys) {
    if (head_keys.contains(k)) continue;
    const std::string& code = std::get<0>(k);
    const Spot at{std::get<1>(k), std::get<2>(k)};
    if ((code == "BAN104" || code == "BAN105" || code == "BAN108") &&
        reached_at(at) && cut_before(at)) {
      ++tally.d2;
    } else {
      fail("only check_routine reports " + describe(k));
    }
  }
  if (failures.empty()) return failures;
  return "routine:\n" + src + "oracle:\n" + emit_text(head) +
         "check_routine:\n" + emit_text(now) + "differences:\n" + failures;
}

TEST(AbsintDifferential, GeneratedRoutinesDifferOnlyByD1D2D3) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 3000; ++seed) {
    RoutineGen gen(seed * 7919);
    const std::string src = gen.routine();
    const std::string failures = compare_routine(src, tally);
    ASSERT_TRUE(failures.empty()) << "seed " << seed << "\n" << failures;
  }
  EXPECT_EQ(tally.routines, 3000);
  // The generator reaches every deliberate difference, and most
  // routines report exactly what the oracle reports.
  EXPECT_GT(tally.d1, 0);
  EXPECT_GT(tally.d2, 0);
  EXPECT_GT(tally.d3, 0);
  EXPECT_GT(tally.same, tally.routines / 2);
  std::printf("%d routines, %d identical; D1 %d, D2 %d, D3 %d\n",
              tally.routines, tally.same, tally.d1, tally.d2, tally.d3);
}

TEST(AbsintDifferential, CorpusDiffersOnlyByD1D2D3) {
  Tally tally;
  for (const CorpusEntry& entry : kCorpus) {
    const std::string failures = compare_routine(entry.body, tally);
    EXPECT_TRUE(failures.empty()) << entry.name << "\n" << failures;
  }
  EXPECT_EQ(tally.routines, static_cast<int>(std::size(kCorpus)));
}

// ------------------------------------------------------------- fixtures
//
// One routine for each deliberate difference and for each finding the
// merge keeps, with both engines' findings pinned as CODE:line:col.

struct Both {
  std::vector<std::string> oracle;
  std::vector<std::string> now;
};

Both findings(const std::string& src) {
  const pits::Program program = pits::Program::parse(src);
  RoutineContext ctx;
  ctx.subject = "t";
  ctx.inputs = {"a"};
  ctx.outputs = {"r"};
  std::vector<Diagnostic> now;
  (void)check_routine(program.body(), ctx, {}, now);
  std::vector<Diagnostic> head;
  reference::analyze_routine(program.body(), ctx, head);
  (void)reference::run_absint_rules(program.body(), ctx, head);
  auto spots = [](std::vector<Diagnostic>& diags) {
    sort_and_dedupe(diags);
    std::vector<std::string> out;
    for (const Diagnostic& d : diags) {
      out.push_back(d.code + ":" + std::to_string(d.pos.line) + ":" +
                    std::to_string(d.pos.column));
    }
    return out;
  };
  return {spots(head), spots(now)};
}

using Spots = std::vector<std::string>;

TEST(AbsintDifferential, D1NoValueFindingsInCodeThatNeverRuns) {
  // After a `return`, in a loop that runs zero times, and in an arm
  // BAN303 marks; BAN103 and BAN303 still mark such code.
  const Both after_return = findings("r := a\nreturn\nr := 1 / 0\n");
  EXPECT_EQ(after_return.oracle, (Spots{"BAN104:3:10", "BAN103:3:1"}));
  EXPECT_EQ(after_return.now, (Spots{"BAN103:3:1"}));
  const Both dead = findings(
      "r := a\nrepeat 0 times\n  r := r mod 0\nend\n"
      "if 1 < 0 then\n  r := [1, 2][5]\nend\n");
  EXPECT_EQ(dead.oracle, (Spots{"BAN104:3:14", "BAN105:6:15", "BAN303:5:6"}));
  EXPECT_EQ(dead.now, (Spots{"BAN303:5:6"}));
}

TEST(AbsintDifferential, D2ConstantKnownOnlyOnTheLivePathFolds) {
  const std::string prefix =
      "d := 0\nif d > 0 then\n  x := 2\n  v := [1, 2]\n  c := 0\nelse\n"
      "  x := 1\n  v := [1, 2, 3]\n  c := 1\nend\n";
  const Both div = findings(prefix + "r := a / (x - 1) + v[0] + c\n");
  EXPECT_EQ(div.oracle, (Spots{"BAN301:11:13", "BAN303:2:6"}));
  EXPECT_EQ(div.now, (Spots{"BAN104:11:13", "BAN303:2:6"}));
  const Both index = findings(prefix + "r := v[3] + x + c\n");
  EXPECT_EQ(index.oracle, (Spots{"BAN302:11:8", "BAN303:2:6"}));
  EXPECT_EQ(index.now, (Spots{"BAN105:11:8", "BAN303:2:6"}));
  const Both loop = findings(
      prefix + "r := x + v[0]\nwhile c do\n  r := r + 1\nend\n");
  EXPECT_EQ(loop.oracle, (Spots{"BAN303:2:6", "BAN304:12:7"}));
  EXPECT_EQ(loop.now, (Spots{"BAN303:2:6", "BAN108:12:1"}));
}

TEST(AbsintDifferential, D3IndexedTargetFollowsTheInterpretersProof) {
  const Both proven = findings(
      "repeat 3 times\n  v := zeros(3)\nend\nv[0] := a\nr := v\n");
  EXPECT_EQ(proven.oracle, (Spots{"BAN101:4:1"}));
  EXPECT_EQ(proven.now, Spots{});
  // Assigned on one path only: still reported.
  const Both maybe = findings(
      "if a > 0 then\n  v := zeros(3)\nend\nv[0] := a\nr := v\n");
  EXPECT_EQ(maybe.oracle, (Spots{"BAN101:4:1"}));
  EXPECT_EQ(maybe.now, (Spots{"BAN101:4:1"}));
}

TEST(AbsintDifferential, KeptWhileConditionCheckedOnEntryState) {
  const Both both =
      findings("n := 0\nwhile 1 / n > 0 do\n  n := n + 1\nend\nr := n\n");
  EXPECT_EQ(both.oracle, (Spots{"BAN104:2:11"}));
  EXPECT_EQ(both.now, both.oracle);
}

TEST(AbsintDifferential, KeptReadsInsideMisusedWhen) {
  const Both both = findings("r := when(u)\nu := 1\n");
  EXPECT_EQ(both.oracle, (Spots{"BAN107:1:6", "BAN101:1:11"}));
  EXPECT_EQ(both.now, both.oracle);
}

TEST(AbsintDifferential, KeptFormulaBodyCheckedWhereDefined) {
  const Both both = findings("formula f(p) := p / 0\nr := f(a)\n");
  EXPECT_EQ(both.oracle, (Spots{"BAN104:1:21"}));
  EXPECT_EQ(both.now, both.oracle);
}

}  // namespace
}  // namespace banger::analyze
