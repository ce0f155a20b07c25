// tests/reference_pits_rules.hpp
//
// The PITS dataflow layer (BAN101-BAN108) as it ran before the abstract
// interpreter took over its flow analysis: the earlier
// src/analyze/pits_rules.cpp in namespace banger::analyze::reference,
// kept with tests/reference_absint.hpp as the differential oracle for
// analyze::check_routine. Compiled only into test targets; never link it
// into the product libraries.
//
#pragma once

// PITS routine dataflow layer (BAN101-BAN108): a forward must-assign
// analysis with branch intersection, straight-line constant propagation
// (loops kill the constants of everything they assign), and a global
// read/write census for dead-store detection. The analysis mirrors the
// interpreter's semantics (interp.cpp): `when` is a 3-argument special
// form, formula bodies see only their parameters and the constants, for
// loop variables are assigned only when the body runs, vector indices
// are 0-based integers. Per-variable state is indexed by the parser's
// symbol ids.
#include <algorithm>
#include <cmath>
#include <optional>
#include <string_view>
#include <vector>

#include "analyze/analyze.hpp"
#include "pits/builtins.hpp"
#include "pits/value.hpp"

namespace banger::analyze::reference {

namespace {

using pits::AssignStmt;
using pits::BinOp;
using pits::Block;
using pits::Call;
using pits::Expr;
using pits::ExprStmt;
using pits::ForStmt;
using pits::FormulaDef;
using pits::IfStmt;
using pits::Index;
using pits::NumberLit;
using pits::RepeatStmt;
using pits::ReturnStmt;
using pits::Stmt;
using pits::StringLit;
using pits::SymId;
using pits::UnOp;
using pits::Unary;
using pits::Value;
using pits::VarRef;
using pits::VectorLit;
using pits::WhileStmt;

/// Edit distance for "did you mean" hints on unknown function names.
std::size_t edit_distance(std::string_view a, std::string_view b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t up = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1,
                         diag + (a[i - 1] == b[j - 1] ? 0 : 1)});
      diag = up;
    }
  }
  return row[b.size()];
}

std::string closest_builtin(const std::string& name) {
  std::string best;
  std::size_t best_d = 3;  // suggest only within edit distance 2
  for (const std::string& candidate : pits::BuiltinRegistry::instance().names()) {
    const std::size_t d = edit_distance(name, candidate);
    if (d < best_d) {
      best_d = d;
      best = candidate;
    }
  }
  return best;
}

class RoutineAnalyzer {
 public:
  RoutineAnalyzer(const RoutineContext& context, std::vector<Diagnostic>& sink)
      : ctx_(context), sink_(sink) {}

  void run(const Block& body) {
    const std::vector<std::string_view> names = pits::symbol_names(body);
    syms_.resize(names.size());
    for (std::size_t s = 0; s < names.size(); ++s) {
      syms_[s].name = names[s];
      if (auto c = pits::constants().find(names[s]);
          c != pits::constants().end()) {
        syms_[s].constant = &c->second;
      }
    }
    collect_formulas(body);
    census_block(body, /*in_formula=*/false);
    State st;
    st.defined.assign(syms_.size(), false);
    st.consts.resize(syms_.size());
    std::vector<std::string_view> inputs(ctx_.inputs.begin(),
                                         ctx_.inputs.end());
    std::sort(inputs.begin(), inputs.end());
    for (SymId s = 0; s < syms_.size(); ++s) {
      if (std::binary_search(inputs.begin(), inputs.end(), syms_[s].name))
        st.defined[s] = true;
    }
    walk_block(body, st);
    report_dead_stores();
  }

 private:
  /// Both indexed by symbol.
  struct State {
    std::vector<bool> defined;                // must-assigned here
    std::vector<std::optional<Value>> consts;  // known constant values
  };

  /// What the routine as a whole does with one symbol.
  struct SymFacts {
    std::string_view name;
    const double* constant = nullptr;  ///< the calculator constant so named
    int arity = -1;                    ///< of the first formula so named
    bool read = false;                 ///< read anywhere
    bool loop_var = false;             ///< a for-loop variable
    bool assigned = false;             ///< assigned outside formulas
    SourcePos first_assign;            ///< first such assignment
  };

  // ---- reporting ----

  SourcePos at(SourcePos p) const {
    if (!p.valid() || ctx_.pits_line <= 0) return p;
    return {ctx_.pits_line + p.line - 1, p.column + ctx_.pits_indent};
  }

  void emit(std::string code, SourcePos pos, std::string message,
            std::string hint = {}) {
    const DiagnosticRule* rule = find_rule(code);
    Diagnostic d;
    d.code = std::move(code);
    d.severity = rule != nullptr ? rule->severity : Severity::Warning;
    d.subject_kind = "task";
    d.subject = ctx_.subject;
    d.message = std::move(message);
    d.hint = std::move(hint);
    d.pos = at(pos);
    sink_.push_back(std::move(d));
  }

  // ---- pre-passes ----

  void collect_formulas(const Block& block) {
    for_each_stmt(block, [&](const Stmt& s) {
      if (const auto* def = std::get_if<FormulaDef>(&s.node)) {
        if (syms_[def->sym].arity < 0)
          syms_[def->sym].arity = static_cast<int>(def->params.size());
      }
    });
  }

  /// Global read/write census: which variables are read anywhere, and the
  /// first assignment site of each (for dead-store reporting). Formula
  /// parameters shadow task variables inside formula bodies.
  void census_block(const Block& block, bool in_formula) {
    for (const auto& s : block) census_stmt(*s, in_formula);
  }

  void census_stmt(const Stmt& s, bool in_formula) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, AssignStmt>) {
            if (node.index) {
              syms_[node.sym].read = true;  // element assign reads the vector
              census_expr(*node.index, nullptr);
            }
            census_expr(*node.value, nullptr);
            if (!in_formula && !syms_[node.sym].assigned) {
              syms_[node.sym].assigned = true;
              syms_[node.sym].first_assign = s.pos;
            }
          } else if constexpr (std::is_same_v<T, IfStmt>) {
            for (const auto& arm : node.arms) {
              census_expr(*arm.cond, nullptr);
              census_block(arm.body, in_formula);
            }
            census_block(node.else_body, in_formula);
          } else if constexpr (std::is_same_v<T, WhileStmt>) {
            census_expr(*node.cond, nullptr);
            census_block(node.body, in_formula);
          } else if constexpr (std::is_same_v<T, RepeatStmt>) {
            census_expr(*node.count, nullptr);
            census_block(node.body, in_formula);
          } else if constexpr (std::is_same_v<T, ForStmt>) {
            census_expr(*node.from, nullptr);
            census_expr(*node.to, nullptr);
            if (node.step) census_expr(*node.step, nullptr);
            syms_[node.sym].loop_var = true;
            census_block(node.body, in_formula);
          } else if constexpr (std::is_same_v<T, FormulaDef>) {
            census_expr(*node.body, &node.param_syms);
          } else if constexpr (std::is_same_v<T, ExprStmt>) {
            census_expr(*node.expr, nullptr);
          } else {
            (void)node;  // ReturnStmt
          }
        },
        s.node);
  }

  /// `shadowed`: the parameters of the formula `e` is the body of.
  void census_expr(const Expr& e, const pits::NodeArray<SymId>* shadowed) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, VarRef>) {
            if (shadowed == nullptr ||
                std::find(shadowed->begin(), shadowed->end(), node.sym) ==
                    shadowed->end()) {
              syms_[node.sym].read = true;
            }
          } else if constexpr (std::is_same_v<T, VectorLit>) {
            for (const auto& el : node.elements) census_expr(*el, shadowed);
          } else if constexpr (std::is_same_v<T, Unary>) {
            census_expr(*node.operand, shadowed);
          } else if constexpr (std::is_same_v<T, pits::Binary>) {
            census_expr(*node.lhs, shadowed);
            census_expr(*node.rhs, shadowed);
          } else if constexpr (std::is_same_v<T, Index>) {
            census_expr(*node.base, shadowed);
            census_expr(*node.index, shadowed);
          } else if constexpr (std::is_same_v<T, Call>) {
            for (const auto& a : node.args) census_expr(*a, shadowed);
          }
        },
        e.node);
  }

  template <typename Fn>
  static void for_each_stmt(const Block& block, const Fn& fn) {
    for (const auto& s : block) {
      fn(*s);
      std::visit(
          [&](const auto& node) {
            using T = std::decay_t<decltype(node)>;
            if constexpr (std::is_same_v<T, IfStmt>) {
              for (const auto& arm : node.arms) for_each_stmt(arm.body, fn);
              for_each_stmt(node.else_body, fn);
            } else if constexpr (std::is_same_v<T, WhileStmt> ||
                                 std::is_same_v<T, RepeatStmt> ||
                                 std::is_same_v<T, ForStmt>) {
              for_each_stmt(node.body, fn);
            }
          },
          s->node);
    }
  }

  /// Calls fn(sym) for every variable `block` assigns, repeats included.
  template <typename Fn>
  static void for_each_assigned(const Block& block, const Fn& fn) {
    for_each_stmt(block, [&](const Stmt& s) {
      if (const auto* a = std::get_if<AssignStmt>(&s.node)) {
        fn(a->sym);
      } else if (const auto* f = std::get_if<ForStmt>(&s.node)) {
        fn(f->sym);
      }
    });
  }

  static bool returns_in(const Block& block) {
    bool found = false;
    for_each_stmt(block, [&](const Stmt& s) {
      if (std::holds_alternative<ReturnStmt>(s.node)) found = true;
    });
    return found;
  }

  static void vars_in(const Expr& e, std::vector<SymId>& out) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, VarRef>) {
            out.push_back(node.sym);
          } else if constexpr (std::is_same_v<T, VectorLit>) {
            for (const auto& el : node.elements) vars_in(*el, out);
          } else if constexpr (std::is_same_v<T, Unary>) {
            vars_in(*node.operand, out);
          } else if constexpr (std::is_same_v<T, pits::Binary>) {
            vars_in(*node.lhs, out);
            vars_in(*node.rhs, out);
          } else if constexpr (std::is_same_v<T, Index>) {
            vars_in(*node.base, out);
            vars_in(*node.index, out);
          } else if constexpr (std::is_same_v<T, Call>) {
            for (const auto& a : node.args) vars_in(*a, out);
          }
        },
        e.node);
  }

  // ---- constant folding (scalar + literal-vector, no calls) ----

  std::optional<Value> fold(const Expr& e, const State& st) const {
    return std::visit(
        [&](const auto& node) -> std::optional<Value> {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, NumberLit>) {
            return Value(node.value);
          } else if constexpr (std::is_same_v<T, StringLit>) {
            return Value(node.value);
          } else if constexpr (std::is_same_v<T, VarRef>) {
            if (st.consts[node.sym]) return st.consts[node.sym];
            if (const double* c = syms_[node.sym].constant) return Value(*c);
            return std::nullopt;
          } else if constexpr (std::is_same_v<T, VectorLit>) {
            pits::Vector v;
            v.reserve(node.elements.size());
            for (const auto& el : node.elements) {
              auto f = fold(*el, st);
              if (!f || !f->is_scalar()) return std::nullopt;
              v.push_back(f->as_scalar());
            }
            return Value(std::move(v));
          } else if constexpr (std::is_same_v<T, Unary>) {
            auto f = fold(*node.operand, st);
            if (!f) return std::nullopt;
            if (node.op == UnOp::Not) return Value(f->truthy() ? 0.0 : 1.0);
            if (!f->is_scalar()) return std::nullopt;
            return Value(-f->as_scalar());
          } else if constexpr (std::is_same_v<T, pits::Binary>) {
            return fold_binary(node, st);
          } else if constexpr (std::is_same_v<T, Index>) {
            auto base = fold(*node.base, st);
            auto index = fold(*node.index, st);
            if (!base || !index || !base->is_vector() || !index->is_scalar()) {
              return std::nullopt;
            }
            const double raw = index->as_scalar();
            const auto& vec = base->as_vector();
            if (std::floor(raw) != raw || raw < 0 ||
                raw >= static_cast<double>(vec.size())) {
              return std::nullopt;  // reported separately as BAN105
            }
            return Value(vec[static_cast<std::size_t>(raw)]);
          } else {
            return std::nullopt;  // calls are never folded (rand, print)
          }
        },
        e.node);
  }

  std::optional<Value> fold_binary(const pits::Binary& node,
                                   const State& st) const {
    auto lhs = fold(*node.lhs, st);
    auto rhs = fold(*node.rhs, st);
    if (!lhs || !rhs) return std::nullopt;
    if (node.op == BinOp::And) {
      return Value(lhs->truthy() && rhs->truthy() ? 1.0 : 0.0);
    }
    if (node.op == BinOp::Or) {
      return Value(lhs->truthy() || rhs->truthy() ? 1.0 : 0.0);
    }
    if (node.op == BinOp::Eq) return Value(lhs->equals(*rhs) ? 1.0 : 0.0);
    if (node.op == BinOp::Ne) return Value(lhs->equals(*rhs) ? 0.0 : 1.0);
    if (!lhs->is_scalar() || !rhs->is_scalar()) return std::nullopt;
    const double a = lhs->as_scalar();
    const double b = rhs->as_scalar();
    switch (node.op) {
      case BinOp::Add: return Value(a + b);
      case BinOp::Sub: return Value(a - b);
      case BinOp::Mul: return Value(a * b);
      case BinOp::Div: return b == 0 ? std::nullopt : std::optional(Value(a / b));
      case BinOp::Mod:
        return b == 0 ? std::nullopt : std::optional(Value(std::fmod(a, b)));
      case BinOp::Pow: return Value(std::pow(a, b));
      case BinOp::Lt: return Value(a < b ? 1.0 : 0.0);
      case BinOp::Le: return Value(a <= b ? 1.0 : 0.0);
      case BinOp::Gt: return Value(a > b ? 1.0 : 0.0);
      case BinOp::Ge: return Value(a >= b ? 1.0 : 0.0);
      default: return std::nullopt;
    }
  }

  // ---- expression walk: reads, calls, constant-derived errors ----

  void check_read(const std::string& name, SymId sym, SourcePos pos,
                  const State& st) {
    const SymFacts& f = syms_[sym];
    if (st.defined[sym]) return;
    if (f.constant != nullptr) return;
    if (f.arity >= 0) return;
    if (f.assigned || f.loop_var) {
      emit("BAN101", pos,
           "`" + name + "` may be read before it is assigned",
           "assign `" + name + "` on every path before this statement");
    }
    // Names never assigned anywhere are the routine's free inputs; the
    // interface layer (BAN004) checks those against the declared ports.
  }

  void walk_expr(const Expr& e, State& st) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, VarRef>) {
            check_read(node.name, node.sym, e.pos, st);
          } else if constexpr (std::is_same_v<T, VectorLit>) {
            for (const auto& el : node.elements) walk_expr(*el, st);
          } else if constexpr (std::is_same_v<T, Unary>) {
            walk_expr(*node.operand, st);
          } else if constexpr (std::is_same_v<T, pits::Binary>) {
            walk_expr(*node.lhs, st);
            walk_expr(*node.rhs, st);
            if (node.op == BinOp::Div || node.op == BinOp::Mod) {
              if (auto rhs = fold(*node.rhs, st);
                  rhs && rhs->is_scalar() && rhs->as_scalar() == 0) {
                emit("BAN104", node.rhs->pos,
                     std::string(node.op == BinOp::Div ? "division" : "mod") +
                         " by zero: the divisor is always 0",
                     "guard the division with `if` or `when(...)`");
              }
            }
          } else if constexpr (std::is_same_v<T, Index>) {
            walk_expr(*node.base, st);
            walk_expr(*node.index, st);
            check_index(node, st);
          } else if constexpr (std::is_same_v<T, Call>) {
            for (const auto& a : node.args) walk_expr(*a, st);
            check_call(node, e.pos, st);
          }
        },
        e.node);
  }

  void check_index(const Index& node, const State& st) {
    auto base = fold(*node.base, st);
    auto index = fold(*node.index, st);
    if (!base || !index || !base->is_vector() || !index->is_scalar()) return;
    const double raw = index->as_scalar();
    const std::size_t n = base->as_vector().size();
    if (std::floor(raw) != raw) {
      emit("BAN105", node.index->pos,
           "index " + util_format(raw) + " is not an integer");
    } else if (raw < 0 || raw >= static_cast<double>(n)) {
      emit("BAN105", node.index->pos,
           "index " + util_format(raw) + " is out of range [0," +
               std::to_string(n) + ")",
           "PITS vectors are 0-based");
    }
  }

  static std::string util_format(double v) {
    std::string s = std::to_string(v);
    s.erase(s.find_last_not_of('0') + 1);
    if (!s.empty() && s.back() == '.') s.pop_back();
    return s;
  }

  void check_call(const Call& node, SourcePos pos, const State& st) {
    (void)st;
    const int n = static_cast<int>(node.args.size());
    if (node.callee == "when") {
      if (n != 3) {
        emit("BAN107", pos, "when() expects (condition, then, else), got " +
                                std::to_string(n) + " argument(s)");
      }
      return;
    }
    if (const int arity = syms_[node.sym].arity; arity >= 0) {
      if (n != arity) {
        emit("BAN107", pos,
             "formula `" + node.callee + "` expects " +
                 std::to_string(arity) + " argument(s), got " +
                 std::to_string(n));
      }
      return;
    }
    const pits::Builtin* fn =
        pits::BuiltinRegistry::instance().find(node.callee);
    if (fn == nullptr) {
      std::string hint;
      if (std::string near = closest_builtin(node.callee); !near.empty()) {
        hint = "did you mean `" + near + "`?";
      }
      emit("BAN106", pos, "unknown function `" + node.callee + "`",
           std::move(hint));
      return;
    }
    if (n < fn->min_args || (fn->max_args >= 0 && n > fn->max_args)) {
      std::string expects = std::to_string(fn->min_args);
      if (fn->max_args < 0) {
        expects += "+";
      } else if (fn->max_args != fn->min_args) {
        expects += ".." + std::to_string(fn->max_args);
      }
      emit("BAN107", pos,
           "`" + node.callee + "` expects " + expects + " argument(s), got " +
               std::to_string(n));
    }
  }

  // ---- statement walk ----

  void walk_block(const Block& block, State& st) {
    bool after_return = false;
    bool unreachable_reported = false;
    for (const auto& s : block) {
      if (after_return && !unreachable_reported) {
        emit("BAN103", s->pos,
             "statement is unreachable: the routine has already returned",
             "remove the dead code or the `return` above it");
        unreachable_reported = true;
      }
      walk_stmt(*s, st);
      if (std::holds_alternative<ReturnStmt>(s->node)) after_return = true;
    }
  }

  void walk_stmt(const Stmt& s, State& st) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, AssignStmt>) {
            if (node.index) {
              check_read(node.target, node.sym, s.pos, st);
              walk_expr(*node.index, st);
              walk_expr(*node.value, st);
              st.defined[node.sym] = true;
              st.consts[node.sym].reset();
            } else {
              walk_expr(*node.value, st);
              st.defined[node.sym] = true;
              st.consts[node.sym] = fold(*node.value, st);
            }
          } else if constexpr (std::is_same_v<T, IfStmt>) {
            walk_if(node, st);
          } else if constexpr (std::is_same_v<T, WhileStmt>) {
            walk_while(node, s.pos, st);
          } else if constexpr (std::is_same_v<T, RepeatStmt>) {
            walk_expr(*node.count, st);
            walk_loop_body(node.body, st, pits::kNoSym);
          } else if constexpr (std::is_same_v<T, ForStmt>) {
            walk_expr(*node.from, st);
            walk_expr(*node.to, st);
            if (node.step) walk_expr(*node.step, st);
            // The loop variable is assigned only when the body runs, so
            // it is not must-defined after the loop.
            walk_loop_body(node.body, st, node.sym);
          } else if constexpr (std::is_same_v<T, FormulaDef>) {
            // Bodies see only parameters + constants. One scope serves
            // every formula: its parameter bits are set for this body
            // and cleared after it, and walking a body assigns nothing.
            if (formula_scope_.defined.size() != syms_.size()) {
              formula_scope_.defined.assign(syms_.size(), false);
              formula_scope_.consts.resize(syms_.size());
            }
            for (const SymId p : node.param_syms)
              formula_scope_.defined[p] = true;
            walk_formula_body(*node.body, node, formula_scope_);
            for (const SymId p : node.param_syms)
              formula_scope_.defined[p] = false;
          } else if constexpr (std::is_same_v<T, ExprStmt>) {
            walk_expr(*node.expr, st);
          } else {
            (void)node;  // ReturnStmt
          }
        },
        s.node);
  }

  void walk_if(const IfStmt& node, State& st) {
    for (const auto& arm : node.arms) walk_expr(*arm.cond, st);
    std::vector<State> outcomes;
    for (const auto& arm : node.arms) {
      State branch = st;
      walk_block(arm.body, branch);
      outcomes.push_back(std::move(branch));
    }
    State else_branch = st;
    walk_block(node.else_body, else_branch);
    outcomes.push_back(std::move(else_branch));
    // Join: a variable is defined/constant after the if only when every
    // branch (including the implicit empty else) agrees.
    State joined = std::move(outcomes.back());
    outcomes.pop_back();
    for (const State& o : outcomes) {
      for (SymId v = 0; v < syms_.size(); ++v) {
        if (!o.defined[v]) joined.defined[v] = false;
        std::optional<Value>& c = joined.consts[v];
        if (c && !(o.consts[v] && o.consts[v]->equals(*c))) c.reset();
      }
    }
    st = std::move(joined);
  }

  void walk_while(const WhileStmt& node, SourcePos pos, State& st) {
    walk_expr(*node.cond, st);
    if (auto cond = fold(*node.cond, st); cond && cond->truthy()) {
      std::vector<SymId> cond_vars;
      vars_in(*node.cond, cond_vars);
      bool vars_change = false;
      for_each_assigned(node.body, [&](SymId v) {
        vars_change = vars_change || std::find(cond_vars.begin(),
                                               cond_vars.end(),
                                               v) != cond_vars.end();
      });
      if (!vars_change && !returns_in(node.body)) {
        emit("BAN108", pos,
             "loop condition is always true and nothing in the body changes "
             "it",
             "assign one of the condition's variables inside the loop, or "
             "add a `return`");
      }
    }
    walk_loop_body(node.body, st, pits::kNoSym);
  }

  /// Analyses a loop body against a state in which every variable the
  /// body assigns has lost its constant (the back edge invalidates first-
  /// iteration knowledge). Definitions made inside the body do not escape
  /// (the body may run zero times).
  void walk_loop_body(const Block& body, State& st, SymId loop_var) {
    for_each_assigned(body, [&](SymId v) { st.consts[v].reset(); });
    if (loop_var != pits::kNoSym) st.consts[loop_var].reset();
    State inner = st;
    if (loop_var != pits::kNoSym) inner.defined[loop_var] = true;
    walk_block(body, inner);
  }

  void walk_formula_body(const Expr& body, const FormulaDef& def,
                         State& scope) {
    // Reads of task variables inside a formula are runtime errors (the
    // body sees only its parameters); check_read reports them as BAN101
    // when the name is assigned elsewhere in the routine.
    (void)def;
    walk_expr(body, scope);
  }

  // ---- dead stores ----

  /// Reported in name order.
  void report_dead_stores() {
    std::vector<const SymFacts*> dead;
    for (const SymFacts& f : syms_) {
      if (!f.assigned || f.read) continue;
      if (std::find(ctx_.outputs.begin(), ctx_.outputs.end(), f.name) !=
          ctx_.outputs.end()) {
        continue;
      }
      dead.push_back(&f);
    }
    std::sort(dead.begin(), dead.end(),
              [](const SymFacts* a, const SymFacts* b) {
                return a->name < b->name;
              });
    for (const SymFacts* f : dead) {
      const std::string var(f->name);
      emit("BAN102", f->first_assign,
           "`" + var + "` is assigned but its value is never used",
           "remove the assignment, or declare `" + var +
               "` as an output (out=)");
    }
  }

  const RoutineContext& ctx_;
  std::vector<Diagnostic>& sink_;
  std::vector<SymFacts> syms_;  ///< by symbol
  State formula_scope_;         ///< see the FormulaDef case of walk_stmt
};

}  // namespace

void analyze_routine(const pits::Block& body, const RoutineContext& context,
                     std::vector<Diagnostic>& sink) {
  RoutineAnalyzer(context, sink).run(body);
}

}  // namespace banger::analyze::reference
