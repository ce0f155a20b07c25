// banger/analyze/pits_rules.hpp
//
// The PITS routine rules (BAN101-BAN108) without a flow analysis of their
// own: PitsRules takes a census of a routine and reports its syntactic
// rules (pits_rules.cpp), and the abstract interpreter, the routine's one
// flow analysis, calls its value rules, defined beside it in absint.cpp,
// at each site it proves can run, with the folded constants it tracks.
// Internal to src/analyze.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>
#include <vector>

#include "analyze/analyze.hpp"
#include "pits/ast.hpp"
#include "pits/value.hpp"

namespace banger::analyze {

/// The folded constant of each symbol at one point of a routine, indexed
/// by symbol; nullopt, or a symbol past the end, is not a constant.
using Consts = std::vector<std::optional<pits::Value>>;

/// Calls fn(body) for each block nested directly in `s`.
template <typename Fn>
void for_each_body(const pits::Stmt& s, const Fn& fn) {
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, pits::IfStmt>) {
          for (const auto& arm : node.arms) fn(arm.body);
          fn(node.else_body);
        } else if constexpr (std::is_same_v<T, pits::WhileStmt> ||
                             std::is_same_v<T, pits::RepeatStmt> ||
                             std::is_same_v<T, pits::ForStmt>) {
          fn(node.body);
        }
      },
      s.node);
}

/// Calls fn(s) for each statement of `block` at any depth, in source order.
template <typename Fn>
void for_each_stmt(const pits::Block& block, const Fn& fn) {
  for (const auto& s : block) {
    fn(*s);
    for_each_body(*s,
                  [&](const pits::Block& body) { for_each_stmt(body, fn); });
  }
}

/// Calls fn(e) for each expression `s` evaluates itself, outside its
/// nested blocks. A formula definition evaluates none.
template <typename Fn>
void for_each_root(const pits::Stmt& s, const Fn& fn) {
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, pits::AssignStmt>) {
          if (node.index) fn(*node.index);
          fn(*node.value);
        } else if constexpr (std::is_same_v<T, pits::IfStmt>) {
          for (const auto& arm : node.arms) fn(*arm.cond);
        } else if constexpr (std::is_same_v<T, pits::WhileStmt>) {
          fn(*node.cond);
        } else if constexpr (std::is_same_v<T, pits::RepeatStmt>) {
          fn(*node.count);
        } else if constexpr (std::is_same_v<T, pits::ForStmt>) {
          fn(*node.from);
          fn(*node.to);
          if (node.step) fn(*node.step);
        } else if constexpr (std::is_same_v<T, pits::ExprStmt>) {
          fn(*node.expr);
        }
      },
      s.node);
}

/// Calls fn(e) for `e` and each expression inside it.
template <typename Fn>
void for_each_expr(const pits::Expr& e, const Fn& fn) {
  fn(e);
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, pits::VectorLit>) {
          for (const auto& el : node.elements) for_each_expr(*el, fn);
        } else if constexpr (std::is_same_v<T, pits::Unary>) {
          for_each_expr(*node.operand, fn);
        } else if constexpr (std::is_same_v<T, pits::Binary>) {
          for_each_expr(*node.lhs, fn);
          for_each_expr(*node.rhs, fn);
        } else if constexpr (std::is_same_v<T, pits::Index>) {
          for_each_expr(*node.base, fn);
          for_each_expr(*node.index, fn);
        } else if constexpr (std::is_same_v<T, pits::Call>) {
          for (const auto& a : node.args) for_each_expr(*a, fn);
        }
      },
      e.node);
}

/// Every variable `block` assigns at any depth, for-loop variables
/// included, in statement order (repeats kept).
[[nodiscard]] std::vector<pits::SymId> assigned_in(const pits::Block& block);

/// Whether `block` holds a `return` at any depth.
[[nodiscard]] bool block_returns(const pits::Block& block);

class PitsRules {
 public:
  /// Takes the census of `body` and reports its syntactic rules to
  /// `sink`: BAN102 dead stores, BAN103 code after `return`, BAN106 and
  /// BAN107 calls, and BAN101, BAN104 and BAN105 inside formula bodies,
  /// which see only their parameters and the calculator constants.
  PitsRules(const pits::Block& body, const RoutineContext& context,
            std::vector<Diagnostic>& sink);

  /// Appends a finding about the routine, `pos` moved to file coordinates.
  void report(std::string code, SourcePos pos, std::string message,
              std::string hint = {}) const;

  /// `pos` moved from routine to file coordinates.
  [[nodiscard]] SourcePos at(SourcePos pos) const;

  /// Constant-folds `e` over `consts` and the calculator constants: scalar
  /// and literal-vector arithmetic, no calls.
  [[nodiscard]] std::optional<pits::Value> fold(const pits::Expr& e,
                                                const Consts& consts) const;

  /// BAN101 for a read of `sym` at `pos` that the flow analysis could not
  /// prove assigned, when the routine assigns `sym` somewhere.
  void check_read(pits::SymId sym, SourcePos pos) const;
  /// BAN104 when the divisor of `node` folds to 0. Returns whether it fired.
  bool check_divisor(const pits::Binary& node, const Consts& consts) const;
  /// BAN105 when `node` folds to a constant vector indexed out of range or
  /// at a fraction. Returns whether it fired.
  bool check_index(const pits::Index& node, const Consts& consts) const;
  /// BAN108 when the condition of the `while` at `pos` folds true, the
  /// body (which assigns `assigned`) changes none of its variables and
  /// cannot return. Returns whether it fired.
  bool check_while(const pits::WhileStmt& node, SourcePos pos,
                   const Consts& consts,
                   const std::vector<pits::SymId>& assigned) const;

 private:
  /// What the routine as a whole does with one symbol.
  struct SymFacts {
    std::string_view name;
    const double* constant = nullptr;  ///< the calculator constant so named
    int arity = -1;                    ///< of the first formula so named
    bool read = false;                 ///< read anywhere
    bool loop_var = false;             ///< a for-loop variable
    bool assigned = false;             ///< assigned anywhere
    SourcePos first_assign;            ///< first such assignment
  };

  void take_census(const pits::Block& body);
  void check_statements(const pits::Block& body);
  void check_call(const pits::Call& node, SourcePos pos) const;
  std::optional<pits::Value> fold_binary(const pits::Binary& node,
                                         const Consts& consts) const;
  void report_dead_stores() const;

  const RoutineContext& ctx_;
  std::vector<Diagnostic>& sink_;
  std::vector<SymFacts> syms_;  ///< by symbol
};

}  // namespace banger::analyze
