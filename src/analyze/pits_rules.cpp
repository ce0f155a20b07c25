// The syntactic half of the PITS routine rules (see pits_rules.hpp): the
// census and the rules that need no flow analysis. They mirror the
// interpreter's semantics (interp.cpp): `when` is a 3-argument special
// form, formula bodies see only their parameters and the constants.
// Per-symbol state is indexed by the parser's symbol ids.
#include "analyze/pits_rules.hpp"

#include <algorithm>

#include "pits/builtins.hpp"

namespace banger::analyze {

namespace {

using pits::AssignStmt;
using pits::BinOp;
using pits::Block;
using pits::Call;
using pits::Expr;
using pits::ForStmt;
using pits::FormulaDef;
using pits::Index;
using pits::ReturnStmt;
using pits::Stmt;
using pits::SymId;
using pits::VarRef;

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

bool is_param(const FormulaDef& def, SymId sym) {
  return std::ranges::count(def.param_syms, sym) > 0;
}

}  // namespace

std::vector<SymId> assigned_in(const Block& block) {
  std::vector<SymId> out;
  for_each_stmt(block, [&](const Stmt& s) {
    if (const auto* a = std::get_if<AssignStmt>(&s.node)) {
      out.push_back(a->sym);
    } else if (const auto* f = std::get_if<ForStmt>(&s.node)) {
      out.push_back(f->sym);
    }
  });
  return out;
}

bool block_returns(const Block& block) {
  bool found = false;
  for_each_stmt(block, [&](const Stmt& s) {
    found = found || std::holds_alternative<ReturnStmt>(s.node);
  });
  return found;
}

PitsRules::PitsRules(const Block& body, const RoutineContext& context,
                     std::vector<Diagnostic>& sink)
    : ctx_(context), sink_(sink) {
  const std::vector<std::string_view> names = pits::symbol_names(body);
  syms_.resize(names.size());
  for (std::size_t s = 0; s < names.size(); ++s) {
    syms_[s].name = names[s];
    if (auto c = pits::constants().find(names[s]);
        c != pits::constants().end()) {
      syms_[s].constant = &c->second;
    }
  }
  take_census(body);
  check_statements(body);
  report_dead_stores();
}

// ---- reporting ----

SourcePos PitsRules::at(SourcePos p) const {
  if (!p.valid() || ctx_.pits_line <= 0) return p;
  return {ctx_.pits_line + p.line - 1, p.column + ctx_.pits_indent};
}

void PitsRules::report(std::string code, SourcePos pos, std::string message,
                       std::string hint) const {
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

// ---- census and syntactic rules ----

/// Which variables are read anywhere, the first assignment of each (for
/// dead stores), the loop variables and the formulas' arities. Formula
/// parameters shadow task variables inside formula bodies.
void PitsRules::take_census(const Block& body) {
  for_each_stmt(body, [&](const Stmt& s) {
    const auto* def = std::get_if<FormulaDef>(&s.node);
    auto note_reads = [&](const Expr& root) {
      for_each_expr(root, [&](const Expr& e) {
        const auto* v = std::get_if<VarRef>(&e.node);
        if (v != nullptr && (def == nullptr || !is_param(*def, v->sym)))
          syms_[v->sym].read = true;
      });
    };
    for_each_root(s, note_reads);
    if (def != nullptr) {
      note_reads(*def->body);
      if (syms_[def->sym].arity < 0)
        syms_[def->sym].arity = static_cast<int>(def->params.size());
    } else if (const auto* a = std::get_if<AssignStmt>(&s.node)) {
      SymFacts& f = syms_[a->sym];
      if (a->index) f.read = true;  // an element assignment reads the vector
      if (!f.assigned) {
        f.assigned = true;
        f.first_assign = s.pos;
      }
    } else if (const auto* f = std::get_if<ForStmt>(&s.node)) {
      syms_[f->sym].loop_var = true;
    }
  });
}

/// BAN103 once per block, every call's BAN106/BAN107, and the formula
/// bodies, wherever they sit: none of these needs the flow analysis.
void PitsRules::check_statements(const Block& body) {
  auto check_block = [&](const Block& block) {
    auto ret = std::find_if(block.begin(), block.end(), [](const auto& s) {
      return std::holds_alternative<ReturnStmt>(s->node);
    });
    if (ret != block.end() && ret + 1 != block.end()) {
      report("BAN103", (*(ret + 1))->pos,
             "statement is unreachable: the routine has already returned",
             "remove the dead code or the `return` above it");
    }
  };
  check_block(body);
  for_each_stmt(body, [&](const Stmt& s) {
    for_each_body(s, check_block);
    for_each_root(s, [&](const Expr& root) {
      for_each_expr(root, [&](const Expr& e) {
        if (const auto* call = std::get_if<Call>(&e.node))
          check_call(*call, e.pos);
      });
    });
    const auto* def = std::get_if<FormulaDef>(&s.node);
    if (def == nullptr) return;
    // A body sees only its parameters and the constants, so a read of a
    // task variable is a runtime error, reported as BAN101 when the
    // routine assigns the name elsewhere. It folds literals only.
    const Consts none;
    for_each_expr(*def->body, [&](const Expr& e) {
      if (const auto* v = std::get_if<VarRef>(&e.node)) {
        if (!is_param(*def, v->sym)) check_read(v->sym, e.pos);
      } else if (const auto* b = std::get_if<pits::Binary>(&e.node)) {
        if (b->op == BinOp::Div || b->op == BinOp::Mod) check_divisor(*b, none);
      } else if (const auto* i = std::get_if<Index>(&e.node)) {
        check_index(*i, none);
      } else if (const auto* call = std::get_if<Call>(&e.node)) {
        check_call(*call, e.pos);
      }
    });
  });
}

void PitsRules::check_call(const Call& node, SourcePos pos) const {
  const int n = static_cast<int>(node.args.size());
  if (node.callee == "when") {
    if (n != 3) {
      report("BAN107", pos, "when() expects (condition, then, else), got " +
                                std::to_string(n) + " argument(s)");
    }
    return;
  }
  if (const int arity = syms_[node.sym].arity; arity >= 0) {
    if (n != arity) {
      report("BAN107", pos,
             "formula `" + node.callee + "` expects " + std::to_string(arity) +
                 " argument(s), got " + std::to_string(n));
    }
    return;
  }
  const pits::Builtin* fn = pits::BuiltinRegistry::instance().find(node.callee);
  if (fn == nullptr) {
    std::string hint;
    if (std::string near = closest_builtin(node.callee); !near.empty()) {
      hint = "did you mean `" + near + "`?";
    }
    report("BAN106", pos, "unknown function `" + node.callee + "`",
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
    report("BAN107", pos,
           "`" + node.callee + "` expects " + expects + " argument(s), got " +
               std::to_string(n));
  }
}

/// Reported in name order.
void PitsRules::report_dead_stores() const {
  std::vector<const SymFacts*> dead;
  for (const SymFacts& f : syms_) {
    if (!f.assigned || f.read) continue;
    if (std::find(ctx_.outputs.begin(), ctx_.outputs.end(), f.name) !=
        ctx_.outputs.end()) {
      continue;
    }
    dead.push_back(&f);
  }
  std::sort(dead.begin(), dead.end(), [](const SymFacts* a, const SymFacts* b) {
    return a->name < b->name;
  });
  for (const SymFacts* f : dead) {
    const std::string var(f->name);
    report("BAN102", f->first_assign,
           "`" + var + "` is assigned but its value is never used",
           "remove the assignment, or declare `" + var +
               "` as an output (out=)");
  }
}

}  // namespace banger::analyze
