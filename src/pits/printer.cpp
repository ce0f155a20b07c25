// Pretty-printer and static variable analyses over the PITS AST.
#include <algorithm>
#include <set>

#include "pits/ast.hpp"
#include "pits/builtins.hpp"
#include "util/strings.hpp"

namespace banger::pits {

namespace {

void print_expr(const Expr& e, std::string& out);

template <typename List>
void print_args(const List& args, std::string& out) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    print_expr(*args[i], out);
  }
}

/// Parenthesize operands conservatively: child binaries always get
/// parens, which keeps the printer simple and the output unambiguous.
void print_operand(const Expr& e, std::string& out) {
  const bool wrap = std::holds_alternative<Binary>(e.node);
  if (wrap) out += '(';
  print_expr(e, out);
  if (wrap) out += ')';
}

void print_expr(const Expr& e, std::string& out) {
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, NumberLit>) {
          out += util::format_double(node.value, 15);
        } else if constexpr (std::is_same_v<T, StringLit>) {
          out += '"';
          for (char c : node.value) {
            if (c == '"') out += "\\\"";
            else if (c == '\n') out += "\\n";
            else if (c == '\t') out += "\\t";
            else if (c == '\\') out += "\\\\";
            else out += c;
          }
          out += '"';
        } else if constexpr (std::is_same_v<T, VarRef>) {
          out += node.name;
        } else if constexpr (std::is_same_v<T, VectorLit>) {
          out += '[';
          print_args(node.elements, out);
          out += ']';
        } else if constexpr (std::is_same_v<T, Unary>) {
          out += to_string(node.op);
          print_operand(*node.operand, out);
        } else if constexpr (std::is_same_v<T, Binary>) {
          print_operand(*node.lhs, out);
          out += ' ';
          out += to_string(node.op);
          out += ' ';
          print_operand(*node.rhs, out);
        } else if constexpr (std::is_same_v<T, Index>) {
          print_operand(*node.base, out);
          out += '[';
          print_expr(*node.index, out);
          out += ']';
        } else if constexpr (std::is_same_v<T, Call>) {
          out += node.callee;
          out += '(';
          print_args(node.args, out);
          out += ')';
        }
      },
      e.node);
}

void print_block(const Block& block, int indent, std::string& out);

void print_stmt(const Stmt& s, int indent, std::string& out) {
  const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
  std::visit(
      [&](const auto& node) {
        using T = std::decay_t<decltype(node)>;
        if constexpr (std::is_same_v<T, AssignStmt>) {
          out += pad + node.target;
          if (node.index) {
            out += '[';
            print_expr(*node.index, out);
            out += ']';
          }
          out += " := ";
          print_expr(*node.value, out);
          out += '\n';
        } else if constexpr (std::is_same_v<T, IfStmt>) {
          for (std::size_t i = 0; i < node.arms.size(); ++i) {
            out += pad + (i == 0 ? "if " : "elsif ");
            print_expr(*node.arms[i].cond, out);
            out += " then\n";
            print_block(node.arms[i].body, indent + 1, out);
          }
          if (!node.else_body.empty()) {
            out += pad + "else\n";
            print_block(node.else_body, indent + 1, out);
          }
          out += pad + "end\n";
        } else if constexpr (std::is_same_v<T, WhileStmt>) {
          out += pad + "while ";
          print_expr(*node.cond, out);
          out += " do\n";
          print_block(node.body, indent + 1, out);
          out += pad + "end\n";
        } else if constexpr (std::is_same_v<T, RepeatStmt>) {
          out += pad + "repeat ";
          print_expr(*node.count, out);
          out += " times\n";
          print_block(node.body, indent + 1, out);
          out += pad + "end\n";
        } else if constexpr (std::is_same_v<T, ForStmt>) {
          out += pad + "for " + node.var + " := ";
          print_expr(*node.from, out);
          out += " to ";
          print_expr(*node.to, out);
          if (node.step) {
            out += " step ";
            print_expr(*node.step, out);
          }
          out += " do\n";
          print_block(node.body, indent + 1, out);
          out += pad + "end\n";
        } else if constexpr (std::is_same_v<T, ReturnStmt>) {
          out += pad + "return\n";
        } else if constexpr (std::is_same_v<T, FormulaDef>) {
          out += pad + "formula " + node.name + "(";
          for (std::size_t i = 0; i < node.params.size(); ++i) {
            if (i > 0) out += ", ";
            out += node.params[i];
          }
          out += ") := ";
          print_expr(*node.body, out);
          out += '\n';
        } else if constexpr (std::is_same_v<T, ExprStmt>) {
          out += pad;
          print_expr(*node.expr, out);
          out += '\n';
        }
      },
      s.node);
}

void print_block(const Block& block, int indent, std::string& out) {
  for (const StmtPtr& s : block) print_stmt(*s, indent, out);
}

// ---- variable analyses ----

struct VarWalk {
  std::set<std::string> assigned;
  std::set<std::string> free;  // read with no prior assignment
  bool in_formula = false;

  void read(const std::string& name) {
    // A formula body sees only its parameters and the constants, so a
    // constant name there is the constant, never an input.
    if (in_formula && constants().contains(name)) return;
    if (!assigned.contains(name)) free.insert(name);
  }

  void walk_expr(const Expr& e) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, VarRef>) {
            read(node.name);
          } else if constexpr (std::is_same_v<T, VectorLit>) {
            for (const auto& el : node.elements) walk_expr(*el);
          } else if constexpr (std::is_same_v<T, Unary>) {
            walk_expr(*node.operand);
          } else if constexpr (std::is_same_v<T, Binary>) {
            walk_expr(*node.lhs);
            walk_expr(*node.rhs);
          } else if constexpr (std::is_same_v<T, Index>) {
            walk_expr(*node.base);
            walk_expr(*node.index);
          } else if constexpr (std::is_same_v<T, Call>) {
            for (const auto& a : node.args) walk_expr(*a);
          }
        },
        e.node);
  }

  void walk_block(const Block& block) {
    for (const StmtPtr& s : block) walk_stmt(*s);
  }

  void walk_stmt(const Stmt& s) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, AssignStmt>) {
            if (node.index) {
              // Element assignment reads the existing vector.
              read(node.target);
              walk_expr(*node.index);
            }
            walk_expr(*node.value);
            assigned.insert(node.target);
          } else if constexpr (std::is_same_v<T, IfStmt>) {
            // Conservative: a variable assigned only inside a branch is
            // still "assigned" for reads *after* the if; free-variable
            // analysis therefore under-approximates on some paths, which
            // is the friendly behaviour for lint purposes.
            for (const auto& arm : node.arms) {
              walk_expr(*arm.cond);
              walk_block(arm.body);
            }
            walk_block(node.else_body);
          } else if constexpr (std::is_same_v<T, WhileStmt>) {
            walk_expr(*node.cond);
            walk_block(node.body);
          } else if constexpr (std::is_same_v<T, RepeatStmt>) {
            walk_expr(*node.count);
            walk_block(node.body);
          } else if constexpr (std::is_same_v<T, ForStmt>) {
            walk_expr(*node.from);
            walk_expr(*node.to);
            if (node.step) walk_expr(*node.step);
            assigned.insert(node.var);
            walk_block(node.body);
          } else if constexpr (std::is_same_v<T, ReturnStmt>) {
            // nothing
          } else if constexpr (std::is_same_v<T, FormulaDef>) {
            // Parameters are bound inside the body; anything else the
            // body reads would be a runtime error, surface it as free.
            std::vector<std::string> fresh;
            for (const std::string& param : node.params) {
              if (!assigned.contains(param)) {
                assigned.insert(param);
                fresh.push_back(param);
              }
            }
            in_formula = true;
            walk_expr(*node.body);
            in_formula = false;
            for (const std::string& param : fresh) assigned.erase(param);
          } else if constexpr (std::is_same_v<T, ExprStmt>) {
            walk_expr(*node.expr);
          }
        },
        s.node);
  }
};

}  // namespace

std::string to_source(const Block& block, int indent) {
  std::string out;
  print_block(block, indent, out);
  return out;
}

std::vector<std::string> free_variables(const Block& block) {
  VarWalk walk;
  walk.walk_block(block);
  return {walk.free.begin(), walk.free.end()};
}

std::vector<std::string> assigned_variables(const Block& block) {
  VarWalk walk;
  walk.walk_block(block);
  return {walk.assigned.begin(), walk.assigned.end()};
}

}  // namespace banger::pits
