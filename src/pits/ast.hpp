// banger/pits/ast.hpp
//
// Abstract syntax of PITS programs. Nodes are a closed variant set; the
// interpreter and the pretty-printer visit with std::visit.
//
// Symbols: the parser numbers a routine's distinct identifiers densely,
// from 0, in order of first appearance, and stores the number on every
// node that names something. Equal names in one parse share a SymId
// whatever they name (a variable, a formula, a builtin, a parameter),
// so the analyses and the compiler keep per-name state in arrays
// indexed by it. The spelling stays on the node for printing, error
// messages and the reference tree-walker in tests/.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/error.hpp"

namespace banger::pits {

/// Dense per-parse identifier number; see the header comment.
using SymId = std::uint32_t;
inline constexpr SymId kNoSym = ~SymId{0};

/// A fixed-length array the parser fills once, with a vector's read
/// interface in a 16-byte handle. Call and FormulaDef use it so that,
/// with their symbol ids added, every node keeps the size (and malloc
/// size class) it had without them.
template <typename T>
class NodeArray {
 public:
  NodeArray() = default;
  explicit NodeArray(std::vector<T> items)
      : items_(items.empty() ? nullptr
                             : std::make_unique<T[]>(items.size())),
        size_(static_cast<std::uint32_t>(items.size())) {
    std::move(items.begin(), items.end(), items_.get());
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  const T& operator[](std::size_t i) const { return items_[i]; }
  const T* begin() const noexcept { return items_.get(); }
  const T* end() const noexcept { return items_.get() + size_; }

 private:
  std::unique_ptr<T[]> items_;
  std::uint32_t size_ = 0;
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class BinOp : std::uint8_t {
  Add, Sub, Mul, Div, Mod, Pow,
  Eq, Ne, Lt, Le, Gt, Ge,
  And, Or,
};
enum class UnOp : std::uint8_t { Neg, Not };

std::string_view to_string(BinOp op) noexcept;
std::string_view to_string(UnOp op) noexcept;

struct NumberLit {
  double value = 0.0;
};
struct StringLit {
  std::string value;
};
struct VarRef {
  std::string name;
  SymId sym = kNoSym;
};
struct VectorLit {
  std::vector<ExprPtr> elements;
};
struct Unary {
  UnOp op = UnOp::Neg;
  ExprPtr operand;
};
struct Binary {
  BinOp op = BinOp::Add;
  ExprPtr lhs;
  ExprPtr rhs;
};
/// base[index]; base must evaluate to a vector, index to a number.
struct Index {
  ExprPtr base;
  ExprPtr index;
};
/// Builtin (calculator button) invocation: sqrt(x), dot(a,b), ...
struct Call {
  std::string callee;
  NodeArray<ExprPtr> args;
  SymId sym = kNoSym;  ///< of `callee`
};

struct Expr {
  SourcePos pos;
  std::variant<NumberLit, StringLit, VarRef, VectorLit, Unary, Binary, Index,
               Call>
      node;
};

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;
using Block = std::vector<StmtPtr>;

/// `name := expr` or `name[i] := expr` (element assignment).
struct AssignStmt {
  std::string target;
  SymId sym = kNoSym;  ///< of `target`
  ExprPtr index;  ///< null for whole-variable assignment
  ExprPtr value;
};
struct IfStmt {
  struct Arm {
    ExprPtr cond;
    Block body;
  };
  std::vector<Arm> arms;  ///< if + elsif chain, in order
  Block else_body;
};
struct WhileStmt {
  ExprPtr cond;
  Block body;
};
/// `repeat n times ... end` — the calculator's friendly counted loop.
struct RepeatStmt {
  ExprPtr count;
  Block body;
};
struct ForStmt {
  std::string var;
  SymId sym = kNoSym;  ///< of `var`
  ExprPtr from;
  ExprPtr to;
  ExprPtr step;  ///< null means step 1
  Block body;
};
struct ReturnStmt {};
/// `formula name(p1, p2) := expr` — a pure user function of its
/// parameters (and the constants); it cannot read task variables.
/// Formulas may call other formulas (and themselves) defined earlier.
struct FormulaDef {
  std::string name;
  SymId sym = kNoSym;  ///< of `name`
  std::vector<std::string> params;
  NodeArray<SymId> param_syms;  ///< of each of `params`
  ExprPtr body;
};
/// Expression evaluated for effect; only calls make sense (print).
struct ExprStmt {
  ExprPtr expr;
};

struct Stmt {
  SourcePos pos;
  std::variant<AssignStmt, IfStmt, WhileStmt, RepeatStmt, ForStmt, ReturnStmt,
               FormulaDef, ExprStmt>
      node;
};

/// How deep a routine may nest. Each statement body (if, while, repeat,
/// for) is one level; inside an expression, every operator, call,
/// index, vector literal and pair of parentheses is one level above its
/// deepest operand, and a literal or name is one level. `y := abs(x)`
/// nests 2 levels. Every AST walker (analysis, compilation, printing,
/// destruction) recurses about once per level, so the cap keeps them
/// well inside a worker thread's stack whatever the input.
inline constexpr int kMaxNesting = 200;

struct Token;  // pits/token.hpp

/// Parses a whole routine body; throws Error{Parse}, positioned, on bad
/// syntax and on routines nested deeper than kMaxNesting. Every
/// name-bearing node gets its SymId.
Block parse_block(std::string_view source);
/// parse_block over tokens already lexed: parse_block(source) is this
/// over lex(source).
Block parse_block(std::vector<Token> tokens);

/// The spelling of each symbol in `block`, indexed by SymId: one entry
/// per id up to the largest the block carries. Views the block's nodes.
std::vector<std::string_view> symbol_names(const Block& block);

/// Renders a Block back to canonical PITS source (used by the calculator
/// panel's program window and by the round-trip tests).
std::string to_source(const Block& block, int indent = 0);

/// Free variables: names read before being assigned anywhere on some
/// path — the routine's implicit inputs. Sorted, unique. A constant's
/// name counts only where a bound input would shadow it, outside formula
/// bodies.
std::vector<std::string> free_variables(const Block& block);

/// Names assigned anywhere — the candidates for outputs. Sorted, unique.
std::vector<std::string> assigned_variables(const Block& block);

}  // namespace banger::pits
