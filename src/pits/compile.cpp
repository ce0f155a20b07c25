// banger/pits/compile.cpp
//
// Single-pass AST -> bytecode compiler. Three jobs:
//   1. Slot assignment: a pre-pass gives every top-level variable a
//      dense frame slot, so the VM reads registers where the tree-walker
//      did std::map lookups. Calculator constants the Env might shadow
//      (a task input named `pi`) resolve through CheckVar at run time.
//      The compiler's own tables are indexed by the parser's symbol
//      ids; slots, names and constants are numbered in first-use order.
//      Positions and names lower to token indices, which is what lets
//      every routine of one shape share the chunk.
//   2. Constant folding into a deduplicated pool — only where the
//      tree-walker could not have raised an error (division by zero,
//      string negation, ... stay as runtime instructions).
//   3. Direct opcodes for control flow: repeat/for lower to fused
//      counter instructions that carry the per-iteration step-limit
//      tick, and `when`/`and`/`or` lower to jumps so only the selected
//      operand executes, exactly like the tree-walker's short-circuit.
//
// Compilation is total: code that can only fail (calling an unknown
// name, shadowing a builtin with a formula) compiles to an instruction
// that raises the tree-walker's error when — and only when — reached.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "pits/builtins.hpp"
#include "pits/bytecode.hpp"
#include "pits/facts.hpp"

// Instructions are emitted with designated initializers naming only the
// operands an opcode uses; every Instr field carries a default member
// initializer, so the "missing initializer" diagnostic is noise here.
#if defined(__GNUC__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace banger::pits::bc {

namespace {

/// Scalar arithmetic foldable only when the tree-walker could not have
/// raised: division/mod by zero and NaN-from-real pow stay runtime.
std::optional<double> fold_scalar_op(BinOp op, double a, double b) {
  switch (op) {
    case BinOp::Add: return a + b;
    case BinOp::Sub: return a - b;
    case BinOp::Mul: return a * b;
    case BinOp::Div:
      if (b == 0) return std::nullopt;
      return a / b;
    case BinOp::Mod:
      if (b == 0) return std::nullopt;
      return std::fmod(a, b);
    case BinOp::Pow: {
      const double r = std::pow(a, b);
      if (std::isnan(r) && !std::isnan(a) && !std::isnan(b)) {
        return std::nullopt;
      }
      return r;
    }
    default: return std::nullopt;
  }
}

Op arith_op(BinOp op) {
  switch (op) {
    case BinOp::Add: return Op::Add;
    case BinOp::Sub: return Op::Sub;
    case BinOp::Mul: return Op::Mul;
    case BinOp::Div: return Op::Div;
    case BinOp::Mod: return Op::Mod;
    case BinOp::Pow: return Op::Pow;
    case BinOp::Eq: return Op::CmpEq;
    case BinOp::Ne: return Op::CmpNe;
    case BinOp::Lt: return Op::Lt;
    case BinOp::Le: return Op::Le;
    case BinOp::Gt: return Op::Gt;
    case BinOp::Ge: return Op::Ge;
    default: BANGER_ASSERT(false, "logical op has no direct opcode");
  }
}

/// A compiled operand: the register holding the value and whether that
/// register is a dead temporary after one use (movable by the consumer).
struct Operand {
  std::uint32_t reg = 0;
  bool temp = false;
};

/// Per-body compile state: the instruction stream under construction
/// plus a stack-disciplined temp allocator and, for the routine's top
/// level, the must-be-bound set that lets CheckVar instructions be
/// elided on re-reads.
struct Frame {
  Code code;
  std::uint32_t next_temp = 0;
  std::uint32_t high_water = 0;
  bool in_formula = false;
  /// readable[slot]: every execution path reaching the instruction now
  /// being emitted has already bound or checked the slot.
  std::vector<char> readable;
};

class Compiler {
 public:
  Compiler(const Block& body, const Binding& tokens,
           const AnalysisFacts* facts)
      : tokens_(tokens), facts_(facts) {
    collect_block(body);
    Frame f;
    f.next_temp = static_cast<std::uint32_t>(chunk_.vars.size());
    f.high_water = f.next_temp;
    f.readable.assign(chunk_.vars.size(), 0);
    compile_block(f, body);
    emit(f, {.op = Op::Halt});
    f.code.num_regs = f.high_water;
    f.code.first_temp = static_cast<std::uint32_t>(chunk_.vars.size());
    chunk_.main = std::move(f.code);
    chunk_.num_formula_names = num_formula_names_;
  }

  Chunk take() { return std::move(chunk_); }

 private:
  // ---- interning ----------------------------------------------------

  static constexpr std::uint32_t kNone = UINT32_MAX;

  /// Entry `sym` of a per-symbol table, growing it as ids appear.
  template <typename T>
  static T& by_sym(std::vector<T>& table, SymId sym, T none) {
    if (sym >= table.size()) table.resize(sym + 1, none);
    return table[sym];
  }

  /// The token a position names; every AST position is a token start.
  [[nodiscard]] TokenIndex at(SourcePos p) const { return tokens_.token_at(p); }

  std::uint32_t name_id(SymId sym) {
    std::uint32_t& id = by_sym(name_ids_, sym, kNone);
    if (id != kNone) return id;
    id = static_cast<std::uint32_t>(chunk_.names.size());
    BANGER_ASSERT(sym < tokens_.first().size(),
                  "compile needs the binding of the tokens it parsed");
    chunk_.names.push_back(tokens_.first()[sym]);
    return id;
  }

  std::uint32_t const_id(Value v) {
    const auto next = static_cast<std::uint32_t>(chunk_.consts.size());
    if (v.is_scalar()) {
      // Dedup by bit pattern: -0.0 and 0.0 display differently, and NaN
      // never compares equal to itself.
      std::uint64_t bits = 0;
      const double d = v.as_scalar();
      std::memcpy(&bits, &d, sizeof bits);
      if (auto [it, inserted] = scalar_ids_.emplace(bits, next); !inserted) {
        return it->second;
      }
    } else if (v.is_string()) {
      if (auto [it, inserted] = string_ids_.emplace(v.as_string(), next);
          !inserted) {
        return it->second;
      }
    }
    chunk_.consts.push_back(std::move(v));
    return next;
  }

  std::uint32_t message_id(std::string s) {
    if (auto it = message_ids_.find(s); it != message_ids_.end()) {
      return it->second;
    }
    const auto id = static_cast<std::uint32_t>(chunk_.messages.size());
    message_ids_.emplace(s, id);
    chunk_.messages.push_back(std::move(s));
    return id;
  }

  void slot(SymId sym, const std::string& name) {
    if (by_sym(slot_of_, sym, kNone) != kNone) return;
    VarInfo vi;
    vi.name = name_id(sym);
    vi.sym = sym;
    if (auto c = constants().find(name); c != constants().end()) {
      vi.has_const = true;
      vi.const_value = c->second;
    }
    slot_of_[sym] = static_cast<std::uint32_t>(chunk_.vars.size());
    chunk_.vars.push_back(vi);
  }

  // ---- pre-pass: slot + formula-name collection ----------------------

  void collect_block(const Block& block) {
    for (const StmtPtr& s : block) collect_stmt(*s);
  }

  void collect_stmt(const Stmt& s) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, AssignStmt>) {
            slot(node.sym, node.target);
            if (node.index) collect_expr(*node.index);
            collect_expr(*node.value);
          } else if constexpr (std::is_same_v<T, IfStmt>) {
            for (const auto& arm : node.arms) {
              collect_expr(*arm.cond);
              collect_block(arm.body);
            }
            collect_block(node.else_body);
          } else if constexpr (std::is_same_v<T, WhileStmt>) {
            collect_expr(*node.cond);
            collect_block(node.body);
          } else if constexpr (std::is_same_v<T, RepeatStmt>) {
            collect_expr(*node.count);
            collect_block(node.body);
          } else if constexpr (std::is_same_v<T, ForStmt>) {
            slot(node.sym, node.var);
            collect_expr(*node.from);
            collect_expr(*node.to);
            if (node.step) collect_expr(*node.step);
            collect_block(node.body);
          } else if constexpr (std::is_same_v<T, FormulaDef>) {
            // Formula bodies see only their parameters and constants —
            // no top-level slots. Doomed names (shadowing a builtin)
            // still get a table entry; it just never becomes live.
            std::int32_t& idx = by_sym(formula_table_of_, node.sym, -1);
            if (idx < 0) idx = static_cast<std::int32_t>(num_formula_names_++);
          } else if constexpr (std::is_same_v<T, ExprStmt>) {
            collect_expr(*node.expr);
          }
        },
        s.node);
  }

  void collect_expr(const Expr& e) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, VarRef>) {
            slot(node.sym, node.name);
          } else if constexpr (std::is_same_v<T, VectorLit>) {
            for (const auto& el : node.elements) collect_expr(*el);
          } else if constexpr (std::is_same_v<T, Unary>) {
            collect_expr(*node.operand);
          } else if constexpr (std::is_same_v<T, Binary>) {
            collect_expr(*node.lhs);
            collect_expr(*node.rhs);
          } else if constexpr (std::is_same_v<T, Index>) {
            collect_expr(*node.base);
            collect_expr(*node.index);
          } else if constexpr (std::is_same_v<T, Call>) {
            for (const auto& a : node.args) collect_expr(*a);
          }
        },
        e.node);
  }

  // ---- constant folding ----------------------------------------------

  static bool is_literal(const Expr& e) {
    return std::holds_alternative<NumberLit>(e.node) ||
           std::holds_alternative<StringLit>(e.node);
  }

  std::optional<Value> fold(const Expr& e, const Frame& f) const {
    return std::visit(
        [&](const auto& node) -> std::optional<Value> {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, NumberLit>) {
            return Value(node.value);
          } else if constexpr (std::is_same_v<T, StringLit>) {
            return Value(node.value);
          } else if constexpr (std::is_same_v<T, VarRef>) {
            // Top-level constants never fold: the Env may bind the same
            // name at entry ("pi" as a task input shadows the button).
            // Formula frames hold only parameters, so there a non-param
            // constant is compile-time known.
            if (!f.in_formula) return std::nullopt;
            if (param_reg(node.sym) != kNone) return std::nullopt;
            if (auto c = constants().find(node.name); c != constants().end()) {
              return Value(c->second);
            }
            return std::nullopt;
          } else if constexpr (std::is_same_v<T, VectorLit>) {
            Vector out;
            out.reserve(node.elements.size());
            for (const auto& el : node.elements) {
              auto v = fold(*el, f);
              if (!v || !v->is_scalar()) return std::nullopt;
              out.push_back(v->as_scalar());
            }
            return Value(std::move(out));
          } else if constexpr (std::is_same_v<T, Unary>) {
            auto v = fold(*node.operand, f);
            if (!v) return std::nullopt;
            if (node.op == UnOp::Not) return Value(v->truthy() ? 0.0 : 1.0);
            if (v->is_scalar()) return Value(-v->as_scalar());
            if (v->is_vector()) {
              Vector out = v->as_vector();
              for (double& x : out) x = -x;
              return Value(std::move(out));
            }
            return std::nullopt;  // negating a string errors at run time
          } else if constexpr (std::is_same_v<T, Binary>) {
            return fold_binary(node, f);
          } else if constexpr (std::is_same_v<T, Index>) {
            auto base = fold(*node.base, f);
            auto idx = fold(*node.index, f);
            if (!base || !idx || !base->is_vector() || !idx->is_scalar()) {
              return std::nullopt;
            }
            const double raw = idx->as_scalar();
            const Vector& v = base->as_vector();
            if (std::floor(raw) != raw || raw < 0 ||
                raw >= static_cast<double>(v.size())) {
              return std::nullopt;
            }
            return Value(v[static_cast<std::size_t>(raw)]);
          } else {
            return std::nullopt;  // calls never fold (rand, print, formulas)
          }
        },
        e.node);
  }

  std::optional<Value> fold_binary(const Binary& node, const Frame& f) const {
    auto lhs = fold(*node.lhs, f);
    if (!lhs) return std::nullopt;
    // Short-circuit folds drop the unevaluated side entirely, exactly
    // like the tree-walker never evaluates it.
    if (node.op == BinOp::And && !lhs->truthy()) return Value(0.0);
    if (node.op == BinOp::Or && lhs->truthy()) return Value(1.0);
    auto rhs = fold(*node.rhs, f);
    if (!rhs) return std::nullopt;
    switch (node.op) {
      case BinOp::And:
      case BinOp::Or:
        return Value(rhs->truthy() ? 1.0 : 0.0);
      case BinOp::Eq: return Value(lhs->equals(*rhs) ? 1.0 : 0.0);
      case BinOp::Ne: return Value(lhs->equals(*rhs) ? 0.0 : 1.0);
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge: {
        double cmp = 0;
        if (lhs->is_scalar() && rhs->is_scalar()) {
          const double a = lhs->as_scalar();
          const double b = rhs->as_scalar();
          cmp = a < b ? -1 : (a > b ? 1 : 0);
        } else if (lhs->is_string() && rhs->is_string()) {
          const int c = lhs->as_string().compare(rhs->as_string());
          cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
        } else {
          return std::nullopt;  // mixed-type ordering errors at run time
        }
        switch (node.op) {
          case BinOp::Lt: return Value(cmp < 0 ? 1.0 : 0.0);
          case BinOp::Le: return Value(cmp <= 0 ? 1.0 : 0.0);
          case BinOp::Gt: return Value(cmp > 0 ? 1.0 : 0.0);
          default: return Value(cmp >= 0 ? 1.0 : 0.0);
        }
      }
      default: break;
    }
    if (lhs->is_string() || rhs->is_string()) {
      if (node.op == BinOp::Add && lhs->is_string() && rhs->is_string()) {
        return Value(lhs->as_string() + rhs->as_string());
      }
      return std::nullopt;  // string arithmetic errors at run time
    }
    return fold_arith(node.op, *lhs, *rhs);
  }

  static std::optional<Value> fold_arith(BinOp op, const Value& lhs,
                                         const Value& rhs) {
    if (lhs.is_scalar() && rhs.is_scalar()) {
      auto r = fold_scalar_op(op, lhs.as_scalar(), rhs.as_scalar());
      if (!r) return std::nullopt;
      return Value(*r);
    }
    if (lhs.is_vector() && rhs.is_vector()) {
      const Vector& a = lhs.as_vector();
      const Vector& b = rhs.as_vector();
      if (a.size() != b.size()) return std::nullopt;
      Vector out(a.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        auto r = fold_scalar_op(op, a[i], b[i]);
        if (!r) return std::nullopt;
        out[i] = *r;
      }
      return Value(std::move(out));
    }
    if (lhs.is_scalar() && rhs.is_vector()) {
      const double a = lhs.as_scalar();
      Vector out = rhs.as_vector();
      for (double& x : out) {
        auto r = fold_scalar_op(op, a, x);
        if (!r) return std::nullopt;
        x = *r;
      }
      return Value(std::move(out));
    }
    if (lhs.is_vector() && rhs.is_scalar()) {
      const double b = rhs.as_scalar();
      Vector out = lhs.as_vector();
      for (double& x : out) {
        auto r = fold_scalar_op(op, x, b);
        if (!r) return std::nullopt;
        x = *r;
      }
      return Value(std::move(out));
    }
    return std::nullopt;
  }

  // ---- emission helpers ----------------------------------------------

  static std::size_t emit(Frame& f, Instr in) {
    f.code.ins.push_back(in);
    return f.code.ins.size() - 1;
  }

  static void patch(Frame& f, std::size_t at) {
    f.code.ins[at].d = static_cast<std::int32_t>(f.code.ins.size());
  }

  static std::uint32_t alloc(Frame& f) {
    const std::uint32_t r = f.next_temp++;
    f.high_water = std::max(f.high_water, f.next_temp);
    return r;
  }

  /// Destination register for an expression: the caller-requested one,
  /// or a fresh temp.
  static std::uint32_t dst_reg(Frame& f, int want) {
    return want >= 0 ? static_cast<std::uint32_t>(want) : alloc(f);
  }

  static std::uint8_t temp_flags(const Operand& b) {
    return b.temp ? kTempB : 0;
  }
  static std::uint8_t temp_flags(const Operand& b, const Operand& c) {
    // A register may only be moved/mutated when it holds a dead temp
    // and is not also the other operand (v + v reads one slot twice).
    std::uint8_t flags = 0;
    if (b.temp && b.reg != c.reg) flags |= kTempB;
    if (c.temp && c.reg != b.reg) flags |= kTempC;
    return flags;
  }

  // ---- expressions ---------------------------------------------------

  /// Compiles `e`; the result lands in register `want` (>= 0) or in a
  /// register of the compiler's choosing (want < 0 — either a fresh
  /// temp or, for a plain variable read, the variable's own slot with
  /// no copy at all). Every case writes its destination only as its
  /// final action, so `x := f(x, x + 1)` style self-references read the
  /// old value throughout.
  Operand compile_expr(Frame& f, const Expr& e, int want) {
    if (auto v = fold(e, f)) {
      if (!is_literal(e)) ++chunk_.folded;
      const std::uint32_t dst = dst_reg(f, want);
      emit(f, {.op = Op::LoadConst,
               .a = dst,
               .b = const_id(std::move(*v)),
               .pos = at(e.pos)});
      return {dst, want < 0};
    }
    return std::visit(
        [&](const auto& node) -> Operand {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, NumberLit> ||
                        std::is_same_v<T, StringLit>) {
            BANGER_ASSERT(false, "literals always fold");
          } else if constexpr (std::is_same_v<T, VarRef>) {
            return compile_var(f, node, at(e.pos), want);
          } else if constexpr (std::is_same_v<T, VectorLit>) {
            return compile_vector_lit(f, node, at(e.pos), want);
          } else if constexpr (std::is_same_v<T, Unary>) {
            const std::uint32_t mark = f.next_temp;
            const Operand v = compile_expr(f, *node.operand, -1);
            f.next_temp = mark;
            const std::uint32_t dst = dst_reg(f, want);
            emit(f, {.op = node.op == UnOp::Not ? Op::NotOp : Op::Neg,
                     .flags = temp_flags(v),
                     .a = dst,
                     .b = v.reg,
                     .pos = at(e.pos)});
            return {dst, want < 0};
          } else if constexpr (std::is_same_v<T, Binary>) {
            return compile_binary(f, node, at(e.pos), want);
          } else if constexpr (std::is_same_v<T, Index>) {
            const bool safe =
                facts_ != nullptr && facts_->safe_index.contains(&e);
            const std::uint32_t mark = f.next_temp;
            const Operand base = compile_expr(f, *node.base, -1);
            if (safe) {
              chunk_.elided += 1;
            } else {
              emit(f, {.op = Op::CheckIndexable,
                       .a = base.reg,
                       .pos = at(e.pos)});
            }
            const Operand idx = compile_expr(f, *node.index, -1);
            f.next_temp = mark;
            const std::uint32_t dst = dst_reg(f, want);
            emit(f, {.op = Op::IndexLoad,
                     .flags = safe ? kNoCheck : std::uint8_t{0},
                     .a = dst,
                     .b = base.reg,
                     .c = idx.reg,
                     .pos = at(node.index->pos)});
            return {dst, want < 0};
          } else if constexpr (std::is_same_v<T, Call>) {
            return compile_call(f, node, at(e.pos), want);
          }
        },
        e.node);
  }

  Operand compile_var(Frame& f, const VarRef& node, TokenIndex pos, int want) {
    if (f.in_formula) {
      if (const std::uint32_t reg = param_reg(node.sym); reg != kNone) {
        return move_to_want(f, {reg, false}, want);
      }
      // Not a parameter, not a constant (those folded): the read can
      // only fail, so it lowers to the tree-walker's error, which names
      // the variable through the running routine's binding.
      emit(f, {.op = Op::ErrUndefined, .b = name_id(node.sym), .pos = pos});
      return {dst_reg(f, want), want < 0};
    }
    const std::uint32_t s = slot_of_[node.sym];
    if (!f.readable[s]) {
      if (facts_ != nullptr && facts_->bound_reads.contains(&node)) {
        // Proven assigned on every path: the slot is live without a
        // check, and stays so for the rest of this path.
        chunk_.elided += 1;
      } else {
        emit(f, {.op = Op::CheckVar, .a = s, .pos = pos});
      }
      f.readable[s] = 1;
    }
    return move_to_want(f, {s, false}, want);
  }

  /// Routes a value already living in a register to the requested
  /// destination (a copy for named slots, a move for temps).
  Operand move_to_want(Frame& f, Operand r, int want) {
    if (want < 0 || r.reg == static_cast<std::uint32_t>(want)) return r;
    emit(f, {.op = Op::Move,
             .flags = temp_flags(r),
             .a = static_cast<std::uint32_t>(want),
             .b = r.reg});
    return {static_cast<std::uint32_t>(want), false};
  }

  Operand emit_error(Frame& f, ErrorCode code, std::string msg, TokenIndex pos,
                     int want) {
    emit(f, {.op = Op::ErrAlways,
             .a = static_cast<std::uint32_t>(code),
             .b = message_id(std::move(msg)),
             .pos = pos});
    return {dst_reg(f, want), want < 0};
  }

  Operand compile_vector_lit(Frame& f, const VectorLit& node, TokenIndex pos,
                             int want) {
    // Always built in a fresh temp: elements may read the assignment
    // target (`v := [v[1], v[0]]`), so the destination slot must keep
    // its old value until the vector is complete.
    const std::uint32_t mark = f.next_temp;
    const std::uint32_t vec = alloc(f);
    emit(f, {.op = Op::NewVector,
             .a = vec,
             .d = static_cast<std::int32_t>(node.elements.size()),
             .pos = pos});
    for (const auto& el : node.elements) {
      const std::uint32_t inner = f.next_temp;
      const Operand r = compile_expr(f, *el, -1);
      emit(f, {.op = Op::PushScalar, .a = vec, .b = r.reg, .pos = at(el->pos)});
      f.next_temp = inner;
    }
    if (want >= 0) {
      emit(f, {.op = Op::Move,
               .flags = kTempB,
               .a = static_cast<std::uint32_t>(want),
               .b = vec});
      f.next_temp = mark;
      return {static_cast<std::uint32_t>(want), false};
    }
    return {vec, true};
  }

  Operand compile_binary(Frame& f, const Binary& node, TokenIndex pos,
                         int want) {
    if (node.op == BinOp::And || node.op == BinOp::Or) {
      return compile_logical(f, node, want);
    }
    const std::uint32_t mark = f.next_temp;
    const Operand lhs = compile_expr(f, *node.lhs, -1);
    const Operand rhs = compile_expr(f, *node.rhs, -1);
    f.next_temp = mark;
    const std::uint32_t dst = dst_reg(f, want);
    emit(f, {.op = arith_op(node.op),
             .flags = temp_flags(lhs, rhs),
             .a = dst,
             .b = lhs.reg,
             .c = rhs.reg,
             .pos = pos});
    return {dst, want < 0};
  }

  Operand compile_logical(Frame& f, const Binary& node, int want) {
    const bool is_and = node.op == BinOp::And;
    if (auto lv = fold(*node.lhs, f)) {
      // Constant lhs: either the whole expression is decided (the other
      // side is *dropped*, matching the tree-walker never evaluating
      // it), or the result is just truthy(rhs).
      ++chunk_.folded;
      if (lv->truthy() == is_and) {
        const std::uint32_t mark = f.next_temp;
        const Operand r = compile_expr(f, *node.rhs, -1);
        f.next_temp = mark;
        const std::uint32_t dst = dst_reg(f, want);
        emit(f, {.op = Op::Truthy,
                 .flags = temp_flags(r),
                 .a = dst,
                 .b = r.reg});
        return {dst, want < 0};
      }
      const std::uint32_t dst = dst_reg(f, want);
      emit(f, {.op = Op::LoadConst,
               .a = dst,
               .b = const_id(Value(is_and ? 0.0 : 1.0))});
      return {dst, want < 0};
    }
    const std::uint32_t mark = f.next_temp;
    const Operand lhs = compile_expr(f, *node.lhs, -1);
    const std::size_t skip = emit(
        f, {.op = is_and ? Op::JumpIfFalsy : Op::JumpIfTruthy, .b = lhs.reg});
    f.next_temp = mark;
    // The rhs runs only when the lhs did not decide the result, so any
    // CheckVar inside it proves nothing for code after the expression.
    std::vector<char> saved = f.readable;
    const Operand rhs = compile_expr(f, *node.rhs, -1);
    f.readable = std::move(saved);
    f.next_temp = mark;
    const std::uint32_t dst = dst_reg(f, want);
    emit(f, {.op = Op::Truthy, .flags = temp_flags(rhs), .a = dst, .b = rhs.reg});
    const std::size_t done = emit(f, {.op = Op::Jump});
    patch(f, skip);
    emit(f, {.op = Op::LoadConst,
             .a = dst,
             .b = const_id(Value(is_and ? 0.0 : 1.0))});
    patch(f, done);
    return {dst, want < 0};
  }

  Operand compile_call(Frame& f, const Call& node, TokenIndex pos, int want) {
    if (node.callee == "when") return compile_when(f, node, pos, want);

    CallSite site;
    site.name = name_id(node.sym);
    site.builtin = BuiltinRegistry::instance().find(node.callee);
    if (node.sym < formula_table_of_.size() &&
        formula_table_of_[node.sym] >= 0) {
      site.formula = formula_table_of_[node.sym];
    }
    const auto site_idx = static_cast<std::uint32_t>(f.code.sites.size());
    f.code.sites.emplace_back();

    const std::uint32_t mark = f.next_temp;
    const std::uint32_t dst = dst_reg(f, want);
    const std::size_t call_at = emit(
        f, {.op = Op::CallOp, .a = dst, .b = site_idx, .pos = pos});
    // Argument code is embedded after the call instruction; the VM runs
    // each range only after resolving the callee and checking arity
    // (the tree-walker's order), then resumes at `d`.
    for (const auto& a : node.args) {
      const std::uint32_t areg = alloc(f);
      const std::uint32_t inner = f.next_temp;
      ArgRange ar;
      ar.begin = static_cast<std::uint32_t>(f.code.ins.size());
      ar.reg = areg;
      ar.temp = 1;
      compile_expr(f, *a, areg);
      ar.end = static_cast<std::uint32_t>(f.code.ins.size());
      site.args.push_back(ar);
      f.next_temp = inner;
    }
    patch(f, call_at);
    f.code.sites[site_idx] = std::move(site);
    f.next_temp = want >= 0 ? mark : dst + 1;
    return {dst, want < 0};
  }

  Operand compile_when(Frame& f, const Call& node, TokenIndex pos, int want) {
    if (node.args.size() != 3) {
      return emit_error(f, ErrorCode::Type,
                        "when() expects (condition, then, else)", pos, want);
    }
    const std::uint32_t mark = f.next_temp;
    const Operand cond = compile_expr(f, *node.args[0], -1);
    const std::size_t to_else =
        emit(f, {.op = Op::JumpIfFalsy, .b = cond.reg});
    f.next_temp = mark;
    const std::uint32_t dst = dst_reg(f, want);
    // Each arm executes on its own path; CheckVar knowledge survives
    // the join only when proven on both.
    const std::vector<char> before = f.readable;
    compile_expr(f, *node.args[1], dst);
    std::vector<char> after_then = std::move(f.readable);
    const std::size_t done = emit(f, {.op = Op::Jump});
    patch(f, to_else);
    f.readable = before;
    compile_expr(f, *node.args[2], dst);
    patch(f, done);
    intersect(f.readable, after_then);
    f.next_temp = want >= 0 ? mark : dst + 1;
    return {dst, want < 0};
  }

  static void intersect(std::vector<char>& into, const std::vector<char>& other) {
    for (std::size_t i = 0; i < into.size(); ++i) {
      into[i] = static_cast<char>(into[i] != 0 && other[i] != 0);
    }
  }

  // ---- statements ----------------------------------------------------

  /// A loop-iteration tick absorbed into the body's leading TickN,
  /// with an optional instruction (for-loop SetLoopVar) that belongs
  /// between that tick and the first statement.
  struct PendingTick {
    TokenIndex pos = kNoToken;
    bool has_prologue = false;
    Instr prologue;
  };

  void compile_block(Frame& f, const Block& block) {
    if (facts_ == nullptr) {
      for (const StmtPtr& s : block) compile_stmt(f, *s);
      return;
    }
    compile_batched(f, block, nullptr);
  }

  /// Safe in the middle of a TickN batch: straight-line statements the
  /// interpreter proved consume exactly one tick (no loop iterations,
  /// no possible formula call). Statements that may raise errors still
  /// qualify — on the batched fast path neither engine reaches the
  /// step limit inside the run, so errors surface identically.
  [[nodiscard]] bool batchable(const Stmt& s) const {
    if (!facts_->single_tick.contains(&s)) return false;
    return std::holds_alternative<AssignStmt>(s.node) ||
           std::holds_alternative<ExprStmt>(s.node) ||
           std::holds_alternative<FormulaDef>(s.node);
  }

  /// Lowers a block, replacing each maximal run of batchable
  /// statements — plus at most one trailing statement of any
  /// non-return kind, whose own nested ticks stay dynamic and follow
  /// its batched leading tick — with a single TickN.
  void compile_batched(Frame& f, const Block& block,
                       const PendingTick* pending) {
    std::size_t i = 0;
    bool lead = pending != nullptr;
    while (lead || i < block.size()) {
      std::size_t j = i;
      while (j < block.size() && batchable(*block[j])) ++j;
      std::size_t end = j;
      if (j < block.size() &&
          !std::holds_alternative<ReturnStmt>(block[j]->node) &&
          (lead ? 1 : 0) + (j - i) >= 1) {
        end = j + 1;  // absorb the trailing statement's leading tick
      }
      const std::size_t count = (lead ? 1 : 0) + (end - i);
      if (count < 2) {
        if (lead) {
          emit(f, {.op = Op::Tick, .pos = pending->pos});
          if (pending->has_prologue) emit(f, pending->prologue);
          lead = false;
        }
        if (i < block.size()) compile_stmt(f, *block[i++]);
        continue;
      }
      emit_batch(f, block, i, end, lead ? pending : nullptr);
      lead = false;
      i = end;
    }
  }

  void emit_batch(Frame& f, const Block& block, std::size_t i,
                  std::size_t end, const PendingTick* pending) {
    const auto run_idx = static_cast<std::uint32_t>(chunk_.runs.size());
    chunk_.runs.emplace_back();  // reserve the slot; nested batches append
    const std::size_t count = (pending != nullptr ? 1 : 0) + (end - i);
    emit(f, {.op = Op::TickN,
             .a = run_idx,
             .d = static_cast<std::int32_t>(count)});
    StmtRun run;
    run.bounds.push_back(static_cast<std::uint32_t>(f.code.ins.size()));
    if (pending != nullptr) {
      run.pos.push_back(pending->pos);
      if (pending->has_prologue) emit(f, pending->prologue);
      run.bounds.push_back(static_cast<std::uint32_t>(f.code.ins.size()));
    }
    for (std::size_t k = i; k < end; ++k) {
      run.pos.push_back(at(block[k]->pos));
      compile_stmt_body(f, *block[k]);
      run.bounds.push_back(static_cast<std::uint32_t>(f.code.ins.size()));
    }
    chunk_.runs[run_idx] = std::move(run);
  }

  void compile_stmt(Frame& f, const Stmt& s) {
    emit(f, {.op = Op::Tick, .pos = at(s.pos)});
    compile_stmt_body(f, s);
  }

  void compile_stmt_body(Frame& f, const Stmt& s) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, AssignStmt>) {
            compile_assign(f, node, at(s.pos));
          } else if constexpr (std::is_same_v<T, IfStmt>) {
            compile_if(f, node);
          } else if constexpr (std::is_same_v<T, WhileStmt>) {
            compile_while(f, node, at(s.pos));
          } else if constexpr (std::is_same_v<T, RepeatStmt>) {
            compile_repeat(f, node, at(s.pos));
          } else if constexpr (std::is_same_v<T, ForStmt>) {
            compile_for(f, node, at(s.pos));
          } else if constexpr (std::is_same_v<T, ReturnStmt>) {
            emit(f, {.op = Op::Halt, .pos = at(s.pos)});
          } else if constexpr (std::is_same_v<T, FormulaDef>) {
            compile_formula_def(f, node, at(s.pos));
          } else if constexpr (std::is_same_v<T, ExprStmt>) {
            const std::uint32_t mark = f.next_temp;
            compile_expr(f, *node.expr, -1);
            f.next_temp = mark;
          }
        },
        s.node);
  }

  void compile_assign(Frame& f, const AssignStmt& node, TokenIndex pos) {
    const std::uint32_t target = slot_of_[node.sym];
    const std::uint32_t mark = f.next_temp;
    if (node.index) {
      const bool safe = facts_ != nullptr &&
                        facts_->safe_indexed_store.contains(&node);
      // Value first, then target checks, then index — the tree-walker's
      // evaluation order, so error precedence matches.
      const Operand value = compile_expr(f, *node.value, -1);
      if (safe) {
        chunk_.elided += 1;
      } else {
        emit(f, {.op = Op::IndexedCheck, .a = target, .pos = pos});
      }
      f.readable[target] = 1;
      const Operand idx = compile_expr(f, *node.index, -1);
      emit(f, {.op = Op::IndexedStore,
               .flags = safe ? kNoCheck : std::uint8_t{0},
               .a = target,
               .b = idx.reg,
               .c = value.reg,
               .pos = at(node.index->pos)});
    } else {
      compile_expr(f, *node.value, target);
      f.readable[target] = 1;
    }
    f.next_temp = mark;
    emit(f, {.op = Op::FinishAssign, .a = target, .pos = pos});
  }

  void compile_if(Frame& f, const IfStmt& node) {
    std::vector<std::size_t> done_jumps;
    std::vector<std::vector<char>> ends;
    for (const auto& arm : node.arms) {
      const std::uint32_t mark = f.next_temp;
      const Operand cond = compile_expr(f, *arm.cond, -1);
      f.next_temp = mark;
      const std::size_t to_next =
          emit(f, {.op = Op::JumpIfFalsy, .b = cond.reg});
      const std::vector<char> at_cond = f.readable;
      compile_block(f, arm.body);
      ends.push_back(std::move(f.readable));
      done_jumps.push_back(emit(f, {.op = Op::Jump}));
      patch(f, to_next);
      f.readable = at_cond;
    }
    compile_block(f, node.else_body);
    for (const std::size_t j : done_jumps) patch(f, j);
    for (const auto& end : ends) intersect(f.readable, end);
  }

  void compile_while(Frame& f, const WhileStmt& node, TokenIndex pos) {
    const auto head = static_cast<std::int32_t>(f.code.ins.size());
    const std::uint32_t mark = f.next_temp;
    const Operand cond = compile_expr(f, *node.cond, -1);
    f.next_temp = mark;
    const std::size_t exit_jump =
        emit(f, {.op = Op::JumpIfFalsy, .b = cond.reg, .pos = pos});
    // The condition always runs at least once, so its CheckVar facts
    // survive the loop; the body may run zero times, so its don't.
    const std::vector<char> at_cond = f.readable;
    if (facts_ != nullptr) {
      const PendingTick iter{pos};
      compile_batched(f, node.body, &iter);
    } else {
      emit(f, {.op = Op::Tick, .pos = pos});
      compile_block(f, node.body);
    }
    emit(f, {.op = Op::Jump, .d = head, .pos = pos});
    patch(f, exit_jump);
    f.readable = at_cond;
  }

  void compile_repeat(Frame& f, const RepeatStmt& node, TokenIndex pos) {
    const std::uint32_t mark = f.next_temp;
    const std::uint32_t counter = alloc(f);
    const std::uint32_t limit = alloc(f);
    const Operand count = compile_expr(f, *node.count, -1);
    emit(f, {.op = Op::RepeatInit,
             .a = counter,
             .b = limit,
             .c = count.reg,
             .pos = pos});
    f.next_temp = limit + 1;
    const auto head = static_cast<std::int32_t>(f.code.ins.size());
    const std::size_t exit_jump =
        emit(f, {.op = Op::RepeatNext,
                 .flags = facts_ != nullptr ? kNoTick : std::uint8_t{0},
                 .a = counter,
                 .b = limit,
                 .pos = pos});
    const std::vector<char> at_head = f.readable;
    if (facts_ != nullptr) {
      const PendingTick iter{pos};
      compile_batched(f, node.body, &iter);
    } else {
      compile_block(f, node.body);
    }
    emit(f, {.op = Op::Jump, .d = head, .pos = pos});
    patch(f, exit_jump);
    f.readable = at_head;
    f.next_temp = mark;
  }

  void compile_for(Frame& f, const ForStmt& node, TokenIndex pos) {
    const std::uint32_t target = slot_of_[node.sym];
    const std::uint32_t mark = f.next_temp;
    const std::uint32_t counter = alloc(f);
    const std::uint32_t limit = alloc(f);
    const std::uint32_t step = alloc(f);
    // from/to/step evaluate once, each coerced to a scalar immediately
    // (interleaved with evaluation, like the tree-walker's as_scalar).
    compile_bound(f, *node.from, counter);
    compile_bound(f, *node.to, limit);
    if (node.step) {
      compile_bound(f, *node.step, step);
    } else {
      emit(f, {.op = Op::LoadConst, .a = step, .b = const_id(Value(1.0))});
    }
    emit(f, {.op = Op::ForInit, .a = step, .pos = pos});
    const auto head = static_cast<std::int32_t>(f.code.ins.size());
    const std::size_t exit_jump =
        emit(f, {.op = Op::ForNext,
                 .flags = facts_ != nullptr ? kNoTick : std::uint8_t{0},
                 .a = counter,
                 .b = limit,
                 .c = step,
                 .pos = pos});
    const std::vector<char> at_head = f.readable;
    f.readable[target] = 1;
    if (facts_ != nullptr) {
      // The iteration tick precedes the loop-variable bind (the walker
      // aborts a limit hit before binding), so SetLoopVar rides in the
      // batch as the tick's prologue.
      PendingTick iter{pos};
      iter.has_prologue = true;
      iter.prologue = {.op = Op::SetLoopVar, .a = target, .b = counter,
                       .pos = pos};
      compile_batched(f, node.body, &iter);
    } else {
      emit(f, {.op = Op::SetLoopVar, .a = target, .b = counter, .pos = pos});
      compile_block(f, node.body);
    }
    emit(f, {.op = Op::ForStep, .a = counter, .c = step, .d = head});
    patch(f, exit_jump);
    // Zero iterations leave the loop variable unbound.
    f.readable = at_head;
    f.next_temp = mark;
  }

  void compile_bound(Frame& f, const Expr& e, std::uint32_t into) {
    const std::uint32_t inner = f.next_temp;
    const Operand r = compile_expr(f, e, -1);
    emit(f, {.op = Op::ToScalar, .a = into, .b = r.reg, .pos = at(e.pos)});
    f.next_temp = inner;
  }

  void compile_formula_def(Frame& f, const FormulaDef& node, TokenIndex pos) {
    // The tree-walker validates the name every time the definition
    // executes; all three checks are static, so a doomed definition
    // lowers to its error and a valid one to a table registration.
    if (node.name == "when") {
      emit_error(f, ErrorCode::Name, "`when` is the conditional special form",
                 pos, 0);
      return;
    }
    if (BuiltinRegistry::instance().find(node.name) != nullptr) {
      emit_error(f, ErrorCode::Name,
                 "formula `" + node.name + "` would shadow a calculator button",
                 pos, 0);
      return;
    }
    if (constants().contains(node.name)) {
      emit_error(f, ErrorCode::Name,
                 "formula `" + node.name + "` would shadow a constant", pos, 0);
      return;
    }
    const auto idx = static_cast<std::uint32_t>(chunk_.formulas.size());
    chunk_.formulas.push_back(compile_formula(node));
    emit(f, {.op = Op::DefFormula, .b = idx, .pos = pos});
  }

  Formula compile_formula(const FormulaDef& def) {
    Formula fo;
    fo.name = name_id(def.sym);
    fo.table = formula_table_of_[def.sym];
    std::uint32_t next_reg = 0;
    for (const SymId p : def.param_syms) {
      std::uint32_t& reg = by_sym(param_reg_, p, kNone);
      if (reg != kNone) {
        // Duplicate parameter: the tree-walker's emplace keeps the
        // first binding; later arguments still evaluate, then drop.
        fo.param_reg.push_back(reg);
        fo.param_bind.push_back(0);
      } else {
        reg = next_reg;
        fo.param_reg.push_back(next_reg);
        fo.param_bind.push_back(1);
        ++next_reg;
      }
    }
    Frame ff;
    ff.in_formula = true;
    ff.next_temp = next_reg;
    ff.high_water = next_reg;
    const Operand result = compile_expr(ff, *def.body, -1);
    for (const SymId p : def.param_syms) param_reg_[p] = kNone;
    fo.result = result.reg;
    ff.code.num_regs = ff.high_water;
    ff.code.first_temp = next_reg;
    fo.code = std::move(ff.code);
    return fo;
  }

  /// Register of the parameter `sym` names in the formula being
  /// compiled, or kNone.
  [[nodiscard]] std::uint32_t param_reg(SymId sym) const {
    return sym < param_reg_.size() ? param_reg_[sym] : kNone;
  }

  Chunk chunk_;
  const Binding& tokens_;
  const AnalysisFacts* facts_ = nullptr;
  std::map<std::uint64_t, std::uint32_t> scalar_ids_;
  std::map<std::string, std::uint32_t> string_ids_;
  std::map<std::string, std::uint32_t> message_ids_;
  // By symbol; kNone / -1 where unset.
  std::vector<std::uint32_t> name_ids_;
  std::vector<std::uint32_t> slot_of_;
  std::vector<std::int32_t> formula_table_of_;
  std::vector<std::uint32_t> param_reg_;  ///< of the formula being compiled
  std::uint32_t num_formula_names_ = 0;
};

// ---- peephole fusion -------------------------------------------------
//
// Merges adjacent instruction pairs into the fused superinstructions at
// the tail of the Op enum. Every fusion is observably identical to the
// pair it replaces (same registers written, same errors at the same
// positions, same trace output, same ticks) — only dispatch overhead is
// removed. A pair is fusable only when no control flow can enter
// between its two halves, so the pass first computes the leader set:
// every instruction index some other instruction (or call-site argument
// range, or TickN slow-path table) can transfer to.

/// True when `op` interprets `d` as an instruction index that must be
/// remapped after instructions are removed.
bool reads_target(Op op) {
  switch (op) {
    case Op::Jump:
    case Op::JumpIfFalsy:
    case Op::JumpIfTruthy:
    case Op::ForNext:
    case Op::ForStep:
    case Op::RepeatNext:
    case Op::CallOp:
    case Op::LtBr:
    case Op::LeBr:
    case Op::GtBr:
    case Op::GeBr:
    case Op::EqBr:
    case Op::NeBr:
    case Op::LtKBr:
    case Op::LeKBr:
    case Op::GtKBr:
    case Op::GeKBr:
    case Op::EqKBr:
    case Op::NeKBr:
      return true;
    default:
      return false;
  }
}

/// Ops whose destination `a` may absorb an adjacent FinishAssign via the
/// kFinish flag. All reach the VM's shared epilogue on success (no
/// `continue` paths) and fully write r[a] before it runs.
bool finish_fusable(Op op) {
  switch (op) {
    case Op::LoadConst:
    case Op::Move:
    case Op::Neg:
    case Op::NotOp:
    case Op::Truthy:
    case Op::Add:
    case Op::Sub:
    case Op::Mul:
    case Op::Div:
    case Op::Mod:
    case Op::Pow:
    case Op::CmpEq:
    case Op::CmpNe:
    case Op::Lt:
    case Op::Le:
    case Op::Gt:
    case Op::Ge:
    case Op::IndexLoad:
    case Op::AddK:
    case Op::SubK:
    case Op::MulK:
    case Op::DivK:
    case Op::ModK:
    case Op::PowK:
    case Op::LtK:
    case Op::LeK:
    case Op::GtK:
    case Op::GeK:
    case Op::EqK:
    case Op::NeK:
      return true;
    default:
      return false;
  }
}

/// Branch form of a compare op, or `op` itself when there is none.
Op branch_form(Op op) {
  switch (op) {
    case Op::Lt: return Op::LtBr;
    case Op::Le: return Op::LeBr;
    case Op::Gt: return Op::GtBr;
    case Op::Ge: return Op::GeBr;
    case Op::CmpEq: return Op::EqBr;
    case Op::CmpNe: return Op::NeBr;
    case Op::LtK: return Op::LtKBr;
    case Op::LeK: return Op::LeKBr;
    case Op::GtK: return Op::GtKBr;
    case Op::GeK: return Op::GeKBr;
    case Op::EqK: return Op::EqKBr;
    case Op::NeK: return Op::NeKBr;
    default: return op;
  }
}

/// Const-operand form of a binary op, or `op` itself when there is none.
Op const_form(Op op) {
  switch (op) {
    case Op::Add: return Op::AddK;
    case Op::Sub: return Op::SubK;
    case Op::Mul: return Op::MulK;
    case Op::Div: return Op::DivK;
    case Op::Mod: return Op::ModK;
    case Op::Pow: return Op::PowK;
    case Op::Lt: return Op::LtK;
    case Op::Le: return Op::LeK;
    case Op::Gt: return Op::GtK;
    case Op::Ge: return Op::GeK;
    case Op::CmpEq: return Op::EqK;
    case Op::CmpNe: return Op::NeK;
    default: return op;
  }
}

/// Attempts to fuse the adjacent pair (cur, next). Returns the single
/// replacement instruction, or nullopt when the pair must stay split.
std::optional<Instr> try_fuse(const Instr& cur, const Instr& next,
                              std::uint32_t first_temp,
                              const std::vector<Value>& consts,
                              const Binding& tokens) {
  // Store fusion: value-producing instruction + FinishAssign on the
  // same slot. The trace echo prints only the line number, so the pair
  // must agree on it (FinishAssign carries the statement position, the
  // value op its expression position). Only a newline token can put two
  // tokens on different lines, so every routine of the shape agrees.
  if (next.op == Op::FinishAssign && cur.a == next.a &&
      tokens.pos(cur.pos).line == tokens.pos(next.pos).line &&
      (cur.flags & kFinish) == 0 &&
      finish_fusable(cur.op)) {
    Instr out = cur;
    out.flags = static_cast<std::uint8_t>(out.flags | kFinish);
    return out;
  }
  // Compare + branch-if-falsy. The fused op still writes the 0/1
  // result register (`when` arms and formula results read it), then
  // branches — only the dispatch is saved, so no liveness proof is
  // needed. A kFinish carrier stays split: the epilogue must run
  // before the branch, and taken branches skip it.
  if (next.op == Op::JumpIfFalsy && next.b == cur.a &&
      (cur.flags & kFinish) == 0) {
    if (const Op br = branch_form(cur.op); br != cur.op) {
      Instr out = cur;
      out.op = br;
      out.d = next.d;
      return out;
    }
  }
  // Const operand: LoadConst into a temporary consumed immediately by
  // a binary arith/compare. Eliding the register write is safe only
  // for temps (named slots outlive the expression) holding scalars
  // (vector consts may be moved out of the pool under kTempC, which a
  // pool-indexed operand must never do). Swapping a const left operand
  // to the right is legal only where the operation — including its
  // error messages — is symmetric: Add/Mul (type errors name the
  // non-scalar operand regardless of side) and Eq/Ne (equals() is
  // total and symmetric). Lt..Ge order their message operands, and
  // Sub/Div/Mod/Pow are not commutative.
  if (cur.op == Op::LoadConst && cur.a >= first_temp &&
      consts[cur.b].scalar_if() != nullptr && next.b != next.c) {
    if (const Op k = const_form(next.op); k != next.op) {
      const std::uint32_t t = cur.a;
      std::uint32_t src = 0;
      bool swapped = false;
      if (next.c == t && next.b != t) {
        src = next.b;
      } else if (next.b == t && next.c != t &&
                 (next.op == Op::Add || next.op == Op::Mul ||
                  next.op == Op::CmpEq || next.op == Op::CmpNe)) {
        src = next.c;
        swapped = true;
      } else {
        return std::nullopt;
      }
      Instr out = next;
      out.op = k;
      out.b = src;
      out.c = cur.b;  // const-pool index
      std::uint8_t fl = next.flags & kFinish;
      if (!swapped) {
        fl = static_cast<std::uint8_t>(fl | (next.flags & kTempB));
      } else if ((next.flags & kTempC) != 0) {
        fl = static_cast<std::uint8_t>(fl | kTempB);
      }
      out.flags = fl;
      return out;
    }
  }
  return std::nullopt;
}

/// One fusion pass over `code`. Returns true when anything fused (the
/// caller iterates to a fixpoint — e.g. LoadConst+Lt fuses to LtK in
/// one pass, LtK+JumpIfFalsy to LtKBr in the next).
bool fuse_pass(Chunk& chunk, Code& code, bool top_level,
               const Binding& tokens) {
  const std::size_t n = code.ins.size();
  if (n < 2) return false;
  // Leader set: indices control flow (or an argument range / TickN
  // slow-path bound) can transfer to. ins[i+1] being a leader vetoes
  // fusing (i, i+1).
  std::vector<char> leader(n + 1, 0);
  leader[0] = 1;
  leader[n] = 1;
  for (const Instr& in : code.ins) {
    if (reads_target(in.op)) leader[static_cast<std::size_t>(in.d)] = 1;
  }
  for (const CallSite& site : code.sites) {
    for (const ArgRange& ar : site.args) {
      leader[ar.begin] = 1;
      leader[ar.end] = 1;
    }
  }
  if (top_level) {
    for (const StmtRun& run : chunk.runs) {
      for (const std::uint32_t b : run.bounds) leader[b] = 1;
    }
  }

  std::vector<Instr> out;
  out.reserve(n);
  std::vector<std::uint32_t> map(n + 1, 0);
  bool changed = false;
  for (std::size_t i = 0; i < n; ++i) {
    map[i] = static_cast<std::uint32_t>(out.size());
    if (i + 1 < n && leader[i + 1] == 0) {
      if (auto fused = try_fuse(code.ins[i], code.ins[i + 1],
                                code.first_temp, chunk.consts, tokens)) {
        out.push_back(*fused);
        map[i + 1] = map[i];  // dead index: nothing targets a non-leader
        ++i;
        ++chunk.fused;
        changed = true;
        continue;
      }
    }
    out.push_back(code.ins[i]);
  }
  map[n] = static_cast<std::uint32_t>(out.size());
  if (!changed) return false;

  for (Instr& in : out) {
    if (reads_target(in.op)) {
      in.d = static_cast<std::int32_t>(map[static_cast<std::size_t>(in.d)]);
    }
  }
  for (CallSite& site : code.sites) {
    for (ArgRange& ar : site.args) {
      ar.begin = map[ar.begin];
      ar.end = map[ar.end];
    }
  }
  if (top_level) {
    for (StmtRun& run : chunk.runs) {
      for (std::uint32_t& b : run.bounds) b = map[b];
    }
  }
  code.ins = std::move(out);
  return true;
}

void peephole(Chunk& chunk, const Binding& tokens) {
  while (fuse_pass(chunk, chunk.main, /*top_level=*/true, tokens)) {
  }
  for (Formula& fo : chunk.formulas) {
    while (fuse_pass(chunk, fo.code, /*top_level=*/false, tokens)) {
    }
  }
}

}  // namespace

Chunk compile(const Block& body, const Binding& tokens,
              const AnalysisFacts* facts) {
  if (facts != nullptr && facts->empty()) facts = nullptr;
  Chunk chunk = Compiler(body, tokens, facts).take();
  peephole(chunk, tokens);
  return chunk;
}

}  // namespace banger::pits::bc
