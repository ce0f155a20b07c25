// tests/reference_walker.hpp
//
// The PITS tree-walking interpreter, kept as the differential oracle for
// the bytecode VM in src/pits — the same role tests/reference_dsh.hpp
// plays for the fast DSH scheduler. It evaluates the AST directly and
// resolves every variable through the Env map on every read, so its
// meaning is easy to check by eye: the VM, with and without analysis
// facts, must match it byte for byte (environments, print and trace
// transcripts, error codes, messages and positions, step-limit aborts,
// the rand() stream). Compiled only into test targets; never link it
// into the product libraries.
//
// Its native recursion is bounded (DepthGuard), so the differential
// suites can feed it deeply nested formula recursion without crashing.
#pragma once

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "pits/ast.hpp"
#include "pits/builtins.hpp"
#include "pits/interp.hpp"
#include "pits/value.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace banger::pits::reference {

namespace detail {

enum class Flow : std::uint8_t { Normal, Return };

/// How deep the walker's native recursion may go: one level per nested
/// expression evaluation plus one per formula frame. Formula recursion
/// multiplies expression nesting (256 frames of a 200-level body), so
/// the parser's nesting cap alone does not bound it; this keeps the
/// walker inside an 8 MiB thread stack, with room to spare in
/// sanitizer builds.
inline constexpr int kMaxEvalDepth = 2048;

class Interp {
 public:
  Interp(Env& env, const ExecOptions& options)
      : env_(env), scope_(&env), options_(options), rng_(options.seed) {
    ctx_.rng = &rng_;
    ctx_.out = options.out;
  }

  void run(const Block& block) { (void)exec_block(block); }

 private:
  /// Raises Error{code} at `pos`, its message the concatenated `parts`.
  /// Out of line, the message built here: the walker recurses once per
  /// expression level, and a frame that built a message inline would
  /// hold room for its temporaries at every level.
  template <class... Parts>
  [[noreturn, gnu::noinline]] static void error(ErrorCode code,
                                                SourcePos pos,
                                                const Parts&... parts) {
    std::string message;
    const auto append = [&message](const auto& part) {
      if constexpr (std::is_arithmetic_v<std::decay_t<decltype(part)>>) {
        message += std::to_string(part);
      } else {
        message += std::string_view(part);
      }
    };
    (append(parts), ...);
    fail(code, std::move(message), pos);
  }

  [[noreturn, gnu::noinline]] static void fail_arity(const Call& node,
                                                     const Builtin& fn,
                                                     SourcePos pos) {
    error(ErrorCode::Type, pos, "`", node.callee, "` expects ",
          std::to_string(fn.min_args) +
              (fn.max_args == fn.min_args
                   ? ""
                   : (fn.max_args < 0 ? "+"
                                      : ".." + std::to_string(fn.max_args))),
          " arguments, got ", static_cast<int>(node.args.size()));
  }

  void tick(SourcePos pos) {
    if (++steps_ > options_.step_limit) {
      error(ErrorCode::Limit, pos, "step limit of ", options_.step_limit,
            " exceeded (infinite loop?)");
    }
  }

  Flow exec_block(const Block& block) {
    for (const StmtPtr& s : block) {
      if (exec_stmt(*s) == Flow::Return) return Flow::Return;
    }
    return Flow::Normal;
  }

  Flow exec_stmt(const Stmt& s) {
    tick(s.pos);
    return std::visit(
        [&](const auto& node) -> Flow {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, AssignStmt>) {
            Value value = eval(*node.value);
            if (node.index) {
              auto it = scope_->find(node.target);
              if (it == scope_->end()) {
                error(ErrorCode::Name, s.pos,
                      "indexed assignment to undefined variable `",
                      node.target, "`");
              }
              if (!it->second.is_vector()) {
                error(ErrorCode::Type, s.pos, "`", node.target,
                      "` is not a vector");
              }
              Vector& vec = it->second.as_vector();
              const std::size_t i = index_of(*node.index, vec.size());
              vec[i] = value.as_scalar();
            } else {
              (*scope_)[node.target] = std::move(value);
            }
            if (options_.trace != nullptr) {
              *options_.trace << "line " << s.pos.line << ": " << node.target
                              << " = "
                              << scope_->at(node.target).to_display() << "\n";
            }
            return Flow::Normal;
          } else if constexpr (std::is_same_v<T, IfStmt>) {
            for (const auto& arm : node.arms) {
              if (eval(*arm.cond).truthy()) return exec_block(arm.body);
            }
            return exec_block(node.else_body);
          } else if constexpr (std::is_same_v<T, WhileStmt>) {
            while (eval(*node.cond).truthy()) {
              tick(s.pos);
              if (exec_block(node.body) == Flow::Return) return Flow::Return;
            }
            return Flow::Normal;
          } else if constexpr (std::is_same_v<T, RepeatStmt>) {
            const double n = eval(*node.count).as_scalar();
            if (n < 0 || std::floor(n) != n) {
              error(ErrorCode::Runtime, s.pos,
                    "repeat count must be a non-negative integer");
            }
            for (double k = 0; k < n; ++k) {
              tick(s.pos);
              if (exec_block(node.body) == Flow::Return) return Flow::Return;
            }
            return Flow::Normal;
          } else if constexpr (std::is_same_v<T, ForStmt>) {
            const double from = eval(*node.from).as_scalar();
            const double to = eval(*node.to).as_scalar();
            const double step =
                node.step ? eval(*node.step).as_scalar() : 1.0;
            if (step == 0) {
              error(ErrorCode::Runtime, s.pos, "for loop with zero step");
            }
            for (double x = from; step > 0 ? x <= to + 1e-12 : x >= to - 1e-12;
                 x += step) {
              tick(s.pos);
              (*scope_)[node.var] = Value(x);
              if (exec_block(node.body) == Flow::Return) return Flow::Return;
            }
            return Flow::Normal;
          } else if constexpr (std::is_same_v<T, ReturnStmt>) {
            return Flow::Return;
          } else if constexpr (std::is_same_v<T, FormulaDef>) {
            if (node.name == "when") {
              error(ErrorCode::Name, s.pos,
                    "`when` is the conditional special form");
            }
            if (BuiltinRegistry::instance().find(node.name) != nullptr) {
              error(ErrorCode::Name, s.pos, "formula `", node.name,
                    "` would shadow a calculator button");
            }
            if (constants().contains(node.name)) {
              error(ErrorCode::Name, s.pos, "formula `", node.name,
                    "` would shadow a constant");
            }
            formulas_[node.name] = &node;
            return Flow::Normal;
          } else if constexpr (std::is_same_v<T, ExprStmt>) {
            (void)eval(*node.expr);
            return Flow::Normal;
          }
        },
        s.node);
  }

  std::size_t index_of(const Expr& index_expr, std::size_t size) {
    const double raw = eval(index_expr).as_scalar();
    if (std::floor(raw) != raw) {
      error(ErrorCode::Runtime, index_expr.pos, "index must be an integer");
    }
    if (raw < 0 || raw >= static_cast<double>(size)) {
      error(ErrorCode::Runtime, index_expr.pos, "index ",
            static_cast<long long>(raw), " out of range [0,", size, ")");
    }
    return static_cast<std::size_t>(raw);
  }

  /// Counts one level of native recursion for the scope's lifetime;
  /// past kMaxEvalDepth it raises Error{Limit} at `pos` instead.
  struct DepthGuard {
    DepthGuard(Interp& interp, SourcePos pos) : depth(interp.depth_) {
      if (depth >= kMaxEvalDepth) {
        error(ErrorCode::Limit, pos, "evaluation nested deeper than ",
              kMaxEvalDepth, " levels (formula recursion too deep?)");
      }
      ++depth;
    }
    ~DepthGuard() { --depth; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;
    int& depth;
  };

  Value eval(const Expr& e) {
    const DepthGuard guard(*this, e.pos);
    return std::visit(
        [&](const auto& node) -> Value {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, NumberLit>) {
            return Value(node.value);
          } else if constexpr (std::is_same_v<T, StringLit>) {
            return Value(node.value);
          } else if constexpr (std::is_same_v<T, VarRef>) {
            return eval_var(node, e.pos);
          } else if constexpr (std::is_same_v<T, VectorLit>) {
            return eval_vector(node);
          } else if constexpr (std::is_same_v<T, Unary>) {
            return eval_unary(node, e.pos);
          } else if constexpr (std::is_same_v<T, Binary>) {
            return eval_binary(node, e.pos);
          } else if constexpr (std::is_same_v<T, Index>) {
            return eval_index(node, e.pos);
          } else if constexpr (std::is_same_v<T, Call>) {
            return eval_call(node, e.pos);
          }
        },
        e.node);
  }

  // Each node kind is evaluated out of line, so that every level of the
  // recursion pays only for the frame of the kind it evaluates.
  [[gnu::noinline]] Value eval_var(const VarRef& node, SourcePos pos) {
    if (auto it = scope_->find(node.name); it != scope_->end()) {
      return it->second;
    }
    if (auto c = constants().find(node.name); c != constants().end()) {
      return Value(c->second);
    }
    error(ErrorCode::Name, pos, "undefined variable `", node.name, "`");
  }

  [[gnu::noinline]] Value eval_vector(const VectorLit& node) {
    Vector out;
    out.reserve(node.elements.size());
    for (const auto& el : node.elements) {
      out.push_back(eval_scalar(*el));
    }
    return Value(std::move(out));
  }

  [[gnu::noinline]] Value eval_index(const Index& node, SourcePos pos) {
    Value base = eval(*node.base);
    if (!base.is_vector()) {
      error(ErrorCode::Type, pos, "cannot index a ", base.type_name());
    }
    const Vector& v = base.as_vector();
    return Value(v[index_of(*node.index, v.size())]);
  }

  double eval_scalar(const Expr& e) {
    Value v = eval(e);
    if (!v.is_scalar()) {
      error(ErrorCode::Type, e.pos, "expected a number, got a ",
            v.type_name());
    }
    return v.as_scalar();
  }

  [[gnu::noinline]] Value eval_unary(const Unary& node, SourcePos pos) {
    if (node.op == UnOp::Not) {
      return Value(eval(*node.operand).truthy() ? 0.0 : 1.0);
    }
    Value v = eval(*node.operand);
    if (v.is_vector()) {
      // `v` is a dead local: negate its buffer in place of a copy.
      Vector out = std::move(v.as_vector());
      for (double& x : out) x = -x;
      return Value(std::move(out));
    }
    if (v.is_string()) {
      error(ErrorCode::Type, pos, "cannot negate a string");
    }
    return Value(-v.as_scalar());
  }

  [[gnu::noinline]] Value eval_binary(const Binary& node, SourcePos pos) {
    // Short-circuit logicals first.
    if (node.op == BinOp::And) {
      if (!eval(*node.lhs).truthy()) return Value(0.0);
      return Value(eval(*node.rhs).truthy() ? 1.0 : 0.0);
    }
    if (node.op == BinOp::Or) {
      if (eval(*node.lhs).truthy()) return Value(1.0);
      return Value(eval(*node.rhs).truthy() ? 1.0 : 0.0);
    }

    Value lhs = eval(*node.lhs);
    Value rhs = eval(*node.rhs);

    switch (node.op) {
      case BinOp::Eq: return Value(lhs.equals(rhs) ? 1.0 : 0.0);
      case BinOp::Ne: return Value(lhs.equals(rhs) ? 0.0 : 1.0);
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
        return compare(node.op, lhs, rhs, pos);
      default:
        break;
    }

    // String concatenation is the only string arithmetic.
    if (lhs.is_string() || rhs.is_string()) {
      if (node.op == BinOp::Add && lhs.is_string() && rhs.is_string()) {
        return Value(lhs.as_string() + rhs.as_string());
      }
      error(ErrorCode::Type, pos, "operator `", to_string(node.op),
            "` is not defined for strings");
    }

    return arith(node.op, lhs, rhs, pos);
  }

  [[gnu::noinline]] Value compare(BinOp op, const Value& lhs, const Value& rhs,
                                  SourcePos pos) {
    double cmp = 0;
    if (lhs.is_scalar() && rhs.is_scalar()) {
      const double a = lhs.as_scalar();
      const double b = rhs.as_scalar();
      cmp = a < b ? -1 : (a > b ? 1 : 0);
    } else if (lhs.is_string() && rhs.is_string()) {
      const int c = lhs.as_string().compare(rhs.as_string());
      cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
    } else {
      error(ErrorCode::Type, pos, "cannot order a ", lhs.type_name(),
            " against a ", rhs.type_name());
    }
    switch (op) {
      case BinOp::Lt: return Value(cmp < 0 ? 1.0 : 0.0);
      case BinOp::Le: return Value(cmp <= 0 ? 1.0 : 0.0);
      case BinOp::Gt: return Value(cmp > 0 ? 1.0 : 0.0);
      default: return Value(cmp >= 0 ? 1.0 : 0.0);
    }
  }

  double scalar_op(BinOp op, double a, double b, SourcePos pos) {
    switch (op) {
      case BinOp::Add: return a + b;
      case BinOp::Sub: return a - b;
      case BinOp::Mul: return a * b;
      case BinOp::Div:
        if (b == 0) error(ErrorCode::Runtime, pos, "division by zero");
        return a / b;
      case BinOp::Mod:
        if (b == 0) error(ErrorCode::Runtime, pos, "mod by zero");
        return std::fmod(a, b);
      case BinOp::Pow: {
        const double r = std::pow(a, b);
        if (std::isnan(r) && !std::isnan(a) && !std::isnan(b)) {
          error(ErrorCode::Runtime, pos, "invalid power (negative base?)");
        }
        return r;
      }
      default:
        BANGER_ASSERT(false, "unreachable arithmetic op");
    }
  }

  // `lhs`/`rhs` are the caller's dead locals, so vector payloads are
  // reused in place instead of copied — element order and error
  // precedence are unchanged.
  [[gnu::noinline]] Value arith(BinOp op, Value& lhs, Value& rhs,
                                SourcePos pos) {
    if (lhs.is_scalar() && rhs.is_scalar()) {
      return Value(scalar_op(op, lhs.as_scalar(), rhs.as_scalar(), pos));
    }
    if (lhs.is_vector() && rhs.is_vector()) {
      const Vector& b = rhs.as_vector();
      if (lhs.as_vector().size() != b.size()) {
        error(ErrorCode::Type, pos, "elementwise `", to_string(op),
              "` on vectors of lengths ", lhs.as_vector().size(), " and ",
              b.size());
      }
      Vector out = std::move(lhs.as_vector());
      for (std::size_t i = 0; i < out.size(); ++i) {
        out[i] = scalar_op(op, out[i], b[i], pos);
      }
      return Value(std::move(out));
    }
    // scalar <op> vector broadcast.
    if (lhs.is_scalar() && rhs.is_vector()) {
      const double a = lhs.as_scalar();
      Vector out = std::move(rhs.as_vector());
      for (double& x : out) x = scalar_op(op, a, x, pos);
      return Value(std::move(out));
    }
    if (lhs.is_vector() && rhs.is_scalar()) {
      const double b = rhs.as_scalar();
      Vector out = std::move(lhs.as_vector());
      for (double& x : out) x = scalar_op(op, x, b, pos);
      return Value(std::move(out));
    }
    error(ErrorCode::Type, pos, "operator `", to_string(op), "` on a ",
          lhs.type_name(), " and a ", rhs.type_name());
  }

  [[gnu::noinline]] Value eval_call(const Call& node, SourcePos pos) {
    // `when(cond, a, b)` is a special form: only the selected branch is
    // evaluated, which is what makes recursive formulas terminate.
    if (node.callee == "when") {
      if (node.args.size() != 3) {
        error(ErrorCode::Type, pos, "when() expects (condition, then, else)");
      }
      return eval(*node.args[eval(*node.args[0]).truthy() ? 1 : 2]);
    }
    if (auto it = formulas_.find(node.callee); it != formulas_.end()) {
      return eval_formula(*it->second, node, pos);
    }
    return eval_builtin(node, pos);
  }

  [[gnu::noinline]] Value eval_builtin(const Call& node, SourcePos pos) {
    const Builtin* fn = BuiltinRegistry::instance().find(node.callee);
    if (fn == nullptr) {
      error(ErrorCode::Name, pos, "unknown function `", node.callee, "`");
    }
    const int n = static_cast<int>(node.args.size());
    if (n < fn->min_args || (fn->max_args >= 0 && n > fn->max_args)) {
      fail_arity(node, *fn, pos);
    }
    std::vector<Value> args;
    args.reserve(node.args.size());
    for (const auto& a : node.args) args.push_back(eval(*a));
    try {
      return fn->fn(args, ctx_);
    } catch (const Error& e) {
      // Re-throw with the call position attached.
      error(e.code(), pos, e.message(), " in `", node.callee, "`");
    }
  }

  [[gnu::noinline]] Value eval_formula(const FormulaDef& def,
                                       const Call& call, SourcePos pos) {
    if (call.args.size() != def.params.size()) {
      error(ErrorCode::Type, pos, "formula `", def.name, "` expects ",
            def.params.size(), " arguments, got ", call.args.size());
    }
    const DepthGuard frame_depth(*this, pos);
    if (++formula_depth_ > 256) {
      --formula_depth_;
      error(ErrorCode::Limit, pos, "formula recursion deeper than 256 (`",
            def.name, "`)");
    }
    // Arguments evaluate in the caller's scope; the body sees only its
    // parameters (plus constants) — formulas are pure.
    Env frame;
    for (std::size_t i = 0; i < call.args.size(); ++i) {
      frame.emplace(def.params[i], eval(*call.args[i]));
    }
    // RAII frame guard: scope and depth must unwind on *any* exit, but
    // the error itself must escape intact — a blanket catch here used to
    // discard which formula the failure happened in.
    struct FrameGuard {
      Interp& interp;
      Env* saved;
      ~FrameGuard() {
        interp.scope_ = saved;
        --interp.formula_depth_;
      }
    } guard{*this, scope_};
    scope_ = &frame;
    try {
      tick(pos);
      return eval(*def.body);
    } catch (const Error& e) {
      // Attribute the failure to the innermost formula, once, keeping
      // the original code and position so callers can still classify it.
      if (e.message().find(" in formula `") != std::string::npos) throw;
      error(e.code(), e.pos().valid() ? e.pos() : pos, e.message(),
            " in formula `", def.name, "`");
    }
  }

  Env& env_;
  Env* scope_;
  std::map<std::string, const FormulaDef*> formulas_;
  int formula_depth_ = 0;
  int depth_ = 0;  ///< native recursion levels (DepthGuard)
  const ExecOptions& options_;
  util::Rng rng_;
  BuiltinContext ctx_;
  std::uint64_t steps_ = 0;
};

}  // namespace detail

/// Runs `body` against `env` on the tree-walker, mutating `env`.
inline void walk(const Block& body, Env& env, const ExecOptions& options = {}) {
  detail::Interp(env, options).run(body);
}

inline void walk(const Program& program, Env& env,
                 const ExecOptions& options = {}) {
  walk(program.body(), env, options);
}

}  // namespace banger::pits::reference
