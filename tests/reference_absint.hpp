// tests/reference_absint.hpp
//
// The abstract interpreter as it ran beside the dataflow layer, kept as
// the differential oracle for src/analyze/absint.cpp together with
// tests/reference_pits_rules.hpp, the same role
// tests/reference_walker.hpp plays for the PITS VM. It is the earlier
// absint.hpp followed by absint.cpp, in namespace
// banger::analyze::reference: the BAN30x engine that defers to the
// dataflow layer's BAN104/BAN105/BAN108 at the same spot and erases the
// BAN101s it proves false, and the context-free compute_facts(). The
// one addition is `Reached`: what its recording pass reaches, so a
// differential suite can tell findings in code that never runs from the
// rest. Compiled only into test targets; never link it into the product
// libraries.
//
// banger/analyze/absint.hpp
//
// Abstract interpretation over PITS routines: a forward analysis on a
// product domain of value kinds (scalar / vector / string / unbound),
// floating-point intervals for scalar values, and intervals for vector
// lengths and elements. Loops stabilise by widening at the head; formula
// calls are analysed interprocedurally with a depth cap and memoised
// top-argument summaries.
//
// Two consumers share the engine:
//
//   diagnostics  run_absint_rules() proves BAN301-BAN305 facts about one
//                routine (guaranteed division by zero, interval-proven
//                out-of-bounds indices, dead branches, non-terminating
//                loops, elementwise length mismatches) and returns a
//                ShapeSummary used by run_shape_rules() to check
//                producer/consumer shapes along the flattened task graph
//                (BAN306);
//   compilation  compute_facts() re-runs the engine context-free — every
//                free variable may be unbound, so the proofs hold for
//                any environment — and records per-AST-node facts the
//                bytecode compiler (pits/compile.cpp) uses to elide
//                checks and batch statement ticks. Elision never changes
//                observable behaviour; the differential fuzz suite in
//                tests/pits_vm_test.cpp enforces walker equivalence.
#pragma once

#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "analyze/analyze.hpp"
#include "graph/design.hpp"
#include "pits/ast.hpp"
#include "pits/facts.hpp"
#include "util/error.hpp"

namespace banger::pits {
class Program;
}  // namespace banger::pits

namespace banger::analyze::reference {

inline constexpr double kAbsInf = std::numeric_limits<double>::infinity();

/// A floating-point interval [lo, hi] plus two refinement bits: whether
/// every non-NaN value is a mathematical integer, and whether NaN is a
/// possible value. `lo`/`hi` themselves are never NaN; an interval that
/// would be is widened to full range with `maybe_nan` set.
struct Interval {
  double lo = -kAbsInf;
  double hi = kAbsInf;
  bool integer = false;
  bool maybe_nan = true;

  [[nodiscard]] bool is_exact() const {
    return lo == hi && !maybe_nan && std::isfinite(lo);
  }
  [[nodiscard]] bool is_top() const {
    return lo == -kAbsInf && hi == kAbsInf && !integer && maybe_nan;
  }
};

[[nodiscard]] inline Interval iv_top() { return {}; }

[[nodiscard]] inline Interval iv_range(double lo, double hi,
                                       bool integer = false,
                                       bool maybe_nan = false) {
  if (std::isnan(lo) || std::isnan(hi) || lo > hi) return {};
  return {lo, hi, integer, maybe_nan};
}

[[nodiscard]] inline Interval iv_exact(double v) {
  if (std::isnan(v)) return {};
  return {v, v, std::floor(v) == v, false};
}

[[nodiscard]] inline bool operator==(const Interval& a, const Interval& b) {
  return a.lo == b.lo && a.hi == b.hi && a.integer == b.integer &&
         a.maybe_nan == b.maybe_nan;
}

/// Least upper bound: the convex hull, conjoined integrality, disjoined
/// NaN possibility.
[[nodiscard]] Interval join(const Interval& a, const Interval& b);

/// Standard interval widening: a bound that grew since `prev` jumps to
/// infinity, a stable bound is kept. Guarantees loop analyses terminate:
/// each bound can widen at most once, the bits are monotone.
[[nodiscard]] Interval widen(const Interval& prev, const Interval& next);

/// Abstract PITS value: which runtime kinds are possible, plus the
/// interval refinements that apply to each kind. `num` constrains the
/// value when it is a scalar; `len`/`elem` constrain it when it is a
/// vector. `must_assigned` means an actual `:=` assigned the name on
/// every path (stronger than "not unbound": calculator constants
/// materialise on read without an assignment).
struct AbsVal {
  bool may_scalar = true;
  bool may_vector = true;
  bool may_string = true;
  bool may_unbound = true;
  bool must_assigned = false;
  Interval num;
  Interval len{0, kAbsInf, true, false};
  Interval elem;
  /// Symbol (pits::SymId in the analysed routine) of the task input this
  /// value is an unmodified copy of, kNoSym otherwise. Powers the
  /// cross-task shape demands of BAN306.
  pits::SymId origin = pits::kNoSym;

  [[nodiscard]] bool proven_scalar() const {
    return may_scalar && !may_vector && !may_string && !may_unbound;
  }
  [[nodiscard]] bool proven_vector() const {
    return may_vector && !may_scalar && !may_string && !may_unbound;
  }
  [[nodiscard]] bool proven_string() const {
    return may_string && !may_scalar && !may_vector && !may_unbound;
  }

  [[nodiscard]] static AbsVal top() { return {}; }
  [[nodiscard]] static AbsVal top_bound() {
    AbsVal v;
    v.may_unbound = false;
    return v;
  }
  [[nodiscard]] static AbsVal scalar(const Interval& n) {
    AbsVal v;
    v.may_vector = v.may_string = v.may_unbound = false;
    v.num = n;
    return v;
  }
  [[nodiscard]] static AbsVal vector(const Interval& length,
                                     const Interval& element) {
    AbsVal v;
    v.may_scalar = v.may_string = v.may_unbound = false;
    v.len = length;
    v.elem = element;
    return v;
  }
  [[nodiscard]] static AbsVal string() {
    AbsVal v;
    v.may_scalar = v.may_vector = v.may_unbound = false;
    return v;
  }
};

[[nodiscard]] bool operator==(const AbsVal& a, const AbsVal& b);
[[nodiscard]] AbsVal join(const AbsVal& a, const AbsVal& b);
[[nodiscard]] AbsVal widen(const AbsVal& prev, const AbsVal& next);

/// What one routine requires of one of its inputs, collected from the
/// sites that use the input before reassigning it.
struct ShapeDemand {
  bool needs_vector = false;  ///< input is indexed
  double min_len = 0;         ///< least length the indexing requires
  bool needs_scalar = false;  ///< input is a repeat count / loop bound / index
  double elem_len = -1;       ///< exact length an elementwise op requires, or -1
  SourcePos pos;              ///< first demanding site (file coordinates)
};

/// Per-routine interface summary for the graph-level shape pass: the
/// abstract value of each declared output at routine exit, and the
/// demands placed on each input.
struct ShapeSummary {
  std::map<std::string, AbsVal> outputs;
  std::map<std::string, ShapeDemand> demands;
};

/// Context-free analysis of one routine body: proofs that hold for every
/// environment the routine could run against (free variables may be
/// unbound and of any type). The returned facts key AST node addresses
/// of `body`, so they are only meaningful for a compile of that same
/// block — pits::Program::precompile(facts) wires them through.
[[nodiscard]] pits::bc::AnalysisFacts compute_facts(const pits::Block& body);

/// compute_facts + precompile in one call: the drop-in replacement for
/// Program::precompile() used by the executor and the calculator panel.
void precompile_optimized(const pits::Program& program);

/// What the recording pass of run_absint_rules reached: each Stmt*,
/// Expr* and Block* it entered, and each Block* whose end it reached.
struct Reached {
  std::unordered_set<const void*> entered;
  std::unordered_set<const void*> completed;
};

/// Interval/shape diagnostics (BAN301-BAN305) over one routine, with
/// declared inputs assumed bound. Appends to `sink` (and prunes BAN101
/// reports the interpreter proves are false positives); returns the
/// routine's shape summary for run_shape_rules().
ShapeSummary run_absint_rules(const pits::Block& body,
                              const RoutineContext& context,
                              std::vector<Diagnostic>& sink,
                              Reached* reached = nullptr);

/// Graph-level shape propagation (BAN306): compares each flattened
/// store's producer output shapes against its consumers' input demands.
/// `summaries` maps task ids of `flat.graph` to their routine summaries.
void run_shape_rules(const graph::FlattenResult& flat,
                     const std::map<graph::TaskId, ShapeSummary>& summaries,
                     std::vector<Diagnostic>& sink);

}  // namespace banger::analyze::reference

// ---- src/analyze/absint.cpp ----

// banger/analyze/absint.cpp
//
// The abstract interpreter behind BAN30x diagnostics and the bytecode
// compiler's check elision. Every transfer function mirrors the concrete
// semantics of pits/interp.cpp exactly — including the odd corners: NaN
// is truthy, NaN orders as *equal* under </<=/>/>= (the walker's
// three-way compare maps NaN to 0), `^` raises an error instead of
// returning NaN, for-loop bounds get a 1e-12 epsilon, and `when` is
// lazy. Soundness rule: every recorded fact/diagnostic must hold for
// every concrete execution; when in doubt a transfer function answers
// top. The differential fuzz suite in tests/pits_vm_test.cpp checks the
// facts side against the tree-walker.
#include <algorithm>
#include <compare>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <variant>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "pits/builtins.hpp"
#include "pits/interp.hpp"

namespace banger::analyze::reference {

// ---------------------------------------------------------------------
// Interval lattice
// ---------------------------------------------------------------------

Interval join(const Interval& a, const Interval& b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi),
          a.integer && b.integer, a.maybe_nan || b.maybe_nan};
}

Interval widen(const Interval& prev, const Interval& next) {
  return {next.lo < prev.lo ? -kAbsInf : prev.lo,
          next.hi > prev.hi ? kAbsInf : prev.hi,
          prev.integer && next.integer, prev.maybe_nan || next.maybe_nan};
}

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
using pits::StmtPtr;
using pits::StringLit;
using pits::SymId;
using pits::UnOp;
using pits::Unary;
using pits::VarRef;
using pits::VectorLit;
using pits::WhileStmt;

constexpr double kPi = 3.14159265358979323846;

Interval iv_neg(const Interval& a) {
  return {-a.hi, -a.lo, a.integer, a.maybe_nan};
}

/// Builds an interval from corner evaluations; a NaN corner (inf - inf,
/// 0 * inf, ...) means the operation can leave the real line, so the
/// result widens to full range with NaN possible.
Interval from_corners(std::initializer_list<double> corners, bool integer,
                      bool maybe_nan) {
  double lo = kAbsInf;
  double hi = -kAbsInf;
  for (double c : corners) {
    if (std::isnan(c)) return {};
    lo = std::min(lo, c);
    hi = std::max(hi, c);
  }
  return {lo, hi, integer, maybe_nan};
}

bool may_inf(const Interval& a) { return a.lo == -kAbsInf || a.hi == kAbsInf; }

Interval iv_add(const Interval& a, const Interval& b) {
  return from_corners({a.lo + b.lo, a.hi + b.hi}, a.integer && b.integer,
                      a.maybe_nan || b.maybe_nan);
}

Interval iv_sub(const Interval& a, const Interval& b) {
  return from_corners({a.lo - b.hi, a.hi - b.lo}, a.integer && b.integer,
                      a.maybe_nan || b.maybe_nan);
}

Interval iv_mul(const Interval& a, const Interval& b) {
  return from_corners({a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi},
                      a.integer && b.integer, a.maybe_nan || b.maybe_nan);
}

Interval iv_div(const Interval& a, const Interval& b) {
  // Division by zero raises an error (those executions never produce a
  // value), but a divisor interval touching zero still admits values
  // arbitrarily close to it, so the quotient is unbounded.
  if (b.lo > 0 || b.hi < 0) {
    return from_corners({a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi},
                        false, a.maybe_nan || b.maybe_nan);
  }
  return {};
}

Interval iv_mod(const Interval& a, const Interval& b) {
  if (b.lo > 0 || b.hi < 0) {
    // fmod: |result| < |divisor|, sign follows the dividend;
    // fmod(±inf, y) is NaN.
    const double m = std::max(std::abs(b.lo), std::abs(b.hi));
    double lo = -m;
    double hi = m;
    if (a.lo >= 0) lo = 0;
    if (a.hi <= 0) hi = 0;
    return {lo, hi, a.integer && b.integer,
            a.maybe_nan || b.maybe_nan || may_inf(a)};
  }
  return {};
}

Interval iv_square(const Interval& a) {
  const double m = std::max(a.lo * a.lo, a.hi * a.hi);
  const double lo = (a.lo <= 0 && a.hi >= 0) ? 0 : std::min(a.lo * a.lo, a.hi * a.hi);
  return from_corners({lo, m}, a.integer, a.maybe_nan);
}

Interval iv_pow(const Interval& a, const Interval& b) {
  // The `^` operator errors out instead of returning NaN (scalar_op),
  // so a NaN result needs a NaN operand.
  const bool nan = a.maybe_nan || b.maybe_nan;
  if (b.is_exact() && b.lo == 2) return iv_square(a);
  if (a.lo >= 0) return {0, kAbsInf, false, nan};
  return {-kAbsInf, kAbsInf, false, nan};
}

enum class Tri : std::uint8_t { False, True, Maybe };

/// Ordering proofs under the walker's three-way compare, where a NaN
/// operand yields cmp == 0: NaN makes <= and >= TRUE and < and > false.
Tri tri_cmp(BinOp op, const Interval& a, const Interval& b) {
  const bool no_nan = !a.maybe_nan && !b.maybe_nan;
  const bool disjoint = a.hi < b.lo || b.hi < a.lo;
  switch (op) {
    case BinOp::Lt:
      if (no_nan && a.hi < b.lo) return Tri::True;
      if (a.lo >= b.hi) return Tri::False;
      return Tri::Maybe;
    case BinOp::Le:
      if (a.hi <= b.lo) return Tri::True;
      if (no_nan && a.lo > b.hi) return Tri::False;
      return Tri::Maybe;
    case BinOp::Gt:
      if (no_nan && a.lo > b.hi) return Tri::True;
      if (a.hi <= b.lo) return Tri::False;
      return Tri::Maybe;
    case BinOp::Ge:
      if (a.lo >= b.hi) return Tri::True;
      if (no_nan && a.hi < b.lo) return Tri::False;
      return Tri::Maybe;
    case BinOp::Eq:
      if (disjoint) return Tri::False;  // NaN == x is false as well
      if (no_nan && a.is_exact() && b.is_exact() && a.lo == b.lo)
        return Tri::True;
      return Tri::Maybe;
    case BinOp::Ne:
      if (disjoint) return Tri::True;  // NaN != x is true as well
      if (no_nan && a.is_exact() && b.is_exact() && a.lo == b.lo)
        return Tri::False;
      return Tri::Maybe;
    default:
      return Tri::Maybe;
  }
}

/// Truthiness of an abstract value: NaN is truthy (NaN != 0), zero is
/// the only falsy scalar, vectors/strings are truthy iff non-empty.
Tri truth_of(const AbsVal& v) {
  bool can_true = false;
  bool can_false = false;
  if (v.may_scalar) {
    can_true |= v.num.maybe_nan || v.num.lo < 0 || v.num.hi > 0;
    can_false |= v.num.lo <= 0 && v.num.hi >= 0;
  }
  if (v.may_vector) {
    can_true |= v.len.hi >= 1;
    can_false |= v.len.lo <= 0;
  }
  if (v.may_string || v.may_unbound) {
    can_true = true;
    can_false = true;
  }
  if (can_true && !can_false) return Tri::True;
  if (can_false && !can_true) return Tri::False;
  return Tri::Maybe;
}

AbsVal tri_scalar(Tri t) {
  switch (t) {
    case Tri::True: return AbsVal::scalar(iv_exact(1));
    case Tri::False: return AbsVal::scalar(iv_exact(0));
    default: return AbsVal::scalar(iv_range(0, 1, true));
  }
}

Interval pick_join(bool a_has, const Interval& a, bool b_has,
                   const Interval& b, const Interval& neither) {
  if (a_has && b_has) return join(a, b);
  if (a_has) return a;
  if (b_has) return b;
  return neither;
}

const Interval kLenTop{0, kAbsInf, true, false};

}  // namespace

// ---------------------------------------------------------------------
// AbsVal lattice
// ---------------------------------------------------------------------

bool operator==(const AbsVal& a, const AbsVal& b) {
  return a.may_scalar == b.may_scalar && a.may_vector == b.may_vector &&
         a.may_string == b.may_string && a.may_unbound == b.may_unbound &&
         a.must_assigned == b.must_assigned && a.num == b.num &&
         a.len == b.len && a.elem == b.elem && a.origin == b.origin;
}

AbsVal join(const AbsVal& a, const AbsVal& b) {
  AbsVal r;
  r.may_scalar = a.may_scalar || b.may_scalar;
  r.may_vector = a.may_vector || b.may_vector;
  r.may_string = a.may_string || b.may_string;
  r.may_unbound = a.may_unbound || b.may_unbound;
  r.must_assigned = a.must_assigned && b.must_assigned;
  r.num = pick_join(a.may_scalar, a.num, b.may_scalar, b.num, iv_top());
  r.len = pick_join(a.may_vector, a.len, b.may_vector, b.len, kLenTop);
  r.elem = pick_join(a.may_vector, a.elem, b.may_vector, b.elem, iv_top());
  r.origin = a.origin == b.origin ? a.origin : pits::kNoSym;
  return r;
}

AbsVal widen(const AbsVal& prev, const AbsVal& next) {
  AbsVal r = join(prev, next);
  // A kind that only appears in `next` adopts next's intervals (first
  // appearance); a kind present in both widens bound-by-bound.
  r.num = prev.may_scalar ? widen(prev.num, r.num) : r.num;
  r.len = prev.may_vector ? widen(prev.len, r.len) : r.len;
  r.elem = prev.may_vector ? widen(prev.elem, r.elem) : r.elem;
  return r;
}

namespace {

// ---------------------------------------------------------------------
// Abstract machine state
// ---------------------------------------------------------------------

/// One variable of an AbsState. An absent variable reads as
/// AbsInterp::default_var().
struct VarSlot {
  AbsVal val;
  bool present = false;
};

struct AbsState {
  bool reachable = true;
  /// Indexed by symbol and sized to the largest one written, so a copy
  /// is one allocation. In a formula frame (`params` set) slot i holds
  /// parameter (*params)[i] instead; such frames are only read.
  std::vector<VarSlot> vars;
  const pits::NodeArray<SymId>* params = nullptr;
  /// May/must "formula i registered" bitmasks over the routine's
  /// FormulaDef statements, in collection order (index 63 is shared by
  /// all defs past the 63rd; must-tracking is disabled entirely then).
  std::uint64_t def_may = 0;
  std::uint64_t def_must = 0;
};

// ---------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------

class AbsInterp {
 public:
  struct Config {
    /// Facts mode: free variables may be unbound and of any type, so
    /// every recorded proof holds for any environment. Diagnostics mode
    /// seeds the declared inputs as bound instead.
    bool context_free = true;
    const RoutineContext* ctx = nullptr;
    std::vector<Diagnostic>* sink = nullptr;
    pits::bc::AnalysisFacts* facts = nullptr;
    ShapeSummary* summary = nullptr;
    Reached* reached = nullptr;
  };

  explicit AbsInterp(Config cfg) : cfg_(cfg) {}

  void run(const Block& body) {
    collect_symbols(body);
    collect_formulas(body);
    chain_formulas();
    AbsState st;
    std::vector<SymId> inputs;
    std::vector<SymId> outputs;
    if (cfg_.ctx != nullptr) {
      resolve_ports(inputs, outputs);
      if (!cfg_.context_free) {
        for (const SymId in : inputs) {
          AbsVal& v = set_var(st, in);
          v = AbsVal::top_bound();
          v.must_assigned = true;
          v.origin = in;
        }
      }
    }
    exit_acc_.reachable = false;
    exec_block(body, st);
    const AbsState fin = join_state(exit_acc_, st);
    if (cfg_.summary != nullptr && cfg_.ctx != nullptr) {
      for (std::size_t i = 0; i < outputs.size(); ++i) {
        cfg_.summary->outputs[cfg_.ctx->outputs[i]] = peek_var(fin, outputs[i]);
      }
    }
  }

  /// Positions (file coordinates) of reads proven to hit an assigned
  /// variable — used to prune BAN101 false positives. Sorted, unique.
  [[nodiscard]] std::vector<std::pair<int, int>> proven_reads() {
    std::sort(proven_reads_.begin(), proven_reads_.end());
    proven_reads_.erase(std::unique(proven_reads_.begin(), proven_reads_.end()),
                        proven_reads_.end());
    return std::move(proven_reads_);
  }

  /// Syntactic companion pass: a statement gets exactly one tick iff its
  /// expressions cannot call a user formula (formula evaluation ticks
  /// per call; builtins and `when` do not).
  void mark_single_ticks(const Block& body, pits::bc::AnalysisFacts& facts) {
    for (const StmtPtr& sp : body) {
      const Stmt& s = *sp;
      bool single = true;
      std::visit(
          [&](const auto& node) {
            using T = std::decay_t<decltype(node)>;
            if constexpr (std::is_same_v<T, AssignStmt>) {
              single = (node.index == nullptr || formula_free(*node.index)) &&
                       formula_free(*node.value);
            } else if constexpr (std::is_same_v<T, ExprStmt>) {
              single = formula_free(*node.expr);
            } else if constexpr (std::is_same_v<T, IfStmt>) {
              single = false;
              for (const IfStmt::Arm& arm : node.arms)
                mark_single_ticks(arm.body, facts);
              mark_single_ticks(node.else_body, facts);
            } else if constexpr (std::is_same_v<T, WhileStmt>) {
              single = false;
              mark_single_ticks(node.body, facts);
            } else if constexpr (std::is_same_v<T, RepeatStmt>) {
              single = false;
              mark_single_ticks(node.body, facts);
            } else if constexpr (std::is_same_v<T, ForStmt>) {
              single = false;
              mark_single_ticks(node.body, facts);
            } else {
              // ReturnStmt, FormulaDef: registering a formula does not
              // evaluate its body.
              single = true;
            }
          },
          s.node);
      if (single) facts.single_tick.insert(&s);
    }
  }

 private:
  // ---- setup ----

  /// Per-symbol facts the engine consults on every absent read.
  struct SymInfo {
    std::string_view name;
    bool constant = false;  ///< a calculator constant materialises on read
  };

  void collect_symbols(const Block& body) {
    const std::vector<std::string_view> names = pits::symbol_names(body);
    syms_.resize(names.size());
    for (std::size_t s = 0; s < names.size(); ++s) add_symbol(s, names[s]);
  }

  void add_symbol(std::size_t s, std::string_view name) {
    syms_[s].name = name;
    syms_[s].constant = pits::constants().contains(name);
  }

  /// Symbols of the declared inputs and outputs, in declaration order.
  /// A port the routine never names gets a fresh symbol past the
  /// routine's own, shared by an input and an output of the same name.
  void resolve_ports(std::vector<SymId>& inputs, std::vector<SymId>& outputs) {
    inputs.assign(cfg_.ctx->inputs.size(), pits::kNoSym);
    outputs.assign(cfg_.ctx->outputs.size(), pits::kNoSym);
    // Sorted by name: each routine symbol finds its ports by binary
    // search, and ports of one name sit together.
    std::vector<std::pair<std::string_view, SymId*>> ports;
    for (std::size_t i = 0; i < inputs.size(); ++i)
      ports.emplace_back(cfg_.ctx->inputs[i], &inputs[i]);
    for (std::size_t i = 0; i < outputs.size(); ++i)
      ports.emplace_back(cfg_.ctx->outputs[i], &outputs[i]);
    if (ports.empty()) return;
    std::sort(ports.begin(), ports.end());
    auto by_name = [](const auto& port, std::string_view name) {
      return port.first < name;
    };
    for (std::size_t s = 0; s < syms_.size(); ++s) {
      for (auto it = std::lower_bound(ports.begin(), ports.end(),
                                      syms_[s].name, by_name);
           it != ports.end() && it->first == syms_[s].name; ++it)
        *it->second = static_cast<SymId>(s);
    }
    for (std::size_t k = 0; k < ports.size(); ++k) {
      SymId& sym = *ports[k].second;
      if (sym != pits::kNoSym) continue;
      if (k > 0 && ports[k - 1].first == ports[k].first) {
        sym = *ports[k - 1].second;
      } else {
        sym = static_cast<SymId>(syms_.size());
        syms_.emplace_back();
        add_symbol(sym, ports[k].first);
      }
    }
  }

  void collect_formulas(const Block& body) {
    for (const StmtPtr& sp : body) {
      std::visit(
          [&](const auto& node) {
            using T = std::decay_t<decltype(node)>;
            if constexpr (std::is_same_v<T, FormulaDef>) {
              def_index_[&node] = defs_.size();
              defs_.push_back(&node);
            } else if constexpr (std::is_same_v<T, IfStmt>) {
              for (const IfStmt::Arm& arm : node.arms)
                collect_formulas(arm.body);
              collect_formulas(node.else_body);
            } else if constexpr (std::is_same_v<T, WhileStmt> ||
                                 std::is_same_v<T, RepeatStmt> ||
                                 std::is_same_v<T, ForStmt>) {
              collect_formulas(node.body);
            }
          },
          sp->node);
    }
  }

  /// Links each symbol's formula defs in collection order.
  void chain_formulas() {
    if (defs_.empty()) return;
    first_def_.assign(syms_.size(), kNoDef);
    next_def_.assign(defs_.size(), kNoDef);
    for (std::size_t k = defs_.size(); k > 0; --k) {
      const std::size_t di = k - 1;
      const SymId s = defs_[di]->sym;
      next_def_[di] = first_def_[s];
      first_def_[s] = static_cast<std::uint32_t>(di);
    }
  }

  [[nodiscard]] bool is_formula(SymId s) const {
    return !first_def_.empty() && first_def_[s] != kNoDef;
  }

  [[nodiscard]] bool formula_free(const Expr& e) const {
    bool ok = true;
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, VectorLit>) {
            for (const auto& el : node.elements) ok = ok && formula_free(*el);
          } else if constexpr (std::is_same_v<T, Unary>) {
            ok = formula_free(*node.operand);
          } else if constexpr (std::is_same_v<T, pits::Binary>) {
            ok = formula_free(*node.lhs) && formula_free(*node.rhs);
          } else if constexpr (std::is_same_v<T, Index>) {
            ok = formula_free(*node.base) && formula_free(*node.index);
          } else if constexpr (std::is_same_v<T, Call>) {
            if (node.callee != "when" && is_formula(node.sym)) ok = false;
            for (const auto& a : node.args) ok = ok && formula_free(*a);
          }
        },
        e.node);
    return ok;
  }

  // ---- state helpers ----

  [[nodiscard]] AbsVal default_var(SymId s) const {
    AbsVal v = AbsVal::top();
    // Calculator constants materialise on read (no Name error), though
    // the environment may shadow them with any value.
    if (syms_[s].constant) v.may_unbound = false;
    return v;
  }

  /// The value bound to `s` in `st`, or null when it is absent.
  [[nodiscard]] static const AbsVal* find_var(const AbsState& st, SymId s) {
    if (st.params != nullptr) {
      for (std::size_t i = 0; i < st.params->size(); ++i)
        if ((*st.params)[i] == s) return &st.vars[i].val;
      return nullptr;
    }
    return s < st.vars.size() && st.vars[s].present ? &st.vars[s].val
                                                     : nullptr;
  }
  [[nodiscard]] static AbsVal* find_var(AbsState& st, SymId s) {
    return const_cast<AbsVal*>(find_var(std::as_const(st), s));
  }

  /// Binds `s` in a routine-level state; the caller sets the value.
  static AbsVal& set_var(AbsState& st, SymId s) {
    if (s >= st.vars.size()) st.vars.resize(s + 1);
    st.vars[s].present = true;
    return st.vars[s].val;
  }

  [[nodiscard]] AbsVal peek_var(const AbsState& st, SymId s) const {
    const AbsVal* v = find_var(st, s);
    return v != nullptr ? *v : default_var(s);
  }

  /// Slot `s` of a routine-level state, or null when it is absent.
  [[nodiscard]] static const VarSlot* slot_at(const AbsState& st, SymId s) {
    return s < st.vars.size() && st.vars[s].present ? &st.vars[s] : nullptr;
  }

  [[nodiscard]] AbsState join_state(const AbsState& a, const AbsState& b) const {
    if (!a.reachable) return b;
    if (!b.reachable) return a;
    AbsState r;
    r.def_may = a.def_may | b.def_may;
    r.def_must = a.def_must & b.def_must;
    r.vars.resize(std::max(a.vars.size(), b.vars.size()));
    for (SymId s = 0; s < r.vars.size(); ++s) {
      const VarSlot* x = slot_at(a, s);
      const VarSlot* y = slot_at(b, s);
      if (x == nullptr && y == nullptr) continue;
      r.vars[s] = {join(x != nullptr ? x->val : default_var(s),
                        y != nullptr ? y->val : default_var(s)),
                   true};
    }
    return r;
  }

  [[nodiscard]] AbsState widen_state(const AbsState& prev,
                                     const AbsState& next) const {
    AbsState r;
    r.reachable = next.reachable;
    r.def_may = next.def_may;
    r.def_must = next.def_must;
    r.vars.resize(next.vars.size());
    for (SymId s = 0; s < next.vars.size(); ++s) {
      if (!next.vars[s].present) continue;
      const VarSlot* p = slot_at(prev, s);
      r.vars[s] = {widen(p != nullptr ? p->val : default_var(s),
                         next.vars[s].val),
                   true};
    }
    return r;
  }

  [[nodiscard]] bool state_eq(const AbsState& a, const AbsState& b) const {
    if (a.reachable != b.reachable || a.def_may != b.def_may ||
        a.def_must != b.def_must)
      return false;
    const std::size_t n = std::max(a.vars.size(), b.vars.size());
    for (SymId s = 0; s < n; ++s) {
      const VarSlot* x = slot_at(a, s);
      const VarSlot* y = slot_at(b, s);
      if (x == nullptr && y == nullptr) continue;
      if (!((x != nullptr ? x->val : default_var(s)) ==
            (y != nullptr ? y->val : default_var(s))))
        return false;
    }
    return true;
  }

  // ---- reporting ----

  [[nodiscard]] SourcePos at(SourcePos p) const {
    if (cfg_.ctx == nullptr || !p.valid() || cfg_.ctx->pits_line <= 0) return p;
    return {cfg_.ctx->pits_line + p.line - 1, p.column + cfg_.ctx->pits_indent};
  }

  [[nodiscard]] bool recording(const AbsState& st) const {
    return record_ && st.reachable && depth_ == 0;
  }

  void emit(std::string code, SourcePos pos, std::string message,
            std::string hint = {}) {
    const DiagnosticRule* rule = find_rule(code);
    Diagnostic d;
    d.code = std::move(code);
    d.severity = rule != nullptr ? rule->severity : Severity::Warning;
    d.subject_kind = "task";
    d.subject = cfg_.ctx != nullptr ? cfg_.ctx->subject : "routine";
    d.message = std::move(message);
    d.hint = std::move(hint);
    d.pos = at(pos);
    cfg_.sink->push_back(std::move(d));
  }

  /// A report of an earlier rule layer that silences BAN30x at its spot.
  struct Spot {
    int line = 0;
    int column = 0;
    std::string_view code;  ///< one of kEarlierCodes
    auto operator<=>(const Spot&) const = default;
  };
  static constexpr std::string_view kEarlierCodes[] = {"BAN104", "BAN105",
                                                       "BAN108"};

  /// True if an earlier rule layer already reported `code` (one of
  /// kEarlierCodes) at the same spot — the cheap-layer report wins,
  /// BAN30x stays quiet. The sink's reports are indexed on the first
  /// call; absint never emits those codes itself, so the index holds.
  [[nodiscard]] bool already(std::string_view code, SourcePos pos) {
    if (!earlier_indexed_) {
      earlier_indexed_ = true;
      const std::string_view subject =
          cfg_.ctx != nullptr ? std::string_view(cfg_.ctx->subject)
                              : std::string_view("routine");
      for (const Diagnostic& d : *cfg_.sink) {
        if (d.subject != subject) continue;
        for (std::string_view c : kEarlierCodes)
          if (d.code == c) earlier_.push_back({d.pos.line, d.pos.column, c});
      }
      std::sort(earlier_.begin(), earlier_.end());
    }
    const SourcePos p = at(pos);
    return std::binary_search(earlier_.begin(), earlier_.end(),
                              Spot{p.line, p.column, code});
  }

  /// The demand record of the input `origin` names, or null when none
  /// is being collected here.
  ShapeDemand* demand(const AbsState& st, SymId origin, SourcePos pos) {
    if (cfg_.summary == nullptr || origin == pits::kNoSym || !recording(st))
      return nullptr;
    ShapeDemand& d = cfg_.summary->demands[std::string(syms_[origin].name)];
    if (!d.pos.valid()) d.pos = at(pos);
    return &d;
  }

  void demand_vector(const AbsState& st, SymId origin, double min_len,
                     SourcePos pos) {
    if (ShapeDemand* d = demand(st, origin, pos)) {
      d->needs_vector = true;
      d->min_len = std::max(d->min_len, min_len);
    }
  }

  void demand_scalar(const AbsState& st, SymId origin, SourcePos pos) {
    if (ShapeDemand* d = demand(st, origin, pos)) d->needs_scalar = true;
  }

  void demand_elem_len(const AbsState& st, SymId origin, double exact_len,
                       SourcePos pos) {
    if (ShapeDemand* d = demand(st, origin, pos); d && d->elem_len < 0)
      d->elem_len = exact_len;
  }

  // ---- expression evaluation ----

  AbsVal eval(const Expr& e, AbsState& st) {
    note_reached(&e, st);
    return std::visit([&](const auto& node) { return eval_node(node, e, st); },
                      e.node);
  }

  /// Evaluation with fact/diagnostic recording suppressed (condition
  /// refinement, fixpoint probing).
  AbsVal eval_quiet(const Expr& e, AbsState& st) {
    const bool saved = record_;
    record_ = false;
    AbsVal v = eval(e, st);
    record_ = saved;
    return v;
  }

  AbsVal eval_node(const NumberLit& node, const Expr&, AbsState&) {
    return AbsVal::scalar(iv_exact(node.value));
  }

  AbsVal eval_node(const StringLit&, const Expr&, AbsState&) {
    return AbsVal::string();
  }

  AbsVal eval_node(const VarRef& node, const Expr& e, AbsState& st) {
    AbsVal v = peek_var(st, node.sym);
    if (recording(st) && v.must_assigned) {
      if (cfg_.facts != nullptr) cfg_.facts->bound_reads.insert(&node);
      if (cfg_.sink != nullptr) {
        const SourcePos p = at(e.pos);
        proven_reads_.emplace_back(p.line, p.column);
      }
    }
    v.may_unbound = false;  // a successful read always yields a value
    return v;
  }

  AbsVal eval_node(const VectorLit& node, const Expr&, AbsState& st) {
    Interval elem = iv_top();
    bool first = true;
    for (const auto& el : node.elements) {
      const AbsVal v = eval(*el, st);
      const Interval n = v.may_scalar ? v.num : iv_top();
      elem = first ? n : join(elem, n);
      first = false;
    }
    return AbsVal::vector(iv_exact(static_cast<double>(node.elements.size())),
                          elem);
  }

  AbsVal eval_node(const Unary& node, const Expr&, AbsState& st) {
    const AbsVal v = eval(*node.operand, st);
    if (node.op == UnOp::Not) return tri_scalar(invert(truth_of(v)));
    AbsVal r;
    r.may_unbound = false;
    r.may_string = false;
    r.may_scalar = v.may_scalar;
    r.may_vector = v.may_vector;
    if (!r.may_scalar && !r.may_vector) return AbsVal::scalar(iv_top());
    r.num = iv_neg(v.num);
    r.len = v.len;
    r.elem = iv_neg(v.elem);
    return r;
  }

  static Tri invert(Tri t) {
    return t == Tri::True ? Tri::False : t == Tri::False ? Tri::True
                                                         : Tri::Maybe;
  }

  AbsVal eval_node(const pits::Binary& node, const Expr& e, AbsState& st) {
    if (node.op == BinOp::And || node.op == BinOp::Or) {
      const Tri ta = truth_of(eval(*node.lhs, st));
      const Tri tb = truth_of(eval(*node.rhs, st));
      Tri t = Tri::Maybe;
      if (node.op == BinOp::And) {
        if (ta == Tri::False || tb == Tri::False) t = Tri::False;
        else if (ta == Tri::True && tb == Tri::True) t = Tri::True;
      } else {
        if (ta == Tri::True || tb == Tri::True) t = Tri::True;
        else if (ta == Tri::False && tb == Tri::False) t = Tri::False;
      }
      return tri_scalar(t);
    }
    const AbsVal a = eval(*node.lhs, st);
    const AbsVal b = eval(*node.rhs, st);
    switch (node.op) {
      case BinOp::Eq:
      case BinOp::Ne:
        return tri_scalar(equality(node.op, a, b));
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
        if (a.proven_scalar() && b.proven_scalar())
          return tri_scalar(tri_cmp(node.op, a.num, b.num));
        return tri_scalar(Tri::Maybe);
      default:
        return arith_val(node, a, b, e, st);
    }
  }

  static Tri equality(BinOp op, const AbsVal& a, const AbsVal& b) {
    Tri eq = Tri::Maybe;
    const bool kinds_overlap = (a.may_scalar && b.may_scalar) ||
                               (a.may_vector && b.may_vector) ||
                               (a.may_string && b.may_string);
    if (!kinds_overlap) {
      eq = Tri::False;  // values of different kinds are never equal
    } else if (a.proven_scalar() && b.proven_scalar()) {
      eq = tri_cmp(BinOp::Eq, a.num, b.num);
    } else if (a.proven_vector() && b.proven_vector() &&
               (a.len.hi < b.len.lo || b.len.hi < a.len.lo)) {
      eq = Tri::False;  // provably different lengths
    }
    return op == BinOp::Eq ? eq : invert(eq);
  }

  AbsVal arith_val(const pits::Binary& node, const AbsVal& a, const AbsVal& b,
                   const Expr& e, AbsState& st) {
    const BinOp op = node.op;
    // BAN301: the divisor is proven to be exactly zero.
    if ((op == BinOp::Div || op == BinOp::Mod) && cfg_.sink != nullptr &&
        recording(st) && b.proven_scalar() && b.num.is_exact() &&
        b.num.lo == 0 && !a.proven_string() &&
        !already("BAN104", node.rhs->pos)) {
      emit("BAN301", node.rhs->pos,
           std::string(op == BinOp::Div ? "division" : "mod") +
               " by a divisor proven to be zero",
           "every execution reaching this expression fails");
    }
    // BAN305: elementwise op on vectors of provably different lengths.
    if (cfg_.sink != nullptr && recording(st) && a.proven_vector() &&
        b.proven_vector() && (a.len.hi < b.len.lo || b.len.hi < a.len.lo)) {
      emit("BAN305", e.pos,
           "elementwise `" + std::string(pits::to_string(op)) +
               "` on vectors of provably different lengths (" +
               len_text(a.len) + " vs " + len_text(b.len) + ")");
    }
    // Cross-task demand: an elementwise partner of exact length pins the
    // length an input must have *if* it arrives as a vector.
    if (b.proven_vector() && b.len.is_exact())
      demand_elem_len(st, a.origin, b.len.lo, e.pos);
    if (a.proven_vector() && a.len.is_exact())
      demand_elem_len(st, b.origin, a.len.lo, e.pos);

    AbsVal r;
    bool any = false;
    auto merge = [&](const AbsVal& v) {
      r = any ? join(r, v) : v;
      any = true;
    };
    if (op == BinOp::Add && a.may_string && b.may_string)
      merge(AbsVal::string());
    if (a.may_scalar && b.may_scalar) {
      Interval n = scalar_arith(op, node, a.num, b.num);
      merge(AbsVal::scalar(n));
    }
    if (a.may_vector && b.may_vector) {
      const Interval len = iv_range(std::max(a.len.lo, b.len.lo),
                                    std::min(a.len.hi, b.len.hi), true);
      if (std::max(a.len.lo, b.len.lo) <= std::min(a.len.hi, b.len.hi))
        merge(AbsVal::vector(len, scalar_arith(op, node, a.elem, b.elem)));
    }
    if (a.may_vector && b.may_scalar)
      merge(AbsVal::vector(a.len, scalar_arith(op, node, a.elem, b.num)));
    if (a.may_scalar && b.may_vector)
      merge(AbsVal::vector(b.len, scalar_arith(op, node, a.num, b.elem)));
    return any ? r : AbsVal::scalar(iv_top());
  }

  static std::string len_text(const Interval& len) {
    auto fmt = [](double v) {
      if (v == kAbsInf) return std::string("inf");
      return std::to_string(static_cast<long long>(v));
    };
    if (len.is_exact()) return fmt(len.lo);
    return fmt(len.lo) + ".." + fmt(len.hi);
  }

  /// Scalar arithmetic with the x-x / x*x / x/x same-variable
  /// refinements (both sides the same VarRef denote the same value).
  static Interval scalar_arith(BinOp op, const pits::Binary& node,
                               const Interval& a, const Interval& b) {
    const auto* lv = std::get_if<VarRef>(&node.lhs->node);
    const auto* rv = std::get_if<VarRef>(&node.rhs->node);
    const bool same = lv != nullptr && rv != nullptr && lv->sym == rv->sym;
    if (same) {
      if (op == BinOp::Sub)
        return {0, 0, true, a.maybe_nan || may_inf(a)};  // inf - inf is NaN
      if (op == BinOp::Mul) return iv_square(a);
      if (op == BinOp::Div && (a.lo > 0 || a.hi < 0))
        return {1, 1, true, a.maybe_nan || may_inf(a)};  // inf / inf is NaN
    }
    switch (op) {
      case BinOp::Add: return iv_add(a, b);
      case BinOp::Sub: return iv_sub(a, b);
      case BinOp::Mul: return iv_mul(a, b);
      case BinOp::Div: return iv_div(a, b);
      case BinOp::Mod: return iv_mod(a, b);
      case BinOp::Pow: return iv_pow(a, b);
      default: return iv_top();
    }
  }

  AbsVal eval_node(const Index& node, const Expr& e, AbsState& st) {
    const AbsVal base = eval(*node.base, st);
    const AbsVal idx = eval(*node.index, st);
    note_index_site(base, idx, e, *node.index, st);
    if (cfg_.facts != nullptr && recording(st) && index_safe(base, idx))
      cfg_.facts->safe_index.insert(&e);
    return AbsVal::scalar(base.may_vector ? base.elem : iv_top());
  }

  /// The index is proven to be an in-bounds integer for every possible
  /// length of the (proven) vector.
  static bool index_safe(const AbsVal& base, const AbsVal& idx) {
    return base.proven_vector() && idx.proven_scalar() &&
           !idx.num.maybe_nan && idx.num.integer && idx.num.lo >= 0 &&
           idx.num.hi < base.len.lo;
  }

  void note_index_site(const AbsVal& base, const AbsVal& idx, const Expr& e,
                       const Expr& index_expr, AbsState& st) {
    demand_vector(st, base.origin, min_len_for(idx), e.pos);
    demand_scalar(st, idx.origin, index_expr.pos);
    if (cfg_.sink == nullptr || !recording(st)) return;
    if (!base.proven_vector() || !idx.proven_scalar() || idx.num.maybe_nan)
      return;
    if (already("BAN105", index_expr.pos)) return;
    const Interval& n = idx.num;
    const bool no_integer =
        !n.integer && std::floor(n.lo) == std::floor(n.hi) &&
        n.lo > std::floor(n.lo);
    if (no_integer) {
      emit("BAN302", index_expr.pos,
           "index is proven not to be an integer (value in [" +
               num_text(n.lo) + ", " + num_text(n.hi) + "])");
    } else if (n.hi < 0 || (std::isfinite(base.len.hi) && n.lo >= base.len.hi)) {
      emit("BAN302", index_expr.pos,
           "index in [" + num_text(n.lo) + ", " + num_text(n.hi) +
               "] is proven out of range for a vector of length " +
               len_text(base.len));
    }
  }

  /// Least vector length indexing at `idx` requires.
  static double min_len_for(const AbsVal& idx) {
    return idx.may_scalar && idx.num.lo >= 0 && std::isfinite(idx.num.lo)
               ? std::floor(idx.num.lo) + 1
               : 1;
  }

  static std::string num_text(double v) {
    if (v == kAbsInf) return "inf";
    if (v == -kAbsInf) return "-inf";
    if (std::floor(v) == v && std::abs(v) < 1e15)
      return std::to_string(static_cast<long long>(v));
    return std::to_string(v);
  }

  AbsVal eval_node(const Call& node, const Expr&, AbsState& st) {
    if (node.callee == "when") {
      if (node.args.size() != 3) return AbsVal::top_bound();
      const Tri t = truth_of(eval(*node.args[0], st));
      // `when` is lazy; analysing both arms over-approximates each
      // possible execution (and terminates: recursion is depth-capped).
      const AbsVal a = eval(*node.args[1], st);
      const AbsVal b = eval(*node.args[2], st);
      return t == Tri::True ? a : t == Tri::False ? b : join(a, b);
    }
    std::vector<AbsVal> args;
    args.reserve(node.args.size());
    for (const auto& ap : node.args) args.push_back(eval(*ap, st));

    AbsVal result;
    bool any = false;
    bool must_formula = false;
    if (is_formula(node.sym)) {
      for (std::size_t di = first_def_[node.sym]; di != kNoDef;
           di = next_def_[di]) {
        const std::uint64_t bit = 1ULL << std::min<std::size_t>(di, 63);
        if ((st.def_may & bit) == 0) continue;
        const bool must =
            defs_.size() <= 63 && (st.def_must & (1ULL << di)) != 0;
        must_formula = must_formula || must;
        if (defs_[di]->params.size() != node.args.size()) continue;  // arity error
        const AbsVal r = eval_formula(*defs_[di], args, st);
        result = any ? join(result, r) : r;
        any = true;
      }
    }
    if (!must_formula) {
      const AbsVal r = builtin_model(node.callee, args);
      result = any ? join(result, r) : r;
      any = true;
    }
    return any ? result : AbsVal::top_bound();
  }

  AbsVal eval_formula(const FormulaDef& def, const std::vector<AbsVal>& args,
                      const AbsState& st) {
    if (depth_ >= 6 || in_flight_.count(&def) > 0) return summary_of(def);
    ++depth_;
    in_flight_.insert(&def);
    AbsState fst;
    fst.def_may = st.def_may;
    fst.def_must = st.def_must;
    fst.params = &def.param_syms;
    fst.vars.resize(def.params.size());
    for (std::size_t i = 0; i < def.params.size(); ++i) {
      AbsVal& a = fst.vars[i].val;
      a = args[i];
      a.may_unbound = false;
      a.must_assigned = true;
      a.origin = pits::kNoSym;
    }
    AbsVal r = eval(*def.body, fst);
    in_flight_.erase(&def);
    --depth_;
    r.may_unbound = false;
    r.must_assigned = false;
    r.origin = pits::kNoSym;
    return r;
  }

  /// Memoised result of a formula over top arguments; the pre-seeded
  /// top entry doubles as the in-progress guard for recursive formulas.
  AbsVal summary_of(const FormulaDef& def) {
    auto [it, fresh] = summaries_.try_emplace(&def, AbsVal::top_bound());
    if (!fresh) return it->second;
    AbsState fst;
    fst.def_may = ~0ULL;  // any formula may be registered by then
    fst.params = &def.param_syms;
    fst.vars.resize(def.params.size());
    for (VarSlot& p : fst.vars) {
      p.val = AbsVal::top_bound();
      p.val.must_assigned = true;
    }
    ++depth_;
    in_flight_.insert(&def);
    AbsVal r = eval(*def.body, fst);
    in_flight_.erase(&def);
    --depth_;
    r.may_unbound = false;
    r.must_assigned = false;
    r.origin = pits::kNoSym;
    summaries_[&def] = r;
    return r;
  }

  // ---- builtin models ----

  /// Sound models for the calculator builtins; anything unmodelled is
  /// top. Unknown names raise a Name error at run time, so top is sound
  /// there too.
  static AbsVal builtin_model(const std::string& name,
                              const std::vector<AbsVal>& args) {
    const auto n = args.size();
    auto num = [&](std::size_t i) {
      return args[i].may_scalar ? args[i].num : iv_top();
    };
    // add1 builtins broadcast elementwise over vectors: the result
    // mirrors the argument's shape, values go through `g`.
    auto map1 = [&](auto&& g) {
      const AbsVal& a = args[0];
      AbsVal r;
      r.may_unbound = false;
      r.may_string = false;
      r.may_scalar = a.may_scalar;
      r.may_vector = a.may_vector;
      if (!r.may_scalar && !r.may_vector) return AbsVal::scalar(iv_top());
      r.num = g(a.may_scalar ? a.num : iv_top());
      r.len = a.len;
      r.elem = g(a.may_vector ? a.elem : iv_top());
      return r;
    };
    if (n == 1) {
      if (name == "abs") {
        return map1([](const Interval& a) {
          const double m = std::max(std::abs(a.lo), std::abs(a.hi));
          const double lo = a.lo <= 0 && a.hi >= 0
                                ? 0
                                : std::min(std::abs(a.lo), std::abs(a.hi));
          return Interval{lo, m, a.integer, a.maybe_nan};
        });
      }
      if (name == "sqrt") {
        return map1([](const Interval& a) {
          return iv_range(std::sqrt(std::max(0.0, a.lo)),
                          std::sqrt(std::max(0.0, a.hi)), false, a.maybe_nan);
        });
      }
      if (name == "cbrt") {
        return map1([](const Interval& a) {
          return iv_range(std::cbrt(a.lo), std::cbrt(a.hi), false,
                          a.maybe_nan);
        });
      }
      if (name == "exp") {
        return map1([](const Interval& a) {
          return iv_range(std::exp(a.lo), std::exp(a.hi), false, a.maybe_nan);
        });
      }
      if (name == "floor" || name == "ceil" || name == "round" ||
          name == "trunc") {
        double (*f)(double) =
            name == "floor"   ? static_cast<double (*)(double)>(std::floor)
            : name == "ceil"  ? static_cast<double (*)(double)>(std::ceil)
            : name == "round" ? static_cast<double (*)(double)>(std::round)
                              : static_cast<double (*)(double)>(std::trunc);
        return map1([f](const Interval& a) {
          return iv_range(f(a.lo), f(a.hi), true, a.maybe_nan);
        });
      }
      if (name == "frac") {
        return map1([](const Interval& a) {
          return iv_range(-1, 1, false, a.maybe_nan || may_inf(a));
        });
      }
      if (name == "sign") {
        return map1([](const Interval& a) {
          return iv_range(-1, 1, true, a.maybe_nan);
        });
      }
      if (name == "sin" || name == "cos") {
        return map1([](const Interval& a) {
          return iv_range(-1, 1, false, a.maybe_nan || may_inf(a));
        });
      }
      if (name == "tanh") {
        return map1([](const Interval& a) {
          return iv_range(-1, 1, false, a.maybe_nan);
        });
      }
      if (name == "atan") {
        return map1([](const Interval& a) {
          return iv_range(-kPi / 2, kPi / 2, false, a.maybe_nan);
        });
      }
      if (name == "asin" || name == "acos") {
        return map1([&](const Interval&) {
          return iv_range(name == "asin" ? -kPi / 2 : 0, kPi, false, true);
        });
      }
      if (name == "tan" || name == "sinh" || name == "cosh" || name == "ln" ||
          name == "log10" || name == "log2" || name == "deg" ||
          name == "rad") {
        return map1([](const Interval&) {
          return Interval{-kAbsInf, kAbsInf, false, true};
        });
      }
      if (name == "len") {
        const AbsVal& a = args[0];
        Interval r = kLenTop;
        if (a.proven_vector()) r = a.len;
        return AbsVal::scalar(r);
      }
      if (name == "zeros" || name == "ones") {
        const Interval c = num(0);
        const Interval len =
            iv_range(std::max(0.0, c.lo), std::min(c.hi, 1e8), true);
        return AbsVal::vector(len, iv_exact(name == "zeros" ? 0 : 1));
      }
      if (name == "reverse" || name == "sort") {
        const AbsVal& a = args[0];
        return AbsVal::vector(a.may_vector ? a.len : kLenTop,
                              a.may_vector ? a.elem : iv_top());
      }
      if (name == "minv" || name == "maxv") {
        const AbsVal& a = args[0];
        return AbsVal::scalar(a.may_vector ? a.elem : iv_top());
      }
      if (name == "sum" || name == "prod" || name == "mean" ||
          name == "stddev" || name == "norm" || name == "fact") {
        return AbsVal::scalar(iv_top());
      }
    }
    if (n == 2) {
      if (name == "append") {
        const AbsVal& v = args[0];
        const Interval len = v.may_vector ? iv_add(v.len, iv_exact(1))
                                          : iv_range(1, kAbsInf, true);
        Interval elem = join(v.may_vector ? v.elem : iv_top(), num(1));
        return AbsVal::vector(len, elem);
      }
      if (name == "concat") {
        const AbsVal& a = args[0];
        const AbsVal& b = args[1];
        if (a.may_vector && b.may_vector)
          return AbsVal::vector(iv_add(a.len, b.len), join(a.elem, b.elem));
        return AbsVal::vector(kLenTop, iv_top());
      }
      if (name == "get") {
        const AbsVal& v = args[0];
        return AbsVal::scalar(v.may_vector ? v.elem : iv_top());
      }
      if (name == "dot") return AbsVal::scalar(iv_top());
      if (name == "hypot") {
        return AbsVal::scalar(iv_range(
            0, kAbsInf, false, num(0).maybe_nan || num(1).maybe_nan));
      }
      if (name == "atan2") {
        return AbsVal::scalar(iv_range(
            -kPi, kPi, false, num(0).maybe_nan || num(1).maybe_nan));
      }
      if (name == "pow") {
        const Interval a = num(0);
        const Interval b = num(1);
        if (a.lo >= 0)
          return AbsVal::scalar(
              iv_range(0, kAbsInf, false, a.maybe_nan || b.maybe_nan));
        return AbsVal::scalar(iv_top());
      }
      if (name == "ncr" || name == "npr") return AbsVal::scalar(iv_top());
    }
    if (n == 3) {
      if (name == "slice") {
        const AbsVal& v = args[0];
        return AbsVal::vector(
            iv_range(0, v.may_vector ? v.len.hi : kAbsInf, true),
            v.may_vector ? v.elem : iv_top());
      }
      if (name == "set") {
        const AbsVal& v = args[0];
        if (v.may_vector)
          return AbsVal::vector(v.len, join(v.elem, num(2)));
        return AbsVal::vector(kLenTop, iv_top());
      }
      if (name == "clamp") {
        return AbsVal::scalar(join(join(num(0), num(1)), num(2)));
      }
    }
    if (name == "rand" && n == 0)
      return AbsVal::scalar(iv_range(0, 1, false, false));
    if (name == "str") return AbsVal::string();
    if (name == "min" || name == "max") {
      bool all_scalar = n > 0;
      for (const AbsVal& a : args) all_scalar = all_scalar && a.proven_scalar();
      if (all_scalar) {
        Interval r = num(0);
        for (std::size_t i = 1; i < n; ++i) {
          const Interval c = num(i);
          r = name == "min"
                  ? Interval{std::min(r.lo, c.lo), std::min(r.hi, c.hi),
                             r.integer && c.integer, r.maybe_nan || c.maybe_nan}
                  : Interval{std::max(r.lo, c.lo), std::max(r.hi, c.hi),
                             r.integer && c.integer,
                             r.maybe_nan || c.maybe_nan};
        }
        return AbsVal::scalar(r);
      }
      return AbsVal::scalar(iv_top());
    }
    return AbsVal::top_bound();
  }

  // ---- condition refinement ----

  [[nodiscard]] AbsState refine(const AbsState& st, const Expr& cond,
                                bool want) {
    AbsState r = st;
    refine_into(r, cond, want);
    return r;
  }

  void refine_into(AbsState& st, const Expr& cond, bool want) {
    if (const auto* u = std::get_if<Unary>(&cond.node);
        u != nullptr && u->op == UnOp::Not) {
      refine_into(st, *u->operand, !want);
      return;
    }
    if (const auto* v = std::get_if<VarRef>(&cond.node)) {
      AbsVal* var = find_var(st, v->sym);
      if (var == nullptr || !var->proven_scalar()) return;
      Interval& n = var->num;
      if (!want && n.lo <= 0 && n.hi >= 0) {
        // Falsy scalar: exactly zero, and not NaN (NaN is truthy).
        n = iv_exact(0);
      } else if (want && n.integer && !(n.lo == 0 && n.hi == 0)) {
        if (n.lo == 0) n.lo = 1;
        if (n.hi == 0) n.hi = -1;
      }
      return;
    }
    const auto* b = std::get_if<pits::Binary>(&cond.node);
    if (b == nullptr) return;
    if (b->op == BinOp::And && want) {
      refine_into(st, *b->lhs, true);
      refine_into(st, *b->rhs, true);
      return;
    }
    if (b->op == BinOp::Or && !want) {
      refine_into(st, *b->lhs, false);
      refine_into(st, *b->rhs, false);
      return;
    }
    switch (b->op) {
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
      case BinOp::Eq:
      case BinOp::Ne:
        break;
      default:
        return;
    }
    if (const auto* lv = std::get_if<VarRef>(&b->lhs->node)) {
      const AbsVal c = eval_quiet(*b->rhs, st);
      refine_var_cmp(st, lv->sym, b->op, c, want);
    }
    if (const auto* rv = std::get_if<VarRef>(&b->rhs->node)) {
      const AbsVal c = eval_quiet(*b->lhs, st);
      refine_var_cmp(st, rv->sym, flip(b->op), c, want);
    }
  }

  static BinOp flip(BinOp op) {
    switch (op) {
      case BinOp::Lt: return BinOp::Gt;
      case BinOp::Le: return BinOp::Ge;
      case BinOp::Gt: return BinOp::Lt;
      case BinOp::Ge: return BinOp::Le;
      default: return op;
    }
  }

  /// Clamps variable `sym`'s interval knowing `sym <op> c` evaluated to
  /// `want`.
  /// NaN care: the walker's compare maps NaN to "equal", so a false `<`
  /// still admits NaN while a false `<=` excludes it.
  void refine_var_cmp(AbsState& st, SymId sym, BinOp op, const AbsVal& c,
                      bool want) {
    AbsVal* var = find_var(st, sym);
    if (var == nullptr || !var->proven_scalar() || !c.proven_scalar()) return;
    Interval n = var->num;
    const Interval& k = c.num;
    const bool ints = n.integer && k.integer;
    const auto step_lo = [&](double v) { return ints ? v + 1 : v; };
    const auto step_hi = [&](double v) { return ints ? v - 1 : v; };
    // Normalise to a true-branch op; the negation swaps strictness and
    // therefore the NaN outcome.
    const BinOp eff = want ? op : [&] {
      switch (op) {
        case BinOp::Lt: return BinOp::Ge;
        case BinOp::Le: return BinOp::Gt;
        case BinOp::Gt: return BinOp::Le;
        case BinOp::Ge: return BinOp::Lt;
        case BinOp::Eq: return BinOp::Ne;
        default: return BinOp::Eq;
      }
    }();
    // Under cmp semantics, Lt/Gt/Eq true excludes NaN; Le/Ge/Ne true
    // admit it (NaN orders as equal, NaN != x is true).
    switch (eff) {
      case BinOp::Lt:
        n.hi = std::min(n.hi, step_hi(k.hi));
        n.maybe_nan = false;
        break;
      case BinOp::Le:
        n.hi = std::min(n.hi, k.hi);
        break;
      case BinOp::Gt:
        n.lo = std::max(n.lo, step_lo(k.lo));
        n.maybe_nan = false;
        break;
      case BinOp::Ge:
        n.lo = std::max(n.lo, k.lo);
        break;
      case BinOp::Eq:
        n.lo = std::max(n.lo, k.lo);
        n.hi = std::min(n.hi, k.hi);
        n.maybe_nan = false;
        if (k.integer) n.integer = true;
        break;
      default:
        return;  // Ne: no interval information
    }
    if (n.lo > n.hi) {
      if (!n.maybe_nan) st.reachable = false;
      return;
    }
    var->num = n;
  }

  // ---- statements ----

  void note_reached(const void* node, const AbsState& st) {
    if (cfg_.reached != nullptr && recording(st))
      cfg_.reached->entered.insert(node);
  }

  void exec_block(const Block& block, AbsState& st) {
    note_reached(&block, st);
    for (const StmtPtr& sp : block) exec_stmt(*sp, st);
    if (cfg_.reached != nullptr && recording(st))
      cfg_.reached->completed.insert(&block);
  }

  void exec_stmt(const Stmt& s, AbsState& st) {
    if (!st.reachable) return;
    note_reached(&s, st);
    std::visit([&](const auto& node) { exec_node(node, s, st); }, s.node);
  }

  void exec_node(const AssignStmt& node, const Stmt&, AbsState& st) {
    if (node.index != nullptr) {
      const AbsVal idx = eval(*node.index, st);
      const AbsVal val = eval(*node.value, st);
      const AbsVal cur = peek_var(st, node.sym);
      demand_vector(st, cur.origin, min_len_for(idx), node.index->pos);
      demand_scalar(st, idx.origin, node.index->pos);
      if (cfg_.sink != nullptr && recording(st) && cur.proven_vector() &&
          idx.proven_scalar() && !idx.num.maybe_nan &&
          !already("BAN105", node.index->pos)) {
        const Interval& n = idx.num;
        if (n.hi < 0 || (std::isfinite(cur.len.hi) && n.lo >= cur.len.hi)) {
          emit("BAN302", node.index->pos,
               "assigned index in [" + num_text(n.lo) + ", " +
                   num_text(n.hi) +
                   "] is proven out of range for a vector of length " +
                   len_text(cur.len));
        }
      }
      if (cfg_.facts != nullptr && recording(st) && cur.must_assigned &&
          index_safe(cur, idx) && val.proven_scalar()) {
        cfg_.facts->safe_indexed_store.insert(&node);
      }
      // After a successful store the target is a bound vector of the
      // same length with the stored value folded into its elements.
      AbsVal nv;
      nv.may_scalar = nv.may_string = nv.may_unbound = false;
      nv.must_assigned = true;
      nv.len = cur.may_vector ? cur.len : kLenTop;
      nv.elem = cur.may_vector
                    ? join(cur.elem, val.may_scalar ? val.num : iv_top())
                    : iv_top();
      set_var(st, node.sym) = nv;
      return;
    }
    AbsVal val = eval(*node.value, st);
    val.may_unbound = false;
    val.must_assigned = true;
    set_var(st, node.sym) = val;
  }

  void exec_node(const ExprStmt& node, const Stmt&, AbsState& st) {
    (void)eval(*node.expr, st);
  }

  void exec_node(const ReturnStmt&, const Stmt&, AbsState& st) {
    exit_acc_ = join_state(exit_acc_, st);
    st.reachable = false;
  }

  void exec_node(const FormulaDef& node, const Stmt&, AbsState& st) {
    const std::size_t di = def_index_.at(&node);
    st.def_may |= 1ULL << std::min<std::size_t>(di, 63);
    if (defs_.size() <= 63) st.def_must |= 1ULL << di;
  }

  void exec_node(const IfStmt& node, const Stmt&, AbsState& st) {
    AbsState out;
    out.reachable = false;
    AbsState cur = st;
    for (std::size_t i = 0; i < node.arms.size(); ++i) {
      const IfStmt::Arm& arm = node.arms[i];
      const AbsVal c = eval(*arm.cond, cur);
      const Tri t = cur.reachable ? truth_of(c) : Tri::Maybe;
      if (cfg_.sink != nullptr && recording(cur)) {
        if (t == Tri::False) {
          emit("BAN303", arm.cond->pos,
               "condition is provably always false — this branch never runs");
        } else if (t == Tri::True &&
                   (i + 1 < node.arms.size() || !node.else_body.empty())) {
          emit("BAN303", arm.cond->pos,
               "condition is provably always true — the later branches "
               "never run");
        }
      }
      AbsState arm_st = refine(cur, *arm.cond, true);
      if (t == Tri::False) arm_st.reachable = false;
      exec_block(arm.body, arm_st);
      out = join_state(out, arm_st);
      AbsState next = refine(cur, *arm.cond, false);
      if (t == Tri::True) next.reachable = false;
      cur = std::move(next);
    }
    exec_block(node.else_body, cur);
    st = join_state(out, cur);
  }

  /// Iterates a loop body to a fixpoint from `head` (plain join for two
  /// rounds, then widening), with recording suppressed. `enter` prepares
  /// each iteration's entry state in place.
  template <typename EnterFn>
  AbsState stabilize(const Block& body, AbsState head, EnterFn&& enter) {
    const bool saved = record_;
    record_ = false;
    for (int iter = 0;; ++iter) {
      AbsState in = head;
      enter(in);
      AbsState out = in;
      exec_block(body, out);
      AbsState next = join_state(head, out);
      if (state_eq(next, head)) break;
      head = iter >= 2 ? widen_state(head, next) : std::move(next);
      if (iter >= 40) {
        // Safety net; widening should converge far earlier.
        for (VarSlot& v : head.vars) v.val = AbsVal::top();
        break;
      }
    }
    record_ = saved;
    return head;
  }

  void exec_node(const WhileStmt& node, const Stmt& s, AbsState& st) {
    AbsState head = stabilize(node.body, st, [&](AbsState& in) {
      const Tri t = truth_of(eval_quiet(*node.cond, in));
      AbsState refined = refine(in, *node.cond, true);
      if (t == Tri::False) refined.reachable = false;
      in = std::move(refined);
    });
    // Recording pass from the stable head.
    const AbsVal c = eval(*node.cond, head);
    const Tri t = head.reachable ? truth_of(c) : Tri::Maybe;
    if (cfg_.sink != nullptr && recording(head)) {
      if (t == Tri::False) {
        emit("BAN303", node.cond->pos,
             "`while` condition is provably always false — the loop body "
             "never runs");
      } else if (t == Tri::True && !block_returns(node.body) &&
                 !already("BAN108", s.pos) &&
                 !already("BAN108", node.cond->pos)) {
        emit("BAN304", node.cond->pos,
             "`while` condition is provably always true and the body cannot "
             "return — the loop only ends at the step limit");
      }
    }
    AbsState in = refine(head, *node.cond, true);
    if (t == Tri::False) in.reachable = false;
    AbsState body_out = in;
    exec_block(node.body, body_out);
    st = refine(head, *node.cond, false);
    if (t == Tri::True) st.reachable = false;
  }

  void exec_node(const RepeatStmt& node, const Stmt&, AbsState& st) {
    const AbsVal cv = eval(*node.count, st);
    demand_scalar(st, cv.origin, node.count->pos);
    if (!cv.may_scalar) {  // as_scalar always fails: proven runtime error
      st.reachable = false;
      return;
    }
    const Interval n = cv.num;
    const bool no_integer = !n.integer && std::floor(n.lo) == std::floor(n.hi) &&
                            n.lo > std::floor(n.lo);
    if (cv.proven_scalar() && !n.maybe_nan && (n.hi < 0 || no_integer)) {
      st.reachable = false;  // count validation is proven to fail
      return;
    }
    const bool body_possible = n.hi >= 1 || n.maybe_nan || !cv.proven_scalar();
    const bool at_least_one = cv.proven_scalar() && !n.maybe_nan && n.lo >= 1;
    AbsState head = stabilize(node.body, st, [&](AbsState& in) {
      if (!body_possible) in.reachable = false;
    });
    AbsState in = head;
    if (!body_possible) in.reachable = false;
    AbsState out = in;
    exec_block(node.body, out);  // recording pass
    st = at_least_one ? std::move(out) : std::move(head);
  }

  void exec_node(const ForStmt& node, const Stmt&, AbsState& st) {
    const AbsVal fv = eval(*node.from, st);
    const AbsVal tv = eval(*node.to, st);
    const AbsVal sv = node.step != nullptr
                          ? eval(*node.step, st)
                          : AbsVal::scalar(iv_exact(1));
    demand_scalar(st, fv.origin, node.from->pos);
    demand_scalar(st, tv.origin, node.to->pos);
    if (node.step != nullptr) demand_scalar(st, sv.origin, node.step->pos);
    if (!fv.may_scalar || !tv.may_scalar || !sv.may_scalar) {
      st.reachable = false;  // ToScalar is proven to fail
      return;
    }
    const Interval f = fv.num;
    const Interval t = tv.num;
    const Interval sp = sv.num;
    if (sp.is_exact() && sp.lo == 0) {
      st.reachable = false;  // "for step must be nonzero" always fires
      return;
    }
    const bool pos_step = sp.lo > 0 && !sp.maybe_nan;
    const bool neg_step = sp.hi < 0 && !sp.maybe_nan;
    // The walker's continuation test carries a 1e-12 epsilon; proving
    // "never iterates" uses a strictly larger margin to stay sound.
    const bool body_possible = !(pos_step && f.lo > t.hi + 1e-9) &&
                               !(neg_step && f.hi < t.lo - 1e-9);
    const bool at_least_one =
        !f.maybe_nan && !t.maybe_nan &&
        ((pos_step && f.hi <= t.lo) || (neg_step && f.lo >= t.hi));
    AbsVal lvv = AbsVal::scalar(loop_var_interval(f, t, sp));
    lvv.must_assigned = true;
    AbsState head = stabilize(node.body, st, [&](AbsState& in) {
      set_var(in, node.sym) = lvv;
      if (!body_possible) in.reachable = false;
    });
    AbsState in = head;
    set_var(in, node.sym) = lvv;
    if (!body_possible) in.reachable = false;
    AbsState out = in;
    exec_block(node.body, out);  // recording pass
    st = at_least_one ? std::move(out) : std::move(head);
  }

  /// Interval of the values the loop variable takes inside the body.
  /// NaN bounds never reach the body (the continuation test fails), so
  /// the result is NaN-free.
  static Interval loop_var_interval(const Interval& f, const Interval& t,
                                    const Interval& sp) {
    const bool ints = f.integer && sp.integer;
    const double extra = ints && t.integer ? 0.0 : 1.0;
    double lo;
    double hi;
    if (sp.lo > 0 && !sp.maybe_nan) {
      lo = f.lo;
      hi = t.hi + extra;
    } else if (sp.hi < 0 && !sp.maybe_nan) {
      lo = t.lo - extra;
      hi = f.hi;
    } else {
      lo = std::min(f.lo, t.lo - extra);
      hi = std::max(f.hi, t.hi + extra);
    }
    return iv_range(lo, hi, ints);
  }

  [[nodiscard]] static bool block_returns(const Block& block) {
    for (const StmtPtr& sp : block) {
      bool found = false;
      std::visit(
          [&](const auto& node) {
            using T = std::decay_t<decltype(node)>;
            if constexpr (std::is_same_v<T, ReturnStmt>) {
              found = true;
            } else if constexpr (std::is_same_v<T, IfStmt>) {
              for (const IfStmt::Arm& arm : node.arms)
                found = found || block_returns(arm.body);
              found = found || block_returns(node.else_body);
            } else if constexpr (std::is_same_v<T, WhileStmt> ||
                                 std::is_same_v<T, RepeatStmt> ||
                                 std::is_same_v<T, ForStmt>) {
              found = block_returns(node.body);
            }
          },
          sp->node);
      if (found) return true;
    }
    return false;
  }

  // ---- members ----

  static constexpr std::uint32_t kNoDef = ~std::uint32_t{0};

  Config cfg_;
  bool record_ = true;
  int depth_ = 0;  ///< formula inlining depth; facts/diags only at 0
  AbsState exit_acc_;
  std::vector<SymInfo> syms_;  ///< the routine's symbols, then unnamed ports
  std::vector<const FormulaDef*> defs_;
  std::unordered_map<const FormulaDef*, std::size_t> def_index_;
  /// By symbol: its first formula def, or kNoDef; next_def_ links the
  /// rest in collection order. Empty when the routine defines none.
  std::vector<std::uint32_t> first_def_;
  std::vector<std::uint32_t> next_def_;
  std::unordered_map<const FormulaDef*, AbsVal> summaries_;
  std::unordered_set<const FormulaDef*> in_flight_;
  std::vector<std::pair<int, int>> proven_reads_;
  bool earlier_indexed_ = false;
  std::vector<Spot> earlier_;  ///< sorted; see already()
};

}  // namespace

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

pits::bc::AnalysisFacts compute_facts(const pits::Block& body) {
  pits::bc::AnalysisFacts facts;
  AbsInterp::Config cfg;
  cfg.context_free = true;
  cfg.facts = &facts;
  AbsInterp engine(cfg);
  engine.run(body);
  engine.mark_single_ticks(body, facts);
  facts.seal();
  return facts;
}

void precompile_optimized(const pits::Program& program) {
  program.precompile(compute_facts(program.body()));
}

ShapeSummary run_absint_rules(const pits::Block& body,
                              const RoutineContext& context,
                              std::vector<Diagnostic>& sink,
                              Reached* reached) {
  ShapeSummary summary;
  AbsInterp::Config cfg;
  cfg.context_free = false;
  cfg.ctx = &context;
  cfg.sink = &sink;
  cfg.summary = &summary;
  cfg.reached = reached;
  AbsInterp engine(cfg);
  engine.run(body);
  // Drop BAN101 reports the interpreter proves wrong: the read is
  // reached only with the variable assigned (e.g. a for-loop variable
  // after a loop proven to iterate at least once).
  const std::vector<std::pair<int, int>> proven = engine.proven_reads();
  if (!proven.empty()) {
    std::erase_if(sink, [&](const Diagnostic& d) {
      return d.code == "BAN101" && d.subject == context.subject &&
             std::binary_search(proven.begin(), proven.end(),
                                std::pair{d.pos.line, d.pos.column});
    });
  }
  return summary;
}

void run_shape_rules(const graph::FlattenResult& flat,
                     const std::map<graph::TaskId, ShapeSummary>& summaries,
                     std::vector<Diagnostic>& sink) {
  auto emit = [&](const std::string& task, SourcePos pos, std::string msg,
                  std::string hint = {}) {
    const DiagnosticRule* rule = find_rule("BAN306");
    Diagnostic d;
    d.code = "BAN306";
    d.severity = rule != nullptr ? rule->severity : Severity::Warning;
    d.subject_kind = "task";
    d.subject = task;
    d.message = std::move(msg);
    d.hint = std::move(hint);
    d.pos = pos;
    sink.push_back(std::move(d));
  };
  for (const graph::FlatStore& store : flat.stores) {
    if (store.writers.empty() || store.readers.empty()) continue;
    AbsVal produced;
    bool have = !store.writers.empty();
    bool first = true;
    for (graph::TaskId w : store.writers) {
      auto it = summaries.find(w);
      if (it == summaries.end()) {
        have = false;
        break;
      }
      auto out = it->second.outputs.find(store.var);
      if (out == it->second.outputs.end() || out->second.may_unbound) {
        have = false;
        break;
      }
      produced = first ? out->second : join(produced, out->second);
      first = false;
    }
    if (!have) continue;
    for (graph::TaskId r : store.readers) {
      auto it = summaries.find(r);
      if (it == summaries.end()) continue;
      auto dit = it->second.demands.find(store.var);
      if (dit == it->second.demands.end()) continue;
      const ShapeDemand& d = dit->second;
      const std::string& task = flat.graph.task(r).name;
      if (d.needs_vector && (produced.proven_scalar() ||
                             produced.proven_string())) {
        emit(task, d.pos,
             "`" + store.var + "` is indexed here, but every producer of "
             "store `" + store.name + "` sends a " +
                 (produced.proven_scalar() ? "number" : "string"),
             "make the producer send a vector, or stop indexing the input");
        continue;
      }
      if (d.needs_scalar && produced.proven_vector()) {
        emit(task, d.pos,
             "`" + store.var + "` is used as a count or bound here, but "
             "every producer of store `" + store.name + "` sends a vector");
        continue;
      }
      if (produced.proven_vector() && d.needs_vector &&
          produced.len.hi < d.min_len) {
        emit(task, d.pos,
             "`" + store.var + "` needs at least " +
                 std::to_string(static_cast<long long>(d.min_len)) +
                 " element(s) here, but producers of store `" + store.name +
                 "` send at most " +
                 std::to_string(static_cast<long long>(produced.len.hi)));
        continue;
      }
      if (produced.proven_vector() && d.elem_len >= 0 &&
          (produced.len.hi < d.elem_len || produced.len.lo > d.elem_len)) {
        emit(task, d.pos,
             "elementwise use of `" + store.var + "` requires length " +
                 std::to_string(static_cast<long long>(d.elem_len)) +
                 ", but producers of store `" + store.name +
                 "` send a different length");
      }
    }
  }
}

}  // namespace banger::analyze::reference
