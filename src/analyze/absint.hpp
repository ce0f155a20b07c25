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
//   diagnostics  check_routine() runs it as the routine's one flow
//                analysis: beside intervals it tracks folded constants,
//                and at each site it proves can run it decides BAN101,
//                BAN104 or BAN301, BAN105 or BAN302, BAN108 or BAN304,
//                plus BAN303 and BAN305. Its ShapeSummary feeds
//                run_shape_rules(), which checks producer/consumer
//                shapes along the flattened task graph (BAN306);
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
#include <vector>

#include "analyze/analyze.hpp"
#include "graph/design.hpp"
#include "pits/ast.hpp"
#include "pits/facts.hpp"
#include "util/error.hpp"

namespace banger::pits {
class Program;
}  // namespace banger::pits

namespace banger::analyze {

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

/// The PITS rules over one parsed routine, with declared inputs assumed
/// bound: the syntactic rules (BAN102, BAN103, BAN106, BAN107, and
/// formula bodies), then the engine in diagnostics mode for BAN101,
/// BAN104, BAN105 and BAN108, and with `options.absint_rules` the proofs
/// BAN301-BAN305. Appends to `sink`; returns the routine's shape summary
/// for run_shape_rules().
ShapeSummary check_routine(const pits::Block& body,
                           const RoutineContext& context,
                           const AnalyzeOptions& options,
                           std::vector<Diagnostic>& sink);

/// Graph-level shape propagation (BAN306): compares each flattened
/// store's producer output shapes against its consumers' input demands.
/// `summaries` maps task ids of `flat.graph` to their routine summaries.
void run_shape_rules(const graph::FlattenResult& flat,
                     const std::map<graph::TaskId, ShapeSummary>& summaries,
                     std::vector<Diagnostic>& sink);

}  // namespace banger::analyze
