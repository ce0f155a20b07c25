// banger/pits/vm.cpp
//
// The register VM. One frame of Values per body (routine top level or
// formula call), allocation-free per instruction on the scalar paths;
// the Env map is touched only at entry (move inputs into slots) and
// exit (move bound slots back — including on the error path, since a
// trial run surfaces the partially-updated environment).
//
// Every observable behaviour — step accounting, error codes, messages,
// positions, print/trace transcripts, the rand() stream — must match
// the reference tree-walker (tests/reference_walker.hpp) exactly;
// tests/pits_vm_test.cpp compares the two byte for byte.
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.hpp"
#include "pits/builtins.hpp"
#include "pits/bytecode.hpp"
#include "util/rng.hpp"

namespace banger::pits::bc {

namespace {

// Slot binding states for the top-level frame. A const-materialized
// slot reads like a bound one but is not written back to the Env, and
// indexed assignment still treats it as undefined — both matching the
// tree-walker, where constants never enter the Env. The values are the
// public bc::kSlot* constants so Frame callers can pre-bind slots.
constexpr std::uint8_t kUnbound = kSlotUnbound;
constexpr std::uint8_t kBound = kSlotBound;
constexpr std::uint8_t kConstMaterialized = kSlotConst;

/// How deep calls may nest at run time. Each call recurses natively: a
/// builtin's arguments run in a nested exec, and a formula's arguments
/// and body do too. Formula recursion multiplies the nesting the parser
/// caps (256 frames of a body nesting ~100 calls), so the parser's cap
/// alone does not bound it. 2048 levels of the deepest mix (256 formula
/// frames, the rest builtin calls) measured 0.8 MiB of stack optimized,
/// 1.2 MiB in debug and 3.1 MiB under ASan at -O2, its largest frames:
/// inside an 8 MiB thread stack in every build.
constexpr int kMaxCallDepth = 2048;

// The scalar cases of the ordering ops. compare() orders NaN as equal
// to everything, as the walker does, so Le and Ge are the negated
// strict orders: `NaN <= 1` holds.
constexpr auto kLt = [](double a, double b) { return a < b; };
constexpr auto kLe = [](double a, double b) { return !(a > b); };
constexpr auto kGt = [](double a, double b) { return a > b; };
constexpr auto kGe = [](double a, double b) { return !(a < b); };

/// The token an instruction keeps in `d` (IndexLoad, IndexedStore).
TokenIndex token_in_d(const Instr& in) {
  return static_cast<TokenIndex>(in.d);
}

class Vm {
 public:
  /// `binding` null: lex `source` into one when a name or position is
  /// first needed.
  Vm(const Chunk& chunk, const Binding* binding, std::string_view source,
     const ExecOptions& options)
      : chunk_(chunk),
        binding_(binding),
        source_(source),
        options_(options),
        rng_(options.seed),
        formula_table_(chunk.num_formula_names, -1) {
    ctx_.rng = &rng_;
    ctx_.out = options.out;
  }

  void run(Env& env) {
    std::vector<Value> regs(chunk_.main.num_regs);
    std::vector<std::uint8_t> states(chunk_.vars.size(), kUnbound);
    for (std::size_t i = 0; i < chunk_.vars.size(); ++i) {
      if (auto it = env.find(std::string(var_name(i))); it != env.end()) {
        regs[i] = std::move(it->second);
        states[i] = kBound;
      }
    }
    try {
      exec(chunk_.main, regs.data(), states.data(), 0,
           static_cast<std::uint32_t>(chunk_.main.ins.size()));
    } catch (...) {
      write_back(env, regs, states);
      report();
      throw;
    }
    write_back(env, regs, states);
    report();
  }

  /// Env-free entry: the caller pre-bound input slots in `f` and reads
  /// outputs straight out of the frame afterwards; everything between
  /// is byte-identical to run().
  void run_frame(Frame& f) {
    try {
      exec(chunk_.main, f.regs.data(), f.states.data(), 0,
           static_cast<std::uint32_t>(chunk_.main.ins.size()));
    } catch (...) {
      report();
      throw;
    }
    report();
  }

 private:
  void write_back(Env& env, std::vector<Value>& regs,
                  const std::vector<std::uint8_t>& states) {
    for (std::size_t i = 0; i < chunk_.vars.size(); ++i) {
      if (states[i] == kBound) {
        env[std::string(var_name(i))] = std::move(regs[i]);
      }
    }
  }

  void report() const {
    if (obs::TraceRecorder* rec = obs::current()) {
      rec->bump("pits.vm.runs");
      rec->bump("pits.vm.instructions", static_cast<double>(retired_));
    }
  }

  /// The running routine's binding, lexed from its text on first use;
  /// the trace counts each such lex as `pits.vm.binds`.
  const Binding& binding() const {
    if (binding_ == nullptr) {
      lexed_ = Binding(source_);
      binding_ = &lexed_;
      if (obs::TraceRecorder* rec = obs::current()) rec->bump("pits.vm.binds");
    }
    return *binding_;
  }

  std::string_view name_of(std::uint32_t name) const {
    return binding().name(chunk_.names[name]);
  }

  std::string_view var_name(std::uint32_t slot) const {
    return name_of(chunk_.vars[slot].name);
  }

  /// Raises Error{code} at token `at` with the parts (text or numbers)
  /// concatenated. The message is built out of line, so its temporaries
  /// take no space in exec's or call_site's frame: every nested call
  /// keeps one of each on the stack.
  template <class... Parts>
  [[noreturn, gnu::noinline, gnu::cold]] void error(
      ErrorCode code, TokenIndex at, const Parts&... parts) const {
    raise(code, binding().pos(at), parts...);
  }

  /// error() at a source position already bound.
  template <class... Parts>
  [[noreturn, gnu::noinline, gnu::cold]] static void raise(
      ErrorCode code, SourcePos pos, const Parts&... parts) {
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

  void tick(TokenIndex pos) {
    if (++steps_ > options_.step_limit) {
      error(ErrorCode::Limit, pos, "step limit of ", options_.step_limit,
            " exceeded (infinite loop?)");
    }
  }

  /// The trace echo of one finished assignment, out of line.
  [[gnu::noinline]] void echo(const Instr& in, const Value* regs) const {
    *options_.trace << "line " << binding().pos(in.pos).line << ": "
                    << var_name(in.a) << " = " << regs[in.a].to_display()
                    << "\n";
  }

  std::size_t index_of(const Value& idx, std::size_t size,
                       TokenIndex pos) const {
    const double raw = idx.as_scalar();
    // An integer in range needs no floor(): it converts exactly.
    if (raw >= 0 && raw < static_cast<double>(size)) {
      const auto i = static_cast<std::size_t>(raw);
      if (static_cast<double>(i) == raw) return i;
    }
    bad_index(raw, size, pos);
  }

  /// index_of's errors, in the walker's order: a fraction (or NaN)
  /// first, then the range.
  [[noreturn, gnu::noinline, gnu::cold]] void bad_index(
      double raw, std::size_t size, TokenIndex pos) const {
    if (std::floor(raw) != raw) {
      error(ErrorCode::Runtime, pos, "index must be an integer");
    }
    error(ErrorCode::Runtime, pos, "index ", static_cast<long long>(raw),
          " out of range [0,", size, ")");
  }

  /// IndexedCheck's errors at token `at`: slot `slot` is unbound (a
  /// materialized constant counts as unbound) or not a vector.
  [[noreturn, gnu::noinline, gnu::cold]] void bad_store_target(
      std::uint32_t slot, std::uint8_t state, TokenIndex at) const {
    if (state != kBound) {
      error(ErrorCode::Name, at, "indexed assignment to undefined variable `",
            var_name(slot), "`");
    }
    error(ErrorCode::Type, at, "`", var_name(slot), "` is not a vector");
  }

  /// Writes a scalar result without a full variant assignment when the
  /// destination already holds a scalar — the overwhelmingly common case
  /// in straight-line arithmetic, where each register keeps its type.
  static void set_scalar(Value& dst, double x) {
    if (Scalar* p = dst.scalar_if()) {
      *p = x;
    } else {
      retype_scalar(dst, x);
    }
  }

  // retype_scalar and the other noinline slow paths below (compare,
  // arith, arith_k_vector, negate_vector, new_vector, invoke,
  // call_formula) write their destination register themselves. exec
  // inlines the rest, and a sanitizer build gives every inlined
  // temporary its own stack slot: inline, these would multiply exec's
  // frame, which each nested call keeps on the stack (kMaxCallDepth).

  [[gnu::noinline]] static void retype_scalar(Value& dst, double x) {
    dst = Value(x);
  }

  /// Scalar-scalar fast path for Add..Pow, dispatched with a
  /// compile-time operator so scalar_op folds to a single instruction.
  /// Returns false (leaving dst untouched) when either operand is not a
  /// scalar; the caller then takes the general arith() route.
  template <BinOp kOp>
  bool fast_arith(const Instr& in, Value* regs) {
    const Scalar* a = regs[in.b].scalar_if();
    const Scalar* b = regs[in.c].scalar_if();
    if (a == nullptr || b == nullptr) return false;
    set_scalar(regs[in.a], scalar_op(kOp, *a, *b, in.pos));
    return true;
  }

  /// Lt..Ge (`base`, scalar case `cmp`): writes the 0/1 result to r[a]
  /// and returns it, so a fused branch tests the bool it just computed.
  template <typename Cmp>
  bool order(const Instr& in, Value* regs, Op base, Cmp cmp) {
    const Scalar* a = regs[in.b].scalar_if();
    const Scalar* b = regs[in.c].scalar_if();
    const bool r = a != nullptr && b != nullptr
                       ? cmp(*a, *b)
                       : compare(base, regs[in.b], regs[in.c], in.pos) != 0;
    set_scalar(regs[in.a], r ? 1.0 : 0.0);
    return r;
  }

  /// order() against the scalar pool constant consts[c].
  template <typename Cmp>
  bool order_k(const Instr& in, Value* regs, Op base, Cmp cmp) {
    const Value& k = chunk_.consts[in.c];
    const Scalar* a = regs[in.b].scalar_if();
    const bool r = a != nullptr ? cmp(*a, *k.scalar_if())
                                : compare(base, regs[in.b], k, in.pos) != 0;
    set_scalar(regs[in.a], r ? 1.0 : 0.0);
    return r;
  }

  /// Eq (`eq`) or Ne of r[b] and `rhs`: writes the 0/1 result to r[a]
  /// and returns it.
  static bool same(const Instr& in, Value* regs, const Value& rhs, bool eq) {
    const Value& lhs = regs[in.b];
    const Scalar* a = lhs.scalar_if();
    const Scalar* b = rhs.scalar_if();
    const bool r =
        (a != nullptr && b != nullptr ? *a == *b : lhs.equals(rhs)) == eq;
    set_scalar(regs[in.a], r ? 1.0 : 0.0);
    return r;
  }

  double scalar_op(BinOp op, double a, double b, TokenIndex pos) const {
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

  /// The ordering ops' general path (the scalar case is in order()):
  /// 1 when `lhs op rhs` holds, else 0.
  [[gnu::noinline]] double compare(Op op, const Value& lhs,
                                   const Value& rhs, TokenIndex pos) const {
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
      case Op::Lt: return cmp < 0 ? 1.0 : 0.0;
      case Op::Le: return cmp <= 0 ? 1.0 : 0.0;
      case Op::Gt: return cmp > 0 ? 1.0 : 0.0;
      default: return cmp >= 0 ? 1.0 : 0.0;
    }
  }

  /// Vector-vector elementwise kernel; `o` may exactly alias `a` or `b`
  /// (a move-reused temp). Add/Sub/Mul are branch-free tight loops the
  /// compiler auto-vectorizes; Div/Mod hoist the zero probe out of the
  /// loop into a vectorizable any-zero reduction (the walker's error
  /// message does not depend on the element index, so raising it before
  /// the divide loop is observably identical — the partially-written
  /// output is discarded by the unwind either way); Pow keeps its
  /// per-element NaN probe.
  template <BinOp kOp>
  void vec_kernel(double* o, const double* a, const double* b,
                  std::size_t n, TokenIndex pos) const {
    if constexpr (kOp == BinOp::Add) {
      for (std::size_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
    } else if constexpr (kOp == BinOp::Sub) {
      for (std::size_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
    } else if constexpr (kOp == BinOp::Mul) {
      for (std::size_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
    } else if constexpr (kOp == BinOp::Div || kOp == BinOp::Mod) {
      int zero = 0;
      for (std::size_t i = 0; i < n; ++i) zero |= (b[i] == 0 ? 1 : 0);
      if (zero != 0) {
        error(ErrorCode::Runtime, pos,
              kOp == BinOp::Div ? "division by zero" : "mod by zero");
      }
      if constexpr (kOp == BinOp::Div) {
        for (std::size_t i = 0; i < n; ++i) o[i] = a[i] / b[i];
      } else {
        for (std::size_t i = 0; i < n; ++i) o[i] = std::fmod(a[i], b[i]);
      }
    } else {  // Pow
      for (std::size_t i = 0; i < n; ++i) {
        o[i] = scalar_op(BinOp::Pow, a[i], b[i], pos);
      }
    }
  }

  /// In-place scalar-on-the-left broadcast: o[i] = k op o[i].
  template <BinOp kOp>
  void scl_vec_kernel(double k, double* o, std::size_t n,
                      TokenIndex pos) const {
    if constexpr (kOp == BinOp::Add) {
      for (std::size_t i = 0; i < n; ++i) o[i] = k + o[i];
    } else if constexpr (kOp == BinOp::Sub) {
      for (std::size_t i = 0; i < n; ++i) o[i] = k - o[i];
    } else if constexpr (kOp == BinOp::Mul) {
      for (std::size_t i = 0; i < n; ++i) o[i] = k * o[i];
    } else if constexpr (kOp == BinOp::Div || kOp == BinOp::Mod) {
      int zero = 0;
      for (std::size_t i = 0; i < n; ++i) zero |= (o[i] == 0 ? 1 : 0);
      if (zero != 0) {
        error(ErrorCode::Runtime, pos,
              kOp == BinOp::Div ? "division by zero" : "mod by zero");
      }
      if constexpr (kOp == BinOp::Div) {
        for (std::size_t i = 0; i < n; ++i) o[i] = k / o[i];
      } else {
        for (std::size_t i = 0; i < n; ++i) o[i] = std::fmod(k, o[i]);
      }
    } else {  // Pow
      for (std::size_t i = 0; i < n; ++i) {
        o[i] = scalar_op(BinOp::Pow, k, o[i], pos);
      }
    }
  }

  /// In-place scalar-on-the-right broadcast: o[i] = o[i] op k.
  template <BinOp kOp>
  void vec_scl_kernel(double* o, std::size_t n, double k,
                      TokenIndex pos) const {
    if constexpr (kOp == BinOp::Add) {
      for (std::size_t i = 0; i < n; ++i) o[i] = o[i] + k;
    } else if constexpr (kOp == BinOp::Sub) {
      for (std::size_t i = 0; i < n; ++i) o[i] = o[i] - k;
    } else if constexpr (kOp == BinOp::Mul) {
      for (std::size_t i = 0; i < n; ++i) o[i] = o[i] * k;
    } else if constexpr (kOp == BinOp::Div || kOp == BinOp::Mod) {
      if (k == 0 && n > 0) {
        error(ErrorCode::Runtime, pos,
              kOp == BinOp::Div ? "division by zero" : "mod by zero");
      }
      if constexpr (kOp == BinOp::Div) {
        for (std::size_t i = 0; i < n; ++i) o[i] = o[i] / k;
      } else {
        for (std::size_t i = 0; i < n; ++i) o[i] = std::fmod(o[i], k);
      }
    } else {  // Pow
      for (std::size_t i = 0; i < n; ++i) {
        o[i] = scalar_op(BinOp::Pow, o[i], k, pos);
      }
    }
  }

  /// Add..Pow with broadcast. A flagged operand register holds a dead
  /// temp whose vector payload is reused in place of a fresh copy; the
  /// result is assigned to the destination last, so aliasing dst with
  /// either operand is safe and errors leave dst untouched.
  template <BinOp kOp>
  [[gnu::noinline]] void arith(const Instr& in, Value* regs) const {
    Value& lhs = regs[in.b];
    Value& rhs = regs[in.c];
    // Scalar-scalar fast path: one variant probe per operand. Strings
    // cannot be involved here, so hoisting it past the string check is
    // behaviour-preserving.
    if (const Scalar* a = lhs.scalar_if()) {
      if (const Scalar* b = rhs.scalar_if()) {
        set_scalar(regs[in.a], scalar_op(kOp, *a, *b, in.pos));
        return;
      }
    }
    if (lhs.is_string() || rhs.is_string()) {
      if (kOp == BinOp::Add && lhs.is_string() && rhs.is_string()) {
        regs[in.a] = Value(lhs.as_string() + rhs.as_string());
        return;
      }
      error(ErrorCode::Type, in.pos, "operator `", to_string(kOp),
            "` is not defined for strings");
    }
    if (lhs.is_vector() && rhs.is_vector()) {
      if (lhs.as_vector().size() != rhs.as_vector().size()) {
        error(ErrorCode::Type, in.pos, "elementwise `", to_string(kOp),
              "` on vectors of lengths ", lhs.as_vector().size(), " and ",
              rhs.as_vector().size());
      }
      if ((in.flags & kTempB) != 0) {
        Vector out = std::move(lhs.as_vector());
        vec_kernel<kOp>(out.data(), out.data(), rhs.as_vector().data(),
                        out.size(), in.pos);
        regs[in.a] = Value(std::move(out));
        return;
      }
      const Vector& a = lhs.as_vector();
      if ((in.flags & kTempC) != 0) {
        Vector out = std::move(rhs.as_vector());
        vec_kernel<kOp>(out.data(), a.data(), out.data(), out.size(), in.pos);
        regs[in.a] = Value(std::move(out));
        return;
      }
      const Vector& b = rhs.as_vector();
      Vector out(a.size());
      vec_kernel<kOp>(out.data(), a.data(), b.data(), out.size(), in.pos);
      regs[in.a] = Value(std::move(out));
      return;
    }
    if (lhs.is_scalar() && rhs.is_vector()) {
      const double a = lhs.as_scalar();
      Vector out = (in.flags & kTempC) != 0 ? std::move(rhs.as_vector())
                                            : rhs.as_vector();
      scl_vec_kernel<kOp>(a, out.data(), out.size(), in.pos);
      regs[in.a] = Value(std::move(out));
      return;
    }
    if (lhs.is_vector() && rhs.is_scalar()) {
      const double b = rhs.as_scalar();
      Vector out = (in.flags & kTempB) != 0 ? std::move(lhs.as_vector())
                                            : lhs.as_vector();
      vec_scl_kernel<kOp>(out.data(), out.size(), b, in.pos);
      regs[in.a] = Value(std::move(out));
      return;
    }
    error(ErrorCode::Type, in.pos, "operator `", to_string(kOp), "` on a ",
          lhs.type_name(), " and a ", rhs.type_name());
  }

  [[gnu::noinline]] static void negate_vector(const Instr& in, Value* regs) {
    Value& v = regs[in.b];
    Vector out = (in.flags & kTempB) != 0 ? std::move(v.as_vector())
                                          : v.as_vector();
    for (double& x : out) x = -x;
    regs[in.a] = Value(std::move(out));
  }

  [[gnu::noinline]] static void new_vector(Value& dst, std::size_t capacity) {
    Vector v;
    v.reserve(capacity);
    dst = Value(std::move(v));
  }

  /// The AddK..PowK forms: rhs is a scalar const pool entry, so the
  /// type dispatch collapses to one probe of the left operand. For the
  /// commutative ops (Add/Mul) the compiler also sends a const left
  /// operand through here with the operands swapped; results and error
  /// messages are identical either way (the walker's string/type errors
  /// for these shapes do not depend on operand order).
  template <BinOp kOp>
  void arith_k(const Instr& in, Value* regs) {
    const double k = *chunk_.consts[in.c].scalar_if();
    Value& lhs = regs[in.b];
    if (const Scalar* a = lhs.scalar_if()) {
      set_scalar(regs[in.a], scalar_op(kOp, *a, k, in.pos));
      return;
    }
    arith_k_vector<kOp>(in, regs, k);
  }

  /// arith_k's non-scalar path, out of line like arith's.
  template <BinOp kOp>
  [[gnu::noinline]] void arith_k_vector(const Instr& in, Value* regs,
                                        double k) const {
    Value& lhs = regs[in.b];
    if (lhs.is_string()) {
      error(ErrorCode::Type, in.pos, "operator `", to_string(kOp),
            "` is not defined for strings");
    }
    Vector out = (in.flags & kTempB) != 0 ? std::move(lhs.as_vector())
                                          : lhs.as_vector();
    vec_scl_kernel<kOp>(out.data(), out.size(), k, in.pos);
    regs[in.a] = Value(std::move(out));
  }

  /// Executes code[from, to). `states` is non-null only for the
  /// top-level frame (formula frames hold just parameters, all bound
  /// by construction). Argument ranges recurse through here; Halt only
  /// appears at statement level, so it unwinds the top frame directly.
  void exec(const Code& code, Value* regs, std::uint8_t* states,
            std::uint32_t from, std::uint32_t to) {
    const Instr* const ins = code.ins.data();
    for (std::uint32_t ip = from; ip < to;) {
      const Instr& in = ins[ip];
      ++retired_;
      switch (in.op) {
        case Op::LoadConst: {
          const Value& c = chunk_.consts[in.b];
          if (const Scalar* s = c.scalar_if()) {
            set_scalar(regs[in.a], *s);
          } else {
            regs[in.a] = c;
          }
          break;
        }
        case Op::Move:
          if (in.a != in.b) {
            if (const Scalar* s = regs[in.b].scalar_if()) {
              set_scalar(regs[in.a], *s);
            } else if ((in.flags & kTempB) != 0) {
              regs[in.a] = std::move(regs[in.b]);
            } else {
              regs[in.a] = regs[in.b];
            }
          }
          break;
        case Op::CheckVar: {
          std::uint8_t& st = states[in.a];
          if (st == kUnbound) {
            const VarInfo& vi = chunk_.vars[in.a];
            if (!vi.has_const) {
              error(ErrorCode::Name, in.pos, "undefined variable `",
                    var_name(in.a), "`");
            }
            set_scalar(regs[in.a], vi.const_value);
            st = kConstMaterialized;
          }
          break;
        }
        case Op::Neg: {
          Value& v = regs[in.b];
          if (v.is_vector()) {
            negate_vector(in, regs);
          } else if (v.is_string()) {
            error(ErrorCode::Type, in.pos, "cannot negate a string");
          } else {
            set_scalar(regs[in.a], -v.as_scalar());
          }
          break;
        }
        case Op::NotOp:
          set_scalar(regs[in.a], regs[in.b].truthy() ? 0.0 : 1.0);
          break;
        case Op::Truthy:
          set_scalar(regs[in.a], regs[in.b].truthy() ? 1.0 : 0.0);
          break;
        case Op::Add:
          if (!fast_arith<BinOp::Add>(in, regs))
            arith<BinOp::Add>(in, regs);
          break;
        case Op::Sub:
          if (!fast_arith<BinOp::Sub>(in, regs))
            arith<BinOp::Sub>(in, regs);
          break;
        case Op::Mul:
          if (!fast_arith<BinOp::Mul>(in, regs))
            arith<BinOp::Mul>(in, regs);
          break;
        case Op::Div:
          if (!fast_arith<BinOp::Div>(in, regs))
            arith<BinOp::Div>(in, regs);
          break;
        case Op::Mod:
          if (!fast_arith<BinOp::Mod>(in, regs))
            arith<BinOp::Mod>(in, regs);
          break;
        case Op::Pow:
          if (!fast_arith<BinOp::Pow>(in, regs))
            arith<BinOp::Pow>(in, regs);
          break;
        case Op::AddK: arith_k<BinOp::Add>(in, regs); break;
        case Op::SubK: arith_k<BinOp::Sub>(in, regs); break;
        case Op::MulK: arith_k<BinOp::Mul>(in, regs); break;
        case Op::DivK: arith_k<BinOp::Div>(in, regs); break;
        case Op::ModK: arith_k<BinOp::Mod>(in, regs); break;
        case Op::PowK: arith_k<BinOp::Pow>(in, regs); break;
        case Op::LtK: order_k(in, regs, Op::Lt, kLt); break;
        case Op::LeK: order_k(in, regs, Op::Le, kLe); break;
        case Op::GtK: order_k(in, regs, Op::Gt, kGt); break;
        case Op::GeK: order_k(in, regs, Op::Ge, kGe); break;
        case Op::EqK: same(in, regs, chunk_.consts[in.c], true); break;
        case Op::NeK: same(in, regs, chunk_.consts[in.c], false); break;
        case Op::CmpEq: same(in, regs, regs[in.c], true); break;
        case Op::CmpNe: same(in, regs, regs[in.c], false); break;
        case Op::Lt: order(in, regs, Op::Lt, kLt); break;
        case Op::Le: order(in, regs, Op::Le, kLe); break;
        case Op::Gt: order(in, regs, Op::Gt, kGt); break;
        case Op::Ge: order(in, regs, Op::Ge, kGe); break;
        // Fused compare+branch: the comparison executes exactly as the
        // standalone op (including writing its 0/1 result register, so
        // any later read still sees it), then the folded JumpIfFalsy
        // fires on the result just computed.
        case Op::LtBr:
          if (!order(in, regs, Op::Lt, kLt)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::LeBr:
          if (!order(in, regs, Op::Le, kLe)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::GtBr:
          if (!order(in, regs, Op::Gt, kGt)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::GeBr:
          if (!order(in, regs, Op::Ge, kGe)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::EqBr:
          if (!same(in, regs, regs[in.c], true)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::NeBr:
          if (!same(in, regs, regs[in.c], false)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::LtKBr:
          if (!order_k(in, regs, Op::Lt, kLt)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::LeKBr:
          if (!order_k(in, regs, Op::Le, kLe)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::GtKBr:
          if (!order_k(in, regs, Op::Gt, kGt)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::GeKBr:
          if (!order_k(in, regs, Op::Ge, kGe)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::EqKBr:
          if (!same(in, regs, chunk_.consts[in.c], true)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::NeKBr:
          if (!same(in, regs, chunk_.consts[in.c], false)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::NewVector:
          new_vector(regs[in.a], static_cast<std::size_t>(in.d));
          break;
        case Op::PushScalar: {
          const Value& el = regs[in.b];
          if (!el.is_scalar()) {
            error(ErrorCode::Type, in.pos, "expected a number, got a ",
                  el.type_name());
          }
          regs[in.a].as_vector().push_back(el.as_scalar());
          break;
        }
        case Op::CheckIndexable:
          if (!regs[in.a].is_vector()) {
            error(ErrorCode::Type, in.pos, "cannot index a ",
                  regs[in.a].type_name());
          }
          break;
        case Op::IndexLoad: {
          const Vector* v = regs[in.b].vector_if();
          if (v == nullptr) {
            error(ErrorCode::Type, token_in_d(in), "cannot index a ",
                  regs[in.b].type_name());
          }
          std::size_t i;
          if ((in.flags & kNoCheck) != 0) {
            // Index proven an in-bounds integer by the abstract
            // interpreter; the differential suite guards the proof.
            const Scalar* x = regs[in.c].scalar_if();
            BANGER_ASSERT(x != nullptr && *x >= 0 &&
                              *x < static_cast<double>(v->size()),
                          "absint in-bounds proof violated");
            i = static_cast<std::size_t>(*x);
          } else {
            i = index_of(regs[in.c], v->size(), in.pos);
          }
          set_scalar(regs[in.a], (*v)[i]);
          break;
        }
        case Op::Jump:
          ip = static_cast<std::uint32_t>(in.d);
          continue;
        case Op::JumpIfFalsy:
          if (!regs[in.b].truthy()) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::JumpIfTruthy:
          if (regs[in.b].truthy()) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          break;
        case Op::Tick:
          tick(in.pos);
          break;
        case Op::TickN: {
          const auto n = static_cast<std::uint64_t>(in.d);
          if (n <= options_.step_limit - steps_) {
            steps_ += n;  // whole batch fits: one addition for n ticks
            break;
          }
          // The limit lands inside this batch: replay statement by
          // statement so the Limit error carries the exact statement
          // position and partial effects the walker would produce.
          const StmtRun& run = chunk_.runs[in.a];
          for (std::size_t j = 0; j < run.pos.size(); ++j) {
            tick(run.pos[j]);
            exec(code, regs, states, run.bounds[j], run.bounds[j + 1]);
          }
          ip = run.bounds.back();
          continue;
        }
        case Op::FinishAssign:
          states[in.a] = kBound;
          if (options_.trace != nullptr) echo(in, regs);
          break;
        case Op::IndexedCheck:
          if (states[in.a] != kBound || !regs[in.a].is_vector()) {
            bad_store_target(in.a, states[in.a], in.pos);
          }
          break;
        case Op::IndexedStore: {
          Vector* vec = regs[in.a].vector_if();
          if ((in.flags & kNoCheck) != 0) {
            const Scalar* x = regs[in.b].scalar_if();
            const Scalar* v = regs[in.c].scalar_if();
            BANGER_ASSERT(vec != nullptr && x != nullptr && v != nullptr &&
                              *x >= 0 && *x < static_cast<double>(vec->size()),
                          "absint indexed-store proof violated");
            (*vec)[static_cast<std::size_t>(*x)] = *v;
            break;
          }
          if (vec == nullptr || states[in.a] != kBound) {
            bad_store_target(in.a, states[in.a], token_in_d(in));
          }
          const std::size_t i = index_of(regs[in.b], vec->size(), in.pos);
          (*vec)[i] = regs[in.c].as_scalar();
          break;
        }
        case Op::ToScalar:
          set_scalar(regs[in.a], regs[in.b].as_scalar());
          break;
        case Op::ForInit:
          if (regs[in.a].as_scalar() == 0) {
            error(ErrorCode::Runtime, in.pos, "for loop with zero step");
          }
          break;
        case Op::ForNext: {
          const double x = regs[in.a].as_scalar();
          const double limit = regs[in.b].as_scalar();
          const double step = regs[in.c].as_scalar();
          if (!(step > 0 ? x <= limit + 1e-12 : x >= limit - 1e-12)) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          // kNoTick: the iteration tick was absorbed into the body's
          // leading TickN (which also carries SetLoopVar).
          if ((in.flags & kNoTick) == 0) tick(in.pos);
          break;
        }
        case Op::SetLoopVar:
          set_scalar(regs[in.a], regs[in.b].as_scalar());
          states[in.a] = kBound;
          break;
        case Op::ForStep:
          set_scalar(regs[in.a],
                     regs[in.a].as_scalar() + regs[in.c].as_scalar());
          ip = static_cast<std::uint32_t>(in.d);
          continue;
        case Op::RepeatInit: {
          const double n = regs[in.c].as_scalar();
          if (n < 0 || std::floor(n) != n) {
            error(ErrorCode::Runtime, in.pos,
                  "repeat count must be a non-negative integer");
          }
          set_scalar(regs[in.a], 0.0);
          set_scalar(regs[in.b], n);
          break;
        }
        case Op::RepeatNext: {
          const double k = regs[in.a].as_scalar();
          if (!(k < regs[in.b].as_scalar())) {
            ip = static_cast<std::uint32_t>(in.d);
            continue;
          }
          if ((in.flags & kNoTick) == 0) tick(in.pos);
          set_scalar(regs[in.a], k + 1);
          break;
        }
        case Op::CallOp:
          call_site(code, code.sites[in.b], regs, states, in);
          ip = static_cast<std::uint32_t>(in.d);
          continue;
        case Op::DefFormula: {
          const Formula& fo = chunk_.formulas[in.b];
          formula_table_[static_cast<std::size_t>(fo.table)] =
              static_cast<std::int32_t>(in.b);
          break;
        }
        case Op::ErrAlways:
          error(static_cast<ErrorCode>(in.a), in.pos, chunk_.messages[in.b]);
        case Op::ErrUndefined:
          error(ErrorCode::Name, in.pos, "undefined variable `",
                name_of(in.b), "`");
        case Op::Halt:
          return;
      }
      // Store fusion epilogue: a folded FinishAssign fires only after
      // the carrying instruction succeeded, exactly where the standalone
      // instruction sat. The peephole fuses only same-line pairs, so the
      // trace echo prints the same line number the walker does.
      if ((in.flags & kFinish) != 0) {
        states[in.a] = kBound;
        if (options_.trace != nullptr) echo(in, regs);
      }
      ++ip;
    }
  }

  /// Runs one call and writes its result to regs[in.a]. Only the
  /// argument loop stays here; the rest runs out of line, because this
  /// frame is on the stack once per nested call.
  void call_site(const Code& code, const CallSite& site, Value* regs,
                 std::uint8_t* states, const Instr& in) {
    if (call_depth_ == kMaxCallDepth) {
      error(ErrorCode::Limit, in.pos, "calls nested deeper than ",
            kMaxCallDepth, " levels (formula recursion too deep?)");
    }
    ++call_depth_;
    struct CallDepthGuard {
      int& depth;
      ~CallDepthGuard() { --depth; }
    } call_guard{call_depth_};
    // Formula lookup precedes builtins, like the tree-walker's scope
    // order; the table is populated dynamically by DefFormula, so a
    // call before the definition falls through exactly as it should.
    if (site.formula >= 0) {
      const std::int32_t fi =
          formula_table_[static_cast<std::size_t>(site.formula)];
      if (fi >= 0) {
        call_formula(chunk_.formulas[static_cast<std::size_t>(fi)], site,
                     code, regs, states, in);
        return;
      }
    }
    const Builtin* fn = site.builtin;
    const int n = static_cast<int>(site.args.size());
    if (fn == nullptr || n < fn->min_args ||
        (fn->max_args >= 0 && n > fn->max_args)) {
      bad_call(site, in.pos);
    }
    // Argument buffers are pooled per nesting depth: a routine dominated
    // by builtin calls would otherwise pay one heap allocation per call.
    // The pool is indexed (not referenced) across the argument loop —
    // nested calls inside an argument expression may grow the pool.
    const std::size_t slot = call_pool_used_++;
    if (slot == call_pool_.size()) call_pool_.emplace_back();
    struct PoolGuard {
      std::size_t& used;
      ~PoolGuard() { --used; }
    } guard{call_pool_used_};
    call_pool_[slot].resize(site.args.size());
    for (std::size_t i = 0; i < site.args.size(); ++i) {
      const ArgRange& ar = site.args[i];
      exec(code, regs, states, ar.begin, ar.end);
      Value& arg = call_pool_[slot][i];
      if (ar.temp != 0) {
        arg = std::move(regs[ar.reg]);
      } else {
        arg = regs[ar.reg];
      }
    }
    invoke(*fn, site, call_pool_[slot], regs[in.a], in.pos);
  }

  [[gnu::noinline]] void invoke(const Builtin& fn, const CallSite& site,
                                std::vector<Value>& args, Value& dst,
                                TokenIndex pos) {
    try {
      dst = fn.fn(args, ctx_);
    } catch (const Error& e) {
      error(e.code(), pos, e.message(), " in `", name_of(site.name), "`");
    }
  }

  /// An unknown function, or a builtin given the wrong argument count.
  [[noreturn, gnu::noinline, gnu::cold]] void bad_call(const CallSite& site,
                                                       TokenIndex pos) const {
    const std::string_view callee = name_of(site.name);
    const Builtin* fn = site.builtin;
    if (fn == nullptr) {
      error(ErrorCode::Name, pos, "unknown function `", callee, "`");
    }
    const std::string range =
        fn->max_args == fn->min_args
            ? ""
            : (fn->max_args < 0 ? "+" : ".." + std::to_string(fn->max_args));
    error(ErrorCode::Type, pos, "`", callee, "` expects ", fn->min_args, range,
          " arguments, got ", site.args.size());
  }

  /// Out of line, so a builtin-only nest does not carry a formula
  /// frame's locals in call_site's frame.
  [[gnu::noinline]] void call_formula(const Formula& fo, const CallSite& site,
                                      const Code& caller, Value* regs,
                                      std::uint8_t* states,
                                      const Instr& in) {
    // The formula's name is spelled only on the error paths: spelling
    // it binds the routine's text, which a clean run never lexes.
    const TokenIndex pos = in.pos;
    if (site.args.size() != fo.param_reg.size()) {
      error(ErrorCode::Type, pos, "formula `", name_of(site.name),
            "` expects ", fo.param_reg.size(), " arguments, got ",
            site.args.size());
    }
    if (++formula_depth_ > 256) {
      --formula_depth_;
      error(ErrorCode::Limit, pos, "formula recursion deeper than 256 (`",
            name_of(site.name), "`)");
    }
    struct DepthGuard {
      int& depth;
      ~DepthGuard() { --depth; }
    } guard{formula_depth_};
    // Arguments evaluate in the caller's frame — errors there are not
    // attributed to this formula (only the body's are, below).
    std::vector<Value> frame(fo.code.num_regs);
    for (std::size_t i = 0; i < site.args.size(); ++i) {
      const ArgRange& ar = site.args[i];
      exec(caller, regs, states, ar.begin, ar.end);
      if (fo.param_bind[i] != 0) {
        frame[fo.param_reg[i]] = ar.temp != 0 ? std::move(regs[ar.reg])
                                              : regs[ar.reg];
      }
    }
    try {
      tick(pos);
      exec(fo.code, frame.data(), nullptr, 0,
           static_cast<std::uint32_t>(fo.code.ins.size()));
      regs[in.a] = std::move(frame[fo.result]);
    } catch (const Error& e) {
      // Attribute the failure to the innermost formula, once, keeping
      // the original code and position so callers can still classify it.
      if (e.message().find(" in formula `") != std::string::npos) throw;
      raise(e.code(), e.pos().valid() ? e.pos() : binding().pos(pos),
            e.message(), " in formula `", name_of(site.name), "`");
    }
  }

  const Chunk& chunk_;
  mutable const Binding* binding_;
  std::string_view source_;
  mutable Binding lexed_;  ///< binding_ when it was lexed here
  const ExecOptions& options_;
  util::Rng rng_;
  BuiltinContext ctx_;
  std::vector<std::int32_t> formula_table_;
  std::vector<std::vector<Value>> call_pool_;
  std::size_t call_pool_used_ = 0;
  int formula_depth_ = 0;
  int call_depth_ = 0;  ///< native call nesting (call_site)
  std::uint64_t steps_ = 0;
  std::uint64_t retired_ = 0;
};

}  // namespace

void run(const Chunk& chunk, const Binding& binding, Env& env,
         const ExecOptions& options) {
  Vm vm(chunk, &binding, {}, options);
  vm.run(env);
}

void run_frame(const Chunk& chunk, std::string_view source, Frame& frame,
               const ExecOptions& options) {
  Vm vm(chunk, nullptr, source, options);
  vm.run_frame(frame);
}

}  // namespace banger::pits::bc
