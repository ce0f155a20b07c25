// banger/pits/bytecode.hpp
//
// Register bytecode for PITS routines, the one engine that runs them.
// The compiler in compile.cpp interns each name to a dense frame slot
// once, folds constant subexpressions into a pool, and lowers loops and
// calls to direct opcodes so the VM in vm.cpp touches the Env map only
// at entry/exit.
//
// A chunk is shared by every routine of one shape (pits/shape.hpp): it
// holds token indices where it would hold source positions or names,
// and the VM reads them through the running routine's own Binding.
// Semantics are bit-for-bit those of the reference
// tree-walker in tests/reference_walker.hpp — same step accounting,
// same error codes/messages/positions, same print/trace transcripts,
// same rand() stream — which the differential suites
// (tests/pits_vm_test.cpp, tests/pits_fuzz_test.cpp) enforce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pits/ast.hpp"
#include "pits/interp.hpp"
#include "pits/shape.hpp"
#include "pits/value.hpp"

namespace banger::pits {
struct Builtin;
}  // namespace banger::pits

namespace banger::pits::bc {

// One opcode per operation the tree-walker performs between two Env
// touches. Operand conventions: `a` is usually the destination
// register, `b`/`c` sources, `d` a jump target / resume index / count.
// `pos` is the token whose position any error raised by the instruction
// carries, chosen to match the tree-walker exactly.
enum class Op : std::uint8_t {
  LoadConst,   // r[a] = consts[b]
  Move,        // r[a] = r[b] (moved when flag kTempB)
  CheckVar,    // slot a unbound: materialize constant or throw Name error
  Neg,         // r[a] = -r[b] (scalar/vector; string errors)
  NotOp,       // r[a] = r[b] truthy ? 0 : 1
  Truthy,      // r[a] = r[b] truthy ? 1 : 0
  Add, Sub, Mul, Div, Mod, Pow,   // r[a] = r[b] op r[c] with broadcast
  CmpEq, CmpNe, Lt, Le, Gt, Ge,   // r[a] = comparison as 0/1
  NewVector,   // r[a] = empty vector reserved to d elements
  PushScalar,  // r[a].vector += scalar r[b] ("expected a number" at pos)
  CheckIndexable,  // r[a] must be a vector ("cannot index a ...")
  IndexLoad,   // r[a] = r[b][r[c]] (integer + range checks at pos)
  Jump,        // ip = d
  JumpIfFalsy,   // if !truthy(r[b]) ip = d
  JumpIfTruthy,  // if truthy(r[b]) ip = d
  Tick,        // statement step accounting against ExecOptions::step_limit
  TickN,       // d pre-counted statement ticks at once; runs[a] on slow path
  FinishAssign,   // mark slot a bound; echo to the trace stream
  IndexedCheck,   // slot a must be a bound vector (indexed assignment)
  IndexedStore,   // r[a][r[b]] = scalar r[c]
  ToScalar,    // r[a] = as_scalar(r[b]) — for-loop bound coercion
  ForInit,     // step r[a] must be nonzero
  ForNext,     // counter r[a] vs bound r[b] by sign of step r[c]; exits to d
  SetLoopVar,  // slot a = scalar counter r[b] (never traced)
  ForStep,     // counter r[a] += step r[c]; ip = d
  RepeatInit,  // r[a]=0, r[b]=validated count from r[c]
  RepeatNext,  // if !(r[a] < r[b]) ip = d; else tick, ++r[a]
  CallOp,      // r[a] = call sites[b]; args inline before resume point d
  DefFormula,  // register formulas[b] in the runtime formula table
  ErrAlways,   // throw Error{code a, messages[b]} — statically doomed code
  ErrUndefined,  // throw "undefined variable `names[b]`" — a formula
                 //   body reading neither a parameter nor a constant
  Halt,        // return from the routine
  // ---- fused superinstructions (peephole pass over the stream above).
  // Each is observably identical to the pair it replaces: same result
  // registers written, same errors at the same positions, same ticks.
  AddK, SubK, MulK, DivK, ModK, PowK,  // r[a] = r[b] op consts[c] (scalar)
  LtK, LeK, GtK, GeK, EqK, NeK,        // r[a] = r[b] cmp consts[c] as 0/1
  LtBr, LeBr, GtBr, GeBr, EqBr, NeBr,  // r[a] = r[b] cmp r[c]; falsy -> ip=d
  LtKBr, LeKBr, GtKBr, GeKBr,          // r[a] = r[b] cmp consts[c];
  EqKBr, NeKBr,                        //   falsy -> ip=d
};

// Operand-liveness flags: a flagged source register is a dead temporary
// after this instruction, so vector payloads may be moved or mutated in
// place instead of copied. Named slots are never flagged.
inline constexpr std::uint8_t kTempB = 1U;
inline constexpr std::uint8_t kTempC = 2U;

// Analysis-elision flags (facts-guided compiles only).
// kNoCheck on IndexLoad/IndexedStore: the index is proven an in-bounds
// integer (and the stored value a scalar), so the checks are skipped.
// kNoTick on ForNext/RepeatNext: the iteration tick was absorbed into
// the loop body's leading TickN.
inline constexpr std::uint8_t kNoCheck = 4U;
inline constexpr std::uint8_t kNoTick = 8U;

// Store fusion (peephole): the instruction's destination `a` is a named
// slot and an adjacent FinishAssign was folded into it — after the
// instruction succeeds, the slot is marked bound and the assignment is
// echoed to the trace stream, exactly where the standalone FinishAssign
// would have done both.
inline constexpr std::uint8_t kFinish = 16U;

struct Instr {
  Op op = Op::Halt;
  std::uint8_t flags = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t c = 0;
  std::int32_t d = 0;
  TokenIndex pos = kNoToken;
};

// Argument expressions compile to an inline code range executed only
// after the callee is resolved and its arity checked — the
// tree-walker's evaluation order.
struct ArgRange {
  std::uint32_t begin = 0;  ///< first instruction of the argument
  std::uint32_t end = 0;    ///< one past the last
  std::uint32_t reg = 0;    ///< register holding the result
  std::uint8_t temp = 0;    ///< 1 = result may be moved out
};

struct CallSite {
  std::uint32_t name = 0;   ///< names[] index of the callee
  const Builtin* builtin = nullptr;  ///< pre-resolved; null if unknown
  std::int32_t formula = -1;  ///< runtime formula-table index, -1 if never a formula
  std::vector<ArgRange> args;
};

// One compiled body: the routine's top level or one formula.
struct Code {
  std::vector<Instr> ins;
  std::vector<CallSite> sites;
  std::uint32_t num_regs = 0;
  /// First non-named register: main-frame slots (or formula parameters)
  /// occupy [0, first_temp). The peephole pass may only elide writes to
  /// registers at or above this boundary.
  std::uint32_t first_temp = 0;
};

struct Formula {
  std::uint32_t name = 0;  ///< names[] index
  std::int32_t table = 0;  ///< runtime formula-table index it registers under
  std::vector<std::uint32_t> param_reg;  ///< frame register per declared param
  std::vector<std::uint8_t> param_bind;  ///< 0 for duplicate params (first wins)
  std::uint32_t result = 0;  ///< register holding the body's value
  Code code;
};

// Metadata for a named top-level slot. Slots occupy the low registers
// of the main frame; `const_value` backs CheckVar materialization for
// calculator constants (pi, e, ...) that the Env may shadow at entry.
struct VarInfo {
  std::uint32_t name = 0;  ///< names[] index
  SymId sym = 0;           ///< the variable's shape number
  bool has_const = false;
  double const_value = 0.0;
};

// Slow-path metadata for one TickN instruction: per batched statement,
// its first token (the tick the walker would charge) and the main
// instruction range that executes it. `bounds` has one more entry than
// `pos`; range j is [bounds[j], bounds[j+1]). Only consulted when the
// fast path sees the step limit inside the batch, so the limit error
// carries the exact statement position and partial effects the walker
// would produce.
struct StmtRun {
  std::vector<std::uint32_t> bounds;
  std::vector<TokenIndex> pos;
};

struct Chunk {
  Code main;
  std::vector<Formula> formulas;
  std::vector<Value> consts;
  /// Each name's first token; a Binding spells it.
  std::vector<TokenIndex> names;
  std::vector<std::string> messages;  ///< ErrAlways texts
  std::vector<VarInfo> vars;          ///< named slots, in slot order
  std::vector<StmtRun> runs;          ///< TickN slow-path tables
  std::uint32_t num_formula_names = 0;  ///< runtime formula-table size
  std::uint32_t folded = 0;  ///< subexpressions folded into the pool
  std::uint32_t elided = 0;  ///< checks removed under AnalysisFacts
  std::uint32_t fused = 0;   ///< instruction pairs merged by the peephole
};

struct AnalysisFacts;

/// Compiles a parsed routine; `tokens` binds the tokens it was parsed
/// from (Binding(lex(source)), which carries first()), and maps its
/// positions and symbols to token indices. Total for
/// any parseable AST — statically invalid-but-conditionally-executed
/// code lowers to runtime-faulting instructions, and operands are
/// 32-bit, so no routine a process can hold overflows them. With `facts`
/// (proofs from the abstract interpreter in src/analyze/absint.cpp),
/// statement ticks batch into TickN, proven in-bounds index sites drop
/// their checks, and proven-bound reads drop CheckVar — observable
/// behavior is unchanged. The chunk depends on the text only through
/// its shape, so it runs any routine of that shape.
Chunk compile(const Block& body, const Binding& tokens,
              const AnalysisFacts* facts = nullptr);

/// Runs a compiled routine with tree-walker-identical semantics, reading
/// names and positions through `binding` (the running routine's own).
/// The chunk is immutable and safely shared across concurrent runs.
void run(const Chunk& chunk, const Binding& binding, Env& env,
         const ExecOptions& options);

// Slot binding states for the top-level frame (see Frame). A
// const-materialized slot reads like a bound one but never writes back
// to the caller, matching the tree-walker where calculator constants
// never enter the Env.
inline constexpr std::uint8_t kSlotUnbound = 0;
inline constexpr std::uint8_t kSlotBound = 1;
inline constexpr std::uint8_t kSlotConst = 2;

/// A reusable top-level register frame: the Env-free entry point for
/// callers (the batched executor) that already know which chunk slot
/// each value belongs in. Reusing one Frame across runs keeps register
/// and vector capacity warm instead of reallocating per task.
struct Frame {
  std::vector<Value> regs;
  std::vector<std::uint8_t> states;

  /// Sizes the frame for `chunk` and marks every slot unbound. Stale
  /// register payloads are intentionally kept (never read before
  /// written); call bind() for each input afterwards.
  void prepare(const Chunk& chunk) {
    if (regs.size() < chunk.main.num_regs) regs.resize(chunk.main.num_regs);
    states.assign(chunk.vars.size(), kSlotUnbound);
  }

  void bind(std::uint32_t slot, Value v) {
    regs[slot] = std::move(v);
    states[slot] = kSlotBound;
  }
};

/// Runs a compiled routine against a caller-prepared Frame instead of an
/// Env map — identical semantics, errors, transcripts, and rand stream
/// to run(); only the entry/exit marshalling differs. On return (success
/// or error unwind) bound slots hold the routine's final values.
/// `source` is the running routine's text: it is lexed into a Binding
/// only when an error or a trace echo needs a position or a name.
void run_frame(const Chunk& chunk, std::string_view source, Frame& frame,
               const ExecOptions& options);

}  // namespace banger::pits::bc
