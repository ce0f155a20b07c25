// banger/pits/interp.hpp
//
// The PITS interpreter: executes a parsed routine against an environment
// of named values. This is what runs when the Banger user presses the
// calculator's "=" key (trial run of one task) and what the runtime
// executor calls for every task of a whole-program run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "pits/ast.hpp"
#include "pits/value.hpp"

namespace banger::pits {

/// Variable bindings; inputs are placed here before execute, outputs are
/// read from here afterwards.
using Env = std::map<std::string, Value>;

struct ExecOptions {
  /// Abort with Error{Limit} after this many evaluated statements —
  /// non-programmers write infinite loops, and instant feedback must not
  /// hang the environment.
  std::uint64_t step_limit = 50'000'000;
  /// Seed for rand().
  std::uint64_t seed = 42;
  /// Trial-run transcript for print(); null discards.
  std::ostream* out = nullptr;
  /// Single-step trace: every assignment is echoed as
  /// "line N: var = value" (the calculator's step mode). Null disables.
  std::ostream* trace = nullptr;
};

namespace bc {
struct Chunk;
struct AnalysisFacts;
}  // namespace bc

/// An immutable, shareable parsed routine. The first execution (or an
/// explicit precompile()) lowers the AST to register bytecode once; the
/// compiled form is cached behind a thread-safe once-init and shared by
/// all copies of the Program, so the calculator panel and the codegen
/// reference path reuse one compilation. A Program keeps its own text
/// and binds the chunk to it, so errors and transcripts carry its names
/// and positions.
class Program {
 public:
  Program();

  /// Parses PITS source (keeping a copy of it); throws Error{Parse} with
  /// positions.
  static Program parse(std::string_view source);

  [[nodiscard]] bool empty() const noexcept { return body_->empty(); }
  [[nodiscard]] const Block& body() const noexcept { return *body_; }

  /// Runs the routine on the bytecode VM, mutating `env`. Throws
  /// Error{Runtime} (division by zero, bad index, unknown name...),
  /// Error{Type}, or Error{Limit}.
  void execute(Env& env, const ExecOptions& options = {}) const;

  /// Compiles to bytecode now instead of on first execute(). Idempotent,
  /// thread-safe, and cheap when already compiled.
  void precompile() const;

  /// Compiles now with analysis facts (src/analyze/absint.hpp) guiding
  /// check elision and statement-tick batching. The compiled form is
  /// once-initialized, so only the first compilation of this Program
  /// (across all copies) takes effect; later calls are no-ops either
  /// way. Elided chunks stay observably identical to plain ones.
  void precompile(const bc::AnalysisFacts& facts) const;

  /// Canonical source text (pretty-printed AST).
  [[nodiscard]] std::string to_source() const { return pits::to_source(*body_); }

  /// Free variables the routine reads — excluding constants and builtin
  /// names — i.e. the inputs the PITL node must supply.
  [[nodiscard]] std::vector<std::string> inputs() const;
  /// Variables the routine assigns — the candidate outputs.
  [[nodiscard]] std::vector<std::string> outputs() const;

  /// The cached chunk, compiling on first use; never null. `facts` is
  /// consulted only by the compiling call. The chunk runs any routine
  /// of this one's shape (pits/shape.hpp): the executor's program cache
  /// compiles one Program per shape and runs its chunk with
  /// bc::run_frame against each task's own text.
  [[nodiscard]] std::shared_ptr<const bc::Chunk> compiled_chunk(
      const bc::AnalysisFacts* facts = nullptr) const;

 private:
  struct Compiled;  // once-initialized bytecode cache, defined in interp.cpp
  struct Text;      // the source and its binding, defined in interp.cpp

  Program(std::shared_ptr<const Block> body, std::shared_ptr<const Text> text);

  std::shared_ptr<const Block> body_;
  std::shared_ptr<const Text> text_;
  std::shared_ptr<Compiled> compiled_;
};

/// Convenience: parse and evaluate a single expression against an
/// environment (the calculator's display line). Error positions are
/// relative to `expression`: line 1, column 1 is its first character.
Value eval_expression(std::string_view expression, const Env& env,
                      const ExecOptions& options = {});

}  // namespace banger::pits
