// banger/pits/shape.hpp
//
// Routine shapes and bindings. Designs repeat one routine under fresh
// names (every cell of a heat rod runs the same stencil on its own
// variables), so the front end keys each routine by its shape and
// builds one compiled chunk per shape:
//
//   shape key  the token stream with each identifier replaced by its
//              first-appearance number — the parser's SymId — except
//              names whose spelling carries meaning (builtins,
//              calculator constants, `when`). Literals stay spelled, and
//              comments and blank lines never reach the token stream.
//   binding    where one routine's tokens sit in its own text and how its
//              identifiers are spelled. A chunk carries token indices
//              instead of positions and spellings, so every task reads the
//              shared chunk through its own binding: diagnostics, runtime
//              errors and trace echoes keep the task's bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pits/ast.hpp"
#include "pits/token.hpp"

namespace banger::pits {

/// Index of a token in lex(source), counted from 0.
using TokenIndex = std::uint32_t;
inline constexpr TokenIndex kNoToken = ~TokenIndex{0};

/// Numbers distinct identifiers densely, in order of first appearance:
/// an open-addressing table over views the caller keeps alive.
class SymbolTable {
 public:
  SymbolTable() { names_.reserve(16); }

  /// The name's number; a new name gets the next one.
  SymId intern(std::string_view name);
  /// Forgets every name, keeping a small table's storage for reuse.
  void clear();

 private:
  void grow();

  std::vector<SymId> slots_;  ///< power-of-two size, at most half full
  std::vector<std::string_view> names_;
};

/// One routine's tokens as a shared chunk sees them: position and
/// spelling by token index, and, for the compiler, the first token of
/// each SymId.
class Binding {
 public:
  Binding() = default;
  /// Lexes `source`, which must outlive the binding; throws Error{Parse}
  /// on a lexical error. What running a chunk needs: first() stays
  /// empty.
  explicit Binding(std::string_view source);
  /// Binds tokens already lexed, first() included; their source must
  /// outlive the binding.
  explicit Binding(const std::vector<Token>& tokens);

  /// Position of token `t`; {} for kNoToken.
  [[nodiscard]] SourcePos pos(TokenIndex t) const noexcept {
    return t < pos_.size() ? pos_[t] : SourcePos{};
  }
  /// Spelling of identifier token `t`.
  [[nodiscard]] std::string_view name(TokenIndex t) const { return names_[t]; }
  /// The token that starts at `p` (every AST position does); kNoToken
  /// for an invalid position.
  [[nodiscard]] TokenIndex token_at(SourcePos p) const;
  /// Per SymId, the token where the name first appears (empty for a
  /// binding lexed from text).
  [[nodiscard]] const std::vector<TokenIndex>& first() const noexcept {
    return first_;
  }

 private:
  void add(Tok kind, SourcePos p, std::string_view text);

  std::vector<SourcePos> pos_;
  std::vector<std::string_view> names_;  ///< empty but for identifiers
  std::vector<TokenIndex> first_;
  std::vector<TokenIndex> line_first_;  ///< first token at or after each line
};

/// A routine's shape key, with what a task needs to read a shared chunk
/// by name: per SymId, the routine's own spelling.
struct Shape {
  /// Compared byte for byte: equal keys mean the routines differ only in
  /// the spelling of renamable identifiers, consistently. Never empty.
  std::string key;
  std::vector<std::string_view> names;  ///< views into the source
};

/// Keys routine after routine into the same storage, so a caller that
/// only looks a key up allocates nothing per routine.
class ShapeKeyer {
 public:
  /// Lexes `source` once and keys it, without keeping the tokens;
  /// throws Error{Parse} on a lexical error. The result lasts until the
  /// next call, and its names view `source`.
  const Shape& operator()(std::string_view source);

 private:
  SymbolTable symbols_;
  std::vector<char> spelled_;  ///< per SymId: keyed by its spelling
  Shape shape_;
};

/// ShapeKeyer's result, copied out: `source` must outlive its names.
Shape shape_of(std::string_view source);

/// Appends `v` to a key as its four bytes.
inline void append_u32(std::string& key, std::uint32_t v) {
  key.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Whether the key spells `name` out instead of numbering it: a builtin,
/// a calculator constant or `when`, whose meaning is its spelling.
bool spelled_in_shape(std::string_view name);

}  // namespace banger::pits
