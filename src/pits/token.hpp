// banger/pits/token.hpp
//
// Token stream of the PITS language. The surface syntax mirrors what the
// calculator's program window shows (paper Fig. 4): `:=` assignment,
// `if/then/elsif/else/end`, `while/do/end`, `repeat/times/end`,
// `for/to/step`, infix arithmetic, `--` comments.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace banger::pits {

enum class Tok : std::uint8_t {
  // literals / names
  Number,
  String,
  Ident,
  // keywords
  KwIf,
  KwThen,
  KwElsif,
  KwElse,
  KwEnd,
  KwWhile,
  KwDo,
  KwRepeat,
  KwTimes,
  KwFor,
  KwTo,
  KwStep,
  KwReturn,
  KwFormula,
  KwAnd,
  KwOr,
  KwNot,
  KwMod,
  // punctuation / operators
  Assign,     // :=
  Plus,       // +
  Minus,      // -
  Star,       // *
  Slash,      // /
  Caret,      // ^
  Eq,         // =
  Ne,         // <>
  Lt,         // <
  Le,         // <=
  Gt,         // >
  Ge,         // >=
  LParen,     // (
  RParen,     // )
  LBracket,   // [
  RBracket,   // ]
  Comma,      // ,
  Newline,    // statement separator (also ';')
  Eof,
};

std::string_view to_string(Tok tok) noexcept;

struct Token {
  Tok kind = Tok::Eof;
  /// Lexeme: a view into the source for identifiers and numbers; the
  /// body of a string literal, with its escapes resolved.
  std::string_view text;
  double number = 0.0;  ///< value for Tok::Number
  SourcePos pos;
  /// Storage behind `text` for a string literal that has escapes; null
  /// otherwise. Heap-held so `text` stays valid when the token moves.
  std::unique_ptr<const std::string> unescaped;
};

/// Tokenizes PITS source; throws Error{Parse} on illegal characters,
/// malformed numbers, or unterminated strings. Consecutive newlines are
/// collapsed; a trailing Eof token is always present. Tokens view
/// `source`, which must outlive them.
std::vector<Token> lex(std::string_view source);

}  // namespace banger::pits
