// banger/pits/scan.hpp
//
// Internal to src/pits: the lexer's scanning loop, shared by lex(),
// which keeps the tokens, and by shape_of() and Binding, which key or
// bind a routine without materialising them.
#pragma once

#include <algorithm>
#include <charconv>
#include <string>
#include <string_view>

#include "pits/token.hpp"

namespace banger::pits::detail {

inline bool is_digit(char c) { return c >= '0' && c <= '9'; }
inline bool is_word_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
inline bool is_word(char c) { return is_word_start(c) || is_digit(c); }

/// The keyword spelled `w`, or Tok::Ident.
inline Tok keyword(std::string_view w) {
  switch (w.size()) {
    case 2:
      if (w == "if") return Tok::KwIf;
      if (w == "do") return Tok::KwDo;
      if (w == "to") return Tok::KwTo;
      if (w == "or") return Tok::KwOr;
      break;
    case 3:
      if (w == "end") return Tok::KwEnd;
      if (w == "for") return Tok::KwFor;
      if (w == "and") return Tok::KwAnd;
      if (w == "not") return Tok::KwNot;
      if (w == "mod") return Tok::KwMod;
      break;
    case 4:
      if (w == "then") return Tok::KwThen;
      if (w == "else") return Tok::KwElse;
      if (w == "step") return Tok::KwStep;
      break;
    case 5:
      if (w == "elsif") return Tok::KwElsif;
      if (w == "while") return Tok::KwWhile;
      if (w == "times") return Tok::KwTimes;
      break;
    case 6:
      if (w == "repeat") return Tok::KwRepeat;
      if (w == "return") return Tok::KwReturn;
      break;
    case 7:
      if (w == "formula") return Tok::KwFormula;
      break;
    default:
      break;
  }
  return Tok::Ident;
}

/// Scans `src` and calls sink(kind, pos, text, number, escaped) once per
/// token, in order. `text` views the source; for a string literal it is
/// the body between the quotes with its escapes unresolved, and
/// `escaped` says whether it has any. Runs of separators collapse into
/// one Newline, a leading one is dropped, and every stream ends with a
/// Newline and Eof. Throws Error{Parse}, positioned, on illegal
/// characters, malformed numbers and unterminated strings.
template <class Sink>
void scan(std::string_view src, Sink&& sink) {
  const std::size_t n = src.size();
  int line = 1;
  std::size_t line_start = 0;  // columns count bytes from here, from 1
  std::size_t i = 0;
  bool after_newline = true;  // no separator yet: a leading one is dropped
  auto pos = [&] {
    return SourcePos{line, static_cast<int>(i - line_start) + 1};
  };

  // Each pass takes one token (or skips a blank or a comment) and emits
  // it at the bottom, so the sink is called from one place.
  while (i < n) {
    const char c = src[i];
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < n && src[i + 1] == '-') {
      i = std::min(src.find('\n', i), n);  // a comment runs to its line's end
      continue;
    }
    const SourcePos p = pos();
    Tok kind = Tok::Eof;
    std::size_t len = 1;
    std::string_view text;
    double number = 0.0;
    bool escaped = false;
    if (c == '\n' || c == ';') {
      kind = Tok::Newline;
      if (c == '\n') {
        ++line;
        line_start = i + 1;
      }
    } else if (is_word_start(c)) {
      while (i + len < n && is_word(src[i + len])) ++len;
      text = src.substr(i, len);
      kind = keyword(text);
    } else if (is_digit(c) ||
               (c == '.' && i + 1 < n && is_digit(src[i + 1]))) {
      kind = Tok::Number;
      const char* begin = src.data() + i;
      auto [ptr, ec] = std::from_chars(begin, src.data() + n, number);
      if (ec != std::errc{}) {
        fail(ErrorCode::Parse, "malformed number", p);
      }
      len = static_cast<std::size_t>(ptr - begin);
      text = src.substr(i, len);
    } else if (c == '"') {
      std::size_t j = i + 1;
      while (j < n && src[j] != '"' && src[j] != '\n') {
        if (src[j] == '\\' && j + 1 < n) {
          escaped = true;
          j += 2;
        } else {
          ++j;
        }
      }
      if (j >= n || src[j] != '"') {
        fail(ErrorCode::Parse, "unterminated string literal", p);
      }
      kind = Tok::String;
      text = src.substr(i + 1, j - i - 1);
      len = j + 1 - i;
      // An escaped newline is part of the literal, and still a line.
      for (std::size_t k = i + 1; escaped && k < j; ++k) {
        if (src[k] == '\n') {
          ++line;
          line_start = k + 1;
        }
      }
    } else {
      const char second = i + 1 < n ? src[i + 1] : '\0';
      switch (c) {
        case ':':
          if (second != '=') fail(ErrorCode::Parse, "expected `:=`", p);
          kind = Tok::Assign;
          len = 2;
          break;
        case '+': kind = Tok::Plus; break;
        case '-': kind = Tok::Minus; break;
        case '*': kind = Tok::Star; break;
        case '/': kind = Tok::Slash; break;
        case '^': kind = Tok::Caret; break;
        case '=': kind = Tok::Eq; break;
        case '<':
          kind = second == '>' ? Tok::Ne : second == '=' ? Tok::Le : Tok::Lt;
          len = kind == Tok::Lt ? 1 : 2;
          break;
        case '>':
          kind = second == '=' ? Tok::Ge : Tok::Gt;
          len = kind == Tok::Gt ? 1 : 2;
          break;
        case '(': kind = Tok::LParen; break;
        case ')': kind = Tok::RParen; break;
        case '[': kind = Tok::LBracket; break;
        case ']': kind = Tok::RBracket; break;
        case ',': kind = Tok::Comma; break;
        default:
          fail(ErrorCode::Parse,
               std::string("illegal character `") + c + "`", p);
      }
    }
    i += len;
    // Collapse runs of separators.
    if (kind == Tok::Newline) {
      if (after_newline) continue;
      after_newline = true;
    } else {
      after_newline = false;
    }
    sink(kind, p, text, number, escaped);
  }
  if (!after_newline) sink(Tok::Newline, pos(), std::string_view{}, 0.0, false);
  sink(Tok::Eof, pos(), std::string_view{}, 0.0, false);
}

}  // namespace banger::pits::detail
