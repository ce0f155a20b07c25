#include <charconv>

#include "pits/token.hpp"

namespace banger::pits {

std::string_view to_string(Tok tok) noexcept {
  switch (tok) {
    case Tok::Number: return "number";
    case Tok::String: return "string";
    case Tok::Ident: return "identifier";
    case Tok::KwIf: return "if";
    case Tok::KwThen: return "then";
    case Tok::KwElsif: return "elsif";
    case Tok::KwElse: return "else";
    case Tok::KwEnd: return "end";
    case Tok::KwWhile: return "while";
    case Tok::KwDo: return "do";
    case Tok::KwRepeat: return "repeat";
    case Tok::KwTimes: return "times";
    case Tok::KwFor: return "for";
    case Tok::KwTo: return "to";
    case Tok::KwStep: return "step";
    case Tok::KwReturn: return "return";
    case Tok::KwFormula: return "formula";
    case Tok::KwAnd: return "and";
    case Tok::KwOr: return "or";
    case Tok::KwNot: return "not";
    case Tok::KwMod: return "mod";
    case Tok::Assign: return ":=";
    case Tok::Plus: return "+";
    case Tok::Minus: return "-";
    case Tok::Star: return "*";
    case Tok::Slash: return "/";
    case Tok::Caret: return "^";
    case Tok::Eq: return "=";
    case Tok::Ne: return "<>";
    case Tok::Lt: return "<";
    case Tok::Le: return "<=";
    case Tok::Gt: return ">";
    case Tok::Ge: return ">=";
    case Tok::LParen: return "(";
    case Tok::RParen: return ")";
    case Tok::LBracket: return "[";
    case Tok::RBracket: return "]";
    case Tok::Comma: return ",";
    case Tok::Newline: return "newline";
    case Tok::Eof: return "end of input";
  }
  return "?";
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }
bool is_word_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool is_word(char c) { return is_word_start(c) || is_digit(c); }

/// The keyword spelled `w`, or Tok::Ident.
Tok keyword(std::string_view w) {
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

}  // namespace

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  int line = 1;
  int col = 1;
  std::size_t i = 0;

  auto pos = [&]() { return SourcePos{line, col}; };
  auto push = [&](Tok kind, SourcePos p, std::string_view text = {},
                  double number = 0.0) {
    // Collapse runs of separators.
    if (kind == Tok::Newline && (out.empty() || out.back().kind == Tok::Newline))
      return;
    out.push_back({kind, text, number, p, nullptr});
  };
  auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };

  while (i < src.size()) {
    const char c = src[i];
    const SourcePos p = pos();

    if (c == '\n' || c == ';') {
      push(Tok::Newline, p);
      advance();
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      advance();
      continue;
    }
    if (c == '-' && i + 1 < src.size() && src[i + 1] == '-') {
      while (i < src.size() && src[i] != '\n') advance();
      continue;
    }
    if (is_digit(c) ||
        (c == '.' && i + 1 < src.size() && is_digit(src[i + 1]))) {
      double value = 0;
      const char* begin = src.data() + i;
      const char* end = src.data() + src.size();
      auto [ptr, ec] = std::from_chars(begin, end, value);
      if (ec != std::errc{}) {
        fail(ErrorCode::Parse, "malformed number", p);
      }
      const auto len = static_cast<std::size_t>(ptr - begin);
      push(Tok::Number, p, src.substr(i, len), value);
      advance(len);
      continue;
    }
    if (is_word_start(c)) {
      std::size_t j = i + 1;
      while (j < src.size() && is_word(src[j])) ++j;
      const std::string_view word = src.substr(i, j - i);
      push(keyword(word), p, word);
      // A word never spans a line.
      col += static_cast<int>(j - i);
      i = j;
      continue;
    }
    if (c == '"') {
      std::size_t j = i + 1;
      bool escaped = false;
      while (j < src.size() && src[j] != '"' && src[j] != '\n') {
        if (src[j] == '\\' && j + 1 < src.size()) {
          escaped = true;
          j += 2;
        } else {
          ++j;
        }
      }
      if (j >= src.size() || src[j] != '"') {
        fail(ErrorCode::Parse, "unterminated string literal", p);
      }
      push(Tok::String, p, src.substr(i + 1, j - i - 1));
      if (escaped) {
        auto body = std::make_unique<std::string>();
        for (std::size_t k = i + 1; k < j; ++k) {
          if (src[k] == '\\' && k + 1 < j) {
            const char esc = src[++k];
            if (esc == 'n') *body += '\n';
            else if (esc == 't') *body += '\t';
            else *body += esc;
          } else {
            *body += src[k];
          }
        }
        out.back().text = *body;
        out.back().unescaped = std::move(body);
      }
      advance(j + 1 - i);
      continue;
    }

    auto two = [&](char second) {
      return i + 1 < src.size() && src[i + 1] == second;
    };
    switch (c) {
      case ':':
        if (two('=')) {
          push(Tok::Assign, p);
          advance(2);
          continue;
        }
        fail(ErrorCode::Parse, "expected `:=`", p);
      case '+': push(Tok::Plus, p); advance(); continue;
      case '-': push(Tok::Minus, p); advance(); continue;
      case '*': push(Tok::Star, p); advance(); continue;
      case '/': push(Tok::Slash, p); advance(); continue;
      case '^': push(Tok::Caret, p); advance(); continue;
      case '=': push(Tok::Eq, p); advance(); continue;
      case '<':
        if (two('>')) { push(Tok::Ne, p); advance(2); continue; }
        if (two('=')) { push(Tok::Le, p); advance(2); continue; }
        push(Tok::Lt, p); advance(); continue;
      case '>':
        if (two('=')) { push(Tok::Ge, p); advance(2); continue; }
        push(Tok::Gt, p); advance(); continue;
      case '(': push(Tok::LParen, p); advance(); continue;
      case ')': push(Tok::RParen, p); advance(); continue;
      case '[': push(Tok::LBracket, p); advance(); continue;
      case ']': push(Tok::RBracket, p); advance(); continue;
      case ',': push(Tok::Comma, p); advance(); continue;
      default:
        fail(ErrorCode::Parse,
             std::string("illegal character `") + c + "`", p);
    }
  }
  push(Tok::Newline, pos());
  out.push_back({Tok::Eof, {}, 0.0, pos(), nullptr});
  return out;
}

}  // namespace banger::pits
