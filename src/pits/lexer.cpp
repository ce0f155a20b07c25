#include "pits/scan.hpp"
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

/// A string literal's body with its escapes resolved.
std::string unescape(std::string_view raw) {
  std::string body;
  for (std::size_t k = 0; k < raw.size(); ++k) {
    if (raw[k] == '\\' && k + 1 < raw.size()) {
      const char esc = raw[++k];
      if (esc == 'n') body += '\n';
      else if (esc == 't') body += '\t';
      else body += esc;
    } else {
      body += raw[k];
    }
  }
  return body;
}

}  // namespace

std::vector<Token> lex(std::string_view src) {
  std::vector<Token> out;
  detail::scan(src, [&](Tok kind, SourcePos p, std::string_view text,
                        double number, bool escaped) {
    out.push_back({kind, text, number, p, nullptr});
    if (escaped) {
      auto body = std::make_unique<const std::string>(unescape(text));
      out.back().text = *body;
      out.back().unescaped = std::move(body);
    }
  });
  return out;
}

}  // namespace banger::pits
