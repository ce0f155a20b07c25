// Recursive-descent parser for PITS. Precedence (loosest first):
//   or | and | not | = <> < <= > >= | + - | * / mod | unary - | ^ (right)
//   | postfix [index] | primary.
//
// Nesting is capped at kMaxNesting levels (see ast.hpp). Two counters
// enforce it: `depth_` counts the levels open around the token being
// parsed, which bounds the parser's own recursion, and `height_` holds
// the height of the expression the last parse_* call returned, because
// left-associative chains (`a + b + c`, `v[i][j]`) deepen the tree
// without recursing.
#include <algorithm>
#include <string>
#include <utility>

#include "pits/ast.hpp"
#include "pits/shape.hpp"
#include "pits/token.hpp"

namespace banger::pits {

std::string_view to_string(BinOp op) noexcept {
  switch (op) {
    case BinOp::Add: return "+";
    case BinOp::Sub: return "-";
    case BinOp::Mul: return "*";
    case BinOp::Div: return "/";
    case BinOp::Mod: return "mod";
    case BinOp::Pow: return "^";
    case BinOp::Eq: return "=";
    case BinOp::Ne: return "<>";
    case BinOp::Lt: return "<";
    case BinOp::Le: return "<=";
    case BinOp::Gt: return ">";
    case BinOp::Ge: return ">=";
    case BinOp::And: return "and";
    case BinOp::Or: return "or";
  }
  return "?";
}

std::string_view to_string(UnOp op) noexcept {
  return op == UnOp::Neg ? "-" : "not ";
}

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Block parse_program() {
    Block block = parse_stmts();
    expect(Tok::Eof);
    return block;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[i];
  }
  const Token& advance() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  bool check(Tok kind) const { return peek().kind == kind; }
  bool match(Tok kind) {
    if (!check(kind)) return false;
    advance();
    return true;
  }
  const Token& expect(Tok kind) {
    if (!check(kind)) {
      fail(ErrorCode::Parse,
           "expected `" + std::string(to_string(kind)) + "`, got `" +
               std::string(to_string(peek().kind)) + "`",
           peek().pos);
    }
    return advance();
  }
  /// Consumes the identifier at the cursor into a node's name and
  /// symbol fields.
  void take_name(std::string& name, SymId& sym) {
    const std::string_view text = expect(Tok::Ident).text;
    name.assign(text);
    sym = symbols_.intern(text);
  }
  void skip_newlines() {
    while (match(Tok::Newline)) {
    }
  }
  [[noreturn]] void error(const std::string& msg) const {
    fail(ErrorCode::Parse, msg, peek().pos);
  }

  // ---- nesting ----

  [[noreturn]] static void too_deep(SourcePos at) {
    fail(ErrorCode::Parse,
         "routine nests deeper than " + std::to_string(kMaxNesting) +
             " levels",
         at);
  }

  /// One level opened around a sub-parse: a statement body or an
  /// operand. Fails before the parse goes past kMaxNesting.
  class Nest {
   public:
    explicit Nest(Parser& parser) : parser_(parser) {
      if (parser_.depth_ == kMaxNesting) too_deep(parser_.peek().pos);
      ++parser_.depth_;
    }
    ~Nest() { --parser_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

   private:
    Parser& parser_;
  };

  /// Records the height of the expression being returned; fails when
  /// its deepest operand sits past kMaxNesting.
  void set_height(int height, SourcePos at) {
    if (depth_ + height > kMaxNesting) too_deep(at);
    height_ = height;
  }

  Block parse_body() {
    Nest nest(*this);
    return parse_stmts();
  }

  /// Statements until one of the given block-closing keywords (not
  /// consumed). Eof also stops.
  Block parse_stmts() {
    Block block;
    skip_newlines();
    while (!check(Tok::Eof) && !check(Tok::KwEnd) && !check(Tok::KwElse) &&
           !check(Tok::KwElsif)) {
      block.push_back(parse_stmt());
      if (!check(Tok::Eof) && !check(Tok::KwEnd) && !check(Tok::KwElse) &&
          !check(Tok::KwElsif)) {
        expect(Tok::Newline);
      }
      skip_newlines();
    }
    return block;
  }

  StmtPtr parse_stmt() {
    const SourcePos at = peek().pos;
    if (check(Tok::KwIf)) return parse_if();
    if (check(Tok::KwWhile)) return parse_while();
    if (check(Tok::KwRepeat)) return parse_repeat();
    if (check(Tok::KwFor)) return parse_for();
    if (check(Tok::KwFormula)) return parse_formula();
    if (match(Tok::KwReturn)) {
      return make_stmt(at, ReturnStmt{});
    }
    if (check(Tok::Ident)) {
      // Assignment (possibly indexed) or a call statement.
      if (peek(1).kind == Tok::Assign) {
        AssignStmt s;
        take_name(s.target, s.sym);
        advance();  // :=
        s.value = parse_expr();
        return make_stmt(at, std::move(s));
      }
      if (peek(1).kind == Tok::LBracket) {
        // Could be `v[i] := e`; scan for the matching `]` then `:=`.
        std::size_t depth = 0;
        std::size_t j = pos_ + 1;
        for (; j < tokens_.size(); ++j) {
          if (tokens_[j].kind == Tok::LBracket) ++depth;
          else if (tokens_[j].kind == Tok::RBracket && --depth == 0) break;
          else if (tokens_[j].kind == Tok::Newline ||
                   tokens_[j].kind == Tok::Eof)
            break;
        }
        if (j < tokens_.size() && tokens_[j].kind == Tok::RBracket &&
            j + 1 < tokens_.size() && tokens_[j + 1].kind == Tok::Assign) {
          AssignStmt s;
          take_name(s.target, s.sym);
          expect(Tok::LBracket);
          s.index = parse_expr();
          expect(Tok::RBracket);
          expect(Tok::Assign);
          s.value = parse_expr();
          return make_stmt(at, std::move(s));
        }
      }
      if (peek(1).kind == Tok::LParen) {
        ExprStmt s;
        s.expr = parse_expr();
        return make_stmt(at, std::move(s));
      }
      error("expected `:=` after `" + std::string(peek().text) + "`");
    }
    error("expected a statement");
  }

  StmtPtr parse_if() {
    const SourcePos at = peek().pos;
    expect(Tok::KwIf);
    IfStmt s;
    for (;;) {
      IfStmt::Arm arm;
      arm.cond = parse_expr();
      expect(Tok::KwThen);
      arm.body = parse_body();
      s.arms.push_back(std::move(arm));
      if (match(Tok::KwElsif)) continue;
      if (match(Tok::KwElse)) {
        s.else_body = parse_body();
      }
      expect(Tok::KwEnd);
      break;
    }
    return make_stmt(at, std::move(s));
  }

  StmtPtr parse_while() {
    const SourcePos at = peek().pos;
    expect(Tok::KwWhile);
    WhileStmt s;
    s.cond = parse_expr();
    expect(Tok::KwDo);
    s.body = parse_body();
    expect(Tok::KwEnd);
    return make_stmt(at, std::move(s));
  }

  StmtPtr parse_repeat() {
    const SourcePos at = peek().pos;
    expect(Tok::KwRepeat);
    RepeatStmt s;
    s.count = parse_expr();
    expect(Tok::KwTimes);
    s.body = parse_body();
    expect(Tok::KwEnd);
    return make_stmt(at, std::move(s));
  }

  StmtPtr parse_for() {
    const SourcePos at = peek().pos;
    expect(Tok::KwFor);
    ForStmt s;
    take_name(s.var, s.sym);
    expect(Tok::Assign);
    s.from = parse_expr();
    expect(Tok::KwTo);
    s.to = parse_expr();
    if (match(Tok::KwStep)) s.step = parse_expr();
    expect(Tok::KwDo);
    s.body = parse_body();
    expect(Tok::KwEnd);
    return make_stmt(at, std::move(s));
  }

  StmtPtr parse_formula() {
    const SourcePos at = peek().pos;
    expect(Tok::KwFormula);
    FormulaDef def;
    take_name(def.name, def.sym);
    expect(Tok::LParen);
    std::vector<SymId> param_syms;
    if (!check(Tok::RParen)) {
      do {
        take_name(def.params.emplace_back(), param_syms.emplace_back());
      } while (match(Tok::Comma));
    }
    def.param_syms = NodeArray<SymId>(std::move(param_syms));
    expect(Tok::RParen);
    expect(Tok::Assign);
    def.body = parse_expr();
    for (std::size_t i = 0; i < def.params.size(); ++i) {
      for (std::size_t j = i + 1; j < def.params.size(); ++j) {
        if (def.param_syms[i] == def.param_syms[j]) {
          fail(ErrorCode::Parse,
               "duplicate parameter `" + def.params[i] + "`", at);
        }
      }
    }
    return make_stmt(at, std::move(def));
  }

  // ---- expressions ----
  //
  // Every parse_* below leaves the height of the tree it returns in
  // `height_`: one level per operator, call, index, vector literal and
  // pair of parentheses above its deepest operand; a literal or a name
  // is one level.

  ExprPtr parse_expr() { return parse_or(); }

  ExprPtr parse_or() {
    ExprPtr lhs = parse_and();
    while (check(Tok::KwOr)) {
      const SourcePos at = advance().pos;
      const int lhs_height = height_;
      ExprPtr rhs = parse_and();
      lhs = make_binary(at, BinOp::Or, std::move(lhs), lhs_height,
                        std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_and() {
    ExprPtr lhs = parse_not();
    while (check(Tok::KwAnd)) {
      const SourcePos at = advance().pos;
      const int lhs_height = height_;
      ExprPtr rhs = parse_not();
      lhs = make_binary(at, BinOp::And, std::move(lhs), lhs_height,
                        std::move(rhs));
    }
    return lhs;
  }

  ExprPtr parse_not() {
    if (check(Tok::KwNot)) {
      const SourcePos at = advance().pos;
      Unary u;
      u.op = UnOp::Not;
      {
        Nest nest(*this);
        u.operand = parse_not();
      }
      set_height(height_ + 1, at);
      return make_expr(at, std::move(u));
    }
    return parse_cmp();
  }

  ExprPtr parse_cmp() {
    ExprPtr lhs = parse_add();
    for (;;) {
      BinOp op;
      switch (peek().kind) {
        case Tok::Eq: op = BinOp::Eq; break;
        case Tok::Ne: op = BinOp::Ne; break;
        case Tok::Lt: op = BinOp::Lt; break;
        case Tok::Le: op = BinOp::Le; break;
        case Tok::Gt: op = BinOp::Gt; break;
        case Tok::Ge: op = BinOp::Ge; break;
        default: return lhs;
      }
      const SourcePos at = advance().pos;
      const int lhs_height = height_;
      ExprPtr rhs = parse_add();
      lhs = make_binary(at, op, std::move(lhs), lhs_height, std::move(rhs));
    }
  }

  ExprPtr parse_add() {
    ExprPtr lhs = parse_mul();
    for (;;) {
      BinOp op;
      if (check(Tok::Plus)) op = BinOp::Add;
      else if (check(Tok::Minus)) op = BinOp::Sub;
      else return lhs;
      const SourcePos at = advance().pos;
      const int lhs_height = height_;
      ExprPtr rhs = parse_mul();
      lhs = make_binary(at, op, std::move(lhs), lhs_height, std::move(rhs));
    }
  }

  ExprPtr parse_mul() {
    ExprPtr lhs = parse_unary();
    for (;;) {
      BinOp op;
      if (check(Tok::Star)) op = BinOp::Mul;
      else if (check(Tok::Slash)) op = BinOp::Div;
      else if (check(Tok::KwMod)) op = BinOp::Mod;
      else return lhs;
      const SourcePos at = advance().pos;
      const int lhs_height = height_;
      ExprPtr rhs = parse_unary();
      lhs = make_binary(at, op, std::move(lhs), lhs_height, std::move(rhs));
    }
  }

  ExprPtr parse_unary() {
    if (check(Tok::Minus)) {
      const SourcePos at = advance().pos;
      Unary u;
      u.op = UnOp::Neg;
      {
        Nest nest(*this);
        u.operand = parse_unary();
      }
      set_height(height_ + 1, at);
      return make_expr(at, std::move(u));
    }
    return parse_power();
  }

  ExprPtr parse_power() {
    ExprPtr base = parse_postfix();
    if (check(Tok::Caret)) {
      const SourcePos at = advance().pos;
      const int base_height = height_;
      ExprPtr exponent;
      {
        // Right-associative: a^b^c = a^(b^c), one recursion per `^`.
        Nest nest(*this);
        exponent = parse_unary();
      }
      return make_binary(at, BinOp::Pow, std::move(base), base_height,
                         std::move(exponent));
    }
    return base;
  }

  ExprPtr parse_postfix() {
    ExprPtr e = parse_primary();
    while (check(Tok::LBracket)) {
      const SourcePos at = advance().pos;
      const int base_height = height_;
      Index ix;
      ix.base = std::move(e);
      {
        Nest nest(*this);
        ix.index = parse_expr();
        expect(Tok::RBracket);
      }
      set_height(std::max(base_height, height_) + 1, at);
      e = make_expr(at, std::move(ix));
    }
    return e;
  }

  ExprPtr parse_primary() {
    const SourcePos at = peek().pos;
    if (check(Tok::Number)) {
      set_height(1, at);
      return make_expr(at, NumberLit{advance().number});
    }
    if (check(Tok::String)) {
      set_height(1, at);
      return make_expr(at, StringLit{std::string(advance().text)});
    }
    if (check(Tok::Ident)) {
      if (peek(1).kind == Tok::LParen) {
        Call call;
        take_name(call.callee, call.sym);
        advance();  // (
        call.args = NodeArray<ExprPtr>(parse_list(Tok::RParen, at));
        return make_expr(at, std::move(call));
      }
      VarRef ref;
      take_name(ref.name, ref.sym);
      set_height(1, at);
      return make_expr(at, std::move(ref));
    }
    if (match(Tok::LParen)) {
      ExprPtr e;
      {
        Nest nest(*this);
        e = parse_expr();
        expect(Tok::RParen);
      }
      set_height(height_ + 1, at);
      return e;
    }
    if (match(Tok::LBracket)) {
      VectorLit vec;
      vec.elements = parse_list(Tok::RBracket, at);
      return make_expr(at, std::move(vec));
    }
    error("expected an expression");
  }

  /// Comma-separated operands up to and including `close`: the
  /// arguments of a call or the elements of a vector literal at `at`,
  /// whose height this sets.
  std::vector<ExprPtr> parse_list(Tok close, SourcePos at) {
    std::vector<ExprPtr> items;
    int deepest = 0;
    {
      Nest nest(*this);
      if (!check(close)) {
        do {
          items.push_back(parse_expr());
          deepest = std::max(deepest, height_);
        } while (match(Tok::Comma));
      }
      expect(close);
    }
    set_height(deepest + 1, at);
    return items;
  }

  template <typename Node>
  static ExprPtr make_expr(SourcePos at, Node&& node) {
    auto e = std::make_unique<Expr>();
    e->pos = at;
    e->node = std::forward<Node>(node);
    return e;
  }
  /// `lhs op rhs`, with `height_` holding the height of the rhs just
  /// parsed.
  ExprPtr make_binary(SourcePos at, BinOp op, ExprPtr lhs, int lhs_height,
                      ExprPtr rhs) {
    set_height(std::max(lhs_height, height_) + 1, at);
    Binary b;
    b.op = op;
    b.lhs = std::move(lhs);
    b.rhs = std::move(rhs);
    return make_expr(at, std::move(b));
  }
  template <typename Node>
  static StmtPtr make_stmt(SourcePos at, Node&& node) {
    auto s = std::make_unique<Stmt>();
    s->pos = at;
    s->node = std::forward<Node>(node);
    return s;
  }

  /// Levels open around the current token: statement bodies plus
  /// operands being parsed.
  int depth_ = 0;
  /// Height of the expression the last parse_* call returned.
  int height_ = 0;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  SymbolTable symbols_;
};

}  // namespace

Block parse_block(std::vector<Token> tokens) {
  return Parser(std::move(tokens)).parse_program();
}

Block parse_block(std::string_view source) { return parse_block(lex(source)); }

namespace {

struct SymbolNames {
  std::vector<std::string_view> names;

  void note(SymId sym, std::string_view name) {
    if (sym >= names.size()) names.resize(sym + 1);
    names[sym] = name;
  }

  void expr(const Expr& e) {
    std::visit(
        [&](const auto& node) {
          using T = std::decay_t<decltype(node)>;
          if constexpr (std::is_same_v<T, VarRef>) {
            note(node.sym, node.name);
          } else if constexpr (std::is_same_v<T, VectorLit>) {
            for (const auto& el : node.elements) expr(*el);
          } else if constexpr (std::is_same_v<T, Unary>) {
            expr(*node.operand);
          } else if constexpr (std::is_same_v<T, Binary>) {
            expr(*node.lhs);
            expr(*node.rhs);
          } else if constexpr (std::is_same_v<T, Index>) {
            expr(*node.base);
            expr(*node.index);
          } else if constexpr (std::is_same_v<T, Call>) {
            note(node.sym, node.callee);
            for (const auto& a : node.args) expr(*a);
          }
        },
        e.node);
  }

  void block(const Block& b) {
    for (const StmtPtr& s : b) {
      std::visit(
          [&](const auto& node) {
            using T = std::decay_t<decltype(node)>;
            if constexpr (std::is_same_v<T, AssignStmt>) {
              note(node.sym, node.target);
              if (node.index) expr(*node.index);
              expr(*node.value);
            } else if constexpr (std::is_same_v<T, IfStmt>) {
              for (const IfStmt::Arm& arm : node.arms) {
                expr(*arm.cond);
                block(arm.body);
              }
              block(node.else_body);
            } else if constexpr (std::is_same_v<T, WhileStmt>) {
              expr(*node.cond);
              block(node.body);
            } else if constexpr (std::is_same_v<T, RepeatStmt>) {
              expr(*node.count);
              block(node.body);
            } else if constexpr (std::is_same_v<T, ForStmt>) {
              note(node.sym, node.var);
              expr(*node.from);
              expr(*node.to);
              if (node.step) expr(*node.step);
              block(node.body);
            } else if constexpr (std::is_same_v<T, FormulaDef>) {
              note(node.sym, node.name);
              for (std::size_t i = 0; i < node.params.size(); ++i)
                note(node.param_syms[i], node.params[i]);
              expr(*node.body);
            } else if constexpr (std::is_same_v<T, ExprStmt>) {
              expr(*node.expr);
            }
          },
          s->node);
    }
  }
};

}  // namespace

std::vector<std::string_view> symbol_names(const Block& block) {
  SymbolNames walk;
  walk.block(block);
  return std::move(walk.names);
}

}  // namespace banger::pits
