// Lexer, parser, pretty-printer, and static-analysis tests for PITS.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "pits/ast.hpp"
#include "pits/token.hpp"
#include "util/error.hpp"

namespace banger::pits {
namespace {

TEST(Lexer, NumbersIdentsOperators) {
  auto toks = lex("x := 3.5 + y2 * 2e3");
  ASSERT_GE(toks.size(), 8u);
  EXPECT_EQ(toks[0].kind, Tok::Ident);
  EXPECT_EQ(toks[0].text, "x");
  EXPECT_EQ(toks[1].kind, Tok::Assign);
  EXPECT_EQ(toks[2].kind, Tok::Number);
  EXPECT_DOUBLE_EQ(toks[2].number, 3.5);
  EXPECT_EQ(toks[3].kind, Tok::Plus);
  EXPECT_EQ(toks[4].text, "y2");
  EXPECT_EQ(toks[5].kind, Tok::Star);
  EXPECT_DOUBLE_EQ(toks[6].number, 2000.0);
}

TEST(Lexer, KeywordsRecognized) {
  auto toks = lex("if while do end repeat times for to step and or not mod");
  const Tok expected[] = {Tok::KwIf,    Tok::KwWhile, Tok::KwDo,
                          Tok::KwEnd,   Tok::KwRepeat, Tok::KwTimes,
                          Tok::KwFor,   Tok::KwTo,    Tok::KwStep,
                          Tok::KwAnd,   Tok::KwOr,    Tok::KwNot,
                          Tok::KwMod};
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(toks[i].kind, expected[i]) << i;
  }
}

TEST(Lexer, CommentsStripped) {
  auto toks = lex("x := 1 -- the answer\ny := 2");
  // x := 1 NEWLINE y := 2 NEWLINE EOF
  EXPECT_EQ(toks[3].kind, Tok::Newline);
  EXPECT_EQ(toks[4].text, "y");
}

TEST(Lexer, StringEscapes) {
  auto toks = lex(R"(s := "a\nb\"c")");
  EXPECT_EQ(toks[2].kind, Tok::String);
  EXPECT_EQ(toks[2].text, "a\nb\"c");
}

TEST(Lexer, PositionsTracked) {
  auto toks = lex("x := 1\n  y := 2");
  EXPECT_EQ(toks[0].pos.line, 1);
  EXPECT_EQ(toks[4].pos.line, 2);
  EXPECT_EQ(toks[4].pos.column, 3);
}

TEST(Lexer, ComparisonOperators) {
  auto toks = lex("< <= > >= = <>");
  EXPECT_EQ(toks[0].kind, Tok::Lt);
  EXPECT_EQ(toks[1].kind, Tok::Le);
  EXPECT_EQ(toks[2].kind, Tok::Gt);
  EXPECT_EQ(toks[3].kind, Tok::Ge);
  EXPECT_EQ(toks[4].kind, Tok::Eq);
  EXPECT_EQ(toks[5].kind, Tok::Ne);
}

TEST(Lexer, Errors) {
  EXPECT_THROW((void)lex("x : 1"), Error);       // lone colon
  EXPECT_THROW((void)lex("s := \"open"), Error);  // unterminated string
  EXPECT_THROW((void)lex("x := @"), Error);       // illegal char
}

TEST(Lexer, SemicolonActsAsNewline) {
  auto toks = lex("x := 1; y := 2");
  EXPECT_EQ(toks[3].kind, Tok::Newline);
}

// ---- parser ----

TEST(Parser, SimpleAssignment) {
  auto block = parse_block("x := 1 + 2 * 3");
  ASSERT_EQ(block.size(), 1u);
  const auto& assign = std::get<AssignStmt>(block[0]->node);
  EXPECT_EQ(assign.target, "x");
  // Precedence: 1 + (2*3)
  const auto& add = std::get<Binary>(assign.value->node);
  EXPECT_EQ(add.op, BinOp::Add);
  const auto& mul = std::get<Binary>(add.rhs->node);
  EXPECT_EQ(mul.op, BinOp::Mul);
}

TEST(Parser, PowerIsRightAssociative) {
  auto block = parse_block("x := 2 ^ 3 ^ 2");
  const auto& assign = std::get<AssignStmt>(block[0]->node);
  const auto& outer = std::get<Binary>(assign.value->node);
  EXPECT_EQ(outer.op, BinOp::Pow);
  EXPECT_TRUE(std::holds_alternative<NumberLit>(outer.lhs->node));
  EXPECT_TRUE(std::holds_alternative<Binary>(outer.rhs->node));
}

TEST(Parser, IfElsifElse) {
  auto block = parse_block(
      "if x < 0 then\n y := 1\nelsif x = 0 then\n y := 2\nelse\n y := 3\nend");
  const auto& ifs = std::get<IfStmt>(block[0]->node);
  EXPECT_EQ(ifs.arms.size(), 2u);
  EXPECT_EQ(ifs.else_body.size(), 1u);
}

TEST(Parser, WhileRepeatFor) {
  auto block = parse_block(
      "while x > 0 do\n x := x - 1\nend\n"
      "repeat 3 times\n y := y + 1\nend\n"
      "for i := 1 to 10 step 2 do\n s := s + i\nend");
  ASSERT_EQ(block.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<WhileStmt>(block[0]->node));
  EXPECT_TRUE(std::holds_alternative<RepeatStmt>(block[1]->node));
  const auto& loop = std::get<ForStmt>(block[2]->node);
  EXPECT_EQ(loop.var, "i");
  EXPECT_NE(loop.step, nullptr);
}

TEST(Parser, IndexedAssignment) {
  auto block = parse_block("v[i + 1] := 2");
  const auto& assign = std::get<AssignStmt>(block[0]->node);
  EXPECT_EQ(assign.target, "v");
  ASSERT_NE(assign.index, nullptr);
  EXPECT_TRUE(std::holds_alternative<Binary>(assign.index->node));
}

TEST(Parser, VectorLiteralAndIndexing) {
  auto block = parse_block("x := [1, 2, 3][1]");
  const auto& assign = std::get<AssignStmt>(block[0]->node);
  const auto& ix = std::get<Index>(assign.value->node);
  EXPECT_TRUE(std::holds_alternative<VectorLit>(ix.base->node));
}

TEST(Parser, CallStatement) {
  auto block = parse_block("print(\"hello\", 42)");
  const auto& stmt = std::get<ExprStmt>(block[0]->node);
  const auto& call = std::get<Call>(stmt.expr->node);
  EXPECT_EQ(call.callee, "print");
  EXPECT_EQ(call.args.size(), 2u);
}

TEST(Parser, ReturnStatement) {
  auto block = parse_block("if x then\n return\nend\ny := 1");
  EXPECT_EQ(block.size(), 2u);
}

TEST(Parser, LogicalPrecedence) {
  // a or b and not c < d  ==  a or (b and (not (c < d)))
  auto block = parse_block("x := a or b and not c < d");
  const auto& assign = std::get<AssignStmt>(block[0]->node);
  const auto& orx = std::get<Binary>(assign.value->node);
  EXPECT_EQ(orx.op, BinOp::Or);
  const auto& andx = std::get<Binary>(orx.rhs->node);
  EXPECT_EQ(andx.op, BinOp::And);
  EXPECT_TRUE(std::holds_alternative<Unary>(andx.rhs->node));
}

TEST(Parser, UnaryMinusBindsTighterThanMul) {
  // -2 ^ 2 parses as -(2^2) per the unary->power chain.
  auto block = parse_block("x := -2 ^ 2");
  const auto& assign = std::get<AssignStmt>(block[0]->node);
  EXPECT_TRUE(std::holds_alternative<Unary>(assign.value->node));
}

TEST(Parser, ErrorsWithPositions) {
  try {
    (void)parse_block("x := ");
    FAIL();
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Parse);
    EXPECT_EQ(e.pos().line, 1);
  }
  EXPECT_THROW((void)parse_block("if x then"), Error);   // missing end
  EXPECT_THROW((void)parse_block("x + 1"), Error);       // not a statement
  EXPECT_THROW((void)parse_block("while do end"), Error);
  EXPECT_THROW((void)parse_block("x := (1"), Error);
  EXPECT_THROW((void)parse_block("x := [1, "), Error);
}

/// A routine nesting exactly `levels` deep (pits::kMaxNesting counts
/// levels) through one construct repeated `levels - 1` times around a
/// one-level name.
std::string nested(const std::string& kind, int levels) {
  const int n = levels - 1;
  auto repeat = [n](const std::string& s) {
    std::string out;
    for (int i = 0; i < n; ++i) out += s;
    return out;
  };
  if (kind == "parens") return "y := " + repeat("(") + "x" + repeat(")");
  if (kind == "calls") return "y := " + repeat("abs(") + "x" + repeat(")");
  if (kind == "vectors") return "y := " + repeat("[") + "x" + repeat("]");
  if (kind == "minus") return "y := " + repeat("- ") + "x";
  if (kind == "not") return "y := " + repeat("not ") + "x";
  if (kind == "power") return "y := x" + repeat(" ^ x");
  if (kind == "sum") return "y := x" + repeat(" + x");
  if (kind == "index") return "y := v" + repeat("[0]");
  // Nested `if` bodies, one level each, around `y := x`.
  return repeat("if x then\n") + "y := x\n" + repeat("end\n");
}

TEST(Parser, NestingLimitIsExactForEveryConstruct) {
  for (const char* kind : {"parens", "calls", "vectors", "minus", "not",
                           "power", "sum", "index", "ifs"}) {
    // At the limit: parses, prints, and is destroyed without trouble.
    Block block;
    ASSERT_NO_THROW(block = parse_block(nested(kind, kMaxNesting))) << kind;
    EXPECT_FALSE(to_source(block).empty()) << kind;
    // One level deeper: a positioned parse error, not a crash.
    try {
      (void)parse_block(nested(kind, kMaxNesting + 1));
      ADD_FAILURE() << kind << " past the limit parsed";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Parse) << kind;
      EXPECT_TRUE(e.pos().valid()) << kind;
      EXPECT_NE(e.message().find("nests deeper than"), std::string::npos)
          << kind;
    }
  }
}

TEST(Parser, HostileNestingFailsFast) {
  // Far past the limit the parser stops at the first level too many
  // instead of recursing (or building a tree) 100k levels deep.
  for (const char* kind : {"parens", "sum", "ifs"}) {
    try {
      (void)parse_block(nested(kind, 100000));
      ADD_FAILURE() << kind;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::Parse) << kind;
    }
  }
}

TEST(Printer, RoundTripFixpoint) {
  const char* src =
      "guess := a / 2\n"
      "i := 0\n"
      "while i < 20 do\n"
      "  guess := 0.5 * (guess + (a / guess))\n"
      "  i := i + 1\n"
      "end\n"
      "x := guess\n";
  const std::string once = to_source(parse_block(src));
  const std::string twice = to_source(parse_block(once));
  EXPECT_EQ(once, twice);
  EXPECT_NE(once.find("while i < 20 do"), std::string::npos);
}

TEST(Printer, RendersAllConstructs) {
  const char* src =
      "if a then\nx := 1\nelsif b then\nx := 2\nelse\nx := 3\nend\n"
      "repeat 2 times\nprint(\"hi\")\nend\n"
      "for i := 0 to 5 do\nv[i] := -i\nend\n"
      "return";
  const std::string out = to_source(parse_block(src));
  for (const char* needle :
       {"elsif", "else", "repeat 2 times", "for i := 0 to 5 do", "v[i] :=",
        "return", "print(\"hi\")"}) {
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
  }
  // And the printed form re-parses.
  EXPECT_NO_THROW((void)parse_block(out));
}

TEST(Analysis, FreeAndAssignedVariables) {
  auto block = parse_block(
      "y := x + 1\n"
      "z := y * w\n"
      "v[k] := 0\n");
  const auto free = free_variables(block);
  // x, w read before assignment; v read (element update), k read.
  EXPECT_EQ(free, (std::vector<std::string>{"k", "v", "w", "x"}));
  const auto assigned = assigned_variables(block);
  EXPECT_EQ(assigned, (std::vector<std::string>{"v", "y", "z"}));
}

TEST(Analysis, ForLoopVarIsAssigned) {
  auto block = parse_block("for i := 0 to n do\ns := s + i\nend");
  const auto free = free_variables(block);
  EXPECT_EQ(free, (std::vector<std::string>{"n", "s"}));
}

// ---- symbols ----

/// "name#sym" for every name-bearing node, in source order. Walks only
/// the constructs the tests below use.
std::vector<std::string> symbols_of(const Block& block) {
  std::vector<std::string> out;
  auto tag = [&](const std::string& name, SymId sym) {
    out.push_back(name + "#" + std::to_string(sym));
  };
  struct Walk {
    decltype(tag)& note;
    void expr(const Expr& e) {
      std::visit(
          [&](const auto& n) {
            using T = std::decay_t<decltype(n)>;
            if constexpr (std::is_same_v<T, VarRef>) {
              note(n.name, n.sym);
            } else if constexpr (std::is_same_v<T, Call>) {
              note(n.callee, n.sym);
              for (const auto& a : n.args) expr(*a);
            } else if constexpr (std::is_same_v<T, Binary>) {
              expr(*n.lhs);
              expr(*n.rhs);
            } else if constexpr (std::is_same_v<T, Index>) {
              expr(*n.base);
              expr(*n.index);
            }
          },
          e.node);
    }
    void block(const Block& b) {
      for (const StmtPtr& s : b) {
        std::visit(
            [&](const auto& n) {
              using T = std::decay_t<decltype(n)>;
              if constexpr (std::is_same_v<T, AssignStmt>) {
                note(n.target, n.sym);
                if (n.index) expr(*n.index);
                expr(*n.value);
              } else if constexpr (std::is_same_v<T, ForStmt>) {
                note(n.var, n.sym);
                expr(*n.from);
                expr(*n.to);
                block(n.body);
              } else if constexpr (std::is_same_v<T, FormulaDef>) {
                note(n.name, n.sym);
                for (std::size_t i = 0; i < n.params.size(); ++i)
                  note(n.params[i], n.param_syms[i]);
                expr(*n.body);
              } else if constexpr (std::is_same_v<T, ExprStmt>) {
                expr(*n.expr);
              }
            },
            s->node);
      }
    }
  };
  Walk{tag}.block(block);
  return out;
}

TEST(Symbols, DenseInFirstAppearanceOrderAcrossRoles) {
  // A formula, its parameter, a variable and a callee that share a
  // spelling share one id; ids count up from 0 as names first appear.
  const Block block = parse_block(
      "x := 5\n"
      "formula f(x, y) := x * 2 + y\n"
      "y := f(3, x) + x\n"
      "for i := 0 to y do\n"
      "  z := sqrt(i)\n"
      "end\n"
      "f2 := z[i]\n");
  EXPECT_EQ(symbols_of(block),
            (std::vector<std::string>{"x#0", "f#1", "x#0", "y#2", "x#0",
                                      "y#2", "y#2", "f#1", "x#0", "x#0",
                                      "i#3", "y#2", "z#4", "sqrt#5", "i#3",
                                      "f2#6", "z#4", "i#3"}));
  EXPECT_EQ(symbol_names(block),
            (std::vector<std::string_view>{"x", "f", "y", "i", "z", "sqrt",
                                           "f2"}));
}

TEST(Symbols, CaseAndLengthMatter) {
  // Names that differ only in case are different; names longer than a
  // string's inline buffer intern like short ones.
  const std::string long_a(40, 'a');
  const std::string long_b = long_a + "b";
  const Block block = parse_block("Abc := abc + ABC\n" + long_a + " := " +
                                  long_b + "\n" + long_b + " := " + long_a +
                                  " + Abc\n");
  EXPECT_EQ(symbols_of(block),
            (std::vector<std::string>{"Abc#0", "abc#1", "ABC#2",
                                      long_a + "#3", long_b + "#4",
                                      long_b + "#4", long_a + "#3", "Abc#0"}));
}

TEST(Symbols, EachParseNumbersFromZero) {
  const Block a = parse_block("p := q\n");
  const Block b = parse_block("q := p\n");
  EXPECT_EQ(symbols_of(a), (std::vector<std::string>{"p#0", "q#1"}));
  EXPECT_EQ(symbols_of(b), (std::vector<std::string>{"q#0", "p#1"}));
  EXPECT_TRUE(symbol_names(parse_block("")).empty());
}

TEST(Symbols, ManyDistinctNames) {
  // Enough names to grow the parser's table several times.
  std::string src;
  for (int k = 0; k < 5000; ++k) {
    src += "v" + std::to_string(k) + " := v" + std::to_string(k / 2) + "\n";
  }
  const Block block = parse_block(src);
  const auto names = symbol_names(block);
  ASSERT_EQ(names.size(), 5000u);
  for (int k = 0; k < 5000; ++k) {
    ASSERT_EQ(names[static_cast<std::size_t>(k)], "v" + std::to_string(k));
  }
}

}  // namespace
}  // namespace banger::pits
