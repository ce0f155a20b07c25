#include "pits/interp.hpp"

#include <algorithm>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/trace.hpp"
#include "pits/builtins.hpp"
#include "pits/bytecode.hpp"
#include "pits/shape.hpp"

namespace banger::pits {

/// Bytecode cache shared by all copies of a Program: compiled at most
/// once (std::call_once), then read concurrently without locking.
struct Program::Compiled {
  std::once_flag once;
  std::shared_ptr<const bc::Chunk> chunk;
};

/// Never moved once built: the binding views `source`.
struct Program::Text {
  std::string source;
  Binding binding;
};

Program::Program()
    : Program(std::make_shared<Block>(), std::make_shared<Text>()) {}

Program::Program(std::shared_ptr<const Block> body,
                 std::shared_ptr<const Text> text)
    : body_(std::move(body)),
      text_(std::move(text)),
      compiled_(std::make_shared<Compiled>()) {}

Program Program::parse(std::string_view source) {
  if (obs::TraceRecorder* rec = obs::current()) rec->bump("pits.parse");
  auto text = std::make_shared<Text>();
  text->source.assign(source);
  std::vector<Token> tokens = lex(text->source);
  text->binding = Binding(tokens);
  auto body = std::make_shared<Block>(parse_block(std::move(tokens)));
  return Program(std::move(body), std::move(text));
}

std::shared_ptr<const bc::Chunk> Program::compiled_chunk(
    const bc::AnalysisFacts* facts) const {
  std::call_once(compiled_->once, [&] {
    auto chunk = std::make_shared<const bc::Chunk>(
        bc::compile(*body_, text_->binding, facts));
    if (obs::TraceRecorder* rec = obs::current()) {
      rec->bump("pits.compile.count");
      rec->bump("pits.compile.slots", static_cast<double>(chunk->vars.size()));
      rec->bump("pits.compile.consts",
                static_cast<double>(chunk->consts.size()));
      rec->bump("pits.compile.folded", static_cast<double>(chunk->folded));
      rec->bump("pits.compile.elided", static_cast<double>(chunk->elided));
      std::size_t instructions = chunk->main.ins.size();
      for (const auto& fo : chunk->formulas) {
        instructions += fo.code.ins.size();
      }
      rec->bump("pits.compile.instructions",
                static_cast<double>(instructions));
    }
    compiled_->chunk = std::move(chunk);
  });
  return compiled_->chunk;
}

void Program::precompile() const { (void)compiled_chunk(); }

void Program::precompile(const bc::AnalysisFacts& facts) const {
  (void)compiled_chunk(&facts);
}

void Program::execute(Env& env, const ExecOptions& options) const {
  bc::run(*compiled_chunk(), text_->binding, env, options);
}

std::vector<std::string> Program::inputs() const {
  std::vector<std::string> out;
  for (const std::string& name : free_variables(*body_)) {
    if (constants().contains(name)) continue;
    out.push_back(name);
  }
  return out;
}

std::vector<std::string> Program::outputs() const {
  return assigned_variables(*body_);
}

Value eval_expression(std::string_view expression, const Env& env,
                      const ExecOptions& options) {
  // Wrap as `__result := EXPR` and execute against a copy. An error's
  // column is moved back past the wrapper, so positions count within
  // EXPR itself.
  constexpr std::string_view kWrapper = "__result := ";
  Env scratch = env;
  std::string source(kWrapper);
  source += expression;
  try {
    Program::parse(source).execute(scratch, options);
  } catch (const Error& e) {
    if (e.pos().line != 1) throw;
    const int column = e.pos().column - static_cast<int>(kWrapper.size());
    fail(e.code(), e.message(), {1, std::max(column, 1)});
  }
  return scratch.at("__result");
}

}  // namespace banger::pits
