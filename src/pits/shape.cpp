#include "pits/shape.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <unordered_set>

#include "pits/builtins.hpp"
#include "pits/scan.hpp"

namespace banger::pits {

namespace {

/// FNV-1a, folded: identifiers are short, so a byte loop beats a
/// general-purpose string hash.
std::size_t hash_name(std::string_view name) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : name) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h ^ (h >> 32));
}

}  // namespace

SymId SymbolTable::intern(std::string_view name) {
  if ((names_.size() + 1) * 2 > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash_name(name) & mask;; i = (i + 1) & mask) {
    if (slots_[i] == kNoSym) {
      slots_[i] = static_cast<SymId>(names_.size());
      names_.push_back(name);
      return slots_[i];
    }
    if (names_[slots_[i]] == name) return slots_[i];
  }
}

void SymbolTable::clear() {
  names_.clear();
  if (slots_.size() > 1024) {
    slots_.clear();
    slots_.shrink_to_fit();
  } else {
    std::fill(slots_.begin(), slots_.end(), kNoSym);
  }
}

void SymbolTable::grow() {
  slots_.assign(std::max<std::size_t>(32, slots_.size() * 2), kNoSym);
  const std::size_t mask = slots_.size() - 1;
  for (SymId s = 0; s < names_.size(); ++s) {
    std::size_t i = hash_name(names_[s]) & mask;
    while (slots_[i] != kNoSym) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

Binding::Binding(const std::vector<Token>& tokens) {
  pos_.reserve(tokens.size());
  names_.reserve(tokens.size());
  SymbolTable symbols;
  for (const Token& tok : tokens) {
    const auto t = static_cast<TokenIndex>(pos_.size());
    add(tok.kind, tok.pos, tok.text);
    if (tok.kind == Tok::Ident && symbols.intern(tok.text) == first_.size()) {
      first_.push_back(t);
    }
  }
}

Binding::Binding(std::string_view source) {
  detail::scan(source, [&](Tok kind, SourcePos p, std::string_view text,
                           double, bool) { add(kind, p, text); });
}

inline void Binding::add(Tok kind, SourcePos p, std::string_view text) {
  while (line_first_.size() <= static_cast<std::size_t>(p.line)) {
    line_first_.push_back(static_cast<TokenIndex>(pos_.size()));
  }
  pos_.push_back(p);
  names_.push_back(kind == Tok::Ident ? text : std::string_view{});
}

TokenIndex Binding::token_at(SourcePos p) const {
  if (!p.valid()) return kNoToken;
  // Binary search within the line: the compiler asks once per AST node,
  // and one line may hold a whole routine's tokens.
  const auto line_start = [&](std::size_t line) {
    return pos_.begin() + (line < line_first_.size() ? line_first_[line]
                                                     : pos_.size());
  };
  const auto line = static_cast<std::size_t>(p.line);
  const auto end = line_start(line + 1);
  const auto it = std::lower_bound(
      line_start(line), end, p.column,
      [](const SourcePos& q, int column) { return q.column < column; });
  BANGER_ASSERT(it != end && *it == p, "AST position is not a token start");
  return static_cast<TokenIndex>(it - pos_.begin());
}

bool spelled_in_shape(std::string_view name) {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out = BuiltinRegistry::instance().names();
    for (const auto& [constant, value] : constants()) out.push_back(constant);
    out.emplace_back("when");
    return out;
  }();
  static const std::unordered_set<std::string_view> spelled(names.begin(),
                                                            names.end());
  return spelled.contains(name);
}

namespace {

void append_text(std::string& key, std::string_view text) {
  append_u32(key, static_cast<std::uint32_t>(text.size()));
  key.append(text);
}

}  // namespace

const Shape& ShapeKeyer::operator()(std::string_view source) {
  symbols_.clear();
  spelled_.clear();
  std::string& key = shape_.key;
  std::vector<std::string_view>& names = shape_.names;
  key.clear();
  names.clear();
  // Every payload is fixed-size or length-prefixed after the kind byte,
  // so equal keys decode to equal token sequences. A string literal is
  // keyed by its body as written: equal bodies mean equal values.
  detail::scan(source, [&](Tok kind, SourcePos, std::string_view text,
                           double number, bool) {
    key.push_back(static_cast<char>(kind));
    switch (kind) {
      case Tok::Ident: {
        const SymId id = symbols_.intern(text);
        if (id == names.size()) {
          names.push_back(text);
          spelled_.push_back(spelled_in_shape(text) ? 1 : 0);
        }
        if (spelled_[id] != 0) {
          key.push_back(1);
          append_text(key, text);
        } else {
          key.push_back(0);
          append_u32(key, id);
        }
        break;
      }
      case Tok::Number: {
        const auto bits = std::bit_cast<std::uint64_t>(number);
        key.append(reinterpret_cast<const char*>(&bits), sizeof bits);
        break;
      }
      case Tok::String:
        append_text(key, text);
        break;
      default:
        break;
    }
  });
  return shape_;
}

Shape shape_of(std::string_view source) {
  thread_local ShapeKeyer keyer;
  const Shape& shape = keyer(source);
  return {shape.key, shape.names};
}

}  // namespace banger::pits
