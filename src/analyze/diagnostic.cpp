#include "analyze/diagnostic.hpp"

#include <algorithm>
#include <sstream>

namespace banger::analyze {

std::string_view to_string(Severity severity) noexcept {
  switch (severity) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

const std::vector<DiagnosticRule>& diagnostic_rules() {
  static const std::vector<DiagnosticRule> rules = {
      // Drawing-level interface rules (the original design lint).
      {"BAN001", Severity::Error, "task declares outputs but has no PITS routine"},
      {"BAN002", Severity::Warning, "task has no PITS routine (skeleton node)"},
      {"BAN003", Severity::Error, "PITS routine does not parse"},
      {"BAN004", Severity::Error, "routine reads a variable that is not a declared input"},
      {"BAN005", Severity::Warning, "declared input is never read by the routine"},
      {"BAN006", Severity::Error, "declared output is never assigned by the routine"},
      {"BAN007", Severity::Warning, "work estimate far from routine size"},
      {"BAN008", Severity::Warning, "store is never read or written (dead store)"},
      {"BAN009", Severity::Error, "task input is bound to nothing"},
      {"BAN010", Severity::Warning, "task contributes to no output store"},
      // PITS routine dataflow rules.
      {"BAN101", Severity::Warning, "variable may be read before it is assigned"},
      {"BAN102", Severity::Warning, "assigned value is never used (dead store)"},
      {"BAN103", Severity::Warning, "statement is unreachable after return"},
      {"BAN104", Severity::Error, "division or mod by constant zero"},
      {"BAN105", Severity::Error, "constant vector index out of range"},
      {"BAN106", Severity::Error, "call to unknown function"},
      {"BAN107", Severity::Error, "wrong number of arguments in call"},
      {"BAN108", Severity::Warning, "while loop can never terminate"},
      // Graph determinacy / race rules.
      {"BAN201", Severity::Error, "write-write race: unordered writers to a read store"},
      {"BAN202", Severity::Warning, "read-write conflict: reader unordered with a writer"},
      {"BAN203", Severity::Warning, "output store merge order is schedule-dependent"},
      // Abstract-interpretation rules (interval/shape proofs).
      {"BAN301", Severity::Error, "division or mod by a divisor proven zero"},
      {"BAN302", Severity::Error, "vector index proven out of range or non-integer"},
      {"BAN303", Severity::Warning, "branch condition has a proven constant outcome"},
      {"BAN304", Severity::Warning, "while loop proven non-terminating"},
      {"BAN305", Severity::Error, "elementwise operation on vectors of proven different lengths"},
      {"BAN306", Severity::Warning, "producer/consumer shape mismatch across the task graph"},
  };
  return rules;
}

const DiagnosticRule* find_rule(std::string_view code) {
  for (const DiagnosticRule& rule : diagnostic_rules()) {
    if (rule.code == code) return &rule;
  }
  return nullptr;
}

std::string Diagnostic::to_string() const {
  std::string out(analyze::to_string(severity));
  out += "[" + code + "]: " + subject_kind + " `" + subject + "`: " + message;
  if (pos.valid()) {
    out += " (line " + std::to_string(pos.line) + ", col " +
           std::to_string(pos.column) + ")";
  }
  return out;
}

void sort_and_dedupe(std::vector<Diagnostic>& diagnostics) {
  auto key_less = [](const Diagnostic& a, const Diagnostic& b) {
    if (a.severity != b.severity)
      return static_cast<int>(a.severity) > static_cast<int>(b.severity);
    if (a.subject_kind != b.subject_kind) return a.subject_kind < b.subject_kind;
    if (a.subject != b.subject) return a.subject < b.subject;
    if (a.pos.line != b.pos.line) return a.pos.line < b.pos.line;
    if (a.pos.column != b.pos.column) return a.pos.column < b.pos.column;
    if (a.code != b.code) return a.code < b.code;
    return a.message < b.message;
  };
  auto key_eq = [](const Diagnostic& a, const Diagnostic& b) {
    return a.severity == b.severity && a.subject_kind == b.subject_kind &&
           a.subject == b.subject && a.pos == b.pos && a.code == b.code &&
           a.message == b.message;
  };
  // The layers mostly report in position order already; a sorted input
  // skips the n log n sort.
  if (!std::is_sorted(diagnostics.begin(), diagnostics.end(), key_less))
    std::stable_sort(diagnostics.begin(), diagnostics.end(), key_less);
  diagnostics.erase(
      std::unique(diagnostics.begin(), diagnostics.end(), key_eq),
      diagnostics.end());
}

bool has_severity(const std::vector<Diagnostic>& diagnostics,
                  Severity threshold) {
  return std::any_of(diagnostics.begin(), diagnostics.end(),
                     [threshold](const Diagnostic& d) {
                       return static_cast<int>(d.severity) >=
                              static_cast<int>(threshold);
                     });
}

namespace {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string quoted(std::string_view s) {
  return "\"" + json_escape(s) + "\"";
}

/// SARIF levels: note / warning / error (matches our severities).
std::string_view sarif_level(Severity severity) noexcept {
  return to_string(severity);
}

}  // namespace

std::string emit_text(const std::vector<Diagnostic>& diagnostics,
                      const EmitOptions& options) {
  std::ostringstream out;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  for (const Diagnostic& d : diagnostics) {
    if (d.severity == Severity::Error) ++errors;
    if (d.severity == Severity::Warning) ++warnings;
    if (!options.file.empty()) {
      out << options.file;
      if (d.pos.valid()) out << ':' << d.pos.line << ':' << d.pos.column;
      out << ": ";
    } else if (d.pos.valid()) {
      out << d.pos.line << ':' << d.pos.column << ": ";
    }
    out << to_string(d.severity) << '[' << d.code << "]: " << d.subject_kind
        << " `" << d.subject << "`: " << d.message << "\n";
    if (!d.hint.empty()) out << "  hint: " << d.hint << "\n";
  }
  if (diagnostics.empty()) {
    out << "clean: no issues found\n";
  } else {
    out << errors << " error(s), " << warnings << " warning(s)\n";
  }
  return out.str();
}

std::string emit_json(const std::vector<Diagnostic>& diagnostics,
                      const EmitOptions& options) {
  std::ostringstream out;
  out << "{\n  \"file\": " << quoted(options.file) << ",\n"
      << "  \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\"code\": " << quoted(d.code)
        << ", \"severity\": " << quoted(to_string(d.severity))
        << ", \"subject_kind\": " << quoted(d.subject_kind)
        << ", \"subject\": " << quoted(d.subject)
        << ", \"line\": " << d.pos.line << ", \"column\": " << d.pos.column
        << ", \"message\": " << quoted(d.message);
    if (!d.hint.empty()) out << ", \"hint\": " << quoted(d.hint);
    out << "}";
  }
  out << (diagnostics.empty() ? "]" : "\n  ]") << "\n}\n";
  return out.str();
}

std::string emit_sarif(const std::vector<Diagnostic>& diagnostics,
                       const EmitOptions& options) {
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": "
         "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"banger\",\n"
      << "          \"rules\": [";
  const auto& rules = diagnostic_rules();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    out << "            {\"id\": " << quoted(rules[i].code)
        << ", \"shortDescription\": {\"text\": " << quoted(rules[i].title)
        << "}}";
  }
  out << "\n          ]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const Diagnostic& d = diagnostics[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "        {\"ruleId\": " << quoted(d.code)
        << ", \"level\": " << quoted(sarif_level(d.severity))
        << ", \"message\": {\"text\": "
        << quoted(d.subject_kind + " `" + d.subject + "`: " + d.message)
        << "}";
    if (!options.file.empty()) {
      out << ", \"locations\": [{\"physicalLocation\": "
          << "{\"artifactLocation\": {\"uri\": " << quoted(options.file)
          << "}";
      if (d.pos.valid()) {
        out << ", \"region\": {\"startLine\": " << d.pos.line
            << ", \"startColumn\": " << d.pos.column << "}";
      }
      out << "}}]";
    }
    out << "}";
  }
  out << (diagnostics.empty() ? "]" : "\n      ]") << "\n    }\n  ]\n}\n";
  return out.str();
}

}  // namespace banger::analyze
