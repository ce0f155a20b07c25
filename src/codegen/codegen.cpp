#include "codegen/codegen.hpp"

#include <charconv>
#include <cmath>
#include <string_view>

#include "graph/serialize.hpp"
#include "machine/serialize.hpp"
#include "sched/serialize.hpp"
#include "util/strings.hpp"

namespace banger::codegen {

namespace {

/// `text` as a C++ string-view literal that holds it byte for byte: raw
/// strings under a delimiter whose closing `)delim"` the text does not
/// contain, with each carriage return and NUL, which a compiler does not
/// keep verbatim inside a raw string, written as an escape between them.
std::string view_literal(std::string_view text, const std::string& name) {
  std::string delim = name;
  for (int i = 0; text.find(')' + delim + '"') != std::string_view::npos;
       ++i) {
    delim = name + std::to_string(i);
  }
  std::string out;
  for (std::size_t at = 0;;) {
    std::size_t cut = at;
    while (cut < text.size() && text[cut] != '\r' && text[cut] != '\0') {
      ++cut;
    }
    out += "R\"" + delim + '(';
    out += text.substr(at, cut - at);
    out += ')' + delim + '"';
    if (cut == text.size()) break;
    out += text[cut] == '\r' ? " \"\\r\" " : " \"\\0\" ";
    at = cut + 1;
  }
  return out + "sv";
}

/// A double literal that reads back as exactly `v`.
std::string double_literal(double v) {
  if (std::isnan(v)) {
    return std::string(std::signbit(v) ? "-" : "") +
           "std::numeric_limits<double>::quiet_NaN()";
  }
  if (std::isinf(v)) {
    return std::string(v < 0 ? "-" : "") +
           "std::numeric_limits<double>::infinity()";
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  std::string out(buf, res.ptr);
  if (out.find_first_of(".e") == std::string::npos) out += ".0";
  return out;
}

std::string value_literal(const pits::Value& v) {
  if (const double* s = v.scalar_if()) {
    return "Value(" + double_literal(*s) + ")";
  }
  if (const pits::Vector* vec = v.vector_if()) {
    std::string out = "Value(Vector{";
    for (std::size_t i = 0; i < vec->size(); ++i) {
      if (i > 0) out += ", ";
      out += double_literal((*vec)[i]);
    }
    return out + "})";
  }
  return "Value(std::string(" + view_literal(v.as_string(), "str") + "))";
}

}  // namespace

std::string generate_cpp(const graph::Design& design,
                         const graph::TaskGraph& graph,
                         const machine::Machine& machine,
                         const sched::Schedule& schedule,
                         const std::map<std::string, pits::Value>& inputs) {
  std::string out =
      "// Written by `banger codegen`: a scheduled design as data. main()\n"
      "// hands the design, machine, schedule and inputs below to banger's\n"
      "// engine, which runs them as `banger run` would and prints what it\n"
      "// prints. Build it as a CMake target linked to banger_cli.\n"
      "#include <iostream>\n"
      "#include <limits>\n"
      "#include <map>\n"
      "#include <string>\n"
      "#include <string_view>\n"
      "\n"
      "#include \"cli/program.hpp\"\n"
      "\n"
      "using namespace std::literals;\n"
      "\n"
      "namespace {\n\n";
  out += "constexpr std::string_view kDesign = " +
         view_literal(graph::to_pitl(design), "pitl") + ";\n\n";
  out += "constexpr std::string_view kMachine = " +
         view_literal(machine::to_text(machine), "machine") + ";\n\n";
  out += "constexpr std::string_view kSchedule = " +
         view_literal(sched::to_text(schedule, graph), "sched") + ";\n\n";
  out +=
      "}  // namespace\n"
      "\n"
      "int main() {\n"
      "  std::ios::sync_with_stdio(false);\n"
      "  using banger::pits::Value;\n"
      "  using banger::pits::Vector;\n"
      "  const std::map<std::string, Value> inputs = {\n";
  for (const auto& [name, value] : inputs) {
    out += "      {";
    out += util::is_identifier(name)
               ? '"' + name + '"'
               : "std::string(" + view_literal(name, "in") + ")";
    out += ", " + value_literal(value) + "},\n";
  }
  out +=
      "  };\n"
      "  return banger::cli::run_program(kDesign, kMachine, kSchedule, inputs,\n"
      "                                  std::cout, std::cerr);\n"
      "}\n";
  return out;
}

}  // namespace banger::codegen
