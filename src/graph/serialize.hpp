// banger/graph/serialize.hpp
//
// Text serialisation of hierarchical designs — the on-disk form of what
// the Banger editor drew. A `.pitl` file is line-based:
//
//   design lu3x3
//   graph lu3x3                     # first graph is the root drawing
//     store A bytes=72
//     task fan1 work=3 in=A out=l21,l31
//     pits {
//       l21 := a21 / a11
//     }
//     super solve graph=back_sub in=L,U,b out=x
//     arc A -> fan1 var=A
//   graph back_sub
//     ...
//
// `#` starts a comment; indentation is cosmetic. Supernode child graphs
// are referenced by name and may be defined later in the file.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/design.hpp"

namespace banger::graph {

/// Parses a `.pitl` document. Throws Error{Parse} with a line position on
/// malformed input and Error{Graph}/Error{Name} on semantic violations.
Design parse_design(std::string_view text);

/// Reads and parses a `.pitl` file.
Design load_design(const std::string& path);

/// Renders a design back to `.pitl` text. parse_design(to_pitl(d)) is an
/// identity up to node/arc ordering (ordering is preserved as built):
/// numbers read back bit for bit, and every routine line keeps its line
/// number (only blank lines after the last statement are dropped).
std::string to_pitl(const Design& design);

/// Writes to_pitl() output to a file; throws Error{Io} on failure.
void save_design(const Design& design, const std::string& path);

}  // namespace banger::graph
