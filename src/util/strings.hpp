// banger/util/strings.hpp
//
// Small string utilities shared by the serializers, the PITS lexer, and
// the text renderers. Everything operates on std::string_view and never
// allocates unless it must return an owning string.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace banger::util {

/// Hash for unordered containers keyed by std::string that also takes
/// a std::string_view, so a lookup by view builds no temporary string
/// (pair it with std::equal_to<>).
struct StringHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Splits on a single character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; no empty fields are produced.
std::vector<std::string_view> split_ws(std::string_view s);

/// split_ws into `out`, which is cleared first: a line-by-line parser
/// reuses one vector's storage for every line.
void split_ws(std::string_view s, std::vector<std::string_view>& out);

/// True if `s` starts with / ends with the given prefix or suffix.
bool starts_with(std::string_view s, std::string_view prefix) noexcept;
bool ends_with(std::string_view s, std::string_view suffix) noexcept;

/// Joins the elements with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

/// True if `s` is a valid identifier: [A-Za-z_][A-Za-z0-9_]*.
bool is_identifier(std::string_view s) noexcept;

/// Formats a double compactly ("3", "3.5", "0.001") with up to
/// `max_digits` significant digits and no trailing zeros: printf's
/// `%.*g` bytes, except that every NaN prints `nan` and infinities
/// print `inf`/`-inf`. `max_digits` is clamped to [1, 17]; 17 digits
/// already round-trip any double.
std::string format_double(double v, int max_digits = 6);

/// format_double appended to `out`, with no temporary string: the
/// renderers' per-element path.
void append_double(std::string& out, double v, int max_digits = 6);

/// Left/right pads `s` with spaces to at least `width` columns.
std::string pad_left(std::string_view s, std::size_t width);
std::string pad_right(std::string_view s, std::size_t width);

/// FNV-1a 64-bit offset basis: the seed every hash starts from. Exposed
/// so derived hashes (e.g. the executor's per-task rand() seeds) can mix
/// extra state into the basis while sharing one implementation.
inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;

/// FNV-1a 64-bit over the bytes of `s`, starting from `seed`. The
/// content-address used by the serve artifact cache and by the schedule
/// golden manifests.
std::uint64_t fnv1a64(std::string_view s,
                      std::uint64_t seed = kFnvOffsetBasis) noexcept;

/// fnv1a64 rendered as 16 lowercase hex digits.
std::string fnv1a64_hex(std::string_view s);

/// Strictly parses a whole string as a decimal integer: optional sign,
/// digits only, no trailing junk, no overflow. Returns false (leaving
/// `out` untouched) on any violation — callers own the diagnostic.
bool parse_int64(std::string_view s, std::int64_t& out) noexcept;

/// Strictly parses a whole string as a finite double (no trailing
/// junk, no inf/nan). Returns false on any violation.
bool parse_double(std::string_view s, double& out) noexcept;

}  // namespace banger::util
