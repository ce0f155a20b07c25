#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace banger::util {

namespace {
bool is_space(char c) noexcept {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}
}  // namespace

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  split_ws(s, out);
  return out;
}

void split_ws(std::string_view s, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_space(s[i])) ++i;
    std::size_t start = i;
    while (i < s.size() && !is_space(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) noexcept {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

bool is_identifier(std::string_view s) noexcept {
  if (s.empty()) return false;
  if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_')
    return false;
  return std::all_of(s.begin() + 1, s.end(), [](unsigned char c) {
    return std::isalnum(c) || c == '_';
  });
}

void append_double(std::string& out, double v, int max_digits) {
  if (std::isnan(v)) {
    out += "nan";
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "inf" : "-inf";
    return;
  }
  // The general format with a precision is defined as printf's `%.*g`
  // in the C locale, so the bytes match snprintf's without its format
  // parsing and locale lookup. 17 digits need at most 24 characters.
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general,
                                 std::clamp(max_digits, 1, 17));
  out.append(buf, res.ptr);
}

std::string format_double(double v, int max_digits) {
  std::string out;
  append_double(out, v, max_digits);
  return out;
}

std::string pad_left(std::string_view s, std::size_t width) {
  std::string out;
  if (s.size() < width) out.assign(width - s.size(), ' ');
  out += s;
  return out;
}

std::string pad_right(std::string_view s, std::size_t width) {
  std::string out(s);
  if (out.size() < width) out.append(width - out.size(), ' ');
  return out;
}

std::uint64_t fnv1a64(std::string_view s, std::uint64_t seed) noexcept {
  std::uint64_t h = seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string fnv1a64_hex(std::string_view s) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(s)));
  return buf;
}

bool parse_int64(std::string_view s, std::int64_t& out) noexcept {
  s = trim(s);
  if (s.empty()) return false;
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return false;
  out = value;
  return true;
}

bool parse_double(std::string_view s, double& out) noexcept {
  s = trim(s);
  if (s.empty()) return false;
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) return false;
  if (!std::isfinite(value)) return false;
  out = value;
  return true;
}

}  // namespace banger::util
