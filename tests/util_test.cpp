// Unit tests for banger::util — strings, rng, table, error, parallel.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace banger::util {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello \t\n"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, SplitPreservesEmptyFields) {
  auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, SplitSingleFieldWhenNoSeparator) {
  auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, SplitWsDropsEmptyFields) {
  auto parts = split_ws("  a \t b\nc  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("banger", "ban"));
  EXPECT_FALSE(starts_with("ban", "banger"));
  EXPECT_TRUE(ends_with("banger", "ger"));
  EXPECT_FALSE(ends_with("ger", "banger"));
}

TEST(Strings, JoinConcatenatesWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"one"}, ","), "one");
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(is_identifier("abc_123"));
  EXPECT_TRUE(is_identifier("_x"));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a-b"));
  EXPECT_FALSE(is_identifier("a.b"));
}

TEST(Strings, FormatDoubleCompact) {
  EXPECT_EQ(format_double(3.0), "3");
  EXPECT_EQ(format_double(3.5), "3.5");
  EXPECT_EQ(format_double(-0.25), "-0.25");
  EXPECT_EQ(format_double(std::nan("")), "nan");
  EXPECT_EQ(format_double(1.0 / 0.0), "inf");
}

/// The reference format_double must keep matching: printf's `%.*g`.
std::string printf_g(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

/// Seeded oracle inputs: random bit patterns (every exponent, and the
/// subnormals among them), explicit subnormals, signed zeros, integers
/// up to 2^53, powers of ten with their neighbours, and values that
/// round up into the next decade at 12 digits.
std::vector<double> formatter_inputs() {
  std::vector<double> xs = {0.0, -0.0, 9.9999999999995, 99.9999999999995,
                            0.99999999999995, 9.99999999999949,
                            999999999999.5, -9.9999999999995e-5};
  Rng rng(20240917);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t bits = rng.next_u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (std::isfinite(v)) xs.push_back(v);
  }
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t bits = rng.next_u64() & ((1ull << 52) - 1);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);  // exponent 0: subnormal
    xs.push_back(i % 2 == 0 ? v : -v);
  }
  xs.push_back(std::numeric_limits<double>::denorm_min());
  xs.push_back(std::numeric_limits<double>::min());
  xs.push_back(std::numeric_limits<double>::max());
  xs.push_back(std::numeric_limits<double>::lowest());
  for (int i = 0; i < 2000; ++i) {
    xs.push_back(static_cast<double>(rng.next_below(1ull << 53)));
    xs.push_back(-static_cast<double>(rng.next_below(1u << 20)));
  }
  xs.push_back(static_cast<double>(1ull << 53));
  const double inf = std::numeric_limits<double>::infinity();
  for (int e = -320; e <= 308; ++e) {
    const double p = std::pow(10.0, e);
    for (double v : {p, std::nextafter(p, 0.0), std::nextafter(p, inf)}) {
      xs.push_back(v);
      xs.push_back(-v);
    }
  }
  for (int i = 0; i < 2000; ++i) {
    // 1e-7 and 1e15 scales, where %g switches notation.
    xs.push_back(rng.uniform(0.0, 1e-7));
    xs.push_back(rng.uniform(1e14, 1e16));
  }
  return xs;
}

TEST(Strings, FormatDoubleMatchesPrintfG) {
  const std::vector<double> xs = formatter_inputs();
  for (int digits : {1, 4, 6, 12, 15, 17}) {
    int mismatches = 0;
    std::string appended = "<";
    std::string expected = "<";
    for (double v : xs) {
      const std::string want = printf_g(v, digits);
      if (format_double(v, digits) != want && ++mismatches <= 5) {
        ADD_FAILURE() << "digits " << digits << ": " << printf_g(v, 17)
                      << " formats as " << format_double(v, digits)
                      << ", printf gives " << want;
      }
      append_double(appended, v, digits);
      appended += ',';
      expected += want;
      expected += ',';
    }
    EXPECT_EQ(mismatches, 0) << "digits " << digits;
    EXPECT_TRUE(appended == expected) << "append_double, digits " << digits;
  }
}

TEST(Strings, FormatDoubleSpellsNonFiniteValues) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int digits : {1, 6, 12, 17}) {
    EXPECT_EQ(format_double(nan, digits), "nan");
    EXPECT_EQ(format_double(-nan, digits), "nan");  // printf says -nan
    EXPECT_EQ(format_double(std::copysign(nan, -1.0), digits), "nan");
    EXPECT_EQ(format_double(std::numeric_limits<double>::infinity(), digits),
              "inf");
    EXPECT_EQ(format_double(-std::numeric_limits<double>::infinity(), digits),
              "-inf");
  }
  std::string out = "x=";
  append_double(out, -nan, 12);
  out += ' ';
  append_double(out, -std::numeric_limits<double>::infinity(), 12);
  EXPECT_EQ(out, "x=nan -inf");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcd", 2), "abcd");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(7), 7u);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Table, AlignsColumnsAndRightAlignsNumbers) {
  Table t;
  t.set_header({"name", "value"});
  t.add_row({"x", "10"});
  t.add_row({"longer", "3.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  // Numeric column right-aligned: "10" should be padded left.
  EXPECT_NE(s.find("    10"), std::string::npos);
}

TEST(Table, NumericRowHelper) {
  Table t;
  t.add_row_numeric("row", {1.0, 2.5});
  EXPECT_EQ(t.num_rows(), 1u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("2.5"), std::string::npos);
}

TEST(Error, CarriesCodeAndPosition) {
  try {
    fail(ErrorCode::Parse, "bad token", {3, 7});
    FAIL() << "fail() must throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Parse);
    EXPECT_EQ(e.pos().line, 3);
    EXPECT_EQ(e.pos().column, 7);
    EXPECT_NE(std::string(e.what()).find("parse error at 3:7"),
              std::string::npos);
    EXPECT_EQ(e.message(), "bad token");
  }
}

TEST(Error, CodeNames) {
  EXPECT_EQ(to_string(ErrorCode::Graph), "graph");
  EXPECT_EQ(to_string(ErrorCode::Machine), "machine");
  EXPECT_EQ(to_string(ErrorCode::Runtime), "runtime");
}

TEST(Parallel, DefaultJobsIsPositiveAndHonoursEnv) {
  EXPECT_GE(default_jobs(), 1);
  ::setenv("BANGER_JOBS", "3", 1);
  EXPECT_EQ(default_jobs(), 3);
  ::setenv("BANGER_JOBS", "not-a-number", 1);
  EXPECT_GE(default_jobs(), 1);  // ignored, falls back to hw concurrency
  ::unsetenv("BANGER_JOBS");
  EXPECT_EQ(resolve_jobs(4), 4);
  EXPECT_EQ(resolve_jobs(0), default_jobs());
  EXPECT_EQ(resolve_jobs(-7), default_jobs());
}

TEST(Parallel, ThreadPoolRunsEverySubmittedClosure) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  // The pool stays usable after an idle wait.
  pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 101);
}

TEST(Parallel, ParallelForCoversEveryIndexExactlyOnce) {
  for (int jobs : {1, 2, 8}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(hits.size(), jobs,
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs " << jobs;
    }
  }
}

TEST(Parallel, ParallelMapPreservesInputOrder) {
  std::vector<int> items(1000);
  std::iota(items.begin(), items.end(), 0);
  for (int jobs : {1, 3, 16}) {
    const auto squares =
        parallel_map(items, jobs, [](int v) { return v * v; });
    ASSERT_EQ(squares.size(), items.size());
    for (int v : items) {
      EXPECT_EQ(squares[static_cast<std::size_t>(v)], v * v);
    }
  }
}

TEST(Parallel, ParallelMapHandlesEmptyAndSingleItem) {
  const std::vector<int> empty;
  EXPECT_TRUE(parallel_map(empty, 8, [](int v) { return v; }).empty());
  const std::vector<int> one{42};
  EXPECT_EQ(parallel_map(one, 8, [](int v) { return v + 1; }).front(), 43);
}

TEST(Parallel, ExceptionFromLowestIndexWinsDeterministically) {
  // Items 100 and 700 both throw; the lowest index's exception must be
  // the one rethrown, for every worker count.
  for (int jobs : {1, 2, 8}) {
    try {
      parallel_for(1000, jobs, [](std::size_t i) {
        if (i == 100 || i == 700) {
          throw std::runtime_error("item " + std::to_string(i));
        }
      });
      FAIL() << "expected an exception (jobs=" << jobs << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 100") << "jobs=" << jobs;
    }
  }
}

TEST(Parallel, ItemsBelowThrowingIndexAllRun) {
  // Guarantee: an exception at index k never suppresses items < k.
  std::vector<std::atomic<int>> hits(400);
  try {
    parallel_for(hits.size(), 8, [&](std::size_t i) {
      hits[i].fetch_add(1);
      if (i == 399) throw std::runtime_error("tail");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  for (std::size_t i = 0; i < 399; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

}  // namespace
}  // namespace banger::util
