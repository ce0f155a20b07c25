// Serve subsystem tests: the JSON wire format, the content-hashed
// artifact cache (single-flight, LRU eviction, hit/miss byte-identity),
// admission control (overload shedding, deadlines with an injected
// clock), response ordering, TCP transport, and — the service's core
// contract — byte-identity between serve responses and the equivalent
// one-shot CLI invocations. A committed request corpus with golden
// responses pins the wire format (BANGER_UPDATE_GOLDEN=1 regenerates).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <sstream>
#include <streambuf>
#include <thread>
#include <vector>

#include "cli/cli.hpp"
#include "exec/plan.hpp"
#include "graph/design.hpp"
#include "graph/serialize.hpp"
#include "serve/cache.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "util/error.hpp"
#include "util/net.hpp"
#include "util/strings.hpp"
#include "workloads/lu.hpp"

namespace banger::serve {
namespace {

const char* kMachineText =
    "machine cube4\n"
    "topology hypercube dim=2\n"
    "speed 1\n"
    "message_startup 0.05\n"
    "bandwidth 512\n";

std::string lu_design_text() {
  return graph::to_pitl(workloads::lu3x3_design());
}

std::string request(Json::Object fields) {
  return Json::object(std::move(fields)).dump();
}

/// Extracts a member from a response line, failing the test on a
/// malformed envelope.
const Json& field(const Json& resp, const std::string& key) {
  const Json* found = resp.find(key);
  EXPECT_NE(found, nullptr) << "response missing `" << key
                            << "`: " << resp.dump();
  static const Json null;
  return found != nullptr ? *found : null;
}

// ---------------------------------------------------------------- JSON

TEST(ServeJson, RoundTripPreservesOrderAndTypes) {
  const std::string text =
      R"({"id":7,"op":"x","flag":true,"none":null,"vals":[1,2.5,"a\nb"]})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.dump(), text);
  EXPECT_EQ(field(doc, "id").as_number(), 7.0);
  EXPECT_TRUE(field(doc, "flag").as_bool());
  EXPECT_TRUE(field(doc, "none").is_null());
  EXPECT_EQ(field(doc, "vals").as_array()[2].as_string(), "a\nb");
}

TEST(ServeJson, ParseErrorCarriesPosition) {
  try {
    Json::parse("{\n  \"a\": }");
    FAIL() << "expected Error{Parse}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Parse);
    EXPECT_EQ(e.pos().line, 2);
  }
}

TEST(ServeJson, RejectsTrailingJunkAndUnterminatedStrings) {
  EXPECT_THROW(Json::parse("{} x"), Error);
  EXPECT_THROW(Json::parse("\"abc"), Error);
  EXPECT_THROW(Json::parse("[1, 2"), Error);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), Error);
}

TEST(ServeJson, NestingDepthIsCapped) {
  const auto arrays = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW(Json::parse(arrays(Json::kMaxDepth)));
  try {
    Json::parse(arrays(Json::kMaxDepth + 1));
    FAIL() << "expected Error{Parse}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Parse);
    // At the bracket that opens the level past the cap.
    EXPECT_EQ(e.pos(), (SourcePos{1, Json::kMaxDepth + 1}));
  }
  std::string objects;
  for (int i = 0; i <= Json::kMaxDepth; ++i) objects += "{\"a\":";
  EXPECT_THROW(Json::parse(objects), Error);
}

TEST(ServeJson, UnicodeEscapes) {
  const Json doc = Json::parse(R"("tab\tandA")");
  EXPECT_EQ(doc.as_string(), "tab\tandA");
}

// ------------------------------------------------------------- hashing

TEST(ServeHash, ContentHashIsStableAcrossRunsAndProcesses) {
  // Pinned FNV-1a 64 values: if these move, every cache key, session
  // hash, and schedule-golden manifest moves with them.
  EXPECT_EQ(util::fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(util::fnv1a64("hello"), 0xa430d84680aabd0bull);
  EXPECT_EQ(util::fnv1a64_hex("hello"), "a430d84680aabd0b");
  // Seeded form feeds chained keys (kind + payload digests).
  EXPECT_EQ(util::fnv1a64("b", util::fnv1a64("a")),
            util::fnv1a64("ab"));
}

// --------------------------------------------------------------- cache

TEST(ServeCache, BuildsOnceThenHits) {
  ArtifactCache cache(8);
  std::atomic<int> builds{0};
  const CacheKey key{"unit", util::fnv1a64("payload")};
  auto build = [&]() -> std::shared_ptr<const int> {
    ++builds;
    return std::make_shared<const int>(41);
  };
  const auto a = cache.get_or_build<int>(key, build);
  const auto b = cache.get_or_build<int>(key, build);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(a.get(), b.get());  // the artifact itself is shared
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ServeCache, EvictsLeastRecentlyUsedAtCapacity) {
  ArtifactCache cache(2);
  auto put = [&](const char* name, int v) {
    return cache.get_or_build<int>(
        {"unit", util::fnv1a64(name)},
        [v]() { return std::make_shared<const int>(v); });
  };
  put("a", 1);
  put("b", 2);
  put("a", 1);  // refresh a; b is now coldest
  put("c", 3);  // evicts b
  const auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  std::atomic<int> rebuilds{0};
  cache.get_or_build<int>({"unit", util::fnv1a64("a")}, [&]() {
    ++rebuilds;
    return std::make_shared<const int>(1);
  });
  cache.get_or_build<int>({"unit", util::fnv1a64("b")}, [&]() {
    ++rebuilds;
    return std::make_shared<const int>(2);
  });
  EXPECT_EQ(rebuilds.load(), 1) << "a should have survived, b not";
}

TEST(ServeCache, SingleFlightUnderConcurrency) {
  ArtifactCache cache(8);
  std::atomic<int> builds{0};
  const CacheKey key{"unit", util::fnv1a64("shared")};
  std::vector<std::thread> threads;
  std::vector<int> results(16, 0);
  for (int i = 0; i < 16; ++i) {
    threads.emplace_back([&, i] {
      const auto v = cache.get_or_build<int>(key, [&]() {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return std::make_shared<const int>(7);
      });
      results[static_cast<std::size_t>(i)] = *v;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1) << "concurrent lookups must share one build";
  for (int v : results) EXPECT_EQ(v, 7);
}

TEST(ServeCache, FailedBuildIsNotCached) {
  ArtifactCache cache(8);
  const CacheKey key{"unit", util::fnv1a64("flaky")};
  EXPECT_THROW(cache.get_or_build<int>(
                   key,
                   []() -> std::shared_ptr<const int> {
                     fail(ErrorCode::Parse, "boom");
                   }),
               Error);
  const auto v = cache.get_or_build<int>(
      key, []() { return std::make_shared<const int>(5); });
  EXPECT_EQ(*v, 5) << "a later request must retry after a failed build";
  EXPECT_EQ(cache.stats().entries, 1u);
}

// ------------------------------------------------------------ sessions

TEST(ServeSession, MissingNameAndWrongKind) {
  SessionStore store;
  store.put("lu", "design", "design text");
  EXPECT_EQ(store.get("lu", "design").text, "design text");
  try {
    (void)store.get("nope", "design");
    FAIL() << "expected Error{Name}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Name);
  }
  try {
    (void)store.get("lu", "machine");
    FAIL() << "expected Error{Type}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Type);
  }
}

// ------------------------------------------------------------ protocol

TEST(ServeProtocol, UnknownFieldIsUsageError) {
  const Json doc = Json::parse(R"({"op":"ping","bogus":1})");
  try {
    parse_request(doc);
    FAIL() << "expected Error{Usage}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Usage);
    EXPECT_NE(e.message().find("bogus"), std::string::npos);
  }
}

TEST(ServeProtocol, InlineAndRefAreMutuallyExclusive) {
  const Json doc =
      Json::parse(R"({"op":"check","design":"x","design_ref":"y"})");
  EXPECT_THROW(parse_request(doc), Error);
}

// -------------------------------------------------------------- server

TEST(ServeServer, PingAndUnknownOp) {
  Server server;
  const Json pong =
      Json::parse(server.handle_line(request({{"id", Json::number(1)},
                                              {"op", Json::string("ping")}})));
  EXPECT_TRUE(field(pong, "ok").as_bool());
  EXPECT_EQ(field(pong, "output").as_string(), "pong");
  EXPECT_EQ(field(pong, "exit").as_number(), 0.0);

  const Json bad = Json::parse(
      server.handle_line(request({{"op", Json::string("frobnicate")}})));
  EXPECT_FALSE(field(bad, "ok").as_bool());
  EXPECT_EQ(field(bad, "exit").as_number(), 2.0);
  EXPECT_EQ(field(field(bad, "error"), "code").as_string(), "usage");
}

TEST(ServeServer, MalformedLineGetsParseEnvelope) {
  Server server;
  const Json resp = Json::parse(server.handle_line("{nope"));
  EXPECT_FALSE(field(resp, "ok").as_bool());
  EXPECT_EQ(field(field(resp, "error"), "code").as_string(), "parse");
  EXPECT_TRUE(field(resp, "id").is_null());
}

TEST(ServeServer, DeeplyNestedLineGetsParseEnvelopeAndStreamGoesOn) {
  // 200k nested arrays once overflowed the parser's stack and took the
  // whole server (every tenant) down.
  Server server;
  std::istringstream in(std::string(200000, '[') + "\n" +
                        request({{"op", Json::string("ping")}}) + "\n");
  std::ostringstream out;
  server.serve_stream(in, out);
  std::istringstream lines(out.str());
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  const Json bad = Json::parse(first);
  EXPECT_FALSE(field(bad, "ok").as_bool());
  EXPECT_EQ(field(field(bad, "error"), "code").as_string(), "parse");
  EXPECT_EQ(field(field(bad, "error"), "column").as_number(),
            Json::kMaxDepth + 1.0);
  EXPECT_EQ(field(Json::parse(second), "output").as_string(), "pong");
}

TEST(ServeServer, CacheHitIsByteIdenticalToMiss) {
  Server server;
  auto line = [&](int id) {
    return request({{"id", Json::number(id)},
                    {"op", Json::string("schedule")},
                    {"design", Json::string(lu_design_text())},
                    {"machine", Json::string(kMachineText)}});
  };
  const Json cold = Json::parse(server.handle_line(line(1)));
  const Json warm = Json::parse(server.handle_line(line(2)));
  EXPECT_EQ(field(cold, "output").as_string(),
            field(warm, "output").as_string());
  const auto stats = server.cache_stats();
  EXPECT_GE(stats.hits, 1u) << "second request must hit the response cache";
}

TEST(ServeServer, UploadedRefMatchesInlineByteForByte) {
  Server server;
  const Json up = Json::parse(server.handle_line(
      request({{"op", Json::string("upload")},
               {"name", Json::string("lu")},
               {"kind", Json::string("design")},
               {"text", Json::string(lu_design_text())}})));
  ASSERT_TRUE(field(up, "ok").as_bool()) << up.dump();
  EXPECT_EQ(field(up, "hash").as_string(),
            util::fnv1a64_hex(lu_design_text()));

  const Json inline_resp = Json::parse(server.handle_line(
      request({{"op", Json::string("check")},
               {"design", Json::string(lu_design_text())},
               {"file", Json::string("lu.pitl")}})));
  const Json ref_resp = Json::parse(server.handle_line(
      request({{"op", Json::string("check")},
               {"design_ref", Json::string("lu")},
               {"file", Json::string("lu.pitl")}})));
  EXPECT_EQ(field(inline_resp, "output").as_string(),
            field(ref_resp, "output").as_string());

  const Json missing = Json::parse(server.handle_line(
      request({{"op", Json::string("check")},
               {"design_ref", Json::string("unknown")}})));
  EXPECT_EQ(field(field(missing, "error"), "code").as_string(), "name");
}

TEST(ServeServer, BadUploadNeverBecomesReferenceable) {
  Server server;
  const Json up = Json::parse(server.handle_line(
      request({{"op", Json::string("upload")},
               {"name", Json::string("broken")},
               {"kind", Json::string("design")},
               {"text", Json::string("this is not a design")}})));
  EXPECT_FALSE(field(up, "ok").as_bool());
  const Json use = Json::parse(server.handle_line(
      request({{"op", Json::string("check")},
               {"design_ref", Json::string("broken")}})));
  EXPECT_EQ(field(field(use, "error"), "code").as_string(), "name");
}

TEST(ServeServer, DeadlineShedsStaleRequests) {
  ServeOptions opts;
  opts.deadline_ms = 50;
  opts.clock = [] { return 10.0; };  // frozen service clock
  Server server(opts);
  const std::string ping = request({{"op", Json::string("ping")}});
  // Arrived just now: runs.
  const Json fresh = Json::parse(server.handle_line(ping, /*arrival=*/10.0));
  EXPECT_TRUE(field(fresh, "ok").as_bool());
  // Arrived 100ms (of service-clock time) ago: shed.
  const Json stale = Json::parse(server.handle_line(ping, /*arrival=*/9.9));
  EXPECT_FALSE(field(stale, "ok").as_bool());
  EXPECT_EQ(field(field(stale, "error"), "code").as_string(), "limit");
  EXPECT_GE(server.recorder().metric("serve.shed"), 1.0);
}

TEST(ServeServer, OverloadShedsWithLimitEnvelope) {
  ServeOptions opts;
  opts.max_inflight = 1;
  opts.jobs = 1;
  Server server(opts);
  ASSERT_TRUE(server.try_acquire_slot());  // soak the only slot
  std::istringstream in(
      request({{"id", Json::number(9)}, {"op", Json::string("ping")}}) +
      "\n");
  std::ostringstream out;
  server.serve_stream(in, out);
  server.release_slot();
  const Json resp = Json::parse(out.str());
  EXPECT_FALSE(field(resp, "ok").as_bool());
  EXPECT_EQ(field(resp, "id").as_number(), 9.0);
  EXPECT_EQ(field(field(resp, "error"), "code").as_string(), "limit");
}

TEST(ServeServer, StatsReportTheProgramCache) {
  Server server;
  const Json trial = Json::parse(server.handle_line(
      request({{"op", Json::string("trial")},
               {"design", Json::string(lu_design_text())},
               {"inputs", Json::object({{"A", Json::string("[4,3,2,8,8,5,4,7,9]")},
                                        {"b", Json::string("[16,39,45]")}})}})));
  ASSERT_TRUE(field(trial, "ok").as_bool()) << trial.dump();
  const Json resp = Json::parse(
      server.handle_line(request({{"op", Json::string("stats")}})));
  const Json& programs = field(field(resp, "stats"), "program_cache");
  for (const char* key : {"hits", "misses", "evictions", "entries", "bytes"}) {
    EXPECT_EQ(field(programs, key).kind(), Json::Kind::Number) << key;
  }
  EXPECT_GE(field(programs, "entries").as_number(), 1.0);
  EXPECT_GT(field(programs, "bytes").as_number(), 0.0);
  EXPECT_EQ(field(programs, "budget").as_number(),
            static_cast<double>(exec::ProgramCache::kDefaultBudget));
}

/// Input of one `bytes`-long line of 'x' and then `rest`, generated as
/// it is read so the test never holds the long line itself.
class LongLineBuf final : public std::streambuf {
 public:
  LongLineBuf(std::size_t bytes, std::string rest)
      : left_(bytes), rest_(std::move(rest)) {}

 protected:
  int_type underflow() override {
    if (left_ > 0) {
      const std::size_t n = std::min(left_, block_.size());
      left_ -= n;
      setg(block_.data(), block_.data(), block_.data() + n);
    } else if (!rest_read_ && !rest_.empty()) {
      rest_read_ = true;
      setg(rest_.data(), rest_.data(), rest_.data() + rest_.size());
    } else {
      return traits_type::eof();
    }
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::string block_ = std::string(std::size_t{1} << 16, 'x');
  std::size_t left_;
  std::string rest_;
  bool rest_read_ = false;
};

TEST(ServeServer, OverlongLineGetsLimitEnvelopeAndStreamGoesOn) {
  constexpr std::size_t kLimit = std::size_t{64} << 20;
  Server server;
  LongLineBuf buf(kLimit + 1,
                  "\n" + request({{"id", Json::number(2)},
                                   {"op", Json::string("ping")}}) +
                      "\n");
  std::istream in(&buf);
  std::ostringstream out;
  EXPECT_EQ(server.serve_stream(in, out), 0);
  std::istringstream lines(out.str());
  std::string first;
  std::string second;
  ASSERT_TRUE(std::getline(lines, first));
  ASSERT_TRUE(std::getline(lines, second));
  const Json bad = Json::parse(first);
  EXPECT_TRUE(field(bad, "id").is_null());
  EXPECT_FALSE(field(bad, "ok").as_bool());
  EXPECT_EQ(field(field(bad, "error"), "code").as_string(), "limit");
  EXPECT_EQ(field(field(bad, "error"), "line").as_number(), 1.0);
  EXPECT_EQ(field(field(bad, "error"), "column").as_number(),
            static_cast<double>(kLimit + 1));
  const Json pong = Json::parse(second);
  EXPECT_EQ(field(pong, "id").as_number(), 2.0);
  EXPECT_EQ(field(pong, "output").as_string(), "pong");
}

TEST(ServeServer, LineAtTheLimitWithoutNewlineIsStillRead) {
  // The last line needs no newline, and a line of exactly the limit is
  // read whole: here it is not JSON, so it gets the parse envelope.
  Server server;
  LongLineBuf buf(std::size_t{64} << 20, "");
  std::istream in(&buf);
  std::ostringstream out;
  server.serve_stream(in, out);
  const Json resp = Json::parse(out.str());
  EXPECT_EQ(field(field(resp, "error"), "code").as_string(), "parse");
}

TEST(ServeServer, DeepFormulaRecursionRunsOnTheVmAndServerAnswersOn) {
  // 255 formula frames, each ~100 expression levels deep: the VM runs
  // it (a tree-walker once overflowed the worker's stack on it). The
  // `engine` field that once chose between the two is gone: a request
  // that still names it gets the unknown-field usage envelope.
  std::string body = "f(n - 1)";
  for (int i = 0; i < 96; ++i) body = "1 + (" + body + ")";
  const std::string design =
      "design deep_formula\n"
      "graph deep_formula\n"
      "  store r bytes=8\n"
      "  task deep work=1 out=r\n"
      "  pits {\n"
      "    formula f(n) := when(n <= 0, 0, " + body + ")\n"
      "    r := f(255)\n"
      "  }\n"
      "  arc deep -> r var=r bytes=8\n";
  Server server;
  std::istringstream in(
      request({{"id", Json::string("vm")},
               {"op", Json::string("trial")},
               {"design", Json::string(design)}}) +
      "\n" +
      request({{"id", Json::string("engine")},
               {"op", Json::string("trial")},
               {"design", Json::string(design)},
               {"engine", Json::string("walk")}}) +
      "\n" + request({{"op", Json::string("ping")}}) + "\n");
  std::ostringstream out;
  server.serve_stream(in, out);
  std::istringstream lines(out.str());
  std::string vm;
  std::string engine;
  std::string ping;
  ASSERT_TRUE(std::getline(lines, vm));
  ASSERT_TRUE(std::getline(lines, engine));
  ASSERT_TRUE(std::getline(lines, ping));
  EXPECT_NE(field(Json::parse(vm), "output").as_string().find("r = 24480"),
            std::string::npos)
      << vm;
  const Json rejected = Json::parse(engine);
  EXPECT_FALSE(field(rejected, "ok").as_bool());
  EXPECT_EQ(field(rejected, "exit").as_number(), 2.0);
  EXPECT_EQ(field(field(rejected, "error"), "code").as_string(), "usage");
  EXPECT_NE(field(field(rejected, "error"), "message")
                .as_string()
                .find("unknown request field `engine`"),
            std::string::npos)
      << engine;
  EXPECT_EQ(field(Json::parse(ping), "output").as_string(), "pong");
}

TEST(ServeServer, ResponseKeysDoNotCollideAcrossFieldBoundaries) {
  // Keys once joined fields with an unescaped U+001F, so one input whose
  // text spells `1<US>b=2` hashed like the two inputs a=1, b=2 and was
  // answered from that request's cache entry.
  const std::string design =
      "design add\n"
      "graph add\n"
      "  store a bytes=8\n"
      "  store b bytes=8\n"
      "  store c bytes=8\n"
      "  task sum work=1 in=a,b out=c\n"
      "  pits {\n"
      "    c := a + b\n"
      "  }\n"
      "  arc a -> sum var=a bytes=8\n"
      "  arc b -> sum var=b bytes=8\n"
      "  arc sum -> c var=c bytes=8\n";
  auto trial = [&](Json::Object inputs) {
    return request({{"op", Json::string("trial")},
                    {"design", Json::string(design)},
                    {"inputs", Json::object(std::move(inputs))}});
  };
  Server server;
  const Json two = Json::parse(server.handle_line(
      trial({{"a", Json::string("1")}, {"b", Json::string("2")}})));
  ASSERT_TRUE(field(two, "ok").as_bool()) << two.dump();
  EXPECT_NE(field(two, "output").as_string().find("c = 3"), std::string::npos)
      << two.dump();
  const std::string spliced = trial({{"a", Json::string("1\x1f" "b=2")}});
  const Json after = Json::parse(server.handle_line(spliced));
  EXPECT_FALSE(field(after, "ok").as_bool()) << after.dump();
  EXPECT_EQ(field(field(after, "error"), "code").as_string(), "parse")
      << after.dump();
  // The same answer a fresh server gives it.
  Server fresh;
  EXPECT_EQ(after.dump(), Json::parse(fresh.handle_line(spliced)).dump());
}

TEST(ServeServer, VmCallRecursionGetsLimitEnvelopeAndServerAnswersOn) {
  // 255 formula frames, each nesting 95 builtin calls: every nested call
  // recursed natively in the VM until one overflowed the worker's stack.
  auto design = [](const std::string& open, const std::string& close) {
    std::string body = "f(n - 1)";
    for (int i = 0; i < 95; ++i) body = open + body + close;
    return "design deep_calls\n"
           "graph deep_calls\n"
           "  store r bytes=8\n"
           "  task deep work=1 out=r\n"
           "  pits {\n"
           "    formula f(n) := when(n <= 0, 0, " + body + ")\n"
           "    r := f(255)\n"
           "  }\n"
           "  arc deep -> r var=r bytes=8\n";
  };
  auto trial = [](const std::string& id, const std::string& text) {
    return request({{"id", Json::string(id)},
                    {"op", Json::string("trial")},
                    {"design", Json::string(text)}});
  };
  Server server;
  std::istringstream in(trial("abs", design("abs(", ")")) + "\n" +
                        trial("sum", design("sum([", "])")) + "\n" +
                        request({{"op", Json::string("ping")}}) + "\n");
  std::ostringstream out;
  server.serve_stream(in, out);
  std::istringstream lines(out.str());
  std::string line;
  for (const char* id : {"abs", "sum"}) {
    ASSERT_TRUE(std::getline(lines, line)) << id;
    const Json resp = Json::parse(line);
    EXPECT_EQ(field(resp, "id").as_string(), id);
    EXPECT_EQ(field(field(resp, "error"), "code").as_string(), "limit")
        << line;
    EXPECT_EQ(field(field(resp, "error"), "line").as_number(), 1.0) << line;
  }
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(field(Json::parse(line), "output").as_string(), "pong");
}

TEST(ServeServer, InputErrorColumnsCountWithinTheInputString) {
  // An input expression is parsed on its own: a position counts from
  // the string's first character, not from a hidden assignment.
  Server server;
  const Json resp = Json::parse(server.handle_line(request(
      {{"op", Json::string("trial")},
       {"design", Json::string(lu_design_text())},
       {"inputs", Json::object({{"A", Json::string("[4,3,2,8,8,5,4,7,9]")},
                                {"b", Json::string("[16,, 45]")}})}})));
  const Json& error = field(resp, "error");
  EXPECT_EQ(field(error, "code").as_string(), "parse") << resp.dump();
  EXPECT_EQ(field(error, "line").as_number(), 1.0);
  EXPECT_EQ(field(error, "column").as_number(), 5.0);
}

TEST(ServeServer, TooDeepHierarchyUploadGetsPositionedLimit) {
  std::string design = "design chain\n";
  for (int i = 0; i < graph::kMaxHierarchyDepth; ++i) {
    design += "graph g" + std::to_string(i) + "\n  super s graph=g" +
              std::to_string(i + 1) + "\n";
  }
  design += "graph g" + std::to_string(graph::kMaxHierarchyDepth) +
            "\n  task t work=1\n";
  Server server;
  const Json up = Json::parse(server.handle_line(
      request({{"op", Json::string("upload")},
               {"name", Json::string("chain")},
               {"kind", Json::string("design")},
               {"text", Json::string(design)}})));
  EXPECT_FALSE(field(up, "ok").as_bool());
  EXPECT_EQ(field(field(up, "error"), "code").as_string(), "limit");
  // The supernode on the last level allowed, which would open one more.
  EXPECT_EQ(field(field(up, "error"), "line").as_number(),
            2.0 * graph::kMaxHierarchyDepth + 1);
}

TEST(ServeServer, StreamAnswersInRequestOrder) {
  ServeOptions opts;
  opts.jobs = 4;
  Server server(opts);
  std::ostringstream requests;
  for (int i = 0; i < 12; ++i) {
    // Alternate cheap pings and real scheduling work so completion
    // order scrambles when the pool races.
    if (i % 2 == 0) {
      requests << request({{"id", Json::number(i)},
                           {"op", Json::string("ping")}})
               << "\n";
    } else {
      requests << request({{"id", Json::number(i)},
                           {"op", Json::string("schedule")},
                           {"design", Json::string(lu_design_text())},
                           {"machine", Json::string(kMachineText)},
                           {"scheduler",
                            Json::string(i % 4 == 1 ? "mh" : "mcp")}})
               << "\n";
    }
  }
  std::istringstream in(requests.str());
  std::ostringstream out;
  server.serve_stream(in, out);
  std::istringstream lines(out.str());
  std::string line;
  int expected = 0;
  while (std::getline(lines, line)) {
    const Json resp = Json::parse(line);
    EXPECT_EQ(field(resp, "id").as_number(), expected) << line;
    ++expected;
  }
  EXPECT_EQ(expected, 12);
}

TEST(ServeServer, TiedInputDoesNotFlushResponsesFromTheReader) {
  // std::cin is tied to std::cout, and a read flushes the tied stream
  // first. The reader thread must not flush buffered output while pool
  // workers write responses into it: that once duplicated responses.
  const std::string requests_path = testing::TempDir() + "/tied_in.jsonl";
  const std::string responses_path = testing::TempDir() + "/tied_out.jsonl";
  constexpr int kRequests = 400;
  {
    std::ofstream requests(requests_path);
    for (int i = 0; i < kRequests; ++i) {
      requests << request({{"id", Json::number(i)},
                           {"op", Json::string("ping")}})
               << "\n";
    }
  }
  std::ifstream in(requests_path);
  std::ofstream out(responses_path);
  in.tie(&out);
  ServeOptions opts;
  opts.jobs = 4;
  Server server(opts);
  server.serve_stream(in, out);
  EXPECT_EQ(in.tie(), &out);  // restored for the caller
  out.close();
  std::ifstream responses(responses_path);
  std::string line;
  int expected = 0;
  while (std::getline(responses, line)) {
    EXPECT_EQ(field(Json::parse(line), "id").as_number(), expected) << line;
    ++expected;
  }
  EXPECT_EQ(expected, kRequests);
}

TEST(ServeServer, ShutdownStopsTheStream) {
  Server server;
  std::istringstream in(
      request({{"op", Json::string("ping")}}) + "\n" +
      request({{"op", Json::string("shutdown")}}) + "\n" +
      request({{"op", Json::string("ping")}}) + "\n");
  std::ostringstream out;
  server.serve_stream(in, out);
  EXPECT_TRUE(server.shutdown_requested());
  std::istringstream lines(out.str());
  std::string line;
  int count = 0;
  while (std::getline(lines, line)) ++count;
  EXPECT_EQ(count, 2) << "requests after shutdown must not be answered";
}

// ------------------------------------------- CLI byte-identity contract

class ServeVsCli : public ::testing::Test {
 protected:
  void SetUp() override {
    design_path_ = testing::TempDir() + "/serve_lu.pitl";
    machine_path_ = testing::TempDir() + "/serve_cube.machine";
    std::ofstream(design_path_) << lu_design_text();
    std::ofstream(machine_path_) << kMachineText;
  }

  std::string cli(std::vector<std::string> args, int* exit_code = nullptr) {
    std::ostringstream out;
    std::ostringstream err;
    const int code = cli::run(args, out, err);
    if (exit_code != nullptr) {
      *exit_code = code;
    } else {
      EXPECT_EQ(code, 0) << err.str();
    }
    return out.str();
  }

  std::string design_path_;
  std::string machine_path_;
};

TEST_F(ServeVsCli, ScheduleMatchesCliByteForByte) {
  Server server;
  for (const char* format : {"gantt", "table", "svg", "trace"}) {
    const std::string expected =
        cli({"schedule", design_path_, machine_path_, "--format", format});
    const Json resp = Json::parse(server.handle_line(
        request({{"op", Json::string("schedule")},
                 {"design", Json::string(lu_design_text())},
                 {"machine", Json::string(kMachineText)},
                 {"format", Json::string(format)}})));
    ASSERT_TRUE(field(resp, "ok").as_bool()) << resp.dump();
    EXPECT_EQ(field(resp, "output").as_string(), expected) << format;
  }
}

TEST_F(ServeVsCli, ScheduleMatchesCliForEveryHeuristic) {
  Server server;
  for (const char* scheduler : {"mh", "mcp", "etf", "cluster", "serial"}) {
    const std::string expected = cli(
        {"schedule", design_path_, machine_path_, "--scheduler", scheduler});
    const Json resp = Json::parse(server.handle_line(
        request({{"op", Json::string("schedule")},
                 {"design", Json::string(lu_design_text())},
                 {"machine", Json::string(kMachineText)},
                 {"scheduler", Json::string(scheduler)}})));
    ASSERT_TRUE(field(resp, "ok").as_bool()) << resp.dump();
    EXPECT_EQ(field(resp, "output").as_string(), expected) << scheduler;
  }
}

TEST_F(ServeVsCli, TrialMatchesCliByteForByte) {
  Server server;
  const std::string expected =
      cli({"trial", design_path_, "--input", "A=[4,3,2,8,8,5,4,7,9]",
           "--input", "b=[16,39,45]"});
  Json inputs = Json::object();
  inputs.add("A", Json::string("[4,3,2,8,8,5,4,7,9]"));
  inputs.add("b", Json::string("[16,39,45]"));
  const Json resp = Json::parse(server.handle_line(
      request({{"op", Json::string("trial")},
               {"design", Json::string(lu_design_text())},
               {"inputs", std::move(inputs)}})));
  ASSERT_TRUE(field(resp, "ok").as_bool()) << resp.dump();
  EXPECT_EQ(field(resp, "output").as_string(), expected);
  EXPECT_NE(field(resp, "output").as_string().find("x = [1, 2, 3]"),
            std::string::npos);
}

TEST_F(ServeVsCli, TrialBatchMatchesCliByteForByte) {
  // Three trials — two solvable, one zero-pivot failure in the middle —
  // through `banger trial --inputs FILE` and the serve `inputs_batch`
  // envelope. Output text AND exit code (1: a trial failed) must match.
  const std::string inputs_path = testing::TempDir() + "/serve_trials.txt";
  std::ofstream(inputs_path)
      << "# batch corpus\n"
      << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
      << "A=[0,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
      << "A=[4,3,2,8,8,5,4,7,9]; b=[32,78,90]\n";
  int cli_exit = -1;
  const std::string expected =
      cli({"trial", design_path_, "--inputs", inputs_path}, &cli_exit);
  EXPECT_EQ(cli_exit, 1);

  // The same three trials as the file, in the same order.
  const auto make_batch = [] {
    const std::pair<const char*, const char*> trials[] = {
        {"[4,3,2,8,8,5,4,7,9]", "[16,39,45]"},
        {"[0,3,2,8,8,5,4,7,9]", "[16,39,45]"},
        {"[4,3,2,8,8,5,4,7,9]", "[32,78,90]"},
    };
    Json batch = Json::array();
    for (const auto& [a, b] : trials) {
      Json inputs = Json::object();
      inputs.add("A", Json::string(a));
      inputs.add("b", Json::string(b));
      batch.push(std::move(inputs));
    }
    return batch;
  };
  Server server;
  const Json resp = Json::parse(server.handle_line(
      request({{"op", Json::string("trial")},
               {"design", Json::string(lu_design_text())},
               {"inputs_batch", make_batch()}})));
  // The request itself succeeded; the nonzero exit mirrors the CLI
  // (same contract as `check` with diagnostics).
  ASSERT_TRUE(field(resp, "ok").as_bool()) << resp.dump();
  EXPECT_EQ(field(resp, "exit").as_number(), 1);
  EXPECT_EQ(field(resp, "output").as_string(), expected);
  EXPECT_NE(field(resp, "output").as_string().find("=== trial 1 of 3 ==="),
            std::string::npos);

  // Replay: a batch is one cache entry, so the hit returns the same
  // bytes (and still the batch exit code).
  const Json again = Json::parse(server.handle_line(
      request({{"op", Json::string("trial")},
               {"design", Json::string(lu_design_text())},
               {"inputs_batch", make_batch()}})));
  EXPECT_EQ(field(again, "output").as_string(), expected);
  EXPECT_EQ(field(again, "exit").as_number(), 1);
}

TEST_F(ServeVsCli, StreamMatchesCliByteForByte) {
  // The serve `stream` op mirrors `banger stream --inputs FILE`: same
  // batches, same stdout bytes (the execution report goes to stderr in
  // the CLI and is omitted from the response for cache determinism).
  const std::string inputs_path = testing::TempDir() + "/serve_stream.txt";
  std::ofstream(inputs_path)
      << "A=[4,3,2,8,8,5,4,7,9]; b=[16,39,45]\n"
      << "A=[4,3,2,8,8,5,4,7,9]; b=[32,78,90]\n";
  const std::string expected =
      cli({"stream", design_path_, machine_path_, "--inputs", inputs_path});

  const auto make_stream = [] {
    const char* rhs[] = {"[16,39,45]", "[32,78,90]"};
    Json stream = Json::array();
    for (const char* b : rhs) {
      Json inputs = Json::object();
      inputs.add("A", Json::string("[4,3,2,8,8,5,4,7,9]"));
      inputs.add("b", Json::string(b));
      stream.push(std::move(inputs));
    }
    return stream;
  };
  Server server;
  const Json resp = Json::parse(server.handle_line(
      request({{"op", Json::string("stream")},
               {"design", Json::string(lu_design_text())},
               {"machine", Json::string(kMachineText)},
               {"inputs_stream", make_stream()}})));
  ASSERT_TRUE(field(resp, "ok").as_bool()) << resp.dump();
  EXPECT_EQ(field(resp, "output").as_string(), expected);
  EXPECT_NE(field(resp, "output").as_string().find("=== batch 1 of 2 ==="),
            std::string::npos);

  // Replay hits the cache and returns the same bytes.
  const Json again = Json::parse(server.handle_line(
      request({{"op", Json::string("stream")},
               {"design", Json::string(lu_design_text())},
               {"machine", Json::string(kMachineText)},
               {"inputs_stream", make_stream()}})));
  EXPECT_EQ(field(again, "output").as_string(), expected);
}

TEST(ServeProtocol, InputsAndBatchAreMutuallyExclusive) {
  Json inputs = Json::object();
  inputs.add("x", Json::string("1"));
  Json batch = Json::array();
  Json trial = Json::object();
  trial.add("x", Json::string("2"));
  batch.push(std::move(trial));
  Json doc = Json::object();
  doc.add("op", Json::string("trial"));
  doc.add("design", Json::string("design d\ntask t\nend\n"));
  doc.add("inputs", std::move(inputs));
  doc.add("inputs_batch", std::move(batch));
  try {
    (void)parse_request(doc);
    FAIL() << "expected usage error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Usage);
    EXPECT_NE(std::string(e.what()).find("inputs_batch"), std::string::npos);
  }
}

TEST(ServeProtocol, BatchEntriesMustBeObjects) {
  Json batch = Json::array();
  batch.push(Json::string("x=1"));
  Json doc = Json::object();
  doc.add("op", Json::string("trial"));
  doc.add("inputs_batch", std::move(batch));
  EXPECT_THROW((void)parse_request(doc), Error);
}

TEST_F(ServeVsCli, CheckMatchesCliIncludingExitCode) {
  Server server;
  for (const char* format : {"text", "json", "sarif"}) {
    int cli_exit = -1;
    const std::string expected =
        cli({"check", design_path_, "--format", format}, &cli_exit);
    const Json resp = Json::parse(server.handle_line(
        request({{"op", Json::string("check")},
                 {"design", Json::string(lu_design_text())},
                 {"format", Json::string(format)},
                 {"file", Json::string(design_path_)}})));
    ASSERT_TRUE(field(resp, "ok").as_bool()) << resp.dump();
    EXPECT_EQ(field(resp, "output").as_string(), expected) << format;
    EXPECT_EQ(field(resp, "exit").as_number(), cli_exit) << format;
  }
}

TEST_F(ServeVsCli, TraceMatchesCliByteForByte) {
  Server server;
  const std::string expected = cli({"trace", design_path_, machine_path_});
  const Json resp = Json::parse(server.handle_line(
      request({{"op", Json::string("trace")},
               {"design", Json::string(lu_design_text())},
               {"machine", Json::string(kMachineText)}})));
  ASSERT_TRUE(field(resp, "ok").as_bool()) << resp.dump();
  EXPECT_EQ(field(resp, "output").as_string(), expected);
  // And a second (cache-hit) trace returns the same bytes again.
  const Json again = Json::parse(server.handle_line(
      request({{"op", Json::string("trace")},
               {"design", Json::string(lu_design_text())},
               {"machine", Json::string(kMachineText)}})));
  EXPECT_EQ(field(again, "output").as_string(), expected);
}

TEST_F(ServeVsCli, SixtyFourConcurrentMixedRequests) {
  // The acceptance bar: one server, >= 64 concurrent mixed requests,
  // every response identical to the equivalent one-shot CLI run.
  const std::string expect_schedule =
      cli({"schedule", design_path_, machine_path_});
  int check_exit = -1;
  const std::string expect_check =
      cli({"check", design_path_, "--format", "json", "--fail-on", "warning"},
          &check_exit);
  const std::string expect_trial =
      cli({"trial", design_path_, "--input", "A=[4,3,2,8,8,5,4,7,9]",
           "--input", "b=[16,39,45]"});

  Server server;
  const int kThreads = 64;
  std::vector<std::string> responses(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      std::string line;
      switch (i % 3) {
        case 0:
          line = request({{"id", Json::number(i)},
                          {"op", Json::string("schedule")},
                          {"design", Json::string(lu_design_text())},
                          {"machine", Json::string(kMachineText)}});
          break;
        case 1:
          line = request({{"id", Json::number(i)},
                          {"op", Json::string("check")},
                          {"design", Json::string(lu_design_text())},
                          {"format", Json::string("json")},
                          {"fail_on", Json::string("warning")},
                          {"file", Json::string(design_path_)}});
          break;
        default: {
          Json inputs = Json::object();
          inputs.add("A", Json::string("[4,3,2,8,8,5,4,7,9]"));
          inputs.add("b", Json::string("[16,39,45]"));
          line = request({{"id", Json::number(i)},
                          {"op", Json::string("trial")},
                          {"design", Json::string(lu_design_text())},
                          {"inputs", std::move(inputs)}});
          break;
        }
      }
      responses[static_cast<std::size_t>(i)] = server.handle_line(line);
    });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kThreads; ++i) {
    const Json resp = Json::parse(responses[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(field(resp, "ok").as_bool()) << resp.dump();
    EXPECT_EQ(field(resp, "id").as_number(), i);
    const std::string& output = field(resp, "output").as_string();
    switch (i % 3) {
      case 0: EXPECT_EQ(output, expect_schedule); break;
      case 1:
        EXPECT_EQ(output, expect_check);
        EXPECT_EQ(field(resp, "exit").as_number(), check_exit);
        break;
      default: EXPECT_EQ(output, expect_trial); break;
    }
  }
  const auto stats = server.cache_stats();
  EXPECT_GE(stats.hits, static_cast<std::uint64_t>(kThreads - 6))
      << "identical concurrent requests must coalesce in the cache";
}

// ----------------------------------------------------------------- TCP

TEST(ServeTcp, RoundTripOverLocalSocket) {
  ServeOptions opts;
  opts.jobs = 2;
  Server server(opts);
  std::ostringstream log;
  std::thread listener([&] { server.serve_tcp(0, log); });
  while (server.bound_port() < 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const int fd = util::tcp_connect("127.0.0.1", server.bound_port());
  {
    util::FdStreamBuf buf(fd);
    std::iostream io(&buf);
    io << request({{"id", Json::number(1)}, {"op", Json::string("ping")}})
       << "\n"
       << request({{"id", Json::number(2)},
                   {"op", Json::string("schedule")},
                   {"design", Json::string(lu_design_text())},
                   {"machine", Json::string(kMachineText)}})
       << "\n";
    io.flush();
    std::string line;
    ASSERT_TRUE(std::getline(io, line));
    const Json pong = Json::parse(line);
    EXPECT_EQ(field(pong, "output").as_string(), "pong");
    ASSERT_TRUE(std::getline(io, line));
    const Json sched = Json::parse(line);
    EXPECT_TRUE(field(sched, "ok").as_bool()) << line;
    EXPECT_NE(field(sched, "output").as_string().find("makespan"),
              std::string::npos);
  }
  util::close_fd(fd);
  server.request_shutdown();
  listener.join();
  EXPECT_NE(log.str().find("listening on 127.0.0.1:"), std::string::npos);
}

// ----------------------------------------------------- golden corpus

/// The committed request corpus; regenerated (requests and responses)
/// with BANGER_UPDATE_GOLDEN=1. CI replays the same corpus through the
/// `banger serve` binary and diffs the same golden responses.
std::vector<std::string> corpus_requests() {
  std::vector<std::string> lines;
  lines.push_back(request({{"id", Json::number(1)},
                           {"op", Json::string("ping")}}));
  lines.push_back(request({{"id", Json::number(2)},
                           {"op", Json::string("upload")},
                           {"name", Json::string("lu")},
                           {"kind", Json::string("design")},
                           {"text", Json::string(lu_design_text())}}));
  lines.push_back(request({{"id", Json::number(3)},
                           {"op", Json::string("upload")},
                           {"name", Json::string("cube4")},
                           {"kind", Json::string("machine")},
                           {"text", Json::string(kMachineText)}}));
  lines.push_back(request({{"id", Json::number(4)},
                           {"op", Json::string("schedule")},
                           {"design_ref", Json::string("lu")},
                           {"machine_ref", Json::string("cube4")}}));
  lines.push_back(request({{"id", Json::number(5)},
                           {"op", Json::string("schedule")},
                           {"design_ref", Json::string("lu")},
                           {"machine_ref", Json::string("cube4")},
                           {"format", Json::string("table")},
                           {"scheduler", Json::string("mcp")}}));
  lines.push_back(request({{"id", Json::number(6)},
                           {"op", Json::string("check")},
                           {"design_ref", Json::string("lu")},
                           {"format", Json::string("json")},
                           {"file", Json::string("lu.pitl")}}));
  Json inputs = Json::object();
  inputs.add("A", Json::string("[4,3,2,8,8,5,4,7,9]"));
  inputs.add("b", Json::string("[16,39,45]"));
  lines.push_back(request({{"id", Json::number(7)},
                           {"op", Json::string("trial")},
                           {"design_ref", Json::string("lu")},
                           {"inputs", std::move(inputs)}}));
  lines.push_back(request({{"id", Json::number(8)},
                           {"op", Json::string("trace")},
                           {"design_ref", Json::string("lu")},
                           {"machine_ref", Json::string("cube4")}}));
  lines.push_back(request({{"id", Json::number(9)},
                           {"op", Json::string("schedule")},
                           {"design_ref", Json::string("nope")},
                           {"machine_ref", Json::string("cube4")}}));
  lines.push_back(request({{"id", Json::number(10)},
                           {"op", Json::string("bogus")}}));
  return lines;
}

bool update_golden() {
  const char* env = std::getenv("BANGER_UPDATE_GOLDEN");
  return env != nullptr && env[0] == '1';
}

TEST(ServeCorpus, GoldenResponses) {
  const std::string dir =
      std::string(BANGER_SOURCE_DIR) + "/tests/golden/serve";
  const std::string req_path = dir + "/corpus_requests.jsonl";
  const std::string resp_path = dir + "/corpus_responses.jsonl";

  if (update_golden()) {
    std::ofstream req(req_path, std::ios::binary);
    for (const auto& line : corpus_requests()) req << line << "\n";
  }

  // Replay the committed requests (not the in-code list) so the corpus
  // on disk is what is actually pinned.
  std::ifstream req(req_path, std::ios::binary);
  ASSERT_TRUE(req.is_open()) << req_path;
  Server server;
  std::ostringstream got;
  server.serve_stream(req, got);

  if (update_golden()) {
    std::ofstream resp(resp_path, std::ios::binary);
    resp << got.str();
    SUCCEED() << "golden corpus rewritten";
    return;
  }

  std::ifstream resp(resp_path, std::ios::binary);
  ASSERT_TRUE(resp.is_open()) << resp_path;
  std::ostringstream want;
  want << resp.rdbuf();
  EXPECT_EQ(got.str(), want.str())
      << "serve responses drifted from the golden corpus; run with "
         "BANGER_UPDATE_GOLDEN=1 and diff before committing";
}

}  // namespace
}  // namespace banger::serve
