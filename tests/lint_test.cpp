// Design-level linting: interface mismatches, dead stores, unreachable
// work — the environment's early-defect-removal feedback.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/lint.hpp"
#include "workloads/designs.hpp"
#include "workloads/lu.hpp"

namespace banger {
namespace {

using graph::Design;
using graph::Node;
using graph::NodeKind;

Node task_node(std::string name, std::vector<std::string> in,
               std::vector<std::string> out, std::string pits) {
  Node n;
  n.kind = NodeKind::Task;
  n.name = std::move(name);
  n.inputs = std::move(in);
  n.outputs = std::move(out);
  n.pits = std::move(pits);
  return n;
}

Node store_node(std::string name) {
  Node n;
  n.kind = NodeKind::Storage;
  n.name = std::move(name);
  return n;
}

bool mentions(const std::vector<LintIssue>& issues, const std::string& text) {
  return std::any_of(issues.begin(), issues.end(), [&](const LintIssue& i) {
    return i.to_string().find(text) != std::string::npos;
  });
}

TEST(Lint, CleanDesignsPass) {
  for (const Design& d :
       {workloads::lu3x3_design(), workloads::montecarlo_design(3, 10),
        workloads::signal_pipeline_design(2), workloads::polyeval_design(2)}) {
    EXPECT_TRUE(lint_design(d.flatten()).empty()) << d.name();
  }
}

TEST(Lint, UndeclaredReadIsError) {
  Design d("bad");
  d.root_graph().add_node(
      task_node("t", {}, {"r"}, "r := mystery + 1\n"));
  const auto issues = lint_design(d.flatten());
  EXPECT_TRUE(has_errors(issues));
  EXPECT_TRUE(mentions(issues, "reads `mystery`"));
}

TEST(Lint, UnusedInputIsWarning) {
  Design d("warn");
  auto& g = d.root_graph();
  g.add_node(store_node("a"));
  g.add_node(store_node("b"));
  g.add_node(task_node("t", {"a", "b"}, {"r"}, "r := a\n"));
  g.connect("a", "t", "a");
  g.connect("b", "t", "b");
  const auto issues = lint_design(d.flatten());
  EXPECT_FALSE(has_errors(issues));
  EXPECT_TRUE(mentions(issues, "input `b` is never read"));
}

TEST(Lint, UnassignedOutputIsError) {
  Design d("bad");
  d.root_graph().add_node(task_node("t", {}, {"r"}, "x := 1\n"));
  const auto issues = lint_design(d.flatten());
  EXPECT_TRUE(has_errors(issues));
  EXPECT_TRUE(mentions(issues, "output `r` is never assigned"));
}

TEST(Lint, ParseFailureIsError) {
  Design d("bad");
  d.root_graph().add_node(task_node("t", {}, {"r"}, "r := := 1\n"));
  const auto issues = lint_design(d.flatten());
  EXPECT_TRUE(has_errors(issues));
  EXPECT_TRUE(mentions(issues, "does not parse"));
}

TEST(Lint, SkeletonTaskWarnsOnlyWhenAsked) {
  Design d("sketch");
  d.root_graph().add_node(task_node("todo", {}, {}, ""));
  LintOptions strict;
  strict.require_pits = true;
  EXPECT_TRUE(mentions(lint_design(d.flatten(), strict), "skeleton"));
  LintOptions lax;
  lax.require_pits = false;
  EXPECT_FALSE(mentions(lint_design(d.flatten(), lax), "skeleton"));
}

TEST(Lint, EmptyBodyWithOutputsIsErrorRegardless) {
  Design d("bad");
  d.root_graph().add_node(task_node("hollow", {}, {"r"}, ""));
  LintOptions lax;
  lax.require_pits = false;
  EXPECT_TRUE(has_errors(lint_design(d.flatten(), lax)));
}

TEST(Lint, DeadStoreWarned) {
  Design d("warn");
  auto& g = d.root_graph();
  g.add_node(store_node("orphan"));
  g.add_node(task_node("t", {}, {"r"}, "r := 1\n"));
  const auto issues = lint_design(d.flatten());
  EXPECT_TRUE(mentions(issues, "dead store"));
}

TEST(Lint, UnboundInputIsError) {
  Design d("bad");
  auto& g = d.root_graph();
  // Input `a` has neither a producer edge nor an input store.
  g.add_node(task_node("t", {"a"}, {"r"}, "r := a\n"));
  const auto issues = lint_design(d.flatten());
  EXPECT_TRUE(has_errors(issues));
  EXPECT_TRUE(mentions(issues, "bound to nothing"));
}

TEST(Lint, UnobservableWorkWarned) {
  Design d("warn");
  auto& g = d.root_graph();
  g.add_node(store_node("out"));
  g.add_node(task_node("useful", {}, {"out"}, "out := 1\n"));
  g.add_node(task_node("wasted", {}, {}, "x := 1\n"));
  g.connect("useful", "out", "out");
  const auto issues = lint_design(d.flatten());
  EXPECT_TRUE(mentions(issues, "`wasted`"));
  EXPECT_FALSE(mentions(issues, "`useful`:"));
}

TEST(Lint, ErrorsSortBeforeWarnings) {
  Design d("mixed");
  auto& g = d.root_graph();
  g.add_node(store_node("dead1"));
  g.add_node(task_node("zz_bad", {}, {"r"}, "r := oops\n"));
  const auto issues = lint_design(d.flatten());
  ASSERT_GE(issues.size(), 2u);
  EXPECT_EQ(issues.front().severity, LintSeverity::Error);
}

TEST(Lint, WorkEstimateHeuristic) {
  Design d("warn");
  auto& g = d.root_graph();
  Node t = task_node("t", {}, {"r"}, "r := 1\n");
  t.work = 5000.0;  // one-line task claiming enormous work
  g.add_node(std::move(t));
  LintOptions opts;
  opts.work_estimate_factor = 100.0;
  EXPECT_TRUE(mentions(lint_design(d.flatten(), opts), "work estimate"));
  opts.work_estimate_factor = 0.0;
  EXPECT_FALSE(mentions(lint_design(d.flatten(), opts), "work estimate"));
}

}  // namespace
}  // namespace banger
