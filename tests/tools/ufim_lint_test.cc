// Exercises the ufim_lint rule engine against the pass/fail fixture
// corpus in tests/lint/fixtures (one violating + one conforming snippet
// per rule), plus the machinery the rules stand on: comment/string
// stripping, the waiver syntax, path scoping, and the cross-file
// unordered-container symbol table.
//
// The engine is linked directly (ufim_lint_core) so the assertions see
// structured Diagnostics; CI additionally runs the ufim_lint binary
// over the real tree via the ufim_lint_tree CTest target.
#include "ufim_lint_lib.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace ufim::lint {
namespace {

#ifndef UFIM_LINT_FIXTURE_DIR
#error "UFIM_LINT_FIXTURE_DIR must point at tests/lint/fixtures"
#endif

std::string ReadFixture(const std::string& name) {
  const std::string path = std::string(UFIM_LINT_FIXTURE_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing fixture " << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::vector<Diagnostic> LintOne(const std::string& path,
                                const std::string& content) {
  return Lint({SourceFile{path, content}});
}

/// True when every diagnostic carries `rule` and there is at least one.
bool AllAre(const std::vector<Diagnostic>& diags, const std::string& rule) {
  return !diags.empty() &&
         std::all_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.rule == rule; });
}

struct RuleFixture {
  const char* rule;
  const char* bad;
  const char* good;
  const char* lint_path;  // synthetic repo-relative path for scoping
};

const RuleFixture kRuleFixtures[] = {
    {"catch-run-aborted", "catch_run_aborted.bad.cc",
     "catch_run_aborted.good.cc", "src/core/example.cc"},
    {"no-nondeterminism", "no_nondeterminism.bad.cc",
     "no_nondeterminism.good.cc", "src/core/example.cc"},
    {"unordered-iteration", "unordered_iteration.bad.cc",
     "unordered_iteration.good.cc", "src/core/example.cc"},
    {"missing-poll", "missing_poll.bad.cc", "missing_poll.good.cc",
     "src/algo/example.cc"},
    {"no-iostream", "no_iostream.bad.cc", "no_iostream.good.cc",
     "src/core/example.cc"},
    {"raw-mutex", "raw_mutex.bad.cc", "raw_mutex.good.cc",
     "src/core/example.cc"},
};

TEST(UfimLintFixtures, ViolatingFixtureTripsExactlyItsRule) {
  for (const RuleFixture& f : kRuleFixtures) {
    const std::vector<Diagnostic> diags =
        LintOne(f.lint_path, ReadFixture(f.bad));
    EXPECT_TRUE(AllAre(diags, f.rule))
        << f.bad << ": expected only [" << f.rule << "], got "
        << diags.size() << " diagnostics"
        << (diags.empty() ? "" : ", first: " + FormatDiagnostic(diags[0]));
  }
}

TEST(UfimLintFixtures, ConformingFixtureIsClean) {
  for (const RuleFixture& f : kRuleFixtures) {
    const std::vector<Diagnostic> diags =
        LintOne(f.lint_path, ReadFixture(f.good));
    EXPECT_TRUE(diags.empty())
        << f.good << ": " << (diags.empty() ? "" : FormatDiagnostic(diags[0]));
  }
}

TEST(UfimLintFixtures, RulesAreScopedToLibraryPaths) {
  // The same violating content is fine outside the rule's scope: tests
  // may use unseeded randomness, catch what they like, print freely.
  for (const RuleFixture& f : kRuleFixtures) {
    const std::vector<Diagnostic> diags =
        LintOne("tests/core/example_test.cc", ReadFixture(f.bad));
    EXPECT_TRUE(diags.empty())
        << f.bad << " under tests/: " << FormatDiagnostic(diags[0]);
  }
}

TEST(UfimLint, MissingPollScopedToAlgoOnly) {
  // ParallelFor without a poll is only a violation for mining code in
  // src/algo — the execution layer itself (src/common) hosts the
  // primitives and would self-flag.
  const std::string content = ReadFixture("missing_poll.bad.cc");
  EXPECT_TRUE(LintOne("src/common/thread_pool.cc", content).empty());
  EXPECT_TRUE(AllAre(LintOne("src/algo/example.cc", content), "missing-poll"));
}

TEST(UfimLint, WaiverOnSameLineSuppresses) {
  const std::string content =
      "#include <cstdlib>\n"
      "int f() { return std::rand(); }  // ufim-lint: allow(no-nondeterminism) test-only helper\n";
  EXPECT_TRUE(LintOne("src/core/example.cc", content).empty());
}

TEST(UfimLint, WaiverOnLineAboveSuppresses) {
  const std::string content =
      "#include <cstdlib>\n"
      "// ufim-lint: allow(no-nondeterminism)  justified: fixture\n"
      "int f() { return std::rand(); }\n";
  EXPECT_TRUE(LintOne("src/core/example.cc", content).empty());
}

TEST(UfimLint, WaiverForADifferentRuleDoesNotSuppress) {
  const std::string content =
      "#include <cstdlib>\n"
      "// ufim-lint: allow(no-iostream)\n"
      "int f() { return std::rand(); }\n";
  EXPECT_TRUE(AllAre(LintOne("src/core/example.cc", content),
                     "no-nondeterminism"));
}

TEST(UfimLint, CommentsAndStringsNeverTrip) {
  const std::string content =
      "// discussing rand() and std::mutex in prose is fine\n"
      "/* even time(nullptr) in a block comment */\n"
      "const char* kDoc = \"catch (RunAbortedError&) in a string\";\n"
      "const char* kRaw = R\"(std::random_device in a raw string)\";\n";
  EXPECT_TRUE(LintOne("src/core/example.cc", content).empty());
}

TEST(UfimLint, StrippingPreservesLineStructure) {
  const std::string content =
      "int a; // comment\n"
      "const char* s = \"str\\\"ing\";\n"
      "/* multi\nline */ int b;\n";
  const std::string stripped = StripCommentsAndStrings(content);
  EXPECT_EQ(std::count(content.begin(), content.end(), '\n'),
            std::count(stripped.begin(), stripped.end(), '\n'));
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("int b;"), std::string::npos);
  EXPECT_EQ(stripped.find("comment"), std::string::npos);
  EXPECT_EQ(stripped.find("str"), std::string::npos);
  EXPECT_EQ(stripped.find("multi"), std::string::npos);
}

TEST(UfimLint, UnorderedSymbolTableCrossesFiles) {
  // The member is declared unordered in the header; the iteration sits
  // in the .cc — the project-wide symbol table connects them.
  const SourceFile header{
      "src/core/widget.h",
      "#include <unordered_set>\n"
      "class Widget {\n"
      "  std::unordered_set<int> pool_;\n"
      "};\n"};
  const SourceFile impl{
      "src/core/widget.cc",
      "void Widget::Emit() {\n"
      "  for (int v : pool_) {\n"
      "    Observe(v);\n"
      "  }\n"
      "}\n"};
  const std::vector<Diagnostic> diags = Lint({header, impl});
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule, "unordered-iteration");
  EXPECT_EQ(diags[0].file, "src/core/widget.cc");
  EXPECT_EQ(diags[0].line, 2u);
}

TEST(UfimLint, DiagnosticsAreSortedAndStable) {
  const SourceFile multi{
      "src/core/example.cc",
      "#include <iostream>\n"
      "#include <cstdlib>\n"
      "int f() { return std::rand(); }\n"};
  const std::vector<Diagnostic> a = Lint({multi});
  const std::vector<Diagnostic> b = Lint({multi});
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a[0].rule, "no-iostream");
  EXPECT_EQ(a[0].line, 1u);
  EXPECT_EQ(a[1].rule, "no-nondeterminism");
  EXPECT_EQ(a[1].line, 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(FormatDiagnostic(a[i]), FormatDiagnostic(b[i]));
  }
}

TEST(UfimLint, FormatIsClickable) {
  const Diagnostic d{"src/core/x.cc", 12, "no-iostream", "msg"};
  EXPECT_EQ(FormatDiagnostic(d), "src/core/x.cc:12: [no-iostream] msg");
}

}  // namespace
}  // namespace ufim::lint
