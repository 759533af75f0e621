// Unit tests for moloc_check's pure support layer (tools/analyze/
// support/): suppression parsing, the rule registry and its scope
// policy, and finding formatting.  These run in every configuration —
// no libclang required — so the contract shared with tools/lint.sh
// (`// lint:allow(<rule>): <why>`) stays pinned even on machines that
// never build the analyzer itself.
#include <gtest/gtest.h>

#include <string>

#include "support/findings.hpp"
#include "support/rules.hpp"
#include "support/suppressions.hpp"

namespace ma = moloc::analyze;

// ---------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------

TEST(AnalyzeSuppressions, WellFormedAllowIsHonoredOnItsLineOnly) {
  const auto set = ma::scanSuppressions(
      "int a;\n"
      "x.reserve(n);  // lint:allow(untrusted-alloc): bounded by caller\n"
      "int b;\n");
  EXPECT_TRUE(set.allows(2, "untrusted-alloc"));
  EXPECT_FALSE(set.allows(1, "untrusted-alloc"));
  EXPECT_FALSE(set.allows(3, "untrusted-alloc"));
  EXPECT_FALSE(set.allows(2, "typed-errors"));
  EXPECT_TRUE(set.malformed().empty());
}

TEST(AnalyzeSuppressions, MissingReasonIsMalformedNotHonored) {
  const auto set = ma::scanSuppressions(
      "foo();  // lint:allow(rand)\n"
      "bar();  // lint:allow(rand):\n"
      "baz();  // lint:allow(rand):   \n");
  EXPECT_FALSE(set.allows(1, "rand"));
  EXPECT_FALSE(set.allows(2, "rand"));
  EXPECT_FALSE(set.allows(3, "rand"));
  ASSERT_EQ(set.malformed().size(), 3u);
  EXPECT_EQ(set.malformed()[0].line, 1u);
  EXPECT_EQ(set.malformed()[1].line, 2u);
  EXPECT_EQ(set.malformed()[2].line, 3u);
}

TEST(AnalyzeSuppressions, MalformedRuleNameIsReported) {
  const auto set = ma::scanSuppressions("x();  // lint:allow(): oops\n");
  EXPECT_TRUE(set.entries().empty());
  ASSERT_EQ(set.malformed().size(), 1u);
  EXPECT_EQ(set.malformed()[0].line, 1u);
}

TEST(AnalyzeSuppressions, UnknownRuleNameIsMalformedNotHonored) {
  // A typo'd rule id must not silently suppress nothing.
  const auto set =
      ma::scanSuppressions("x();  // lint:allow(untrused-alloc): typo\n");
  EXPECT_FALSE(set.allows(1, "untrusted-alloc"));
  EXPECT_FALSE(set.allows(1, "untrused-alloc"));
  ASSERT_EQ(set.malformed().size(), 1u);
  EXPECT_NE(set.malformed()[0].detail.find("unknown rule"), std::string::npos);
}

TEST(AnalyzeSuppressions, MarkerInsideStringLiteralIsIgnored) {
  // Only text after the first `//` counts; a suppression spelled in a
  // string literal (e.g. lint.sh's own documentation strings) is prose.
  const auto set = ma::scanSuppressions(
      "const char* doc = \"use lint:allow(rand): like this\";\n"
      "const char* s = \"// lint:allow(cout): in a string\";  // real "
      "comment\n");
  EXPECT_FALSE(set.allows(1, "rand"));
  // Line 2: the first `//` occurs inside the literal, so the scanner
  // sees the marker after it — same tradeoff lint.sh makes.  The
  // marker names a rule and reason, so it parses; it simply never
  // matches a finding on that line in practice.
  EXPECT_TRUE(set.malformed().empty());
}

TEST(AnalyzeSuppressions, TwoRulesOnOneLine) {
  const auto set = ma::scanSuppressions(
      "f();  // lint:allow(rand): seeded demo  lint:allow(cout): CLI tool\n");
  EXPECT_TRUE(set.allows(1, "rand"));
  EXPECT_TRUE(set.allows(1, "cout"));
}

TEST(AnalyzeSuppressions, LineNumbersAreOneBasedLikeLibclang) {
  const auto set =
      ma::scanSuppressions("// lint:allow(cout): first line\n");
  EXPECT_TRUE(set.allows(1, "cout"));
}

// ---------------------------------------------------------------------
// Rule registry and scope policy
// ---------------------------------------------------------------------

TEST(AnalyzeRules, RegistryHasTheDocumentedRuleSet) {
  EXPECT_TRUE(ma::isKnownRule("untrusted-alloc"));
  EXPECT_TRUE(ma::isKnownRule("typed-errors"));
  EXPECT_TRUE(ma::isKnownRule("raw-eintr"));
  EXPECT_TRUE(ma::isKnownRule("narrowing-length"));
  EXPECT_TRUE(ma::isKnownRule("fp-determinism"));
  EXPECT_TRUE(ma::isKnownRule("raw-sync"));
  EXPECT_TRUE(ma::isKnownRule("naked-new"));
  EXPECT_TRUE(ma::isKnownRule("rand"));
  EXPECT_TRUE(ma::isKnownRule("cout"));
  EXPECT_TRUE(ma::isKnownRule("bad-suppression"));
  EXPECT_FALSE(ma::isKnownRule("made-up-rule"));
  for (const ma::RuleInfo& rule : ma::allRules()) {
    EXPECT_NE(std::string(rule.summary), "") << rule.id;
    EXPECT_NE(std::string(rule.guards), "") << rule.id;
  }
}

TEST(AnalyzeRules, NothingOutsideSrcIsInScope) {
  EXPECT_FALSE(ma::inScope("naked-new", "tests/test_wal.cpp"));
  EXPECT_FALSE(ma::inScope("cout", "tools/lint.sh"));
  EXPECT_FALSE(ma::inScope("typed-errors", "bench/bench_kernel.cpp"));
}

TEST(AnalyzeRules, UtilIsExemptFromRulesWhoseAlternativeLivesThere) {
  // The typed error hierarchy and the annotated mutex wrappers are
  // defined in src/util/ — the rules cannot apply to their own
  // implementation.
  EXPECT_FALSE(ma::inScope("typed-errors", "src/util/error.hpp"));
  EXPECT_FALSE(ma::inScope("raw-sync", "src/util/mutex.hpp"));
  EXPECT_TRUE(ma::inScope("typed-errors", "src/net/wire.cpp"));
  EXPECT_TRUE(ma::inScope("raw-sync", "src/service/thread_pool.cpp"));
  // ...but util is not exempt from everything.
  EXPECT_TRUE(ma::inScope("naked-new", "src/util/csv.cpp"));
  EXPECT_TRUE(ma::inScope("untrusted-alloc", "src/util/csv.cpp"));
}

TEST(AnalyzeRules, DirectoryScopedRules) {
  EXPECT_TRUE(ma::inScope("raw-eintr", "src/store/wal.cpp"));
  EXPECT_TRUE(ma::inScope("raw-eintr", "src/net/server.cpp"));
  EXPECT_TRUE(ma::inScope("raw-eintr", "src/image/image_loader.cpp"));
  EXPECT_TRUE(ma::inScope("raw-eintr", "src/net/molocd_main.cpp"));
  EXPECT_TRUE(ma::inScope("raw-eintr", "src/image/image_writer.cpp"));
  EXPECT_FALSE(ma::inScope("raw-eintr", "src/core/motion_matcher.cpp"));
  EXPECT_FALSE(ma::inScope("raw-eintr", "src/util/retry_eintr.hpp"));

  EXPECT_TRUE(ma::inScope("narrowing-length", "src/net/wire.cpp"));
  EXPECT_TRUE(ma::inScope("narrowing-length", "src/image/image_writer.cpp"));
  EXPECT_TRUE(ma::inScope("narrowing-length", "src/store/checkpoint.cpp"));
  EXPECT_FALSE(ma::inScope("narrowing-length", "src/eval/ascii_map.cpp"));

  EXPECT_TRUE(ma::inScope("fp-determinism", "src/kernel/fingerprint_kernel.cpp"));
  EXPECT_TRUE(ma::inScope("fp-determinism", "src/index/tiered_index.cpp"));
  EXPECT_TRUE(ma::inScope("fp-determinism", "src/radio/fingerprint.cpp"));
  EXPECT_FALSE(ma::inScope("fp-determinism", "src/net/wire.cpp"));
}

TEST(AnalyzeRules, HygieneRulesCoverAllOfSrc) {
  // moloc_check is the only enforcement of these rules, so their scope
  // is every source file, src/util/ included.
  for (const char* rule : {"naked-new", "rand", "cout"}) {
    EXPECT_TRUE(ma::inScope(rule, "src/core/moloc_engine.cpp")) << rule;
    EXPECT_TRUE(ma::inScope(rule, "src/net/server.hpp")) << rule;
    EXPECT_TRUE(ma::inScope(rule, "src/util/rng.hpp")) << rule;
  }
}

TEST(AnalyzeRules, RepoRelativeNormalizesDotSegments) {
  EXPECT_EQ(ma::repoRelative("/repo/src/a.cpp", "/repo"), "src/a.cpp");
  EXPECT_EQ(ma::repoRelative("/repo/./src/../src/a.cpp", "/repo"),
            "src/a.cpp");
  EXPECT_EQ(ma::repoRelative("/repo/build/../src/net/wire.cpp", "/repo/"),
            "src/net/wire.cpp");
  EXPECT_EQ(ma::repoRelative("/elsewhere/src/a.cpp", "/repo"), "");
  EXPECT_EQ(ma::repoRelative("/repo", "/repo"), "");
  // A path that ..-escapes the root is outside it.
  EXPECT_EQ(ma::repoRelative("/repo/../other/x.cpp", "/repo"), "");
}

// ---------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------

TEST(AnalyzeFindings, FormatMatchesCompilerDiagnosticShape) {
  const ma::Finding f{"src/net/wire.cpp", 54, 9, "untrusted-alloc",
                      "string sized by 'n'"};
  EXPECT_EQ(ma::formatFinding(f),
            "src/net/wire.cpp:54:9: [untrusted-alloc] string sized by 'n'");
}

TEST(AnalyzeFindings, SortAndDedupeCollapsesCrossTuHeaderDuplicates) {
  // The same header finding surfaces once per including TU; dedupe is
  // by (file, line, rule) so one copy survives regardless of column
  // or message differences.
  std::vector<ma::Finding> findings = {
      {"src/b.hpp", 10, 5, "naked-new", "from tu1"},
      {"src/a.cpp", 3, 1, "rand", "x"},
      {"src/b.hpp", 10, 5, "naked-new", "from tu2"},
      {"src/b.hpp", 10, 5, "rand", "different rule survives"},
  };
  ma::sortAndDedupe(findings);
  ASSERT_EQ(findings.size(), 3u);
  EXPECT_EQ(findings[0].file, "src/a.cpp");
  EXPECT_EQ(findings[1].rule, "naked-new");
  EXPECT_EQ(findings[2].rule, "rand");
}
