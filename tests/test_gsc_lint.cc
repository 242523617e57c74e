// gsc_lint rule tests: each fixture under tests/lint_fixtures/ is
// linted under a *virtual* repo path (rule scoping keys off the path,
// not the fixture's real location), and the expected findings are
// located by searching the fixture text so the assertions also prove
// line-number fidelity.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint_core.h"

namespace {

using gsclint::Finding;
using gsclint::Options;
using gsclint::lintSource;

std::string
fixture(const std::string &name)
{
    const std::string path = std::string(GCC3D_LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** 1-based line of the first occurrence of @p needle in @p text. */
int
lineOf(const std::string &text, const std::string &needle)
{
    std::size_t pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << "fixture lacks: " << needle;
    if (pos == std::string::npos)
        return -1;
    return 1 + static_cast<int>(
                   std::count(text.begin(), text.begin() +
                              static_cast<std::ptrdiff_t>(pos), '\n'));
}

std::vector<Finding>
withRule(const std::vector<Finding> &all, const std::string &rule)
{
    std::vector<Finding> out;
    for (const Finding &f : all)
        if (f.rule == rule)
            out.push_back(f);
    return out;
}

bool
findingAt(const std::vector<Finding> &all, int line, const std::string &rule)
{
    return std::any_of(all.begin(), all.end(), [&](const Finding &f) {
        return f.line == line && f.rule == rule;
    });
}

TEST(GscLint, LayeringRejectsUpwardIncludeIntoServe)
{
    const std::string text = fixture("core_includes_serve.cc");
    const std::vector<Finding> findings =
        lintSource("src/core/bad_dep.cc", text);
    const std::vector<Finding> layering = withRule(findings, "layering");
    ASSERT_EQ(layering.size(), 1u);
    EXPECT_EQ(layering[0].line, lineOf(text, "#include \"serve/session.h\""));
    EXPECT_NE(layering[0].message.find("serve"), std::string::npos);
    // Same-module and downward includes are clean.
    EXPECT_FALSE(
        findingAt(findings, lineOf(text, "core/accelerator.h"), "layering"));
    EXPECT_FALSE(
        findingAt(findings, lineOf(text, "gsmath/vec.h"), "layering"));
}

TEST(GscLint, LayeringExemptsConcurrencyPrimitiveHeaders)
{
    const std::string text = fixture("render_includes_runtime.cc");
    const std::vector<Finding> layering =
        withRule(lintSource("src/render/bad_dep.cc", text), "layering");
    ASSERT_EQ(layering.size(), 1u);
    EXPECT_EQ(layering[0].line,
              lineOf(text, "#include \"runtime/sweep_runner.h\""));
}

TEST(GscLint, LayeringIgnoresFilesOutsideSrc)
{
    const std::string text = fixture("core_includes_serve.cc");
    EXPECT_TRUE(
        withRule(lintSource("bench/whatever.cc", text), "layering").empty());
}

TEST(GscLint, DeterminismFlagsClockAndRandomnessTokens)
{
    const std::string text = fixture("determinism_tokens.cc");
    const std::vector<Finding> det =
        withRule(lintSource("src/render/bad_clock.cc", text), "determinism");
    ASSERT_EQ(det.size(), 3u);
    EXPECT_TRUE(findingAt(det, lineOf(text, "auto t0"), "determinism"));
    EXPECT_TRUE(findingAt(det, lineOf(text, "int noise"), "determinism"));
    EXPECT_TRUE(
        findingAt(det, lineOf(text, "std::random_device"), "determinism"));
}

TEST(GscLint, DeterminismSuppressionsCoverSameLineAndCommentAbove)
{
    const std::string text = fixture("determinism_tokens.cc");
    const std::vector<Finding> det =
        withRule(lintSource("src/render/bad_clock.cc", text), "determinism");
    EXPECT_FALSE(findingAt(det, lineOf(text, "suppressed_same_line"),
                           "determinism"));
    EXPECT_FALSE(
        findingAt(det, lineOf(text, "suppressed_above"), "determinism"));
    // Tokens inside a string literal never fire.
    EXPECT_FALSE(findingAt(det, lineOf(text, "const char *label"),
                           "determinism"));
}

TEST(GscLint, UnorderedIterationFlaggedInServeScopedOutElsewhere)
{
    const std::string text = fixture("unordered_iteration.cc");
    const std::vector<Finding> serve = withRule(
        lintSource("src/serve/bad_iter.cc", text), "unordered-iter");
    ASSERT_EQ(serve.size(), 2u);
    EXPECT_TRUE(findingAt(serve, lineOf(text, "for (const auto &kv"),
                          "unordered-iter"));
    EXPECT_TRUE(findingAt(serve, lineOf(text, "touched.begin()"),
                          "unordered-iter"));
    // The allow()ed order-insensitive fold stays clean.
    EXPECT_FALSE(findingAt(serve, lineOf(text, "for (int v : touched)"),
                           "unordered-iter"));
    // The rule is scoped to render/serve: the same text under
    // src/scene is allowed to iterate however it likes.
    EXPECT_TRUE(withRule(lintSource("src/scene/ok_iter.cc", text),
                         "unordered-iter")
                    .empty());
}

TEST(GscLint, MutexGuardRequiresGuardedByOrJustifiedAllow)
{
    const std::string text = fixture("mutex_unguarded.cc");
    const std::vector<Finding> mg = withRule(
        lintSource("src/runtime/bad_mutex.cc", text), "mutex-guard");
    ASSERT_EQ(mg.size(), 2u);
    EXPECT_TRUE(findingAt(mg, lineOf(text, "std::mutex m_;"),
                          "mutex-guard"));
    EXPECT_TRUE(findingAt(mg, lineOf(text, "Mutex lock_;"), "mutex-guard"));
    EXPECT_FALSE(findingAt(mg, lineOf(text, "Mutex mutex_;"),
                           "mutex-guard"));
    EXPECT_FALSE(findingAt(mg, lineOf(text, "std::mutex raw_;"),
                           "mutex-guard"));
}

TEST(GscLint, RecorderFlagsRawClockCallsInSrc)
{
    const std::string text = fixture("raw_clock.cc");
    const std::vector<Finding> rec =
        withRule(lintSource("src/serve/raw_clock.cc", text), "recorder");
    ASSERT_EQ(rec.size(), 2u);
    EXPECT_TRUE(findingAt(rec, lineOf(text, "MonoTime t0"), "recorder"));
    EXPECT_TRUE(findingAt(rec, lineOf(text, "double waited"), "recorder"));
    // msBetween is pure arithmetic and always legal.
    EXPECT_FALSE(
        findingAt(rec, lineOf(text, "double between"), "recorder"));
    EXPECT_FALSE(
        findingAt(rec, lineOf(text, "MonoTime suppressed"), "recorder"));
    // Identifiers inside a string literal never fire.
    EXPECT_FALSE(
        findingAt(rec, lineOf(text, "const char *label"), "recorder"));
}

TEST(GscLint, RecorderExemptsObsWallclockAndNonSrc)
{
    const std::string text = fixture("raw_clock.cc");
    EXPECT_TRUE(
        withRule(lintSource("src/obs/perf_recorder.cc", text), "recorder")
            .empty());
    EXPECT_TRUE(
        withRule(lintSource("src/runtime/wallclock.h", text), "recorder")
            .empty());
    EXPECT_TRUE(
        withRule(lintSource("bench/contracts.cpp", text), "recorder")
            .empty());
}

TEST(GscLint, RecorderToggleDisablesCheck)
{
    const std::string text = fixture("raw_clock.cc");
    Options off;
    off.recorder = false;
    EXPECT_TRUE(
        withRule(lintSource("src/serve/raw_clock.cc", text, off),
                 "recorder")
            .empty());
}

TEST(GscLint, LayeringRanksObsBesideScene)
{
    const std::string text = "#include \"obs/perf_recorder.h\"\n";
    // Equal and higher ranks may include obs...
    EXPECT_TRUE(
        withRule(lintSource("src/scene/x.cc", text), "layering").empty());
    EXPECT_TRUE(
        withRule(lintSource("src/render/x.cc", text), "layering").empty());
    EXPECT_TRUE(
        withRule(lintSource("src/serve/x.cc", text), "layering").empty());
    // ...but the math substrate below it may not.
    EXPECT_EQ(
        withRule(lintSource("src/gsmath/x.cc", text), "layering").size(),
        1u);
}

TEST(GscLint, CleanServeFileProducesNoFindings)
{
    const std::string text = fixture("clean.cc");
    EXPECT_TRUE(lintSource("src/serve/good.cc", text).empty());
}

TEST(GscLint, RuleTogglesDisableChecks)
{
    const std::string text = fixture("determinism_tokens.cc");
    Options off;
    off.determinism = false;
    EXPECT_TRUE(withRule(lintSource("src/render/bad_clock.cc", text, off),
                         "determinism")
                    .empty());
}

TEST(GscLint, FormatFindingIsFileLineRuleMessage)
{
    Finding f{"src/serve/session.cc", 42, "determinism", "boom"};
    EXPECT_EQ(gsclint::formatFinding(f),
              "src/serve/session.cc:42: [determinism] boom");
}

} // namespace
