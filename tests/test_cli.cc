/**
 * @file
 * Tests of the strict numeric parser behind the CLIs' number flags
 * (bench/bench_util.h): only a whole in-range number is accepted; and
 * of gcc3d_serve's usage errors for values that parse but make no
 * fleet.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <limits>
#include <string>

#include "bench_util.h"

namespace gcc3d::bench {
namespace {

constexpr auto kU64Max = std::numeric_limits<unsigned long long>::max();

TEST(CliParse, AcceptsWholeInRangeNumbers)
{
    EXPECT_EQ(parseNumber("0", 0, kMaxCliThreads), 0);
    EXPECT_EQ(parseNumber(std::to_string(kMaxCliThreads), 0, kMaxCliThreads),
              kMaxCliThreads);
    EXPECT_EQ(parseNumber("-3", -5, 5), -3);
    EXPECT_EQ(parseNumber("18446744073709551615", 0ull, kU64Max), kU64Max);
    EXPECT_DOUBLE_EQ(*parseNumber("0.02", 0.0, 1.0), 0.02);
    EXPECT_DOUBLE_EQ(*parseNumber("1e3", 0.0, 1e9), 1000.0);
}

TEST(CliParse, RejectsGarbageAndOutOfRange)
{
    for (const char *bad : {"", "abc", "4x", "x4", " 4", "4 ", "+4", "0x10",
                            "1.5", "-1", "99999999999"})
        EXPECT_FALSE(parseNumber(bad, 0, kMaxCliThreads)) << "'" << bad << "'";
    EXPECT_FALSE(parseNumber(std::to_string(kMaxCliThreads + 1), 0,
                             kMaxCliThreads));
    EXPECT_FALSE(parseNumber("-1", 0ull, kU64Max));
    for (const char *bad : {"nan", "inf", "-inf", "1.5.0", "2", "-0.5"})
        EXPECT_FALSE(parseNumber(bad, 0.0, 1.0)) << "'" << bad << "'";
}

/** Exit status of gcc3d_serve run with @p args; -1 if it did not
 *  exit normally (a crash). */
int
serveExitStatus(const std::string &args)
{
    const std::string command =
        std::string("\"") + GCC3D_SERVE_BIN + "\" " + args + " >/dev/null 2>&1";
    const int status = std::system(command.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CliServe, RejectsATauThatIsInfiniteAsAFloat)
{
    // 1e39 parses as a finite double but is inf as the float tau; the
    // coarse-LOD tier's factor can overflow a finite tau the same way.
    // Both are usage errors, rejected before any scene file is opened.
    const std::string lod = "--lod missing.gsc --memory-budget 16 ";
    EXPECT_EQ(serveExitStatus(lod + "--lod-tau 1e39"), 2);
    EXPECT_EQ(serveExitStatus(lod + "--lod-tau 1e30 --degrade "
                                    "--degrade-tau 1e30"),
              2);
}

} // namespace
} // namespace gcc3d::bench
