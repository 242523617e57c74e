/**
 * @file
 * Shared helpers for the apps/ CLIs and the bench/ binaries (one per
 * table or figure of the paper's evaluation, printed beside the
 * paper's values, plus contracts): strict numeric flags, scene
 * lists, sweeps and banners.
 */

#ifndef GCC3D_BENCH_BENCH_UTIL_H
#define GCC3D_BENCH_BENCH_UTIL_H

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "runtime/result_table.h"
#include "runtime/sweep_runner.h"
#include "scene/scene_presets.h"

namespace gcc3d::bench {

/**
 * Upper bound on the worker/thread counts a CLI accepts, so a typo
 * cannot ask the host for an unbounded number of threads.
 */
inline constexpr int kMaxCliThreads = 256;

/**
 * Strictly parse @p text as one number in [@p lo, @p hi]: the whole
 * string must be a decimal number of type T (no leading blanks, no
 * '+', no trailing characters, no sign for unsigned T).  Empty
 * input, garbage, NaN and out-of-range values yield std::nullopt.
 */
template <typename T>
std::optional<T>
parseNumber(std::string_view text, T lo, T hi)
{
    T value{};
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi))
        return std::nullopt;
    return value;
}

/**
 * parseNumber() for the value of CLI flag @p flag: on rejection,
 * names the flag and its accepted range on stderr and exits with
 * status 2, the CLIs' usage-error code.
 */
template <typename T>
T
parseFlag(const std::string &flag, const std::string &text, T lo, T hi)
{
    const std::optional<T> value = parseNumber(text, lo, hi);
    if (!value) {
        std::ostringstream range;
        range << "[" << +lo << ", " << +hi << "]";
        std::fprintf(stderr, "invalid value for %s: '%s' (expected a "
                             "number in %s)\n",
                     flag.c_str(), text.c_str(), range.str().c_str());
        std::exit(2);
    }
    return *value;
}

/**
 * Worker threads for harness sweeps: the GCC3D_WORKERS environment
 * variable, defaulting to every hardware thread.  The results are
 * deterministic regardless (see SweepRunner); workers only change
 * wall-clock time.
 */
inline int
benchWorkers()
{
    const char *env = std::getenv("GCC3D_WORKERS");
    if (env == nullptr)
        return ThreadPool::hardwareWorkers();
    return parseNumber(env, 1, kMaxCliThreads)
        .value_or(ThreadPool::hardwareWorkers());
}

/**
 * Run @p spec on the parallel runtime with the bench worker count.
 * Failed jobs are reported loudly on stderr: a figure printed from an
 * incomplete sweep would silently misrepresent the paper's data.
 */
inline ResultTable
runSweep(const SweepSpec &spec)
{
    SweepOptions options;
    options.workers = benchWorkers();
    SweepRunner runner(options);
    ResultTable table(runner.run(spec));
    if (table.failedCount() > 0) {
        std::fprintf(stderr, "WARNING: %zu of %zu sweep jobs failed; "
                             "the figure below is incomplete:\n",
                     table.failedCount(), table.rows().size());
        for (const JobResult &r : table.rows())
            if (!r.ok)
                std::fprintf(stderr, "  %s/%s/%s/f%d: %s\n",
                             r.scene.c_str(), r.variant.c_str(),
                             backendName(r.backend).c_str(), r.frame,
                             r.error.c_str());
    }
    return table;
}

/**
 * Parse a --scenes CLI argument: "all" expands to every preset,
 * otherwise a comma-separated list of scene names.  Throws
 * std::invalid_argument on unknown names.
 */
inline std::vector<SceneId>
parseSceneList(const std::string &arg)
{
    if (arg == "all")
        return allScenes();
    std::vector<SceneId> out;
    std::string item;
    auto flush = [&] {
        if (!item.empty())
            out.push_back(sceneFromName(item));
        item.clear();
    };
    for (char c : arg) {
        if (c == ',')
            flush();
        else
            item += c;
    }
    flush();
    return out;
}

/** Split a comma-separated CLI list, dropping empty items. */
inline std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::string item;
    for (char c : arg) {
        if (c == ',') {
            if (!item.empty())
                out.push_back(item);
            item.clear();
        } else {
            item += c;
        }
    }
    if (!item.empty())
        out.push_back(item);
    return out;
}

/** The successful rows of @p table whose variant name starts with @p prefix. */
inline std::vector<JobResult>
rowsByVariantPrefix(const ResultTable &table, const std::string &prefix)
{
    std::vector<JobResult> out;
    for (const JobResult &r : table.rows())
        if (r.ok && r.variant.rfind(prefix, 0) == 0)
            out.push_back(r);
    return out;
}

/** Geometric mean of a series. */
inline double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double acc = 0.0;
    for (double x : v)
        acc += std::log(x);
    return std::exp(acc / static_cast<double>(v.size()));
}

/** Print the standard harness banner for a figure/table binary. */
inline void
banner(const std::string &id, const std::string &what, float scale)
{
    std::printf("==================================================="
                "=============\n");
    std::printf("%s — %s\n", id.c_str(), what.c_str());
    std::printf("scene population scale: %.2f of paper-scale "
                "(GCC3D_SCALE to change)\n", scale);
    std::printf("==================================================="
                "=============\n");
}

/** Horizontal separator. */
inline void
rule()
{
    std::printf("-----------------------------------------------------"
                "-----------\n");
}

} // namespace gcc3d::bench

#endif // GCC3D_BENCH_BENCH_UTIL_H
