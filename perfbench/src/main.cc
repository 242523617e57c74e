/**
 * @file
 * perfbench: the benchmark program.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --out-dir DIR --expected FILE [--exact-only 1]
 *
 * Runs one workload (sim_sweep, serve_paced, lod_stream), checks its
 * outputs (against each other and against the expected values of
 * the seed in FILE), prints every metric by name with its unit and
 * sample count, writes a run record (host metadata + metrics) under
 * DIR and ends stdout with one JSON line:
 *
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 *
 * --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
 * ones.  Exit status: 0 when every output check passed, 1 when one
 * failed (the JSON line is still printed, with correct = false), 2 on
 * a usage error.
 *
 * --exact-only 1 skips the timed phase and prints the seed's exact
 * values as lines of FILE's format ("workload seed name value")
 * instead; perfbench/record_expected.py collects them.
 */

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "gsmath/simd.h"

namespace {

using namespace perfbench;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload sim_sweep|serve_paced|lod_stream "
                 "--seed N --seconds S --trace 0|1 --out-dir DIR "
                 "--expected FILE [--exact-only 1]\n",
                 argv0);
    return 2;
}

bool
parseUnsigned(const std::string &text, std::uint64_t &out)
{
    if (text.empty() || text.find_first_not_of("0123456789") !=
                            std::string::npos || text.size() > 19)
        return false;
    out = std::stoull(text);
    return true;
}

std::string
number(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

std::string
metricsJson(const std::vector<Metric> &metrics, bool with_samples)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
               number(m.value) + ", \"unit\": \"" + m.unit + "\"";
        if (with_samples)
            out += ", \"samples\": " + std::to_string(m.samples);
        out += "}";
    }
    return out + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs args;
    std::string expected;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(argv[0]);
        const std::string value = argv[++i];
        std::uint64_t n = 0;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed" && parseUnsigned(value, n)) {
            args.seed = n;
            have_seed = true;
        } else if (flag == "--seconds" && parseUnsigned(value, n) &&
                   n >= 1 && n <= 600) {
            args.seconds = static_cast<int>(n);
            have_seconds = true;
        } else if (flag == "--trace" && (value == "0" || value == "1")) {
            args.trace = value == "1";
            have_trace = true;
        } else if (flag == "--out-dir" && !value.empty()) {
            args.out_dir = value;
        } else if (flag == "--expected" && !value.empty()) {
            expected = value;
        } else if (flag == "--exact-only" && (value == "0" || value == "1")) {
            args.exact_only = value == "1";
        } else {
            return usage(argv[0]);
        }
    }
    if (!have_seed || !have_seconds || !have_trace || args.out_dir.empty() ||
        expected.empty())
        return usage(argv[0]);

    RunResult (*run)(const RunArgs &) = nullptr;
    if (args.workload == "sim_sweep")
        run = runSimSweep;
    else if (args.workload == "serve_paced")
        run = runServePaced;
    else if (args.workload == "lod_stream")
        run = runLodStream;
    else
        return usage(argv[0]);

    RunResult result;
    std::size_t compared = 0;
    try {
        std::filesystem::create_directories(args.out_dir);
        result = run(args);
        if (args.exact_only) {
            const std::string seed = result.exact_any_seed
                                         ? "*"
                                         : std::to_string(args.seed);
            for (const auto &[name, value] : result.exact)
                std::printf("%s %s %s %s\n", args.workload.c_str(),
                            seed.c_str(), name.c_str(), value.c_str());
            return result.correct ? 0 : 1;
        }
        const bool checks_passed = result.correct;
        compared = checkExpected(expected, args.workload, args.seed, result);
        if (checks_passed && !result.correct) {
            // The outputs as a whole differ from the expected ones:
            // every frame counts as wrong.
            result.failed = result.attempted;
            result.e2e.on_time_correct = 0;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     args.workload.c_str(), e.what());
        return 2;
    }

    const std::vector<Metric> e2e = endToEndMetrics(result.e2e);
    const std::vector<Metric> layer = perLayerMetrics(result);
    const std::vector<Metric> &shown = args.trace ? layer : e2e;

    result.meta.emplace_back(
        "expected_values",
        compared > 0 ? std::to_string(compared) + " compared"
                     : "none for this seed (self-consistency checks only)");
    std::printf("perfbench %s: seed %llu, %d s, trace %d, %d workers, "
                "nproc %u, simd %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0, kWorkers,
                std::thread::hardware_concurrency(),
                gcc3d::simd::backendName());
    for (const auto &[key, value] : result.meta)
        std::printf("  %-28s %s\n", key.c_str(), value.c_str());
    for (const Metric &m : shown) {
        std::printf("  %-40s %14.6g %-9s", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (m.samples > 0)
            std::printf(" (n=%zu)", m.samples);
        std::printf("\n");
    }
    std::printf("  attempted %llu, failed %llu, outputs %s\n",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                result.correct ? "verified" : "WRONG");

    // Run record: host metadata, workload constants and every metric
    // with its sample count.
    std::ostringstream record;
    record << "{\"workload\": \"" << args.workload
           << "\", \"seed\": " << args.seed
           << ", \"seconds\": " << args.seconds
           << ", \"trace\": " << (args.trace ? 1 : 0)
           << ", \"host\": {\"nproc\": "
           << std::thread::hardware_concurrency()
           << ", \"simd_backend\": \"" << gcc3d::simd::backendName()
           << "\", \"workers\": " << kWorkers << "}, \"constants\": {";
    for (std::size_t i = 0; i < result.meta.size(); ++i)
        record << (i == 0 ? "\"" : ", \"") << result.meta[i].first
               << "\": \"" << result.meta[i].second << "\"";
    record << "}, \"correct\": " << (result.correct ? "true" : "false")
           << ", \"attempted\": " << result.attempted
           << ", \"failed\": " << result.failed
           << ", \"end_to_end\": " << metricsJson(e2e, true)
           << ", \"per_layer\": " << metricsJson(layer, true)
           << ", \"exact\": {";
    for (auto it = result.exact.begin(); it != result.exact.end(); ++it)
        record << (it == result.exact.begin() ? "\"" : ", \"") << it->first
               << "\": \"" << it->second << "\"";
    record << "}}\n";
    const std::string record_path =
        args.out_dir + "/" + args.workload + "-seed" +
        std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0") +
        ".json";
    std::ofstream(record_path) << record.str();

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                result.correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metricsJson(shown, false).c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
}
