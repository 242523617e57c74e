/**
 * @file
 * Batch-simulation CLI: expand a (scene x frame x variant x backend)
 * sweep from flags, run it on the parallel runtime, print the result
 * table, optionally export CSV/JSON.
 *
 * Examples:
 *   gcc3d_batch --scenes lego,train --backends gcc,gscore --frames 8
 *   gcc3d_batch --scenes all --workers 8 --csv sweep.csv
 *   gcc3d_batch --scenes train --buffer-kb 32,128,512 --frames 4
 *
 * Determinism: the result table is a pure function of the sweep
 * flags; --workers only changes wall-clock time.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/trace_export.h"
#include "runtime/result_table.h"
#include "runtime/sweep_runner.h"
#include "scene/scene_presets.h"

namespace {

using namespace gcc3d;
using gcc3d::bench::splitList;

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --scenes LIST     comma-separated scene names, or 'all'\n"
        "                    (palace, lego, train, truck, playroom,\n"
        "                    drjohnson; default: lego)\n"
        "  --backends LIST   subset of gcc,gscore,gpu (default:\n"
        "                    gcc,gscore)\n"
        "  --frames N        trajectory frames per scene (default: 1)\n"
        "  --scale F         population scale in (0,1] (default:\n"
        "                    GCC3D_SCALE env or 1.0)\n"
        "  --workers N       worker threads; 0 = all hardware threads\n"
        "                    (default: 0)\n"
        "  --buffer-kb LIST  GCC image-buffer capacity sweep (KB);\n"
        "                    each value becomes a config variant\n"
        "  --cache-dir DIR   .gsc scene cache; repeated runs skip\n"
        "                    scene generation (results unchanged)\n"
        "  --csv FILE        write per-job results as CSV\n"
        "  --json FILE       write per-job results as JSON\n"
        "  --trace FILE      write a Chrome/Perfetto trace-event JSON\n"
        "                    of the sweep (empty with GCC3D_OBS=OFF)\n"
        "  --metrics-out FILE  write the observability block (stage\n"
        "                    summaries + metrics registry) as JSON\n"
        "  --quiet           suppress the per-job table\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenes_arg = "lego";
    std::string backends_arg = "gcc,gscore";
    std::string buffer_arg;
    std::string cache_dir;
    std::string csv_path;
    std::string json_path;
    std::string trace_path;
    std::string metrics_path;
    int frames = 1;
    int workers = 0;
    float scale = benchScale();
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", flag.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        // Numeric values parse strictly: exit 2 on garbage or range.
        auto number = [&]<typename T>(T lo,
                                      T hi = std::numeric_limits<T>::max()) {
            return bench::parseFlag(flag, value(), lo, hi);
        };
        if (flag == "--help" || flag == "-h") {
            usage(argv[0]);
            return 0;
        } else if (flag == "--scenes") {
            scenes_arg = value();
        } else if (flag == "--backends") {
            backends_arg = value();
        } else if (flag == "--frames") {
            frames = number(1);
        } else if (flag == "--scale") {
            scale = number(0.0f, 1.0f);
        } else if (flag == "--workers") {
            workers = number(0, bench::kMaxCliThreads);
        } else if (flag == "--buffer-kb") {
            buffer_arg = value();
        } else if (flag == "--cache-dir") {
            cache_dir = value();
        } else if (flag == "--csv") {
            csv_path = value();
        } else if (flag == "--json") {
            json_path = value();
        } else if (flag == "--trace") {
            trace_path = value();
        } else if (flag == "--metrics-out") {
            metrics_path = value();
        } else if (flag == "--quiet") {
            quiet = true;
        } else {
            std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
            usage(argv[0]);
            return 2;
        }
    }
    if (scale <= 0.0f) {
        std::fprintf(stderr, "--scale must be in (0, 1]\n");
        return 2;
    }

    SweepSpec spec;
    spec.frames = frames;
    spec.scale = scale;
    try {
        for (SceneId id : bench::parseSceneList(scenes_arg))
            spec.addScene(id);
        spec.backends.clear();
        for (const std::string &name : splitList(backends_arg))
            spec.backends.push_back(backendFromName(name));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (spec.scenes.empty() || spec.backends.empty()) {
        std::fprintf(stderr, "empty scene or backend list\n");
        return 2;
    }
    if (!buffer_arg.empty()) {
        // The buffer capacity only exists in GccConfig; crossing the
        // variants with other backends would re-run bit-identical
        // simulations once per value.
        if (spec.backends.size() > 1 ||
            spec.backends[0] != Backend::Gcc) {
            std::fprintf(stderr, "--buffer-kb varies a GCC-only "
                                 "parameter; restricting backends to "
                                 "gcc\n");
            spec.backends = {Backend::Gcc};
        }
        spec.variants.clear();
        for (const std::string &kb : splitList(buffer_arg)) {
            ConfigVariant v;
            v.name = "buf=" + kb + "KB";
            v.gcc.image_buffer_kb =
                bench::parseFlag("--buffer-kb", kb, 1.0, 1e9);
            spec.variants.push_back(v);
        }
    }

    SweepOptions options;
    options.workers = workers > 0 ? workers : ThreadPool::hardwareWorkers();
    options.scene_cache_dir = cache_dir;
    std::printf("gcc3d_batch: %zu jobs (%zu scenes x %d frames x %zu "
                "variants x %zu backends), %d workers, scale %.2f\n",
                spec.jobCount(), spec.scenes.size(), spec.frames,
                spec.variants.size(), spec.backends.size(),
                options.workers, static_cast<double>(spec.scale));

    auto start = std::chrono::steady_clock::now();
    SweepRunner runner(options);
    ResultTable table(runner.run(spec));
    double wall_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start)
                         .count();

    if (!quiet)
        table.print();

    // Matched backend comparisons against the first backend listed.
    for (std::size_t i = 1; i < spec.backends.size(); ++i) {
        auto cmp = table.compare(spec.backends[0], spec.backends[i]);
        if (cmp.empty())
            continue;
        std::vector<double> speedups;
        for (const auto &c : cmp)
            speedups.push_back(c.speedup);
        Aggregate agg = aggregate(std::move(speedups));
        std::printf("%s vs %s: mean speedup %.2fx over %zu matched jobs\n",
                    backendName(spec.backends[i]).c_str(),
                    backendName(spec.backends[0]).c_str(), agg.mean,
                    agg.count);
    }

    // Summed per-job time over sweep wall time = average number of
    // jobs in flight.  Real speedup needs real cores: on an
    // oversubscribed host jobs time-slice and their individual times
    // inflate, so this measures concurrency, not throughput gain.
    double busy_ms = 0.0;
    for (const JobResult &r : table.rows())
        busy_ms += r.wall_ms;
    std::printf("wall %.0f ms, summed job time %.0f ms (avg jobs in "
                "flight %.2f)\n",
                wall_ms, busy_ms, wall_ms > 0.0 ? busy_ms / wall_ms : 0.0);

    if (!csv_path.empty() &&
        !ResultTable::writeFile(csv_path, table.toCsv())) {
        std::fprintf(stderr, "failed to write %s\n", csv_path.c_str());
        return 1;
    }
    if (!json_path.empty() &&
        !ResultTable::writeFile(json_path, table.toJson())) {
        std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
        return 1;
    }
    // Export after run() returned (workers joined, rings quiescent).
    if (!trace_path.empty() &&
        !ResultTable::writeFile(trace_path, obs::traceJson())) {
        std::fprintf(stderr, "failed to write %s\n", trace_path.c_str());
        return 1;
    }
    if (!metrics_path.empty() &&
        !ResultTable::writeFile(metrics_path, obs::observabilityJson())) {
        std::fprintf(stderr, "failed to write %s\n", metrics_path.c_str());
        return 1;
    }
    return table.failedCount() == 0 ? 0 : 1;
}
