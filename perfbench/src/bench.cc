#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "runtime/result_table.h"

namespace perfbench {

namespace {

/** Name and unit of every per-layer metric, in BENCHMARK.json order.
 *  README.md maps each one to the end-to-end metric it should move. */
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"scene.generate_ms", "ms"},
    {"scene.generate_ns_per_gaussian", "ns"},
    {"runtime.job_ms_p50", "ms"},
    {"runtime.worker_busy_share", "fraction"},
    {"core.host_ms_per_frame", "ms"},
    {"core.host_ns_per_gaussian", "ns"},
    {"gscore.host_ms_per_frame", "ms"},
    {"core.sim_cycles_per_frame", "cycles"},
    {"gscore.sim_cycles_per_frame", "cycles"},
    {"core.preprocessed_share", "fraction"},
    {"gscore.loads_per_gaussian", "count"},
    {"core.dram_mb_per_frame", "MiB"},
    {"render.tile.pre_ms", "ms"},
    {"render.tile.bin_ms", "ms"},
    {"render.tile.raster_ms", "ms"},
    {"render.tile.ns_per_kv_pair", "ns"},
    {"render.tile.ns_per_alpha_eval", "ns"},
    {"render.gw.ms_per_frame", "ms"},
    {"render.gw.ns_per_alpha_eval", "ns"},
    {"render.alpha_evals_per_frame", "count"},
    {"render.temporal.reused_tile_share", "fraction"},
    {"render.temporal.incremental_frame_share", "fraction"},
    {"serve.queue_wait_p50_ms", "ms"},
    {"serve.queue_wait_p90_ms", "ms"},
    {"serve.admit_lag_p90_ms", "ms"},
    {"serve.render_ms_p50", "ms"},
    {"serve.worker_busy_share", "fraction"},
    {"serve.degraded_share", "fraction"},
    {"serve.shed_share", "fraction"},
    {"lod.build_ms", "ms"},
    {"lod.build_ns_per_splat", "ns"},
    {"lod.decode_ms_per_frame", "ms"},
    {"lod.faults_per_frame", "count"},
    {"lod.evictions_per_frame", "count"},
    {"lod.hit_share", "fraction"},
    {"lod.cut_gaussians_per_frame", "count"},
    {"lod.peak_resident_mb", "MiB"},
    {"bench.trace_overhead_share", "fraction"},
};

std::string
formatExact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

double
threadCpuMs()
{
    timespec ts = {};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) / 1e6;
}

void
RunResult::fail(const std::string &what)
{
    correct = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void
RunResult::setExact(const std::string &name, double value)
{
    exact[name] = formatExact(value);
}

void
RunResult::setExact(const std::string &name, std::uint64_t value)
{
    exact[name] = std::to_string(value);
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xffu;
        h_ *= 0x100000001b3ull;
    }
}

std::size_t
checkExpected(const std::string &path, const std::string &workload,
              std::uint64_t seed, RunResult &run)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read expected values " + path);
    const std::string seed_text = std::to_string(seed);
    std::size_t compared = 0;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string w, s, name, value;
        if (line.empty() || line[0] == '#' || !(fields >> w >> s >> name >> value))
            continue;
        if (w != workload || (s != seed_text && s != "*"))
            continue;
        const auto it = run.exact.find(name);
        if (it == run.exact.end())
            continue;  // not computed by this kind of run
        ++compared;
        if (it->second != value)
            run.fail(name + " = " + it->second + ", expected " + value);
    }
    return compared;
}

std::vector<Metric>
endToEndMetrics(const EndToEnd &e)
{
    const double success =
        e.offered > 0 ? static_cast<double>(e.on_time_correct) /
                            static_cast<double>(e.offered)
                      : 0.0;
    return {
        {"setup_s", median(e.setup_s), "s", e.setup_s.size()},
        {"throughput_fps", median(e.throughput_fps), "frames/s",
         e.throughput_fps.size()},
        {"goodput_fps", median(e.goodput_fps), "frames/s",
         e.goodput_fps.size()},
        {"latency_p50_ms", percentileOf(e.latency_ms, 50.0), "ms",
         e.latency_ms.size()},
        {"latency_p90_ms", percentileOf(e.latency_ms, 90.0), "ms",
         e.latency_ms.size()},
        {"success_share", success, "fraction", 0},
        {"peak_rss_mb", peakRssMb(), "MiB", 0},
        {"sim_speedup_vs_gscore", e.sim_speedup, "x", 0},
        {"sim_energy_eff_vs_gscore", e.sim_energy_eff, "x", 0},
    };
}

std::vector<Metric>
perLayerMetrics(const RunResult &r)
{
    std::vector<Metric> out;
    for (const auto &[name, unit] : kLayerMetrics) {
        Metric m;
        m.name = name;
        m.unit = unit;
        if (auto it = r.layer.find(name); it != r.layer.end())
            m.value = it->second;
        if (auto it = r.layer_samples.find(name);
            it != r.layer_samples.end())
            m.samples = it->second;
        out.push_back(std::move(m));
    }
    return out;
}

// ---- Helpers. ----

std::vector<double>
timeSetup(int reps, const std::function<void(int)> &setup)
{
    std::vector<double> seconds;
    for (int rep = 0; rep < reps; ++rep) {
        const Clock::time_point start = Clock::now();
        setup(rep);
        seconds.push_back(msSince(start) / 1000.0);
    }
    return seconds;
}

double
median(std::vector<double> values)
{
    return percentileOf(std::move(values), 50.0);
}

double
percentileOf(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    return gcc3d::percentile(values, q);
}

double
geomean(const std::vector<double> &ratios)
{
    if (ratios.empty())
        return 1.0;
    double log_sum = 0.0;
    for (double r : ratios)
        log_sum += std::log(r);
    return std::exp(log_sum / static_cast<double>(ratios.size()));
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t
mixSeed(std::uint64_t base, std::uint64_t seed)
{
    std::uint64_t z = base ^ (seed * 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

TempDir::TempDir(const std::string &parent)
{
    std::filesystem::create_directories(parent);
    std::string templ = parent + "/tmp-XXXXXX";
    if (mkdtemp(templ.data()) == nullptr)
        throw std::runtime_error("cannot create a temp directory under " +
                                 parent);
    path_ = templ;
}

TempDir::~TempDir()
{
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

} // namespace perfbench
