/**
 * @file
 * Shared pieces of the perfbench program: run arguments, the metric
 * tables, host timing (wall and thread CPU time) and small host
 * helpers.
 *
 * Every workload (sim_sweep.cc, serve_paced.cc, lod_stream.cc) is a
 * function RunArgs -> RunResult.  Its work is a pure function of
 * (workload, seed, seconds): the constants in each workload file fix
 * scale, rates and deadlines, kWorkers fixes the thread count, and
 * nothing the host measures feeds back into what is run.
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p start. */
double msSince(Clock::time_point start);

/** CPU time consumed so far by the calling thread, in ms. */
double threadCpuMs();

/** Median of @p values (0 for none). */
double median(std::vector<double> values);

/** Worker threads of every workload (see README: worker study). */
constexpr int kWorkers = 2;

/** Command line of one run. */
struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 10;
    bool trace = false;

    /** Compute only the values a seed must reproduce exactly (no
     *  timed phase) and print them as expected-value lines. */
    bool exact_only = false;

    /** Run records and the per-run temp directory go here. */
    std::string out_dir;
};

/** One printed metric.  samples = 0 marks an exact or derived value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
};

/** What every workload measures end to end (the BENCHMARK.json
 *  end_to_end list is derived from this by endToEndMetrics). */
struct EndToEnd
{
    /** Seconds of each set-up repetition; setup_s is their median. */
    std::vector<double> setup_s;

    /** Rate samples: one per timed pass (sim_sweep) or one per run
     *  of the fleet (serve_paced, lod_stream); reported as medians. */
    std::vector<double> throughput_fps;
    std::vector<double> goodput_fps;

    /** Per-frame latency samples (ms). */
    std::vector<double> latency_ms;

    std::uint64_t offered = 0;          ///< frames (jobs) offered
    std::uint64_t on_time_correct = 0;  ///< on time and verified

    /** Cycle-model ratios; only sim_sweep measures them, the other
     *  workloads report the neutral 1. */
    double sim_speedup = 1.0;
    double sim_energy_eff = 1.0;
};

/** Outcome of one workload run. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    EndToEnd e2e;

    /** Per-layer values by name (see kLayerMetrics); layers a
     *  workload does not exercise stay absent and print as 0. */
    std::map<std::string, double> layer;

    /** Samples behind each per-layer timing (0 = exact count). */
    std::map<std::string, std::size_t> layer_samples;

    /** Values the seed must reproduce bit for bit (outputs and exact
     *  counts), by name; compared with perfbench/expected.tsv. */
    std::map<std::string, std::string> exact;

    /** The exact values do not depend on --seed (recorded as "*"). */
    bool exact_any_seed = false;

    /** Workload constants, recorded with the run. */
    std::vector<std::pair<std::string, std::string>> meta;

    /** Record a failed output check (printed to stderr). */
    void fail(const std::string &what);

    void
    setLayer(const std::string &name, double value, std::size_t samples = 0)
    {
        layer[name] = value;
        layer_samples[name] = samples;
    }

    /** Record an exact value (doubles in round-trip precision). */
    void setExact(const std::string &name, double value);
    void setExact(const std::string &name, std::uint64_t value);
};

/** End-to-end metrics of @p e in BENCHMARK.json order. */
std::vector<Metric> endToEndMetrics(const EndToEnd &e);

/** Per-layer metrics of @p r in BENCHMARK.json order. */
std::vector<Metric> perLayerMetrics(const RunResult &r);

/**
 * Compare @p run's exact values with the lines of @p path for
 * (@p workload, @p seed) (or seed "*": every seed); a differing
 * value fails the run.  Returns the number of values compared.
 */
std::size_t checkExpected(const std::string &path, const std::string &workload,
                          std::uint64_t seed, RunResult &run);

/** FNV-1a digest of a sequence of doubles' bit patterns. */
class Digest
{
  public:
    void add(double v);
    void add(std::uint64_t v);
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/**
 * Run @p setup @p reps times and return each repetition's seconds.
 * Every repetition builds from scratch; callers keep what the last
 * one built.
 */
std::vector<double> timeSetup(int reps, const std::function<void(int)> &setup);

/** Percentile @p q in [0, 100] (numpy-linear; 0 for none). */
double percentileOf(std::vector<double> values, double q);

/** Geometric mean of positive @p ratios (1 for none). */
double geomean(const std::vector<double> &ratios);

/** Peak resident set of this process in MiB. */
double peakRssMb();

/** splitmix64 of base ^ seed: a workload input seed per --seed. */
std::uint64_t mixSeed(std::uint64_t base, std::uint64_t seed);

/** A fresh directory under a parent, removed with its contents on
 *  destruction. */
class TempDir
{
  public:
    explicit TempDir(const std::string &parent);
    ~TempDir();

    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// ---- Workloads. ----
RunResult runSimSweep(const RunArgs &args);
RunResult runServePaced(const RunArgs &args);
RunResult runLodStream(const RunArgs &args);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
