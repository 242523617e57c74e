/**
 * @file
 * Aggregation and export of batch-simulation results.
 *
 * ResultTable wraps the JobResult list a SweepRunner produced and
 * answers the questions the paper's tables ask: totals and means,
 * latency/throughput percentiles, and matched per-backend comparisons
 * (speedup, energy ratio) — plus CSV and JSON export for plotting.
 */

#ifndef GCC3D_RUNTIME_RESULT_TABLE_H
#define GCC3D_RUNTIME_RESULT_TABLE_H

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "runtime/sim_job.h"

namespace gcc3d {

/** Summary statistics of one metric over a set of jobs. */
struct Aggregate
{
    std::size_t count = 0;
    double total = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;  ///< p99.9, the tail SLO reporting watches
};

/**
 * Aggregate @p values (empty input yields a zero Aggregate).
 * Percentiles use linear interpolation between closest ranks, the
 * convention of numpy's default percentile.
 */
Aggregate aggregate(std::vector<double> values);

/**
 * Percentile q in [0, 100] of @p sorted (ascending, non-empty) by
 * linear interpolation.
 */
double percentile(const std::vector<double> &sorted, double q);

/**
 * @p a as a JSON object (count/mean/min/p50/p90/p99/p999/max) at
 * round-trip precision.  New exporters should emit aggregates through
 * this instead of hand-rolling the fields.
 */
std::string aggregateJson(const Aggregate &a);

/** Result aggregation, comparison and export. */
class ResultTable
{
  public:
    /** A metric extractor over one successful job. */
    using Metric = std::function<double(const JobResult &)>;
    /** A row predicate; rows failing it are excluded. */
    using Filter = std::function<bool(const JobResult &)>;

    explicit ResultTable(std::vector<JobResult> rows);

    const std::vector<JobResult> &rows() const { return rows_; }
    std::size_t failedCount() const;

    /**
     * Aggregate @p metric over successful rows passing @p filter
     * (all successful rows when absent).
     */
    Aggregate over(const Metric &metric, const Filter &filter = {}) const;

    /** Aggregate of modeled FPS over one backend's successful rows. */
    Aggregate fpsByBackend(Backend backend) const;
    /** Aggregate of per-frame energy over one backend's rows. */
    Aggregate energyByBackend(Backend backend) const;

    /** One row of a matched backend-vs-backend comparison. */
    struct Comparison
    {
        std::string scene;
        std::string variant;
        int frame = 0;
        double base_fps = 0.0;
        double other_fps = 0.0;
        double speedup = 0.0;       ///< other_fps / base_fps
        double energy_ratio = 0.0;  ///< base energy / other energy
    };

    /**
     * Match rows of @p other to rows of @p base by (scene, variant,
     * frame) and report per-pair speedup and energy ratio.  Pairs
     * with a failed or missing member are skipped.
     */
    std::vector<Comparison> compare(Backend base, Backend other) const;

    /** CSV with a header row; one line per job. */
    std::string toCsv() const;
    /** JSON array of job objects. */
    std::string toJson() const;

    /** Write a string to @p path; returns false on I/O failure. */
    static bool writeFile(const std::string &path,
                          const std::string &contents);

    /** Human-readable table plus per-backend summary. */
    void print(std::FILE *out = stdout) const;

  private:
    std::vector<JobResult> rows_;
};

} // namespace gcc3d

#endif // GCC3D_RUNTIME_RESULT_TABLE_H
