/**
 * @file
 * Fleet accounting shared by the two serving workloads (serve_paced,
 * lod_stream): output checks of a scheduled run against a serial
 * replay, the per-frame end-to-end samples, and the serve / render
 * layer metrics read from the FrameRecords the scheduler returns.
 */

#ifndef PERFBENCH_SERVE_COMMON_H
#define PERFBENCH_SERVE_COMMON_H

#include <functional>
#include <set>
#include <vector>

#include "bench.h"
#include "serve/fleet.h"
#include "serve/frame_scheduler.h"
#include "serve/serve_stats.h"

namespace perfbench {

/**
 * Check every frame of @p report against @p serial (the renderSerial
 * checksum of each session of @p fleet) and fold the outcome into
 * @p run: offered, attempted and failed frames, on-time-and-correct
 * frames, latency samples and the throughput / goodput of the run.
 *
 * A session whose frames were all served at full fidelity must match
 * its serial checksum bit for bit.  A session with degraded or shed
 * frames (the ladder reacting to load) is replayed frame by frame:
 * its full-fidelity frames must still match, the others count as
 * missed but not wrong.  Sessions in @p wrong_sessions failed another
 * check and count every frame as wrong.
 */
void checkFleet(const gcc3d::ServeReport &report,
                const std::vector<gcc3d::Session> &fleet,
                const gcc3d::SerialBaseline &serial,
                const std::set<int> &wrong_sessions, RunResult &run);

/** Work counts of one rendered frame (exact, from a replay). */
struct FrameWork
{
    double kv_pairs = 0.0;
    double alpha_evals = 0.0;
};

/**
 * Serve- and render-layer metrics of @p reports (runs of one fleet):
 * queue wait, admit lag, render time, worker busy share, degraded /
 * shed shares, the tile stage times and the per-unit costs (stage
 * time over the exact work @p work reports for each full-fidelity
 * frame).
 */
void serveLayers(const std::vector<const gcc3d::ServeReport *> &reports,
                 const std::vector<gcc3d::Session> &fleet,
                 const std::function<FrameWork(const gcc3d::Session &, int)> &work,
                 RunResult &run);

} // namespace perfbench

#endif // PERFBENCH_SERVE_COMMON_H
