#include "serve_common.h"

#include <string>

namespace perfbench {

using namespace gcc3d;

namespace {

bool
fullFidelity(const FrameRecord &rec)
{
    return rec.rendered && rec.tier == DegradeTier::Full;
}

} // namespace

void
checkFleet(const ServeReport &report, const std::vector<Session> &fleet,
           const SerialBaseline &serial, const std::set<int> &wrong_sessions,
           RunResult &run)
{
    if (report.sessions.size() != fleet.size() ||
        serial.checksums.size() != fleet.size()) {
        run.fail("scheduled run and serial replay cover different fleets");
        return;
    }
    std::uint64_t rendered = 0, on_time_correct = 0, failed = 0, offered = 0;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        const SessionStats &stats = report.sessions[i];
        const Session &session = fleet[i];
        offered += static_cast<std::uint64_t>(session.frameCount());
        bool all_full =
            stats.frames.size() == static_cast<std::size_t>(session.frameCount());
        for (const FrameRecord &rec : stats.frames)
            all_full = all_full && fullFidelity(rec);

        // Serial reference of each frame: the session sum when every
        // frame was full fidelity, else a frame-by-frame replay.
        std::vector<double> reference;
        bool session_ok = stats.session == session.id() &&
                          wrong_sessions.count(session.id()) == 0;
        if (session_ok && all_full) {
            session_ok = stats.checksum == serial.checksums[i];
        } else if (session_ok) {
            session.resetTemporal();
            for (int f = 0; f < session.frameCount(); ++f)
                reference.push_back(session.renderFrame(f));
        }
        if (!session_ok)
            run.fail("session " + std::to_string(session.id()) +
                     " differs from its serial replay");

        for (const FrameRecord &rec : stats.frames) {
            if (!rec.rendered) {
                ++failed;  // shed: never delivered
                continue;
            }
            ++rendered;
            run.e2e.latency_ms.push_back(rec.latency_ms);
            bool correct = session_ok;
            if (correct && !reference.empty() && fullFidelity(rec))
                correct = rec.checksum ==
                          reference[static_cast<std::size_t>(rec.frame)];
            if (!correct) {
                if (session_ok)
                    run.fail("session " + std::to_string(session.id()) +
                             " frame " + std::to_string(rec.frame) +
                             " differs from its serial replay");
                ++failed;
                continue;
            }
            if (fullFidelity(rec) && !rec.deadline_missed)
                ++on_time_correct;
        }
        // Frames the scheduler never recorded were not delivered.
        failed += static_cast<std::uint64_t>(session.frameCount()) -
                  stats.frames.size();
    }
    const double wall_s = report.wall_ms / 1000.0;
    run.e2e.offered += offered;
    run.e2e.on_time_correct += on_time_correct;
    run.e2e.throughput_fps.push_back(rendered / wall_s);
    run.e2e.goodput_fps.push_back(on_time_correct / wall_s);
    run.attempted += offered;
    run.failed += failed;
}

void
serveLayers(const std::vector<const ServeReport *> &reports,
            const std::vector<Session> &fleet,
            const std::function<FrameWork(const Session &, int)> &work,
            RunResult &run)
{
    std::vector<double> queue, lag, render, tile_pre, tile_bin, tile_raster,
        gw_ms;
    double busy_ms = 0.0, tile_bin_ms = 0.0, tile_raster_ms = 0.0,
           gw_raster_ms = 0.0, tile_kv = 0.0, tile_alpha = 0.0,
           gw_alpha = 0.0, alpha = 0.0;
    double wall_ms = 0.0;
    std::size_t offered = 0, degraded = 0, shed = 0, full = 0;
    for (const ServeReport *report : reports) {
        wall_ms += report->wall_ms;
        for (std::size_t i = 0; i < fleet.size(); ++i) {
            const Session &session = fleet[i];
            const bool tile = session.config().renderer == SessionRenderer::Tile;
            offered += static_cast<std::size_t>(session.frameCount());
            for (const FrameRecord &rec : report->sessions[i].frames) {
                if (!rec.rendered) {
                    ++shed;
                    continue;
                }
                queue.push_back(rec.queue_wait_ms);
                lag.push_back(rec.latency_ms - rec.queue_wait_ms - rec.render_ms);
                render.push_back(rec.render_ms);
                busy_ms += rec.render_ms;
                if (!fullFidelity(rec)) {
                    ++degraded;
                    continue;
                }
                ++full;
                const FrameWork w = work(session, rec.frame);
                alpha += w.alpha_evals;
                if (tile) {
                    tile_pre.push_back(rec.cost.pre_ms);
                    tile_bin.push_back(rec.cost.bin_ms);
                    tile_raster.push_back(rec.cost.raster_ms);
                    tile_bin_ms += rec.cost.bin_ms;
                    tile_raster_ms += rec.cost.raster_ms;
                    tile_kv += w.kv_pairs;
                    tile_alpha += w.alpha_evals;
                } else {
                    gw_ms.push_back(rec.render_ms);
                    gw_raster_ms += rec.cost.raster_ms;
                    gw_alpha += w.alpha_evals;
                }
            }
        }
    }
    auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
    run.setLayer("serve.queue_wait_p50_ms", percentileOf(queue, 50.0), queue.size());
    run.setLayer("serve.queue_wait_p90_ms", percentileOf(queue, 90.0), queue.size());
    run.setLayer("serve.admit_lag_p90_ms", percentileOf(lag, 90.0), lag.size());
    run.setLayer("serve.render_ms_p50", median(render), render.size());
    run.setLayer("serve.worker_busy_share",
                 ratio(busy_ms, kWorkers * wall_ms), render.size());
    run.setLayer("serve.degraded_share", ratio(degraded, offered));
    run.setLayer("serve.shed_share", ratio(shed, offered));
    run.setLayer("render.tile.pre_ms", median(tile_pre), tile_pre.size());
    run.setLayer("render.tile.bin_ms", median(tile_bin), tile_bin.size());
    run.setLayer("render.tile.raster_ms", median(tile_raster), tile_raster.size());
    run.setLayer("render.tile.ns_per_kv_pair", ratio(tile_bin_ms * 1e6, tile_kv),
                 tile_bin.size());
    run.setLayer("render.tile.ns_per_alpha_eval",
                 ratio(tile_raster_ms * 1e6, tile_alpha), tile_raster.size());
    run.setLayer("render.gw.ms_per_frame", median(gw_ms), gw_ms.size());
    run.setLayer("render.gw.ns_per_alpha_eval", ratio(gw_raster_ms * 1e6, gw_alpha),
                 gw_ms.size());
    run.setLayer("render.alpha_evals_per_frame", ratio(alpha, full));
}

} // namespace perfbench
