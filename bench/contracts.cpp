/**
 * @file
 * The contracts that need wall time or paper scale, so they cannot be
 * ctest cases (every deterministic contract is one).  Runs each,
 * prints its measurements and a verdict, and exits 1 naming every
 * broken contract (2 on a usage error):
 *
 *   obs_overhead     per renderer, the mean over the preset scenes of
 *                    the median overhead of paired recorder-off/on
 *                    passes stays under --threshold percent (default
 *                    3; noisy CI runners pass 10).  Holds by
 *                    construction in a GCC3D_OBS=OFF build.
 *   overload_ladder  at 2x and 4x measured capacity, the degradation
 *                    ladder serves more frames on time than drop-only
 *                    shedding of the same open-loop arrivals
 *   lod_psnr_floors  every forced LOD level of the preset scenes at
 *                    paper scale renders at or above lodPsnrFloorDb
 *
 * Scales, scenes and seeds are constants of this file.  Timing uses
 * std::chrono directly: the recorder under test must not time itself.
 *
 * Usage: contracts [--threshold PCT]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lod/lod_builder.h"
#include "lod/lod_scene.h"
#include "obs/obs_config.h"
#include "obs/perf_recorder.h"
#include "render/gaussian_wise_renderer.h"
#include "render/metrics.h"
#include "render/tile_renderer.h"
#include "serve/fleet.h"
#include "serve/frame_scheduler.h"
#include "serve/load_gen.h"

namespace {

using namespace gcc3d;

const SceneId kScenes[] = {SceneId::Palace, SceneId::Lego, SceneId::Train};

/** Median of an odd-sized sample. */
double
median(std::vector<double> v)
{
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
}

// ---- obs_overhead ----

constexpr float kObsScale = 0.05f;
constexpr int kObsPairs = 7;

/**
 * Each pair is one recorder-off and one recorder-on render of the
 * same frame, back to back, with the order alternating pair by pair:
 * the host's speed drifts over seconds, so only adjacent passes see
 * the same host, and the median over pairs discards the pairs a
 * drift step landed in.
 */
bool
obsOverhead(double threshold_pct)
{
    if (GCC3D_OBS_ENABLED == 0) {
        std::printf("  observability compiled out (GCC3D_OBS=OFF): "
                    "holds by construction\n");
        return true;
    }
    obs::PerfRecorder &recorder = obs::PerfRecorder::global();
    const TileRenderer tile;
    const GaussianWiseRenderer gw;
    std::printf("  scale %.2f, %d off/on pairs of one-frame passes\n",
                static_cast<double>(kObsScale), kObsPairs);
    bool ok = true;
    for (const bool use_tile : {true, false}) {
        const char *renderer = use_tile ? "tile" : "gw";
        double sum_pct = 0.0;
        for (SceneId id : kScenes) {
            const SceneSpec spec = scenePreset(id);
            const GaussianCloud cloud = generateScene(spec, kObsScale);
            const Camera cam = makeCamera(spec);
            auto pass = [&](bool enabled) {
                recorder.setEnabled(enabled);
                const auto start = std::chrono::steady_clock::now();
                StandardFlowStats st;
                GaussianWiseStats gw_st;
                (void)(use_tile ? tile.render(cloud, cam, st)
                                : gw.render(cloud, cam, gw_st));
                return std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                    .count();
            };
            (void)pass(true);  // warm-up (first touch, caches)
            std::vector<double> pair_pct;
            for (int p = 0; p < kObsPairs; ++p) {
                const bool on_first = p % 2 == 1;
                const double first = pass(on_first);
                const double second = pass(!on_first);
                const double on = on_first ? first : second;
                const double off = on_first ? second : first;
                pair_pct.push_back(100.0 * (on - off) / off);
            }
            const double pct = median(pair_pct);
            sum_pct += pct;
            std::printf("  %-9s %-4s median paired overhead %+6.2f%%\n",
                        sceneName(id).c_str(), renderer, pct);
        }
        const double mean = sum_pct / static_cast<double>(std::size(kScenes));
        ok = ok && mean < threshold_pct;
        std::printf("  %-4s mean %+6.2f%% (must be < %.1f%%)\n", renderer,
                    mean, threshold_pct);
    }
    recorder.setEnabled(true);
    return ok;
}

// ---- overload_ladder ----

constexpr float kServeScale = 0.02f;
constexpr int kServeSessions = 8;
constexpr int kServeFrames = 3;
/** Sessions pace their frames one deadline apart, so the offered
 *  rate reaches its multiple only when the arrival window is long
 *  against a session; a short window lets drop-only keep up. */
constexpr int kOfferedFrames = 240;

/**
 * Offered load is calibrated from a best-effort scheduled run of a
 * closed fleet right before each leg: the host's speed and its free
 * cores drift over seconds, so capacity is measured, not derived
 * from the worker count.  The deadline is 4 Full renders of slack:
 * tight enough that overload queueing starves Full, loose enough
 * that the warp and half-res tiers still fit.
 */
bool
overloadLadder()
{
    FleetSpec fleet_spec;
    fleet_spec.sessions = kServeSessions;
    fleet_spec.frames = kServeFrames;
    fleet_spec.scale = kServeScale;
    for (SceneId id : kScenes)
        fleet_spec.scenes.push_back(scenePreset(id));
    fleet_spec.renderers = {SessionRenderer::Tile,
                            SessionRenderer::GaussianWise};
    fleet_spec.gw.subview_size = 128;

    SceneRegistry registry;
    const std::vector<Session> fleet = buildFleet(fleet_spec, registry);
    SchedulerOptions base_options;
    base_options.policy = SchedulerPolicy::Edf;
    base_options.workers = std::min(4, ThreadPool::hardwareWorkers());
    ThreadPool pool(base_options.workers);
    // Warm-up: the workers' first touch stays out of the calibration.
    (void)FrameScheduler(base_options).run(fleet, pool);
    bool ok = true;
    // One fixed arrival seed per leg: both shedding modes replay the
    // same arrival table.
    const struct { double multiplier; std::uint64_t seed; } legs[] = {
        {2.0, 9}, {4.0, 10}};
    for (const auto &leg : legs) {
        const ServeReport closed =
            FrameScheduler(base_options).run(fleet, pool);
        const double capacity_fps = closed.fleetFps();
        const double full_ms = closed.fleetRenderMs().mean;
        const double offered_fps = leg.multiplier * capacity_fps;
        serve::LoadGenConfig load;
        load.seed = leg.seed;
        load.base_rate_hz = offered_fps / kServeFrames;
        load.duration_ms = 1000.0 * kOfferedFrames / offered_fps;
        load.frames_min = kServeFrames;
        load.frames_max = kServeFrames;
        load.fps_target = static_cast<float>(1000.0 / (4.0 * full_ms));
        const std::vector<serve::SessionArrival> arrivals =
            serve::generateArrivals(load);

        auto on_time = [&](bool ladder) {
            FleetSpec spec = fleet_spec;
            spec.degrade = ladder;
            std::vector<Session> leg_fleet =
                buildOpenLoopFleet(spec, arrivals, registry);
            SchedulerOptions options = base_options;
            options.drop_late = true;
            options.degrade.enabled = ladder;
            return FrameScheduler(options).run(leg_fleet, pool).framesOnTime();
        };
        const int drop = on_time(false);
        const int ladder = on_time(true);
        ok = ok && ladder > drop;
        std::printf("  %.0fx of %.1f fps capacity (Full %.1f ms, %llu "
                    "frames offered): on time drop-only %d, ladder %d\n",
                    leg.multiplier, capacity_fps, full_ms,
                    static_cast<unsigned long long>(
                        serve::totalOfferedFrames(arrivals)),
                    drop, ladder);
    }
    return ok;
}

// ---- lod_psnr_floors ----

/** lodPsnrFloorDb is declared at paper scale. */
constexpr float kLodScale = 1.0f;

bool
lodPsnrFloors()
{
    const TileRenderer renderer;
    bool ok = true;
    for (SceneId id : kScenes) {
        const SceneSpec spec = scenePreset(id);
        const GaussianCloud cloud = generateScene(spec, kLodScale);
        const std::string path =
            (std::filesystem::temp_directory_path() /
             ("gcc3d_contracts_" + sceneName(id) + ".gsc"))
                .string();
        if (!buildLodFile(cloud, path, LodBuildConfig{})) {
            std::printf("  %s: LOD build failed\n", sceneName(id).c_str());
            ok = false;
            continue;
        }
        LodScene lod(path, std::size_t{256} << 20);
        std::filesystem::remove(path);  // the open scene keeps its inode
        const Camera cam = makeCamera(spec);
        StandardFlowStats st;
        const Image ref = renderer.render(cloud, cam, st);
        for (int level = 0; level <= lod.proxyLevels(); ++level) {
            LodCutParams params;
            params.force_level = level;
            const double db = psnr(
                ref, renderer.render(lod.buildCut(cam, params), cam, st));
            const double floor_db = lodPsnrFloorDb(level);
            ok = ok && db >= floor_db;
            std::printf("  %-9s level %d: %6.2f dB (floor %.1f)%s\n",
                        sceneName(id).c_str(), level, db, floor_db,
                        db >= floor_db ? "" : "  BELOW FLOOR");
        }
    }
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    double threshold_pct = 3.0;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--threshold" && i + 1 < argc) {
            threshold_pct = bench::parseFlag(flag, argv[++i], 0.0, 100.0);
        } else {
            std::fprintf(stderr, "usage: %s [--threshold PCT]\n",
                         argv[0]);
            return 2;
        }
    }

    std::string broken;
    auto run = [&](const char *name, auto check) {
        std::printf("%s\n", name);
        const bool ok = check();
        std::printf("contract %s: %s\n", name, ok ? "ok" : "BROKEN");
        if (!ok)
            broken += std::string(broken.empty() ? "" : ", ") + name;
    };
    run("obs_overhead", [&] { return obsOverhead(threshold_pct); });
    run("overload_ladder", overloadLadder);
    run("lod_psnr_floors", lodPsnrFloors);
    if (!broken.empty()) {
        std::fprintf(stderr, "ERROR: broken contract(s): %s\n",
                     broken.c_str());
        return 1;
    }
    std::printf("all contracts hold\n");
    return 0;
}
