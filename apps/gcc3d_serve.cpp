/**
 * @file
 * Multi-session render-serving CLI: build a session fleet (N clients
 * cycling through scenes and a renderer mix), serve it through the
 * SLO-aware FrameScheduler on a thread pool, and print the per-session
 * and fleet SLO report.
 *
 * Examples:
 *   gcc3d_serve --sessions 8 --frames 16 --policy edf --fps-target 90
 *   gcc3d_serve --sessions 4 --frames 8 --renderers tile,gw --threads 4
 *   gcc3d_serve --sessions 12 --scenes lego,train --cache-dir .gsc-cache
 *
 * Scheduling never changes pixels: per-session checksums equal serial
 * rendering (locked in by the FrameScheduler cases of tests/test_serve.cc).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "lod/lod_builder.h"
#include "obs/trace_export.h"
#include "serve/fleet.h"
#include "serve/frame_scheduler.h"

namespace {

using namespace gcc3d;
using gcc3d::bench::splitList;

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --sessions N      concurrent client sessions (default: 8)\n"
        "  --frames N        frames streamed per session (default: 8)\n"
        "  --policy P        fifo | rr | edf (default: fifo)\n"
        "  --renderers LIST  renderer mix, cycled across sessions;\n"
        "                    subset of tile,gw (default: tile)\n"
        "  --fps-target F    per-session FPS target; frames get EDF\n"
        "                    deadlines and miss accounting (default: 0\n"
        "                    = best effort)\n"
        "  --drop-late       shed frames already past their deadline\n"
        "                    at dispatch instead of rendering them\n"
        "  --threads N       render workers; 0 = all hardware threads\n"
        "                    (default: 0)\n"
        "  --scenes LIST     comma-separated scene names or 'all',\n"
        "                    cycled across sessions (default: lego)\n"
        "  --subview N       Gaussian-wise Cmode sub-view side; 0 =\n"
        "                    full view (default: 128)\n"
        "  --scale F         population scale in (0,1] (default:\n"
        "                    GCC3D_SCALE env or 1.0)\n"
        "  --cache-dir DIR   .gsc scene cache; repeated runs skip\n"
        "                    scene generation (results unchanged)\n"
        "  --lod FILE        serve the .gsc v2 LOD scene at FILE under\n"
        "                    the memory budget instead of generating\n"
        "                    resident clouds (scene list still sets\n"
        "                    the camera paths)\n"
        "  --memory-budget M leaf-chunk residency budget in MiB\n"
        "                    (default: 256)\n"
        "  --lod-tau F       LOD cut angular threshold in radians\n"
        "                    (default: 0.08; smaller = more detail)\n"
        "  --city N          view the N-splat City corridor preset\n"
        "                    (with --lod, a missing FILE is built by\n"
        "                    the streamed LOD builder first)\n"
        "  --temporal K      temporal coherence for tile resident-\n"
        "                    cloud sessions: 0 = off, 1 = exact\n"
        "                    incremental mode (bit-identical), K > 1\n"
        "                    = render every K-th frame exactly and\n"
        "                    reproject the rest (>= 40 dB contract)\n"
        "                    (default: 0)\n"
        "  --traj-arc F      fraction of each scene's camera path the\n"
        "                    trajectories cover in the same frame\n"
        "                    count (default: 1.0; temporal streams\n"
        "                    use smaller arcs for headset-like steps)\n"
        "  --open-loop R     open-loop serving: sessions arrive as a\n"
        "                    Poisson process at R sessions/s instead\n"
        "                    of all joining at t=0 (--sessions is\n"
        "                    ignored; --frames caps session length)\n"
        "  --duration MS     open-loop arrival window (default: 2000)\n"
        "  --diurnal A       sinusoidal rate modulation amplitude in\n"
        "                    [0, 1) over --diurnal-period ms\n"
        "  --diurnal-period MS  (default: 1000)\n"
        "  --load-seed N     arrival-process seed (default: 1)\n"
        "  --admission       enable admission control (token bucket +\n"
        "                    fairness + predictive shed)\n"
        "  --admission-rate F   bucket refill in renders/s; 0 = no\n"
        "                    bucket (default: 0)\n"
        "  --admission-burst F  bucket capacity (default: 4)\n"
        "  --admission-depth N  queue depth that counts as scarce\n"
        "                    (default: 0 = off)\n"
        "  --fair-share F    under scarcity, shed sessions holding\n"
        "                    more than F x the fleet-average renders\n"
        "                    (default: 0 = off)\n"
        "  --degrade         enable the graceful-degradation ladder\n"
        "                    (full -> warp -> half-res -> coarse LOD\n"
        "                    -> drop, driven by measured slack)\n"
        "  --degrade-scale F reduced-resolution tier multiplier in\n"
        "                    (0, 1) (default: 0.5)\n"
        "  --degrade-tau F   coarse-LOD tier tau multiplier >= 1\n"
        "                    (default: 4)\n"
        "  --chaos SEED      deterministic fault injection; 0 = off.\n"
        "                    Same seed + same workload = same faults\n"
        "  --chaos-io-fail R      scene .gsc read failure rate\n"
        "  --chaos-io-truncate R  scene .gsc truncation rate\n"
        "  --chaos-decode-fail R  LOD chunk decode failure rate\n"
        "  --chaos-stall R        worker stall rate\n"
        "  --chaos-stall-ms MS    stall duration (default: 5)\n"
        "  --chaos-disconnect R   mid-stream disconnect rate\n"
        "  --chaos-budget R       residency budget-pressure rate\n"
        "  --chaos-log FILE  write the canonical chaos event log\n"
        "                    (byte-identical for a fixed seed)\n"
        "  --json FILE       write the serve report as JSON\n"
        "  --trace FILE      write a Chrome/Perfetto trace-event JSON\n"
        "                    of the run (open in chrome://tracing or\n"
        "                    ui.perfetto.dev; empty with GCC3D_OBS=OFF)\n"
        "  --metrics-out FILE  write the observability block (stage\n"
        "                    summaries + metrics registry) as JSON\n"
        "  --quiet           suppress the per-session table\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenes_arg = "lego";
    std::string renderers_arg = "tile";
    std::string policy_arg = "fifo";
    std::string cache_dir;
    std::string json_path;
    std::string trace_path;
    std::string metrics_path;
    std::string lod_path;
    int sessions = 8;
    int frames = 8;
    int threads = 0;
    int subview = 128;
    double fps_target = 0.0;
    double budget_mib = 256.0;
    double lod_tau = 0.08;
    long long city = 0;
    int temporal = 0;
    double traj_arc = 1.0;
    bool drop_late = false;
    bool quiet = false;
    float scale = benchScale();
    double open_loop_rate = 0.0;
    double duration_ms = 2000.0;
    double diurnal = 0.0;
    double diurnal_period = 1000.0;
    unsigned long long load_seed = 1;
    bool admission = false;
    double admission_rate = 0.0;
    double admission_burst = 4.0;
    int admission_depth = 0;
    double fair_share = 0.0;
    bool degrade = false;
    double degrade_scale = 0.5;
    double degrade_tau = 4.0;
    unsigned long long chaos_seed = 0;
    serve::ChaosConfig chaos_cfg;
    std::string chaos_log_path;

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
        } else if (flag == "--sessions") {
            sessions = number(1);
        } else if (flag == "--frames") {
            frames = number(1);
        } else if (flag == "--policy") {
            policy_arg = value();
        } else if (flag == "--renderers") {
            renderers_arg = value();
        } else if (flag == "--fps-target") {
            fps_target = number(0.0);
        } else if (flag == "--drop-late") {
            drop_late = true;
        } else if (flag == "--threads") {
            threads = number(0, bench::kMaxCliThreads);
        } else if (flag == "--scenes") {
            scenes_arg = value();
        } else if (flag == "--subview") {
            subview = number(0);
        } else if (flag == "--scale") {
            scale = number(0.0f, 1.0f);
        } else if (flag == "--cache-dir") {
            cache_dir = value();
        } else if (flag == "--lod") {
            lod_path = value();
        } else if (flag == "--memory-budget") {
            budget_mib = number(0.0);
        } else if (flag == "--lod-tau") {
            lod_tau = number(0.0);
        } else if (flag == "--city") {
            city = number(0ll);
        } else if (flag == "--temporal") {
            temporal = number(0);
        } else if (flag == "--traj-arc") {
            traj_arc = number(0.0, 1.0);
        } else if (flag == "--open-loop") {
            open_loop_rate = number(0.0);
        } else if (flag == "--duration") {
            duration_ms = number(0.0);
        } else if (flag == "--diurnal") {
            diurnal = number(0.0, 1.0);
        } else if (flag == "--diurnal-period") {
            diurnal_period = number(0.0);
        } else if (flag == "--load-seed") {
            load_seed = number(0ull);
        } else if (flag == "--admission") {
            admission = true;
        } else if (flag == "--admission-rate") {
            admission_rate = number(0.0);
        } else if (flag == "--admission-burst") {
            admission_burst = number(0.0);
        } else if (flag == "--admission-depth") {
            admission_depth = number(0);
        } else if (flag == "--fair-share") {
            fair_share = number(0.0);
        } else if (flag == "--degrade") {
            degrade = true;
        } else if (flag == "--degrade-scale") {
            degrade_scale = number(0.0, 1.0);
        } else if (flag == "--degrade-tau") {
            degrade_tau = number(0.0);
        } else if (flag == "--chaos") {
            chaos_seed = number(0ull);
        } else if (flag == "--chaos-io-fail") {
            chaos_cfg.io_fail_rate = number(0.0, 1.0);
        } else if (flag == "--chaos-io-truncate") {
            chaos_cfg.io_truncate_rate = number(0.0, 1.0);
        } else if (flag == "--chaos-decode-fail") {
            chaos_cfg.decode_fail_rate = number(0.0, 1.0);
        } else if (flag == "--chaos-stall") {
            chaos_cfg.stall_rate = number(0.0, 1.0);
        } else if (flag == "--chaos-stall-ms") {
            chaos_cfg.stall_ms = number(0.0);
        } else if (flag == "--chaos-disconnect") {
            chaos_cfg.disconnect_rate = number(0.0, 1.0);
        } else if (flag == "--chaos-budget") {
            chaos_cfg.budget_pressure_rate = number(0.0, 1.0);
        } else if (flag == "--chaos-log") {
            chaos_log_path = value();
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
    // The parser enforces the closed bounds; these are the open ones.
    if (scale <= 0.0f || traj_arc <= 0.0) {
        std::fprintf(stderr, "--scale and --traj-arc must be > 0\n");
        return 2;
    }
    if (duration_ms <= 0.0 || diurnal >= 1.0 || diurnal_period <= 0.0) {
        std::fprintf(stderr, "--open-loop/--duration/--diurnal args "
                             "out of range\n");
        return 2;
    }
    if (degrade && (degrade_scale <= 0.0 || degrade_scale >= 1.0 ||
                    degrade_tau < 1.0)) {
        std::fprintf(stderr, "--degrade-scale must be in (0,1) and "
                             "--degrade-tau >= 1\n");
        return 2;
    }

    FleetSpec fleet_spec;
    fleet_spec.sessions = sessions;
    fleet_spec.frames = frames;
    fleet_spec.scale = scale;
    fleet_spec.fps_target = fps_target;
    fleet_spec.gw.subview_size = subview;
    fleet_spec.temporal = temporal;
    fleet_spec.traj_arc = static_cast<float>(traj_arc);
    fleet_spec.degrade = degrade;
    fleet_spec.degrade_render_scale = static_cast<float>(degrade_scale);
    fleet_spec.degrade_tau_factor = static_cast<float>(degrade_tau);

    chaos_cfg.seed = chaos_seed;

    SchedulerOptions sched;
    sched.drop_late = drop_late;
    sched.admission.enabled = admission;
    sched.admission.rate_hz = admission_rate;
    sched.admission.burst = admission_burst;
    sched.admission.max_queue_depth = admission_depth;
    sched.admission.fair_share = fair_share;
    sched.degrade.enabled = degrade;
    try {
        sched.policy = schedulerPolicyFromName(policy_arg);
        fleet_spec.renderers.clear();
        for (const std::string &name : splitList(renderers_arg))
            fleet_spec.renderers.push_back(sessionRendererFromName(name));
        if (city > 0)
            fleet_spec.scenes.push_back(
                citySpec(static_cast<std::size_t>(city)));
        else
            for (SceneId id : bench::parseSceneList(scenes_arg))
                fleet_spec.scenes.push_back(scenePreset(id));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    if (!lod_path.empty()) {
        if (budget_mib <= 0.0 || lod_tau <= 0.0) {
            std::fprintf(stderr,
                         "--memory-budget and --lod-tau must be > 0\n");
            return 2;
        }
        fleet_spec.lod_path = lod_path;
        fleet_spec.lod_budget_bytes =
            static_cast<std::size_t>(budget_mib * (1 << 20));
        fleet_spec.lod_cut.tau = static_cast<float>(lod_tau);
        // The City corridor is too large to generate in RAM: a missing
        // LOD file is built once by the streamed builder and reused.
        if (city > 0 && !isGscV2File(lod_path)) {
            std::printf("building %s: %lld-splat City LOD file "
                        "(streamed)...\n",
                        lod_path.c_str(), city);
            if (!buildLodFileStreamed(fleet_spec.scenes.front(),
                                      static_cast<std::uint64_t>(city),
                                      lod_path, LodBuildConfig{})) {
                std::fprintf(stderr, "failed to build %s\n",
                             lod_path.c_str());
                return 1;
            }
        }
    }
    if (fleet_spec.scenes.empty() || fleet_spec.renderers.empty()) {
        std::fprintf(stderr, "empty scene or renderer list\n");
        return 2;
    }
    // Values that parse but make no fleet (e.g. a --lod-tau that is
    // inf as a float) are usage errors too, caught before scene work.
    try {
        validateFleetSpec(fleet_spec);
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }

    int workers = threads > 0 ? threads : ThreadPool::hardwareWorkers();
    std::printf("gcc3d_serve: %d sessions x %d frames, policy %s, %d "
                "workers, fps target %.1f%s, scale %.2f\n",
                sessions, frames, policy_arg.c_str(), workers, fps_target,
                drop_late ? ", drop-late" : "",
                static_cast<double>(scale));

    try {
        // Chaos is installed before any scene work so .gsc cache
        // loads are already under fault injection.
        serve::ChaosEngine chaos_engine(chaos_cfg);
        serve::ChaosScope chaos_scope(&chaos_engine);
        if (chaos_cfg.enabled()) {
            sched.chaos = &chaos_engine;
            std::printf("chaos: seed %llu (io %.3f/%.3f decode %.3f "
                        "stall %.3f disconnect %.3f budget %.3f)\n",
                        static_cast<unsigned long long>(chaos_cfg.seed),
                        chaos_cfg.io_fail_rate, chaos_cfg.io_truncate_rate,
                        chaos_cfg.decode_fail_rate, chaos_cfg.stall_rate,
                        chaos_cfg.disconnect_rate,
                        chaos_cfg.budget_pressure_rate);
        }

        SceneRegistry registry(cache_dir);
        std::vector<Session> fleet;
        if (open_loop_rate > 0.0) {
            serve::LoadGenConfig load;
            load.seed = load_seed;
            load.base_rate_hz = open_loop_rate;
            load.duration_ms = duration_ms;
            load.diurnal_amplitude = diurnal;
            load.diurnal_period_ms = diurnal_period;
            load.frames_min = std::max(1, frames / 2);
            load.frames_max = frames;
            load.fps_target = static_cast<float>(fps_target);
            const std::vector<serve::SessionArrival> arrivals =
                serve::generateArrivals(load);
            std::printf("open-loop: %zu arrivals over %.0f ms (%.1f "
                        "sessions/s, %llu offered frames)\n",
                        arrivals.size(), duration_ms, open_loop_rate,
                        static_cast<unsigned long long>(
                            serve::totalOfferedFrames(arrivals)));
            fleet = buildOpenLoopFleet(fleet_spec, arrivals, registry);
        } else {
            fleet = buildFleet(fleet_spec, registry);
        }
        std::printf("fleet shares %zu distinct scene clouds across %zu "
                    "sessions\n",
                    registry.cloudCount(), fleet.size());

        ThreadPool pool(workers);
        FrameScheduler scheduler(sched);
        ServeReport report = scheduler.run(fleet, pool);

        if (chaos_cfg.enabled()) {
            std::printf("chaos: %llu faults fired\n",
                        static_cast<unsigned long long>(
                            chaos_engine.totalFired()));
            if (!chaos_log_path.empty() &&
                !ResultTable::writeFile(chaos_log_path,
                                        chaos_engine.eventLogText())) {
                std::fprintf(stderr, "failed to write %s\n",
                             chaos_log_path.c_str());
                return 1;
            }
        }

        if (!fleet.empty() && fleet.front().scene().lod) {
            const LodScene &lod = *fleet.front().scene().lod;
            ResidencyManager::Stats rs = lod.residencyStats();
            std::printf(
                "lod scene: %llu splats in %zu chunks, budget %.1f MiB, "
                "peak resident %.1f MiB (+%.1f MiB proxies), %llu "
                "faults / %llu hits / %llu evictions\n",
                static_cast<unsigned long long>(lod.totalCount()),
                lod.chunkCount(),
                static_cast<double>(lod.budgetBytes()) / (1 << 20),
                static_cast<double>(rs.peak_resident_bytes) / (1 << 20),
                static_cast<double>(lod.alwaysResidentBytes()) / (1 << 20),
                static_cast<unsigned long long>(rs.faults),
                static_cast<unsigned long long>(rs.hits),
                static_cast<unsigned long long>(rs.evictions));
        }

        if (!quiet)
            report.print();
        else
            std::printf("fleet FPS %.2f, miss rate %.1f%%, %d dropped\n",
                        report.fleetFps(), 100.0 * report.missRate(),
                        report.framesDropped());

        if (!json_path.empty() &&
            !ResultTable::writeFile(json_path, report.toJson())) {
            std::fprintf(stderr, "failed to write %s\n",
                         json_path.c_str());
            return 1;
        }
        // Export after the scheduler's futures resolved: every worker
        // is quiescent, so the recorder's rings are safe to read.
        if (!trace_path.empty() &&
            !ResultTable::writeFile(trace_path, obs::traceJson())) {
            std::fprintf(stderr, "failed to write %s\n",
                         trace_path.c_str());
            return 1;
        }
        if (!metrics_path.empty() &&
            !ResultTable::writeFile(metrics_path,
                                    obs::observabilityJson())) {
            std::fprintf(stderr, "failed to write %s\n",
                         metrics_path.c_str());
            return 1;
        }
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
