/**
 * @file
 * lod_stream: closed-loop streaming of a compressed LOD scene under a
 * residency budget.
 *
 * Set-up streams a City corridor of kCitySplats splats (seeded from
 * --seed) into a fresh .gsc v2 file with buildLodFileStreamed, in a
 * temp directory that the run deletes, and opens it through the
 * SceneRegistry.  kSessions best-effort tile sessions then stream the
 * file under a leaf budget well below the working set, so every
 * frame decodes chunks, faults and evicts.  This is the only workload
 * where decode, residency and the v2 encoder do most of the work.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "lod/lod_builder.h"
#include "lod/lod_scene.h"
#include "render/tile_renderer.h"
#include "scene/scene_presets.h"
#include "serve/fleet.h"
#include "serve_common.h"

namespace perfbench {

namespace {

using namespace gcc3d;

constexpr std::size_t kCitySplats = 200000;
constexpr std::size_t kBudgetBytes = std::size_t{16} << 20;
constexpr float kTau = 0.4f;
constexpr std::size_t kChunkTarget = 1024;
constexpr int kImageWidth = 490;
constexpr int kImageHeight = 272;
constexpr int kSessions = 4;
constexpr int kFrames = 18;
/** The timed phase serves the fleet once per kSecondsPerRepetition of
 *  --seconds (one repetition takes about that long on two workers of
 *  a 4-vCPU Xeon VM), at least kMinRepetitions times, each from a
 *  freshly opened scene; throughput is the median over repetitions. */
constexpr double kSecondsPerRepetition = 3.75;
constexpr int kMinRepetitions = 3;
constexpr int kSetupReps = 5;
constexpr int kWarmupFrames = 2;
constexpr std::uint64_t kCitySalt = 0xc17e;

} // namespace

RunResult
runLodStream(const RunArgs &args)
{
    RunResult run;
    TempDir tmp(args.out_dir);

    SceneSpec city = citySpec(kCitySplats);
    city.seed = mixSeed(kCitySalt, args.seed);
    city.image_width = kImageWidth;
    city.image_height = kImageHeight;
    const int frames = kFrames;
    const int repetitions = std::max(
        kMinRepetitions,
        static_cast<int>(std::lround(args.seconds / kSecondsPerRepetition)));
    FleetSpec spec;
    spec.sessions = kSessions;
    spec.frames = frames;
    spec.scenes = {city};
    spec.renderers = {SessionRenderer::Tile};
    spec.lod_budget_bytes = kBudgetBytes;
    spec.lod_cut.tau = kTau;

    // A fleet over a freshly opened LodScene: cold residency cache.
    std::unique_ptr<SceneRegistry> registry;
    SceneHandle handle;
    auto openFleet = [&] {
        registry = std::make_unique<SceneRegistry>();
        handle = registry->acquireLod(spec.lod_path, kBudgetBytes, city, frames);
        return buildFleet(spec, *registry);
    };

    // ---- Set-up: stream the City into a new .gsc v2 file and open
    // it, kSetupReps times, each into its own file.
    std::vector<Session> fleet;
    std::vector<double> build_ms;
    run.e2e.setup_s = timeSetup(args.exact_only ? 1 : kSetupReps, [&](int rep) {
        fleet.clear();
        handle = SceneHandle{};
        if (!spec.lod_path.empty())
            std::remove(spec.lod_path.c_str());
        spec.lod_path = tmp.path() + "/city-" + std::to_string(rep) + ".gsc";
        const Clock::time_point start = Clock::now();
        LodBuildConfig build;
        build.chunk_target = kChunkTarget;
        if (!buildLodFileStreamed(city, kCitySplats, spec.lod_path, build))
            throw std::runtime_error("streamed LOD build failed");
        build_ms.push_back(msSince(start));
        fleet = openFleet();
    });

    ThreadPool pool(kWorkers);
    SchedulerOptions options;
    options.workers = kWorkers;

    // ---- Warm-up: the fleet's first kWarmupFrames frames served on a
    // separately opened scene, so the timed run starts with a grown
    // heap but a cold residency cache.
    if (!args.exact_only) {
        SceneRegistry warm_registry;
        FleetSpec warm = spec;
        warm.frames = kWarmupFrames;
        FrameScheduler(options).run(buildFleet(warm, warm_registry), pool);
    }

    // ---- Timed phase.  A traced run reads its per-layer metrics from
    // every other repetition; the others are the trace-overhead
    // baseline.
    std::vector<ServeReport> reports;
    std::vector<std::size_t> traced_reps;
    std::vector<double> traced_fps, untraced_fps;
    std::size_t peak = 0;
    ResidencyManager::Stats residency;  ///< summed over traced reps
    for (int rep = 0; rep < (args.exact_only ? 0 : repetitions); ++rep) {
        if (rep > 0)
            fleet = openFleet();
        const bool trace_rep = args.trace && rep % 2 == 1;
        reports.push_back(FrameScheduler(options).run(fleet, pool));
        const ResidencyManager::Stats stats = handle.lod->residencyStats();
        peak = std::max(peak, stats.peak_resident_bytes);
        (trace_rep ? traced_fps : untraced_fps).push_back(reports.back().fleetFps());
        if (trace_rep) {
            traced_reps.push_back(reports.size() - 1);
            residency.faults += stats.faults;
            residency.hits += stats.hits;
            residency.evictions += stats.evictions;
            residency.peak_resident_bytes =
                std::max(residency.peak_resident_bytes, stats.peak_resident_bytes);
        }
    }

    // ---- Output checks: every repetition's checksums equal one serial
    // replay (whose checksums are exact values of the seed), and
    // residency never exceeded the budget.
    const SerialBaseline serial = renderSerial(fleet);
    Digest checksums;
    for (double c : serial.checksums)
        checksums.add(c);
    run.setExact("sessions.checksum_digest", checksums.value());
    for (const ServeReport &report : reports)
        checkFleet(report, fleet, serial, {}, run);
    peak = std::max(peak, handle.lod->residencyStats().peak_resident_bytes);
    if (peak > kBudgetBytes) {
        run.fail("peak resident bytes " + std::to_string(peak) +
                 " exceed the budget " + std::to_string(kBudgetBytes));
        run.failed = run.attempted;
        run.e2e.on_time_correct = 0;
    }

    run.meta = {
        {"city_splats", std::to_string(kCitySplats)},
        {"budget_mib", std::to_string(kBudgetBytes >> 20)},
        {"tau", std::to_string(kTau)},
        {"sessions", std::to_string(kSessions)},
        {"frames_per_session", std::to_string(frames)},
        {"repetitions", std::to_string(repetitions)},
        {"renderer", "tile"},
        {"setup_reps", std::to_string(kSetupReps)},
        {"loop", "closed (best effort); latency = queue + render"},
    };
    if (!args.trace && !args.exact_only)
        return run;

    // ---- Exact per-frame work, from a replay of the shared camera
    // path on a separately opened scene.
    std::vector<FrameWork> work;
    std::vector<double> cut_gaussians;
    {
        LodScene lod(spec.lod_path, kBudgetBytes);
        const TileRenderer tile(fleet.front().config().tile);
        for (int f = 0; f < frames; ++f) {
            const Camera &cam =
                handle.trajectory->frame(static_cast<std::size_t>(f));
            LodCutStats cut_stats;
            const GaussianCloud cut = lod.buildCut(cam, spec.lod_cut, &cut_stats);
            StandardFlowStats stats;
            tile.render(cut, cam, stats);
            work.push_back({static_cast<double>(stats.kv_pairs),
                            static_cast<double>(stats.alpha_evals)});
            cut_gaussians.push_back(static_cast<double>(cut_stats.cut_gaussians));
        }
    }
    double path_alpha = 0.0, path_cut = 0.0;
    for (int f = 0; f < frames; ++f) {
        path_alpha += work[static_cast<std::size_t>(f)].alpha_evals;
        path_cut += cut_gaussians[static_cast<std::size_t>(f)];
    }
    run.setExact("path.alpha_evals", path_alpha);
    run.setExact("path.cut_gaussians", path_cut);
    if (args.exact_only)
        return run;

    const double lod_build_ms = median(build_ms);
    run.setLayer("lod.build_ms", lod_build_ms, build_ms.size());
    run.setLayer("lod.build_ns_per_splat",
                 lod_build_ms * 1e6 / static_cast<double>(kCitySplats),
                 build_ms.size());
    std::vector<const ServeReport *> traced;
    for (std::size_t i : traced_reps)
        traced.push_back(&reports[i]);
    serveLayers(traced, fleet,
                [&](const Session &, int f) {
                    return work[static_cast<std::size_t>(f)];
                },
                run);
    double decode_ms = 0.0, cut_sum = 0.0;
    std::size_t rendered = 0;
    for (const ServeReport *report : traced)
        for (const SessionStats &s : report->sessions)
            for (const FrameRecord &rec : s.frames) {
                if (!rec.rendered)
                    continue;
                ++rendered;
                decode_ms += rec.cost.decode_ms;
                cut_sum += cut_gaussians[static_cast<std::size_t>(rec.frame)];
            }
    const double per_frame = 1.0 / static_cast<double>(std::max<std::size_t>(1, rendered));
    run.setLayer("lod.decode_ms_per_frame", decode_ms * per_frame, rendered);
    run.setLayer("lod.faults_per_frame", residency.faults * per_frame);
    run.setLayer("lod.evictions_per_frame", residency.evictions * per_frame);
    run.setLayer("lod.hit_share",
                 residency.hits + residency.faults > 0
                     ? static_cast<double>(residency.hits) /
                           static_cast<double>(residency.hits + residency.faults)
                     : 0.0);
    run.setLayer("lod.cut_gaussians_per_frame", cut_sum * per_frame);
    run.setLayer("lod.peak_resident_mb",
                 static_cast<double>(residency.peak_resident_bytes) / 1048576.0);
    run.setLayer("bench.trace_overhead_share",
                 1.0 - median(traced_fps) / median(untraced_fps), reports.size());
    return run;
}

} // namespace perfbench
