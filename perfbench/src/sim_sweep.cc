/**
 * @file
 * sim_sweep: the paper's Fig. 10 as a closed-loop batch job.
 *
 * All six presets x kFrames trajectory frames x {gcc, gscore} at
 * kScale.  Scenes are built from the presets with
 * SweepRunner::buildScene (never from a cache) and every job runs
 * through SweepRunner::runJob on a kept-busy pool of kWorkers
 * threads, submitted in an order drawn from --seed.  Every seed thus
 * does the same work: with scenes drawn from the seed instead, the
 * p90 job time moved by 60% between seeds while one seed repeated
 * within 5%.  An untimed warm-up pass is the reference: its simulated
 * outputs must match perfbench/expected.tsv, and every timed pass must
 * reproduce them bit for bit (sameSimOutput), so the sim_* metrics
 * are the same on every pass and every run.  This is the
 * only workload where core, gscore and sim do the work and serve /
 * lod do none.
 */

#include <algorithm>
#include <cmath>
#include <exception>
#include <future>
#include <string>

#include "bench.h"
#include "core/accelerator.h"
#include "gscore/gscore_sim.h"
#include "runtime/sweep_runner.h"
#include "runtime/thread_pool.h"

namespace perfbench {

namespace {

using namespace gcc3d;

constexpr float kScale = 0.01f;
constexpr int kFrames = 4;
constexpr int kSetupReps = 9;
constexpr std::uint64_t kOrderSalt = 0x0dde;

/** Timed passes per second of --seconds (one pass of 48 jobs takes
 *  about 4 s on two workers of a 4-vCPU Xeon VM), and the floor that
 *  keeps >= 100 latency samples per run. */
constexpr double kPassesPerSecond = 0.25;
constexpr int kMinPasses = 3;

/** One job's host cost: wall time and the worker's CPU time. */
struct JobTime
{
    double wall_ms = 0.0;
    double cpu_ms = 0.0;
};

struct PassResult
{
    std::vector<JobResult> results;
    std::vector<JobTime> times;
    double wall_ms = 0.0;
};

/** The seed's permutation of job indices (Fisher-Yates, splitmix64). */
std::vector<std::size_t>
submissionOrder(std::size_t jobs, std::uint64_t seed)
{
    std::vector<std::size_t> order(jobs);
    for (std::size_t i = 0; i < jobs; ++i)
        order[i] = i;
    std::uint64_t state = mixSeed(kOrderSalt, seed);
    for (std::size_t i = jobs; i > 1; --i) {
        state = mixSeed(state, i);
        std::swap(order[i - 1], order[state % i]);
    }
    return order;
}

/** Run every job once, submitted in @p order; results by job index. */
PassResult
runPass(const std::vector<SimJob> &jobs, const std::vector<std::size_t> &order,
        const std::vector<SceneData> &scenes, ThreadPool &pool)
{
    const std::size_t jobs_per_scene = jobs.size() / scenes.size();
    PassResult pass;
    pass.results.resize(jobs.size());
    pass.times.resize(jobs.size());
    const Clock::time_point start = Clock::now();
    std::vector<std::future<void>> done;
    done.reserve(jobs.size());
    for (std::size_t i : order) {
        done.push_back(pool.submit([&, i] {
            const SimJob &job = jobs[i];
            const Clock::time_point job_start = Clock::now();
            const double cpu_start = threadCpuMs();
            try {
                pass.results[i] =
                    SweepRunner::runJob(job, scenes[i / jobs_per_scene]);
            } catch (const std::exception &e) {
                pass.results[i].id = job.id;
                pass.results[i].ok = false;
                pass.results[i].error = e.what();
            }
            pass.times[i] = {msSince(job_start), threadCpuMs() - cpu_start};
        }));
    }
    for (std::future<void> &f : done)
        f.get();
    pass.wall_ms = msSince(start);
    return pass;
}

/**
 * Exact dataflow counters of every (scene, frame), from direct calls
 * into both simulators (runJob keeps only the summary).  Fails @p run
 * when their cycles disagree with runJob's.
 */
void
countDataflow(const std::vector<SimJob> &jobs,
              const std::vector<SceneData> &scenes,
              const std::vector<JobResult> &reference, ThreadPool &pool,
              RunResult &run)
{
    struct Counters
    {
        std::int64_t projected = 0, total = 0, fetches = 0, fetched = 0,
                     alpha_evals = 0;
        std::uint64_t cycles = 0;
    };
    const std::size_t jobs_per_scene = jobs.size() / scenes.size();
    std::vector<Counters> counters(jobs.size());
    std::vector<std::future<void>> done;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        done.push_back(pool.submit([&, i] {
            const SimJob &job = jobs[i];
            const SceneData &scene = scenes[i / jobs_per_scene];
            const Camera &cam =
                scene.trajectory.frame(static_cast<std::size_t>(job.frame));
            Counters &c = counters[i];
            if (job.backend == Backend::Gcc) {
                const GccFrameResult f =
                    GccAccelerator(job.variant.gcc).render(scene.cloud, cam);
                c.projected = f.flow.projected;
                c.total = f.flow.total;
                c.alpha_evals = f.flow.alpha_evals;
                c.cycles = f.total_cycles;
            } else {
                const GscoreFrameResult f =
                    GscoreSim(job.variant.gscore).renderFrame(scene.cloud, cam);
                c.fetches = f.flow.tile_fetches;
                c.fetched = f.flow.fetched_gaussians;
                c.alpha_evals = f.flow.alpha_evals;
                c.cycles = f.total_cycles;
            }
        }));
    }
    for (std::future<void> &f : done)
        f.get();

    Counters sum;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const Counters &c = counters[i];
        if (c.cycles != reference[i].cycles)
            run.fail("direct simulator call disagrees with runJob on job " +
                     std::to_string(jobs[i].id));
        sum.projected += c.projected;
        sum.total += c.total;
        sum.fetches += c.fetches;
        sum.fetched += c.fetched;
        sum.alpha_evals += c.alpha_evals;
    }
    const double preprocessed =
        static_cast<double>(sum.projected) / static_cast<double>(sum.total);
    const double loads =
        static_cast<double>(sum.fetches) / static_cast<double>(sum.fetched);
    const double alpha =
        static_cast<double>(sum.alpha_evals) / static_cast<double>(jobs.size());
    run.setLayer("core.preprocessed_share", preprocessed);
    run.setLayer("gscore.loads_per_gaussian", loads);
    run.setLayer("render.alpha_evals_per_frame", alpha);
    run.setExact("core.preprocessed_share", preprocessed);
    run.setExact("gscore.loads_per_gaussian", loads);
    run.setExact("render.alpha_evals_per_frame", alpha);
}

} // namespace

RunResult
runSimSweep(const RunArgs &args)
{
    RunResult run;
    run.exact_any_seed = true;

    SweepSpec spec;
    for (SceneId id : allScenes())
        spec.scenes.push_back(scenePreset(id));
    spec.backends = {Backend::Gcc, Backend::Gscore};
    spec.frames = kFrames;
    spec.scale = kScale;
    const std::vector<SimJob> jobs = expandSweep(spec);
    const std::vector<std::size_t> order = submissionOrder(jobs.size(), args.seed);
    const int passes = std::max(
        kMinPasses, static_cast<int>(std::lround(args.seconds * kPassesPerSecond)));

    // ---- Set-up: generate every scene, kSetupReps times.
    std::vector<SceneData> scenes;
    std::vector<double> generate_ms;
    std::size_t gaussians = 0;
    run.e2e.setup_s = timeSetup(args.exact_only ? 1 : kSetupReps, [&](int) {
        scenes.clear();
        gaussians = 0;
        const Clock::time_point start = Clock::now();
        for (const SceneSpec &scene : spec.scenes) {
            scenes.push_back(SweepRunner::buildScene(scene, kScale, kFrames));
            gaussians += scenes.back().cloud.size();
        }
        generate_ms.push_back(msSince(start));
    });

    ThreadPool pool(kWorkers);

    // ---- Warm-up pass: the bit-exact reference of every timed pass.
    const PassResult reference = runPass(jobs, order, scenes, pool);
    Digest outputs;
    for (const JobResult &r : reference.results) {
        if (!r.ok)
            run.fail("job " + std::to_string(r.id) + " failed: " + r.error);
        outputs.add(r.cycles);
        outputs.add(r.energy_mj);
        outputs.add(r.dram_bytes);
        outputs.add(r.image_checksum);
    }

    // ---- Cycle-model ratios over matched (scene, frame) pairs.
    std::vector<double> speedups, energy_effs;
    std::uint64_t gcc_cycles = 0, gscore_cycles = 0, gcc_dram = 0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i + 1 < reference.results.size(); i += 2) {
        const JobResult &gcc = reference.results[i];
        const JobResult &gscore = reference.results[i + 1];
        if (!gcc.ok || !gscore.ok || gcc.backend != Backend::Gcc ||
            gscore.backend != Backend::Gscore || gcc.cycles == 0 ||
            gcc.energy_mj <= 0.0)
            continue;
        speedups.push_back(static_cast<double>(gscore.cycles) /
                           static_cast<double>(gcc.cycles));
        energy_effs.push_back(gscore.energy_mj / gcc.energy_mj);
        gcc_cycles += gcc.cycles;
        gscore_cycles += gscore.cycles;
        gcc_dram += gcc.dram_bytes;
        ++pairs;
    }
    if (pairs * 2 != jobs.size())
        run.fail("not every (scene, frame) has a gcc and a gscore result");
    run.e2e.sim_speedup = geomean(speedups);
    run.e2e.sim_energy_eff = geomean(energy_effs);
    const double per_pair = 1.0 / static_cast<double>(std::max<std::size_t>(1, pairs));
    run.setLayer("core.sim_cycles_per_frame", static_cast<double>(gcc_cycles) * per_pair);
    run.setLayer("gscore.sim_cycles_per_frame",
                 static_cast<double>(gscore_cycles) * per_pair);
    run.setLayer("core.dram_mb_per_frame",
                 static_cast<double>(gcc_dram) / 1048576.0 * per_pair);
    run.setExact("sim_speedup_vs_gscore", run.e2e.sim_speedup);
    run.setExact("sim_energy_eff_vs_gscore", run.e2e.sim_energy_eff);
    run.setExact("jobs.outputs_digest", outputs.value());
    run.setExact("core.sim_cycles_per_frame", run.layer["core.sim_cycles_per_frame"]);
    run.setExact("gscore.sim_cycles_per_frame",
                 run.layer["gscore.sim_cycles_per_frame"]);
    run.setExact("core.dram_mb_per_frame", run.layer["core.dram_mb_per_frame"]);

    if (args.trace || args.exact_only)
        countDataflow(jobs, scenes, reference.results, pool, run);
    if (args.exact_only)
        return run;

    // ---- Timed passes.  Latency is a
    // job's service time on its worker (thread CPU time, so a worker
    // descheduled by the host does not count as a slower job).  A
    // traced run alternates untraced and traced passes: the traced
    // ones give the per-layer job costs, the untraced ones the
    // trace-overhead baseline.
    std::vector<double> traced_fps, untraced_fps, job_cpu_ms;
    std::vector<double> gcc_cpu_ms, gscore_cpu_ms, gcc_ns_per_gaussian;
    double traced_wall_ms = 0.0, busy_ms = 0.0;
    for (int p = 0; p < passes; ++p) {
        const bool traced = args.trace && p % 2 == 1;
        const PassResult pass = runPass(jobs, order, scenes, pool);
        std::uint64_t good = 0;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const JobResult &r = pass.results[i];
            const bool ok = r.ok && reference.results[i].ok &&
                            sameSimOutput(r, reference.results[i]);
            if (!ok && run.correct)
                run.fail("pass " + std::to_string(p) + " job " +
                         std::to_string(r.id) +
                         " differs from the reference pass");
            good += ok ? 1 : 0;
            const JobTime &t = pass.times[i];
            run.e2e.latency_ms.push_back(t.cpu_ms);
            if (!traced)
                continue;
            job_cpu_ms.push_back(t.cpu_ms);
            busy_ms += t.wall_ms;
            if (jobs[i].backend == Backend::Gcc) {
                const std::size_t scene_size =
                    scenes[i / (jobs.size() / scenes.size())].cloud.size();
                gcc_cpu_ms.push_back(t.cpu_ms);
                gcc_ns_per_gaussian.push_back(t.cpu_ms * 1e6 /
                                              static_cast<double>(scene_size));
            } else {
                gscore_cpu_ms.push_back(t.cpu_ms);
            }
        }
        run.attempted += jobs.size();
        run.failed += jobs.size() - good;
        run.e2e.offered += jobs.size();
        run.e2e.on_time_correct += good;
        const double fps = jobs.size() * 1000.0 / pass.wall_ms;
        run.e2e.throughput_fps.push_back(fps);
        run.e2e.goodput_fps.push_back(good * 1000.0 / pass.wall_ms);
        (traced ? traced_fps : untraced_fps).push_back(fps);
        if (traced)
            traced_wall_ms += pass.wall_ms;
    }

    run.meta = {
        {"scale", std::to_string(kScale)},
        {"scenes", std::to_string(spec.scenes.size()) + " presets"},
        {"frames_per_scene", std::to_string(kFrames)},
        {"backends", "gcc,gscore"},
        {"jobs_per_pass", std::to_string(jobs.size())},
        {"timed_passes", std::to_string(passes) + " after 1 reference pass"},
        {"setup_reps", std::to_string(kSetupReps)},
        {"loop", "closed (batch); latency = per-job worker CPU time"},
    };
    if (!args.trace)
        return run;

    const double gen_ms = median(generate_ms);
    run.setLayer("scene.generate_ms", gen_ms, generate_ms.size());
    run.setLayer("scene.generate_ns_per_gaussian",
                 gen_ms * 1e6 / static_cast<double>(gaussians),
                 generate_ms.size());
    run.setLayer("runtime.job_ms_p50", median(job_cpu_ms), job_cpu_ms.size());
    run.setLayer("runtime.worker_busy_share",
                 busy_ms / (kWorkers * traced_wall_ms), job_cpu_ms.size());
    run.setLayer("core.host_ms_per_frame", median(gcc_cpu_ms), gcc_cpu_ms.size());
    run.setLayer("core.host_ns_per_gaussian", median(gcc_ns_per_gaussian),
                 gcc_ns_per_gaussian.size());
    run.setLayer("gscore.host_ms_per_frame", median(gscore_cpu_ms),
                 gscore_cpu_ms.size());
    run.setLayer("bench.trace_overhead_share",
                 1.0 - median(traced_fps) / median(untraced_fps),
                 traced_fps.size() + untraced_fps.size());
    return run;
}

} // namespace perfbench
