#include "runtime/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <stdexcept>

#include "obs/perf_recorder.h"
#include "runtime/mutex.h"
#include "runtime/thread_annotations.h"

#include "core/accelerator.h"
#include "gscore/gscore_sim.h"
#include "scene/scene_io.h"
#include "scene/scene_presets.h"

namespace gcc3d {

std::string
backendName(Backend backend)
{
    switch (backend) {
    case Backend::Gcc:
        return "gcc";
    case Backend::Gscore:
        return "gscore";
    case Backend::Gpu:
        return "gpu";
    }
    return "unknown";
}

Backend
backendFromName(const std::string &name)
{
    std::string lower;
    for (char c : name)
        lower.push_back(
            static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    if (lower == "gcc")
        return Backend::Gcc;
    if (lower == "gscore")
        return Backend::Gscore;
    if (lower == "gpu")
        return Backend::Gpu;
    throw std::invalid_argument("unknown backend: " + name);
}

bool
sameSimOutput(const JobResult &a, const JobResult &b)
{
    return a.id == b.id && a.scene == b.scene && a.variant == b.variant &&
           a.backend == b.backend && a.frame == b.frame && a.ok == b.ok &&
           a.error == b.error && a.fps == b.fps &&
           a.frame_ms == b.frame_ms && a.cycles == b.cycles &&
           a.energy_mj == b.energy_mj && a.dram_mj == b.dram_mj &&
           a.dram_bytes == b.dram_bytes && a.area_mm2 == b.area_mm2 &&
           a.cmode == b.cmode && a.subview_size == b.subview_size &&
           a.image_checksum == b.image_checksum;
}

SweepSpec &
SweepSpec::addScene(SceneId id)
{
    scenes.push_back(scenePreset(id));
    return *this;
}

std::vector<SimJob>
expandSweep(const SweepSpec &spec)
{
    std::vector<SimJob> jobs;
    jobs.reserve(spec.jobCount());
    int id = 0;
    for (const SceneSpec &scene : spec.scenes) {
        for (int frame = 0; frame < spec.frames; ++frame) {
            for (const ConfigVariant &variant : spec.variants) {
                for (Backend backend : spec.backends) {
                    SimJob job;
                    job.id = id++;
                    job.spec = scene;
                    job.scale = spec.scale;
                    job.frame = frame;
                    job.frame_count = spec.frames;
                    job.backend = backend;
                    job.variant = variant;
                    jobs.push_back(std::move(job));
                }
            }
        }
    }
    return jobs;
}

double
imageChecksum(const Image &image)
{
    double sum = 0.0;
    for (const Vec3 &p : image.pixels())
        sum += static_cast<double>(p.x) + static_cast<double>(p.y) +
               static_cast<double>(p.z);
    return sum;
}

SceneData
SweepRunner::buildScene(const SceneSpec &spec, float scale, int frames,
                        const std::string &cache_dir)
{
    if (scale <= 0.0f || scale > 1.0f)
        throw std::invalid_argument("scene scale must be in (0, 1]");
    if (frames < 1)
        throw std::invalid_argument("sweep needs at least one frame");
    SceneData data;
    data.cloud = loadOrGenerateScene(spec, scale, cache_dir);
    data.trajectory = Trajectory::forScene(spec, frames);
    return data;
}

JobResult
SweepRunner::runJob(const SimJob &job, const SceneData &scene)
{
    JobResult r;
    r.id = job.id;
    r.scene = job.spec.name;
    r.variant = job.variant.name;
    r.backend = job.backend;
    r.frame = job.frame;

    if (job.frame < 0 ||
        static_cast<std::size_t>(job.frame) >= scene.trajectory.frameCount())
        throw std::out_of_range("trajectory frame index out of range");
    const Camera &cam = scene.trajectory.frame(
        static_cast<std::size_t>(job.frame));

    // wall_ms is bench output (result CSV/JSON), so it reads the
    // behavioral clock — real in GCC3D_OBS=OFF builds; the recorder
    // sample below is the observability copy.
    const MonoTime start = obs::tickNow();
    switch (job.backend) {
    case Backend::Gcc: {
        GccAccelerator acc(job.variant.gcc);
        GccFrameResult f = acc.render(scene.cloud, cam);
        r.fps = f.fps;
        r.frame_ms = f.fps > 0.0 ? 1000.0 / f.fps : 0.0;
        r.cycles = f.total_cycles;
        r.energy_mj = f.energy.total();
        r.dram_mj = f.energy.dram_mj;
        r.dram_bytes = f.dram_bytes_total;
        r.area_mm2 = acc.areaMm2();
        r.cmode = f.cmode;
        r.subview_size = f.subview_size;
        r.image_checksum = imageChecksum(f.image);
        break;
    }
    case Backend::Gscore: {
        GscoreSim sim(job.variant.gscore);
        GscoreFrameResult f = sim.renderFrame(scene.cloud, cam);
        r.fps = f.fps;
        r.frame_ms = f.fps > 0.0 ? 1000.0 / f.fps : 0.0;
        r.cycles = f.total_cycles;
        r.energy_mj = f.energy.total();
        r.dram_mj = f.energy.dram_mj;
        r.dram_bytes = f.dram_bytes_total;
        r.area_mm2 = sim.chip().totalArea();
        r.image_checksum = imageChecksum(f.image);
        break;
    }
    case Backend::Gpu: {
        // Roofline model of the GCC dataflow on the platform (Sec. 6):
        // functional GW render supplies the activity counts.
        GaussianWiseRenderer renderer;
        GaussianWiseStats stats;
        Image image = renderer.render(scene.cloud, cam, stats);
        GpuModel model(job.variant.gpu);
        DataflowBreakdown b = model.gccDataflow(stats);
        r.frame_ms = b.total();
        r.fps = b.total() > 0.0 ? 1000.0 / b.total() : 0.0;
        r.image_checksum = imageChecksum(image);
        break;
    }
    }
    r.wall_ms = msBetween(start, obs::tickNow());
    obs::PerfRecorder::global().addSample(
        obs::Stage::Job, r.wall_ms,
        obs::SampleTag{-1, job.frame, static_cast<std::uint32_t>(job.id)});
    r.ok = true;
    return r;
}

std::vector<JobResult>
SweepRunner::run(const SweepSpec &spec) const
{
    std::vector<SimJob> jobs = expandSweep(spec);

    // One slot per distinct scene: the first job to need a scene
    // generates it under the slot mutex (jobs racing for the same
    // scene serialize there; different scenes build concurrently),
    // and the slot drops its reference after the scene's last job so
    // peak memory tracks the scenes in flight, not the whole sweep.
    struct SceneSlot
    {
        Mutex mutex;
        bool built GUARDED_BY(mutex) = false;
        std::string build_error GUARDED_BY(mutex);
        std::shared_ptr<const SceneData> data GUARDED_BY(mutex);
        std::atomic<std::size_t> remaining{0};
    };
    auto slots = std::make_shared<std::vector<SceneSlot>>(spec.scenes.size());

    // Map each job to its scene slot by position in the expansion.
    std::size_t per_scene =
        static_cast<std::size_t>(spec.frames) * spec.variants.size() *
        spec.backends.size();
    for (SceneSlot &slot : *slots)
        slot.remaining.store(per_scene, std::memory_order_relaxed);

    ThreadPool pool(options_.workers);
    std::vector<std::future<JobResult>> futures;
    futures.reserve(jobs.size());
    for (SimJob &job : jobs) {
        std::size_t scene_idx =
            per_scene == 0 ? 0 : static_cast<std::size_t>(job.id) / per_scene;
        float scale = spec.scale;
        int frames = spec.frames;
        std::string cache_dir = options_.scene_cache_dir;
        futures.push_back(pool.submit(
            [job = std::move(job), slots, scene_idx, scale, frames,
             cache_dir = std::move(cache_dir)] {
                SceneSlot &slot = (*slots)[scene_idx];
                std::shared_ptr<const SceneData> scene;
                std::string build_error;
                {
                    MutexLock lock(slot.mutex);
                    if (!slot.built) {
                        slot.built = true;
                        try {
                            slot.data = std::make_shared<const SceneData>(
                                buildScene(job.spec, scale, frames,
                                           cache_dir));
                        } catch (const std::exception &e) {
                            slot.build_error = e.what();
                        }
                    }
                    scene = slot.data;
                    build_error = slot.build_error;
                }

                JobResult r;
                r.id = job.id;
                r.scene = job.spec.name;
                r.variant = job.variant.name;
                r.backend = job.backend;
                r.frame = job.frame;
                if (!scene) {
                    r.ok = false;
                    r.error = "scene generation failed: " + build_error;
                } else {
                    try {
                        r = runJob(job, *scene);
                    } catch (const std::exception &e) {
                        r.ok = false;
                        r.error = e.what();
                    }
                }

                scene.reset();
                if (slot.remaining.fetch_sub(
                        1, std::memory_order_acq_rel) == 1) {
                    MutexLock lock(slot.mutex);
                    slot.data.reset();
                }
                return r;
            }));
    }

    std::vector<JobResult> results;
    results.reserve(futures.size());
    for (std::future<JobResult> &f : futures) {
        results.push_back(f.get());
        if (options_.on_result)
            options_.on_result(results.back());
    }
    // Futures are collected in submission order, which is job-id
    // order; keep the sort as a guarantee rather than an assumption.
    std::sort(results.begin(), results.end(),
              [](const JobResult &a, const JobResult &b) {
                  return a.id < b.id;
              });
    return results;
}

} // namespace gcc3d
