/**
 * @file
 * Shared immutable scene state for multi-session serving.
 *
 * Many concurrent render sessions typically view a handful of scenes
 * (every headset in a venue streams the same venue model).  The
 * registry deduplicates that state: the first acquire() of a (spec,
 * scale, frames) key builds the GaussianCloud and Trajectory once —
 * optionally through the .gsc scene cache — and every later acquire()
 * of the same key returns shared_ptrs to the same immutable objects.
 * Both renderers document that concurrent rendering from a shared
 * const cloud is safe, so sessions never copy scene data.
 *
 * Clouds and trajectories are refcounted separately: sessions that
 * view the same scene through different trajectory lengths still
 * share the (much larger) cloud.
 */

#ifndef GCC3D_SERVE_SCENE_REGISTRY_H
#define GCC3D_SERVE_SCENE_REGISTRY_H

#include <map>
#include <memory>
#include <string>

#include "lod/lod_scene.h"
#include "runtime/mutex.h"
#include "runtime/thread_annotations.h"
#include "scene/scene_generator.h"
#include "scene/trajectory.h"

namespace gcc3d {

/**
 * Refcounted handles to one scene's serving state.  Exactly one of
 * cloud/lod is set: cloud for fully-resident scenes, lod for .gsc v2
 * LOD scenes served under a memory budget (sessions build a per-frame
 * cut instead of sharing one cloud).  The LodScene is shared across
 * sessions — its residency cache is thread-safe, and cut content is a
 * pure function of the camera, so sharing never changes pixels.
 */
struct SceneHandle
{
    std::shared_ptr<const GaussianCloud> cloud;
    std::shared_ptr<LodScene> lod;
    std::shared_ptr<const Trajectory> trajectory;
};

/** Thread-safe build-once cache of scene state shared across sessions. */
class SceneRegistry
{
  public:
    /** @param cache_dir .gsc cache for cloud builds; empty disables. */
    explicit SceneRegistry(std::string cache_dir = "")
        : cache_dir_(std::move(cache_dir)) {}

    SceneRegistry(const SceneRegistry &) = delete;
    SceneRegistry &operator=(const SceneRegistry &) = delete;

    /**
     * The shared handle for (spec, scale, frames, traj_arc); built on
     * first use.  @p traj_arc is the fraction of the scene's natural
     * camera path the trajectory covers in the same frame count
     * (Trajectory::forSceneArc) — 1.0 is the full path; smaller
     * values give the slow-motion streams temporal serving replays.
     * The arc is part of the trajectory key but not the cloud key, so
     * sessions at different arcs still share the cloud.  Throws what
     * scene generation/loading throws (on scale out of (0, 1] for
     * instance); a failed build is not cached.
     */
    SceneHandle acquire(const SceneSpec &spec, float scale, int frames,
                        float traj_arc = 1.0f);

    /**
     * The shared handle for the .gsc v2 LOD scene at @p path served
     * under @p budget_bytes of leaf-chunk residency; @p spec supplies
     * the camera path (trajectory + image size), not the content.
     * Sessions asking for the same (path, budget) share one LodScene
     * and with it one residency cache.  Throws what LodScene's
     * constructor throws on a missing or malformed file.
     */
    SceneHandle acquireLod(const std::string &path,
                           std::size_t budget_bytes, const SceneSpec &spec,
                           int frames, float traj_arc = 1.0f);

    /** Distinct clouds built so far (deduplication observability). */
    std::size_t cloudCount() const;

    /** Distinct trajectories built so far. */
    std::size_t trajectoryCount() const;

  private:
    std::string cache_dir_;  ///< immutable after construction

    /**
     * One registry-wide mutex guards all three dedup maps: builds of
     * distinct scenes serialize, which is acceptable because fleets
     * reuse few scenes and admission happens once per session, not
     * per frame.  The mapped objects themselves are immutable (or,
     * for LodScene, internally synchronized), so only the maps need
     * the lock.
     */
    mutable Mutex mutex_;
    std::map<std::string, std::shared_ptr<const GaussianCloud>>
        clouds_ GUARDED_BY(mutex_);
    std::map<std::string, std::shared_ptr<LodScene>>
        lod_scenes_ GUARDED_BY(mutex_);
    std::map<std::string, std::shared_ptr<const Trajectory>>
        trajectories_ GUARDED_BY(mutex_);
};

} // namespace gcc3d

#endif // GCC3D_SERVE_SCENE_REGISTRY_H
