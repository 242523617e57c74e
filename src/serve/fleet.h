/**
 * @file
 * Fleet construction and the serial serving baseline.
 *
 * A FleetSpec describes a whole client population the way the serve
 * CLI and benchmark do: N sessions cycling through a scene list and a
 * renderer mix, sharing one frame count, scale and FPS target.
 * buildFleet() resolves it into live Sessions against a SceneRegistry
 * (so sessions viewing the same scene share its immutable state), and
 * renderSerial() is the one-session-at-a-time baseline the scheduled
 * fleet is benchmarked and checksum-verified against.
 */

#ifndef GCC3D_SERVE_FLEET_H
#define GCC3D_SERVE_FLEET_H

#include <vector>

#include "serve/load_gen.h"
#include "serve/scene_registry.h"
#include "serve/session.h"

namespace gcc3d {

/** Declarative description of a session fleet. */
struct FleetSpec
{
    int sessions = 8;       ///< client count
    int frames = 8;         ///< frames streamed per client
    float scale = 1.0f;     ///< population scale in (0, 1]
    double fps_target = 0.0; ///< per-session FPS target; 0 = best effort

    /** Scenes, assigned round-robin across sessions; must not be empty. */
    std::vector<SceneSpec> scenes;

    /** Renderer mix, assigned round-robin; must not be empty. */
    std::vector<SessionRenderer> renderers = {SessionRenderer::Tile};

    TileRendererConfig tile;
    GaussianWiseConfig gw;

    /**
     * When non-empty, every session serves the .gsc v2 LOD scene at
     * this path (built by src/lod/lod_builder) instead of generating
     * its scene; the scene list still supplies the camera paths.
     */
    std::string lod_path;

    /** Leaf-chunk residency budget for the LOD scene (bytes). */
    std::size_t lod_budget_bytes = 256u << 20;

    /** Cut selection shared by every LOD session. */
    LodCutParams lod_cut;

    /**
     * Temporal-coherence mode applied to every Tile resident-cloud
     * session (SessionConfig::temporal): 0 = off, 1 = exact
     * incremental mode, k > 1 = reproject the in-between frames.
     */
    int temporal = 0;

    /**
     * Fraction of each scene's natural camera path the trajectories
     * cover (Trajectory::forSceneArc); 1.0 is the full path.
     * Temporal serving replays shrink this so per-frame camera steps
     * model a headset stream rather than a whirlwind tour.
     */
    float traj_arc = 1.0f;

    /** Opt every session into the graceful-degradation ladder
     *  (SessionConfig::degrade and its knobs). */
    bool degrade = false;
    float degrade_render_scale = 0.5f;
    float degrade_tau_factor = 4.0f;
};

/**
 * Validate and normalize a fleet spec before any scene work: throws
 * std::invalid_argument on degenerate configs that would otherwise
 * flow into the EDF deadline math (negative, NaN or infinite
 * fps_target; sessions/frames < 1; empty scene or renderer lists;
 * out-of-range scale or degrade knobs; a LOD cut tau or bias that is
 * not finite and > 0, alone or scaled by degrade_tau_factor; see
 * lodCutParamsValid).  buildFleet() calls this
 * first; callers constructing SessionConfigs by hand can reuse it.
 */
void validateFleetSpec(const FleetSpec &spec);

/**
 * Resolve @p spec into live sessions (ids 0..sessions-1) sharing
 * scene state through @p registry.  Throws on an empty scene or
 * renderer list and on whatever scene building throws.
 */
std::vector<Session> buildFleet(const FleetSpec &spec,
                                SceneRegistry &registry);

/**
 * Resolve an open-loop arrival table (serve/load_gen.h) into live
 * sessions: one session per arrival, joining at arrival.start_ms
 * with its own frame count and FPS target; scenes and renderers are
 * assigned round-robin by arrival slot from @p spec's lists.
 * @p spec's sessions/frames/fps_target fields are ignored — the
 * arrival table is the population.  Scene state is shared through
 * @p registry exactly as in buildFleet.
 */
std::vector<Session> buildOpenLoopFleet(
    const FleetSpec &spec,
    const std::vector<serve::SessionArrival> &arrivals,
    SceneRegistry &registry);

/** Outcome of the serial one-session-at-a-time baseline. */
struct SerialBaseline
{
    double wall_ms = 0.0;
    double fleet_fps = 0.0;           ///< frames rendered / wall time
    std::vector<double> checksums;    ///< per-session frame-order sums
};

/**
 * Render every session's frames in order, one session after another,
 * on the calling thread — the no-scheduler baseline.  The per-session
 * checksums are the ground truth any scheduled run must reproduce.
 * Each session's temporal frame state is released after its replay.
 */
SerialBaseline renderSerial(const std::vector<Session> &sessions);

} // namespace gcc3d

#endif // GCC3D_SERVE_FLEET_H
