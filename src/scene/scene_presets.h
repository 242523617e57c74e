/**
 * @file
 * The six evaluation scenes of the paper as SceneSpec presets.
 *
 * Gaussian counts follow the published 3DGS model sizes (Fig. 2a);
 * resolutions follow the standard evaluation resolutions of each
 * dataset.  The remaining generator knobs (clustering, opacity mix,
 * footprint distribution) are calibrated so that the dataflow
 * statistics the paper reports — in-frustum fraction, unused-Gaussian
 * fraction (Fig. 2a), per-Gaussian tile loads (Fig. 2b) — land in the
 * paper's bands.  EXPERIMENTS.md records paper-vs-measured values.
 */

#ifndef GCC3D_SCENE_SCENE_PRESETS_H
#define GCC3D_SCENE_SCENE_PRESETS_H

#include <string>
#include <vector>

#include "scene/scene_generator.h"

namespace gcc3d {

/** Identifiers for the paper's six evaluation scenes. */
enum class SceneId
{
    Palace,    ///< synthetic, compact, object-centric
    Lego,      ///< synthetic NeRF scene, object-centric
    Train,     ///< Tanks&Temples, outdoor
    Truck,     ///< Tanks&Temples, outdoor
    Playroom,  ///< Deep Blending, indoor
    Drjohnson, ///< Deep Blending, indoor, largest model
};

/** All six scenes in the paper's presentation order. */
const std::vector<SceneId> &allScenes();

/** Scene preset for @p id (counts, layout, camera). */
SceneSpec scenePreset(SceneId id);

/** Human-readable scene name ("Train", ...). */
std::string sceneName(SceneId id);

/** Parse a scene name (case-insensitive); throws on unknown names. */
SceneId sceneFromName(const std::string &name);

/**
 * The city-scale fly-through preset behind perfbench's lod_stream,
 * the LodServe budget test and the --city serving flag: a Street-layout corridor with @p gaussian_count
 * splats (default 10M — ~30x the largest paper preset, far past what
 * a full-precision in-RAM GaussianCloud serves comfortably).  Not a
 * paper scene, so it is deliberately outside SceneId/allScenes(); it
 * exists to exercise the .gsc v2 + clustered-LOD + residency path.
 */
SceneSpec citySpec(std::size_t gaussian_count = 10000000);

/**
 * Population scale used by benchmarks; reads the GCC3D_SCALE
 * environment variable (default 1.0 = paper-scale populations).
 * Unit tests pass explicit small scales instead.
 */
float benchScale();

} // namespace gcc3d

#endif // GCC3D_SCENE_SCENE_PRESETS_H
