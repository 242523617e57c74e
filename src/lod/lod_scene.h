/**
 * @file
 * A .gsc v2 LOD scene opened for rendering under a memory budget.
 *
 * LodScene glues the three pieces of the LOD subsystem together: the
 * GscV2Reader (chunk directory + always-resident proxy pyramid), the
 * camera-distance cut selector, and the budgeted ResidencyManager for
 * leaf chunks.  A *cut* renders each chunk at exactly one level:
 * leaves (level 0) when the chunk subtends a large enough angle from
 * the camera, a proxy level otherwise.  It is a list of borrowed
 * spans in chunk order — proxies point into the always-resident
 * pyramid, leaves into decoded chunks the cut pins for its lifetime —
 * that both renderers read directly, so no Gaussian is copied.
 * Level-0 chunks fault their leaves in through the residency cache,
 * cached leaves first so that a cut larger than the budget does not
 * evict the leaves it is about to reuse; a pinned leaf evicted while
 * the frame renders is freed when the cut drops its pin.  A chunk
 * whose AABB lies wholly outside the camera's frustum
 * (Camera::boxOutsideFrustum) is absent from the cut at whatever
 * level it was selected: none of its Gaussians could pass projection,
 * so it is never looked up, faulted or decoded, and the survivors
 * keep their chunk order.  The cull trusts each chunk's directory
 * AABB to bound its Gaussians' means, as every file the LOD builder
 * writes does.  buildCut() copies a cut into a GaussianCloud for
 * callers that need an owning cloud (tests, the lod_stream bench).
 *
 * The cut depends only on the camera and the cut parameters — never
 * on cache state (over-budget chunks load transiently rather than
 * being skipped) — so two sessions with equal cameras render
 * identical pixels regardless of budget or access history.
 */

#ifndef GCC3D_LOD_LOD_SCENE_H
#define GCC3D_LOD_LOD_SCENE_H

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "lod/residency.h"
#include "obs/metrics_registry.h"
#include "runtime/mutex.h"
#include "runtime/thread_annotations.h"
#include "scene/camera.h"
#include "scene/gaussian_cloud.h"
#include "scene/scene_io.h"

namespace gcc3d {

/** Per-frame LOD cut selection parameters. */
struct LodCutParams
{
    /**
     * Angular threshold (radians): a chunk whose AABB diagonal
     * subtends at least tau from the camera renders its leaves;
     * smaller chunks drop one proxy level per halving below tau.
     */
    float tau = 0.08f;

    /** Multiplier on the subtended angle (>1 biases toward leaves). */
    float bias = 1.0f;

    /**
     * Force every chunk to one level (0 = leaves, k = proxy level k,
     * clamped to the file's depth); -1 = distance-based selection.
     * The per-level PSNR benchmark uses this to isolate levels.
     */
    int force_level = -1;
};

/**
 * True when @p params' tau and bias are finite and > 0, and so is tau
 * scaled by @p tau_factor (the serving ladder's coarse-LOD tier).
 * Sessions and fleets reject anything else up front.
 */
bool lodCutParamsValid(const LodCutParams &params, float tau_factor = 1.0f);

/**
 * What a single cut() selected (for benches and tests).  The
 * selection counters include frustum-culled chunks, so they depend on
 * the camera position and the cut parameters only; the cut holds
 * cut_gaussians - culled_gaussians Gaussians.
 */
struct LodCutStats
{
    std::size_t leaf_chunks = 0;      ///< chunks selected at level 0
    std::size_t proxy_chunks = 0;     ///< chunks selected from proxies
    std::size_t cut_gaussians = 0;    ///< Gaussians the selection picked
    std::size_t leaf_gaussians = 0;   ///< of which full-detail leaves
    std::size_t culled_chunks = 0;    ///< selected, but outside the frustum
    std::size_t culled_gaussians = 0; ///< their Gaussians, not in the cloud
    /** Leaf chunks served from their finest proxy because decode
     *  retries were exhausted (fault injection / persistent IO
     *  corruption only; see LodScene::loadLeaf). */
    std::size_t proxy_fallbacks = 0;
};

/**
 * One frame's cut: the selected chunks' Gaussians as spans in chunk
 * order, and a pin on every decoded leaf chunk a span points into.
 * Proxy spans point into the LodScene's always-resident pyramid, so
 * the scene must outlive the cut.  Gaussian i of the view is Gaussian
 * i of the cloud buildCut() would return.
 */
struct LodCut
{
    CloudView view;
    std::vector<std::shared_ptr<const ResidentChunk>> pins;
};

/**
 * Declared PSNR floor (dB) of rendering a preset scene with every
 * chunk forced to proxy level @p level, against the full-resolution
 * render.  The lod_psnr_floors contract of bench/contracts measures
 * the actual PSNR per level on the preset scenes at paper scale and
 * fails if any level lands under its floor, so regressions in the
 * merge math or the quantizer fail CI rather than drift silently.
 */
float lodPsnrFloorDb(int level);

/**
 * An opened v2 LOD scene file.  Construction reads the directory and
 * proxy pyramid (throws std::runtime_error on malformed files, like
 * loadCloud); leaves are decoded on demand under @p budget_bytes.
 */
class LodScene
{
  public:
    LodScene(const std::string &path, std::size_t budget_bytes);

    const std::string &name() const { return reader_->name(); }
    std::uint64_t totalCount() const { return reader_->totalCount(); }
    std::size_t chunkCount() const { return reader_->chunkCount(); }
    int proxyLevels() const { return reader_->proxyLevels(); }

    /** Decoded bytes of the always-resident proxy pyramid. */
    std::size_t alwaysResidentBytes() const { return proxy_bytes_; }

    /**
     * The cut for @p camera: the chunks its position selects, less
     * those outside its frustum, in chunk order.  Deterministic in
     * (file, camera, params); cache state never changes the result.
     */
    LodCut cut(const Camera &camera, const LodCutParams &params,
               LodCutStats *stats = nullptr);

    /** cut() copied into one cloud (counted in lod.cut.copied_bytes). */
    GaussianCloud buildCut(const Camera &camera, const LodCutParams &params,
                           LodCutStats *stats = nullptr);

    /**
     * The full-detail scene in original index order (LOD off).  For a
     * lossless file this reproduces the source cloud bit-exactly;
     * decodes every chunk transiently, so RAM spikes to scene size.
     */
    GaussianCloud fullCloud();

    /** Residency cache counters (budget accounting lives there). */
    ResidencyManager::Stats residencyStats() const
    {
        return residency_.stats();
    }

    std::size_t budgetBytes() const { return residency_.budgetBytes(); }

  private:
    std::shared_ptr<const ResidentChunk> loadLeaf(std::size_t index);

    /** Read leaf chunk @p index under stream_mutex_, decode unlocked. */
    void decodeLeaf(std::size_t index, std::vector<Gaussian> &gaussians,
                    std::vector<std::uint32_t> &indices);

    /** Chunk reads seek the one stream; the mutex guards only that
     *  seek and read, never the decode that follows. */
    std::ifstream stream_ GUARDED_BY(stream_mutex_);
    Mutex stream_mutex_;
    /** Directory + proxy pyramid: immutable after construction.  Its
     *  readChunk() only mutates the stream passed in, which callers
     *  hand over under stream_mutex_; decodeChunk() is const. */
    std::unique_ptr<GscV2Reader> reader_;
    ResidencyManager residency_;  ///< internally synchronized
    std::size_t proxy_bytes_ = 0; ///< immutable after construction
    obs::Counter &obs_culled_chunks_;     ///< lod.cut.culled_chunks
    obs::Counter &obs_culled_gaussians_;  ///< lod.cut.culled_gaussians
    obs::Counter &obs_copied_bytes_;      ///< lod.cut.copied_bytes
};

} // namespace gcc3d

#endif // GCC3D_LOD_LOD_SCENE_H
