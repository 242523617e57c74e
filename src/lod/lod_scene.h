/**
 * @file
 * A .gsc v2 LOD scene opened for rendering under a memory budget.
 *
 * LodScene glues the three pieces of the LOD subsystem together: the
 * GscV2Reader (chunk directory + always-resident proxy pyramid), the
 * camera-distance cut selector, and the budgeted ResidencyManager for
 * leaf chunks.  A *cut* is a per-frame GaussianCloud that renders
 * each chunk at exactly one level: leaves (level 0) when the chunk
 * subtends a large enough angle from the camera, a proxy level
 * otherwise.  Coarser chunks contribute proxies already in RAM;
 * level-0 chunks fault their leaves in through the residency cache,
 * cached leaves first so that a cut larger than the budget does not
 * evict the leaves it is about to reuse.
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

/** What a single buildCut() selected (for benches and tests). */
struct LodCutStats
{
    std::size_t leaf_chunks = 0;      ///< chunks rendered at level 0
    std::size_t proxy_chunks = 0;     ///< chunks rendered from proxies
    std::size_t cut_gaussians = 0;    ///< Gaussians in the returned cloud
    std::size_t leaf_gaussians = 0;   ///< of which full-detail leaves
    /** Leaf chunks served from their finest proxy because decode
     *  retries were exhausted (fault injection / persistent IO
     *  corruption only; see LodScene::loadLeaf). */
    std::size_t proxy_fallbacks = 0;
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
     * Build the cut cloud for @p camera.  Deterministic in (file,
     * camera, params); cache state never changes the result.
     */
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
};

} // namespace gcc3d

#endif // GCC3D_LOD_LOD_SCENE_H
