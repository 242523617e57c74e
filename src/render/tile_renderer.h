/**
 * @file
 * Standard-dataflow functional renderer: preprocess-then-render with
 * tile-wise rasterization (the pipeline GSCore and the reference GPU
 * rasterizer share, Sec. 2).
 *
 * For a frame: every Gaussian is preprocessed (projection + SH),
 * splats are bound to the fixed-size tiles they overlap (KV pairs),
 * each tile sorts its splats by depth and alpha-blends front-to-back
 * with per-pixel early termination.
 *
 * Besides the image, the renderer reports the dataflow statistics the
 * paper profiles: per-Gaussian tile loads (Fig. 2b), rendered vs
 * preprocessed counts (Fig. 2a), KV pair counts and per-pixel alpha
 * evaluation counts (Table 1, Fig. 11).
 *
 * The fast path is four stages: prepare (one fused pass that projects
 * simd::kWidth Gaussians per lane group straight into the SoA splat
 * store — projection, SH color, tile range, OBB and iteration bounds,
 * with no intermediate splat list), cover (each splat's tile
 * coverage, walked once), bin (counting scatter into one flat
 * per-tile key-value array) and raster (per-tile LSD radix depth sort
 * of fresh lists, per-splat pixel iteration bounded by the
 * cutoff-safe footprint rect — skipped pixels are accounted
 * analytically, so the reported hardware stats do not change —
 * blended one SIMD lane group at a time, exponential included, into
 * per-tile planar accumulators, and one chunk-ordered merge).  render() runs all four
 * over every tile; renderTemporal() runs the same four on a full
 * rebuild, and prepare, cover and raster of the dirty tiles on an
 * incremental frame; tilesPerSplat() packs a given splat list with
 * SplatSoA::build and runs cover.  Both fast paths read the frame's
 * Gaussians through a CloudView, so a LOD cut renders from its
 * resident chunks without being copied; a GaussianCloud converts to
 * a one-span view.  renderReference() is the direct scalar
 * transcription they are validated against — preprocessAll, nested
 * per-tile vectors, comparator stable_sort, full-tile pixel sweeps.
 *
 * Both produce bit-identical images and identical StandardFlowStats;
 * tests/test_renderer_equivalence.cc locks that in across bounding
 * modes and tile sizes.
 */

#ifndef GCC3D_RENDER_TILE_RENDERER_H
#define GCC3D_RENDER_TILE_RENDERER_H

#include <cstdint>
#include <vector>

#include "render/image.h"
#include "render/preprocess.h"
#include "render/render_stats.h"
#include "render/splat_soa.h"
#include "render/temporal_cache.h"
#include "scene/camera.h"
#include "scene/gaussian_cloud.h"

namespace gcc3d {

/** Configuration of the standard-dataflow renderer. */
struct TileRendererConfig
{
    int tile_size = 16;                       ///< pixels per tile side
    BoundingMode bounding = BoundingMode::Obb3Sigma;
    float termination_t = 1e-4f;              ///< early-termination T
    float alpha_cutoff = kAlphaMin;           ///< min blended alpha

    /**
     * Near-exact settings used as the quality ground truth of Table 2:
     * generous bounds, negligible cutoffs — removes every
     * approximation the three pipelines differ in.
     */
    static TileRendererConfig
    groundTruth()
    {
        TileRendererConfig c;
        c.bounding = BoundingMode::Conservative;
        c.termination_t = 1e-7f;
        c.alpha_cutoff = 1e-6f;
        return c;
    }
};

/**
 * Standard-dataflow renderer (tile-wise, decoupled two-stage).
 *
 * Thread safety: render() keeps all per-frame state on the stack and
 * only reads config_ and its const arguments, so one renderer (or
 * one per thread) may render concurrently, including from a shared
 * const GaussianCloud.  A ThreadPool passed to render() or
 * renderTemporal() fans out the prepare and raster stages and may
 * be shared between renderers.
 */
class TileRenderer
{
  public:
    explicit TileRenderer(TileRendererConfig config = {})
        : config_(config) {}

    const TileRendererConfig &config() const { return config_; }

    /**
     * Render a frame (optimized path).
     *
     * @param view   the scene's Gaussians, indexed in view order (a
     *               GaussianCloud converts to a one-span view; a LOD
     *               cut's view spans its resident chunks), rendered
     *               bit-identically to their concatenation as one
     *               cloud
     * @param cam    viewpoint
     * @param stats  populated with dataflow counters
     * @param pool   optional worker pool: fans out the prepare
     *               stage and the per-tile rasterization loop (tiles
     *               cover disjoint pixels and disjoint slices of the
     *               binned splat lists; per-chunk counters and
     *               unique-splat maps merge deterministically).  Null
     *               renders serially; the image and stats are
     *               bit-identical either way.
     */
    Image render(const CloudView &view, const Camera &cam,
                 StandardFlowStats &stats,
                 ThreadPool *pool = nullptr) const;

    /**
     * Render a frame of a trajectory stream with temporal coherence.
     *
     * @p cache carries the cross-frame state (see temporal_cache.h
     * for the tier breakdown and ownership rules).  With
     * cache.options.every == 1 the output is bit-identical to
     * render() of the same (cloud, cam) no matter what the cache
     * held — unchanged tiles keep last frame's composited pixels, a
     * bit-equal camera serves the retained frame as is, and any
     * scene/config change falls back to a full rebuild.  With every
     * == k > 1, only every k-th frame renders exactly; frames in
     * between are synthesized by per-pixel depth reprojection from
     * the last exact frame, which the cache retains in place
     * (>= 40 dB PSNR contract, bench-enforced).
     *
     * Stats semantics: the flow counters report the work actually
     * performed this frame (a reused tile contributes no sorts or
     * blends; a copied or warped frame contributes almost nothing),
     * so savings show up in the counters as well as the clock.
     * Unique-population counters (fetched/rendered Gaussians) cover
     * only the re-rasterized tiles.  cache.counters() attributes
     * frames and tiles to the path that produced them.
     *
     * Frames of one cache must be rendered sequentially (external
     * happens-before); @p pool only fans out the prepare stage
     * and dirty-tile rasterization, never frame-level state.
     *
     * @p force_warp asks for a synthesized frame regardless of the
     * every-k cadence (the serving degradation ladder's warp tier;
     * requires cache.options.keep_exact or every > 1 so a warp
     * source exists).  Best-effort: if no exact source is valid yet
     * or the camera left the trust region, the frame renders exactly
     * instead — callers detect which path served the frame via
     * cache.counters().warped_frames.
     *
     * Returns the frame held by @p cache — the retained exact frame
     * (which is also the warp source) or the last synthesized one —
     * without copying it.  The reference stays valid until the next
     * renderTemporal() or reset() on the same cache; copy it to keep
     * the frame longer.
     */
    const Image &renderTemporal(const CloudView &view, const Camera &cam,
                                StandardFlowStats &stats,
                                TemporalCache &cache,
                                ThreadPool *pool = nullptr,
                                bool force_warp = false) const;

    /**
     * Render a frame through the retained reference implementation
     * (scalar binning into nested vectors, comparator stable_sort,
     * full-tile pixel sweeps).  Used by the equivalence tests and the
     * frame-throughput benchmark as the speedup baseline; produces
     * bit-identical images and stats to render().
     *
     * A non-null @p depth receives the per-pixel depth the temporal
     * warp source captures (row-major, 0 where nothing contributed):
     * in blend order, a splat's depth is stored when the pixel has
     * none yet or when the splat drags its transmittance from >= 0.5
     * to < 0.5 — the oracle of renderTemporal()'s lane-group capture.
     */
    Image renderReference(const GaussianCloud &cloud, const Camera &cam,
                          StandardFlowStats &stats,
                          std::vector<float> *depth = nullptr) const;

    /**
     * Tile coverage only: returns the number of tiles each splat maps
     * to under the configured bounding mode (used by Fig. 2b without
     * paying for full rendering), read from the render paths' cover
     * stage.
     */
    std::vector<int> tilesPerSplat(const std::vector<Splat> &splats,
                                   const Camera &cam) const;

  private:
    TileRendererConfig config_;
};

} // namespace gcc3d

#endif // GCC3D_RENDER_TILE_RENDERER_H
