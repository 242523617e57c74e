/**
 * @file
 * Functional model of the GCC dataflow (Sec. 3): Gaussian-wise
 * rendering with cross-stage conditional processing.
 *
 * The four stages:
 *   I   Gaussian grouping by depth (near-plane pivot cull, depth
 *       groups of at most N Gaussians, near-to-far order),
 *   II  position and shape projection (PPU/RU/SCU; omega-sigma cull),
 *   III color mapping (SH) and intra-group depth sorting,
 *   IV  alpha computation (Algorithm 1 block traversal, T-mask) and
 *       front-to-back blending.
 *
 * Cross-stage conditional processing: groups are preprocessed only
 * while at least one pixel still accepts contributions; once the
 * frame-wide transmittance termination criterion is met, all deeper
 * groups are skipped entirely (never loaded, projected or shaded).
 *
 * Compatibility Mode (Sec. 4.6): the image is partitioned into
 * sub-views rendered independently; Gaussians are binned spatially,
 * so one Gaussian may be re-processed once per overlapping sub-view
 * (measured by Fig. 6).
 *
 * Two implementations of the frame are kept:
 *
 *  - render(): the fast path, one pipeline over a CloudView — a
 *    chunked SIMD depth pass with the pivot cull; in Cmode one
 *    shared projection pass feeding both the spatial binning and
 *    Stage II (each Gaussian is projected once per frame instead of
 *    once for binning plus once per overlapping sub-view), while the
 *    full view's Stage II projects group by group, so a group
 *    cross-stage termination skips is never projected; then the same
 *    Stages II-IV per view: each splat's block footprint evaluated once
 *    as a reach bitmap (render/boundary.h's ReachWindow) that both
 *    the conditional-loading decision and the block walk read, a
 *    statically-dispatched row-major walk of the flooded bitmap
 *    whose visitor blends whole SIMD lane groups, exponential
 *    included, into planar per-view accumulators (see
 *    render/lane_blend.h), pooled per-view scratch buffers, and —
 *    Cmode sub-views being disjoint — optional multi-threaded
 *    sub-view rendering with one deterministic view-ordered merge;
 *  - renderReference(): the direct scalar transcription the fast
 *    path is validated against (per-group projectGaussian calls,
 *    a blockReachable loop for conditional loading, the
 *    breadth-first std::function traversal, fresh per-view buffers,
 *    serial sub-views).
 *
 * Both produce bit-identical images and identical GaussianWiseStats
 * (including the group trace); tests/test_gw_equivalence.cc locks
 * that in across view modes, conditional settings and thread counts.
 */

#ifndef GCC3D_RENDER_GAUSSIAN_WISE_RENDERER_H
#define GCC3D_RENDER_GAUSSIAN_WISE_RENDERER_H

#include <vector>

#include "render/boundary.h"
#include "render/image.h"
#include "render/preprocess.h"
#include "render/render_stats.h"
#include "scene/camera.h"
#include "scene/gaussian_cloud.h"

namespace gcc3d {

class ThreadPool;
namespace obs {
class StageTimer;
}

/** Configuration of the Gaussian-wise renderer. */
struct GaussianWiseConfig
{
    int group_capacity = 256;      ///< max Gaussians per depth group (N)
    int block_size = 8;            ///< Alpha Unit PE array side (n)
    float termination_t = 1e-4f;   ///< per-pixel termination threshold
    float depth_pivot = 0.2f;      ///< Stage I z cull pivot

    /**
     * Cross-stage conditional processing.  When false, every depth
     * group is preprocessed and shaded regardless of termination
     * (the "GW"-only ablation point of Fig. 11); rendering itself
     * still honours the per-pixel/per-block T-mask, as the baseline's
     * early termination does.
     */
    bool conditional = true;

    /**
     * Compatibility-mode sub-view side in pixels; 0 renders the full
     * view at once (no Cmode).
     */
    int subview_size = 0;

    /**
     * Copy with degenerate values clamped to the smallest legal
     * setting (group_capacity/block_size >= 1, subview_size >= 0).
     * The renderer constructor applies this, so a zero or negative
     * group capacity can never wedge the grouping loop.
     */
    GaussianWiseConfig
    validated() const
    {
        GaussianWiseConfig c = *this;
        if (c.group_capacity < 1)
            c.group_capacity = 1;
        if (c.block_size < 1)
            c.block_size = 1;
        if (c.subview_size < 0)
            c.subview_size = 0;
        return c;
    }
};

/** One depth group: splat indices ordered front-to-back. */
struct DepthGroup
{
    float depth_lo = 0.0f;
    float depth_hi = 0.0f;
    std::vector<std::uint32_t> members;  ///< indices into the ID table
};

/**
 * Stage I grouping as a reusable primitive: orders Gaussian indices
 * by view depth and chunks them into groups of at most
 * @p group_capacity, mirroring the RCA's coarse binning + recursive
 * subdivision (the resulting partition is identical: depth-ordered
 * groups no larger than N).  A capacity below 1 is treated as 1.
 *
 * @param depths  per-Gaussian view depth, parallel to ids
 * @param ids     Gaussian ids (already depth-pivot culled)
 */
std::vector<DepthGroup> groupByDepth(const std::vector<float> &depths,
                                     const std::vector<std::uint32_t> &ids,
                                     int group_capacity);

/**
 * GCC-dataflow functional renderer.
 *
 * render() reads a CloudView, so a LOD cut renders from its resident
 * spans uncopied (a GaussianCloud converts implicitly).
 *
 * Thread safety: render() only reads config_ and its const
 * arguments, and leases its view scratches from a mutex-guarded
 * process-wide pool, so one renderer (or one per thread) may render
 * concurrently, including from shared Gaussians.  A ThreadPool passed
 * to render() only fans out the depth pass, the Cmode projection
 * pass and sub-views; it may be shared and never changes the result.
 */
class GaussianWiseRenderer
{
  public:
    explicit GaussianWiseRenderer(GaussianWiseConfig config = {})
        : config_(config.validated()) {}

    const GaussianWiseConfig &config() const { return config_; }

    /**
     * Render a frame (optimized path), filling @p stats with the
     * dataflow counters.
     *
     * @param pool  optional worker pool: parallelizes the depth pass
     *              and, in Compatibility Mode, the projection pass and
     *              the independent sub-views.  Full-view rendering
     *              itself is inherently sequential (depth groups
     *              stream near-to-far through shared transmittance
     *              state), so meaningful frame-level scaling needs
     *              Cmode.  Null renders serially; the image and stats
     *              are bit-identical either way.
     */
    Image render(const CloudView &view, const Camera &cam,
                 GaussianWiseStats &stats,
                 ThreadPool *pool = nullptr) const;

    /**
     * Render a frame through the retained scalar reference
     * implementation.  Used by the equivalence tests and the
     * frame-throughput benchmark as the speedup baseline; produces
     * bit-identical images and stats to render().
     */
    Image renderReference(const GaussianCloud &cloud, const Camera &cam,
                          GaussianWiseStats &stats) const;

    /**
     * Bytes held by the view scratches cached between renders.  A
     * thread keeps none once its render returns; the cache holds at
     * most peakScratchLeases() scratches, each no larger than the
     * largest view it served.
     */
    static std::size_t retainedScratchBytes();

    /** Most view scratches the process's renders have leased at once. */
    static std::size_t peakScratchLeases();

  private:
    struct Candidates;
    struct SplatCache;
    struct ViewScratch;
    class ScratchPool;
    class ScratchLease;

    /** Stage I: the depth pass and pivot cull over @p view. */
    Candidates cullByDepth(const CloudView &view, const Camera &cam,
                           ThreadPool *pool) const;

    /** Cmode: project and shade the candidates once into @p cache
     *  and return their positions binned into the sub-views. */
    static std::vector<std::vector<std::uint32_t>>
    projectAndBin(const Candidates &cand, const Camera &cam, int sub,
                  int sx, int sy, ThreadPool *pool, SplatCache &cache,
                  GaussianWiseStats &stats, obs::StageTimer &stage_timer);

    /**
     * Stages II-IV of one (sub-)view over the candidates at positions
     * @p members (ascending); @p cache is the Cmode splat cache or
     * null.  Per-member milestone flags are written to @p flags.
     */
    void renderView(const Candidates &cand,
                    const std::vector<std::uint32_t> &members,
                    const SplatCache *cache, const Camera &cam,
                    int view_x0, int view_y0, int view_w, int view_h,
                    Image &image, GaussianWiseStats &stats,
                    std::vector<std::uint8_t> &flags,
                    ViewScratch &scratch) const;

    /** Scalar transcription of renderView used by renderReference. */
    void renderViewReference(const GaussianCloud &cloud,
                             const Camera &cam,
                             const std::vector<std::uint32_t> &candidates,
                             const std::vector<float> &depths,
                             int view_x0, int view_y0, int view_w,
                             int view_h, Image &image,
                             GaussianWiseStats &stats,
                             std::vector<std::uint8_t> &flags) const;

    GaussianWiseConfig config_;
};

} // namespace gcc3d

#endif // GCC3D_RENDER_GAUSSIAN_WISE_RENDERER_H
