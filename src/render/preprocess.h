/**
 * @file
 * Shared 3DGS preprocessing: projection of 3D Gaussians to 2D splats.
 *
 * Both pipelines (standard tile-wise and GCC Gaussian-wise) share the
 * same mathematical preprocessing (Eq. 1): view transform, near-plane
 * cull, EWA covariance projection via the Jacobian, and (optionally)
 * SH color evaluation.  They differ in *when* these steps run and for
 * *which* Gaussians — that scheduling lives in the renderers and the
 * hardware simulators, not here.
 */

#ifndef GCC3D_RENDER_PREPROCESS_H
#define GCC3D_RENDER_PREPROCESS_H

#include <cstdint>
#include <optional>
#include <vector>

#include "gsmath/ellipse.h"
#include "scene/camera.h"
#include "scene/gaussian_cloud.h"

namespace gcc3d {

class ThreadPool;

/** A Gaussian projected into screen space (a 2D splat). */
struct Splat
{
    std::uint32_t id = 0;   ///< index into the source cloud
    float depth = 0.0f;     ///< view-space z'
    Ellipse ellipse;        ///< center mu', covariance, conic, eigen
    float opacity = 0.0f;   ///< omega
    Vec3 color;             ///< SH-evaluated RGB (when requested)
    int radius_omega = 0;   ///< omega-sigma law radius (Eq. 8)
    int radius_3sigma = 0;  ///< static 3-sigma radius (Eq. 6)
};

/** Counters produced while preprocessing a frame. */
struct PreprocessStats
{
    std::size_t total = 0;        ///< Gaussians in the model
    std::size_t near_culled = 0;  ///< culled by depth < near plane
    std::size_t frustum_culled = 0; ///< in front of near plane, outside view
    std::size_t in_frustum = 0;   ///< survived frustum test
    std::size_t screen_culled = 0; ///< projected footprint off-screen
    std::size_t projected = 0;    ///< splats produced

    /**
     * Fold another stats record in (all counters but @c total, which
     * describes the whole model rather than a partition of it).  Used
     * to reduce per-chunk stats of a parallel preprocess.
     */
    void
    merge(const PreprocessStats &o)
    {
        near_culled += o.near_culled;
        frustum_culled += o.frustum_culled;
        in_frustum += o.in_frustum;
        screen_culled += o.screen_culled;
        projected += o.projected;
    }
};

/**
 * Project a single Gaussian for @p cam.
 *
 * Performs the near-plane cull, the frustum test, the EWA covariance
 * projection with the reference rasterizer's 0.3-pixel dilation, and
 * the screen-bounds cull using the omega-sigma radius.  Color is NOT
 * evaluated here (the pipelines schedule SH independently).
 *
 * @return the splat, or nullopt if the Gaussian was culled.
 */
std::optional<Splat> projectGaussian(const Gaussian &g, std::uint32_t id,
                                     const Camera &cam,
                                     PreprocessStats *stats = nullptr);

/** Evaluate the SH color of @p g as seen from @p cam (Eq. 2). */
Vec3 shColorFor(const Gaussian &g, const Camera &cam);

/**
 * Vectorized view-space depth pass: out[i] =
 * cam.worldToView(gaussians[i]->mean).z for i in [0, n), evaluated
 * kWidth Gaussians at a time through the gsmath SIMD layer.  Each
 * lane performs the identical multiply/add sequence of
 * Mat4::transformPoint's z row, so every element is bit-identical to
 * the scalar call — the Gaussian-wise renderer's depth-pivot cull
 * can consume it without disturbing its equivalence guarantees.
 */
void viewDepthsZ(const Gaussian *const *gaussians, std::size_t n,
                 const Camera &cam, float *out);

/**
 * Standard-dataflow preprocessing: project every Gaussian in the
 * cloud and evaluate SH for every survivor (the "preprocess-then-
 * render" first stage).  The scalar reference renderers use it, and
 * it is the oracle of the tile renderer's fused lane-group prepare,
 * SplatSoA::project.
 *
 * When @p pool is non-null the cloud is preprocessed in contiguous
 * chunks fanned out over the pool, then merged in chunk order; the
 * resulting splat list and stats are bit-identical to the serial run
 * (per-Gaussian work is independent, and counter sums are
 * order-free).  A null pool — the default — runs serially.
 */
std::vector<Splat> preprocessAll(const GaussianCloud &cloud,
                                 const Camera &cam,
                                 PreprocessStats &stats,
                                 ThreadPool *pool = nullptr);

} // namespace gcc3d

#endif // GCC3D_RENDER_PREPROCESS_H
