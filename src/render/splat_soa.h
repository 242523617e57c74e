/**
 * @file
 * Structure-of-arrays splat store and shared tile-coverage helpers
 * for the standard (tile-wise) dataflow.
 *
 * The render hot loops only need a few fields of a projected splat
 * each, in three distinct phases with different access patterns:
 *
 *  - binning reads tile ranges (and OBB parameters in Obb3Sigma mode),
 *  - sorting reads a 4-byte monotone depth key,
 *  - blending reads center + conic + opacity + color together, per
 *    pixel, thousands of times per splat.
 *
 * SplatSoA packs each phase's fields contiguously so the inner loops
 * stream cache lines instead of striding through Splat structs; the
 * conic coefficients are hoisted out of Ellipse::alphaAt into four
 * flat floats per splat.
 *
 * Two builders fill it.  SplatSoA::project is the tile renderer's
 * prepare stage: one fused pass that projects kWidth Gaussians per
 * SIMD lane group straight into the store, each lane transcribing
 * projectGaussian, the SH color and the bound derivation op for op.
 * SplatSoA::build packs an already preprocessed splat list (the
 * preprocessAll path) and is the oracle project is tested against:
 * both yield bit-identical stores, so consuming either reproduces the
 * reference renderer's images and statistics exactly.
 *
 * The tile-coverage helpers (tileRangeFor / obbOverlapsTile) are the
 * single source of truth for which tiles a splat binds to; the
 * renderer's cover stage (which TileRenderer::tilesPerSplat also
 * reads) and the reference renderer share them.
 */

#ifndef GCC3D_RENDER_SPLAT_SOA_H
#define GCC3D_RENDER_SPLAT_SOA_H

#include <cstdint>
#include <vector>

#include "gsmath/sort_keys.h"
#include "render/preprocess.h"
#include "scene/camera.h"
#include "scene/gaussian_cloud.h"

namespace gcc3d {

/** Bounding method used for tile assignment (Table 1 / Fig. 4). */
enum class BoundingMode
{
    Aabb3Sigma,   ///< axis-aligned box of the 3-sigma circle (reference)
    Obb3Sigma,    ///< oriented box at 3 sigma (GSCore)
    OmegaSigma,   ///< axis-aligned box at the opacity-aware radius (Eq. 8)
    Conservative, ///< 1.25 * max(3-sigma, omega-sigma): ground-truth mode
};

/** Tile range [bx0,bx1] x [by0,by1] a splat maps to, or empty. */
struct TileRange
{
    int bx0 = 0, by0 = 0, bx1 = -1, by1 = -1;
    bool empty() const { return bx1 < bx0 || by1 < by0; }
    int count() const
    { return empty() ? 0 : (bx1 - bx0 + 1) * (by1 - by0 + 1); }
};

/** Pixel-space bound of @p s under @p mode (before clipping). */
PixelRect splatBounds(const Splat &s, BoundingMode mode);

/** Tile range the clipped bound of @p s covers; may be empty. */
TileRange tileRangeFor(const Splat &s, BoundingMode mode, int tile,
                       int width, int height);

/**
 * Per-splat parameters of the oriented 3-sigma box, hoisted so the
 * per-tile overlap test runs without re-deriving cos/sin per tile.
 */
struct ObbParams
{
    float cx = 0.0f, cy = 0.0f;  ///< splat center
    float ca = 0.0f, sa = 0.0f;  ///< cos/sin of the major-axis angle
    float ha = 0.0f, hb = 0.0f;  ///< half side lengths at 3 sigma
};

/** Oriented-box parameters of @p s (Obb3Sigma refinement). */
ObbParams obbParamsFor(const Splat &s);

/**
 * Exact-ish OBB vs tile overlap test (separating axes of the oriented
 * box): used in Obb3Sigma mode to drop corner tiles the axis-aligned
 * sweep would include.
 */
bool obbOverlapsTile(const ObbParams &o, float tx0, float ty0, float tx1,
                     float ty1);

/**
 * Hot-path splat data in structure-of-arrays form, one row per
 * projected splat in source order.  Built once per frame.
 */
struct SplatSoA
{
    /** Blend-phase record: everything the per-pixel loop reads. */
    struct Blend
    {
        float cx, cy;                ///< projected center
        float c00, c01, c10, c11;    ///< conic coefficients
        float opacity;               ///< omega
        float r, g, b;               ///< SH-evaluated color
        /**
         * Quadratic-form threshold above which alpha is provably
         * below the configured cutoff (the exact crossing plus a
         * safety margin), letting the blend loop skip the exp() for
         * dead-tail pixels without changing any pass/fail decision.
         * +inf when the cutoff is non-positive.
         */
        float q_skip;
        // Cutoff-safe iteration rect (clipped): outside it alpha is
        // provably below the configured cutoff, so pixels there can
        // be skipped without changing the image or blend stats.
        std::int32_t it_x0, it_y0, it_x1, it_y1;
        // Subtile bound rect (max of the 3-sigma and omega-sigma
        // radii, clipped): drives the VRU array-pass accounting.
        std::int32_t sb_x0, sb_y0, sb_x1, sb_y1;
    };

    std::size_t size() const { return blend.size(); }

    /** Heap bytes the store holds (capacities, not sizes). */
    std::size_t
    bytes() const
    {
        return blend.capacity() * sizeof(Blend) +
               depth_key.capacity() * sizeof(std::uint32_t) +
               range.capacity() * sizeof(TileRange) +
               obb.capacity() * sizeof(ObbParams) +
               id.capacity() * sizeof(std::uint32_t) +
               depth.capacity() * sizeof(float);
    }

    std::vector<Blend> blend;            ///< blend-phase records
    std::vector<std::uint32_t> depth_key; ///< monotone float->uint keys
    std::vector<TileRange> range;        ///< binning tile ranges
    std::vector<ObbParams> obb;          ///< filled in Obb3Sigma mode
    std::vector<std::uint32_t> id;       ///< source Gaussian index
    std::vector<float> depth;            ///< view-space depth z'
    bool obb_refine = false;             ///< Obb3Sigma per-tile test on

    /**
     * Build the SoA for @p splats under a renderer configuration.
     * @p alpha_cutoff bounds the iteration rects; a non-positive
     * cutoff disables the bound (rects cover the whole image).
     */
    static SplatSoA build(const std::vector<Splat> &splats,
                          BoundingMode mode, int tile_size,
                          float alpha_cutoff, int width, int height);

    /**
     * Project every Gaussian of @p view for @p cam straight into the
     * store: bit-identical to build() over preprocessAll(@p view's
     * Gaussians as one cloud), rows and @p stats included, without
     * materializing the splat list.  Gaussian i of the view gets id i.
     * A pool fans contiguous index ranges out and merges them in
     * order, with the same result as the serial pass.
     */
    static SplatSoA project(const CloudView &view, const Camera &cam,
                            BoundingMode mode, int tile_size,
                            float alpha_cutoff, PreprocessStats &stats,
                            ThreadPool *pool = nullptr);
};

} // namespace gcc3d

#endif // GCC3D_RENDER_SPLAT_SOA_H
