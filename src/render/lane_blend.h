/**
 * @file
 * Lane-group blending shared by the two exact raster kernels
 * (TileRenderer's per-tile kernel and GaussianWiseRenderer's Stage
 * IV): planar per-pixel color and transmittance accumulators, and the
 * front-to-back blend of one SIMD lane group into them.
 *
 * Every lane performs the scalar reference's op sequence at its own
 * pixel — `color += rgb * (a * t)`, `t *= 1 - a` — under a select, so
 * lanes that do not blend keep their bits.  A region's accumulators
 * start at color 0, T 1; when the image region they are written back
 * to is zero on entry, the written sums are bit-identical to blending
 * into the image in place.  A region whose blended pixels are few
 * (the Gaussian-wise full view) can instead keep the planes clean —
 * color 0 and T 1 everywhere — and drain only the rects it may have
 * blended.
 */

#ifndef GCC3D_RENDER_LANE_BLEND_H
#define GCC3D_RENDER_LANE_BLEND_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "gsmath/simd.h"
#include "render/image.h"

namespace gcc3d {

/**
 * std::exp(-0.5 q) on the lanes set in @p bits and 0 elsewhere: the
 * references' exact alpha falloff.  The exponent is not masked: on
 * expExact's vector form every lane's exponential then starts while
 * the caller's mask is still being built (masking the input put the
 * mask on the critical path and cost ~7 % of sim_sweep throughput),
 * and only live lanes can take its per-lane path.
 */
inline simd::FloatV
expFalloff(const simd::FloatV &q, unsigned bits)
{
    return simd::select(simd::MaskV::fromBits(bits),
                        simd::expExact(q * simd::FloatV(-0.5f), bits),
                        simd::FloatV(0.0f));
}

/**
 * Planar R, G, B and transmittance accumulators of one pixel region
 * (a tile or a (sub-)view) with a caller-chosen row stride.  Each
 * plane is padded by kWidth floats, so a lane group starting at any
 * pixel of the region loads and stores whole vectors: lanes past a
 * row's end read the next row (or the padding) and, never selected
 * for blending, are stored back unchanged.
 */
class BlendPlanes
{
  public:
    /** Color 0 and transmittance 1 over @p pixels pixels; reuses the
     *  planes' storage. */
    void
    reset(std::size_t pixels)
    {
        const std::size_t n = pixels + simd::kWidth;
        r_.assign(n, 0.0f);
        g_.assign(n, 0.0f);
        b_.assign(n, 0.0f);
        t_.assign(n, 1.0f);
    }

    /**
     * Cover @p pixels pixels without a reset: storage only grows, and
     * grown elements start clean (color 0, T 1).  For callers that
     * drain() every rect they blend, which keeps the whole planes
     * clean between regions of any size or stride.
     */
    void
    growClean(std::size_t pixels)
    {
        const std::size_t n = pixels + simd::kWidth;
        if (t_.size() >= n)
            return;
        r_.resize(n, 0.0f);
        g_.resize(n, 0.0f);
        b_.resize(n, 0.0f);
        t_.resize(n, 1.0f);
    }

    /** Bytes the four planes hold allocated. */
    std::size_t
    bytes() const
    {
        return (r_.capacity() + g_.capacity() + b_.capacity() +
                t_.capacity()) *
               sizeof(float);
    }

    /** Transmittance of the lane group at plane offset @p off. */
    simd::FloatV
    t(std::size_t off) const
    {
        return simd::FloatV::load(t_.data() + off);
    }

    /**
     * Blend the lanes set in @p bits of the group at @p off, whose
     * transmittance @p t was read by t(): color += rgb * (a * t) and
     * t *= 1 - a.  Returns t * (1 - a) on every lane; only the lanes
     * in @p bits are meaningful and stored.
     */
    simd::FloatV
    blend(std::size_t off, unsigned bits, const simd::FloatV &t,
          const simd::FloatV &a, const simd::FloatV &r,
          const simd::FloatV &g, const simd::FloatV &b)
    {
        const simd::MaskV m = simd::MaskV::fromBits(bits);
        const simd::FloatV w = a * t;
        accumulate(r_.data() + off, m, r * w);
        accumulate(g_.data() + off, m, g * w);
        accumulate(b_.data() + off, m, b * w);
        const simd::FloatV t_new = t * (simd::FloatV(1.0f) - a);
        simd::select(m, t_new, t).store(t_.data() + off);
        return t_new;
    }

    /** Assign the @p w x @p h region of row stride @p stride to
     *  @p image at (@p x0, @p y0). */
    void
    writeBack(Image &image, int x0, int y0, int w, int h,
              int stride) const
    {
        for (int y = 0; y < h; ++y) {
            const std::size_t row = static_cast<std::size_t>(y) * stride;
            Vec3 *out = &image.at(x0, y0 + y);
            for (int x = 0; x < w; ++x)
                out[x] = Vec3(r_[row + x], g_[row + x], b_[row + x]);
        }
    }

    /**
     * writeBack() of the @p w x @p h rect at (@p x, @p y) of a region
     * of row stride @p stride to @p image at (@p image_x0 + x,
     * @p image_y0 + y), then restore the rect to color 0, T 1.
     */
    void
    drain(Image &image, int image_x0, int image_y0, int x, int y, int w,
          int h, int stride)
    {
        for (int row = y; row < y + h; ++row) {
            const std::size_t off =
                static_cast<std::size_t>(row) * stride + x;
            Vec3 *out = &image.at(image_x0 + x, image_y0 + row);
            for (int i = 0; i < w; ++i)
                out[i] = Vec3(r_[off + i], g_[off + i], b_[off + i]);
            std::fill_n(r_.data() + off, w, 0.0f);
            std::fill_n(g_.data() + off, w, 0.0f);
            std::fill_n(b_.data() + off, w, 0.0f);
            std::fill_n(t_.data() + off, w, 1.0f);
        }
    }

  private:
    static void
    accumulate(float *p, const simd::MaskV &m, const simd::FloatV &add)
    {
        const simd::FloatV old = simd::FloatV::load(p);
        simd::select(m, old + add, old).store(p);
    }

    std::vector<float> r_, g_, b_, t_;
};

} // namespace gcc3d

#endif // GCC3D_RENDER_LANE_BLEND_H
