/**
 * @file
 * Alpha-based Gaussian Boundary Identification (paper Algorithm 1).
 *
 * Given a projected splat, find the minimal set of pixels whose alpha
 * contribution meets the 1/255 threshold, without rasterizing a full
 * bounding box.  Two granularities are provided:
 *
 *  - pixelBoundary(): the literal Algorithm 1 — a breadth-first pixel
 *    traversal from the projected center, expanding only through
 *    pixels that satisfy the elliptical alpha condition E(p).  Used
 *    by tests as the ground-truth region and by Table 1.
 *
 *  - BlockTraversal: the hardware realization (Sec. 4.4) — the screen
 *    is divided into n x n pixel blocks matching the Alpha Unit's PE
 *    array; traversal proceeds block-by-block from the center block,
 *    evaluating all n^2 alphas of a visited block in parallel and
 *    expanding only through blocks that contain passing pixels
 *    (directional early termination falls out of the convexity of the
 *    elliptical footprint).
 */

#ifndef GCC3D_RENDER_BOUNDARY_H
#define GCC3D_RENDER_BOUNDARY_H

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "gsmath/ellipse.h"
#include "gsmath/simd.h"

namespace gcc3d {

/** Counters describing one boundary-identification traversal. */
struct BoundaryStats
{
    std::int64_t alpha_evals = 0;      ///< alpha condition evaluations
    std::int64_t influence_pixels = 0; ///< pixels meeting the threshold
    std::int64_t visited_blocks = 0;   ///< blocks streamed (block mode)
    std::int64_t active_blocks = 0;    ///< blocks with >=1 passing pixel
};

/**
 * Visitor invoked for every influence pixel.
 * @param x,y    pixel coordinates
 * @param alpha  alpha contribution at the pixel (>= 1/255)
 */
using PixelVisitor = std::function<void(int x, int y, float alpha)>;

/**
 * Pixel-level Algorithm 1: BFS from the projected center (or nearest
 * in-bounds pixel), expanding through pixels passing E(p).
 *
 * @param e       projected ellipse
 * @param omega   Gaussian opacity
 * @param width   image width
 * @param height  image height
 * @param visit   called once per influence pixel (may be null)
 */
BoundaryStats pixelBoundary(const Ellipse &e, float omega, int width,
                            int height, const PixelVisitor &visit);

namespace boundary_detail {

/** Clamp the projected center to the nearest in-bounds pixel. */
inline std::pair<int, int>
nearestInBounds(const Vec2 &center, int width, int height)
{
    int x = static_cast<int>(std::floor(center.x));
    int y = static_cast<int>(std::floor(center.y));
    x = std::clamp(x, 0, width - 1);
    y = std::clamp(y, 0, height - 1);
    return {x, y};
}

inline Vec2
pixelCenter(int x, int y)
{
    return {static_cast<float>(x) + 0.5f, static_cast<float>(y) + 0.5f};
}

/** Alpha-threshold cutoff on the quadratic form: q <= 2 ln(255 omega). */
inline float
quadraticCutoff(float omega)
{
    if (omega <= kAlphaMin)
        return -1.0f;
    return 2.0f * std::log(255.0f * omega);
}

/**
 * Minimum of the conic quadratic form over a rectangle, approximated
 * by the clamped center and the four corners.  The single
 * implementation behind every ellipse-vs-rect reachability decision
 * (rectMayIntersect, the traversal's expansion filter, and the
 * renderer's conditional-loading window), taking the conic and
 * center as scalars so hot callers can pass hoisted locals — the
 * evaluation matches Ellipse::quadraticForm operation for operation.
 */
inline float
minConicQOverRect(float c00, float c01, float c10, float c11, float cx,
                  float cy, float x0, float y0, float x1, float y1)
{
    auto q_pt = [&](float px, float py) {
        float dx = px - cx;
        float dy = py - cy;
        return dx * (c00 * dx + c01 * dy) + dy * (c10 * dx + c11 * dy);
    };
    float q = q_pt(std::clamp(cx, x0, x1), std::clamp(cy, y0, y1));
    q = std::min(q, q_pt(x0, y0));
    q = std::min(q, q_pt(x1, y0));
    q = std::min(q, q_pt(x0, y1));
    q = std::min(q, q_pt(x1, y1));
    return q;
}

/**
 * Cheap conservative-ish test of whether a pixel rectangle can
 * intersect the effective ellipse: evaluates the quadratic form at
 * the clamped center and the four corners and takes the minimum.
 * Used only to decide whether traversal may pass *through* a
 * T-masked block.
 */
inline bool
rectMayIntersect(const Ellipse &e, float cutoff, float x0, float y0,
                 float x1, float y1)
{
    return minConicQOverRect(e.conic(0, 0), e.conic(0, 1),
                             e.conic(1, 0), e.conic(1, 1), e.center.x,
                             e.center.y, x0, y0, x1, y1) <= cutoff;
}

} // namespace boundary_detail

/**
 * Block-level traversal used by the Alpha Unit.  Blocks are n x n
 * pixels; a visited block evaluates all of its pixel alphas (one PE
 * per pixel).  A block mask lets the caller exclude blocks whose
 * transmittance is exhausted (the T-mask of Sec. 4.5).
 */
class BlockTraversal
{
  public:
    /**
     * @param block_size  n (paper: 8)
     * @param width       image width in pixels
     * @param height      image height in pixels
     */
    BlockTraversal(int block_size, int width, int height);

    int blocksX() const { return blocks_x_; }
    int blocksY() const { return blocks_y_; }
    int blockSize() const { return block_size_; }
    int viewWidth() const { return width_; }
    int viewHeight() const { return height_; }

    /**
     * Visitor invoked once per visited block that contains at least
     * one passing pixel.  @param bx,by block coordinates.
     */
    using BlockVisitor = std::function<void(int bx, int by)>;

    /**
     * Run the traversal for one splat.
     *
     * @param e          projected ellipse
     * @param omega      opacity
     * @param t_mask     optional per-block skip mask (true = skip);
     *                   size blocksX()*blocksY(); may be null
     * @param visit      called per pixel whose alpha passes and whose
     *                   block is not masked (may be null)
     * @param block_visit called per active (passing, unmasked) block
     *                    before its pixels are visited (may be null)
     */
    BoundaryStats traverse(const Ellipse &e, float omega,
                           const std::vector<std::uint8_t> *t_mask,
                           const PixelVisitor &visit,
                           const BlockVisitor &block_visit = nullptr) const;

    /**
     * Fast statically-dispatched traversal: identical walk order,
     * pass/fail decisions and statistics to traverse(), handing the
     * visitor whole SIMD lane groups instead of single pixels — the
     * software shape of the Alpha Unit's n x n PE array, which
     * evaluates a block's alphas in parallel (Sec. 4.4):
     *
     *  - the visitor is a template parameter (no std::function call
     *    per group);
     *  - each row of a visited block is evaluated kWidth pixels at a
     *    time through the gsmath SIMD layer, every lane running the
     *    exact scalar op sequence, so q (and every E(p) decision) is
     *    bit-identical to the scalar reference;
     *  - the visitor receives the lane group's quadratic forms q and
     *    its pass bits (bit i set: pixel (x + i, y) meets the alpha
     *    threshold) rather than alphas, so the caller pays exp() only
     *    for lanes it still blends: alpha = min(0.99, omega *
     *    exp(-0.5 q)) there, as traverse() computes it;
     *  - influence_pixels and active_blocks are counted by popcount
     *    of the pass bits, so the stats match traverse() exactly.
     *
     * A lane group never spans two blocks.  Groups of one block are
     * handed out in row-major order, each with at least one pass bit.
     *
     * @p visit   callable (int x, int y, const simd::FloatV &q,
     *            unsigned pass_bits)
     * @p active  optional per-block flags (row-major, blocksX() wide):
     *            set to 1 for every block handed at least one lane
     *            group, the blocks @p visit can have written
     */
    template <typename Visit>
    BoundaryStats
    traverseLanes(const Ellipse &e, float omega,
                  const std::vector<std::uint8_t> *t_mask,
                  Visit &&visit, std::uint8_t *active = nullptr) const
    {
        namespace bd = boundary_detail;
        BoundaryStats stats;
        float cutoff = bd::quadraticCutoff(omega);
        if (cutoff < 0.0f || blocks_x_ <= 0 || blocks_y_ <= 0)
            return stats;

        auto [cx, cy] = bd::nearestInBounds(e.center, width_, height_);
        int cbx = cx / block_size_;
        int cby = cy / block_size_;

        // Reusable scratch with generation stamping so repeated
        // traversals don't pay a per-call allocation of the full
        // block map.
        thread_local std::vector<std::uint32_t> stamp;
        thread_local std::uint32_t generation = 0;
        std::size_t nblocks =
            static_cast<std::size_t>(blocks_x_) * blocks_y_;
        if (stamp.size() < nblocks) {
            stamp.assign(nblocks, 0);
            generation = 0;
        }
        if (++generation == 0) {
            // 2^32 traversals on this thread: stale stamps would
            // alias the restarted counter, so wipe them once.
            std::fill(stamp.begin(), stamp.end(), 0u);
            generation = 1;
        }
        auto seen = [&](int bx, int by) -> std::uint32_t & {
            return stamp[static_cast<std::size_t>(by) * blocks_x_ + bx];
        };

        // Conic and center hoisted into locals: the visitor's float
        // stores would otherwise force reloads of the Ellipse members
        // under type-based aliasing.  Every evaluation below matches
        // Ellipse::quadraticForm (and rectMayIntersect's use of it)
        // operation for operation, so all pass/fail and expansion
        // decisions are unchanged.
        const float fc00 = e.conic(0, 0), fc01 = e.conic(0, 1);
        const float fc10 = e.conic(1, 0), fc11 = e.conic(1, 1);
        const float fcx = e.center.x, fcy = e.center.y;

        // A block is enqueued only if the runtime identifier's
        // boundary test says the elliptical footprint can reach it —
        // the directional early termination of Sec. 4.4: directions
        // whose boundary alphas all fail the threshold are pruned, so
        // perimeter blocks outside the ellipse are never streamed
        // into the PE array.
        auto intersects = [&](int bx, int by) {
            float x0 = static_cast<float>(bx * block_size_);
            float y0 = static_cast<float>(by * block_size_);
            float x1 =
                std::min<float>(x0 + static_cast<float>(block_size_),
                                static_cast<float>(width_));
            float y1 =
                std::min<float>(y0 + static_cast<float>(block_size_),
                                static_cast<float>(height_));
            return bd::minConicQOverRect(fc00, fc01, fc10, fc11, fcx,
                                         fcy, x0, y0, x1,
                                         y1) <= cutoff;
        };

        thread_local std::deque<std::pair<int, int>> queue;
        queue.clear();
        auto push = [&](int bx, int by) {
            if (bx < 0 || bx >= blocks_x_ || by < 0 || by >= blocks_y_)
                return;
            std::uint32_t &s = seen(bx, by);
            if (s == generation)
                return;
            s = generation;
            if (intersects(bx, by))
                queue.emplace_back(bx, by);
        };

        // Seed: the block holding the projected center (or nearest
        // in-bounds block) and its 8 neighbors, so a center on a
        // block edge cannot strand the traversal.
        for (int dy = -1; dy <= 1; ++dy)
            for (int dx = -1; dx <= 1; ++dx)
                push(cbx + dx, cby + dy);

        // Broadcast conic/center/cutoff once per splat for the
        // vectorized row scans.  (An earlier revision solved a
        // per-row quadratic interval in double to skip dead row
        // tails; with blocks only block_size_ pixels wide and the
        // row evaluated kWidth lanes per step, the sqrt-per-row
        // solve cost more than the tails it saved, so every row now
        // just evaluates masked — same q bits, same decisions.)
        const simd::FloatV c00v(fc00), c01v(fc01), c10v(fc10),
            c11v(fc11);
        const simd::FloatV cxv(fcx), cutoff_v(cutoff), half_v(0.5f);

        while (!queue.empty()) {
            auto [bx, by] = queue.front();
            queue.pop_front();

            int x0 = bx * block_size_;
            int y0 = by * block_size_;
            int x1 = std::min(x0 + block_size_, width_) - 1;
            int y1 = std::min(y0 + block_size_, height_) - 1;

            bool masked =
                t_mask != nullptr &&
                (*t_mask)[static_cast<std::size_t>(by) * blocks_x_ +
                          bx] != 0;

            if (!masked) {
                // The whole block streams through the n x n PE array.
                ++stats.visited_blocks;
                stats.alpha_evals +=
                    static_cast<std::int64_t>(x1 - x0 + 1) *
                    (y1 - y0 + 1);
                std::int64_t passing = 0;
                for (int y = y0; y <= y1; ++y) {
                    const float fdy =
                        (static_cast<float>(y) + 0.5f) - fcy;
                    const simd::FloatV dyv(fdy);
                    for (int x = x0; x <= x1; x += simd::kWidth) {
                        const int nlane =
                            std::min<int>(simd::kWidth, x1 - x + 1);
                        simd::FloatV dxv =
                            (simd::FloatV::iotaFrom(x) + half_v) - cxv;
                        simd::FloatV qv =
                            dxv * (c00v * dxv + c01v * dyv) +
                            dyv * (c10v * dxv + c11v * dyv);
                        // Scalar `q > cutoff -> skip`, NaN included.
                        const unsigned bits =
                            simd::MaskV::firstN(nlane).bits() &
                            ~(qv > cutoff_v).bits();
                        if (bits == 0)
                            continue;
                        passing += std::popcount(bits);
                        visit(x, y, qv, bits);
                    }
                }
                stats.influence_pixels += passing;
                if (passing > 0) {
                    ++stats.active_blocks;
                    if (active != nullptr)
                        active[static_cast<std::size_t>(by) * blocks_x_ +
                               bx] = 1;
                }
            }
            // T-masked blocks are excluded from alpha computation
            // (Sec. 4.5) but the walk continues through them: the
            // push filter above already restricts expansion to blocks
            // the ellipse reaches.
            static constexpr int kDx[8] = {1, -1, 0, 0, 1, 1, -1, -1};
            static constexpr int kDy[8] = {0, 0, 1, -1, 1, -1, 1, -1};
            for (int k = 0; k < 8; ++k)
                push(bx + kDx[k], by + kDy[k]);
        }
        return stats;
    }

    /**
     * Whether block (bx, by) can intersect the effective (alpha >=
     * 1/255) footprint of the splat — the same test the traversal's
     * directional pruning uses.  Exposed so the conditional-loading
     * check can skip a Gaussian exactly when every block the
     * traversal would evaluate is T-masked.
     */
    bool blockReachable(const Ellipse &e, float omega, int bx,
                        int by) const;

  private:
    int block_size_;
    int width_;
    int height_;
    int blocks_x_;
    int blocks_y_;
};

} // namespace gcc3d

#endif // GCC3D_RENDER_BOUNDARY_H
