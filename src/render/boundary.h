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
 *    expanding only through blocks the elliptical footprint can reach
 *    (directional early termination falls out of the convexity of the
 *    elliptical footprint).  traverse() is the scalar breadth-first
 *    oracle; traverseLanes() visits the same blocks from a reach
 *    bitmap (ReachWindow) evaluated kWidth blocks at a time.
 */

#ifndef GCC3D_RENDER_BOUNDARY_H
#define GCC3D_RENDER_BOUNDARY_H

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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

/** Inclusive block rectangle [x0, x1] x [y0, y1]. */
struct BlockRect
{
    int x0 = 0;
    int y0 = 0;
    int x1 = -1;
    int y1 = -1;

    bool empty() const { return x1 < x0 || y1 < y0; }

    std::int64_t
    area() const
    {
        if (empty())
            return 0;
        return static_cast<std::int64_t>(x1 - x0 + 1) * (y1 - y0 + 1);
    }
};

namespace boundary_detail {

/** One splat's boundary-test operands: conic, center and q cutoff. */
struct ReachConic
{
    float c00 = 0.0f, c01 = 0.0f, c10 = 0.0f, c11 = 0.0f;
    float cx = 0.0f, cy = 0.0f;
    float cutoff = -1.0f;
};

/**
 * The boundary test of kWidth blocks (bx0 + i, by), one per lane, of
 * an n x n block grid over a width x height view: bit i is
 * `minConicQOverRect(..., rect of block bx0 + i) <= cutoff`, the rect
 * clipped to the view as traverse() clips it.  Each lane runs
 * minConicQOverRect's scalar op sequence (the std::clamp and std::min
 * operand order included), so every bit equals the scalar decision,
 * NaN and infinities included.  Exact for |(bx0 + i) * n| < 2^24.
 */
unsigned reachLanes(const ReachConic &k, int bx0, int by, int n,
                    int width, int height);

} // namespace boundary_detail

/**
 * One splat's footprint over a window of blocks, the working set of
 * BlockTraversal::traverseLanes.  Each window row is a run of 64-bit
 * words (several when the window is wider than 64 blocks) holding one
 * reach bit per block — the boundary test passes for the block's rect
 * — and one visited bit per block: the 8-connected flood of the reach
 * bits from the 3x3 seed blocks, which is exactly the component
 * traverse()'s breadth-first walk visits.  The buffers are reused from
 * splat to splat; they allocate only when a window outgrows every
 * earlier one.
 */
class ReachWindow
{
  public:
    /** The evaluated window, in blocks (empty when nothing reaches). */
    const BlockRect &window() const { return win_; }

    /**
     * Reach bits evaluated for the current splat: the window's area,
     * plus that of every window the flood outgrew.
     */
    std::int64_t evaluatedBlocks() const { return evaluated_; }

    /** Bytes held allocated. */
    std::size_t
    bytes() const
    {
        return (reach_.capacity() + visit_.capacity()) *
               sizeof(std::uint64_t);
    }

  private:
    friend class BlockTraversal;

    boundary_detail::ReachConic conic_;
    int seed_bx_ = 0;  ///< block of the (clamped) projected center
    int seed_by_ = 0;
    int words_ = 0;    ///< words per window row
    BlockRect win_;
    std::int64_t evaluated_ = 0;
    std::vector<std::uint64_t> reach_;  ///< reach bits, row-major
    std::vector<std::uint64_t> visit_;  ///< flooded (visited) bits
};

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

    /**
     * Visitor invoked once per visited block that contains at least
     * one passing pixel.  @param bx,by block coordinates.
     */
    using BlockVisitor = std::function<void(int bx, int by)>;

    /**
     * Run the traversal for one splat: the scalar oracle.  A
     * breadth-first walk from the 3x3 blocks around the projected
     * center, expanding through every block blockReachable() accepts.
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
     * Evaluate one splat's reach bits into @p w, kWidth blocks per
     * lane group (boundary_detail::reachLanes).  The window is the
     * conic's bounding box at the cutoff widened by one block on each
     * side, unioned with the 3x3 seed blocks and with @p include, and
     * clipped to the grid.  The bounding box only sizes the window:
     * traverseLanes grows it if the flood reaches an edge the grid
     * did not clip, so a wrong box (rounding, a non-finite or
     * indefinite conic) costs time, never a block.
     *
     * @return false when no block can reach (omega at or below the
     *         1/255 threshold, or an empty grid); @p w then holds an
     *         empty window
     */
    bool reach(const Ellipse &e, float omega, ReachWindow &w,
               const BlockRect &include = {}) const;

    /**
     * Whether some block of @p r that the footprint reaches is not
     * T-masked: the conditional-loading test, read from the reach
     * bits reach() evaluated.  @p r must lie within w.window(), which
     * holds when it was reach()'s @p include; false when @p r is
     * empty or nothing reaches.
     */
    bool anyUnmaskedReach(const ReachWindow &w, const BlockRect &r,
                          const std::uint8_t *t_mask) const;

    /**
     * Fast statically-dispatched traversal of the splat reach()
     * evaluated into @p w: the same visited blocks, pass/fail
     * decisions and statistics as traverse(), handing the visitor
     * whole SIMD lane groups instead of single pixels — the software
     * shape of the Alpha Unit's n x n PE array, which evaluates a
     * block's alphas in parallel (Sec. 4.4):
     *
     *  - the visited set is the flood of @p w's reach bits (row
     *    words, no queue), so each block is visited at most once;
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
     * Blocks are visited in row-major block order (traverse() walks
     * breadth-first); within a block, lane groups are handed out in
     * row-major pixel order, each with at least one pass bit, so the
     * pixel sequence is traverse()'s reordered by block row, then
     * block column.  A block's T-mask entry is read when the block is
     * visited, and only that block's own pixels can change it, so the
     * order changes no decision.  A lane group never spans two blocks.
     *
     * @p visit   callable (int x, int y, const simd::FloatV &q,
     *            unsigned pass_bits)
     * @p active  optional per-block flags (row-major, blocksX() wide):
     *            set to 1 for every block handed at least one lane
     *            group, the blocks @p visit can have written
     */
    template <typename Visit>
    BoundaryStats
    traverseLanes(ReachWindow &w, const std::vector<std::uint8_t> *t_mask,
                  Visit &&visit, std::uint8_t *active = nullptr) const
    {
        BoundaryStats stats;
        if (w.win_.empty())
            return stats;
        flood(w);

        // Conic and center copied into locals: the visitor's float
        // stores would otherwise force reloads of the window members
        // under type-based aliasing.  Every evaluation below matches
        // Ellipse::quadraticForm operation for operation.
        const boundary_detail::ReachConic k = w.conic_;
        const simd::FloatV c00v(k.c00), c01v(k.c01), c10v(k.c10),
            c11v(k.c11);
        const simd::FloatV cxv(k.cx), cutoff_v(k.cutoff), half_v(0.5f);

        const int rows = w.win_.y1 - w.win_.y0 + 1;
        for (int r = 0; r < rows; ++r) {
            const int by = w.win_.y0 + r;
            const std::uint64_t *row =
                w.visit_.data() + static_cast<std::size_t>(r) * w.words_;
            for (int word = 0; word < w.words_; ++word) {
                for (std::uint64_t blocks = row[word]; blocks != 0;
                     blocks &= blocks - 1) {
                    const int bx = w.win_.x0 + 64 * word +
                                   std::countr_zero(blocks);
                    const std::size_t bi =
                        static_cast<std::size_t>(by) * blocks_x_ + bx;
                    // T-masked blocks are excluded from alpha
                    // computation (Sec. 4.5); the flood walked
                    // through them.
                    if (t_mask != nullptr && (*t_mask)[bi] != 0)
                        continue;

                    // The whole block streams through the n x n PE
                    // array.
                    const int x0 = bx * block_size_;
                    const int y0 = by * block_size_;
                    const int x1 = std::min(x0 + block_size_, width_) - 1;
                    const int y1 = std::min(y0 + block_size_, height_) - 1;
                    ++stats.visited_blocks;
                    stats.alpha_evals +=
                        static_cast<std::int64_t>(x1 - x0 + 1) *
                        (y1 - y0 + 1);
                    std::int64_t passing = 0;
                    for (int y = y0; y <= y1; ++y) {
                        const float fdy =
                            (static_cast<float>(y) + 0.5f) - k.cy;
                        const simd::FloatV dyv(fdy);
                        for (int x = x0; x <= x1; x += simd::kWidth) {
                            const int nlane =
                                std::min<int>(simd::kWidth, x1 - x + 1);
                            simd::FloatV dxv =
                                (simd::FloatV::iotaFrom(x) + half_v) -
                                cxv;
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
                            active[bi] = 1;
                    }
                }
            }
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
    /** Fill w.reach_ for w.win_ (visited bits cleared). */
    void evaluate(ReachWindow &w) const;

    /**
     * Flood w's reach bits from the seed blocks into w.visit_,
     * growing and re-evaluating the window until the flood touches
     * no edge the grid did not clip.
     */
    void flood(ReachWindow &w) const;

    int block_size_;
    int width_;
    int height_;
    int blocks_x_;
    int blocks_y_;
};

} // namespace gcc3d

#endif // GCC3D_RENDER_BOUNDARY_H
