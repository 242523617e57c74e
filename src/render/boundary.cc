#include "render/boundary.h"

#include <deque>

namespace gcc3d {

BoundaryStats
pixelBoundary(const Ellipse &e, float omega, int width, int height,
              const PixelVisitor &visit)
{
    namespace bd = boundary_detail;
    BoundaryStats stats;
    float cutoff = bd::quadraticCutoff(omega);
    if (cutoff < 0.0f || width <= 0 || height <= 0)
        return stats;

    auto [cx, cy] = bd::nearestInBounds(e.center, width, height);

    // Bound the visited map by the omega-sigma AABB (plus margin) so
    // scratch memory stays proportional to the footprint.
    int r = radiusOmegaSigma(e.eig, omega) + 2;
    int x_lo = std::max(0, cx - r), x_hi = std::min(width - 1, cx + r);
    int y_lo = std::max(0, cy - r), y_hi = std::min(height - 1, cy + r);
    int span_x = x_hi - x_lo + 1;
    int span_y = y_hi - y_lo + 1;
    if (span_x <= 0 || span_y <= 0)
        return stats;

    std::vector<std::uint8_t> seen(
        static_cast<std::size_t>(span_x) * span_y, 0);
    auto idx = [&](int x, int y) {
        return static_cast<std::size_t>(y - y_lo) * span_x + (x - x_lo);
    };

    std::deque<std::pair<int, int>> queue;
    // Seed with the 3x3 neighborhood of the start pixel: when the
    // projected center sits on a pixel boundary the start pixel itself
    // can fail E(p) while an immediate neighbor passes.
    for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
            int x = cx + dx, y = cy + dy;
            if (x < x_lo || x > x_hi || y < y_lo || y > y_hi)
                continue;
            seen[idx(x, y)] = 1;
            queue.emplace_back(x, y);
        }
    }

    while (!queue.empty()) {
        auto [x, y] = queue.front();
        queue.pop_front();

        ++stats.alpha_evals;
        float q = e.quadraticForm(bd::pixelCenter(x, y));
        if (q > cutoff)
            continue;  // fails E(p): convexity lets us stop here

        ++stats.influence_pixels;
        if (visit) {
            float a = std::min(0.99f, omega * std::exp(-0.5f * q));
            visit(x, y, a);
        }

        static constexpr int kDx[8] = {1, -1, 0, 0, 1, 1, -1, -1};
        static constexpr int kDy[8] = {0, 0, 1, -1, 1, -1, 1, -1};
        for (int k = 0; k < 8; ++k) {
            int nx = x + kDx[k], ny = y + kDy[k];
            if (nx < x_lo || nx > x_hi || ny < y_lo || ny > y_hi)
                continue;
            std::uint8_t &flag = seen[idx(nx, ny)];
            if (flag)
                continue;
            flag = 1;
            queue.emplace_back(nx, ny);
        }
    }
    return stats;
}

BlockTraversal::BlockTraversal(int block_size, int width, int height)
    : block_size_(block_size), width_(width), height_(height),
      blocks_x_((width + block_size - 1) / block_size),
      blocks_y_((height + block_size - 1) / block_size)
{
}

bool
BlockTraversal::blockReachable(const Ellipse &e, float omega, int bx,
                               int by) const
{
    namespace bd = boundary_detail;
    float cutoff = bd::quadraticCutoff(omega);
    if (cutoff < 0.0f)
        return false;
    float x0 = static_cast<float>(bx * block_size_);
    float y0 = static_cast<float>(by * block_size_);
    float x1 = std::min<float>(x0 + static_cast<float>(block_size_),
                               static_cast<float>(width_));
    float y1 = std::min<float>(y0 + static_cast<float>(block_size_),
                               static_cast<float>(height_));
    return bd::rectMayIntersect(e, cutoff, x0, y0, x1, y1);
}

namespace boundary_detail {

unsigned
reachLanes(const ReachConic &k, int bx0, int by, int n, int width,
           int height)
{
    using simd::FloatV;
    using simd::select;
    // The row's y terms are scalars, computed as minConicQOverRect
    // computes them.
    const float y0 = static_cast<float>(by * n);
    const float y1 = std::min<float>(y0 + static_cast<float>(n),
                                     static_cast<float>(height));
    const FloatV y0v(y0), y1v(y1), ycv(std::clamp(k.cy, y0, y1));
    // Lane i is block bx0 + i: x0 = float(bx * n) (exact below 2^24),
    // x1 = std::min<float>(x0 + n, width).
    const FloatV fn(static_cast<float>(n)), wv(static_cast<float>(width));
    const FloatV x0 = FloatV::iotaFrom(bx0) * fn;
    const FloatV x0n = x0 + fn;
    const FloatV x1 = select(wv < x0n, wv, x0n);

    const FloatV c00(k.c00), c01(k.c01), c10(k.c10), c11(k.c11);
    const FloatV cx(k.cx), cy(k.cy);
    auto q_pt = [&](const FloatV &px, const FloatV &py) {
        const FloatV dx = px - cx;
        const FloatV dy = py - cy;
        return dx * (c00 * dx + c01 * dy) + dy * (c10 * dx + c11 * dy);
    };
    // std::clamp(cx, x0, x1) is std::min(std::max(cx, x0), x1).
    const FloatV m = select(cx < x0, x0, cx);
    FloatV q = q_pt(select(x1 < m, x1, m), ycv);
    // q = std::min(q, c) keeps q unless c < q (NaN q stays NaN).
    auto take_min = [&](const FloatV &c) { q = select(c < q, c, q); };
    take_min(q_pt(x0, y0v));
    take_min(q_pt(x1, y0v));
    take_min(q_pt(x0, y1v));
    take_min(q_pt(x1, y1v));
    return (q <= FloatV(k.cutoff)).bits();
}

} // namespace boundary_detail

namespace {

/** Word @p i of a row of @p words words, dilated by one block each way. */
std::uint64_t
spread(const std::uint64_t *row, int i, int words)
{
    std::uint64_t n = row[i] | row[i] << 1 | row[i] >> 1;
    if (i > 0)
        n |= row[i - 1] >> 63;
    if (i + 1 < words)
        n |= row[i + 1] << 63;
    return n;
}

/**
 * Close one flood row along itself: visit every reach block
 * horizontally adjacent to a visited one, until nothing is added.
 */
void
closeRow(const std::uint64_t *reach, std::uint64_t *visit, int words)
{
    for (std::uint64_t added = 1; added != 0;) {
        added = 0;
        for (int i = 0; i < words; ++i) {
            const std::uint64_t n = spread(visit, i, words) & reach[i];
            added |= n ^ visit[i];
            visit[i] = n;
        }
    }
}

/**
 * Flood one row from its neighbour row @p from: visit every reach
 * block 8-adjacent to a block visited there, then close the row.
 * Rows are kept closed, so a row @p from adds nothing to is final.
 * Returns whether the row changed.
 */
bool
relaxRow(const std::uint64_t *reach, std::uint64_t *visit,
         const std::uint64_t *from, int words)
{
    std::uint64_t added = 0;
    for (int i = 0; i < words; ++i) {
        const std::uint64_t n = spread(from, i, words) & reach[i] & ~visit[i];
        added |= n;
        visit[i] |= n;
    }
    if (added == 0)
        return false;
    closeRow(reach, visit, words);
    return true;
}

bool
anyBit(const std::uint64_t *row, int words)
{
    for (int i = 0; i < words; ++i)
        if (row[i] != 0)
            return true;
    return false;
}

} // namespace

bool
BlockTraversal::reach(const Ellipse &e, float omega, ReachWindow &w,
                      const BlockRect &include) const
{
    namespace bd = boundary_detail;
    w.win_ = BlockRect{};
    w.evaluated_ = 0;
    bd::ReachConic &k = w.conic_;
    k.cutoff = bd::quadraticCutoff(omega);
    if (k.cutoff < 0.0f || blocks_x_ <= 0 || blocks_y_ <= 0)
        return false;
    k.c00 = e.conic(0, 0);
    k.c01 = e.conic(0, 1);
    k.c10 = e.conic(1, 0);
    k.c11 = e.conic(1, 1);
    k.cx = e.center.x;
    k.cy = e.center.y;

    auto [px, py] = bd::nearestInBounds(e.center, width_, height_);
    w.seed_bx_ = px / block_size_;
    w.seed_by_ = py / block_size_;
    BlockRect win{w.seed_bx_ - 1, w.seed_by_ - 1, w.seed_bx_ + 1,
                  w.seed_by_ + 1};

    // The ellipse q <= cutoff spans cx +- sqrt(cutoff * Sigma_00) and
    // cy +- sqrt(cutoff * Sigma_11), Sigma the conic's inverse.  One
    // block of margin keeps a flood inside the box off the window
    // edges; a box that is not finite leaves the sizing to flood().
    const float det = k.c00 * k.c11 - k.c01 * k.c10;
    const float scale = k.cutoff / det;
    const float hx = std::sqrt(scale * k.c11);
    const float hy = std::sqrt(scale * k.c00);
    if (det > 0.0f && std::isfinite(hx) && std::isfinite(hy)) {
        auto block = [&](float p, int blocks) {
            return static_cast<int>(std::clamp(
                std::floor(p / static_cast<float>(block_size_)), -2.0f,
                static_cast<float>(blocks) + 1.0f));
        };
        win.x0 = std::min(win.x0, block(k.cx - hx, blocks_x_) - 1);
        win.x1 = std::max(win.x1, block(k.cx + hx, blocks_x_) + 1);
        win.y0 = std::min(win.y0, block(k.cy - hy, blocks_y_) - 1);
        win.y1 = std::max(win.y1, block(k.cy + hy, blocks_y_) + 1);
    }
    if (!include.empty()) {
        win.x0 = std::min(win.x0, include.x0);
        win.y0 = std::min(win.y0, include.y0);
        win.x1 = std::max(win.x1, include.x1);
        win.y1 = std::max(win.y1, include.y1);
    }
    win.x0 = std::max(win.x0, 0);
    win.y0 = std::max(win.y0, 0);
    win.x1 = std::min(win.x1, blocks_x_ - 1);
    win.y1 = std::min(win.y1, blocks_y_ - 1);
    w.win_ = win;
    evaluate(w);
    return true;
}

void
BlockTraversal::evaluate(ReachWindow &w) const
{
    const BlockRect &win = w.win_;
    const int cols = win.x1 - win.x0 + 1;
    const int rows = win.y1 - win.y0 + 1;
    w.words_ = (cols + 63) / 64;
    const std::size_t n = static_cast<std::size_t>(rows) * w.words_;
    w.reach_.resize(n);
    w.visit_.resize(n);
    w.evaluated_ += static_cast<std::int64_t>(rows) * cols;
    std::fill(w.visit_.begin(), w.visit_.end(), 0);
    // kWidth divides 64, so a lane group never straddles two words;
    // the group starting a word stores it.
    for (int r = 0; r < rows; ++r) {
        std::uint64_t *row =
            w.reach_.data() + static_cast<std::size_t>(r) * w.words_;
        const int by = win.y0 + r;
        for (int j = 0; j < cols; j += simd::kWidth) {
            std::uint64_t bits = boundary_detail::reachLanes(
                w.conic_, win.x0 + j, by, block_size_, width_, height_);
            if (cols - j < simd::kWidth)
                bits &= (std::uint64_t{1} << (cols - j)) - 1;
            if (j % 64 == 0)
                row[j / 64] = bits;
            else
                row[j / 64] |= bits << (j % 64);
        }
    }
}

void
BlockTraversal::flood(ReachWindow &w) const
{
    for (;;) {
        const BlockRect win = w.win_;
        const int cols = win.x1 - win.x0 + 1;
        const int rows = win.y1 - win.y0 + 1;
        const int words = w.words_;
        const std::uint64_t *reach = w.reach_.data();
        std::uint64_t *visit = w.visit_.data();
        auto at = [&](auto *bits, int r) {
            return bits + static_cast<std::size_t>(r) * words;
        };

        // Seed: the 3x3 blocks around the center block that reach,
        // as traverse() seeds its queue.
        const int sx0 = std::max(w.seed_bx_ - 1, win.x0) - win.x0;
        const int sx1 = std::min(w.seed_bx_ + 1, win.x1) - win.x0;
        for (int by = std::max(w.seed_by_ - 1, win.y0);
             by <= std::min(w.seed_by_ + 1, win.y1); ++by) {
            const int r = by - win.y0;
            for (int j = sx0; j <= sx1; ++j)
                at(visit, r)[j / 64] |=
                    at(reach, r)[j / 64] & (std::uint64_t{1} << (j % 64));
            closeRow(at(reach, r), at(visit, r), words);
        }

        // Alternate downward and upward passes.  After a pass every
        // row holds what its neighbour on the pass's near side adds,
        // so a pass that adds nothing after an opposite one leaves
        // the fixed point: the 8-connected component of the seeds.
        for (int pass = 0;; ++pass) {
            bool added = false;
            if (pass % 2 == 0) {
                for (int r = 1; r < rows; ++r)
                    added |= relaxRow(at(reach, r), at(visit, r),
                                      at(visit, r - 1), words);
            } else {
                for (int r = rows - 2; r >= 0; --r)
                    added |= relaxRow(at(reach, r), at(visit, r),
                                      at(visit, r + 1), words);
            }
            if (!added && pass > 0)
                break;
        }

        // Grow past every window edge the flood touched that the grid
        // did not clip; the blocks beyond it may continue the
        // component.  Doubling bounds the re-evaluations.
        bool left = false, right = false;
        const int last = cols - 1;
        for (int r = 0; r < rows; ++r) {
            left |= (at(visit, r)[0] & 1) != 0;
            right |= (at(visit, r)[last / 64] >> (last % 64) & 1) != 0;
        }
        BlockRect grown = win;
        if (left && win.x0 > 0)
            grown.x0 = std::max(0, win.x0 - cols);
        if (right && win.x1 < blocks_x_ - 1)
            grown.x1 = std::min(blocks_x_ - 1, win.x1 + cols);
        if (win.y0 > 0 && anyBit(at(visit, 0), words))
            grown.y0 = std::max(0, win.y0 - rows);
        if (win.y1 < blocks_y_ - 1 && anyBit(at(visit, rows - 1), words))
            grown.y1 = std::min(blocks_y_ - 1, win.y1 + rows);
        if (grown.x0 == win.x0 && grown.x1 == win.x1 &&
            grown.y0 == win.y0 && grown.y1 == win.y1)
            return;
        w.win_ = grown;
        evaluate(w);
    }
}

bool
BlockTraversal::anyUnmaskedReach(const ReachWindow &w, const BlockRect &r,
                                 const std::uint8_t *t_mask) const
{
    if (r.empty() || w.win_.empty())
        return false;
    const int j0 = r.x0 - w.win_.x0;
    const int j1 = r.x1 - w.win_.x0;
    for (int by = r.y0; by <= r.y1; ++by) {
        const std::uint64_t *row =
            w.reach_.data() +
            static_cast<std::size_t>(by - w.win_.y0) * w.words_;
        for (int i = j0 / 64; i <= j1 / 64; ++i) {
            const int lo = std::max(j0 - 64 * i, 0);
            const int hi = std::min(j1 - 64 * i, 63);
            std::uint64_t bits = row[i] & (~std::uint64_t{0} << lo) &
                                 (~std::uint64_t{0} >> (63 - hi));
            for (; bits != 0; bits &= bits - 1) {
                const int bx = w.win_.x0 + 64 * i + std::countr_zero(bits);
                if (t_mask[static_cast<std::size_t>(by) * blocks_x_ + bx] ==
                    0)
                    return true;
            }
        }
    }
    return false;
}

BoundaryStats
BlockTraversal::traverse(const Ellipse &e, float omega,
                         const std::vector<std::uint8_t> *t_mask,
                         const PixelVisitor &visit,
                         const BlockVisitor &block_visit) const
{
    namespace bd = boundary_detail;
    BoundaryStats stats;
    float cutoff = bd::quadraticCutoff(omega);
    if (cutoff < 0.0f || blocks_x_ <= 0 || blocks_y_ <= 0)
        return stats;

    auto [cx, cy] = bd::nearestInBounds(e.center, width_, height_);
    int cbx = cx / block_size_;
    int cby = cy / block_size_;

    // Reusable scratch with generation stamping so repeated traversals
    // don't pay a per-call allocation of the full block map.
    thread_local std::vector<std::uint32_t> stamp;
    thread_local std::uint32_t generation = 0;
    std::size_t nblocks =
        static_cast<std::size_t>(blocks_x_) * blocks_y_;
    if (stamp.size() < nblocks) {
        stamp.assign(nblocks, 0);
        generation = 0;
    }
    if (++generation == 0) {
        // 2^32 traversals on this thread: stale stamps would alias
        // the restarted counter, so wipe them once.
        std::fill(stamp.begin(), stamp.end(), 0u);
        generation = 1;
    }
    auto seen = [&](int bx, int by) -> std::uint32_t & {
        return stamp[static_cast<std::size_t>(by) * blocks_x_ + bx];
    };

    // A block is enqueued only if the runtime identifier's boundary
    // test says the elliptical footprint can reach it — this is the
    // directional early termination of Sec. 4.4: directions whose
    // boundary alphas all fail the threshold are pruned, so perimeter
    // blocks outside the ellipse are never streamed into the PE array.
    auto intersects = [&](int bx, int by) {
        float x0 = static_cast<float>(bx * block_size_);
        float y0 = static_cast<float>(by * block_size_);
        float x1 = std::min<float>(x0 + static_cast<float>(block_size_),
                                   static_cast<float>(width_));
        float y1 = std::min<float>(y0 + static_cast<float>(block_size_),
                                   static_cast<float>(height_));
        return bd::rectMayIntersect(e, cutoff, x0, y0, x1, y1);
    };

    std::deque<std::pair<int, int>> queue;
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
    // in-bounds block) and its 8 neighbors, so a center on a block
    // edge cannot strand the traversal.
    for (int dy = -1; dy <= 1; ++dy)
        for (int dx = -1; dx <= 1; ++dx)
            push(cbx + dx, cby + dy);

    while (!queue.empty()) {
        auto [bx, by] = queue.front();
        queue.pop_front();

        int x0 = bx * block_size_;
        int y0 = by * block_size_;
        int x1 = std::min(x0 + block_size_, width_) - 1;
        int y1 = std::min(y0 + block_size_, height_) - 1;

        bool masked =
            t_mask != nullptr &&
            (*t_mask)[static_cast<std::size_t>(by) * blocks_x_ + bx] != 0;

        if (!masked) {
            // The whole block streams through the n x n PE array.
            ++stats.visited_blocks;
            bool visited_block = false;
            for (int y = y0; y <= y1; ++y) {
                for (int x = x0; x <= x1; ++x) {
                    ++stats.alpha_evals;
                    float q = e.quadraticForm(bd::pixelCenter(x, y));
                    if (q > cutoff)
                        continue;
                    ++stats.influence_pixels;
                    if (!visited_block) {
                        ++stats.active_blocks;
                        if (block_visit)
                            block_visit(bx, by);
                        visited_block = true;
                    }
                    if (visit) {
                        float a = std::min(0.99f,
                                           omega * std::exp(-0.5f * q));
                        visit(x, y, a);
                    }
                }
            }
        }
        // T-masked blocks are excluded from alpha computation
        // (Sec. 4.5) but the walk continues through them: the push
        // filter above already restricts expansion to blocks the
        // ellipse reaches.
        static constexpr int kDx[8] = {1, -1, 0, 0, 1, 1, -1, -1};
        static constexpr int kDy[8] = {0, 0, 1, -1, 1, -1, 1, -1};
        for (int k = 0; k < 8; ++k)
            push(bx + kDx[k], by + kDy[k]);
    }
    return stats;
}

} // namespace gcc3d
