/** @file Tests for alpha-based boundary identification (Algorithm 1). */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "render/boundary.h"

namespace gcc3d {
namespace {

/** Brute-force reference: scan every pixel against the threshold. */
std::set<std::pair<int, int>>
bruteForceRegion(const Ellipse &e, float omega, int w, int h)
{
    std::set<std::pair<int, int>> region;
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            Vec2 p(x + 0.5f, y + 0.5f);
            if (e.alphaAt(p, omega) >= kAlphaMin)
                region.insert({x, y});
        }
    }
    return region;
}

struct BoundaryCase
{
    float cx, cy;       // center
    float a, b, c;      // covariance entries (a, b; b, c)
    float omega;
};

class PixelBoundaryVsBruteForce
    : public ::testing::TestWithParam<BoundaryCase>
{
};

TEST_P(PixelBoundaryVsBruteForce, FindsExactRegion)
{
    const BoundaryCase &tc = GetParam();
    Ellipse e = Ellipse::fromCovariance(Vec2(tc.cx, tc.cy),
                                        Mat2(tc.a, tc.b, tc.b, tc.c));
    auto expect = bruteForceRegion(e, tc.omega, 128, 96);

    std::set<std::pair<int, int>> found;
    BoundaryStats st =
        pixelBoundary(e, tc.omega, 128, 96,
                      [&](int x, int y, float alpha) {
                          EXPECT_GE(alpha, kAlphaMin);
                          found.insert({x, y});
                      });
    EXPECT_EQ(found, expect);
    EXPECT_EQ(st.influence_pixels,
              static_cast<std::int64_t>(expect.size()));
    // Algorithm 1's point: evaluations stay proportional to the
    // region, not the image (for non-empty interior regions).
    if (expect.size() > 8) {
        EXPECT_LT(st.alpha_evals,
                  static_cast<std::int64_t>(6 * expect.size() + 64));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PixelBoundaryVsBruteForce,
    ::testing::Values(
        BoundaryCase{64, 48, 25, 0, 25, 0.9f},     // round, centered
        BoundaryCase{64, 48, 100, 40, 30, 0.8f},   // anisotropic
        BoundaryCase{5, 5, 30, 0, 30, 0.7f},       // near corner
        BoundaryCase{126, 94, 40, -15, 20, 0.6f},  // clipped corner
        BoundaryCase{-10, 48, 80, 0, 80, 0.9f},    // center off-screen
        BoundaryCase{64, 48, 4, 0, 4, 0.05f},      // tiny, translucent
        BoundaryCase{64, 48, 2, 0, 2, 0.01f},      // near threshold
        BoundaryCase{64, 48, 900, 0, 4, 0.9f}));   // extreme aspect

TEST(PixelBoundary, EmptyForTransparent)
{
    Ellipse e = Ellipse::fromCovariance(Vec2(64, 48), Mat2(25, 0, 0, 25));
    BoundaryStats st = pixelBoundary(e, 0.003f, 128, 96, nullptr);
    EXPECT_EQ(st.influence_pixels, 0);
}

TEST(BlockTraversal, CoversSameInfluencePixels)
{
    Ellipse e = Ellipse::fromCovariance(Vec2(61, 47), Mat2(60, 20, 20, 40));
    float omega = 0.85f;
    auto expect = bruteForceRegion(e, omega, 128, 96);

    BlockTraversal traversal(8, 128, 96);
    std::set<std::pair<int, int>> found;
    BoundaryStats st = traversal.traverse(
        e, omega, nullptr,
        [&](int x, int y, float) { found.insert({x, y}); });
    EXPECT_EQ(found, expect);
    EXPECT_GT(st.visited_blocks, 0);
    EXPECT_GE(st.visited_blocks, st.active_blocks);
    // 128x96 tiles into whole 8-px blocks, so every visited block
    // evaluates all 64 of its pixels.
    EXPECT_EQ(st.alpha_evals, 64 * st.visited_blocks);
    EXPECT_GE(st.alpha_evals,
              static_cast<std::int64_t>(expect.size()));
}

TEST(BlockTraversal, TMaskSuppressesBlocks)
{
    BlockTraversal traversal(8, 128, 96);
    Ellipse e = Ellipse::fromCovariance(Vec2(64, 48), Mat2(80, 0, 0, 80));
    float omega = 0.9f;

    BoundaryStats unmasked = traversal.traverse(e, omega, nullptr, nullptr);

    // Mask every block: no evaluations at all.
    std::vector<std::uint8_t> all(
        static_cast<std::size_t>(traversal.blocksX()) *
            traversal.blocksY(),
        1);
    BoundaryStats none = traversal.traverse(e, omega, &all, nullptr);
    EXPECT_EQ(none.alpha_evals, 0);
    EXPECT_EQ(none.visited_blocks, 0);

    // Mask the center block only: fewer evals, and traversal still
    // reaches the far side of the footprint (walks through the mask).
    std::vector<std::uint8_t> center(all.size(), 0);
    int cb = (48 / 8) * traversal.blocksX() + (64 / 8);
    center[static_cast<std::size_t>(cb)] = 1;
    std::set<std::pair<int, int>> found;
    BoundaryStats partial = traversal.traverse(
        e, omega, &center,
        [&](int x, int y, float) { found.insert({x, y}); });
    EXPECT_LT(partial.alpha_evals, unmasked.alpha_evals);
    bool reached_far = false;
    for (auto &[x, y] : found)
        if (x > 72 + 8)
            reached_far = true;
    EXPECT_TRUE(reached_far);
}

TEST(BlockTraversal, BlockReachableMatchesGeometry)
{
    BlockTraversal traversal(8, 128, 96);
    Ellipse e = Ellipse::fromCovariance(Vec2(64, 48), Mat2(25, 0, 0, 25));
    // radius at omega 0.9: sqrt(2 ln(229.5) * 25) ~ 16.5 px -> ~2 blocks
    EXPECT_TRUE(traversal.blockReachable(e, 0.9f, 8, 6));   // center
    EXPECT_FALSE(traversal.blockReachable(e, 0.9f, 0, 0));  // far corner
    EXPECT_FALSE(traversal.blockReachable(e, 0.001f, 8, 6)); // transparent
}

TEST(BlockTraversal, BlockVisitFiresOncePerActiveBlock)
{
    BlockTraversal traversal(8, 64, 64);
    Ellipse e = Ellipse::fromCovariance(Vec2(32, 32), Mat2(30, 0, 0, 30));
    std::set<std::pair<int, int>> blocks;
    BoundaryStats st = traversal.traverse(
        e, 0.9f, nullptr, [](int, int, float) {},
        [&](int bx, int by) {
            EXPECT_TRUE(blocks.insert({bx, by}).second)
                << "duplicate block visit";
        });
    EXPECT_EQ(st.active_blocks,
              static_cast<std::int64_t>(blocks.size()));
}

TEST(BlockTraversal, LaneGroupsMatchPerPixelTraversal)
{
    // traverseLanes hands out the same pixels, with the same stats, as
    // the per-pixel traverse(), in traverse()'s order re-sorted by
    // block row, then block column (stable within a block): expanding
    // each lane group's pass bits and turning q into alpha the way
    // traverse() does must reproduce that sequence bit for bit, and
    // no pixel is visited twice.  Ragged views and block sizes leave
    // partial lane groups; the T-mask case masks every third block.
    struct Visit
    {
        int x, y;
        float alpha;
        bool operator==(const Visit &) const = default;
    };
    const Ellipse ellipses[] = {
        Ellipse::fromCovariance(Vec2(61, 47), Mat2(60, 20, 20, 40)),
        Ellipse::fromCovariance(Vec2(-5, 30), Mat2(300, 50, 50, 90)),
        Ellipse::fromCovariance(Vec2(3.2f, 2.7f), Mat2(2, 0.5f, 0.5f, 1)),
    };
    ReachWindow window;
    for (auto [w, h] : {std::pair{130, 70}, std::pair{7, 5},
                        std::pair{1, 1}}) {
        for (int n : {2, 4, 8, 12, 16}) {
            BlockTraversal traversal(n, w, h);
            std::vector<std::uint8_t> mask(
                static_cast<std::size_t>(traversal.blocksX()) *
                    traversal.blocksY(),
                0);
            for (std::size_t i = 0; i < mask.size(); i += 3)
                mask[i] = 1;
            for (const Ellipse &e : ellipses) {
                for (const auto *t_mask :
                     {static_cast<std::vector<std::uint8_t> *>(nullptr),
                      &mask}) {
                    SCOPED_TRACE(::testing::Message()
                                 << w << "x" << h << ", block " << n
                                 << ", center " << e.center.x << ","
                                 << e.center.y << ", masked "
                                 << (t_mask != nullptr));
                    const float omega = 0.9f;
                    std::vector<Visit> ref, lanes;
                    const BoundaryStats st_ref = traversal.traverse(
                        e, omega, t_mask, [&](int x, int y, float a) {
                            ref.push_back({x, y, a});
                        });
                    std::stable_sort(ref.begin(), ref.end(),
                                     [n](const Visit &a, const Visit &b) {
                                         return std::pair(a.y / n, a.x / n) <
                                                std::pair(b.y / n, b.x / n);
                                     });
                    traversal.reach(e, omega, window);
                    const BoundaryStats st = traversal.traverseLanes(
                        window, t_mask,
                        [&](int x, int y, const simd::FloatV &q,
                            unsigned bits) {
                            EXPECT_NE(bits, 0u);
                            for (; bits != 0; bits &= bits - 1) {
                                const int i = std::countr_zero(bits);
                                lanes.push_back(
                                    {x + i, y,
                                     std::min(0.99f,
                                              omega * std::exp(
                                                          -0.5f *
                                                          q.lane(i)))});
                            }
                        });
                    EXPECT_TRUE(ref == lanes);
                    std::set<std::pair<int, int>> pixels;
                    for (const Visit &v : lanes)
                        EXPECT_TRUE(pixels.insert({v.x, v.y}).second)
                            << "pixel " << v.x << "," << v.y
                            << " visited twice";
                    EXPECT_EQ(st.alpha_evals, st_ref.alpha_evals);
                    EXPECT_EQ(st.influence_pixels, st_ref.influence_pixels);
                    EXPECT_EQ(st.visited_blocks, st_ref.visited_blocks);
                    EXPECT_EQ(st.active_blocks, st_ref.active_blocks);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Generated splats: the reach-window walk against the scalar oracles.
// ---------------------------------------------------------------------

/** One generated case: a view, its block grid, a splat and a T-mask. */
struct WalkCase
{
    int width = 1, height = 1, block_size = 1;
    Ellipse e;
    float omega = 0.5f;
    std::vector<std::uint8_t> mask;
    BlockRect load;  ///< a conditional-loading window within the grid
};

/**
 * Draw one case.  Views are 1x1, ragged or 800x800 with blocks of
 * 1-16 px.  Ellipses reach anisotropy 1e4:1 at random angles, exceed
 * the view, sit far off view or exactly on block corners and edges;
 * some conics are non-finite or indefinite, and opacities sit at and
 * around the 1/255 threshold.
 */
WalkCase
drawWalkCase(std::mt19937_64 &rng)
{
    std::uniform_real_distribution<float> u01(0.0f, 1.0f);
    auto uni = [&](float a, float b) { return a + (b - a) * u01(rng); };
    auto pick = [&](int n) { return static_cast<int>(rng() % n); };

    WalkCase c;
    const int view = pick(10);
    c.width = view == 0 ? 1 : view == 1 ? 800 : 1 + pick(150);
    c.height = view == 0 ? 1 : view == 1 ? 800 : 1 + pick(150);
    c.block_size = 1 + pick(16);
    const int bx_n = (c.width + c.block_size - 1) / c.block_size;
    const int by_n = (c.height + c.block_size - 1) / c.block_size;
    const float span = static_cast<float>(std::max(c.width, c.height));

    Vec2 center;
    switch (pick(4)) {
    case 0: // far off view
        center = Vec2(uni(-20.0f, 21.0f) * span, uni(-20.0f, 21.0f) * span);
        break;
    case 1: // exactly on a block corner or edge
        center = Vec2(static_cast<float>(c.block_size * pick(bx_n + 1)),
                      static_cast<float>(c.block_size * pick(by_n + 1)));
        if (pick(2) == 0)
            center.y += uni(0.0f, static_cast<float>(c.block_size));
        break;
    default: // in or near the view
        center = Vec2(uni(-0.25f, 1.25f) * c.width,
                      uni(-0.25f, 1.25f) * c.height);
    }

    const int shape = pick(8);
    if (shape <= 5) {
        // Major sigma log-uniform; shape 5 exceeds the view.
        const float sigma =
            shape == 5 ? uni(1.0f, 4.0f) * span
                       : 0.3f * std::pow(2.0f * span / 0.3f, u01(rng));
        const float l1 = sigma * sigma;
        const float l2 = l1 / std::pow(10.0f, uni(0.0f, 4.0f));
        const float a = uni(0.0f, std::numbers::pi_v<float>);
        const float co = std::cos(a), si = std::sin(a);
        c.e = Ellipse::fromCovariance(
            center, Mat2(co * co * l1 + si * si * l2, co * si * (l1 - l2),
                         co * si * (l1 - l2), si * si * l1 + co * co * l2));
    } else if (shape == 6) {
        // Non-finite conic entries.
        c.e = Ellipse::fromCovariance(center, Mat2(20, 5, 5, 10));
        const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
        for (int k = 1 + pick(2); k > 0; --k)
            c.e.conic(pick(2), pick(2)) = bad[pick(3)];
    } else {
        // Indefinite conic: the q <= cutoff region is unbounded.
        c.e = Ellipse::fromCovariance(center, Mat2(20, 5, 5, 10));
        const float off = uni(-0.1f, 0.1f);
        c.e.conic = Mat2(uni(0.001f, 0.5f), off, off, -uni(0.001f, 0.5f));
        if (pick(2) == 0)
            std::swap(c.e.conic(0, 0), c.e.conic(1, 1));
    }

    switch (pick(8)) {
    case 0: c.omega = uni(0.0f, kAlphaMin); break;
    case 1: c.omega = kAlphaMin; break;
    case 2: c.omega = std::nextafter(kAlphaMin, 1.0f); break;
    case 3: c.omega = 1.0f; break;
    default: c.omega = uni(kAlphaMin, 1.0f);
    }

    const float density = std::array{0.0f, 0.25f, 0.6f, 1.0f}[pick(4)];
    c.mask.resize(static_cast<std::size_t>(bx_n) * by_n);
    for (std::uint8_t &m : c.mask)
        m = u01(rng) < density ? 1 : 0;

    if (pick(8) != 0) {
        c.load.x0 = pick(bx_n);
        c.load.x1 = c.load.x0 + pick(bx_n - c.load.x0);
        c.load.y0 = pick(by_n);
        c.load.y1 = c.load.y0 + pick(by_n - c.load.y0);
    }
    return c;
}

/**
 * Run one case through reach() + anyUnmaskedReach() + traverseLanes
 * and through the oracles — traverse()'s visits and stats, and the
 * blockReachable loop the reference renderer's conditional loading
 * runs.  Returns whether the reach window had to grow.
 */
bool
checkWalkCase(const WalkCase &c, ReachWindow &window)
{
    struct Visit
    {
        int x, y;
        std::uint32_t alpha_bits;
        auto operator<=>(const Visit &) const = default;
    };
    auto bits = [](float a) { return std::bit_cast<std::uint32_t>(a); };
    BlockTraversal traversal(c.block_size, c.width, c.height);

    std::vector<Visit> ref, lanes;
    const BoundaryStats st_ref = traversal.traverse(
        c.e, c.omega, &c.mask,
        [&](int x, int y, float a) { ref.push_back({x, y, bits(a)}); });
    bool ref_unmasked = false;
    for (int by = c.load.y0; by <= c.load.y1; ++by)
        for (int bx = c.load.x0; bx <= c.load.x1; ++bx)
            ref_unmasked |=
                c.mask[static_cast<std::size_t>(by) * traversal.blocksX() +
                       bx] == 0 &&
                traversal.blockReachable(c.e, c.omega, bx, by);

    traversal.reach(c.e, c.omega, window, c.load);
    EXPECT_EQ(traversal.anyUnmaskedReach(window, c.load, c.mask.data()),
              ref_unmasked);
    const BoundaryStats st = traversal.traverseLanes(
        window, &c.mask,
        [&](int x, int y, const simd::FloatV &q, unsigned pass) {
            for (; pass != 0; pass &= pass - 1) {
                const int i = std::countr_zero(pass);
                lanes.push_back(
                    {x + i, y,
                     bits(std::min(0.99f, c.omega * std::exp(
                                                        -0.5f * q.lane(i))))});
            }
        });
    std::sort(ref.begin(), ref.end());
    std::sort(lanes.begin(), lanes.end());
    EXPECT_TRUE(ref == lanes);
    EXPECT_EQ(st.alpha_evals, st_ref.alpha_evals);
    EXPECT_EQ(st.influence_pixels, st_ref.influence_pixels);
    EXPECT_EQ(st.visited_blocks, st_ref.visited_blocks);
    EXPECT_EQ(st.active_blocks, st_ref.active_blocks);
    return window.evaluatedBlocks() > window.window().area();
}

/** Run @p cases generated cases from @p seed; returns growth count. */
int
runWalkCases(std::uint64_t seed, int cases)
{
    std::mt19937_64 rng(seed);
    ReachWindow window;  // reused across cases, as the renderer does
    int grown = 0;
    for (int i = 0; i < cases; ++i) {
        const WalkCase c = drawWalkCase(rng);
        SCOPED_TRACE(::testing::Message()
                     << "case " << i << ": " << c.width << "x" << c.height
                     << " block " << c.block_size << ", center "
                     << c.e.center.x << "," << c.e.center.y << ", conic "
                     << c.e.conic(0, 0) << " " << c.e.conic(0, 1) << " "
                     << c.e.conic(1, 0) << " " << c.e.conic(1, 1)
                     << ", omega " << c.omega);
        grown += checkWalkCase(c, window) ? 1 : 0;
        if (::testing::Test::HasFailure())
            break;
    }
    return grown;
}

TEST(BlockTraversal, WindowWalkMatchesReferenceOnGeneratedSplats)
{
    // Visits (as a multiset: the walk orders blocks row-major, the
    // oracle breadth-first), stats and the fused conditional-loading
    // decision all equal the scalar oracles', and the window-growth
    // path is taken.
    EXPECT_GT(runWalkCases(1, 1000), 0);
}

TEST(BlockTraversal, WindowWalkMatchesReferenceOnShrunkCases)
{
    // Cases the generator found, each the first to separate a flood
    // that drops one rule from the oracle: a horizontal step across a
    // 64-block word boundary (two words, one row); a diagonal step
    // between rows, in one word and across two.
    auto conicCase = [](int w, int h, int n, Vec2 center, Mat2 conic,
                        float omega) {
        WalkCase c;
        c.width = w;
        c.height = h;
        c.block_size = n;
        c.e = Ellipse::fromCovariance(center, Mat2(1, 0, 0, 1));
        c.e.conic = conic;
        c.omega = omega;
        return c;
    };
    std::vector<WalkCase> cases = {
        conicCase(145, 2, 2, Vec2(15.100574493408203f, 0.013531804084777832f),
                  Mat2(0.00029115614597685635f, 5.4311396525008604e-05f,
                       5.4311396525008604e-05f, 5.3806055802851915e-05f),
                  0.33630380034446716f),
        conicCase(51, 7, 6, Vec2(15.880095481872559f, -1.0261046886444092f),
                  Mat2(1.1009597778320312f, -1.6975952386856079f,
                       -1.6975952386856079f, 2.6222312450408936f),
                  0.098034344613552094f),
    };
    WalkCase wide;
    wide.width = 718;
    wide.height = 57;
    wide.block_size = 2;
    wide.e = Ellipse::fromCovariance(
        Vec2(183.798767f, 17.7020302f),
        Mat2(441.810425f, -298.523376f, -298.523376f, 201.805878f));
    wide.omega = 0.55854702f;
    cases.push_back(wide);
    ReachWindow window;
    for (WalkCase &c : cases) {
        SCOPED_TRACE(::testing::Message()
                     << c.width << "x" << c.height << " block "
                     << c.block_size);
        c.mask.assign(static_cast<std::size_t>(
                          (c.width + c.block_size - 1) / c.block_size) *
                          ((c.height + c.block_size - 1) / c.block_size),
                      0);
        checkWalkCase(c, window);
    }
}

TEST(BlockTraversal, DISABLED_WindowWalkMatchesReferenceSoak)
{
    // ~10^5 cases; run with --gtest_also_run_disabled_tests.
    EXPECT_GT(runWalkCases(0x5eed, 100000), 0);
}

TEST(BlockTraversal, ReachLanesMatchScalarRectTest)
{
    // Every lane of reachLanes is minConicQOverRect(...) <= cutoff over
    // its block's view-clipped rect, bit for bit: random conics
    // (NaN, +-inf and indefinite ones included), centers far outside
    // the view, on block edges or not finite, cutoffs around 0, and
    // the ragged last block column/row clipped by width/height.
    std::mt19937_64 rng(7);
    std::uniform_real_distribution<float> u01(0.0f, 1.0f);
    auto uni = [&](float a, float b) { return a + (b - a) * u01(rng); };
    auto pick = [&](int n) { return static_cast<int>(rng() % n); };
    const float specials[] = {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              0.0f, -0.0f, 1e30f, -1e-30f};
    auto entry = [&](float lo, float hi) {
        return pick(8) == 0 ? specials[pick(7)] : uni(lo, hi);
    };
    int clipped = 0;
    for (int iter = 0; iter < 200000; ++iter) {
        const int width = 1 + pick(300), height = 1 + pick(300);
        const int n = 1 + pick(16);
        const int bx_n = (width + n - 1) / n, by_n = (height + n - 1) / n;
        boundary_detail::ReachConic k;
        k.c00 = entry(-0.1f, 2.0f);
        k.c01 = k.c10 = entry(-1.0f, 1.0f);
        if (pick(4) == 0)
            k.c10 = entry(-1.0f, 1.0f);
        k.c11 = entry(-0.1f, 2.0f);
        switch (pick(4)) {
        case 0:
            k.cx = uni(-1e6f, 1e6f);
            k.cy = uni(-1e6f, 1e6f);
            break;
        case 3: // non-finite or signed-zero centers
            k.cx = pick(2) == 0 ? specials[pick(5)] : uni(-20.0f, 20.0f);
            k.cy = pick(2) == 0 ? specials[pick(5)] : uni(-20.0f, 20.0f);
            break;
        case 1:
            k.cx = static_cast<float>(n * pick(bx_n + 1));
            k.cy = static_cast<float>(n * pick(by_n + 1));
            break;
        default:
            k.cx = uni(-20.0f, width + 20.0f);
            k.cy = uni(-20.0f, height + 20.0f);
        }
        k.cutoff = pick(8) == 0 ? specials[pick(7)] : uni(-1.0f, 12.0f);
        // Bias toward the last lane group, whose blocks the view clips.
        const int bx0 = pick(2) == 0 ? std::max(0, bx_n - simd::kWidth)
                                     : pick(bx_n);
        const int by = pick(2) == 0 ? by_n - 1 : pick(by_n);
        const unsigned got = boundary_detail::reachLanes(k, bx0, by, n,
                                                         width, height);
        for (int i = 0; i < simd::kWidth && bx0 + i < bx_n; ++i) {
            const float x0 = static_cast<float>((bx0 + i) * n);
            const float y0 = static_cast<float>(by * n);
            const float x1 = std::min<float>(x0 + static_cast<float>(n),
                                             static_cast<float>(width));
            const float y1 = std::min<float>(y0 + static_cast<float>(n),
                                             static_cast<float>(height));
            clipped += x1 - x0 < n || y1 - y0 < n;
            const bool want =
                boundary_detail::minConicQOverRect(k.c00, k.c01, k.c10,
                                                   k.c11, k.cx, k.cy, x0,
                                                   y0, x1, y1) <= k.cutoff;
            ASSERT_EQ((got >> i & 1u) != 0, want)
                << "iter " << iter << " lane " << i << ": view " << width
                << "x" << height << " block " << n << " (" << bx0 + i
                << "," << by << "), conic " << k.c00 << " " << k.c01
                << " " << k.c10 << " " << k.c11 << ", center " << k.cx
                << "," << k.cy << ", cutoff " << k.cutoff;
        }
    }
    EXPECT_GT(clipped, 1000);
}

class BlockSizeSweep : public ::testing::TestWithParam<int>
{
};

/** Influence pixels are block-size independent (correctness). */
TEST_P(BlockSizeSweep, InfluenceIndependentOfBlockSize)
{
    int n = GetParam();
    Ellipse e = Ellipse::fromCovariance(Vec2(63, 41), Mat2(70, 25, 25, 50));
    BlockTraversal traversal(n, 128, 96);
    BoundaryStats st = traversal.traverse(e, 0.8f, nullptr, nullptr);
    auto expect = bruteForceRegion(e, 0.8f, 128, 96);
    EXPECT_EQ(st.influence_pixels,
              static_cast<std::int64_t>(expect.size()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BlockSizeSweep,
                         ::testing::Values(2, 4, 8, 16));

} // namespace
} // namespace gcc3d
