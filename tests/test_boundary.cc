/** @file Tests for alpha-based boundary identification (Algorithm 1). */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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
    // Evaluations happen in whole blocks of 64 (interior blocks).
    EXPECT_EQ(st.alpha_evals % 1, 0);
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
    // traverseLanes hands out the same pixels, in the same order and
    // with the same stats, as the per-pixel traverse(): expanding each
    // lane group's pass bits and turning q into alpha the way
    // traverse() does must reproduce its visit sequence bit for bit.
    // Ragged views and block sizes leave partial lane groups; the
    // T-mask case masks every third block.
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
                    const BoundaryStats st = traversal.traverseLanes(
                        e, omega, t_mask,
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
                    EXPECT_EQ(st.alpha_evals, st_ref.alpha_evals);
                    EXPECT_EQ(st.influence_pixels, st_ref.influence_pixels);
                    EXPECT_EQ(st.visited_blocks, st_ref.visited_blocks);
                    EXPECT_EQ(st.active_blocks, st_ref.active_blocks);
                }
            }
        }
    }
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
