/** @file Tests for the standard-dataflow (tile-wise) renderer. */

#include <gtest/gtest.h>

#include "obs/metrics_registry.h"
#include "render/metrics.h"
#include "render/tile_renderer.h"
#include "test_util.h"

namespace gcc3d {
namespace {

TEST(TileRenderer, SingleGaussianRendersItsColor)
{
    GaussianCloud cloud("one");
    Gaussian g = test::makeGaussian(Vec3(0, 0, 0), 0.3f, 0.95f);
    g.setBaseColor(Vec3(0.9f, 0.1f, 0.1f));
    cloud.add(g);
    Camera cam = test::frontCamera();

    TileRenderer renderer;
    StandardFlowStats st;
    Image img = renderer.render(cloud, cam, st);
    EXPECT_EQ(st.rendered_gaussians, 1);
    Vec2 c = cam.worldToPixel(Vec3(0, 0, 0));
    Vec3 px = img.at(static_cast<int>(c.x), static_cast<int>(c.y));
    EXPECT_NEAR(px.x, 0.9f * 0.95f, 0.05f);
    EXPECT_LT(px.y, 0.25f);
}

TEST(TileRenderer, FrontGaussianOccludesBack)
{
    GaussianCloud cloud("two");
    Gaussian front = test::makeGaussian(Vec3(0, 0, -1.0f), 0.25f, 0.99f);
    front.setBaseColor(Vec3(1.0f, 0.0f, 0.0f));
    Gaussian back = test::makeGaussian(Vec3(0, 0, 1.0f), 0.25f, 0.99f);
    back.setBaseColor(Vec3(0.0f, 1.0f, 0.0f));
    // Add back-most first: depth sorting must fix the order.
    cloud.add(back);
    cloud.add(front);
    Camera cam = test::frontCamera();

    TileRenderer renderer;
    StandardFlowStats st;
    Image img = renderer.render(cloud, cam, st);
    Vec2 c = cam.worldToPixel(Vec3(0, 0, -1.0f));
    Vec3 px = img.at(static_cast<int>(c.x), static_cast<int>(c.y));
    EXPECT_GT(px.x, 3.0f * px.y) << "front (red) must dominate";
}

TEST(TileRenderer, StatsAreConsistent)
{
    GaussianCloud cloud = generateScene(test::tinySpec(), 1.0f);
    Camera cam = makeCamera(test::tinySpec());
    TileRenderer renderer;
    StandardFlowStats st;
    Image img = renderer.render(cloud, cam, st);
    (void)img;

    EXPECT_GT(st.kv_pairs, 0);
    EXPECT_LE(st.tile_fetches, st.kv_pairs);
    EXPECT_LE(st.fetched_gaussians, st.tile_fetches);
    EXPECT_LE(st.rendered_gaussians, st.fetched_gaussians);
    EXPECT_LE(st.blend_ops, st.alpha_evals);
    EXPECT_EQ(st.sorted_keys, st.kv_pairs);
    EXPECT_GE(st.loadsPerRenderedGaussian(), 1.0);
    EXPECT_GT(st.subtile_passes, 0);
    EXPECT_GT(st.sort_pass_keys, st.sorted_keys - 1);
}

class TileSizeSweep : public ::testing::TestWithParam<int>
{
};

/** The rendered image must not depend on the tile size. */
TEST_P(TileSizeSweep, ImageInvariantUnderTileSize)
{
    GaussianCloud cloud = generateScene(test::tinySpec(3, 1500), 1.0f);
    Camera cam = makeCamera(test::tinySpec(3, 1500));

    TileRendererConfig ref_cfg;
    ref_cfg.tile_size = 16;
    ref_cfg.bounding = BoundingMode::OmegaSigma;
    StandardFlowStats st_ref;
    Image ref = TileRenderer(ref_cfg).render(cloud, cam, st_ref);

    TileRendererConfig cfg;
    cfg.tile_size = GetParam();
    cfg.bounding = BoundingMode::OmegaSigma;
    StandardFlowStats st;
    Image img = TileRenderer(cfg).render(cloud, cam, st);

    EXPECT_GT(psnr(ref, img), 55.0) << "tile size " << GetParam();
    EXPECT_EQ(st.rendered_gaussians, st_ref.rendered_gaussians);
}

// 64 regresses the subtile live-count buffer: with tile_size 64 the
// 8x8 subtile grid has 64 cells, which overflowed the former
// fixed-size sub_live[16] array (UB) before it was sized from sub_n.
INSTANTIATE_TEST_SUITE_P(Sizes, TileSizeSweep,
                         ::testing::Values(8, 16, 32, 64));

TEST(TileRenderer, LargeTileSubtileCountsStayConsistent)
{
    // tile_size 64 exercises all 64 subtile counters; the subtile
    // pass count must stay within [1, sub_n^2] passes per fetch and
    // the render must agree with the reference path (which shares
    // the dynamically sized buffer).
    GaussianCloud cloud = generateScene(test::tinyRoomSpec(44, 2000), 1.0f);
    Camera cam = makeCamera(test::tinyRoomSpec(44, 2000));
    TileRendererConfig cfg;
    cfg.tile_size = 64;
    TileRenderer renderer(cfg);
    StandardFlowStats st;
    Image img = renderer.render(cloud, cam, st);
    (void)img;
    EXPECT_GT(st.subtile_passes, 0);
    EXPECT_LE(st.subtile_passes, st.tile_fetches * 64);
}

TEST(TileRenderer, BoundingModesAgreeOnImage)
{
    // AABB/OBB/omega-sigma bounding change the work, not the picture
    // (up to clipping of >3-sigma tails of near-opaque splats).
    GaussianCloud cloud = generateScene(test::tinySpec(4, 1500), 1.0f);
    Camera cam = makeCamera(test::tinySpec(4, 1500));

    StandardFlowStats s1, s2, s3;
    TileRendererConfig c1, c2, c3;
    c1.bounding = BoundingMode::Aabb3Sigma;
    c2.bounding = BoundingMode::Obb3Sigma;
    c3.bounding = BoundingMode::OmegaSigma;
    Image i1 = TileRenderer(c1).render(cloud, cam, s1);
    Image i2 = TileRenderer(c2).render(cloud, cam, s2);
    Image i3 = TileRenderer(c3).render(cloud, cam, s3);

    EXPECT_GT(psnr(i1, i2), 40.0);
    EXPECT_GT(psnr(i1, i3), 40.0);
    // The opacity-aware bound generates no more KV pairs than the
    // static AABB for low-opacity splats; overall far fewer tiles
    // than AABB in aggregate is not guaranteed per-splat, so compare
    // pixel workloads instead.
    EXPECT_LT(s2.kv_pairs, s1.kv_pairs);
}

TEST(TileRenderer, EarlyTerminationReducesWork)
{
    GaussianCloud cloud = generateScene(test::tinyRoomSpec(), 1.0f);
    Camera cam = makeCamera(test::tinyRoomSpec());

    TileRendererConfig strict;
    strict.termination_t = 1e-2f;  // aggressive termination
    TileRendererConfig loose;
    loose.termination_t = 1e-8f;   // nearly exact

    StandardFlowStats ss, sl;
    TileRenderer(strict).render(cloud, cam, ss);
    TileRenderer(loose).render(cloud, cam, sl);
    EXPECT_LT(ss.blend_ops, sl.blend_ops);
    EXPECT_LE(ss.rendered_gaussians, sl.rendered_gaussians);
}

TEST(TileRenderer, ExpLanesCountTheKernelsExponentials)
{
    // render.tile.exp_lanes: one per live lane reaching the exp step,
    // so at least one per blend and at most one per counted alpha
    // test; a repeated frame adds the same count.
    GaussianCloud cloud = generateScene(test::tinyRoomSpec(), 1.0f);
    Camera cam = makeCamera(test::tinyRoomSpec());
    const TileRenderer renderer;
    const obs::Counter &exp_lanes =
        obs::MetricsRegistry::global().counter("render.tile.exp_lanes");
    StandardFlowStats first_st, second_st;
    const std::int64_t before = exp_lanes.value();
    renderer.render(cloud, cam, first_st);
    const std::int64_t first = exp_lanes.value() - before;
    renderer.render(cloud, cam, second_st);
    EXPECT_EQ(exp_lanes.value() - before, 2 * first);
    ASSERT_GT(first_st.blend_ops, 0);
    if (GCC3D_OBS_ENABLED) {
        EXPECT_GE(first, first_st.blend_ops);
        EXPECT_LE(first, first_st.alpha_evals);
    } else {
        EXPECT_EQ(first, 0);
    }
}

TEST(TileRenderer, EmptySceneRendersBlack)
{
    GaussianCloud cloud("empty");
    Camera cam = test::frontCamera();
    TileRenderer renderer;
    StandardFlowStats st;
    Image img = renderer.render(cloud, cam, st);
    EXPECT_FLOAT_EQ(img.meanIntensity(), 0.0f);
    EXPECT_EQ(st.rendered_gaussians, 0);
}

TEST(TileRenderer, TilesPerSplatMatchesBinning)
{
    GaussianCloud cloud = generateScene(test::tinySpec(8, 600), 1.0f);
    Camera cam = makeCamera(test::tinySpec(8, 600));
    PreprocessStats pre;
    std::vector<Splat> splats = preprocessAll(cloud, cam, pre);

    TileRenderer renderer;
    std::vector<int> tiles = renderer.tilesPerSplat(splats, cam);
    ASSERT_EQ(tiles.size(), splats.size());
    std::int64_t total = 0;
    for (int t : tiles) {
        EXPECT_GE(t, 0);
        total += t;
    }
    StandardFlowStats st;
    renderer.render(cloud, cam, st);
    EXPECT_EQ(total, st.kv_pairs);
}

} // namespace
} // namespace gcc3d
