/** @file Tests for the GCC (Gaussian-wise + conditional) renderer. */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "obs/metrics_registry.h"
#include "render/gaussian_wise_renderer.h"
#include "render/metrics.h"
#include "render/tile_renderer.h"
#include "test_util.h"

namespace gcc3d {
namespace {

Image
tileReference(const GaussianCloud &cloud, const Camera &cam)
{
    TileRendererConfig cfg;
    cfg.bounding = BoundingMode::OmegaSigma;
    StandardFlowStats st;
    return TileRenderer(cfg).render(cloud, cam, st);
}

TEST(GroupByDepth, OrderedAndBounded)
{
    std::vector<float> depths = {5.0f, 1.0f, 3.0f, 2.0f, 4.0f,
                                 0.5f, 2.5f, 3.5f};
    std::vector<std::uint32_t> ids = {0, 1, 2, 3, 4, 5, 6, 7};
    auto groups = groupByDepth(depths, ids, 3);
    ASSERT_EQ(groups.size(), 3u);
    float prev_hi = -1.0f;
    std::size_t total = 0;
    for (const DepthGroup &g : groups) {
        EXPECT_LE(g.members.size(), 3u);
        EXPECT_LE(g.depth_lo, g.depth_hi);
        EXPECT_GE(g.depth_lo, prev_hi);
        prev_hi = g.depth_hi;
        total += g.members.size();
    }
    EXPECT_EQ(total, ids.size());
    // First group holds the nearest Gaussians.
    EXPECT_EQ(groups[0].members[0], 5u);  // depth 0.5
}

TEST(GroupByDepth, TieBreakById)
{
    std::vector<float> depths = {1.0f, 1.0f, 1.0f};
    std::vector<std::uint32_t> ids = {7, 3, 5};
    auto groups = groupByDepth(depths, ids, 8);
    ASSERT_EQ(groups.size(), 1u);
    EXPECT_EQ(groups[0].members, (std::vector<std::uint32_t>{3, 5, 7}));
}

/**
 * The central functional-correctness property: Gaussian-wise
 * rendering with alpha-based boundary identification produces the
 * same image as the standard tile-wise pipeline.
 */
TEST(GaussianWiseRenderer, MatchesTileRenderer)
{
    SceneSpec spec = test::tinySpec(21, 2500);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);
    Image ref = tileReference(cloud, cam);

    GaussianWiseRenderer renderer;
    GaussianWiseStats st;
    Image img = renderer.render(cloud, cam, st);
    EXPECT_GT(psnr(ref, img), 45.0);
    EXPECT_GT(ssim(ref, img), 0.98);
}

TEST(GaussianWiseRenderer, ConditionalModeDoesNotChangeImage)
{
    // Cross-stage conditional processing skips only Gaussians whose
    // entire footprint is transmittance-exhausted, so the image must
    // be bit-identical with and without CC.
    SceneSpec spec = test::tinyRoomSpec(22, 3000);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);

    GaussianWiseConfig with_cc;
    with_cc.conditional = true;
    GaussianWiseConfig without_cc;
    without_cc.conditional = false;

    GaussianWiseStats s1, s2;
    Image i1 = GaussianWiseRenderer(with_cc).render(cloud, cam, s1);
    Image i2 = GaussianWiseRenderer(without_cc).render(cloud, cam, s2);

    EXPECT_DOUBLE_EQ(mse(i1, i2), 0.0);
    // And CC must actually skip work on an occluded scene.
    EXPECT_GT(s1.sh_skipped + s1.skipped_by_termination, 0);
    EXPECT_EQ(s2.sh_skipped, 0);
    EXPECT_EQ(s2.skipped_by_termination, 0);
    EXPECT_LT(s1.sh_evaluated, s2.sh_evaluated);
}

class SubviewSweep : public ::testing::TestWithParam<int>
{
};

/**
 * Compatibility Mode only changes processing order, never the result
 * (the paper: "rendering accuracy remains unchanged across different
 * sub-view sizes").
 */
TEST_P(SubviewSweep, CmodeImageMatchesFullView)
{
    SceneSpec spec = test::tinySpec(23, 2000);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);

    GaussianWiseConfig full;
    full.subview_size = 0;
    GaussianWiseStats sf;
    Image ref = GaussianWiseRenderer(full).render(cloud, cam, sf);

    GaussianWiseConfig sub;
    sub.subview_size = GetParam();
    GaussianWiseStats ss;
    Image img = GaussianWiseRenderer(sub).render(cloud, cam, ss);

    EXPECT_GT(psnr(ref, img), 50.0) << "sub-view " << GetParam();
    // Duplicated invocations only ever add work...
    EXPECT_GE(ss.stage2_invocations, sf.stage2_invocations);
    // ...while the unique populations stay duplication-free.
    EXPECT_LE(ss.depth_culled, ss.total);
    EXPECT_LE(ss.projected, ss.total);
    EXPECT_LE(ss.sh_evaluated, ss.total);
    EXPECT_LE(ss.projected, sf.total - sf.depth_culled);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SubviewSweep,
                         ::testing::Values(32, 64, 128));

TEST(GaussianWiseRenderer, SmallerSubviewsMeanMoreInvocations)
{
    SceneSpec spec = test::tinySpec(24, 2000);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);

    auto invocations = [&](int subview) {
        GaussianWiseConfig cfg;
        cfg.subview_size = subview;
        GaussianWiseStats st;
        GaussianWiseRenderer(cfg).render(cloud, cam, st);
        return st.stage2_invocations;
    };
    EXPECT_LE(invocations(128), invocations(32));
    EXPECT_LE(invocations(32), invocations(16));
}

TEST(GaussianWiseRenderer, GroupTraceConsistent)
{
    SceneSpec spec = test::tinySpec(25, 2000);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);
    GaussianWiseRenderer renderer;
    GaussianWiseStats st;
    renderer.render(cloud, cam, st);

    ASSERT_FALSE(st.group_trace.empty());
    std::int64_t projected = 0, survivors = 0, sh = 0, sh_skips = 0;
    std::int64_t blocks = 0, blends = 0, term_skips = 0;
    for (const GroupActivity &g : st.group_trace) {
        EXPECT_LE(g.projected, g.members);
        EXPECT_LE(g.survivors, g.projected);
        // Flow balance within a processed group: every cull survivor
        // is colored, conditionally skipped, or dropped in flight.
        EXPECT_EQ(g.sh_evals + g.sh_skipped + g.terminated, g.survivors);
        EXPECT_LE(g.active_blocks, g.visited_blocks);
        if (g.skipped) {
            EXPECT_EQ(g.projected, 0);
            term_skips += g.members;
        }
        projected += g.projected;
        survivors += g.survivors;
        sh += g.sh_evals;
        sh_skips += g.sh_skipped;
        term_skips += g.terminated;
        blocks += g.visited_blocks;
        blends += g.blend_ops;
    }
    EXPECT_EQ(projected, st.stage2_invocations);
    EXPECT_EQ(survivors, st.survivor_invocations);
    EXPECT_EQ(sh, st.sh_eval_invocations);
    EXPECT_EQ(sh_skips, st.sh_skip_invocations);
    EXPECT_EQ(term_skips, st.termination_skip_invocations);
    EXPECT_EQ(blocks, st.visited_blocks);
    EXPECT_EQ(blends, st.blend_ops);
    EXPECT_EQ(static_cast<std::int64_t>(st.group_trace.size()),
              st.groups);
    // Full view: the unique populations coincide with the invocation
    // counters (each Gaussian is a candidate exactly once).
    EXPECT_EQ(st.projected, st.stage2_invocations);
    EXPECT_EQ(st.survived_cull, st.survivor_invocations);
    EXPECT_EQ(st.sh_evaluated, st.sh_eval_invocations);
    EXPECT_EQ(st.sh_skipped, st.sh_skip_invocations);
    EXPECT_EQ(st.skipped_by_termination,
              st.termination_skip_invocations);
}

TEST(GaussianWiseRenderer, DepthPivotCulls)
{
    GaussianCloud cloud("p");
    cloud.add(test::makeGaussian(Vec3(0, 0, 0)));            // visible
    cloud.add(test::makeGaussian(Vec3(0, 0.5f, -4.05f)));    // on camera
    Camera cam = test::frontCamera();
    GaussianWiseRenderer renderer;
    GaussianWiseStats st;
    renderer.render(cloud, cam, st);
    EXPECT_EQ(st.depth_culled, 1);
    EXPECT_EQ(st.projected, 1);
}

TEST(GaussianWiseRenderer, EmptyScene)
{
    GaussianCloud cloud("empty");
    Camera cam = test::frontCamera();
    GaussianWiseRenderer renderer;
    GaussianWiseStats st;
    Image img = renderer.render(cloud, cam, st);
    EXPECT_FLOAT_EQ(img.meanIntensity(), 0.0f);
    EXPECT_EQ(st.groups, 0);
}

TEST(GaussianWiseRenderer, ExpLanesCountTheKernelsExponentials)
{
    // render.gw.exp_lanes: one per live lane reaching Stage IV's exp.
    // Every such lane blends, so it equals the blend count; a repeated
    // frame adds the same count (full view and Cmode).
    GaussianCloud cloud = generateScene(test::tinyRoomSpec(), 1.0f);
    Camera cam = makeCamera(test::tinyRoomSpec());
    const obs::Counter &exp_lanes =
        obs::MetricsRegistry::global().counter("render.gw.exp_lanes");
    for (int subview : {0, 64}) {
        SCOPED_TRACE(subview);
        GaussianWiseConfig cfg;
        cfg.subview_size = subview;
        const GaussianWiseRenderer renderer(cfg);
        GaussianWiseStats first_st, second_st;
        const std::int64_t before = exp_lanes.value();
        renderer.render(cloud, cam, first_st);
        const std::int64_t first = exp_lanes.value() - before;
        renderer.render(cloud, cam, second_st);
        EXPECT_EQ(exp_lanes.value() - before, 2 * first);
        ASSERT_GT(first_st.blend_ops, 0);
        EXPECT_EQ(first, GCC3D_OBS_ENABLED ? first_st.blend_ops : 0);
    }
}

TEST(GaussianWiseRenderer, ReachBlocksCountTheBoundaryTests)
{
    // render.gw.reach_blocks: one per block whose reach bit Stage IV
    // evaluated.  Every visited block was evaluated, so it is at least
    // visited_blocks; a repeated frame adds the same count (full view
    // and Cmode).  The stats carry no such field: the simulators never
    // see host work.
    GaussianCloud cloud = generateScene(test::tinyRoomSpec(), 1.0f);
    Camera cam = makeCamera(test::tinyRoomSpec());
    const obs::Counter &reach_blocks =
        obs::MetricsRegistry::global().counter("render.gw.reach_blocks");
    for (int subview : {0, 64}) {
        SCOPED_TRACE(subview);
        GaussianWiseConfig cfg;
        cfg.subview_size = subview;
        const GaussianWiseRenderer renderer(cfg);
        GaussianWiseStats first_st, second_st;
        const std::int64_t before = reach_blocks.value();
        renderer.render(cloud, cam, first_st);
        const std::int64_t first = reach_blocks.value() - before;
        renderer.render(cloud, cam, second_st);
        EXPECT_EQ(reach_blocks.value() - before, 2 * first);
        ASSERT_GT(first_st.visited_blocks, 0);
        if (GCC3D_OBS_ENABLED)
            EXPECT_GE(first, first_st.visited_blocks);
        else
            EXPECT_EQ(first, 0);
    }
}

// ---------------------------------------------------------------------
// Degenerate configuration: a group capacity of zero used to wedge
// the grouping loop forever (start += 0).
// ---------------------------------------------------------------------

TEST(GaussianWiseRenderer, ThreadsRetainNoScratchAfterRendering)
{
    // Full-view planes are 16 B/px.  Renders on six short-lived
    // threads, full view and Cmode, leave no scratch with a thread:
    // the process-wide cache holds at most as many scratches as were
    // ever leased at once, each no larger than one view's worth.
    const GaussianCloud cloud =
        generateScene(test::tinySpec(61, 2000), 1.0f);
    const Camera cam = test::frontCamera(320, 240);
    GaussianWiseConfig cmode;
    cmode.subview_size = 64;
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t)
        threads.emplace_back([&, t] {
            GaussianWiseStats stats;
            GaussianWiseRenderer(t % 2 ? cmode : GaussianWiseConfig{})
                .render(cloud, cam, stats);
        });
    for (std::thread &t : threads)
        t.join();
    const std::size_t per_view =
        16 * (static_cast<std::size_t>(cam.width()) * cam.height() + 64) +
        64 * cloud.size() + (std::size_t{1} << 16);
    const std::size_t peak = GaussianWiseRenderer::peakScratchLeases();
    EXPECT_GE(peak, 1u);
    EXPECT_GT(GaussianWiseRenderer::retainedScratchBytes(), 0u);
    EXPECT_LE(GaussianWiseRenderer::retainedScratchBytes(), peak * per_view);
}

TEST(GroupByDepth, DegenerateCapacityDoesNotHang)
{
    std::vector<float> depths = {3.0f, 1.0f, 2.0f};
    std::vector<std::uint32_t> ids = {0, 1, 2};
    for (int cap : {0, -5}) {
        auto groups = groupByDepth(depths, ids, cap);
        ASSERT_EQ(groups.size(), 3u) << "capacity " << cap;
        for (const DepthGroup &g : groups)
            EXPECT_EQ(g.members.size(), 1u);
        EXPECT_EQ(groups[0].members[0], 1u);  // depth 1 first
    }
}

TEST(GaussianWiseRenderer, ConfigValidationClampsDegenerateValues)
{
    GaussianWiseConfig cfg;
    cfg.group_capacity = 0;
    cfg.block_size = -2;
    cfg.subview_size = -64;
    GaussianWiseRenderer renderer(cfg);
    EXPECT_EQ(renderer.config().group_capacity, 1);
    EXPECT_EQ(renderer.config().block_size, 1);
    EXPECT_EQ(renderer.config().subview_size, 0);

    // And a render with the clamped config completes.
    GaussianCloud cloud = generateScene(test::tinySpec(26, 300), 1.0f);
    Camera cam = makeCamera(test::tinySpec(26, 300));
    GaussianWiseStats st;
    Image img = renderer.render(cloud, cam, st);
    EXPECT_EQ(img.width(), cam.width());
    EXPECT_GT(st.groups, 0);
}

// ---------------------------------------------------------------------
// Cmode stats accounting (the Stage I survivor-underflow bug): unique
// populations must stay duplication-free no matter how small the
// sub-views get.
// ---------------------------------------------------------------------

TEST(GaussianWiseRenderer, CmodeUniquePopulationsNeverExceedTotal)
{
    SceneSpec spec = test::tinySpec(27, 2500);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);

    for (int sub : {16, 32, 64}) {
        GaussianWiseConfig cfg;
        cfg.subview_size = sub;
        GaussianWiseStats st;
        GaussianWiseRenderer(cfg).render(cloud, cam, st);

        EXPECT_LE(st.depth_culled, st.total) << "sub " << sub;
        EXPECT_LE(st.projected, st.total) << "sub " << sub;
        EXPECT_LE(st.survived_cull, st.projected) << "sub " << sub;
        EXPECT_LE(st.sh_evaluated + st.sh_skipped, st.survived_cull)
            << "sub " << sub;
        EXPECT_LE(st.rendered_gaussians, st.sh_evaluated) << "sub " << sub;
        // The unique populations partition below total even though
        // the invocation counters blow past it for tiny sub-views.
        EXPECT_LE(st.depth_culled + st.projected +
                      st.skipped_by_termination,
                  st.total)
            << "sub " << sub;
        EXPECT_GE(st.stage2_invocations, st.projected) << "sub " << sub;
    }
}

// ---------------------------------------------------------------------
// Conditional-loading block window with off-view footprint centers
// (negative local coordinates need floor, not truncation, division).
// ---------------------------------------------------------------------

TEST(GaussianWiseRenderer, OffViewCenterConditionalMatchesUnconditional)
{
    // A huge splat whose projected center sits left of / above the
    // view while its footprint reaches well inside, layered behind an
    // opaque foreground so the T-mask is partially set — the exact
    // geometry where a truncation-based block window goes wrong.
    GaussianCloud cloud("offview");
    Gaussian big = test::makeGaussian(Vec3(1.22f, 0.0f, -2.0f), 1.2f,
                                      0.9f);
    big.setBaseColor(Vec3(0.1f, 0.7f, 0.9f));
    cloud.add(big);
    for (int i = 0; i < 6; ++i)
        cloud.add(test::makeGaussian(
            Vec3(-0.6f + 0.25f * static_cast<float>(i), 0.2f, -0.5f),
            0.3f, 0.99f));
    Camera cam = test::frontCamera();

    // Sanity: the big splat's center really projects off-view.
    auto s = projectGaussian(cloud[0], 0, cam, nullptr);
    ASSERT_TRUE(s.has_value());
    ASSERT_TRUE(s->ellipse.center.x < 0.0f || s->ellipse.center.y < 0.0f)
        << "center " << s->ellipse.center.x << "," << s->ellipse.center.y;

    GaussianWiseConfig with_cc;
    with_cc.conditional = true;
    GaussianWiseConfig without_cc;
    without_cc.conditional = false;
    GaussianWiseStats s1, s2;
    Image i1 = GaussianWiseRenderer(with_cc).render(cloud, cam, s1);
    Image i2 = GaussianWiseRenderer(without_cc).render(cloud, cam, s2);

    // Conditional loading may only skip provably invisible work.
    EXPECT_DOUBLE_EQ(mse(i1, i2), 0.0);
    EXPECT_GT(s1.blend_ops, 0);
    EXPECT_EQ(s1.blend_ops, s2.blend_ops);
}

// ---------------------------------------------------------------------
// Mid-group termination accounting: a scene that saturates every
// pixel with groups still in flight must keep the flow balanced.
// ---------------------------------------------------------------------

TEST(GaussianWiseRenderer, SaturatingSceneBalancesFlowCounters)
{
    // Three opaque full-view layers saturate transmittance (0.01^3 <
    // 1e-4); hundreds of Gaussians behind them must all be accounted
    // as termination skips, whether their group was never processed
    // or was dropped mid-flight.
    GaussianCloud cloud("saturating");
    for (int layer = 0; layer < 3; ++layer)
        for (int ix = -2; ix <= 2; ++ix)
            for (int iy = -2; iy <= 2; ++iy)
                cloud.add(test::makeGaussian(
                    Vec3(0.8f * static_cast<float>(ix),
                         0.8f * static_cast<float>(iy),
                         -1.0f + 0.2f * static_cast<float>(layer)),
                    0.9f, 0.99f));
    for (int i = 0; i < 400; ++i)
        cloud.add(test::makeGaussian(
            Vec3(0.01f * static_cast<float>(i % 20 - 10),
                 0.01f * static_cast<float>(i / 20 - 10),
                 2.0f + 0.01f * static_cast<float>(i)),
            0.2f, 0.9f));
    Camera cam = test::frontCamera();

    GaussianWiseConfig cfg;
    cfg.group_capacity = 64;
    GaussianWiseStats st;
    GaussianWiseRenderer(cfg).render(cloud, cam, st);

    ASSERT_GT(st.termination_skip_invocations, 0)
        << "scene failed to trigger termination";
    // Every pivot survivor is accounted exactly once per invocation:
    // projected into Stage II or dropped by group-level skip; within
    // Stage II, colored, CC-masked or dropped in flight.
    std::int64_t group_skip = 0, tail = 0;
    bool saw_tail = false;
    for (const GroupActivity &g : st.group_trace) {
        if (g.skipped)
            group_skip += g.members;
        tail += g.terminated;
        if (g.terminated > 0)
            saw_tail = true;
        EXPECT_EQ(g.sh_evals + g.sh_skipped + g.terminated, g.survivors);
    }
    EXPECT_TRUE(saw_tail) << "no group terminated mid-flight";
    EXPECT_EQ(group_skip + tail, st.termination_skip_invocations);
    EXPECT_EQ(st.stage2_invocations + group_skip,
              st.total - st.depth_culled);
}

} // namespace
} // namespace gcc3d
