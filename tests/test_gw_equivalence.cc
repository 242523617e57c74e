/**
 * @file
 * Golden equivalence suite for the Gaussian-wise renderer: the
 * optimized GaussianWiseRenderer::render (shared projection pass,
 * statically-dispatched traversal, reused scratch, parallel Cmode
 * sub-views) must reproduce the retained scalar renderReference
 * bit-for-bit — identical images and identical GaussianWiseStats
 * including the per-group activity trace — across view modes,
 * conditional settings and worker counts.  Mirrors
 * tests/test_renderer_equivalence.cc for the standard dataflow, whose
 * tile-rasterization fan-out is locked in here as well.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "render/gaussian_wise_renderer.h"
#include "render/metrics.h"
#include "render/tile_renderer.h"
#include "runtime/thread_pool.h"
#include "test_util.h"

namespace gcc3d {
namespace {

/** Bitwise image comparison: float-exact, reporting the first diff. */
::testing::AssertionResult
imagesBitIdentical(const Image &a, const Image &b)
{
    if (a.width() != b.width() || a.height() != b.height())
        return ::testing::AssertionFailure() << "shape mismatch";
    const auto &pa = a.pixels();
    const auto &pb = b.pixels();
    if (std::memcmp(pa.data(), pb.data(),
                    pa.size() * sizeof(Vec3)) == 0)
        return ::testing::AssertionSuccess();
    for (std::size_t i = 0; i < pa.size(); ++i) {
        if (std::memcmp(&pa[i], &pb[i], sizeof(Vec3)) != 0)
            return ::testing::AssertionFailure()
                   << "first differing pixel " << i << ": " << pa[i]
                   << " vs " << pb[i];
    }
    return ::testing::AssertionFailure() << "memcmp/pixel walk disagree";
}

void
expectStatsIdentical(const GaussianWiseStats &a, const GaussianWiseStats &b)
{
    EXPECT_EQ(a.total, b.total);
    EXPECT_EQ(a.depth_culled, b.depth_culled);
    EXPECT_EQ(a.projected, b.projected);
    EXPECT_EQ(a.survived_cull, b.survived_cull);
    EXPECT_EQ(a.sh_evaluated, b.sh_evaluated);
    EXPECT_EQ(a.sh_skipped, b.sh_skipped);
    EXPECT_EQ(a.rendered_gaussians, b.rendered_gaussians);
    EXPECT_EQ(a.skipped_by_termination, b.skipped_by_termination);
    EXPECT_EQ(a.groups, b.groups);
    EXPECT_EQ(a.groups_processed, b.groups_processed);
    EXPECT_EQ(a.stage2_invocations, b.stage2_invocations);
    EXPECT_EQ(a.survivor_invocations, b.survivor_invocations);
    EXPECT_EQ(a.sh_eval_invocations, b.sh_eval_invocations);
    EXPECT_EQ(a.sh_skip_invocations, b.sh_skip_invocations);
    EXPECT_EQ(a.termination_skip_invocations,
              b.termination_skip_invocations);
    EXPECT_EQ(a.bin_records, b.bin_records);
    EXPECT_EQ(a.alpha_evals, b.alpha_evals);
    EXPECT_EQ(a.blend_ops, b.blend_ops);
    EXPECT_EQ(a.visited_blocks, b.visited_blocks);
    EXPECT_EQ(a.influence_pixels, b.influence_pixels);

    ASSERT_EQ(a.group_trace.size(), b.group_trace.size());
    for (std::size_t i = 0; i < a.group_trace.size(); ++i) {
        const GroupActivity &ga = a.group_trace[i];
        const GroupActivity &gb = b.group_trace[i];
        EXPECT_EQ(ga.members, gb.members) << "group " << i;
        EXPECT_EQ(ga.projected, gb.projected) << "group " << i;
        EXPECT_EQ(ga.survivors, gb.survivors) << "group " << i;
        EXPECT_EQ(ga.sh_evals, gb.sh_evals) << "group " << i;
        EXPECT_EQ(ga.sh_skipped, gb.sh_skipped) << "group " << i;
        EXPECT_EQ(ga.terminated, gb.terminated) << "group " << i;
        EXPECT_EQ(ga.rendered, gb.rendered) << "group " << i;
        EXPECT_EQ(ga.visited_blocks, gb.visited_blocks) << "group " << i;
        EXPECT_EQ(ga.active_blocks, gb.active_blocks) << "group " << i;
        EXPECT_EQ(ga.alpha_evals, gb.alpha_evals) << "group " << i;
        EXPECT_EQ(ga.blend_ops, gb.blend_ops) << "group " << i;
        EXPECT_EQ(ga.skipped, gb.skipped) << "group " << i;
    }
}

struct GwCase
{
    int subview;       ///< 0 = full view
    bool conditional;
    bool room;         ///< occluded layout (exercises termination)
};

std::string
caseName(const ::testing::TestParamInfo<GwCase> &info)
{
    std::string name = info.param.subview == 0
                           ? "FullView"
                           : "Sub" + std::to_string(info.param.subview);
    name += info.param.conditional ? "_CC" : "_NoCC";
    name += info.param.room ? "_Room" : "_Object";
    return name;
}

class GwEquivalence : public ::testing::TestWithParam<GwCase>
{
  protected:
    GaussianWiseConfig
    makeConfig() const
    {
        GaussianWiseConfig cfg;
        cfg.subview_size = GetParam().subview;
        cfg.conditional = GetParam().conditional;
        cfg.group_capacity = 128;
        return cfg;
    }

    GaussianCloud
    makeCloud() const
    {
        return GetParam().room
                   ? generateScene(test::tinyRoomSpec(31, 2600), 1.0f)
                   : generateScene(test::tinySpec(31, 2200), 1.0f);
    }

    Camera
    makeCam() const
    {
        return GetParam().room ? makeCamera(test::tinyRoomSpec(31, 2600))
                               : makeCamera(test::tinySpec(31, 2200));
    }
};

TEST_P(GwEquivalence, OptimizedMatchesReferenceBitExactly)
{
    GaussianCloud cloud = makeCloud();
    Camera cam = makeCam();
    GaussianWiseRenderer renderer(makeConfig());

    GaussianWiseStats st_ref, st_opt;
    Image ref = renderer.renderReference(cloud, cam, st_ref);
    Image opt = renderer.render(cloud, cam, st_opt);

    EXPECT_TRUE(imagesBitIdentical(ref, opt));
    expectStatsIdentical(st_ref, st_opt);
}

TEST_P(GwEquivalence, ThreadedMatchesSerialBitExactly)
{
    GaussianCloud cloud = makeCloud();
    Camera cam = makeCam();
    GaussianWiseRenderer renderer(makeConfig());

    GaussianWiseStats st_serial;
    Image serial = renderer.render(cloud, cam, st_serial);

    for (int workers : {1, 2, 3, 4, 8}) {
        ThreadPool pool(workers);
        GaussianWiseStats st_pooled;
        Image pooled = renderer.render(cloud, cam, st_pooled, &pool);
        EXPECT_TRUE(imagesBitIdentical(serial, pooled))
            << "workers " << workers;
        expectStatsIdentical(st_serial, st_pooled);
    }
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndViews, GwEquivalence,
    ::testing::Values(GwCase{0, true, false}, GwCase{0, true, true},
                      GwCase{0, false, false}, GwCase{0, false, true},
                      GwCase{32, true, false}, GwCase{32, true, true},
                      GwCase{32, false, false}, GwCase{64, true, false},
                      GwCase{64, true, true}, GwCase{64, false, true},
                      GwCase{16, true, true}),
    caseName);

TEST(GwEquivalence, OffViewFootprintsMatchUnderCmode)
{
    // Splats whose centers fall outside their sub-view (negative
    // local coordinates are routine in Cmode) must bin, skip and
    // blend identically in both implementations.
    GaussianCloud cloud("offview");
    cloud.add(test::makeGaussian(Vec3(-1.4f, 0.0f, -2.0f), 1.5f, 0.9f));
    cloud.add(test::makeGaussian(Vec3(1.2f, -0.8f, -1.0f), 0.8f, 0.95f));
    cloud.add(test::makeGaussian(Vec3(0.0f, 0.0f, 0.0f), 0.3f, 0.9f));
    Camera cam = test::frontCamera();

    GaussianWiseConfig cfg;
    cfg.subview_size = 48;
    GaussianWiseRenderer renderer(cfg);
    GaussianWiseStats st_ref, st_opt;
    Image ref = renderer.renderReference(cloud, cam, st_ref);
    Image opt = renderer.render(cloud, cam, st_opt);
    EXPECT_TRUE(imagesBitIdentical(ref, opt));
    expectStatsIdentical(st_ref, st_opt);
    EXPECT_GT(st_ref.blend_ops, 0);
}

TEST(GwEquivalence, EmptySceneMatches)
{
    GaussianCloud cloud("empty");
    Camera cam = test::frontCamera();
    GaussianWiseRenderer renderer;
    GaussianWiseStats st_ref, st_opt;
    Image ref = renderer.renderReference(cloud, cam, st_ref);
    Image opt = renderer.render(cloud, cam, st_opt);
    EXPECT_TRUE(imagesBitIdentical(ref, opt));
    expectStatsIdentical(st_ref, st_opt);
}

TEST(GwEquivalence, PresetScenesMatchReferenceAtSubview128)
{
    // The paper's 128 px Cmode sub-view needs a preset-sized view to
    // tile; serial, four workers and the reference agree bit for bit.
    GaussianWiseConfig cfg;
    cfg.subview_size = 128;
    GaussianWiseRenderer renderer(cfg);
    ThreadPool pool(4);
    for (SceneId id : {SceneId::Palace, SceneId::Lego, SceneId::Train}) {
        SCOPED_TRACE(sceneName(id));
        SceneSpec spec = scenePreset(id);
        GaussianCloud cloud = generateScene(spec, 0.005f);
        Camera cam = makeCamera(spec);
        GaussianWiseStats st_ref, st_opt, st_pooled;
        Image ref = renderer.renderReference(cloud, cam, st_ref);
        Image opt = renderer.render(cloud, cam, st_opt);
        Image pooled = renderer.render(cloud, cam, st_pooled, &pool);
        EXPECT_TRUE(imagesBitIdentical(ref, opt));
        EXPECT_TRUE(imagesBitIdentical(ref, pooled));
        expectStatsIdentical(st_ref, st_opt);
        expectStatsIdentical(st_ref, st_pooled);
    }
}

TEST(GwEquivalence, FastAlphaMeetsPsnrBoundOnPresetScenes)
{
    // --fast-alpha trades bit-exactness for the vectorized polynomial
    // exp; its accuracy contract is perceptual: >= 55 dB PSNR against
    // the exact image on every preset scene (full view and Cmode).
    for (int subview : {0, 128}) {
        GaussianWiseConfig cfg;
        cfg.subview_size = subview;
        GaussianWiseConfig fast_cfg = cfg;
        fast_cfg.fast_alpha = true;
        GaussianWiseRenderer exact(cfg);
        GaussianWiseRenderer fast(fast_cfg);
        for (SceneId id :
             {SceneId::Palace, SceneId::Lego, SceneId::Train}) {
            SceneSpec spec = scenePreset(id);
            GaussianCloud cloud = generateScene(spec, 0.02f);
            Camera cam = makeCamera(spec);
            GaussianWiseStats s1, s2;
            Image img_exact = exact.render(cloud, cam, s1);
            Image img_fast = fast.render(cloud, cam, s2);
            EXPECT_GE(psnr(img_exact, img_fast), 55.0)
                << sceneName(id) << " subview " << subview;
        }
    }
}

// ---------------------------------------------------------------------
// Standard dataflow: the per-tile rasterization fan-out must be
// bit-identical to the serial sweep at every worker count.
// ---------------------------------------------------------------------

TEST(TileRendererThreads, RasterFanOutMatchesSerialAtEveryWorkerCount)
{
    GaussianCloud cloud = generateScene(test::tinyRoomSpec(33, 3500), 1.0f);
    Camera cam = makeCamera(test::tinyRoomSpec(33, 3500));

    TileRenderer renderer;
    StandardFlowStats st_serial;
    Image serial = renderer.render(cloud, cam, st_serial);

    for (int workers : {2, 3, 4, 8}) {
        ThreadPool pool(workers);
        StandardFlowStats st_pooled;
        Image pooled = renderer.render(cloud, cam, st_pooled, &pool);
        EXPECT_TRUE(imagesBitIdentical(serial, pooled))
            << "workers " << workers;
        EXPECT_EQ(st_serial.tile_fetches, st_pooled.tile_fetches);
        EXPECT_EQ(st_serial.fetched_gaussians, st_pooled.fetched_gaussians);
        EXPECT_EQ(st_serial.sorted_keys, st_pooled.sorted_keys);
        EXPECT_EQ(st_serial.sort_pass_keys, st_pooled.sort_pass_keys);
        EXPECT_EQ(st_serial.rendered_gaussians,
                  st_pooled.rendered_gaussians);
        EXPECT_EQ(st_serial.alpha_evals, st_pooled.alpha_evals);
        EXPECT_EQ(st_serial.blend_ops, st_pooled.blend_ops);
        EXPECT_EQ(st_serial.subtile_passes, st_pooled.subtile_passes);
        EXPECT_EQ(st_serial.kv_pairs, st_pooled.kv_pairs);
    }
}

} // namespace
} // namespace gcc3d
