/**
 * @file
 * Golden equivalence suite: the optimized TileRenderer::render (SoA
 * splat store, CSR binning, radix depth sort, bounded pixel
 * iteration, optional parallel preprocess) must reproduce the
 * retained reference implementation bit-for-bit — identical images
 * and identical StandardFlowStats — across every bounding mode and
 * tile size the simulators use.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "render/metrics.h"
#include "render/tile_renderer.h"
#include "runtime/thread_pool.h"
#include "scene/trajectory.h"
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
expectStatsIdentical(const StandardFlowStats &a, const StandardFlowStats &b)
{
    EXPECT_EQ(a.pre.total, b.pre.total);
    EXPECT_EQ(a.pre.near_culled, b.pre.near_culled);
    EXPECT_EQ(a.pre.frustum_culled, b.pre.frustum_culled);
    EXPECT_EQ(a.pre.in_frustum, b.pre.in_frustum);
    EXPECT_EQ(a.pre.screen_culled, b.pre.screen_culled);
    EXPECT_EQ(a.pre.projected, b.pre.projected);
    EXPECT_EQ(a.kv_pairs, b.kv_pairs);
    EXPECT_EQ(a.tile_fetches, b.tile_fetches);
    EXPECT_EQ(a.fetched_gaussians, b.fetched_gaussians);
    EXPECT_EQ(a.sorted_keys, b.sorted_keys);
    EXPECT_EQ(a.rendered_gaussians, b.rendered_gaussians);
    EXPECT_EQ(a.alpha_evals, b.alpha_evals);
    EXPECT_EQ(a.blend_ops, b.blend_ops);
    EXPECT_EQ(a.subtile_passes, b.subtile_passes);
    EXPECT_EQ(a.sort_pass_keys, b.sort_pass_keys);
}

struct EquivCase
{
    BoundingMode mode;
    int tile_size;
};

std::string
caseName(const ::testing::TestParamInfo<EquivCase> &info)
{
    const char *mode = "";
    switch (info.param.mode) {
      case BoundingMode::Aabb3Sigma: mode = "Aabb3Sigma"; break;
      case BoundingMode::Obb3Sigma: mode = "Obb3Sigma"; break;
      case BoundingMode::OmegaSigma: mode = "OmegaSigma"; break;
      case BoundingMode::Conservative: mode = "Conservative"; break;
    }
    return std::string(mode) + "_tile" +
           std::to_string(info.param.tile_size);
}

class RendererEquivalence : public ::testing::TestWithParam<EquivCase>
{
};

TEST_P(RendererEquivalence, OptimizedMatchesReferenceBitExactly)
{
    GaussianCloud cloud = generateScene(test::tinySpec(3, 1500), 1.0f);
    Camera cam = makeCamera(test::tinySpec(3, 1500));

    TileRendererConfig cfg;
    cfg.bounding = GetParam().mode;
    cfg.tile_size = GetParam().tile_size;
    TileRenderer renderer(cfg);

    StandardFlowStats st_ref, st_opt;
    Image ref = renderer.renderReference(cloud, cam, st_ref);
    Image opt = renderer.render(cloud, cam, st_opt);

    EXPECT_TRUE(imagesBitIdentical(ref, opt));
    expectStatsIdentical(st_ref, st_opt);
}

INSTANTIATE_TEST_SUITE_P(
    ModesAndTiles, RendererEquivalence,
    ::testing::Values(
        EquivCase{BoundingMode::Aabb3Sigma, 8},
        EquivCase{BoundingMode::Aabb3Sigma, 16},
        EquivCase{BoundingMode::Aabb3Sigma, 64},
        EquivCase{BoundingMode::Obb3Sigma, 16},
        EquivCase{BoundingMode::Obb3Sigma, 32},
        EquivCase{BoundingMode::Obb3Sigma, 64},
        EquivCase{BoundingMode::OmegaSigma, 8},
        EquivCase{BoundingMode::OmegaSigma, 16},
        EquivCase{BoundingMode::OmegaSigma, 32},
        EquivCase{BoundingMode::Conservative, 16},
        EquivCase{BoundingMode::Conservative, 32},
        EquivCase{BoundingMode::Conservative, 64}),
    caseName);

TEST(RendererEquivalence, DenseOccludedSceneMatches)
{
    // Room layout: heavy occlusion exercises early termination, the
    // live/sub_live bookkeeping and the tile-fetch break.
    GaussianCloud cloud = generateScene(test::tinyRoomSpec(), 1.0f);
    Camera cam = makeCamera(test::tinyRoomSpec());

    TileRenderer renderer;
    StandardFlowStats st_ref, st_opt;
    Image ref = renderer.renderReference(cloud, cam, st_ref);
    Image opt = renderer.render(cloud, cam, st_opt);
    EXPECT_TRUE(imagesBitIdentical(ref, opt));
    expectStatsIdentical(st_ref, st_opt);
}

TEST(RendererEquivalence, GroundTruthConfigMatches)
{
    // The near-exact Table 2 configuration: tiny cutoffs mean the
    // cutoff-safe iteration rects are at their widest; the bounded
    // loop must still not drop a single contributing pixel.
    GaussianCloud cloud = generateScene(test::tinySpec(5, 1200), 1.0f);
    Camera cam = makeCamera(test::tinySpec(5, 1200));

    TileRenderer renderer(TileRendererConfig::groundTruth());
    StandardFlowStats st_ref, st_opt;
    Image ref = renderer.renderReference(cloud, cam, st_ref);
    Image opt = renderer.render(cloud, cam, st_opt);
    EXPECT_TRUE(imagesBitIdentical(ref, opt));
    expectStatsIdentical(st_ref, st_opt);
}

TEST(RendererEquivalence, HugeOffCenterSplatMatchesUnderGroundTruth)
{
    // A near-camera Gaussian with an enormous footprint whose center
    // projects off-image: the cutoff-safe radius exceeds any on-screen
    // distance, so the fast path must fall back to full-image
    // iteration rects rather than a capped radius (which would not be
    // conservative under the ground-truth config's tiny cutoff).
    GaussianCloud cloud("huge");
    Gaussian big = test::makeGaussian(Vec3(-1.4f, 0.0f, -2.0f), 2.5f,
                                      0.95f);
    big.setBaseColor(Vec3(0.2f, 0.8f, 0.3f));
    cloud.add(big);
    Gaussian small = test::makeGaussian(Vec3(0.2f, 0.1f, 0.0f), 0.2f,
                                        0.9f);
    cloud.add(small);
    Camera cam = test::frontCamera();

    TileRenderer renderer(TileRendererConfig::groundTruth());
    StandardFlowStats st_ref, st_opt;
    Image ref = renderer.renderReference(cloud, cam, st_ref);
    Image opt = renderer.render(cloud, cam, st_opt);
    EXPECT_TRUE(imagesBitIdentical(ref, opt));
    expectStatsIdentical(st_ref, st_opt);
    EXPECT_GT(st_ref.blend_ops, 0);
}

TEST(RendererEquivalence, EmptySceneMatches)
{
    GaussianCloud cloud("empty");
    Camera cam = test::frontCamera();
    TileRenderer renderer;
    StandardFlowStats st_ref, st_opt;
    Image ref = renderer.renderReference(cloud, cam, st_ref);
    Image opt = renderer.render(cloud, cam, st_opt);
    EXPECT_TRUE(imagesBitIdentical(ref, opt));
    expectStatsIdentical(st_ref, st_opt);
}

TEST(RendererEquivalence, ParallelPreprocessIsBitIdentical)
{
    // Chunked parallel preprocess must merge to the serial result:
    // same splat sequence (bit-compared), same counters.
    GaussianCloud cloud = generateScene(test::tinySpec(7, 6000), 1.0f);
    Camera cam = makeCamera(test::tinySpec(7, 6000));

    PreprocessStats st_serial, st_par;
    std::vector<Splat> serial = preprocessAll(cloud, cam, st_serial);
    ThreadPool pool(4);
    std::vector<Splat> parallel =
        preprocessAll(cloud, cam, st_par, &pool);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const Splat &a = serial[i];
        const Splat &b = parallel[i];
        EXPECT_EQ(a.id, b.id) << "splat " << i;
        EXPECT_EQ(std::memcmp(&a.depth, &b.depth, sizeof(float)), 0);
        EXPECT_EQ(a.ellipse.center, b.ellipse.center) << "splat " << i;
        EXPECT_EQ(std::memcmp(&a.ellipse.conic, &b.ellipse.conic,
                              sizeof(Mat2)), 0)
            << "splat " << i;
        EXPECT_EQ(std::memcmp(&a.color, &b.color, sizeof(Vec3)), 0)
            << "splat " << i;
        EXPECT_EQ(a.opacity, b.opacity) << "splat " << i;
        EXPECT_EQ(a.radius_omega, b.radius_omega) << "splat " << i;
        EXPECT_EQ(a.radius_3sigma, b.radius_3sigma) << "splat " << i;
    }
    EXPECT_EQ(st_serial.total, st_par.total);
    EXPECT_EQ(st_serial.near_culled, st_par.near_culled);
    EXPECT_EQ(st_serial.frustum_culled, st_par.frustum_culled);
    EXPECT_EQ(st_serial.in_frustum, st_par.in_frustum);
    EXPECT_EQ(st_serial.screen_culled, st_par.screen_culled);
    EXPECT_EQ(st_serial.projected, st_par.projected);
}

TEST(RendererEquivalence, RenderWithPoolMatchesWithout)
{
    GaussianCloud cloud = generateScene(test::tinySpec(11, 5000), 1.0f);
    Camera cam = makeCamera(test::tinySpec(11, 5000));

    TileRenderer renderer;
    StandardFlowStats st_serial, st_pooled;
    Image serial = renderer.render(cloud, cam, st_serial);
    ThreadPool pool(3);
    Image pooled = renderer.render(cloud, cam, st_pooled, &pool);
    EXPECT_TRUE(imagesBitIdentical(serial, pooled));
    expectStatsIdentical(st_serial, st_pooled);
}

TEST(RendererEquivalence,
     VectorizedPathMatchesReferenceAcrossTileSizesAndWorkers)
{
    // The SIMD default path must stay bit-identical to the scalar
    // reference at every tile size the simulators use and at every
    // worker count (serial, 2, 8) — lane tails, row masks and the
    // compacted blend all change shape with the tile size.
    GaussianCloud cloud = generateScene(test::tinySpec(13, 4000), 1.0f);
    Camera cam = makeCamera(test::tinySpec(13, 4000));

    for (int tile : {8, 16, 32, 64}) {
        TileRendererConfig cfg;
        cfg.tile_size = tile;
        TileRenderer renderer(cfg);
        StandardFlowStats st_ref;
        Image ref = renderer.renderReference(cloud, cam, st_ref);
        for (int workers : {1, 2, 8}) {
            ThreadPool pool(workers);
            StandardFlowStats st;
            Image img = renderer.render(cloud, cam, st,
                                        workers > 1 ? &pool : nullptr);
            EXPECT_TRUE(imagesBitIdentical(ref, img))
                << "tile " << tile << ", workers " << workers;
            expectStatsIdentical(st_ref, st);
        }
    }
}

TEST(RendererEquivalence, FastAlphaMeetsPsnrBoundOnPresetScenes)
{
    // --fast-alpha trades bit-exactness for the vectorized polynomial
    // exp; its accuracy contract is perceptual: >= 55 dB PSNR against
    // the exact image on every preset scene.
    TileRendererConfig fast_cfg;
    fast_cfg.fast_alpha = true;
    TileRenderer exact;
    TileRenderer fast(fast_cfg);
    for (SceneId id : {SceneId::Palace, SceneId::Lego, SceneId::Train}) {
        SceneSpec spec = scenePreset(id);
        GaussianCloud cloud = generateScene(spec, 0.02f);
        Camera cam = makeCamera(spec);
        StandardFlowStats s1, s2;
        Image img_exact = exact.render(cloud, cam, s1);
        Image img_fast = fast.render(cloud, cam, s2);
        EXPECT_GE(psnr(img_exact, img_fast), 55.0) << sceneName(id);
        // (No stats equality here: the q-mask decisions match, but
        // termination-dependent counters like alpha_evals may shift
        // by a pixel when the approximate alpha moves t across the
        // termination threshold.)
    }
}

/** A slow camera stream with each pose held @p hold display frames. */
Trajectory
heldStream(const SceneSpec &spec, int poses, float arc, int hold)
{
    Trajectory path = Trajectory::forSceneArc(spec, poses, arc);
    Trajectory stream;
    for (const Camera &cam : path.frames())
        for (int h = 0; h < hold; ++h)
            stream.add(cam);
    return stream;
}

TEST(TemporalEquivalence,
     ExactModeMatchesColdAcrossTileSizesAndWorkers)
{
    // The exact temporal mode's whole contract: replaying a
    // trajectory through the persistent cache — full rebuild, then
    // incremental binning, dirty-tile reuse and held-frame copies —
    // is bit-identical to rendering every frame cold, in every
    // bounding mode, at every tile size and worker count, with and
    // without the warp source the serving ladder keeps
    // (keep_exact).  A full rebuild runs render()'s stages, so its
    // stats match the cold frame's too.
    SceneSpec spec = test::tinySpec(17, 2500);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Trajectory stream = heldStream(spec, 4, 0.1f, 2);
    const std::size_t n = stream.frameCount();

    for (BoundingMode mode :
         {BoundingMode::Aabb3Sigma, BoundingMode::Obb3Sigma,
          BoundingMode::OmegaSigma, BoundingMode::Conservative}) {
        for (int tile : {8, 16, 32, 64}) {
            TileRendererConfig cfg;
            cfg.bounding = mode;
            cfg.tile_size = tile;
            TileRenderer renderer(cfg);
            // Cold frames are worker-count invariant
            // (RenderWithPoolMatchesWithout), so one serial pass
            // serves every cache configuration below.
            std::vector<Image> cold(n);
            std::vector<StandardFlowStats> st_cold(n);
            for (std::size_t f = 0; f < n; ++f)
                cold[f] = renderer.render(cloud, stream.frame(f),
                                          st_cold[f]);
            for (bool keep_exact : {false, true}) {
                for (int workers : {1, 2, 8}) {
                    ThreadPool pool(workers);
                    ThreadPool *p = workers > 1 ? &pool : nullptr;
                    TemporalCache cache;
                    cache.options.keep_exact = keep_exact;
                    for (std::size_t f = 0; f < n; ++f) {
                        SCOPED_TRACE(::testing::Message()
                                     << "mode " << static_cast<int>(mode)
                                     << ", tile " << tile
                                     << ", keep_exact " << keep_exact
                                     << ", workers " << workers
                                     << ", frame " << f);
                        StandardFlowStats st_warm;
                        const std::int64_t rebuilds_before =
                            cache.counters().full_rebuilds;
                        Image warm = renderer.renderTemporal(
                            cloud, stream.frame(f), st_warm, cache, p);
                        EXPECT_TRUE(imagesBitIdentical(cold[f], warm));
                        if (cache.counters().full_rebuilds >
                            rebuilds_before)
                            expectStatsIdentical(st_cold[f], st_warm);
                    }
                    const TemporalCounters &c = cache.counters();
                    EXPECT_EQ(c.frames, n);
                    EXPECT_EQ(c.copied_frames, n / 2);  // held repeats
                    EXPECT_EQ(c.exact_frames, n - n / 2);
                    // Every exact frame is either incremental or a
                    // full rebuild (a pose change that alters the
                    // culled population forces the latter by design).
                    EXPECT_EQ(c.full_rebuilds + c.incremental_frames,
                              c.exact_frames);
                    EXPECT_GE(c.full_rebuilds, 1u);
                    EXPECT_EQ(c.warped_frames, 0u);
                }
            }
        }
    }
}

TEST(TemporalEquivalence, CacheStateNeverChangesPixels)
{
    // Frame i's pixels must not depend on how the cache got there:
    // replaying frames 0..M and rendering frame M against a fresh
    // cache both reproduce the cold image bit-for-bit.
    SceneSpec spec = test::tinySpec(19, 2000);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Trajectory stream = heldStream(spec, 5, 0.08f, 1);
    const std::size_t last = stream.frameCount() - 1;

    TileRenderer renderer;
    StandardFlowStats st;
    Image cold = renderer.render(cloud, stream.frame(last), st);

    TemporalCache replay;
    Image via_replay;
    for (std::size_t f = 0; f <= last; ++f)
        via_replay = renderer.renderTemporal(cloud, stream.frame(f),
                                             st, replay);

    TemporalCache fresh;
    Image via_fresh = renderer.renderTemporal(cloud, stream.frame(last),
                                              st, fresh);

    EXPECT_TRUE(imagesBitIdentical(cold, via_replay));
    EXPECT_TRUE(imagesBitIdentical(cold, via_fresh));
    EXPECT_EQ(fresh.counters().full_rebuilds, 1u);
    EXPECT_GT(replay.counters().incremental_frames, 0u);
}

TEST(TemporalEquivalence, InvalidatesOnSceneOrConfigChange)
{
    // A cache can be handed a different cloud or a differently
    // configured renderer: the snapshot check must detect it and fall
    // back to a full rebuild instead of patching stale state.
    SceneSpec spec = test::tinySpec(23, 1500);
    GaussianCloud cloud_a = generateScene(spec, 1.0f);
    GaussianCloud cloud_b = generateScene(test::tinySpec(29, 900), 1.0f);
    Camera cam = makeCamera(spec);

    TileRenderer renderer;
    TemporalCache cache;
    StandardFlowStats st;
    renderer.renderTemporal(cloud_a, cam, st, cache);

    // Different cloud through the same cache.
    Image cold_b = renderer.render(cloud_b, cam, st);
    Image warm_b = renderer.renderTemporal(cloud_b, cam, st, cache);
    EXPECT_TRUE(imagesBitIdentical(cold_b, warm_b));
    EXPECT_EQ(cache.counters().full_rebuilds, 2u);

    // Different tile size through the same cache.
    TileRendererConfig cfg;
    cfg.tile_size = 64;
    TileRenderer renderer64(cfg);
    Image cold64 = renderer64.render(cloud_b, cam, st);
    Image warm64 = renderer64.renderTemporal(cloud_b, cam, st, cache);
    EXPECT_TRUE(imagesBitIdentical(cold64, warm64));
    EXPECT_EQ(cache.counters().full_rebuilds, 3u);
}

TEST(TemporalEquivalence, HeldCameraIsCopiedInWarpMode)
{
    // Bit-identical repeated poses short-circuit to a copy in every
    // mode — including between warp keyframes, where the copy must
    // not consume warp cadence.
    SceneSpec spec = test::tinySpec(31, 1200);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Camera cam = makeCamera(spec);

    TileRenderer renderer;
    TemporalCache cache;
    cache.options.every = 4;
    StandardFlowStats st;
    Image first = renderer.renderTemporal(cloud, cam, st, cache);
    Image second = renderer.renderTemporal(cloud, cam, st, cache);
    EXPECT_TRUE(imagesBitIdentical(first, second));
    EXPECT_EQ(cache.counters().copied_frames, 1u);
    EXPECT_EQ(cache.counters().warped_frames, 0u);
}

TEST(TemporalEquivalence, WarpModeKeyframesAreExactAndPaced)
{
    // --temporal K: frame 0 and every K-th distinct pose after it are
    // exact (bit-identical to cold); the in-between frames are
    // reprojected and must stay perceptually close on this slow path.
    SceneSpec spec = test::tinySpec(37, 2000);
    GaussianCloud cloud = generateScene(spec, 1.0f);
    Trajectory stream = heldStream(spec, 7, 0.03f, 1);
    const int every = 3;

    TileRenderer renderer;
    TemporalCache cache;
    cache.options.every = every;
    for (std::size_t f = 0; f < stream.frameCount(); ++f) {
        StandardFlowStats st_cold, st_warm;
        Image cold = renderer.render(cloud, stream.frame(f), st_cold);
        Image warm = renderer.renderTemporal(cloud, stream.frame(f),
                                             st_warm, cache);
        if (f % every == 0) {
            EXPECT_TRUE(imagesBitIdentical(cold, warm)) << "frame " << f;
        } else {
            // Sanity floor only: at this test's tiny image size the
            // per-tile depth planes are very coarse.  The >= 40 dB
            // streaming contract is enforced on the preset scenes at
            // streaming step sizes by
            // PresetStreamsHoldTheStreamingContracts.
            EXPECT_GE(psnrDb(cold, warm), 20.0) << "frame " << f;
        }
    }
    const TemporalCounters &c = cache.counters();
    EXPECT_EQ(c.exact_frames, 3u);   // frames 0, 3, 6
    EXPECT_EQ(c.warped_frames, 4u);  // frames 1, 2, 4, 5
    EXPECT_EQ(c.copied_frames, 0u);
}

TEST(TemporalEquivalence, PresetStreamsHoldTheStreamingContracts)
{
    // Headset step sizes: 8 poses over 0.1% of each preset's path,
    // each pose held 2 display frames, and unheld (a serving session
    // at --traj-arc 0.001).  Exact mode is bit-identical to cold;
    // warp mode (every 4th pose exact) stays >= 40 dB.  An exact-mode
    // held repeat returns the cached image without touching the
    // cache, so the held stream covers both shapes' exact frames.
    const int kPoses = 8;
    TileRenderer renderer;
    for (SceneId id : {SceneId::Palace, SceneId::Lego, SceneId::Train}) {
        SceneSpec spec = scenePreset(id);
        GaussianCloud cloud = generateScene(spec, 0.01f);
        Trajectory path = Trajectory::forSceneArc(spec, kPoses, 0.001f);
        std::vector<Image> cold(kPoses);
        for (int p = 0; p < kPoses; ++p) {
            StandardFlowStats st;
            cold[p] = renderer.render(cloud, path.frame(p), st);
        }
        for (int hold : {2, 1}) {
            TemporalCache exact;
            TemporalCache warp;
            warp.options.every = 4;
            double min_psnr = std::numeric_limits<double>::infinity();
            for (int p = 0; p < kPoses; ++p) {
                for (int h = 0; h < hold; ++h) {
                    SCOPED_TRACE(::testing::Message()
                                 << sceneName(id) << ", hold " << hold
                                 << ", pose " << p);
                    StandardFlowStats st;
                    if (hold == 2) {
                        EXPECT_TRUE(imagesBitIdentical(
                            cold[p], renderer.renderTemporal(
                                         cloud, path.frame(p), st, exact)));
                    }
                    min_psnr = std::min(
                        min_psnr,
                        psnrDb(cold[p], renderer.renderTemporal(
                                            cloud, path.frame(p), st, warp)));
                }
            }
            EXPECT_GT(warp.counters().warped_frames, 0u)
                << sceneName(id) << ", hold " << hold;
            EXPECT_GE(min_psnr, 40.0) << sceneName(id) << ", hold " << hold;
        }
    }
}

TEST(TemporalEquivalence, ForcedWarpTierHolds40DbOnPreset)
{
    // The serving ladder's Warp tier reprojects the frame a keep_exact
    // cache retained; at a headset step it must hold >= 40 dB too.
    SceneSpec spec = scenePreset(SceneId::Palace);
    GaussianCloud cloud = generateScene(spec, 0.01f);
    Trajectory path = Trajectory::forSceneArc(spec, 2, 0.0003f);

    TileRenderer renderer;
    TemporalCache cache;
    cache.options.keep_exact = true;
    StandardFlowStats st;
    (void)renderer.renderTemporal(cloud, path.frame(0), st, cache);
    Image cold = renderer.render(cloud, path.frame(1), st);
    Image warp = renderer.renderTemporal(cloud, path.frame(1), st, cache,
                                         nullptr, /*force_warp=*/true);
    EXPECT_EQ(cache.counters().warped_frames, 1u);
    EXPECT_GE(psnrDb(cold, warp), 40.0);
}

} // namespace
} // namespace gcc3d
