/**
 * @file
 * Golden equivalence suite: the optimized TileRenderer::render (SoA
 * splat store, CSR binning, radix depth sort, bounded pixel
 * iteration, optional parallel prepare) must reproduce the
 * retained reference implementation bit-for-bit — identical images
 * and identical StandardFlowStats — across every bounding mode and
 * tile size the simulators use.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <utility>

#include "render/metrics.h"
#include "render/tile_renderer.h"
#include "runtime/thread_pool.h"
#include "scene/trajectory.h"
#include "test_util.h"

namespace gcc3d {
namespace {

using test::imagesBitIdentical;

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

TEST(RendererEquivalence, LaneBlendMatchesReferenceOnRaggedTiles)
{
    // The lane-group blend must match the per-pixel reference where
    // lane groups are ragged: tile sizes and viewports that are not
    // multiples of the SIMD width, opacity at and above the 0.99
    // clamp, and termination thresholds that retire lanes in the
    // middle of a group (0.5) or almost never (1e-7).
    ThreadPool pool(2);
    for (auto [w, h] : {std::pair{1, 1}, std::pair{7, 5},
                        std::pair{130, 70}}) {
        const SceneSpec spec = test::viewportSpec(w, h);
        const GaussianCloud cloud = test::clampedScene(spec);
        const Camera cam = makeCamera(spec);
        for (int tile : {8, 12, 24, 64}) {
            for (float term : {1e-4f, 0.5f, 1e-7f}) {
                SCOPED_TRACE(::testing::Message()
                             << w << "x" << h << ", tile " << tile
                             << ", termination " << term);
                TileRendererConfig cfg;
                cfg.tile_size = tile;
                cfg.termination_t = term;
                TileRenderer renderer(cfg);
                StandardFlowStats st_ref, st_opt, st_pooled;
                Image ref = renderer.renderReference(cloud, cam, st_ref);
                Image opt = renderer.render(cloud, cam, st_opt);
                Image pooled = renderer.render(cloud, cam, st_pooled, &pool);
                EXPECT_TRUE(imagesBitIdentical(ref, opt));
                EXPECT_TRUE(imagesBitIdentical(ref, pooled));
                expectStatsIdentical(st_ref, st_opt);
                expectStatsIdentical(st_ref, st_pooled);
                if (w > 1) {
                    EXPECT_GT(st_ref.blend_ops, 0);
                }
            }
        }
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

/** FNV-1a over an image's float bytes. */
std::uint64_t
imageHash(const Image &img, std::uint64_t h = 1469598103934665603ull)
{
    const auto *p =
        reinterpret_cast<const unsigned char *>(img.pixels().data());
    for (std::size_t i = 0; i < img.pixelCount() * sizeof(Vec3); ++i)
        h = (h ^ p[i]) * 1099511628211ull;
    return h;
}

TEST(TemporalEquivalence, KeepExactDepthCaptureIsExact)
{
    // keep_exact frames capture each pixel's median-surface depth in
    // the lane blend, and a forced warp lifts every pixel at it.  So
    // a warp after each exact frame must (a) match the warp from a
    // fresh cache whose exact frame was a cold rebuild, and (b) hash
    // to the value the per-pixel blend kernel produced before the
    // lane blend replaced it.  Ragged tiles, a 130x70 viewport and
    // T = 0.5 (lanes cross the median-surface threshold and retire
    // in the same step) stress the per-lane capture.
    SceneSpec spec = test::tinyRoomSpec(47, 2000);
    spec.image_width = 130;
    spec.image_height = 70;
    const GaussianCloud cloud = generateScene(spec, 1.0f);
    const Trajectory stream = heldStream(spec, 4, 0.005f, 1);
    std::uint64_t hash = 1469598103934665603ull;
    for (int tile : {8, 12, 24, 64}) {
        for (float term : {1e-4f, 0.5f}) {
            TileRendererConfig cfg;
            cfg.tile_size = tile;
            cfg.termination_t = term;
            TileRenderer renderer(cfg);
            TemporalCache cache;
            cache.options.keep_exact = true;
            for (std::size_t f = 0; f + 1 < stream.frameCount(); ++f) {
                SCOPED_TRACE(::testing::Message()
                             << "tile " << tile << ", termination "
                             << term << ", frame " << f);
                StandardFlowStats st;
                (void)renderer.renderTemporal(cloud, stream.frame(f), st,
                                              cache);
                const Image warp = renderer.renderTemporal(
                    cloud, stream.frame(f + 1), st, cache, nullptr,
                    /*force_warp=*/true);
                TemporalCache fresh;
                fresh.options.keep_exact = true;
                (void)renderer.renderTemporal(cloud, stream.frame(f), st,
                                              fresh);
                const Image warp_fresh = renderer.renderTemporal(
                    cloud, stream.frame(f + 1), st, fresh, nullptr,
                    /*force_warp=*/true);
                EXPECT_TRUE(imagesBitIdentical(warp_fresh, warp));
                hash = imageHash(warp, hash);
            }
            EXPECT_EQ(cache.counters().warped_frames,
                      static_cast<std::int64_t>(stream.frameCount() - 1));
            EXPECT_GT(cache.counters().incremental_frames, 0);
        }
    }
    EXPECT_EQ(hash, 0xdea34bc1580ad2a0ull);
}

/** Bitwise float-vector comparison, reporting the first diff. */
::testing::AssertionResult
depthsBitIdentical(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return ::testing::AssertionFailure()
               << "size " << a.size() << " vs " << b.size();
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i], &b[i], sizeof(float)) != 0)
            return ::testing::AssertionFailure()
                   << "first differing pixel " << i << ": " << a[i]
                   << " vs " << b[i];
    }
    return ::testing::AssertionSuccess();
}

/**
 * Replay @p stream through a keep_exact cache, then render its last
 * pose through the same cache at another tile size (a snapshot
 * invalidation), checking after every frame that the retained image
 * and captured depth equal renderReference()'s bit for bit.  Returns
 * the incremental frames the replay rendered.
 */
std::int64_t
replayAgainstReferenceDepth(const TileRendererConfig &cfg,
                            const GaussianCloud &cloud,
                            const Trajectory &stream, ThreadPool *pool)
{
    TileRendererConfig other = cfg;
    other.tile_size = cfg.tile_size == 64 ? 8 : 64;
    TemporalCache cache;
    cache.options.keep_exact = true;
    const std::size_t n = stream.frameCount();
    for (std::size_t f = 0; f <= n; ++f) {
        SCOPED_TRACE(::testing::Message()
                     << (f < n ? "frame " : "invalidated, frame ")
                     << std::min(f, n - 1));
        const TileRenderer renderer(f < n ? cfg : other);
        const Camera &cam = stream.frame(std::min(f, n - 1));
        StandardFlowStats st, st_ref;
        const std::int64_t rebuilds = cache.counters().full_rebuilds;
        const Image &img = renderer.renderTemporal(cloud, cam, st, cache, pool);
        std::vector<float> depth;
        const Image ref = renderer.renderReference(cloud, cam, st_ref, &depth);
        EXPECT_TRUE(imagesBitIdentical(ref, img));
        EXPECT_TRUE(depthsBitIdentical(depth, cache.depth()));
        if (f == n) {
            EXPECT_EQ(cache.counters().full_rebuilds, rebuilds + 1);
        }
    }
    return cache.counters().incremental_frames;
}

/**
 * Two Gaussians on the axis of a camera whose viewport has odd sides,
 * so the front one's center lands on a pixel center: there it blends
 * alpha = opacity 0.5 exactly and leaves T == 0.5 for the one behind
 * — the boundary of the median-surface rule.
 */
GaussianCloud
halfAlphaCloud()
{
    GaussianCloud cloud;
    cloud.add(test::makeGaussian(Vec3(0, 0, 0), 0.1f, 0.5f));
    cloud.add(test::makeGaussian(Vec3(0, 0, 1), 0.3f, 0.8f));
    return cloud;
}

TEST(TemporalEquivalence, DepthCaptureMatchesReference)
{
    // The warp source's depth is captured on the lane group of the
    // exact raster (one select per blended group into a tile-local
    // plane).  Every pixel's depth must equal the scalar rule of
    // renderReference — first contributor, replaced by the splat that
    // takes T from >= 0.5 to < 0.5 — on cold, incremental and
    // post-invalidation frames: ragged tiles and 1x1 / 37x23 /
    // half-resolution preset viewports, a camera inside the cloud,
    // termination T of 1e-7 (lanes never retire) and above 1
    // (nothing blends), and 1, 2 and 8 workers.
    ThreadPool pool2(2), pool8(8);
    std::int64_t incremental = 0;

    // T == 0.5 exactly before a blend: the `>=` side of the rule.
    for (auto [w, h] : {std::pair{1, 1}, std::pair{37, 23}}) {
        Camera cam(w, h, 0.9f);
        cam.lookAt(Vec3(0, 0, -4), Vec3(0, 0, 0));
        Trajectory still;
        still.add(cam);
        TileRendererConfig cfg;
        StandardFlowStats st;
        std::vector<float> depth;
        (void)TileRenderer(cfg).renderReference(halfAlphaCloud(), cam, st,
                                                &depth);
        const std::size_t center =
            static_cast<std::size_t>(h / 2) * w + w / 2;
        ASSERT_FLOAT_EQ(depth[center], 5.0f) << w << "x" << h;
        for (int tile : {8, 12, 64}) {
            SCOPED_TRACE(::testing::Message()
                         << "half alpha " << w << "x" << h << ", tile "
                         << tile);
            cfg.tile_size = tile;
            replayAgainstReferenceDepth(cfg, halfAlphaCloud(), still,
                                        nullptr);
        }
    }

    // Generated clouds through ragged viewports and tiles.
    for (auto [w, h] : {std::pair{1, 1}, std::pair{37, 23}}) {
        const SceneSpec spec = test::viewportSpec(w, h);
        const GaussianCloud cloud = test::clampedScene(spec);
        const Trajectory stream = heldStream(spec, 4, 0.01f, 1);
        for (int tile : {8, 12, 24, 64}) {
            for (float term : {1e-4f, 0.5f, 1e-7f, 1.5f}) {
                SCOPED_TRACE(::testing::Message()
                             << w << "x" << h << ", tile " << tile
                             << ", termination " << term);
                TileRendererConfig cfg;
                cfg.tile_size = tile;
                cfg.termination_t = term;
                incremental +=
                    replayAgainstReferenceDepth(cfg, cloud, stream, nullptr);
            }
        }
    }

    // A denser room scene at every worker count, and from a camera
    // inside the cloud (near-plane culling, splats filling the view).
    {
        const SceneSpec spec = test::tinyRoomSpec(53, 3000);
        const GaussianCloud cloud = generateScene(spec, 1.0f);
        Trajectory inside;
        for (int i = 0; i < 4; ++i) {
            Camera cam(spec.image_width, spec.image_height, spec.fov_x);
            const float s = 0.002f * static_cast<float>(i);
            cam.lookAt(Vec3(s, 0.1f, s), Vec3(0.3f + s, 0.1f, 1.0f));
            inside.add(cam);
        }
        const Trajectory stream = heldStream(spec, 4, 0.01f, 1);
        for (auto [workers, tile] :
             {std::pair{1, 16}, std::pair{2, 24}, std::pair{8, 16}}) {
            ThreadPool *p = workers == 1 ? nullptr
                            : workers == 2 ? &pool2
                                           : &pool8;
            SCOPED_TRACE(::testing::Message()
                         << "room, workers " << workers << ", tile "
                         << tile);
            TileRendererConfig cfg;
            cfg.tile_size = tile;
            incremental +=
                replayAgainstReferenceDepth(cfg, cloud, stream, p);
            incremental +=
                replayAgainstReferenceDepth(cfg, cloud, inside, p);
        }
    }

    // Preset scenes at half resolution (the serving ladder's half-res
    // tier viewport).
    for (SceneId id : {SceneId::Lego, SceneId::Train}) {
        const SceneSpec spec = scenePreset(id);
        const GaussianCloud cloud = generateScene(spec, 0.002f);
        const Trajectory path = Trajectory::forSceneArc(spec, 3, 0.001f);
        Trajectory half;
        for (const Camera &cam : path.frames())
            half.add(cam.scaledResolution(0.5f));
        SCOPED_TRACE(sceneName(id));
        TileRendererConfig cfg;
        incremental += replayAgainstReferenceDepth(cfg, cloud, half, &pool2);
    }
    EXPECT_GT(incremental, 0);
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
